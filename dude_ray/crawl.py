"""The distributed crawl — frontier actor + worker pool + fetch/extract rounds.

Reference lifecycle being replayed (SURVEY §3.3,
/root/reference/dude/base.py:361-376 + optional/beautifulsoup_scraper
.py:58-94): seed the frontier → pop FIFO → allowed-domains filter →
robots gate (+ crawl-delay) → fetch → follow links (append) → extract
→ save.  Equivalence contract vs. that sequential loop (proof sketch
in dude_ray/state/frontier.py docstring): with politeness deferral off
the visit sequence ordered by enqueue key equals the sequential
replay's visit sequence globally; with politeness on, the first-visit
SET is identical and per-host FIFO order is preserved.

Ray shape per round:

    frontier.release_round()  ──►  one RPC; a key-sorted Arrow table per
        │  logical shard, kept in the object store; driver sees only
        │  int64 keys + int32 parts (numpy lexsort → global
        │  order_in_round ranks; URL strings never transit the driver)
        ▼
    CrawlWorker pool — PERSISTENT raw actors (pooled across crawls with
    the frontier, see "Actor pool" below; one crawl's corpus partition
    cache + compiled selectors stay warm across its rounds — the one
    stage whose state per-execution Dataset pools cannot amortize),
    fed about two chunk tasks per worker per round (``plan_chunks``):
    rows go to workers by corpus part (cold parts cache-affine, hot
    parts fan out over a persistent owner set that grows only past the
    round's fair share), and each worker's share, across shards and
    parts, is cut into chunks of at most ``batch_size`` rows; a chunk
    is a list of (shard table ref, row indices, ranks) slices:
        fetch = partitioned corpus lookup (LRU part cache)
        parse DOM once → span extraction + link collection
        links → canonicalize+SHA-1 → host-hash shard buckets →
        frontier.offer, one RPC per chunk (fire-and-forget; refs
        returned with the chunk and confirmed by the driver, which
        replays maybe-lost chunks — lossless)
        │  result blocks stay in the object store (refs)
        ▼
    worker write_part calls → round-partitioned parquet (atomic dir commit)

``pipelined=True`` (bench mode) drops the per-round barrier: releases
consume whatever offers have landed; the visit SET is provably
unchanged (gates are per-URL and static, dedup is first-offer-wins on
a set), only the deterministic enqueue-key labels are given up —
asserted by tests/test_crawl.py::test_pipelined_same_visit_set.

Checkpoint/resume: every ``checkpoint_every`` rounds pending writes are
drained, output partitions commit atomically, and the frontier
snapshots every shard in one call (Bloom bytes + queues + counters, one
``shard_{i}.bin`` per logical shard) — ``resume=True`` restores the newest
complete (round, snapshot) pair, deletes partial round dirs and
continues; per-partition lineage lives in ``CHECKPOINT/meta.json``.
REPLAY BOUND: the persist itself is deferred one checkpoint interval
(so the crawl loop never blocks on disk while workers starve — see the
deferred-persist block in ``run_crawl``), which means the newest
DURABLE checkpoint lags the loop by up to 2×``checkpoint_every``
rounds; a crash replays at most that many rounds (idempotently —
correctness is unaffected, only recovery time).  Halve
``checkpoint_every`` if the 2× recovery bound matters more than the
~zero-stall steady state.

Actor pool: booting the frontier and worker processes costs seconds of
CPU each (Ray's worker start-up plus the pyarrow/ray.data imports), far
more than a small crawl's frontier work.  So the frontier and workers
live in one module-level pool, keyed on (Ray session, resolved
``concurrency``), and are reused by the next ``run_crawl`` with the
same key; a different key replaces the pool.  The one frontier process
hosts any number of logical shards, so ``num_shards`` is not part of
the key.  Reset contract, at the start of every call:

* any pooled actor that died or restarted since the last call is
  replaced, so each crawl has the full restart budget;
* the frontier runs ``reset``, which builds ``num_shards`` fresh
  shards with this crawl's robots, allowed domains, capacity and gates
  (``restore`` follows on resume);
* each worker adopts this crawl's config — corpus, rules, frontier
  handle and shard count — with a fresh ``CorpusFetcher`` and zeroed
  counters.  The config travels with every chunk task as (epoch,
  [config ref]), so a worker that Ray restarts mid-crawl (``__init__``
  holds no crawl config) reconfigures itself before its retried chunk
  runs.

Nothing in ``METRICS.json`` therefore carries over from an earlier
call.  The pool holds no logical CPU between calls.  A normal return
leaves it alive; an exception kills it.  Calls from several threads of
one process take turns on it.

Scale notes: released URL batches cross the store as Arrow columns and
transit the driver once per round for the global key sort; the
10^10-frontier variant keeps them as ObjectRefs (each shard's block is
already key-sorted, so the global order needs only a k-way merge of
block boundaries).  Output is partitioned per round, so a resumed run
skips finished partitions.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
from typing import Optional

import pyarrow as pa
import ray
import ray.data as rd

from .canonical import canonical_url_host, canonicalize_url, url_host
from .htmlparser import parse_html
from .pipelines.flagship import flagship_rules
from .sources.corpus import ensure_corpus, load_manifest, load_robots, load_seeds
from .stages.extract import (
    SPANS_TYPE,
    _CompiledRules,
    accumulate_spans,
    extract_all,
    spans_column,
)
from .stages.fetch import CorpusFetcher
from .stages.links import collect_links, route_edges
from .state.frontier import Frontier, release_free_memory

# What a CrawlWorker's busy time is spent on, per page batch: corpus
# lookup, DOM parse, span extraction (the spans column included), link
# collection, and edge routing plus the output table.
WORKER_LAYERS = ("fetch", "parse", "extract", "links", "route")


class CrawlWorker:
    """Persistent crawl worker: fetch + parse-once + extract spans +
    route edges.  A raw Ray actor kept in the crawl's actor pool (not a
    per-round Ray Data pool): the corpus partition cache and compiled
    selector programs stay warm across a crawl's frontier rounds, and
    the process itself is reused by the next crawl — the frontier loop
    is the one stage whose statefulness the per-execution Dataset actor
    pools cannot amortize.  Rows are routed with corpus-part affinity
    (a cold part goes to worker part % pool_size; see ``plan_chunks``)
    so each worker caches mostly its slice of the corpus.

    The crawl's config is not a constructor argument: each chunk task
    carries the crawl's ``epoch`` and its config as ``[ObjectRef]``
    (a list, so Ray does not fetch it per task), and the worker
    rebuilds its per-crawl state whenever the epoch changes
    (``configure``).  A worker that Ray restarts reruns an ``__init__``
    that holds no crawl config, so its retried chunk always runs under
    the config of the crawl it belongs to.

    One DOM parse serves both span extraction and link collection.
    Offers are fire-and-forget (the worker never blocks on frontier
    RPCs).
    Edge-delivery accounting is two-tier:
    * fast path — ``flush_offers`` barriers this worker's pending offer
      refs owner-locally (cheap) and returns the worker's incarnation
      ``token``; unchanged tokens across a barrier prove no worker died,
      hence every offer either flushed now or in an earlier flush;
    * slow path — each chunk ALSO returns its offer refs to the driver
      (tiny second return), so when a token changes (worker died — its
      un-flushed offers may have died with it) the driver verifies each
      outstanding chunk's refs and re-dispatches the maybe-lost ones.
      Re-offering is idempotent (first-offer-wins seen set); a replay's
      span output is discarded."""

    def __init__(self):
        import gc
        import time as _t

        # incarnation token: changes iff this actor restarted (new
        # process) — the driver's cheap worker-death detector
        self.token = f"{os.getpid()}-{_t.time_ns()}"
        self.epoch = None
        self.fetcher = self.compiled = self.frontier = None
        self.num_shards = 0
        self.follow_urls = True
        self._last_offers: list = []
        self._pending_offers: list = []
        self.busy_s = 0.0
        self.layers_s = dict.fromkeys(WORKER_LAYERS, 0.0)
        self.n_batches = 0
        # Each page's DOM is decomposed once its spans and links are
        # out, so reference counting frees it.  The cyclic GC stays on
        # for other garbage, but under the default gen0 threshold (700)
        # it scanned the worker's young heap thousands of times per
        # batch of parses — a measurable fraction of the 8→32 busy-time
        # inflation — so it runs much less often, and the warm heap is
        # frozen out of it (``configure``).
        gc.set_threshold(50_000, 20, 20)

    def configure(self, epoch: int, cfg: list) -> str:
        """Adopt crawl ``epoch``'s config (``cfg[0]``: an ObjectRef of
        the dict ``run_crawl`` puts) unless already on it; returns the
        incarnation token.  A new epoch drops the previous crawl's state
        and returns its memory first.

        The warm heap (imports, Ray's state) stays frozen out of the
        cyclic GC across crawls: the one collection here scans only what
        was allocated since the last freeze, which is the previous
        crawl's state and garbage, and the freeze comes before this
        crawl's state is built, so that state stays collectable.
        Unfreezing here would make the collection scan the whole
        ~120k-object heap at the start of every crawl."""
        if epoch != self.epoch:
            import gc

            conf = ray.get(cfg[0])
            self.fetcher = self.compiled = None
            self._last_offers, self._pending_offers = [], []
            release_free_memory()
            gc.freeze()
            self.fetcher = CorpusFetcher(conf["corpus_dir"], conf["num_parts"])
            self.compiled = _CompiledRules(list(conf["rules"]))
            self.frontier = conf["frontier"]
            self.num_shards = conf["num_shards"]
            self.busy_s = 0.0
            self.layers_s = dict.fromkeys(WORKER_LAYERS, 0.0)
            self.n_batches = 0
            self.epoch = epoch
        return self.token

    def process_slice(self, slices: list, rnd: int, epoch: int, cfg: list):
        """Process one chunk: ``slices`` is ``[(shard table ref, row
        indices, visit ranks), ...]`` (see ``plan_chunks``), so URL
        payload flows shard → object store → worker without transiting
        the driver.  The refs sit in a list, so Ray does not resolve
        them; the worker ``ray.get``s the tables (zero-copy from the
        plasma store on the same node) and concatenates the taken rows.

        Called with ``num_returns=2``: (result table, this chunk's
        in-flight offer ObjectRefs).  The driver fetches only the tiny
        second return to confirm edge delivery — the table ref goes
        straight to the writers.  ``epoch``/``cfg``: the crawl this
        chunk belongs to (see ``configure``)."""
        import time as _t

        import numpy as np

        self.configure(epoch, cfg)
        tables = ray.get([ref for ref, _, _ in slices])
        batch = pa.concat_tables([t.take(pa.array(idx))
                                  for t, (_, idx, _) in zip(tables, slices)])
        order = np.concatenate([ranks for _, _, ranks in slices])
        batch = batch.append_column(
            "round", pa.array(np.full(len(order), rnd, dtype=np.int32)))
        batch = batch.append_column("order_in_round", pa.array(order, type=pa.int64()))
        t0 = _t.time()
        out = self(batch)
        self.busy_s += _t.time() - t0
        self.n_batches += 1
        offers, self._last_offers = self._last_offers, []
        return out, offers

    def flush_offers(self) -> str:
        """Owner-local barrier on this worker's in-flight offers;
        returns the incarnation token (see class docstring)."""
        if self._pending_offers:
            ray.get(self._pending_offers)
            self._pending_offers.clear()
        return self.token

    def write_part(self, refs: list, path: str) -> int:
        """Concat finished result blocks (already in the object store)
        and write one parquet part file — no driver transit, no
        per-round streaming-executor spin-up, and no task worker: the
        crawl's writes run on its pooled workers (see ``run_crawl``)."""
        import pyarrow.parquet as pq

        t = pa.concat_tables(ray.get(refs))
        tmp = path + ".tmp"
        pq.write_table(t, tmp)
        os.replace(tmp, path)
        return t.num_rows

    def worker_stats(self) -> dict:
        return {"busy_s": round(self.busy_s, 2), "n_batches": self.n_batches,
                "layers_s": dict(self.layers_s)}

    def ping(self) -> bool:
        return True

    def __call__(self, batch: pa.Table) -> pa.Table:
        from time import perf_counter

        layers = self.layers_s
        t0 = perf_counter()
        urls = batch["url"].to_pylist()
        depths = batch["depth"].to_pylist()
        rounds = batch["round"].to_pylist()
        orders = batch["order_in_round"].to_pylist()
        htmls = self.fetcher.lookup(urls)
        t1 = perf_counter()
        layers["fetch"] += t1 - t0
        parse_s = extract_s = links_s = 0.0
        statuses, n_links_col = [], []
        kinds: list[str] = []
        texts: list[str] = []
        refs_c: list[str] = []
        offs: list[int] = []
        offsets = [0]
        edge_urls: list[str] = []
        edge_depths: list[int] = []
        edge_keys: list[tuple] = []
        for url, depth, rnd, order, html in zip(urls, depths, rounds, orders, htmls):
            if html is None:
                # fetch error → status row, page skipped
                # (/root/reference/dude/optional/utils.py:16-28)
                statuses.append("missing")
                offsets.append(len(kinds))
                n_links_col.append(0)
                continue
            t0 = perf_counter()
            dom = parse_html(html)
            t1 = perf_counter()
            accumulate_spans(extract_all(self.compiled, dom, url),
                             kinds, texts, refs_c, offs)
            offsets.append(len(kinds))
            statuses.append("ok")
            t2 = perf_counter()
            parse_s += t1 - t0
            extract_s += t2 - t1
            if self.follow_urls:
                links = collect_links(dom, url)
                n_links_col.append(len(links))
                edge_urls.extend(links)
                edge_depths.extend([depth + 1] * len(links))
                edge_keys.extend((rnd, order, j) for j in range(len(links)))
                links_s += perf_counter() - t2
            else:
                n_links_col.append(0)
            dom.decompose()  # its spans and links are strings by now
        t0 = perf_counter()
        spans = spans_column(kinds, texts, refs_c, offs, offsets)
        t1 = perf_counter()
        layers["parse"] += parse_s
        layers["extract"] += extract_s + (t1 - t0)
        layers["links"] += links_s
        if edge_urls:
            # fire-and-forget; refs kept for the owner-local flush AND
            # returned with the chunk (process_slice) for the driver's
            # slow-path delivery verification
            offers = route_edges(edge_urls, edge_depths, edge_keys,
                                 self.frontier, self.num_shards)
            self._pending_offers.extend(offers)
            self._last_offers.extend(offers)
        out = pa.table({
            "doc_id": pa.array(urls, type=pa.string()),
            "host": pa.array([canonical_url_host(u) for u in urls],
                             type=pa.string()),
            "depth": pa.array(depths, type=pa.int32()),
            "round": batch["round"],
            "order_in_round": batch["order_in_round"],
            "ek_round": batch["ek_round"],
            "ek_parent": batch["ek_parent"],
            "ek_link": batch["ek_link"],
            "status": pa.array(statuses, type=pa.string()),
            "n_links": pa.array(n_links_col, type=pa.int32()),
            "spans": spans,
        })
        layers["route"] += perf_counter() - t1
        return out


def _atomic_write(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
    os.replace(tmp, path)


# Workers are fault-tolerant: their only state is warm caches (corpus
# parts, compiled selectors) rebuilt by ``configure``, so a crashed
# worker restarts and its failed chunk task retries.  The retry's side
# effects are safe — edge offers are at-least-once and the frontier's
# first-offer dedup makes them idempotent; the chunk result itself is
# exactly-once via the object ref.  Each chunk returns its offer refs
# (see CrawlWorker); _confirm_offers replays any chunk whose offers may
# have died with their owner, so worker death at ANY point is lossless
# in-run.  The FRONTIER stays non-restartable (it is the stateful
# component; its recovery path is the checkpoint snapshots).  Like the
# frontier's, the workers' tasks record no task events (see Frontier).
_WorkerActor = ray.remote(max_restarts=3, max_task_retries=3,
                          enable_task_events=False)(CrawlWorker)


class _ActorPool:
    """The crawl's frontier and workers, kept alive between ``run_crawl``
    calls with the same ``key`` (see the module docstring)."""

    def __init__(self, key: tuple, concurrency: int):
        self.key = key
        self.frontier = Frontier.remote()
        self.workers = [_WorkerActor.remote() for _ in range(concurrency)]

    def replace_unhealthy(self) -> None:
        """Replace every actor that is not ALIVE or has restarted since
        it was created."""
        import ray._private.state as gcs_state

        def healthy(actor) -> bool:
            info = gcs_state.actors(actor_id=actor._actor_id.hex())
            return info.get("State") == "ALIVE" and info.get("NumRestarts") == 0

        if not healthy(self.frontier):
            ray.kill(self.frontier)
            self.frontier = Frontier.remote()
        for i, actor in enumerate(self.workers):
            if not healthy(actor):
                ray.kill(actor)
                self.workers[i] = _WorkerActor.remote()

    def kill(self) -> None:
        if self.key[0] != _session():
            return  # its Ray session ended, and its actors with it
        for actor in [self.frontier] + self.workers:
            ray.kill(actor)


# seconds a barrier waits on its chunks before it checks the frontier
_PROBE_S = 0.1

_POOL: Optional[_ActorPool] = None
_POOL_LOCK = threading.Lock()
_EPOCH = 0


def _session() -> str:
    return ray._private.worker.global_worker.node.session_name


def _acquire_pool(concurrency: int) -> tuple[_ActorPool, str]:
    """This call's actor pool and whether it was "cold" (created now)
    or "warm" (reused).  At most one pool exists: a different key (a
    new Ray session or worker count) replaces it."""
    global _POOL
    key = (_session(), concurrency)
    if _POOL is not None and _POOL.key == key:
        _POOL.replace_unhealthy()
        return _POOL, "warm"
    _drop_pool()
    _POOL = _ActorPool(key, concurrency)
    return _POOL, "cold"


def _drop_pool() -> None:
    """Kill the pooled crawl actors, if any (the next crawl starts a
    new pool)."""
    global _POOL
    pool, _POOL = _POOL, None
    if pool is not None:
        pool.kill()


def plan_chunks(parts: list, ranks: list, owners: dict, n_workers: int,
                cap: int) -> tuple[list, dict]:
    """Cut one released round into about two chunks per worker.

    ``parts[i]``/``ranks[i]``: corpus part and global visit rank of each
    row of shard table ``i``.  ``owners``: part -> the workers that have
    that part's corpus lookup partition cached (the previous round's
    result; not modified).  Returns ``(chunks, owners)``: ``chunks`` is
    ``[(worker, [(shard, row indices, ranks), ...]), ...]`` and the new
    owner map.

    Rows are assigned part by part, largest part first, to the
    least-loaded worker of the part's owner set; a cold part's set is
    ``[part % n_workers]``, and a set grows by the least-loaded worker
    only once all its owners hold the round's fair share
    (``ceil(n / n_workers)`` rows), so a hot part fans out but no worker
    ends above the fair share.  Each worker's rows, across shards and
    parts, are then packed into chunks of
    ``min(cap, ceil(n / (2 * n_workers)))`` rows: at most two per
    worker unless ``cap`` binds."""
    import numpy as np

    owners = {p: list(o) for p, o in owners.items()}
    n = sum(len(p) for p in parts)
    if not n:
        return [], owners
    W = n_workers
    size = min(cap, -(-n // (2 * W)))
    fair = -(-n // W)
    shard = np.concatenate([np.full(len(p), i, dtype=np.int64)
                            for i, p in enumerate(parts)])
    row = np.concatenate([np.arange(len(p), dtype=np.int64) for p in parts])
    part = np.concatenate(parts)
    rank = np.concatenate(ranks)
    order = np.lexsort((rank, part))  # rows by part, then visit rank
    part_s = part[order]
    starts = np.flatnonzero(np.r_[True, part_s[1:] != part_s[:-1]])
    ends = np.r_[starts[1:], n]
    load = [0] * W
    pieces: list[list] = [[] for _ in range(W)]
    for s0, e0 in sorted(zip(starts.tolist(), ends.tolist()),
                         key=lambda se: se[0] - se[1]):
        own = owners.setdefault(int(part_s[s0]), [int(part_s[s0]) % W])
        while s0 < e0:
            w = min(own, key=load.__getitem__)
            if load[w] >= fair:
                # every owner is full, so the least-loaded worker is not
                # an owner and is below the fair share
                w = min(range(W), key=load.__getitem__)
                own.append(w)
            take = min(e0 - s0, fair - load[w])
            pieces[w].append(order[s0:s0 + take])
            load[w] += take
            s0 += take
    chunks = []
    for w, ps in enumerate(pieces):
        rows = np.concatenate(ps) if ps else []
        for a in range(0, len(rows), size):
            sel = rows[a:a + size]
            sh = shard[sel]
            chunks.append((w, [(int(i), row[sel[sh == i]], rank[sel[sh == i]])
                               for i in np.unique(sh)]))
    return chunks, owners


def run_crawl(
    sf_dir: str,
    out_dir: Optional[str] = None,
    num_shards: int = 4,
    concurrency: Optional[int] = None,
    batch_size: int = 2048,
    max_rounds: int = 10_000,
    ticks_per_round: int = 8,
    release_budget: int = 1_000_000,
    checkpoint_every: int = 1,
    resume: bool = False,
    stop_after_rounds: Optional[int] = None,
    seen_capacity: int = 2_000_000,
    ignore_robots_txt: bool = False,
    politeness: bool = True,
    rules=None,
    corpus_scale: int = 1,
    seed_every: int = 2,
    num_parts_hint: int = 16,
    politeness_burst: int = 1,
    exact_confirm: bool = True,
    pipelined: bool = False,
    adblock_rules: tuple = (),
):
    """Run the crawl; returns the visits/spans Dataset read back from the
    partitioned output (one ``round_k`` dir per frontier round).

    ``ticks_per_round`` batches several politeness ticks into one Ray
    round: later ticks only release URLs enqueued in earlier rounds, so
    per-host FIFO order — the equivalence contract — is unchanged; it
    amortizes per-round pipeline startup when only crawl-delayed hosts
    remain.  ``stop_after_rounds`` simulates a crash for resume tests.

    Each round goes to the workers as about two chunk tasks per worker
    (``plan_chunks``); ``batch_size`` caps the rows of one chunk, which
    bounds a worker's memory per task on large rounds.

    The frontier and workers come from the module's actor pool and stay
    alive for the next call (see "Actor pool" in the module docstring);
    ``METRICS.json`` reports ``pool`` ("cold": created by this call,
    "warm": reused) and ``startup_s``, the seconds from the call's start
    until the first frontier release returned.  ``worker_busy_s`` is the
    workers' summed busy time and ``worker_layers_s`` its split over
    ``WORKER_LAYERS``.  ``frontier_calls`` is the number of RPCs the
    frontier served for this call, and ``frontier_busy_s`` the CPU
    seconds of its release, offer and snapshot work.  ``chunks`` is the
    number of chunk tasks dispatched (edge replays excluded) and
    ``chunk_rows_max`` the rows of the largest.
    """
    import time as _time

    call_t0 = _time.time()
    corpus_dir = ensure_corpus(sf_dir, scale=corpus_scale, seed_every=seed_every,
                               num_parts=num_parts_hint)
    manifest = load_manifest(corpus_dir)
    num_parts = manifest["num_parts"]
    robots = load_robots(corpus_dir)
    seeds = load_seeds(corpus_dir)
    seed_list = [canonicalize_url(s["url"]) for s in seeds]
    allowed = {url_host(u) for u in seed_list}

    out_dir = out_dir or os.path.join("/tmp/dude_ray_crawl",
                                      os.path.basename(corpus_dir))
    ckpt_dir = os.path.join(out_dir, "CHECKPOINT")
    meta_path = os.path.join(ckpt_dir, "meta.json")

    if not resume and os.path.exists(out_dir):
        shutil.rmtree(out_dir)
    os.makedirs(ckpt_dir, exist_ok=True)

    # a checkpoint's shard files are indexed by its num_shards — adopt
    # the recorded value (and refuse a different corpus) before the
    # frontier builds its shards, so resume never drops or misses a
    # shard file
    if resume and os.path.exists(meta_path):
        with open(meta_path) as f:
            _meta_peek = json.load(f)
        if _meta_peek.get("corpus_dir") not in (None, corpus_dir):
            raise ValueError(
                f"checkpoint at {ckpt_dir} was written for corpus "
                f"{_meta_peek['corpus_dir']!r}, not {corpus_dir!r}")
        num_shards = _meta_peek.get("num_shards", num_shards)

    rules = rules or flagship_rules()
    if concurrency is None:
        # leave headroom for the frontier process and the driver —
        # oversubscription slows every stage
        total = int(ray.cluster_resources().get("CPU", 4))
        # ~75% of CPUs.  On a 4-CPU session (crawl_bulk configuration,
        # warm pool, medians of 8 calls, 4 runs each) 3 workers took
        # 1.53-1.61 s per call against 1.83-2.03 s for 2, at 507-557 µs
        # of CPU per URL against 491-557 µs, and they hold one more
        # worker process's memory; 2 stays the 4-CPU default
        concurrency = max(2, min(total - 2, (total * 3) // 4))

    global _EPOCH
    _POOL_LOCK.acquire()  # the pooled actors serve one crawl at a time
    try:
        _EPOCH += 1
        epoch = _EPOCH
        pool, pool_state = _acquire_pool(concurrency)
        frontier, workers = pool.frontier, pool.workers
        # Nothing below blocks until every actor has its reset queued:
        # on a cold pool the frontier and worker processes boot in
        # parallel.  Per-caller actor task order puts the frontier's
        # reset before its restore / seed offers and each worker's
        # configure before any chunk.
        ready = [frontier.reset.remote(
            num_shards, robots, allowed,
            capacity=seen_capacity // num_shards + 1,
            exact_confirm=exact_confirm,
            ignore_robots_txt=ignore_robots_txt, politeness=politeness,
            adblock_rules=tuple(adblock_rules))]
        cfg = [ray.put({"corpus_dir": corpus_dir, "num_parts": num_parts,
                        "rules": rules, "frontier": frontier,
                        "num_shards": num_shards})]
        # incarnation tokens: the worker-death detector for the
        # offer-delivery fast path (and init errors surface here)
        token_refs = [w.configure.remote(epoch, cfg) for w in workers]

        start_round = 0
        if resume and os.path.exists(meta_path):
            with open(meta_path) as f:
                meta = json.load(f)
            start_round = meta["completed_rounds"]
            raws = []
            for i in range(num_shards):
                with open(os.path.join(ckpt_dir, f"shard_{i}.bin"), "rb") as f:
                    raws.append(f.read())
            ready.append(frontier.restore.remote(raws))
        else:
            # seeds enter through the same host-hash exchange as discovered
            # edges, keyed before every round-0 discovery
            ready += route_edges(seed_list, [0] * len(seed_list),
                                 [(-1, i, 0) for i in range(len(seed_list))],
                                 frontier, num_shards)
        if resume:
            # drop every round after the checkpoint (all of them when the
            # crash came before the first checkpoint) and partial ones
            for name in os.listdir(out_dir):
                if name.startswith("round_"):
                    tag = name.split("_")[1]
                    if name.endswith(".wip") or int(tag.split(".")[0]) >= start_round:
                        shutil.rmtree(os.path.join(out_dir, name))
        got = ray.get(ready + token_refs)
        worker_tokens0 = got[len(ready):]

        _prof = os.environ.get("DUDE_RAY_PROFILE") == "1"
        _pt = {"release": 0.0, "build": 0.0, "dispatch": 0.0, "write": 0.0,
               "ckpt": 0.0, "n_rounds": 0}

        unwritten: list = []  # (round, result refs, tmp dir, round dir)
        pending_writes: list = []  # (write refs, tmp dir, round dir)
        pending_ckpt = None  # deferred persist of the PREVIOUS checkpoint
        part_owners: dict[int, list[int]] = {}
        inflight: list = []  # offer-ref returns of unfinished chunks
        # (offers_ref, slices, round) per dispatched chunk — the
        # delivery-confirmation ledger.  Holding the slices' shard table
        # refs keeps the chunk replayable until its offers are confirmed.
        offer_pending: list = []
        _rr = [0]
        n_chunks = max_chunk_rows = 0

        worker_tokens: list = list(worker_tokens0)

        def _confirm_offers() -> bool:
            """Barrier: every outstanding chunk's edge offers are applied in
            their shards.  Fast path (no worker died): one owner-local flush
            RPC per worker; unchanged incarnation tokens prove every offer
            since the last barrier either flushed now or earlier.  Slow path
            (a token changed or a flush RPC failed): verify each outstanding
            chunk's offer refs and replay maybe-lost chunks on another
            worker — re-offering is idempotent (first-offer-wins) and the
            replay's span output is discarded (the original result was
            already written).  Returns True if anything was replayed (the
            frontier may have gained edges, so emptiness must be
            re-checked)."""
            if not offer_pending:
                return False
            try:
                toks = ray.get([w.flush_offers.remote() for w in workers])
            except Exception:
                toks = None
            if toks is not None and toks == worker_tokens:
                offer_pending.clear()
                return False
            # a replay only helps if the frontier is alive: a dead one
            # raises its ActorDiedError here, before any chunk is re-run
            ray.get(frontier.pending.remote())
            replayed = False
            for o_ref, slices, ernd in offer_pending:
                try:
                    ray.get(ray.get(o_ref))
                    continue
                except Exception:
                    pass
                for _ in range(2 * len(workers)):
                    _rr[0] = (_rr[0] + 1) % len(workers)
                    _tbl, o2 = workers[_rr[0]].process_slice.options(
                        num_returns=2).remote(slices, ernd, epoch, cfg)
                    try:
                        ray.get(ray.get(o2))
                        replayed = True
                        break
                    except Exception:
                        continue
                else:
                    raise RuntimeError(
                        "edge replay failed on every worker — frontier "
                        "state is incomplete; resume from checkpoint")
            offer_pending.clear()
            worker_tokens[:] = ray.get([w.flush_offers.remote() for w in workers])
            return replayed

        def _drain(chunks: list) -> None:
            """Wait for ``chunks`` (offer-ref returns) one at a time, so
            the first failed chunk raises at once instead of after the
            rest: the frontier's death if it died (a dead frontier fails
            every chunk that reads its shard tables), else the chunk's
            own error.  A chunk that was running when the frontier died
            still succeeds (its offers are fire-and-forget), so the
            frontier is also probed whenever no chunk finishes for
            ``_PROBE_S``."""
            while chunks:
                done, chunks = ray.wait(chunks, num_returns=1,
                                        timeout=_PROBE_S)
                try:
                    ray.get(done)
                except Exception:
                    ray.get(frontier.pending.remote())
                    raise
                if not done:
                    ray.get(frontier.pending.remote())

        def _submit_writes(drain: bool) -> None:
            """Hand rounds whose chunks have all finished to the workers'
            ``write_part``, oldest first (``drain``: the caller has waited
            for every chunk).  A write never waits on chunks, so it never
            stalls the worker that runs it; in the strict mode, and at
            checkpoints, the workers are idle when their writes arrive."""
            while unwritten:
                wrnd, refs, tmp_dir, round_dir = unwritten[0]
                if not drain:
                    done, _ = ray.wait(refs, num_returns=len(refs), timeout=0,
                                       fetch_local=False)
                    if len(done) < len(refs):
                        return
                unwritten.pop(0)
                n_writers = max(1, min(8, len(refs) // 4))
                write_refs = [
                    workers[(wrnd + wi) % len(workers)].write_part.remote(
                        refs[wi::n_writers],
                        os.path.join(tmp_dir, f"part-{wi:03d}.parquet"))
                    for wi in range(n_writers)
                ]
                pending_writes.append((write_refs, tmp_dir, round_dir))

        _loop_t0 = _time.time()
        startup_s = None
        rnd = start_round
        release_ref = None

        def release():
            return frontier.release_round.remote(
                ticks_per_round, release_budget, burst=politeness_burst,
                num_parts=num_parts)

        while rnd < max_rounds:
            if stop_after_rounds is not None and rnd - start_round >= stop_after_rounds:
                break
            _t0 = _time.time()
            # one frontier RPC per round; the tick loop runs inside each
            # shard (politeness accounting is virtual-clock per tick).  Each
            # shard key-sorts its released rows locally and ray.puts the
            # Arrow table; only fixed-width key/part metadata (28 B/row)
            # reaches the driver — URL strings never transit it.  In
            # pipelined mode the NEXT round's release is issued right after
            # dispatch, so the frontier computes it while workers are busy
            # and this ray.get usually returns immediately.
            if release_ref is None:
                release_ref = release()
            tick_out = ray.get(release_ref)
            release_ref = None
            if startup_s is None:
                startup_s = _time.time() - call_t0
            tick_out = [t for t in tick_out if t["n"]]
            n_released = sum(t["n"] for t in tick_out)
            if not n_released:
                if pipelined and inflight:
                    # wait for at least one straggler wave; the confirmation
                    # below (or at the next checkpoint) barriers its offers
                    done, still = ray.wait(inflight, num_returns=1,
                                           fetch_local=False)
                    inflight[:] = still
                    continue
                if _confirm_offers():
                    continue  # replayed edges may have refilled the frontier
                if ray.get(frontier.pending.remote()) == 0:
                    break
                continue  # only delayed hosts remain; the next tick may release

            _pt["release"] += _time.time() - _t0
            _t0 = _time.time()
            # Global visit ranks from key metadata only (numpy lexsort over
            # int64 columns): order_in_round is assigned in global
            # enqueue-key order (the visit-order label and the parent
            # component of children keys).  Shard tables are already
            # key-sorted, so each shard's rank slice is ascending and rows
            # are addressed by (shard ref, index array) — the driver never
            # concatenates, sorts, or even sees the string payload.
            import numpy as np

            keys = np.concatenate([t["keys"] for t in tick_out], axis=1)
            g = np.lexsort((keys[2], keys[1], keys[0]))
            ranks = np.empty(keys.shape[1], dtype=np.int64)
            ranks[g] = np.arange(keys.shape[1], dtype=np.int64)
            offs = np.cumsum([0] + [t["n"] for t in tick_out])
            _pt["build"] += _time.time() - _t0
            _t0 = _time.time()
            # one chunk task per (worker, ~half its share of the round):
            # see plan_chunks for the part-affine, load-aware assignment
            chunks, part_owners = plan_chunks(
                [t["parts"] for t in tick_out],
                [ranks[offs[i]:offs[i + 1]] for i in range(len(tick_out))],
                part_owners, len(workers), batch_size)
            refs, orefs = [], []
            for w, chunk in chunks:
                slices = [(tick_out[si]["ref"], sel, order_vals)
                          for si, sel, order_vals in chunk]
                t_ref, o_ref = workers[w].process_slice.options(
                    num_returns=2).remote(slices, rnd, epoch, cfg)
                refs.append(t_ref)
                orefs.append(o_ref)
                offer_pending.append((o_ref, slices, rnd))
                max_chunk_rows = max(max_chunk_rows,
                                     sum(len(sel) for _, sel, _ in chunk))
            n_chunks += len(chunks)
            do_ckpt = (rnd + 1) % checkpoint_every == 0
            if pipelined:
                # pipelined (bench) mode: no per-round barrier — the next
                # release consumes whatever offers have landed; the visit
                # SET is invariant (gates are per-URL and static; dedup is
                # first-offer-wins on an order-independent set), only the
                # deterministic enqueue-key labels are given up.  Straggler
                # batches overlap the next wave instead of stalling it.
                # Prefetch the next release NOW so the frontier's
                # tick/sort/put work overlaps this round's fetching —
                # EXCEPT on checkpoint rounds: a release pops URLs from the
                # shard queues, so it must be ordered AFTER the snapshot on
                # the frontier actor, or a crash between the two loses the
                # popped URLs from both the snapshot and the (never-written)
                # next round.  The prefetch for checkpoint rounds is issued
                # after the snapshot RPC below.
                if not do_ckpt:
                    release_ref = release()
                inflight.extend(orefs)
                # backpressure: allow 4 chunks per worker in flight so the
                # pool stays fed across round transitions (the release
                # prefetch + this window together hide the per-round gap);
                # bounded, so object-store pressure stays O(workers)
                over = len(inflight) - 4 * len(workers)
                if over > 0:
                    _, still = ray.wait(inflight, num_returns=over,
                                        fetch_local=False)
                    inflight[:] = still
            else:
                # barrier on worker completion AND edge delivery (the
                # confirmation doubles as the round's offer flush); parquet
                # writes proceed asynchronously and are gathered lazily — a
                # checkpoint must not outrun its rounds' files, so pending
                # writes are drained before each snapshot
                _drain(orefs)
                _confirm_offers()
            _pt["dispatch"] += _time.time() - _t0
            _t0 = _time.time()
            round_dir = os.path.join(out_dir, f"round_{rnd:05d}")
            tmp_dir = round_dir + ".wip"
            os.makedirs(tmp_dir, exist_ok=True)
            unwritten.append((rnd, refs, tmp_dir, round_dir))
            _submit_writes(drain=False)
            _pt["write"] += _time.time() - _t0
            _t0 = _time.time()

            if do_ckpt:
                if pipelined:
                    # a snapshot must contain every edge of its committed
                    # rounds: barrier every in-flight chunk, then confirm
                    # offer delivery — the replaying barrier — before
                    # shard state is serialized.
                    _drain(inflight)
                    inflight.clear()
                    _confirm_offers()
                _submit_writes(drain=True)
                # issue snapshot AND the next release back-to-back: per-actor
                # task-queue order guarantees the frontier serializes every
                # shard BEFORE popping the next round's URLs, and it does
                # both while the driver drains data files below — the disk
                # work leaves the worker-feeding critical path entirely.
                snap_ref = frontier.snapshot.remote()
                if pipelined:
                    release_ref = release()
                # the persist itself is DEFERRED one checkpoint interval so
                # the crawl loop never waits on disk while workers starve:
                # by the time it runs, its writes and snapshot refs
                # completed long ago and the ray.get returns instantly.
                # Checkpoint validity ordering is unchanged WITHIN each
                # persist: round files first, snapshot bytes second, the
                # meta marker LAST — a crash before the deferred persist
                # simply falls back to the previous on-disk checkpoint and
                # the rounds replay idempotently (exactly the crash-between-
                # snapshot-and-meta window that already existed).
                due_writes, pending_writes = pending_writes, []

                def _persist_ckpt(snap_ref=snap_ref, due=due_writes,
                                  upto=rnd + 1):
                    for wrefs, tdir, rdir in due:
                        ray.get(wrefs)
                        os.replace(tdir, rdir)  # atomic round commit
                    for i, raw in enumerate(ray.get(snap_ref)):
                        _atomic_write(os.path.join(ckpt_dir, f"shard_{i}.bin"),
                                      raw)
                    _atomic_write(meta_path, json.dumps({
                        "completed_rounds": upto,
                        "num_shards": num_shards,
                        "corpus_dir": corpus_dir,
                    }).encode())

                if pending_ckpt is not None:
                    pending_ckpt()  # previous interval's persist: instant now
                pending_ckpt = _persist_ckpt
            _pt["ckpt"] += _time.time() - _t0
            _pt["n_rounds"] += 1
            rnd += 1

        if _prof:
            print("CRAWL_PROFILE", json.dumps({k: round(v, 2) if isinstance(v, float) else v
                                               for k, v in _pt.items()}))

        _drain(inflight)
        _confirm_offers()
        _submit_writes(drain=True)
        if pending_ckpt is not None:
            pending_ckpt()  # persist the last checkpoint interval
        for wrefs, tdir, rdir in pending_writes:
            ray.get(wrefs)
            os.replace(tdir, rdir)
        pending_writes.clear()

        loop_sec = _time.time() - _loop_t0

        # final metrics → lineage manifest (SURVEY A4)
        stats, hosts, facct = ray.get([frontier.get_stats.remote(),
                                       frontier.host_accounting.remote(),
                                       frontier.accounting.remote()])
        wstats = ray.get([w.worker_stats.remote() for w in workers])
        if _prof:
            busy = sorted(w["busy_s"] for w in wstats)
            print("WORKER_BUSY", json.dumps({"sum": round(sum(busy), 1),
                                             "min": busy[0], "max": busy[-1],
                                             "n": len(busy)}))
        _atomic_write(os.path.join(out_dir, "METRICS.json"), json.dumps({
            "rounds": rnd, "loop_sec": round(loop_sec, 3),
            "released_total": int(sum(s.get("released", 0) for s in stats)),
            # engine-level accounting for the scaling criterion: worker busy
            # seconds measure actual compute, independent of VM wall-clock
            # noise (see bench.py --scaling)
            "worker_busy_s": round(sum(w["busy_s"] for w in wstats), 2),
            # the same busy time by layer (see WORKER_LAYERS)
            "worker_layers_s": {k: round(sum(w["layers_s"][k] for w in wstats), 3)
                                for k in WORKER_LAYERS},
            "n_workers": len(wstats),
            "startup_s": round(startup_s if startup_s is not None
                               else _loop_t0 - call_t0, 3),
            "pool": pool_state,
            "frontier_busy_s": facct["busy_s"],
            "frontier_calls": facct["calls"],
            "chunks": n_chunks, "chunk_rows_max": max_chunk_rows,
            "shards": stats, "hosts": hosts,
        }).encode())

        return read_crawl_output(out_dir)
    except BaseException:
        # a failed crawl leaves its actors in an unknown state (and
        # alive): kill the pool, the next call builds a new one
        _drop_pool()
        raise
    finally:
        _POOL_LOCK.release()


def read_crawl_output(out_dir: str, columns: Optional[list[str]] = None):
    """Dataset over all finished round partitions of a crawl output dir,
    read with only ``columns`` if given, one block per round file.
    Ray's default read splits a file into pieces, and a 1-row file's
    0-row piece makes every ``map_batches`` over it emit a block with
    no schema."""
    import glob as _glob

    files = sorted(_glob.glob(os.path.join(out_dir, "round_*", "*.parquet")))
    if not files:
        return rd.from_items([])
    return rd.read_parquet(files, columns=columns,
                           override_num_blocks=len(files))


def crawl_metrics(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "METRICS.json")) as f:
        return json.load(f)
