"""Frontier shards and the frontier actor — the stateful core of the
crawl engine.

The reference's frontier is a process-local FIFO deque with no seen
set, no politeness structure and a robots re-fetch per URL
(/root/reference/dude/base.py:75,361-391).  Here it is host-hash
sharded: each logical shard single-owns the hosts in its hash range, so
per-host politeness decisions never need coordination (SURVEY §7 hard
part 2).  The shard count is a logical partition, not a process count:
one ``Frontier`` actor hosts every shard of a crawl.  Per shard:

* Bloom URL-seen filter keyed SHA-1(canonical URL) (+ an exact confirm
  set at test scale so tests can assert zero false positives);
* per-host FIFO queues ordered by a deterministic *enqueue key*;
* a per-host memoized robots gate (``urllib.robotparser``, user-agent
  "dude" — /root/reference/dude/base.py:378-391 — parsed once from the
  corpus robots table, fixing the reference's re-fetch TODO at
  base.py:382);
* the allowed-domains semi-join (seed netlocs only,
  /root/reference/dude/base.py:364-367,405);
* a virtual-clock politeness budget (one tick per ``release`` call; a
  host with robots ``Crawl-delay: d`` releases at most one URL every
  ``d`` ticks);
* checkpoint/restore (Bloom bytes + queues + counters).

Determinism / reference-equivalence design.  Every offered URL carries
an **enqueue key** ``(round, parent_order, link_index)`` — the global
position of its discovering page within its round and the link's
document-order index on that page (seeds: ``(-1, seed_index, 0)``).
Offers are buffered and applied in key-sorted order at the next
release, and release pops the globally smallest key among
politeness-eligible hosts.  Because the sequential reference loop pops
FIFO and appends each page's links in document order
(/root/reference/dude/base.py:361-376 + beautifulsoup_scraper.py:81-85),
its queue order is exactly "sorted by (parent visit position, link
index)" — so with politeness deferral disabled, the engine's visit
sequence ordered by enqueue key equals the reference replay's visit
sequence *globally*, and with deferral enabled the first-visit SET is
unchanged (gates are per-URL and static) while per-host FIFO order is
preserved.  Tests assert both (tests/test_crawl.py).

Scale notes: hosts are single-owner, so a hot host bounds only its own
throughput (its crawl delay serializes it anyway).  Edges reach the
frontier directly from extract workers (actor handle calls), bucketed
by host-hash shard in the worker — one offer RPC per worker chunk — so
the edge exchange never routes through the driver.  Releases,
snapshots and restores take one RPC for all shards.
"""

from __future__ import annotations

import collections
import heapq
import io
import pickle
from typing import Optional
from urllib.robotparser import RobotFileParser

import ray

from fnmatch import fnmatch as fn_match

from ..canonical import url_host, url_sha1
from .bloom import BloomFilter

USER_AGENT = "dude"  # the reference's literal UA (/root/reference/dude/base.py:381)

SKIP_DOMAIN = "not_allowed_domain"
SKIP_ROBOTS = "robots_disallowed"
SKIP_DUP = "duplicate"

Key = tuple  # (round, parent_order, link_index)


def release_free_memory() -> None:
    """Hand the heap a finished crawl left behind back to the OS: cyclic
    garbage, Arrow's pooled buffers and glibc's free arenas.  Pooled
    crawl actors call it when they reset, so a long-lived actor's
    resident size tracks one crawl, not the largest of all of them."""
    import ctypes
    import gc

    import pyarrow as pa

    gc.collect()
    pa.default_memory_pool().release_unused()
    try:
        trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return  # not glibc
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)


class _HostState:
    __slots__ = ("queue", "next_free_tick", "crawl_delay", "released")

    def __init__(self, crawl_delay: int):
        self.queue: collections.deque = collections.deque()  # (key, url, depth)
        self.next_free_tick = 0
        self.crawl_delay = crawl_delay
        self.released = 0


class FrontierShardLocal:
    """Shard logic, actor-free (unit tests use it directly; the
    ``Frontier`` actor below holds one per logical shard)."""

    def __init__(
        self,
        shard_id: int,
        robots_map: dict[str, str],
        allowed_domains: set[str],
        capacity: int = 1_000_000,
        exact_confirm: bool = True,
        ignore_robots_txt: bool = False,
        politeness: bool = True,
        blocklist: tuple = (),
        adblock_rules: tuple = (),
    ):
        self.shard_id = shard_id
        self.bloom = BloomFilter(capacity=capacity)
        self.exact: Optional[set] = set() if exact_confirm else None
        self.hosts: dict[str, _HostState] = {}
        self.robots_raw = robots_map
        self._robots_cache: dict[str, RobotFileParser] = {}
        self.allowed_domains = set(allowed_domains)
        self.ignore_robots_txt = ignore_robots_txt
        self.politeness = politeness
        self.blocklist = tuple(blocklist)  # glob URL patterns (M11 lite)
        # EasyList network rules, compiled once per shard (T3/M11); the
        # reference gates every request through braveblock the same way
        self.adblock_rules = tuple(adblock_rules)
        if adblock_rules:
            from ..adblock import Adblocker

            self.adblock: Optional[object] = Adblocker(adblock_rules)
        else:
            self.adblock = None
        self.tick = 0
        self._buffer: list[tuple[Key, str, int]] = []
        self._ready: list[tuple[Key, str]] = []      # (head_key, host)
        self._sleeping: list[tuple[int, str]] = []   # (next_free_tick, host)
        self.stats = collections.Counter()
        self._last_hosts: list[str] = []

    # ---- robots (memoized per host) -----------------------------------
    def _robots(self, host: str) -> RobotFileParser:
        p = self._robots_cache.get(host)
        if p is None:
            p = RobotFileParser()
            p.parse((self.robots_raw.get(host) or "").splitlines())
            self._robots_cache[host] = p
        return p

    def can_fetch_and_delay(self, host: str, url: str) -> tuple[bool, int]:
        if self.ignore_robots_txt:
            return True, 0
        if not self.robots_raw.get(host):
            return True, 0  # empty/missing robots = allow-all, no delay
        p = self._robots(host)
        delay = p.crawl_delay(USER_AGENT) or 0
        return p.can_fetch(USER_AGENT, url), int(delay)

    # ---- offer (buffered) ---------------------------------------------
    def offer(self, urls: list[str], depths: list[int], keys: list[Key],
              hosts: Optional[list[str]] = None,
              digests: Optional[list[bytes]] = None,
              forced: bool = False) -> int:
        """Buffer offered edges; gates/dedup apply at the next release in
        deterministic key order.  ``hosts``/``digests`` are normally
        precomputed by the (parallel) extract workers so the
        (single-threaded) shard only does set/dict operations; they are
        derived here when absent (unit-test convenience)."""
        if hosts is None:
            hosts = [url_host(u) for u in urls]
        if digests is None:
            digests = [url_sha1(u) for u in urls]
        self._buffer.extend(zip(keys, urls, depths, hosts, digests,
                                [forced] * len(urls)))
        return len(self._buffer)

    def _apply_buffer(self) -> None:
        """Gate precedence mirrors the reference pop loop: allowed-domains
        (/root/reference/dude/base.py:364-367) → seen-set (our mandated
        addition) → robots (/root/reference/dude/base.py:368-371)."""
        self._buffer.sort(key=lambda t: t[0])
        c = self.stats
        allowed = self.allowed_domains
        # pass 1: domain gate + in-batch first-occurrence; the Bloom
        # probe/insert runs once, vectorized, over the unique digests
        # (per-key numpy adds dominated shard time otherwise)
        batch_first: dict[bytes, int] = {}
        unique_digests: list[bytes] = []
        survivors: list[tuple] = []
        for entry in self._buffer:
            key, url, depth, host, digest, forced = entry
            c["offered"] += 1
            if not forced and host not in allowed:
                # @start_requests rows bypass the domain gate (the
                # reference drains them outside iter_urls —
                # /root/reference/dude/optional/utils.py:48-66)
                c[SKIP_DOMAIN] += 1
                continue
            if self.blocklist and any(fn_match(url, pat) for pat in self.blocklist):
                c["blocked"] += 1
                continue
            if self.adblock is not None and self.adblock.check_network_urls(
                    url, source_url=url):
                # frontier edges carry no referrer; first-party source
                # assumption (document-type requests, as in a crawl)
                c["blocked"] += 1
                continue
            if digest in batch_first:
                c[SKIP_DUP] += 1
                continue
            batch_first[digest] = len(unique_digests)
            if self.exact is not None:
                if digest in self.exact:
                    c[SKIP_DUP] += 1
                    continue
                self.exact.add(digest)
            unique_digests.append(digest)
            survivors.append((key, url, depth, host, digest))
        if self.exact is not None:
            # bloom kept in sync (snapshot/metrics); exact set decided dedup
            if unique_digests:
                self.bloom.add_many(unique_digests)
            present = None
        else:
            present = self.bloom.add_many(unique_digests)
        # pass 2: seen-filter verdicts + robots gate + enqueue
        for idx, (key, url, depth, host, digest) in enumerate(survivors):
            if present is not None and present[idx]:
                c[SKIP_DUP] += 1
                continue
            can, delay = self.can_fetch_and_delay(host, url)
            if not can:
                c[SKIP_ROBOTS] += 1
                continue
            hs = self.hosts.get(host)
            if hs is None:
                hs = self.hosts[host] = _HostState(delay)
            was_empty = not hs.queue
            hs.queue.append((key, url, depth))
            if was_empty:
                self._push_host(host)
            c["enqueued"] += 1
        self._buffer.clear()

    # ---- release (politeness budget) -----------------------------------
    # Hosts with pending work live in one of two lazy heaps: ``_ready``
    # (eligible now, ordered by head enqueue key) and ``_sleeping``
    # (crawl-delayed, ordered by next_free_tick).  Work per release is
    # proportional to hosts *touched*, not hosts known — the naive
    # rebuild-the-heap-per-tick version scanned every host every tick
    # and dominated the crawl wall time at 10^5+ hosts.
    # Entries are validated lazily on pop (stale entries are dropped).

    def _push_host(self, host: str) -> None:
        hs = self.hosts[host]
        if not hs.queue:
            return
        if self.politeness and hs.crawl_delay > 0 and hs.next_free_tick > self.tick:
            heapq.heappush(self._sleeping, (hs.next_free_tick, host))
        else:
            heapq.heappush(self._ready, (hs.queue[0][0], host))

    def release(self, max_urls: int = 1_000_000) -> list[tuple[Key, str, int]]:
        """One politeness tick (back-compat wrapper)."""
        return self.release_many(1, max_urls)

    def release_many(self, n_ticks: int, max_urls: int = 1_000_000,
                     burst: int = 1) -> list[tuple[Key, str, int]]:
        """Advance up to ``n_ticks`` virtual-clock ticks, popping
        politeness-eligible entries in global key order.

        ``burst`` is the max URLs a crawl-delayed host releases per
        tick; its clock still advances ``delay`` virtual seconds per
        URL, so politeness accounting is exact in *virtual* time.
        ``burst=1`` (default, used by the equivalence tests) matches
        the reference's one-fetch-per-delay-window behaviour tick for
        tick; the bench uses a large burst so a huge crawl-delayed host
        does not serialize the simulation's wall clock (its virtual
        politeness debt is recorded in next_free_tick / metrics).
        """
        self._apply_buffer()
        out: list[tuple[Key, str, int]] = []
        hosts_out: list[str] = []
        for _ in range(n_ticks):
            if burst > 1 and not self._ready and self._sleeping:
                # discrete-event fast-forward (simulation mode only):
                # skip idle virtual time to the next politeness release
                # point — virtual accounting unchanged, only empty ticks
                # are elided.  burst=1 keeps literal reference ticks.
                self.tick = max(self.tick + 1, self._sleeping[0][0])
            else:
                self.tick += 1
            # wake sleeping hosts whose delay window has passed
            while self._sleeping and self._sleeping[0][0] <= self.tick:
                _, host = heapq.heappop(self._sleeping)
                hs = self.hosts[host]
                if hs.queue:
                    heapq.heappush(self._ready, (hs.queue[0][0], host))
            throttled: list[str] = []
            while self._ready and len(out) < max_urls:
                head_key, host = heapq.heappop(self._ready)
                hs = self.hosts[host]
                if not hs.queue or hs.queue[0][0] != head_key:
                    if hs.queue:  # stale entry: reinsert with true key
                        heapq.heappush(self._ready, (hs.queue[0][0], host))
                    continue
                if self.politeness and hs.crawl_delay > 0:
                    n = min(burst, len(hs.queue), max_urls - len(out))
                    for _ in range(n):
                        out.append(hs.queue.popleft())
                        hosts_out.append(host)
                    hs.released += n
                    hs.next_free_tick = self.tick + hs.crawl_delay * n
                    throttled.append(host)
                else:
                    while hs.queue and len(out) < max_urls:
                        out.append(hs.queue.popleft())
                        hosts_out.append(host)
                        hs.released += 1
                    if hs.queue:  # budget hit mid-host
                        heapq.heappush(self._ready, (hs.queue[0][0], host))
            for host in throttled:
                self._push_host(host)
            if len(out) >= max_urls:
                break
            if not self._ready and not self._sleeping:
                break
        self.stats["released"] += len(out)
        self._last_hosts = hosts_out
        return out

    # ---- introspection --------------------------------------------------
    def pending(self) -> int:
        return sum(len(h.queue) for h in self.hosts.values()) + len(self._buffer)

    def seen_count(self) -> int:
        return len(self.exact) if self.exact is not None else self.bloom.count

    def has_seen(self, url: str) -> bool:
        d = url_sha1(url)
        return (d in self.exact) if self.exact is not None else (d in self.bloom)

    def seen_urls_sha1(self) -> list[bytes]:
        """Exact seen digests (test-scale only)."""
        assert self.exact is not None
        return sorted(self.exact)

    def get_stats(self) -> dict:
        s = dict(self.stats)
        s["pending"] = self.pending()
        s["seen"] = self.seen_count()
        s["shard_id"] = self.shard_id
        return s

    def host_accounting(self) -> list[dict]:
        """Per-host politeness accounting rows (SURVEY A3)."""
        return [
            {"host": h, "released": hs.released, "pending": len(hs.queue),
             "crawl_delay": hs.crawl_delay, "shard_id": self.shard_id}
            for h, hs in sorted(self.hosts.items())
        ]

    # ---- checkpoint ------------------------------------------------------
    def snapshot(self) -> bytes:
        buf = io.BytesIO()
        pickle.dump({
            "shard_id": self.shard_id,
            "bloom": self.bloom.to_bytes(),
            "exact": self.exact,
            "hosts": {h: (list(hs.queue), hs.next_free_tick, hs.crawl_delay, hs.released)
                      for h, hs in self.hosts.items()},
            "tick": self.tick,
            "buffer": self._buffer,
            "stats": self.stats,
            "allowed_domains": self.allowed_domains,
            "ignore_robots_txt": self.ignore_robots_txt,
            "politeness": self.politeness,
            "blocklist": self.blocklist,
            "adblock_rules": self.adblock_rules,
        }, buf)
        return buf.getvalue()

    def restore(self, raw: bytes) -> None:
        d = pickle.loads(raw)
        self.shard_id = d["shard_id"]
        self.bloom = BloomFilter.from_bytes(d["bloom"])
        self.exact = d["exact"]
        self.hosts = {}
        for h, (q, nft, delay, released) in d["hosts"].items():
            hs = _HostState(delay)
            hs.queue = collections.deque(q)
            hs.next_free_tick = nft
            hs.released = released
            self.hosts[h] = hs
        self.tick = d["tick"]
        self._buffer = d["buffer"]
        self.stats = d["stats"]
        self.allowed_domains = d["allowed_domains"]
        self.ignore_robots_txt = d["ignore_robots_txt"]
        self.politeness = d["politeness"]
        self.blocklist = d.get("blocklist", ())
        self.adblock_rules = d.get("adblock_rules", ())
        if self.adblock_rules:
            from ..adblock import Adblocker

            self.adblock = Adblocker(self.adblock_rules)
        else:
            self.adblock = None
        self._ready, self._sleeping = [], []
        for host in self.hosts:
            self._push_host(host)


class FrontierShardLocalArrow(FrontierShardLocal):
    """Adds an Arrow-table release path: 10^5-row release lists pickle
    slowly as Python tuples; as Arrow columns they serialize near
    zero-copy through the object store."""

    def release_many_table(self, n_ticks: int, max_urls: int = 1_000_000,
                           burst: int = 1, num_parts: int = 0):
        import pyarrow as pa

        from ..canonical import host_shard

        out = self.release_many(n_ticks, max_urls, burst)
        t = pa.table({
            "url": pa.array([u for _, u, _ in out], type=pa.string()),
            "depth": pa.array([d for _, _, d in out], type=pa.int32()),
            "ek_round": pa.array([k[0] for k, _, _ in out], type=pa.int64()),
            "ek_parent": pa.array([k[1] for k, _, _ in out], type=pa.int64()),
            "ek_link": pa.array([k[2] for k, _, _ in out], type=pa.int64()),
        })
        if num_parts:
            # corpus-partition routing key computed frontier-side, off
            # the serial driver path
            part_cache: dict[str, int] = {}
            parts = []
            for host in self._last_hosts:
                p = part_cache.get(host)
                if p is None:
                    p = part_cache[host] = host_shard(host, num_parts)
                parts.append(p)
            t = t.append_column("part", pa.array(parts, type=pa.int32()))
        return t

    def release_round(self, n_ticks: int, max_urls: int = 1_000_000,
                      burst: int = 1, num_parts: int = 16) -> dict:
        """Scale-path release: the URL payload never leaves this shard's
        node via the driver.  The shard key-sorts its own released rows,
        ``ray.put``s the Arrow table into the object store, and hands
        the driver only fixed-width metadata — the 3 enqueue-key int64
        columns and the int32 corpus part per row (28 B/row) — from
        which the driver computes global visit ranks and part-affine
        dispatch without ever touching a URL string.  Workers later
        ``take`` row slices straight from the shard table ref (plasma
        shared memory; one transfer per node)."""
        import numpy as np
        import pyarrow as pa

        t = self.release_many_table(n_ticks, max_urls, burst, num_parts)
        n = t.num_rows
        if not n:
            return {"n": 0}
        ekr = t["ek_round"].to_numpy()
        ekp = t["ek_parent"].to_numpy()
        ekl = t["ek_link"].to_numpy()
        order = np.lexsort((ekl, ekp, ekr))
        t = t.take(pa.array(order))
        keys = np.stack([ekr[order], ekp[order], ekl[order]])
        parts = t["part"].to_numpy()
        return {"n": n, "keys": keys, "parts": parts,
                "ref": ray.put(t.drop_columns(["part"]))}


def _accounted(layer: Optional[str] = None):
    """Count each call of a ``Frontier`` method as one RPC of this crawl
    and, with a ``layer``, add the CPU time the method's own thread
    spent to that layer.  Thread time, not process time: the actor's
    Ray threads keep receiving offers while a method runs, and that
    work is not the method's."""
    import functools
    import time

    def wrap(fn):
        @functools.wraps(fn)
        def method(self, *args, **kwargs):
            self.calls += 1
            if layer is None:
                return fn(self, *args, **kwargs)
            t0 = time.thread_time()
            try:
                return fn(self, *args, **kwargs)
            finally:
                self.busy_s[layer] += time.thread_time() - t0
        return method
    return wrap


# The frontier is a bursty, mostly-idle bookkeeper that lives in the
# crawl's actor pool between calls.  One process hosts every logical
# shard: host-hash sharding partitions the state, not the processes, and
# each further process cost ~100 MB of RSS and its share of Ray's
# per-RPC overhead.  It holds no logical CPU, so an idle pool never
# starves later Ray Data jobs and a 1-CPU session can still place the
# crawl's workers.  Its hundreds of small tasks per crawl record no
# task events: the GCS would keep every one of them for the whole
# session.
@ray.remote(num_cpus=0, enable_task_events=False)
class Frontier:
    """All ``num_shards`` logical frontier shards of a crawl in one Ray
    actor, each a ``FrontierShardLocalArrow``.  Every operation is one
    RPC for all shards: workers ``offer`` a chunk's edges bucketed by
    shard, and the driver releases, snapshots and restores every shard
    in one call each.  Pooled across crawls: created without config,
    ``reset`` starts each crawl from scratch.

    Per crawl it counts the RPCs it serves (``calls``) and the CPU time
    of its release, offer and snapshot work (``busy_s``); ``accounting``
    reports both."""

    def __init__(self):
        self.shards: list[FrontierShardLocalArrow] = []
        self.calls = 0
        self.busy_s = {"release": 0.0, "offer": 0.0, "snapshot": 0.0}

    def reset(self, num_shards: int, robots_map: dict[str, str],
              allowed_domains: set[str], **kwargs) -> None:
        """Start a new crawl: drop the previous crawl's shards, return
        their memory once, and build ``num_shards`` fresh shards with
        this crawl's robots, allowed domains, capacity and gates.

        What survives the collection (imports, Ray's state) is frozen out
        of the cyclic GC before the new shards are built, so the next
        reset's collection scans only this crawl's objects, not the
        whole ~110k-object heap (~75 ms, on the path to a crawl's first
        release)."""
        import gc

        self.shards = []
        release_free_memory()
        gc.freeze()
        self.shards = [FrontierShardLocalArrow(i, robots_map, allowed_domains,
                                               **kwargs)
                       for i in range(num_shards)]
        self.calls = 1  # this reset is the crawl's first RPC
        self.busy_s = dict.fromkeys(self.busy_s, 0.0)

    @_accounted("offer")
    def offer(self, buckets: dict) -> None:
        """Buffer ``{shard: (urls, depths, keys, hosts, digests)}``
        (``route_edges``' buckets) in each shard."""
        for b, (urls, depths, keys, hosts, digests) in buckets.items():
            self.shards[b].offer(urls, depths, keys, hosts, digests)

    @_accounted("release")
    def release_round(self, n_ticks: int, max_urls: int = 1_000_000,
                      burst: int = 1, num_parts: int = 16) -> list[dict]:
        """``FrontierShardLocalArrow.release_round`` of every shard, in
        shard order."""
        return [s.release_round(n_ticks, max_urls, burst, num_parts)
                for s in self.shards]

    @_accounted("snapshot")
    def snapshot(self) -> list[bytes]:
        """One checkpoint blob per shard, in shard order."""
        return [s.snapshot() for s in self.shards]

    @_accounted()
    def restore(self, raws: list[bytes]) -> None:
        for s, raw in zip(self.shards, raws, strict=True):
            s.restore(raw)

    @_accounted()
    def pending(self) -> int:
        return sum(s.pending() for s in self.shards)

    @_accounted()
    def get_stats(self) -> list[dict]:
        return [s.get_stats() for s in self.shards]

    @_accounted()
    def host_accounting(self) -> list[dict]:
        return [row for s in self.shards for row in s.host_accounting()]

    @_accounted()
    def accounting(self) -> dict:
        """This crawl's RPC count, this call included, and the CPU
        seconds of release, offer and snapshot work."""
        return {"calls": self.calls,
                "busy_s": {k: round(v, 3) for k, v in self.busy_s.items()}}
