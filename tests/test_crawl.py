"""Crawl-equivalence tests — the distributed crawl vs the sequential
oracle replaying /root/reference/dude/base.py:361-376 semantics.

Contract (see dude_ray/state/frontier.py docstring):
* politeness deferral OFF → the engine's visit sequence ordered by
  enqueue key equals the oracle's visit sequence GLOBALLY;
* politeness ON → identical first-visit SET + per-host FIFO order;
* seen-set membership and skip-reason counters match in both modes;
* a crawl killed mid-run resumes from checkpoint to identical output.
"""

import collections

import pytest

from dude_ray.canonical import url_sha1

SF = "/root/testdata/sf0.001"


def visits_in_key_order(rows):
    return sorted(rows, key=lambda r: (r["ek_round"], r["ek_parent"], r["ek_link"]))


def assert_visits_equal_oracle(rows, oracle):
    """Same visited URLs with the same statuses, each visited once."""
    got = [(r["doc_id"], r["status"]) for r in rows]
    assert len(got) == len(set(got))
    assert set(got) == {(v["url"], v["status"]) for v in oracle.visits}


def assert_per_host_fifo_equals_oracle(rows, oracle):
    """Each host's pages in visit order (round, then order in round)
    equal the sequential replay's order for that host."""
    per_host = collections.defaultdict(list)
    for r in sorted(rows, key=lambda r: (r["round"], r["order_in_round"])):
        per_host[r["host"]].append(r["doc_id"])
    assert per_host == oracle.per_host_order()


def assert_spans_match_corpus(rows):
    import pyarrow.dataset as pads

    from dude_ray.sources.corpus import ensure_corpus

    t = pads.dataset(f"{ensure_corpus(SF)}/web", partitioning="hive").to_table(
        columns=["doc_id", "spans"])
    golden = dict(zip(t["doc_id"].to_pylist(), t["spans"].to_pylist()))
    checked = 0
    for r in rows:
        if r["status"] != "ok":
            continue
        assert r["spans"] == golden[r["doc_id"]], r["doc_id"]
        checked += 1
    assert checked > 100


@pytest.fixture(scope="module")
def oracle(ray_session, tmp_path_factory):
    from dude_ray.oracle import load_corpus_index, sequential_crawl
    from dude_ray.sources.corpus import ensure_corpus, load_robots, load_seeds

    corpus_dir = ensure_corpus(SF)
    index = load_corpus_index(corpus_dir)
    robots = load_robots(corpus_dir)
    seeds = [s["url"] for s in load_seeds(corpus_dir)]
    return sequential_crawl(index, robots, seeds)


@pytest.fixture(scope="module")
def crawl_rows(ray_session, tmp_path_factory):
    from dude_ray.crawl import run_crawl

    out = tmp_path_factory.mktemp("crawl") / "polite"
    ds = run_crawl(SF, out_dir=str(out), num_shards=3, concurrency=3,
                   politeness=True)
    return ds.take_all(), str(out)


@pytest.fixture(scope="module")
def strict_crawl(ray_session, tmp_path_factory):
    from dude_ray.crawl import run_crawl

    out = tmp_path_factory.mktemp("crawl") / "strict"
    ds = run_crawl(SF, out_dir=str(out), num_shards=3, concurrency=3,
                   politeness=False)
    return ds.take_all(), str(out)


@pytest.fixture(scope="module")
def strict_rows(strict_crawl):
    return strict_crawl[0]


@pytest.fixture(scope="module")
def pipelined_crawl(ray_session, tmp_path_factory):
    from dude_ray.crawl import run_crawl

    out = tmp_path_factory.mktemp("crawl") / "pipelined"
    ds = run_crawl(SF, out_dir=str(out), num_shards=3, concurrency=3,
                   politeness=True, politeness_burst=1000, pipelined=True)
    return ds.take_all(), str(out)


def test_strict_global_sequence_equals_oracle(strict_rows, oracle):
    got = [r["doc_id"] for r in visits_in_key_order(strict_rows)]
    want = oracle.visit_urls()
    assert got == want


def test_first_visit_set_equals_oracle(crawl_rows, oracle):
    rows, _ = crawl_rows
    assert {r["doc_id"] for r in rows} == set(oracle.visit_urls())
    assert len(rows) == len(oracle.visits)  # no duplicate visits


def test_per_host_fifo_order_with_politeness(crawl_rows, oracle):
    rows, _ = crawl_rows
    # engine per-host order (by round, then order in round)
    per_host = collections.defaultdict(list)
    for r in sorted(rows, key=lambda r: (r["round"], r["order_in_round"])):
        per_host[r["host"]].append(r["doc_id"])
    # per-host order must equal sorted-by-enqueue-key order (FIFO contract)
    for host, urls in per_host.items():
        keyed = [r for r in rows if r["host"] == host]
        assert urls == [r["doc_id"] for r in visits_in_key_order(keyed)], host


def test_seen_set_membership(strict_rows, oracle):
    # every oracle-seen URL hashes as seen by some shard: compare via
    # re-deriving the engine's seen set from skip metrics + visits
    got_visited = {url_sha1(r["doc_id"]) for r in strict_rows}
    assert got_visited <= oracle.seen
    # robots-blocked URLs are the only seen-not-visited members
    blocked = {url_sha1(u) for u, why in oracle.skipped_urls.items()
               if why == "robots_disallowed"}
    assert got_visited | blocked == oracle.seen


def test_skip_counters_match_oracle(crawl_rows, oracle):
    from dude_ray.crawl import crawl_metrics

    _, out_dir = crawl_rows
    m = crawl_metrics(out_dir)
    eng = collections.Counter()
    for s in m["shards"]:
        for k in ("not_allowed_domain", "robots_disallowed", "duplicate",
                  "released", "enqueued"):
            eng[k] += s.get(k, 0)
    assert eng["not_allowed_domain"] == oracle.skips["not_allowed_domain"]
    assert eng["robots_disallowed"] == oracle.skips["robots_disallowed"]
    assert eng["duplicate"] == oracle.skips["duplicate"]
    assert eng["released"] == len(oracle.visits)


def test_frontier_accounting_in_metrics(crawl_rows):
    """METRICS.json reports the frontier's RPC count and the CPU time of
    its release, offer and snapshot work; that time fits in the loop."""
    from dude_ray.crawl import crawl_metrics

    m = crawl_metrics(crawl_rows[1])
    busy = m["frontier_busy_s"]
    assert set(busy) == {"release", "offer", "snapshot"}
    assert all(v >= 0 for v in busy.values())
    assert busy["release"] > 0
    assert sum(busy.values()) <= m["loop_sec"]
    # at least one release per round, plus reset, seeds and metrics
    assert m["frontier_calls"] > m["rounds"]


def test_worker_layer_times_in_metrics(crawl_rows):
    """METRICS.json splits the workers' busy time into fetch, parse,
    extract, links and route seconds, which add up to it."""
    from dude_ray.crawl import crawl_metrics

    m = crawl_metrics(crawl_rows[1])
    layers = m["worker_layers_s"]
    assert set(layers) == {"fetch", "parse", "extract", "links", "route"}
    assert all(v >= 0 for v in layers.values())
    assert sum(layers.values()) == pytest.approx(m["worker_busy_s"], rel=0.10)


@pytest.mark.parametrize("fixture", ["strict_crawl", "pipelined_crawl"])
def test_chunks_per_round_in_metrics(fixture, request):
    """METRICS.json counts the chunk tasks: each round goes out as about
    two chunks per worker (at most three), none above ``batch_size``
    rows."""
    import inspect

    from dude_ray.crawl import crawl_metrics, run_crawl

    m = crawl_metrics(request.getfixturevalue(fixture)[1])
    cap = inspect.signature(run_crawl).parameters["batch_size"].default
    assert m["rounds"] <= m["chunks"] <= 3 * m["n_workers"] * m["rounds"]
    assert 0 < m["chunk_rows_max"] <= cap


def _plan_round(sizes, n_parts, seed):
    """Random per-shard part and rank arrays of one released round."""
    import numpy as np

    rng = np.random.default_rng(seed)
    perm = rng.permutation(sum(sizes))
    offs = np.cumsum([0] + list(sizes))
    parts = [rng.integers(0, n_parts, n).astype(np.int32) for n in sizes]
    ranks = [np.sort(perm[offs[i]:offs[i + 1]]) for i in range(len(sizes))]
    return parts, ranks


@pytest.mark.parametrize("sizes,n_workers,cap", [
    ((25, 25, 26), 2, 2048),
    ((25, 25, 26), 3, 2048),
    ((700, 0, 450, 900), 3, 2048),
    ((700, 0, 450, 900), 4, 64),
    ((5,), 2, 2048),
])
def test_plan_chunks(sizes, n_workers, cap):
    """Every released row lands in exactly one chunk with its rank; no
    chunk exceeds the cap; a part's rows go only to its owner set, which
    starts at ``part % n_workers``; without a binding cap each worker
    gets at most two chunks, and a round of at least 2 * n_workers rows
    gives every worker one."""
    import numpy as np

    from dude_ray.crawl import plan_chunks

    parts, ranks = _plan_round(sizes, 16, seed=sum(sizes) + n_workers)
    owners0 = {3: [1 % n_workers]}
    chunks, owners = plan_chunks(parts, ranks, owners0, n_workers, cap)
    assert owners0 == {3: [1 % n_workers]}  # the input map is not modified
    seen = {}
    per_worker = collections.Counter()
    for w, chunk in chunks:
        per_worker[w] += 1
        assert 0 < sum(len(idx) for _, idx, _ in chunk) <= cap
        for shard, idx, rk in chunk:
            assert len(idx) == len(rk)
            for i, r in zip(idx.tolist(), rk.tolist()):
                assert (shard, i) not in seen
                seen[shard, i] = r
                assert w in owners[int(parts[shard][i])]
    assert seen == {(s, i): int(r) for s, rk in enumerate(ranks)
                    for i, r in enumerate(rk)}
    for p, own in owners.items():
        assert own[0] == (1 % n_workers if p == 3 else p % n_workers)
    if cap >= sum(sizes):
        assert max(per_worker.values()) <= 2
        if sum(sizes) >= 2 * n_workers:
            assert set(per_worker) == set(range(n_workers))
    assert plan_chunks([np.array([], np.int32)], [np.array([], np.int64)],
                       {}, n_workers, cap) == ([], {})


def test_politeness_accounting(crawl_rows):
    from dude_ray.crawl import crawl_metrics

    _, out_dir = crawl_rows
    m = crawl_metrics(out_dir)
    delayed = [h for h in m["hosts"] if h["crawl_delay"] > 0]
    assert delayed, "corpus should contain crawl-delay hosts"
    assert all(h["pending"] == 0 for h in m["hosts"])


def test_spans_match_corpus_golden(crawl_rows, ray_session):
    assert_spans_match_corpus(crawl_rows[0])


def test_resume_from_checkpoint(ray_session, tmp_path_factory, crawl_rows):
    from dude_ray.crawl import run_crawl

    full_rows, _ = crawl_rows
    out = tmp_path_factory.mktemp("crawl") / "resume"
    # crash after 2 rounds
    partial = run_crawl(SF, out_dir=str(out), num_shards=3, concurrency=3,
                        politeness=True, stop_after_rounds=2)
    assert len(partial.take_all()) < len(full_rows)
    # resume to completion
    resumed = run_crawl(SF, out_dir=str(out), num_shards=3, concurrency=3,
                        politeness=True, resume=True)
    key = lambda r: (r["ek_round"], r["ek_parent"], r["ek_link"])
    a = [(r["doc_id"], r["status"], key(r)) for r in resumed.take_all()]
    b = [(r["doc_id"], r["status"], key(r)) for r in full_rows]
    assert sorted(a) == sorted(b)


def test_resume_adopts_checkpoint_shard_count(ray_session, tmp_path_factory,
                                              crawl_rows):
    """meta.json's num_shards wins on resume: a caller passing a
    different count must not drop shard state (fewer) or crash on a
    missing shard file (more)."""
    from dude_ray.crawl import run_crawl

    full_rows, _ = crawl_rows
    out = tmp_path_factory.mktemp("crawl") / "resume_shards"
    run_crawl(SF, out_dir=str(out), num_shards=3, concurrency=3,
              politeness=True, stop_after_rounds=2)
    resumed = run_crawl(SF, out_dir=str(out), num_shards=5, concurrency=3,
                        politeness=True, resume=True)
    key = lambda r: (r["ek_round"], r["ek_parent"], r["ek_link"])
    a = [(r["doc_id"], r["status"], key(r)) for r in resumed.take_all()]
    b = [(r["doc_id"], r["status"], key(r)) for r in full_rows]
    assert sorted(a) == sorted(b)


def test_resume_rejects_other_corpus(ray_session, tmp_path_factory):
    """A checkpoint is bound to its corpus; resuming against a different
    one is refused instead of silently mixing seen-sets."""
    import pytest as _pytest

    from dude_ray.crawl import run_crawl

    out = tmp_path_factory.mktemp("crawl") / "resume_corpus"
    run_crawl(SF, out_dir=str(out), num_shards=3, concurrency=3,
              politeness=True, stop_after_rounds=1)
    with _pytest.raises(ValueError, match="corpus"):
        run_crawl(SF, out_dir=str(out), num_shards=3, concurrency=3,
                  politeness=True, resume=True, corpus_scale=2)


def test_pipelined_resume_complete_visit_set(ray_session, tmp_path_factory,
                                             crawl_rows):
    """Pipelined checkpoints drain in-flight waves before snapshotting,
    so a pipelined crash+resume still visits the full URL set (edges
    discovered by straggler batches are in the shard snapshots)."""
    from dude_ray.crawl import run_crawl

    strict_set = {r["doc_id"] for r in crawl_rows[0]}
    out = tmp_path_factory.mktemp("crawl") / "pipelined_resume"
    run_crawl(SF, out_dir=str(out), num_shards=3, concurrency=3,
              politeness=True, politeness_burst=1000, pipelined=True,
              stop_after_rounds=2)
    ds = run_crawl(SF, out_dir=str(out), num_shards=3, concurrency=3,
                   politeness=True, politeness_burst=1000, pipelined=True,
                   resume=True)
    got = [r["doc_id"] for r in ds.take_all()]
    assert len(got) == len(set(got))
    assert set(got) == strict_set


def _kill_once_dispatching(out_dir, pool_actors):
    """Start a thread that SIGKILLs the process of one ALIVE actor of
    ``pool_actors(pool)`` as soon as ``out_dir`` holds a
    ``round_00000*`` dir, i.e. once this call has started dispatching
    (pooled actors are alive before the call starts, and a kill then
    would not hit the crawl itself).  Returns (stop event, killed-pid
    list, thread)."""
    import os
    import signal
    import threading
    import time as _t

    import ray._private.state as _st

    from dude_ray import crawl

    stop = threading.Event()
    killed: list[int] = []

    def dispatching() -> bool:
        try:
            return any(n.startswith("round_00000") for n in os.listdir(out_dir))
        except FileNotFoundError:
            return False

    def killer():
        deadline = _t.time() + 60
        while _t.time() < deadline and not stop.is_set():
            if dispatching():
                # GCS state (works with include_dashboard=False, unlike
                # ray.util.state which needs the dashboard head) of this
                # call's actors, not of a replaced pool's dying ones
                ids = {a._actor_id.hex() for a in pool_actors(crawl._POOL)}
                alive = [a for a in _st.actors().values()
                         if a.get("ActorID") in ids
                         and a.get("State") == "ALIVE" and a.get("Pid")]
                if alive:
                    os.kill(alive[0]["Pid"], signal.SIGKILL)
                    killed.append(alive[0]["Pid"])
                    return
            _t.sleep(0.005)

    t = threading.Thread(target=killer, daemon=True)
    t.start()
    return stop, killed, t


def _crawl_with_worker_kill(out, **kw):
    from dude_ray.crawl import run_crawl

    stop, killed, t = _kill_once_dispatching(str(out), lambda p: p.workers)
    try:
        ds = run_crawl(SF, out_dir=str(out), num_shards=3, concurrency=3, **kw)
    finally:
        stop.set()
        t.join(timeout=5)
    assert killed, "killer thread never found a CrawlWorker to SIGKILL"
    return ds.take_all()


def test_worker_death_mid_crawl_recovers(ray_session, tmp_path_factory,
                                         crawl_rows):
    """Kill a crawl worker process mid-run: the actor restarts (caches
    rebuilt from the crawl config its chunks carry), its failed chunk
    retries, and the visit set is complete — offer idempotence makes
    the retry safe."""
    strict_set = {r["doc_id"] for r in crawl_rows[0]}
    out = tmp_path_factory.mktemp("crawl") / "killworker"
    rows = _crawl_with_worker_kill(out, politeness=True, politeness_burst=1000)
    got = [r["doc_id"] for r in rows]
    assert len(got) == len(set(got))
    assert set(got) == strict_set


def test_worker_death_pipelined_recovers(ray_session, tmp_path_factory,
                                         crawl_rows):
    """Same SIGKILL probe in pipelined mode — the mode with no per-round
    offer barrier.  Offers are acked inside each chunk, so a killed
    worker's unfinished chunk retries and re-offers its edges; the visit
    set must still equal the oracle's (closes the old loss window where
    a completed chunk's un-flushed fire-and-forget offers died with
    their owner)."""
    strict_set = {r["doc_id"] for r in crawl_rows[0]}
    out = tmp_path_factory.mktemp("crawl") / "killworker_pipelined"
    rows = _crawl_with_worker_kill(out, politeness=True, politeness_burst=1000,
                                   pipelined=True)
    got = [r["doc_id"] for r in rows]
    assert len(got) == len(set(got))
    assert set(got) == strict_set


def test_worker_death_after_warm_pool_on_other_corpus(ray_session,
                                                      tmp_path_factory, oracle):
    """A restarted pooled worker must serve the crawl its retried chunk
    belongs to, not the one that created the pool: warm the pool on the
    2x-scaled corpus (most of this crawl's URLs are missing there, the
    rest are other pages), then SIGKILL a worker mid-crawl of the 1x
    corpus — visits, statuses and spans must equal this crawl's
    sequential oracle and corpus."""
    from dude_ray.crawl import run_crawl

    warm = tmp_path_factory.mktemp("crawl") / "warm_x2"
    run_crawl(SF, out_dir=str(warm), num_shards=3, concurrency=3,
              corpus_scale=2).materialize()
    out = tmp_path_factory.mktemp("crawl") / "killworker_x1"
    rows = _crawl_with_worker_kill(out, politeness=True, politeness_burst=1000)
    assert_visits_equal_oracle(rows, oracle)
    assert_spans_match_corpus(rows)


@pytest.mark.parametrize("pipelined", [False, True])
def test_frontier_death_resumes_from_checkpoint(ray_session, tmp_path_factory,
                                                oracle, pipelined):
    """SIGKILL the frontier process mid-crawl: the frontier does not
    restart (its state is the crawl's), so the call raises the
    frontier's death — not an edge-replay failure after re-running
    chunks on every worker — and drops the pool.  A resumed call (from
    the newest persisted checkpoint, if any) equals the sequential
    oracle: visit set, statuses and spans, and in the strict mode the
    visit sequence."""
    import ray

    from dude_ray import crawl
    from dude_ray.crawl import run_crawl

    out = tmp_path_factory.mktemp("crawl") / f"killfrontier_{pipelined}"
    kw = dict(num_shards=3, concurrency=3, politeness=False, checkpoint_every=1,
              pipelined=pipelined)
    stop, killed, t = _kill_once_dispatching(str(out), lambda p: [p.frontier])
    try:
        with pytest.raises(ray.exceptions.RayActorError):
            run_crawl(SF, out_dir=str(out), **kw)
    finally:
        stop.set()
        t.join(timeout=5)
    assert killed, "killer thread never found the frontier to SIGKILL"
    assert crawl._POOL is None
    rows = run_crawl(SF, out_dir=str(out), resume=True, **kw).take_all()
    assert_visits_equal_oracle(rows, oracle)
    if not pipelined:
        assert [r["doc_id"] for r in visits_in_key_order(rows)] == \
            oracle.visit_urls()
    assert_spans_match_corpus(rows)


def test_pipelined_same_visit_set(pipelined_crawl, crawl_rows):
    """Pipelined (bench) mode gives up deterministic enqueue-key labels
    but must visit exactly the same URL set as the strict mode."""
    strict_set = {r["doc_id"] for r in crawl_rows[0]}
    got = [r["doc_id"] for r in pipelined_crawl[0]]
    assert len(got) == len(set(got))  # no duplicate visits
    assert set(got) == strict_set


def test_shard_count_does_not_change_visit_sequence(ray_session, tmp_path_factory,
                                                    strict_rows):
    """Determinism across physical layouts: the enqueue-key-ordered
    visit sequence is invariant to the number of frontier shards."""
    from dude_ray.crawl import run_crawl

    out = tmp_path_factory.mktemp("crawl") / "shards5"
    ds = run_crawl(SF, out_dir=str(out), num_shards=5, concurrency=2,
                   politeness=False)
    a = [r["doc_id"] for r in visits_in_key_order(ds.take_all())]
    b = [r["doc_id"] for r in visits_in_key_order(strict_rows)]
    assert a == b


def test_checkpoint_persist_consistency(ray_session, tmp_path_factory):
    """After a completed run the DEFERRED checkpoint persist must leave
    a consistent trail: the meta marker's completed_rounds never exceeds
    the committed round directories, every committed dir is final (no
    .wip leftovers), and the snapshot files for the recorded meta
    exist."""
    import json
    import os

    from dude_ray.crawl import run_crawl

    out = tmp_path_factory.mktemp("crawl") / "ckpt_consistency"
    run_crawl(SF, out_dir=str(out), num_shards=3, concurrency=3,
              politeness=True, checkpoint_every=2).materialize()
    rounds = sorted(d for d in os.listdir(out) if d.startswith("round_")
                    and not d.endswith(".wip"))
    assert not [d for d in os.listdir(out) if d.endswith(".wip")]
    meta = json.load(open(out / "CHECKPOINT" / "meta.json"))
    assert meta["completed_rounds"] <= len(rounds)
    for i in range(meta["num_shards"]):
        assert (out / "CHECKPOINT" / f"shard_{i}.bin").exists()


def test_crawl_host_counts_local_oracle(ray_session, tmp_path_factory):
    """The per-host page/link accounting equals the DuckDB recompute
    over the inlined sequential-replay visit list at sf0.001 (the
    rows-only -> SQL-checked upgrade)."""
    import duckdb
    import pandas as pd

    import __ray_entry__ as entry
    from dude_ray.oracle import crawl_host_counts_oracle_sql

    con = duckdb.connect()
    want = (con.execute(crawl_host_counts_oracle_sql(SF)).df()
            .sort_values("host").reset_index(drop=True))
    got = (entry.queries()["crawl_host_counts"](SF).to_pandas()
           .sort_values("host").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)


def test_crawl_skip_counts_local_oracle(ray_session):
    """The frontier outcome accounting equals the DuckDB recompute
    over the inlined replay skip/release events at sf0.001."""
    import duckdb
    import pandas as pd

    import __ray_entry__ as entry
    from dude_ray.oracle import crawl_skip_counts_oracle_sql

    con = duckdb.connect()
    want = (con.execute(crawl_skip_counts_oracle_sql(SF)).df()
            .sort_values("reason").reset_index(drop=True))
    got = (entry.queries()["crawl_skip_counts"](SF).to_pandas()
           .sort_values("reason").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)


# ---- the actor pool shared by consecutive crawls ----------------------

def _pool_actors_alive():
    import ray._private.state as _st

    return [a for a in _st.actors().values()
            if a.get("ActorClassName") in ("Frontier", "CrawlWorker")
            and a.get("State") == "ALIVE"]


def test_strict_crawl_after_pipelined_equals_oracles(ray_session, tmp_path_factory,
                                                     oracle):
    """A pooled shard keeps nothing of a pipelined Bloom-only crawl: the
    strict crawl (exact seen-set, one release per host and tick) that
    follows it on the same pool matches the global visit sequence and
    the per-host FIFO order of the sequential replay."""
    from dude_ray.crawl import crawl_metrics, run_crawl

    base = tmp_path_factory.mktemp("crawl")
    run_crawl(SF, out_dir=str(base / "pipelined"), num_shards=3, concurrency=3,
              politeness=True, politeness_burst=1000, pipelined=True,
              exact_confirm=False).materialize()
    ds = run_crawl(SF, out_dir=str(base / "strict"), num_shards=3, concurrency=3,
                   politeness=False, politeness_burst=1, exact_confirm=True)
    rows = ds.take_all()
    assert crawl_metrics(str(base / "strict"))["pool"] == "warm"
    assert [r["doc_id"] for r in visits_in_key_order(rows)] == oracle.visit_urls()
    assert_per_host_fifo_equals_oracle(rows, oracle)


def test_back_to_back_crawls_report_identical_counters(ray_session,
                                                       tmp_path_factory):
    """METRICS.json holds this call's values only: two identical crawls
    on one pool report the same shard counters (Bloom fill included)
    and host accounting, and the second reports a warm pool with its
    start-up time."""
    from dude_ray.crawl import crawl_metrics, run_crawl

    base = tmp_path_factory.mktemp("crawl")
    ms = []
    for name in ("a", "b"):
        run_crawl(SF, out_dir=str(base / name), num_shards=3, concurrency=3,
                  politeness=True, exact_confirm=False).materialize()
        ms.append(crawl_metrics(str(base / name)))
    a, b = ms
    assert b["pool"] == "warm" and b["startup_s"] > 0
    assert a["shards"] == b["shards"]
    assert a["hosts"] == b["hosts"]
    assert a["released_total"] == b["released_total"]


def test_pool_holds_no_cpu_between_calls(ray_session, tmp_path_factory):
    """Pooled shards and workers hold no logical CPU once a crawl has
    returned, so later Ray jobs in the session get every CPU."""
    import time as _t

    import ray

    from dude_ray.crawl import run_crawl

    out = tmp_path_factory.mktemp("crawl") / "cpu"
    run_crawl(SF, out_dir=str(out), num_shards=3, concurrency=3)
    assert _pool_actors_alive()
    total = ray.cluster_resources()["CPU"]
    deadline = _t.time() + 10  # the resource view updates asynchronously
    while ray.available_resources().get("CPU", 0) != total and _t.time() < deadline:
        _t.sleep(0.1)
    assert ray.available_resources().get("CPU", 0) == total


def test_failed_crawl_kills_pool(ray_session, tmp_path_factory, oracle):
    """An exception inside a crawl kills every pooled shard and worker
    (none keeps running or holding resources), and the next crawl
    builds a fresh pool and equals the oracle."""
    import time as _t

    from dude_ray.crawl import crawl_metrics, run_crawl
    from dude_ray.pipelines.flagship import flagship_rules
    from dude_ray.rule import Rule, Selector

    def boom(element):
        raise RuntimeError("handler failed")

    rules = flagship_rules() + [Rule(group=Selector(css=".custom-group"),
                                     selector=Selector(css=".title"),
                                     url_matcher="*", handler=boom)]
    base = tmp_path_factory.mktemp("crawl")
    with pytest.raises(Exception, match="handler failed"):
        run_crawl(SF, out_dir=str(base / "fails"), num_shards=3, concurrency=3,
                  politeness=False, rules=rules)
    deadline = _t.time() + 30
    while _pool_actors_alive() and _t.time() < deadline:
        _t.sleep(0.1)
    assert not _pool_actors_alive()

    ds = run_crawl(SF, out_dir=str(base / "after"), num_shards=3, concurrency=3,
                   politeness=False)
    assert crawl_metrics(str(base / "after"))["pool"] == "cold"
    assert [r["doc_id"] for r in visits_in_key_order(ds.take_all())] == \
        oracle.visit_urls()


def test_crawl_in_one_cpu_session(tmp_path, oracle):
    """The crawl needs no logical CPU beyond placing its workers (shards
    hold none, and the workers write the output), so it completes in a
    Ray session with one logical CPU and equals the oracle."""
    import json
    import os
    import signal
    import subprocess
    import sys

    out = tmp_path / "one_cpu"
    code = (
        "import json, ray\n"
        "ray.init(address='local', num_cpus=1, include_dashboard=False,"
        " logging_level='ERROR')\n"
        "from dude_ray.crawl import run_crawl\n"
        f"rows = run_crawl({SF!r}, out_dir={str(out)!r}).take_all()\n"
        "print('VISITS ' + json.dumps([[r['doc_id'], r['status']] for r in rows]))\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # own process group: a hung session is stopped with all its daemons
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=root, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=240)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    assert proc.returncode == 0, stderr[-3000:]
    line = [ln for ln in stdout.splitlines() if ln.startswith("VISITS ")][-1]
    got = [tuple(v) for v in json.loads(line.split(" ", 1)[1])]
    assert len(got) == len(set(got))
    assert set(got) == {(v["url"], v["status"]) for v in oracle.visits}


def test_one_frontier_serves_any_shard_count(ray_session, tmp_path_factory,
                                            oracle):
    """The pool's single frontier process hosts every logical shard: a
    crawl with 5 shards reuses the pool a 3-shard crawl warmed, equals
    the oracle, and the session then holds exactly one live frontier
    actor and ``concurrency`` live crawl workers."""
    import time as _t

    from dude_ray.crawl import crawl_metrics, run_crawl

    base = tmp_path_factory.mktemp("crawl")
    run_crawl(SF, out_dir=str(base / "three"), num_shards=3, concurrency=3,
              politeness=False).materialize()
    ds = run_crawl(SF, out_dir=str(base / "five"), num_shards=5, concurrency=3,
                   politeness=False)
    assert crawl_metrics(str(base / "five"))["pool"] == "warm"
    assert [r["doc_id"] for r in visits_in_key_order(ds.take_all())] == \
        oracle.visit_urls()

    def counts():
        return collections.Counter(a["ActorClassName"]
                                   for a in _pool_actors_alive())

    want = {"Frontier": 1, "CrawlWorker": 3}
    deadline = _t.time() + 30  # actors of an earlier, killed pool die async
    while counts() != want and _t.time() < deadline:
        _t.sleep(0.1)
    assert counts() == want
