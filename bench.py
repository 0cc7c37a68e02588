"""Benchmark driver — prints ONE JSON line with the headline metric.

Headline: the distributed crawl (URLs fetched+extracted/sec) over the
bench corpus profile (corpus_scale × the sf documents table, all hosts
seeded — see dude_ray.sources.corpus).  The crawl stage runs
BEST-OF-N (default 3, BENCH_CRAWL_REPEATS) in fresh processes — the
shared sandbox host shows ±30-40% tenancy swings between identical
runs, and best-of with every attempt reported ("crawl_attempts")
makes the file of record reflect the engine, not the tenancy lottery.
Additional per-pipeline timings land in "queries".

    GRAFT_SF_DIR=/root/testdata/sf0.1 RAY_GRAFT_CPUS=32 python bench.py
    python bench.py --scaling    # same job at 8 and 32 CPUs in fresh
                                 # processes → throughput + efficiency

The scaling run is the sandbox substitute for the north rule's
N vs 4N-node criterion (see BASELINE.md).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
CORPUS_SCALE = int(os.environ.get("BENCH_CORPUS_SCALE", "70"))
NUM_PARTS = int(os.environ.get("BENCH_NUM_PARTS", "64"))


def _crawl_once() -> dict:
    """One fresh-session crawl over the bench corpus; returns the
    headline numbers.  Used in-process by BENCH_CRAWL_ONLY subprocesses
    and by run_bench directly."""
    import ray

    from dude_ray.crawl import crawl_metrics, run_crawl

    out_dir = f"/tmp/dude_ray_bench/crawl_{NUM_CPUS}_{os.getpid()}"
    t0 = time.time()
    # logical frontier shards scale with the cluster; they all live in
    # one frontier process, so the count sets the host-hash partition only
    run_crawl(SF_DIR, out_dir=out_dir,
              num_shards=max(4, NUM_CPUS // 4),
              checkpoint_every=8,
              ticks_per_round=8, corpus_scale=CORPUS_SCALE, seed_every=1,
              num_parts_hint=NUM_PARTS, politeness_burst=100_000,
              exact_confirm=False, pipelined=True)
    crawl_sec = time.time() - t0
    m = crawl_metrics(out_dir)
    # each attempt writes a full bench-corpus crawl tree (parquet
    # rounds + frontier snapshots) — delete it once the metrics are
    # read, or repeated best-of-N benching fills /tmp
    import shutil

    shutil.rmtree(out_dir, ignore_errors=True)
    return {"crawl_sec": crawl_sec, "loop_sec": m["loop_sec"],
            "released_total": m["released_total"],
            "worker_busy_s": m.get("worker_busy_s", 0.0),
            "n_workers": m.get("n_workers", 1)}


def _crawl_best_of(n: int = 3) -> dict:
    """Best-of-N crawl, each attempt a FRESH process (fresh Ray
    session, fresh actors): the shared sandbox host shows ±30-40%
    tenancy swings between identical runs (BASELINE.md's probe-
    bracketed series), so the file of record takes the minimum loop
    time and reports every attempt for transparency."""
    env = dict(os.environ, BENCH_CRAWL_ONLY="1",
               RAY_GRAFT_CPUS=str(NUM_CPUS))
    attempts, errors = [], []
    for _ in range(n):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)], env=env,
            capture_output=True, text=True,
            cwd=os.path.dirname(os.path.abspath(__file__)))
        try:
            if out.returncode != 0:
                raise RuntimeError(out.stderr.strip().splitlines()[-1]
                                   if out.stderr.strip() else
                                   f"rc={out.returncode}")
            attempts.append(json.loads(out.stdout.strip().splitlines()[-1]))
        except (RuntimeError, ValueError, IndexError) as e:
            # one crashed attempt must not take down the file of record
            errors.append(str(e)[:200])
    if not attempts:
        raise RuntimeError(f"all {n} crawl attempts failed: {errors}")
    best = min(attempts, key=lambda r: r["queries"]["crawl"])
    best["crawl_attempts"] = [r["queries"]["crawl"] for r in attempts]
    if errors:
        best["crawl_attempt_errors"] = errors
    return best


def run_bench() -> dict:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    from dude_ray.pipelines import dedup, relational, similarity, textops
    from dude_ray.pipelines.flagship import run_extract
    from dude_ray.sources.corpus import ensure_corpus

    timings: dict[str, float] = {}

    # corpus generation is one-time (cached) and untimed: it also warms
    # the page cache so the timed run measures compute + exchange
    ensure_corpus(SF_DIR, scale=CORPUS_SCALE, seed_every=1, num_parts=NUM_PARTS)

    # ---- headline: the crawl ------------------------------------------
    # pipelined mode: identical visit SET to the strict deterministic
    # mode (asserted by tests/test_crawl.py::test_pipelined_same_set),
    # round barriers relaxed for throughput; politeness accounted in
    # virtual time (burst mode), seen-set = Bloom (production config)
    if os.environ.get("BENCH_CRAWL_ONLY") == "1":
        c = _crawl_once()
        crawl_sec = c["crawl_sec"]
        n_visits = c["released_total"]
        crawl_loop_sec = c["loop_sec"]
        timings["crawl"] = round(crawl_loop_sec, 3)
        crawl_attempts = [timings["crawl"]]
        busy, n_workers = c["worker_busy_s"], c["n_workers"]
    else:
        best = _crawl_best_of(int(os.environ.get("BENCH_CRAWL_REPEATS", "3")))
        crawl_sec = best["crawl_total_sec"]
        n_visits = best["crawl_urls"]
        crawl_loop_sec = best["queries"]["crawl"]
        timings["crawl"] = round(crawl_loop_sec, 3)
        crawl_attempts = best["crawl_attempts"]
        busy = best.get("worker_busy_s", 0.0)
        n_workers = best.get("n_workers", 1)

    if os.environ.get("BENCH_CRAWL_ONLY") == "1":
        result = {
            "metric": "crawl fetch+extract (crawl-only run)",
            "value": round(crawl_loop_sec, 3),
            "unit": "sec",
            "queries": {"crawl": round(crawl_loop_sec, 3)},
            "sf": SF_DIR,
            "num_cpus": NUM_CPUS,
            "crawl_urls": n_visits,
            "crawl_urls_per_sec": round(n_visits / crawl_loop_sec, 1),
            "crawl_total_sec": round(crawl_sec, 3),
            "corpus_scale": CORPUS_SCALE,
            "worker_busy_s": busy,
            "n_workers": n_workers,
            "utilization": round(busy / (crawl_loop_sec * n_workers), 3),
            "busy_us_per_url": round(1e6 * busy / max(n_visits, 1), 1),
        }
        ray.shutdown()
        return result

    # ---- secondary pipelines ------------------------------------------
    t0 = time.time()
    n_spans = run_extract(SF_DIR).map_batches(
        lambda t: t.select(["doc_id"]), batch_format="pyarrow").count()
    timings["extract"] = round(time.time() - t0, 3)

    # whole-bench-corpus extraction (same page set the crawl fetches) —
    # separate key so "extract" stays comparable across rounds
    t0 = time.time()
    run_extract(SF_DIR, corpus_scale=CORPUS_SCALE, seed_every=1,
                num_parts=NUM_PARTS).map_batches(
        lambda t: t.select(["doc_id"]), batch_format="pyarrow").count()
    timings["extract_full"] = round(time.time() - t0, 3)

    t0 = time.time()
    textops.run_token_count(SF_DIR).count()
    timings["token_count"] = round(time.time() - t0, 3)

    t0 = time.time()
    textops.run_quality(SF_DIR).count()
    timings["quality_score"] = round(time.time() - t0, 3)

    t0 = time.time()
    dedup.run_exact_dedup(SF_DIR).count()
    timings["exact_dedup"] = round(time.time() - t0, 3)

    t0 = time.time()
    dedup.run_minhash_dedup(SF_DIR).count()
    timings["minhash_dedup"] = round(time.time() - t0, 3)

    t0 = time.time()
    similarity.run_ann_topk(SF_DIR).count()
    timings["ann_topk"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_events_window(SF_DIR).count()
    timings["events_window"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_pricing_summary(SF_DIR).count()
    timings["pricing_summary"] = round(time.time() - t0, 3)

    from dude_ray.pipelines import clustering, ranking

    t0 = time.time()
    ranking.run_bm25(SF_DIR)
    timings["bm25_topk"] = round(time.time() - t0, 3)

    t0 = time.time()
    clustering.run_kmeans_cluster(SF_DIR).count()
    timings["kmeans_cluster"] = round(time.time() - t0, 3)

    t0 = time.time()
    dedup.run_dup_clusters(SF_DIR).count()
    timings["dup_clusters"] = round(time.time() - t0, 3)

    from dude_ray.pipelines import sampling

    t0 = time.time()
    dedup.run_substring_dup(SF_DIR).count()
    timings["substring_dup"] = round(time.time() - t0, 3)

    t0 = time.time()
    sampling.run_mix_interleave(SF_DIR).count()
    timings["mix_interleave"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_value_buckets(SF_DIR).count()
    timings["value_buckets"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_events_zscore(SF_DIR).count()
    timings["events_zscore"] = round(time.time() - t0, 3)

    t0 = time.time()
    clustering.run_embedding_pca(SF_DIR).count()
    timings["embedding_pca"] = round(time.time() - t0, 3)

    from dude_ray.pipelines import graph, lm

    t0 = time.time()
    lm.run_lm_score(SF_DIR).count()
    timings["lm_score"] = round(time.time() - t0, 3)

    t0 = time.time()
    graph.run_graph_pagerank(SF_DIR).count()
    timings["graph_pagerank"] = round(time.time() - t0, 3)

    from dude_ray.pipelines import lr

    t0 = time.time()
    dedup.run_jaccard_join(SF_DIR).count()
    timings["jaccard_join"] = round(time.time() - t0, 3)

    t0 = time.time()
    lr.run_lr_quality(SF_DIR).count()
    timings["lr_quality"] = round(time.time() - t0, 3)

    t0 = time.time()
    textops.run_fingerprint(SF_DIR).count()
    timings["doc_fingerprint"] = round(time.time() - t0, 3)

    t0 = time.time()
    ranking.run_term_postings(SF_DIR).count()
    timings["term_postings"] = round(time.time() - t0, 3)

    t0 = time.time()
    lr.run_training_mix(SF_DIR).count()
    timings["training_mix"] = round(time.time() - t0, 3)

    t0 = time.time()
    dedup.run_substring_redact(SF_DIR).count()
    timings["substring_redact"] = round(time.time() - t0, 3)

    t0 = time.time()
    sampling.run_text_chunk(SF_DIR).count()
    timings["text_chunk"] = round(time.time() - t0, 3)

    t0 = time.time()
    clustering.run_quantize_embeddings(SF_DIR).count()
    timings["quantize_embeddings"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_event_funnel(SF_DIR).count()
    timings["event_funnel"] = round(time.time() - t0, 3)

    t0 = time.time()
    dedup.run_chunk_dedup(SF_DIR).count()
    timings["chunk_dedup"] = round(time.time() - t0, 3)

    from dude_ray.pipelines import dsir

    t0 = time.time()
    clustering.run_semdedup(SF_DIR).count()
    timings["semdedup"] = round(time.time() - t0, 3)

    t0 = time.time()
    dsir.run_dsir_select(SF_DIR)
    timings["dsir_select"] = round(time.time() - t0, 3)

    from dude_ray.pipelines import bpe

    t0 = time.time()
    bpe.run_bpe_train(SF_DIR)
    timings["bpe_train"] = round(time.time() - t0, 3)

    t0 = time.time()
    similarity.run_knn_graph(SF_DIR).materialize()
    timings["knn_graph"] = round(time.time() - t0, 3)

    t0 = time.time()
    bpe.run_bpe_encode(SF_DIR).materialize()
    timings["bpe_encode"] = round(time.time() - t0, 3)

    t0 = time.time()
    textops.run_pmi_collocations(SF_DIR)
    timings["pmi_collocations"] = round(time.time() - t0, 3)

    from dude_ray.pipelines import cleaning

    t0 = time.time()
    cleaning.run_blocklist_filter(SF_DIR).materialize()
    timings["blocklist_filter"] = round(time.time() - t0, 3)

    from dude_ray.pipelines import sketches

    t0 = time.time()
    sketches.run_cms_registers(SF_DIR).materialize()
    timings["cms_registers"] = round(time.time() - t0, 3)

    t0 = time.time()
    similarity.run_ann_pq(SF_DIR).materialize()
    timings["ann_pq"] = round(time.time() - t0, 3)

    from dude_ray.pipelines import ccnet

    t0 = time.time()
    ccnet.run_ccnet_buckets(SF_DIR).materialize()
    timings["ccnet_buckets"] = round(time.time() - t0, 3)

    t0 = time.time()
    graph.run_graph_hits(SF_DIR).materialize()
    timings["graph_hits"] = round(time.time() - t0, 3)

    t0 = time.time()
    clustering.run_embedding_project(SF_DIR).materialize()
    timings["embedding_project"] = round(time.time() - t0, 3)

    t0 = time.time()
    sketches.run_bloom_registers(SF_DIR).materialize()
    timings["bloom_registers"] = round(time.time() - t0, 3)

    t0 = time.time()
    textops.run_source_stats(SF_DIR).materialize()
    timings["source_stats"] = round(time.time() - t0, 3)

    t0 = time.time()
    textops.run_readability(SF_DIR).materialize()
    timings["readability"] = round(time.time() - t0, 3)

    t0 = time.time()
    textops.run_phrase_search(SF_DIR).materialize()
    timings["phrase_search"] = round(time.time() - t0, 3)

    t0 = time.time()
    textops.run_contamination_overlap(SF_DIR).materialize()
    timings["contamination_overlap"] = round(time.time() - t0, 3)

    t0 = time.time()
    sampling.run_dataset_split(SF_DIR).materialize()
    timings["dataset_split"] = round(time.time() - t0, 3)

    t0 = time.time()
    dedup.run_dup_rate_by_source(SF_DIR).materialize()
    timings["dup_rate_by_source"] = round(time.time() - t0, 3)

    t0 = time.time()
    dedup.run_editdist_neardup(SF_DIR).materialize()
    timings["editdist_neardup"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_shipping_priority(SF_DIR).materialize()
    timings["shipping_priority"] = round(time.time() - t0, 3)

    t0 = time.time()
    graph.run_knn_triangles(SF_DIR).materialize()
    timings["knn_triangles"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_events_lag_diff(SF_DIR).materialize()
    timings["events_lag_diff"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_events_rolling(SF_DIR).materialize()
    timings["events_rolling"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_revenue_by_nation(SF_DIR).materialize()
    timings["revenue_by_nation"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_qty_rollup(SF_DIR).materialize()
    timings["qty_rollup"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_cheapest_part(SF_DIR).materialize()
    timings["cheapest_part"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_priority_semijoin(SF_DIR).materialize()
    timings["priority_semijoin"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_lapsed_customers(SF_DIR).materialize()
    timings["lapsed_customers"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_user_top_event(SF_DIR).materialize()
    timings["user_top_event"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_event_pivot(SF_DIR).materialize()
    timings["event_pivot"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_event_transitions(SF_DIR).materialize()
    timings["event_transitions"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_small_qty_revenue(SF_DIR).materialize()
    timings["small_qty_revenue"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_large_orders(SF_DIR).materialize()
    timings["large_orders"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_qty_cube(SF_DIR).materialize()
    timings["qty_cube"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_event_trigrams(SF_DIR).materialize()
    timings["event_trigrams"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_winsorize(SF_DIR).materialize()
    timings["winsorize"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_pareto_front(SF_DIR).materialize()
    timings["pareto_front"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_rrf_fusion(SF_DIR).materialize()
    timings["rrf_fusion"] = round(time.time() - t0, 3)

    t0 = time.time()
    textops.run_hash_features(SF_DIR).materialize()
    timings["hash_features"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_asof_attribution(SF_DIR).materialize()
    timings["asof_attribution"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_median_by_type(SF_DIR).materialize()
    timings["median_by_type"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_top_orders_per_cust(SF_DIR).materialize()
    timings["top_orders_per_cust"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_user_type_profile(SF_DIR).materialize()
    timings["user_type_profile"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_custdist(SF_DIR).materialize()
    timings["custdist"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_returned_items(SF_DIR)
    timings["returned_items"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_top_supplier(SF_DIR)
    timings["top_supplier"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_disjunctive_revenue(SF_DIR).materialize()
    timings["disjunctive_revenue"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_promo_revenue(SF_DIR).materialize()
    timings["promo_revenue"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_volume_shipping(SF_DIR).materialize()
    timings["volume_shipping"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_audience_overlap(SF_DIR).materialize()
    timings["audience_overlap"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_spend_deciles(SF_DIR).materialize()
    timings["spend_deciles"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_market_share(SF_DIR).materialize()
    timings["market_share"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_type_lift(SF_DIR).materialize()
    timings["type_lift"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_rfm_segments(SF_DIR).materialize()
    timings["rfm_segments"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_monthly_growth(SF_DIR).materialize()
    timings["monthly_growth"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_weekday_index(SF_DIR).materialize()
    timings["weekday_index"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_forecast_revenue(SF_DIR).materialize()
    timings["forecast_revenue"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_user_burstiness(SF_DIR).materialize()
    timings["user_burstiness"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_interarrival_stats(SF_DIR).materialize()
    timings["interarrival_stats"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_revenue_gini(SF_DIR).materialize()
    timings["revenue_gini"] = round(time.time() - t0, 3)

    t0 = time.time()
    textops.run_vocab_coverage(SF_DIR).materialize()
    timings["vocab_coverage"] = round(time.time() - t0, 3)

    t0 = time.time()
    textops.run_coverage_curve(SF_DIR)
    timings["coverage_curve"] = round(time.time() - t0, 3)

    t0 = time.time()
    similarity.run_ann_recall(SF_DIR)
    timings["ann_recall"] = round(time.time() - t0, 3)

    t0 = time.time()
    dedup.run_dedup_recall(SF_DIR).materialize()
    timings["dedup_recall"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_props_field_stats(SF_DIR).materialize()
    timings["props_field_stats"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_value_props_corr(SF_DIR).materialize()
    timings["value_props_corr"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_anomaly_mad(SF_DIR).materialize()
    timings["anomaly_mad"] = round(time.time() - t0, 3)

    t0 = time.time()
    sketches.run_distinct_users_kmv(SF_DIR).materialize()
    timings["distinct_users_kmv"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_waiting_suppliers(SF_DIR).materialize()
    timings["waiting_suppliers"] = round(time.time() - t0, 3)

    t0 = time.time()
    textops.run_source_similarity(SF_DIR).materialize()
    timings["source_similarity"] = round(time.time() - t0, 3)

    t0 = time.time()
    graph.run_graph_degree_dist(SF_DIR).materialize()
    timings["graph_degree_dist"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_user_entropy(SF_DIR).materialize()
    timings["user_entropy"] = round(time.time() - t0, 3)

    t0 = time.time()
    textops.run_skipgram_counts(SF_DIR).materialize()
    timings["skipgram_counts"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_session_stats(SF_DIR).materialize()
    timings["session_stats"] = round(time.time() - t0, 3)

    t0 = time.time()
    graph.run_cocitation(SF_DIR).materialize()
    timings["cocitation"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_value_autocorr(SF_DIR).materialize()
    timings["value_autocorr"] = round(time.time() - t0, 3)

    t0 = time.time()
    textops.run_lang_confusion(SF_DIR).materialize()
    timings["lang_confusion"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_session_type_pairs(SF_DIR).materialize()
    timings["session_type_pairs"] = round(time.time() - t0, 3)

    t0 = time.time()
    graph.run_coupling(SF_DIR).materialize()
    timings["coupling"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_hour_profile(SF_DIR).materialize()
    timings["hour_profile"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_doclen_percentiles(SF_DIR).materialize()
    timings["doclen_percentiles"] = round(time.time() - t0, 3)

    t0 = time.time()
    from dude_ray.stages.multimodal import run_media_size_stats
    run_media_size_stats(SF_DIR).materialize()
    timings["media_size_stats"] = round(time.time() - t0, 3)

    t0 = time.time()
    dedup.run_dup_cluster_sizes(SF_DIR).materialize()
    timings["dup_cluster_sizes"] = round(time.time() - t0, 3)

    from dude_ray.pipelines import components

    t0 = time.time()
    components.run_link_components(SF_DIR).materialize()
    timings["link_components"] = round(time.time() - t0, 3)

    t0 = time.time()
    components.run_link_depth(SF_DIR).materialize()
    timings["link_depth"] = round(time.time() - t0, 3)

    t0 = time.time()
    components.run_host_graph(SF_DIR).materialize()
    timings["host_graph"] = round(time.time() - t0, 3)

    t0 = time.time()
    components.run_link_reciprocity(SF_DIR).materialize()
    timings["link_reciprocity"] = round(time.time() - t0, 3)

    t0 = time.time()
    components.run_component_sizes(SF_DIR).materialize()
    timings["component_sizes"] = round(time.time() - t0, 3)

    t0 = time.time()
    components.run_k_core(SF_DIR).materialize()
    timings["k_core"] = round(time.time() - t0, 3)

    t0 = time.time()
    components.run_degree_assortativity(SF_DIR).materialize()
    timings["degree_assortativity"] = round(time.time() - t0, 3)

    t0 = time.time()
    components.run_host_depth_profile(SF_DIR).materialize()
    timings["host_depth_profile"] = round(time.time() - t0, 3)

    t0 = time.time()
    components.run_seed_coverage(SF_DIR).materialize()
    timings["seed_coverage"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_dau_wau(SF_DIR).materialize()
    timings["dau_wau"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_order_backlog(SF_DIR).materialize()
    timings["order_backlog"] = round(time.time() - t0, 3)

    t0 = time.time()
    components.run_link_triangles(SF_DIR).materialize()
    timings["link_triangles"] = round(time.time() - t0, 3)

    t0 = time.time()
    components.run_host_rank(SF_DIR).materialize()
    timings["host_rank"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_type_day_mi(SF_DIR).materialize()
    timings["type_day_mi"] = round(time.time() - t0, 3)

    t0 = time.time()
    textops.run_zipf_fit(SF_DIR).materialize()
    timings["zipf_fit"] = round(time.time() - t0, 3)

    t0 = time.time()
    dedup.run_ngram_containment(SF_DIR).materialize()
    timings["ngram_containment"] = round(time.time() - t0, 3)

    t0 = time.time()
    graph.run_adamic_adar(SF_DIR).materialize()
    timings["adamic_adar"] = round(time.time() - t0, 3)

    t0 = time.time()
    sketches.run_hll_intersect(SF_DIR).materialize()
    timings["hll_intersect"] = round(time.time() - t0, 3)

    t0 = time.time()
    textops.run_burrows_delta(SF_DIR).materialize()
    timings["burrows_delta"] = round(time.time() - t0, 3)

    t0 = time.time()
    textops.run_keyness_llr(SF_DIR).materialize()
    timings["keyness_llr"] = round(time.time() - t0, 3)

    t0 = time.time()
    clustering.run_kmeans_silhouette(SF_DIR).materialize()
    timings["kmeans_silhouette"] = round(time.time() - t0, 3)

    t0 = time.time()
    components.run_bowtie_census(SF_DIR).materialize()
    timings["bowtie_census"] = round(time.time() - t0, 3)

    t0 = time.time()
    dedup.run_dedup_threshold_sweep(SF_DIR).materialize()
    timings["dedup_threshold_sweep"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_stationary_types(SF_DIR).materialize()
    timings["stationary_types"] = round(time.time() - t0, 3)

    t0 = time.time()
    dedup.run_shingle_novelty(SF_DIR).materialize()
    timings["shingle_novelty"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_kanon_risk(SF_DIR).materialize()
    timings["kanon_risk"] = round(time.time() - t0, 3)

    t0 = time.time()
    similarity.run_knn_accuracy(SF_DIR).materialize()
    timings["knn_accuracy"] = round(time.time() - t0, 3)

    t0 = time.time()
    components.run_host_modularity(SF_DIR).materialize()
    timings["host_modularity"] = round(time.time() - t0, 3)

    t0 = time.time()
    components.run_seed_walks(SF_DIR).materialize()
    timings["seed_walks"] = round(time.time() - t0, 3)

    t0 = time.time()
    dedup.run_dup_source_matrix(SF_DIR).materialize()
    timings["dup_source_matrix"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_markov_entropy_rate(SF_DIR).materialize()
    timings["markov_entropy_rate"] = round(time.time() - t0, 3)

    t0 = time.time()
    components.run_walk_visit_rank(SF_DIR).materialize()
    timings["walk_visit_rank"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_funnel_latency(SF_DIR).materialize()
    timings["funnel_latency"] = round(time.time() - t0, 3)

    t0 = time.time()
    relational.run_basket_pairs(SF_DIR).materialize()
    timings["basket_pairs"] = round(time.time() - t0, 3)

    t0 = time.time()
    components.run_crawl_budget(SF_DIR).materialize()
    timings["crawl_budget"] = round(time.time() - t0, 3)

    # extract_full re-extracts the same pages the crawl already measured
    # (an informational whole-corpus number) — excluded from the total
    # so "value" stays comparable across rounds
    total = round(sum(v for k, v in timings.items() if k != "extract_full"), 3)
    result = {
        "metric": "total pipeline wall time (headline: crawl fetch+extract)",
        "value": total,
        "unit": "sec",
        "queries": timings,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "crawl_urls": n_visits,
        "crawl_urls_per_sec": round(n_visits / crawl_loop_sec, 1),
        "crawl_total_sec": round(crawl_sec, 3),
        # all fresh-process attempts behind the best-of headline — the
        # spread IS the shared-host tenancy noise (BASELINE.md)
        "crawl_attempts": crawl_attempts,
        "busy_us_per_url": round(1e6 * busy / max(n_visits, 1), 1),
        "corpus_scale": CORPUS_SCALE,
    }
    # window-health evidence in the file of record (~10 s): absolute
    # µs/doc of the pure-parallel kernel exposes uniformly-degraded
    # tenancy windows (historical quiet-window baseline ≈ 650-900
    # µs/doc at 6 workers — BASELINE.md probe-bracketed series).  Runs
    # as a FRESH subprocess: forking the probe pool from this Ray-laden
    # parent measured 4-7× slower from copy-on-write fault storms alone
    # (observed 2026-08-18).
    try:
        out = subprocess.run(
            [sys.executable,
             os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "tools", "hw_probe.py")],
            capture_output=True, text=True, check=True, timeout=300,
            cwd=os.path.dirname(os.path.abspath(__file__)))
        result["hw_probe"] = json.loads(out.stdout.strip().splitlines()[-1])
    except Exception as e:  # noqa: BLE001 — evidence, not a gate
        result["hw_probe"] = {"error": str(e)}
    ray.shutdown()
    return result


def run_scaling() -> dict:
    """Same job, fresh processes, 8 vs 32 CPUs on the same (pre-warmed)
    input — evidence for the N→4N scaling-efficiency criterion."""

    def one(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   BENCH_CRAWL_ONLY="1")
        out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                             env=env, capture_output=True, text=True,
                             check=True, cwd=os.path.dirname(os.path.abspath(__file__)))
        return json.loads(out.stdout.strip().splitlines()[-1])

    def best(ncpu: int, repeats: int = 2) -> dict:
        # the sandbox VM shows ±30-40% run-to-run variance (shared host);
        # best-of-N per level is the standard mitigation and is reported
        # as such in BASELINE.md
        runs = [one(ncpu) for _ in range(repeats)]
        return min(runs, key=lambda r: r["queries"]["crawl"])

    lo, hi = (int(os.environ.get("BENCH_SCALE_LO", "4")),
              int(os.environ.get("BENCH_SCALE_HI", "16")))
    r_lo = best(lo)
    r_hi = best(hi)
    t_lo = r_lo["queries"]["crawl"]
    t_hi = r_hi["queries"]["crawl"]
    eff = (t_lo / t_hi) / (hi / lo)
    # busy-time efficiency: ratio of per-URL worker CPU seconds between
    # the two levels.  1.0 = the engine does the same compute per URL
    # regardless of parallelism (no contention/coordination inflation);
    # this isolates engine scaling from shared-host wall-clock noise.
    bpu_lo = r_lo.get("busy_us_per_url", 0.0)
    bpu_hi = r_hi.get("busy_us_per_url", 0.0)
    busy_eff = round(bpu_lo / bpu_hi, 3) if bpu_hi else None
    return {
        "metric": "crawl scaling efficiency (N→4N CPUs, fresh processes)",
        "value": round(eff, 3),
        "unit": "efficiency",
        "sf": SF_DIR,
        "cpus_lo": lo,
        "cpus_hi": hi,
        "crawl_sec_lo": t_lo,
        "crawl_sec_hi": t_hi,
        "urls_per_sec_lo": r_lo["crawl_urls_per_sec"],
        "urls_per_sec_hi": r_hi["crawl_urls_per_sec"],
        "total_sec_lo": r_lo["value"],
        "total_sec_hi": r_hi["value"],
        "busy_us_per_url_lo": bpu_lo,
        "busy_us_per_url_hi": bpu_hi,
        "busy_efficiency": busy_eff,
        "utilization_lo": r_lo.get("utilization"),
        "utilization_hi": r_hi.get("utilization"),
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
