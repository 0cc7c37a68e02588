"""Driver contract for the graft builder (Ray Data target).

``entry()`` — flagship extraction pipeline at sf0.001.
``queries()`` — one entry per implemented operator/pipeline from
SURVEY.md §2 + the training-data ops; each callable takes ``sf_dir``.
``oracle_sql()`` — DuckDB-equivalent SQL for the SQL-expressible ops
(crawl/extract/sketch ops are non-SQL-expressible → rows-only checks).

Ray is initialised by the driver BEFORE this module is imported: no
ray.init()/ray.shutdown() here or in the library code these use.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import pyarrow as pa
import pyarrow.compute as pc


def _explode_spans(ds):
    """span-list rows → flat (doc_id, kind, text, media_ref, offset)
    rows, vectorized via Arrow list kernels."""

    def explode(batch: pa.Table) -> pa.Table:
        spans = batch["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        parent = pc.list_parent_indices(spans)
        flat = pc.list_flatten(spans)
        return pa.table({
            "doc_id": batch["doc_id"].take(parent),
            "kind": flat.field("kind"),
            "text": flat.field("text"),
            "media_ref": flat.field("media_ref"),
            "offset": flat.field("offset"),
        })

    return ds.map_batches(explode, batch_format="pyarrow")


def entry() -> Any:
    """Flagship pipeline: synthetic web corpus (derived from sf0.001
    documents) → stateless map_batches span extraction → flat span rows."""
    from dude_ray.pipelines.flagship import run_extract

    return _explode_spans(run_extract("/root/testdata/sf0.001"))


# --------------------------------------------------------------------------
# queries
# --------------------------------------------------------------------------

def queries() -> dict[str, Callable[[str], Any]]:
    """ENTRY ORDER IS LOAD-BEARING: the driver's correctness gate
    records only the FIRST 50 entries (insertion order).  Round-5
    rotation (VERDICT_r04 "Next round" #1): slots 1-21 are the 21
    entries that had never appeared in any driver CORRECTNESS file
    through round 4 (registry tail positions 51-65 plus kmeans_assign,
    label_centroids, events_hopping_window, value_percent_rank,
    bloom_registers, anchor_texts).  Slots 22-50 are the entries the
    latest changes touched, so the gate record re-verifies every
    changed code path: the round-5 operators plus, since the dimension
    broadcasts became :func:`~dude_ray.pipelines.relational.dim_lookup`
    task stages, every query that holds one (segment_revenue,
    top_orders_per_segment, returned_items, top_supplier,
    disjunctive_revenue, promo_revenue, volume_shipping, market_share,
    rfm_segments, large_orders; shipping_priority and
    revenue_by_nation sit in slots 1-21) and funnel_latency (NULL
    percentiles when nothing converts).  They displaced five
    already-hash-matched, unchanged operators (winsorize,
    pareto_front, rrf_fusion, asof_attribution, type_lift) into the
    tail.  Since the eleven per-user sequence queries moved onto
    :func:`~dude_ray.pipelines.relational.user_timelines`, the seven
    of them that sat past slot 50 (user_sessions, event_funnel,
    retention_cohorts, event_trigrams, asof_attribution,
    interarrival_stats, session_type_pairs) lead slots 22-50, and
    seven unchanged, already-hash-matched entries (source_similarity,
    skipgram_counts, cocitation, media_size_stats, dup_cluster_sizes,
    ann_recall, coverage_curve) moved to the tail.  The rotation tail
    (51+) — all previously hash-matched by the gate — stays verified
    by tools/check_oracle.py (the same rows+schema+hash protocol over
    ALL entries) and by pytest."""
    from dude_ray.pipelines import (bpe, ccnet, cleaning, clustering,
                                    components, dedup, dsir, flagship,
                                    graph, lm, lr, ranking, relational,
                                    sampling, similarity, sketches,
                                    streaming, textops)
    from dude_ray.stages import multimodal

    return {
        # -- slots 1-21: never driver-verified through round 4 ---------
        "dataset_split": sampling.run_dataset_split,
        "dup_rate_by_source": dedup.run_dup_rate_by_source,
        "editdist_neardup": dedup.run_editdist_neardup,
        "shipping_priority": relational.run_shipping_priority,
        "knn_triangles": graph.run_knn_triangles,
        "events_lag_diff": relational.run_events_lag_diff,
        "events_rolling": relational.run_events_rolling,
        "revenue_by_nation": relational.run_revenue_by_nation,
        "qty_rollup": relational.run_qty_rollup,
        "cheapest_part": relational.run_cheapest_part,
        "priority_semijoin": relational.run_priority_semijoin,
        "lapsed_customers": relational.run_lapsed_customers,
        "user_top_event": relational.run_user_top_event,
        "event_pivot": relational.run_event_pivot,
        "event_transitions": relational.run_event_transitions,
        "kmeans_assign": clustering.run_kmeans_assign,
        "label_centroids": clustering.run_label_centroids,
        "events_hopping_window": relational.run_events_hopping_window,
        "value_percent_rank": relational.run_value_percent_rank,
        "bloom_registers": sketches.run_bloom_registers,
        "anchor_texts": flagship.run_anchor_texts,
        # -- slots 22-50: the queries on relational.user_timelines
        # (the other four sit in slots 1-50 already), then the
        # round-5 operators and every query whose dimension
        # broadcast is a dim_lookup task stage (see the docstring).
        # Evicted near-siblings (small_qty_revenue~large_orders,
        # qty_cube~qty_rollup, ...) open the 51+ tail and stay
        # green in check_oracle -----------------------------------
        "user_sessions": relational.run_user_sessions,
        "event_funnel": relational.run_event_funnel,
        "retention_cohorts": relational.run_retention_cohorts,
        "event_trigrams": relational.run_event_trigrams,
        "asof_attribution": relational.run_asof_attribution,
        "interarrival_stats": relational.run_interarrival_stats,
        "session_type_pairs": relational.run_session_type_pairs,
        "graph_degree_dist": graph.run_graph_degree_dist,
        "user_entropy": relational.run_user_entropy,
        "session_stats": relational.run_session_stats,
        "extract_spans": _q_extract_spans,
        "crawl_host_counts": _q_crawl_host_counts,
        "crawl_skip_counts": _q_crawl_skip_counts,
        # iterative graph ops new in r5: union-find/label-prop CC and
        # BFS depth, recursive-CTE oracled (pipelines/components.py)
        "link_components": components.run_link_components,
        "link_depth": components.run_link_depth,
        "large_orders": relational.run_large_orders,
        "segment_revenue": relational.run_segment_revenue,
        "top_orders_per_segment": relational.run_top_orders_per_segment,
        "returned_items": relational.run_returned_items,
        "top_supplier": relational.run_top_supplier,
        "disjunctive_revenue": relational.run_disjunctive_revenue,
        "promo_revenue": relational.run_promo_revenue,
        "volume_shipping": relational.run_volume_shipping,
        "audience_overlap": relational.run_audience_overlap,
        "spend_deciles": relational.run_spend_deciles,
        "market_share": relational.run_market_share,
        "funnel_latency": relational.run_funnel_latency,
        "rfm_segments": relational.run_rfm_segments,
        "dedup_recall": dedup.run_dedup_recall,
        "user_burstiness": relational.run_user_burstiness,
        "revenue_gini": relational.run_revenue_gini,
        "weekday_index": relational.run_weekday_index,
        "forecast_revenue": relational.run_forecast_revenue,
        "props_field_stats": relational.run_props_field_stats,
        "value_props_corr": relational.run_value_props_corr,
        "anomaly_mad": relational.run_anomaly_mad,
        "waiting_suppliers": relational.run_waiting_suppliers,
        "value_autocorr": relational.run_value_autocorr,
        "lang_confusion": textops.run_lang_confusion,
        "coupling": graph.run_coupling,
        "hour_profile": relational.run_hour_profile,
        "doclen_percentiles": relational.run_doclen_percentiles,
        "user_type_profile": relational.run_user_type_profile,
        # -- 51+: rotation tail.  First the r5 graph aggregations whose
        # kernels the window already gates via link_components/
        # link_depth (hash-matched; green in check_oracle) ------------
        "host_graph": components.run_host_graph,
        "link_reciprocity": components.run_link_reciprocity,
        "component_sizes": components.run_component_sizes,
        "k_core": components.run_k_core,
        "degree_assortativity": components.run_degree_assortativity,
        "host_depth_profile": components.run_host_depth_profile,
        "seed_coverage": components.run_seed_coverage,
        "dau_wau": relational.run_dau_wau,
        "order_backlog": relational.run_order_backlog,
        "link_triangles": components.run_link_triangles,
        "host_rank": components.run_host_rank,
        "type_day_mi": relational.run_type_day_mi,
        "zipf_fit": textops.run_zipf_fit,
        "ngram_containment": dedup.run_ngram_containment,
        "adamic_adar": graph.run_adamic_adar,
        "hll_intersect": sketches.run_hll_intersect,
        "burrows_delta": textops.run_burrows_delta,
        "keyness_llr": textops.run_keyness_llr,
        "kmeans_silhouette": clustering.run_kmeans_silhouette,
        "bowtie_census": components.run_bowtie_census,
        "dedup_threshold_sweep": dedup.run_dedup_threshold_sweep,
        "stationary_types": relational.run_stationary_types,
        "shingle_novelty": dedup.run_shingle_novelty,
        "kanon_risk": relational.run_kanon_risk,
        "knn_accuracy": similarity.run_knn_accuracy,
        "host_modularity": components.run_host_modularity,
        "seed_walks": components.run_seed_walks,
        "dup_source_matrix": dedup.run_dup_source_matrix,
        "markov_entropy_rate": relational.run_markov_entropy_rate,
        "walk_visit_rank": components.run_walk_visit_rank,
        "basket_pairs": relational.run_basket_pairs,
        "crawl_budget": components.run_crawl_budget,
        # -- evicted near-siblings (all hash-matched) ------------------
        "source_similarity": textops.run_source_similarity,
        "skipgram_counts": textops.run_skipgram_counts,
        "cocitation": graph.run_cocitation,
        "media_size_stats": multimodal.run_media_size_stats,
        "dup_cluster_sizes": dedup.run_dup_cluster_sizes,
        "ann_recall": similarity.run_ann_recall,
        "coverage_curve": textops.run_coverage_curve,
        "winsorize": relational.run_winsorize,
        "pareto_front": relational.run_pareto_front,
        "rrf_fusion": relational.run_rrf_fusion,
        "type_lift": relational.run_type_lift,
        "small_qty_revenue": relational.run_small_qty_revenue,
        "qty_cube": relational.run_qty_cube,
        "median_by_type": relational.run_median_by_type,
        "top_orders_per_cust": relational.run_top_orders_per_cust,
        "custdist": relational.run_custdist,
        "monthly_growth": relational.run_monthly_growth,
        "vocab_coverage": textops.run_vocab_coverage,
        "hash_features": textops.run_hash_features,
        "minhash_dedup": dedup.run_minhash_dedup,
        "ngram_jaccard": dedup.run_ngram_jaccard,
        "ngram_jaccard_pairs": dedup.run_ngram_jaccard_pairs,
        "jaccard_join": dedup.run_jaccard_join,
        "dup_clusters": dedup.run_dup_clusters,
        "hll_registers": sketches.run_hll_registers,
        "kmv_registers": sketches.run_kmv_registers,
        "distinct_users_kmv": sketches.run_distinct_users_kmv,
        "distinct_users_approx": sketches.run_distinct_users_approx,
        "mix_interleave": sampling.run_mix_interleave,
        "crawl_visits": _q_crawl_visits,
        "semdedup": _q_semdedup,
        "chunk_dedup": dedup.run_chunk_dedup,
        "ann_lsh": similarity.run_ann_lsh,
        # -- 51+: rotation tail (hash-matched; green in check_oracle) --
        "cms_registers": sketches.run_cms_registers,
        "top_terms_sketch": sketches.run_top_terms_sketch,
        "priority_sample": sampling.run_priority_sample,
        "dsir_weights": dsir.run_dsir_weights,
        "dsir_select": dsir.run_dsir_select,
        "sample_stratified": sampling.run_sample_stratified,
        "sample_per_group": sampling.run_sample_per_group,
        "token_pack": sampling.run_token_pack,
        "text_chunk": sampling.run_text_chunk,
        "shard_assign": sampling.run_shard_assign,
        "streaming_window": streaming.run_streaming_window,
        "training_mix": lr.run_training_mix,
        "substring_dup": dedup.run_substring_dup,
        "substring_redact": dedup.run_substring_redact,
        "curate_keep_best": cleaning.run_curate_keep_best,
        "exact_dedup": dedup.run_exact_dedup,
        "simhash_dedup": dedup.run_simhash_dedup,
        "embedding_neardup": _q_embedding_neardup,
        "tfidf_keywords": ranking.run_tfidf_keywords,
        "kmeans_cluster": clustering.run_kmeans_cluster,
        "term_postings": ranking.run_term_postings,
        "bm25_topk": ranking.run_bm25,
        "value_buckets": relational.run_value_buckets,
        "events_zscore": relational.run_events_zscore,
        "embedding_pca": clustering.run_embedding_pca,
        "embedding_cov": clustering.run_embedding_cov,
        "pagerank": _q_pagerank,
        "graph_pagerank": graph.run_graph_pagerank,
        "quantize_embeddings": clustering.run_quantize_embeddings,
        "bpe_pair_counts": textops.run_bpe_pair_counts,
        "char_entropy": textops.run_char_entropy,
        "ann_ivf": similarity.run_ann_ivf,
        "ngram_counts": textops.run_ngram_counts,
        "gopher_filter": cleaning.run_gopher_filter,
        "bpe_train": bpe.run_bpe_train,
        "knn_graph": similarity.run_knn_graph,
        "bpe_encode": bpe.run_bpe_encode,
        "pmi_collocations": textops.run_pmi_collocations,
        "blocklist_filter": cleaning.run_blocklist_filter,
        "ann_pq": similarity.run_ann_pq,
        "ccnet_buckets": ccnet.run_ccnet_buckets,
        "graph_hits": graph.run_graph_hits,
        "embedding_project": clustering.run_embedding_project,
        "source_stats": textops.run_source_stats,
        "readability": textops.run_readability,
        "phrase_search": textops.run_phrase_search,
        "contamination_overlap": textops.run_contamination_overlap,
        "dedup_incremental": _q_dedup_incremental,
        "embedding_neardup_exact": _q_embedding_neardup_exact,
        "doc_fingerprint": textops.run_fingerprint,
        "lm_score": lm.run_lm_score,
        "lr_quality": lr.run_lr_quality,
        "corpus_prep": textops.run_corpus_prep,
        "token_count": textops.run_token_count,
        "quality_score": textops.run_quality,
        "lang_id": textops.run_lang_id,
        "pii_redact": cleaning.run_pii_redact,
        "repetition_quality": cleaning.run_repetition_quality,
        "decontaminate": cleaning.run_decontaminate,
        "top_terms_per_source": cleaning.run_top_terms_per_source,
        "ann_topk": similarity.run_ann_topk,
        "events_window": relational.run_events_window,
        "pricing_summary": relational.run_pricing_summary,
        "asof_join": relational.run_asof_join,
        "events_band_join": relational.run_events_band_join,
        "value_percentiles": relational.run_value_percentiles,
        "distinct_users": relational.run_distinct_users,
        "text_normalize": cleaning.run_text_normalize,
        "lang_dist": _q_lang_dist,
        "events_stats": relational.run_events_stats,
        "top_orders": relational.run_top_orders,
        # -- rows-only: media decode stubs (non-SQL; pytest-oracled
        # seam contracts).  extract_spans/crawl_host_counts moved into
        # the gate window above with their new SQL oracles ------------
        "media_decode": multimodal.run_media_decode,
        "media_frames": multimodal.run_media_frames,
        "media_thumbs": multimodal.run_media_thumbs,
        "media_audio_chunks": multimodal.run_media_audio_chunks,
    }


# --------------------------------------------------------------------------
# adapters: the entries that are more than one run_* call
# --------------------------------------------------------------------------

def _q_extract_spans(sf_dir: str):
    """The flagship extraction as flat span rows."""
    from dude_ray.pipelines.flagship import run_extract

    return _explode_spans(run_extract(sf_dir))


def _crawl(sf_dir: str, tag: str) -> str:
    """Crawl ``sf_dir`` with 4 frontier shards into the entry's own
    output dir under /tmp/dude_ray_crawl; returns that dir."""
    import os

    from dude_ray.crawl import run_crawl

    out = os.path.join("/tmp/dude_ray_crawl", tag + os.path.basename(sf_dir))
    run_crawl(sf_dir, out_dir=out, num_shards=4)
    return out


def _q_crawl_visits(sf_dir: str):
    from dude_ray.crawl import read_crawl_output

    return read_crawl_output(_crawl(sf_dir, "q_"),
                             columns=["doc_id", "host", "depth", "round",
                                      "order_in_round", "status", "n_links"])


def _q_crawl_skip_counts(sf_dir: str):
    """Frontier gate accounting (SURVEY A3/§2.7): offers by outcome —
    released plus each skip reason — summed over the shard counters.
    Equals the sequential replay's Counter (pytest contract
    tests/test_crawl.py::test_skip_counters_match_oracle); the SQL
    oracle inlines the replay's per-event reasons and re-aggregates."""
    import ray

    from dude_ray.crawl import crawl_metrics

    m = crawl_metrics(_crawl(sf_dir, "qs_"))
    keys = ("duplicate", "not_allowed_domain", "released",
            "robots_disallowed")
    totals = {k: sum(int(s.get(k, 0)) for s in m["shards"]) for k in keys}
    present = [k for k in keys if totals[k] > 0]  # oracle omits zeros
    return ray.data.from_arrow(pa.table({
        "reason": pa.array(present, type=pa.string()),
        "n": pa.array([totals[k] for k in present], type=pa.int64()),
    }))


def _q_crawl_host_counts(sf_dir: str):
    """Politeness accounting (SURVEY A3): visited pages per host."""
    from dude_ray.crawl import read_crawl_output
    from dude_ray.pipelines.relational import _group_agg, tree_combine

    ds = read_crawl_output(_crawl(sf_dir, "qh_"), columns=["host", "n_links"])

    def host_partials(batch: pa.Table) -> pa.Table:
        return _group_agg(batch, ["host"], {"n_pages": ("host", "count"),
                                            "n_links": ("n_links", "sum")})

    partials = ds.map_batches(host_partials, batch_format="pyarrow")
    return tree_combine(partials, ["host"], sums=("n_pages", "n_links"))


def _q_pagerank(sf_dir: str):
    """Iterative power method over the EXTRACTED link graph,
    hash-matched (r4): the synthetic corpus's link topology is a pure
    function of the documents row count, so graph.pagerank_oracle_sql
    inlines the generator-determined edge list and recomputes the
    power iteration independently in DuckDB (unrolled CTEs, 10-dp
    rounding contract).  The numpy 1e-12 reference test is kept in
    tests/test_graph.py."""
    from dude_ray.pipelines.graph import run_pagerank

    return run_pagerank(sf_dir).map_batches(
        lambda t: pa.table({"node": t["node"],
                            "rank": pc.round(t["rank"], ndigits=10)}),
        batch_format="pyarrow")


def _q_dedup_incremental(sf_dir: str):
    from dude_ray.pipelines import dedup

    return dedup.run_dedup_incremental(sf_dir).select_columns(
        ["doc_id", "h"])


def _q_embedding_neardup(sf_dir: str):
    """Near-dup pairs at a threshold calibrated to the synthetic
    embeddings (random vectors — no true near-identical pairs exist, so
    the query surfaces the top similarity tail; coarse 4-bit buckets
    give workable recall there)."""
    from dude_ray.pipelines import dedup

    return dedup.run_embedding_neardup(sf_dir, threshold=0.35, n_bits=4)


def _q_semdedup(sf_dir: str):
    """SemDeDup at the same 0.35 threshold the neardup entries use
    (random synthetic embeddings — no near-identical pairs exist, so
    this threshold exercises real pruning)."""
    from dude_ray.pipelines.clustering import run_semdedup

    return run_semdedup(sf_dir, threshold=0.35)


def _q_embedding_neardup_exact(sf_dir: str):
    """Recall-1 blocked all-pairs cosine join (SQL-checkable — the LSH
    variant above is approximate, so only this one can hash-match a
    DuckDB cross join)."""
    from dude_ray.pipelines import dedup

    return dedup.run_embedding_neardup_exact(sf_dir, threshold=0.35)


def _q_lang_dist(sf_dir: str):
    """Documents per language: per-batch Arrow counts, then the
    Arrow-native tree merge (see relational.tree_combine for why not
    Ray's sort-based aggregate)."""
    from dude_ray.io import read_parquet_clean
    from dude_ray.pipelines.relational import _group_agg, tree_combine

    ds = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["lang"])

    def lang_partials(batch: pa.Table) -> pa.Table:
        return _group_agg(batch, ["lang"], {"n_docs": ("lang", "count")})

    partials = ds.map_batches(lang_partials, batch_format="pyarrow",
                              batch_size=8192)
    return tree_combine(partials, ["lang"], sums=("n_docs",))


# --------------------------------------------------------------------------
# oracle SQL (DuckDB over the pre-registered parquet views)
# --------------------------------------------------------------------------

_TOKEN_RE = "[A-Za-z0-9_]+"
_STOP_RE = r"\b(?:the|and|of|a|to|in|is|it|that)\b"
_PUNCT_RE = r"[.,;:!?'\"()\[\]{}<>-]".replace("'", "''")  # SQL-quoted form


_DUP_COMPONENTS_SQL = """
    WITH RECURSIVE pairs AS (
SELECT a.vec_id AS a, b.vec_id AS b
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE round(list_cosine_similarity(
          CAST(a.embedding AS DOUBLE[]),
          CAST(b.embedding AS DOUBLE[])), 4) >= 0.35
    ), edges AS (
SELECT a AS u, b AS v FROM pairs
UNION ALL
SELECT b AS u, a AS v FROM pairs
    ), reach AS (
SELECT u, u AS lbl FROM (SELECT DISTINCT u FROM edges)
UNION
SELECT e.u, r.lbl FROM edges e JOIN reach r ON r.u = e.v
    )
    SELECT u AS vec_id, CAST(min(lbl) AS BIGINT) AS component
    FROM reach GROUP BY u
"""


def oracle_sql() -> dict[str, str]:
    from dude_ray import oracle
    from dude_ray.pipelines import (bpe, ccnet, cleaning, clustering,
                                    components, dedup, dsir, flagship, graph,
                                    lm, lr, ranking, relational, sampling,
                                    similarity, sketches, textops)
    from dude_ray.stages import multimodal

    return {
        "simhash_dedup": dedup.simhash_oracle_sql(),
        "minhash_dedup": dedup.minhash_oracle_sql(threshold=0.8),
        "ngram_jaccard": dedup.minhash_oracle_sql(threshold=None),
        "ngram_containment": dedup.ngram_containment_oracle_sql(),
        "dedup_threshold_sweep": dedup.dedup_threshold_sweep_oracle_sql(),
        "shingle_novelty": dedup.shingle_novelty_oracle_sql(),
        "dup_source_matrix": dedup.dup_source_matrix_oracle_sql(),
        "embedding_cov": clustering.EMBEDDING_COV_ORACLE_SQL,
        "label_centroids": clustering.LABEL_CENTROIDS_ORACLE_SQL,
        "graph_pagerank": graph.graph_pagerank_oracle_sql(),
        "graph_hits": graph.graph_hits_oracle_sql(),
        "graph_degree_dist": graph.graph_degree_dist_oracle_sql(),
        "cocitation": graph.cocitation_oracle_sql(),
        "adamic_adar": graph.adamic_adar_oracle_sql(),
        "coupling": graph.coupling_oracle_sql(),
        # recursive-CTE reachability closure / bounded BFS over the
        # inlined generator-determined edge list (components.py)
        "link_components": components.link_components_oracle_sql(),
        "link_depth": components.link_depth_oracle_sql(),
        "host_graph": components.host_graph_oracle_sql(),
        "link_reciprocity": components.link_reciprocity_oracle_sql(),
        "component_sizes": components.component_sizes_oracle_sql(),
        "k_core": components.k_core_oracle_sql(),
        "degree_assortativity": components.degree_assortativity_oracle_sql(),
        "host_depth_profile": components.host_depth_profile_oracle_sql(),
        "seed_coverage": components.seed_coverage_oracle_sql(),
        "dau_wau": relational.dau_wau_oracle_sql(),
        "order_backlog": relational.order_backlog_oracle_sql(),
        "link_triangles": components.link_triangles_oracle_sql(),
        "host_rank": components.host_rank_oracle_sql(),
        "bowtie_census": components.bowtie_census_oracle_sql(),
        "host_modularity": components.host_modularity_oracle_sql(),
        "seed_walks": components.seed_walks_oracle_sql(),
        "walk_visit_rank": components.walk_visit_rank_oracle_sql(),
        "crawl_budget": components.crawl_budget_oracle_sql(),
        "type_day_mi": relational.type_day_mi_oracle_sql(),
        "stationary_types": relational.stationary_types_oracle_sql(),
        "kanon_risk": relational.kanon_risk_oracle_sql(),
        "markov_entropy_rate": relational.markov_entropy_rate_oracle_sql(),
        "funnel_latency": relational.funnel_latency_oracle_sql(),
        "basket_pairs": relational.basket_pairs_oracle_sql(),
        "zipf_fit": textops.zipf_fit_oracle_sql(),
        "burrows_delta": textops.burrows_delta_oracle_sql(),
        "keyness_llr": textops.keyness_llr_oracle_sql(),
        # upgraded round 5 from rows-only: the generator-determined
        # (target, anchor) list is inlined, aggregation recomputed in SQL
        "anchor_texts": graph.anchor_texts_oracle_sql(),
        # upgraded round 5 from rows-only: the sequential-replay visit
        # list is inlined, per-host aggregation recomputed in SQL
        "crawl_host_counts": oracle.crawl_host_counts_oracle_sql(),
        # replay skip/release accounting, re-aggregated in SQL
        "crawl_skip_counts": oracle.crawl_skip_counts_oracle_sql(),
        # media payload-size contract enforced against the real bytes
        "media_size_stats": multimodal.media_size_stats_oracle_sql(),
        # upgraded round 5 from rows-only: rng-determined span skeleton
        # inlined; text-derived spans rebuilt in SQL from documents.text
        "extract_spans": flagship.extract_spans_oracle_sql(),
        "pagerank": graph.pagerank_oracle_sql(),
        "doc_fingerprint": textops.fingerprint_oracle_sql(),
        "ngram_counts": textops.ngram_counts_oracle_sql(),
        "gopher_filter": cleaning.gopher_filter_oracle_sql(),
        "bpe_train": bpe.bpe_train_oracle_sql(),
        "knn_graph": similarity.knn_graph_oracle_sql(),
        "knn_accuracy": similarity.knn_accuracy_oracle_sql(),
        "bpe_encode": bpe.bpe_encode_oracle_sql(),
        "pmi_collocations": textops.pmi_collocations_oracle_sql(),
        "blocklist_filter": cleaning.blocklist_filter_oracle_sql(),
        "source_stats": textops.source_stats_oracle_sql(),
        "readability": textops.readability_oracle_sql(),
        "phrase_search": textops.phrase_search_oracle_sql(),
        "contamination_overlap": textops.contamination_overlap_oracle_sql(),
        "dataset_split": sampling.dataset_split_oracle_sql(),
        "dup_rate_by_source": dedup.dup_rate_by_source_oracle_sql(),
        "editdist_neardup": dedup.editdist_neardup_oracle_sql(),
        "shipping_priority": relational.shipping_priority_oracle_sql(),
        "knn_triangles": graph.knn_triangles_oracle_sql(),
        "events_lag_diff": relational.events_lag_diff_oracle_sql(),
        "events_rolling": relational.events_rolling_oracle_sql(),
        "revenue_by_nation": relational.revenue_by_nation_oracle_sql(),
        "qty_rollup": relational.qty_rollup_oracle_sql(),
        "cheapest_part": relational.cheapest_part_oracle_sql(),
        "small_qty_revenue": relational.small_qty_revenue_oracle_sql(),
        "large_orders": relational.large_orders_oracle_sql(),
        "qty_cube": relational.qty_cube_oracle_sql(),
        "event_trigrams": relational.event_trigrams_oracle_sql(),
        "winsorize": relational.winsorize_oracle_sql(),
        "pareto_front": relational.pareto_front_oracle_sql(),
        "rrf_fusion": relational.rrf_fusion_oracle_sql(),
        "asof_attribution": relational.asof_attribution_oracle_sql(),
        "median_by_type": relational.median_by_type_oracle_sql(),
        "top_orders_per_cust": relational.top_orders_per_cust_oracle_sql(),
        "user_type_profile": relational.user_type_profile_oracle_sql(),
        "custdist": relational.custdist_oracle_sql(),
        "returned_items": relational.returned_items_oracle_sql(),
        "top_supplier": relational.top_supplier_oracle_sql(),
        "disjunctive_revenue": relational.disjunctive_revenue_oracle_sql(),
        "promo_revenue": relational.promo_revenue_oracle_sql(),
        "volume_shipping": relational.volume_shipping_oracle_sql(),
        "audience_overlap": relational.audience_overlap_oracle_sql(),
        "spend_deciles": relational.spend_deciles_oracle_sql(),
        "market_share": relational.market_share_oracle_sql(),
        "type_lift": relational.type_lift_oracle_sql(),
        "rfm_segments": relational.rfm_segments_oracle_sql(),
        "monthly_growth": relational.monthly_growth_oracle_sql(),
        "vocab_coverage": textops.vocab_coverage_oracle_sql(),
        "ann_recall": similarity.ann_recall_oracle_sql(),
        "dedup_recall": dedup.dedup_recall_oracle_sql(),
        "coverage_curve": textops.coverage_curve_oracle_sql(),
        "user_burstiness": relational.user_burstiness_oracle_sql(),
        "revenue_gini": relational.revenue_gini_oracle_sql(),
        "interarrival_stats": relational.interarrival_stats_oracle_sql(),
        "weekday_index": relational.weekday_index_oracle_sql(),
        "forecast_revenue": relational.forecast_revenue_oracle_sql(),
        "props_field_stats": relational.props_field_stats_oracle_sql(),
        "value_props_corr": relational.value_props_corr_oracle_sql(),
        "anomaly_mad": relational.anomaly_mad_oracle_sql(),
        "waiting_suppliers": relational.waiting_suppliers_oracle_sql(),
        "source_similarity": textops.source_similarity_oracle_sql(),
        "user_entropy": relational.user_entropy_oracle_sql(),
        "skipgram_counts": textops.skipgram_counts_oracle_sql(),
        "session_stats": relational.session_stats_oracle_sql(),
        "value_autocorr": relational.value_autocorr_oracle_sql(),
        "lang_confusion": textops.lang_confusion_oracle_sql(),
        "session_type_pairs": relational.session_type_pairs_oracle_sql(),
        "hour_profile": relational.hour_profile_oracle_sql(),
        "doclen_percentiles": relational.doclen_percentiles_oracle_sql(),
        "hash_features": textops.hash_features_oracle_sql(),
        "priority_semijoin": relational.priority_semijoin_oracle_sql(),
        "lapsed_customers": relational.lapsed_customers_oracle_sql(),
        "user_top_event": relational.user_top_event_oracle_sql(),
        "event_pivot": relational.event_pivot_oracle_sql(),
        "event_transitions": relational.event_transitions_oracle_sql(),
        "kmeans_cluster": clustering.kmeans_cluster_oracle_sql(),
        "semdedup": clustering.semdedup_oracle_sql(threshold=0.35),
        "kmeans_silhouette": clustering.kmeans_silhouette_oracle_sql(),
        "dsir_weights": dsir.dsir_weights_oracle_sql(),
        "dsir_select": dsir.dsir_select_oracle_sql(),
        "embedding_neardup": dedup.embedding_neardup_oracle_sql(threshold=0.35,
                                                          n_bits=4),
        "ann_lsh": similarity.ann_lsh_oracle_sql(),
        "ann_ivf": similarity.ann_ivf_oracle_sql(),
        "ann_pq": similarity.ann_pq_oracle_sql(),
        "ccnet_buckets": ccnet.ccnet_oracle_sql(),
        "hll_registers": sketches.hll_registers_oracle_sql(),
        "hll_intersect": sketches.hll_intersect_oracle_sql(),
        "kmv_registers": sketches.kmv_registers_oracle_sql(),
        "distinct_users_kmv": sketches.distinct_users_kmv_oracle_sql(),
        "cms_registers": sketches.cms_registers_oracle_sql(),
        "distinct_users_approx": sketches.distinct_users_approx_oracle_sql(),
        "embedding_project": clustering.embedding_project_oracle_sql(),
        "bloom_registers": sketches.bloom_registers_oracle_sql(),
        "embedding_pca": clustering.pca_oracle_sql(),
        "substring_dup": dedup.substring_dup_oracle_sql(),
        "lm_score": lm.LM_SCORE_ORACLE_SQL,
        "lr_quality": lr.lr_quality_oracle_sql(),
        "training_mix": lr.training_mix_oracle_sql(),
        "term_postings": ranking.TERM_POSTINGS_ORACLE_SQL,
        "tfidf_keywords": ranking.tfidf_keywords_oracle_sql(),
        "text_chunk": f"""
            WITH tok AS (
                SELECT doc_id,
                       regexp_extract_all(text, '{_TOKEN_RE}') AS toks
                FROM documents
            ), nz AS (
                SELECT doc_id, toks, CAST(len(toks) AS BIGINT) AS n
                FROM tok WHERE len(toks) > 0
            ), st AS (
                SELECT doc_id, toks, n, unnest(range(0, n, 48)) AS s
                FROM nz
            )
            SELECT doc_id,
                   CAST(s // 48 AS BIGINT) AS chunk_id,
                   CAST(s AS BIGINT) AS start_tok,
                   CAST(least(64, n - s) AS BIGINT) AS chunk_tokens,
                   array_to_string(toks[s + 1 : least(s + 64, n)], ' ')
                       AS chunk_text
            FROM st
        """,
        "shard_assign": f"""
            WITH d AS (
                SELECT CAST(CAST('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)
                                 AS UBIGINT) % 64 AS BIGINT) AS shard,
                       doc_id,
                       CAST(len(regexp_extract_all(text, '{_TOKEN_RE}'))
                            AS BIGINT) AS n_tokens
                FROM documents
            )
            SELECT shard, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_tokens) AS BIGINT) AS n_tokens,
                   CAST(min(doc_id) AS BIGINT) AS min_doc_id,
                   CAST(max(doc_id) AS BIGINT) AS max_doc_id
            FROM d GROUP BY shard
        """,
        "chunk_dedup": f"""
            WITH tok AS (
                SELECT doc_id,
                       regexp_extract_all(text, '{_TOKEN_RE}') AS toks
                FROM documents
            ), nz AS (
                SELECT doc_id, toks, CAST(len(toks) AS BIGINT) AS n
                FROM tok WHERE len(toks) > 0
            ), st AS (
                SELECT doc_id, toks, n, unnest(range(0, n, 48)) AS s
                FROM nz
            ), ch AS (
                SELECT doc_id * 4294967296 + (s // 48) AS packed,
                       md5(array_to_string(
                           toks[s + 1 : least(s + 64, n)], ' ')) AS h
                FROM st
            )
            SELECT h,
                   CAST(min(packed) // 4294967296 AS BIGINT)
                       AS keeper_doc_id,
                   CAST(min(packed) % 4294967296 AS BIGINT)
                       AS keeper_chunk_id,
                   CAST(count(*) AS BIGINT) AS dup_count
            FROM ch GROUP BY h
        """,
        "priority_sample": """
            WITH pr AS (
                SELECT doc_id, n_chars,
                       CAST(n_chars AS DOUBLE) /
                       ((CAST('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                                             1, 8) AS UBIGINT) % 1048576
                         + 1) / 1048576.0) AS priority
                FROM documents
            )
            SELECT doc_id, CAST(n_chars AS BIGINT) AS weight,
                   CAST(row_number() OVER (
                       ORDER BY priority DESC, doc_id ASC) AS BIGINT)
                       AS rank
            FROM pr ORDER BY priority DESC, doc_id ASC LIMIT 100
        """,
        "bpe_pair_counts": """
            WITH w AS (
                SELECT lower(unnest(regexp_extract_all(
                           text, '[A-Za-z0-9_]+'))) AS word
                FROM documents
            ), e AS (
                SELECT word,
                       unnest(generate_series(1, length(word) - 1)) AS i
                FROM w
            )
            SELECT substr(word, i, 1) AS left_ch,
                   substr(word, i + 1, 1) AS right_ch,
                   CAST(count(*) AS BIGINT) AS n
            FROM e GROUP BY left_ch, right_ch
        """,
        "char_entropy": """
            WITH idx AS (
                SELECT doc_id, text,
                       unnest(generate_series(1, length(text))) AS i
                FROM documents
            ), cc AS (
                SELECT doc_id, substr(text, i, 1) AS ch,
                       CAST(count(*) AS DOUBLE) AS c
                FROM idx GROUP BY doc_id, ch
            ), agg AS (
                SELECT doc_id, sum(c) AS n,
                       CAST(count(*) AS BIGINT) AS n_distinct_chars,
                       sum(c * log2(c)) AS s
                FROM cc GROUP BY doc_id
            )
            SELECT d.doc_id,
                   coalesce(a.n_distinct_chars, 0) AS n_distinct_chars,
                   coalesce(round(log2(a.n) - a.s / a.n, 6), 0.0)
                       AS char_entropy
            FROM documents d LEFT JOIN agg a ON d.doc_id = a.doc_id
        """,
        "retention_cohorts": """
            WITH w AS (
                SELECT user_id, epoch_us(ts) // 604800000000 AS week
                FROM events
            ), c AS (
                SELECT user_id, min(week) AS cohort FROM w GROUP BY user_id
            ), a AS (
                SELECT DISTINCT w.user_id, c.cohort,
                       w.week - c.cohort AS week_offset
                FROM w JOIN c USING (user_id)
            )
            SELECT CAST(cohort * 604800000000 AS BIGINT) AS cohort_week_us,
                   CAST(week_offset AS BIGINT) AS week_offset,
                   CAST(count(*) AS BIGINT) AS n_users
            FROM a GROUP BY cohort, week_offset
        """,
        "quantize_embeddings": """
            WITH rows0 AS (
                SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e
                FROM embeddings
            ), x AS (
                SELECT vec_id, unnest(e) AS v,
                       unnest(generate_series(1, len(e))) AS dim
                FROM rows0
            ), r AS (
                SELECT dim, min(v) AS mn, max(v) AS mx
                FROM x GROUP BY dim
            )
            SELECT x.vec_id, x.dim,
                   CAST(CASE WHEN r.mx = r.mn THEN 0
                        ELSE floor((x.v - r.mn) * (255.0 / (r.mx - r.mn))
                                   + 0.5) END AS BIGINT) AS code
            FROM x JOIN r USING (dim)
        """,
        "event_funnel": """
            WITH f AS (
                SELECT user_id, min(epoch_us(ts)) AS first_view_us
                FROM events WHERE event_type = 'view' GROUP BY user_id
            ), p AS (
                SELECT e.user_id, min(epoch_us(e.ts)) AS first_purchase_us
                FROM events e JOIN f ON e.user_id = f.user_id
                WHERE e.event_type = 'purchase'
                  AND epoch_us(e.ts) >= f.first_view_us
                GROUP BY e.user_id
            )
            SELECT f.user_id, f.first_view_us, p.first_purchase_us,
                   p.first_purchase_us - f.first_view_us AS delay_us
            FROM f JOIN p ON f.user_id = p.user_id
        """,
        "token_count": f"""
            SELECT doc_id,
                   CAST(length(regexp_extract_all(text, '{_TOKEN_RE}')) AS BIGINT) AS n_tokens,
                   CAST(length(text) AS BIGINT) AS n_chars,
                   CAST(ceil(length(text) / 4.0) AS BIGINT) AS bpe_tokens_est
            FROM documents
        """,
        "quality_score": f"""
            SELECT doc_id,
                   CAST(length(text) AS BIGINT) AS n_chars,
                   CAST(length(regexp_extract_all(text, '{_TOKEN_RE}')) AS BIGINT) AS n_words,
                   round(length(regexp_extract_all(text, '{_STOP_RE}'))
                         / greatest(length(regexp_extract_all(text, '{_TOKEN_RE}')), 1), 6) AS stop_ratio,
                   round(length(regexp_extract_all(text, '{_PUNCT_RE}'))
                         / greatest(length(text), 1), 6) AS punct_ratio
            FROM documents
        """,
        "lang_id": textops.LANG_ID_ORACLE_SQL,
        "lang_dist": """
            SELECT lang, count(*) AS n_docs FROM documents GROUP BY lang
        """,
        "corpus_prep": f"""
            WITH m AS (
                SELECT md5(text) AS h,
                       CAST(len(regexp_extract_all(text, '{_TOKEN_RE}')) AS BIGINT) AS n_tokens,
                       round(len(regexp_extract_all(text, '{_STOP_RE}'))
                             / greatest(len(regexp_extract_all(text, '{_TOKEN_RE}')), 1), 6) AS stop_ratio,
                       len(regexp_extract_all(text, '\\b(?:der|die|und|ist|nicht|ein)\\b')) AS de,
                       len(regexp_extract_all(text, '\\b(?:the|and|of|is|with|for)\\b')) AS en,
                       len(regexp_extract_all(text, '\\b(?:el|la|y|es|los|una)\\b')) AS es,
                       len(regexp_extract_all(text, '\\b(?:le|la|et|est|les|des)\\b')) AS fr
                FROM documents
            ), f AS (
                SELECT h, n_tokens,
                       CASE WHEN greatest(de, en, es, fr) = 0 THEN 'und'
                            WHEN de >= en AND de >= es AND de >= fr THEN 'de'
                            WHEN en >= es AND en >= fr THEN 'en'
                            WHEN es >= fr THEN 'es'
                            ELSE 'fr' END AS pred_lang
                FROM m WHERE n_tokens >= 30 AND stop_ratio >= 0.05
            ), d AS (
                SELECT DISTINCT h, pred_lang, n_tokens FROM f
            )
            SELECT pred_lang, count(*) AS kept_docs,
                   CAST(sum(n_tokens) AS BIGINT) AS total_tokens
            FROM d GROUP BY pred_lang
        """,
        "pii_redact": r"""
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text,
                       '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS BIGINT) AS n_email,
                   CAST(len(regexp_extract_all(
                       regexp_replace(text,
                           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g'),
                       '\b\d{3}[-.]\d{3}[-.]\d{4}\b')) AS BIGINT) AS n_phone,
                   CAST(len(regexp_extract_all(
                       regexp_replace(regexp_replace(text,
                           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g'),
                           '\b\d{3}[-.]\d{3}[-.]\d{4}\b', '<PHONE>', 'g'),
                       '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b')) AS BIGINT) AS n_ipv4,
                   regexp_replace(regexp_replace(regexp_replace(text,
                       '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g'),
                       '\b\d{3}[-.]\d{3}[-.]\d{4}\b', '<PHONE>', 'g'),
                       '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b', '<IP>', 'g') AS clean_text
            FROM documents
        """,
        "text_normalize": r"""
            SELECT doc_id,
                   trim(regexp_replace(lower(nfc_normalize(text)),
                                       '\s+', ' ', 'g')) AS norm_text,
                   CAST(length(trim(regexp_replace(lower(nfc_normalize(text)),
                                                   '\s+', ' ', 'g'))) AS BIGINT)
                       AS n_chars_norm
            FROM documents
        """,
        "repetition_quality": f"""
            WITH words AS (
                SELECT doc_id, unnest(regexp_extract_all(text, '{_TOKEN_RE}')) AS w
                FROM documents
            ), c AS (
                SELECT doc_id, w, count(*) AS n FROM words GROUP BY doc_id, w
            )
            SELECT d.doc_id,
                   CAST(coalesce(sum(c.n), 0) AS BIGINT) AS n_words,
                   CAST(coalesce(count(c.w), 0) AS BIGINT) AS n_distinct,
                   round(coalesce(1.0 - count(c.w) / sum(c.n), 0.0), 6) AS dup_word_frac,
                   round(coalesce(max(c.n) * 1.0 / sum(c.n), 0.0), 6) AS top_word_frac
            FROM documents d LEFT JOIN c ON d.doc_id = c.doc_id
            GROUP BY d.doc_id
        """,
        "decontaminate": """
            SELECT d.doc_id,
                   CAST(EXISTS (
                       SELECT 1 FROM documents c
                       WHERE c.doc_id % 97 = 0
                         AND length(c.text) > 0
                         AND contains(d.text, substr(c.text, 1, 40))
                   ) AS INT) AS contaminated
            FROM documents d
        """,
        "top_terms_per_source": f"""
            WITH words AS (
                SELECT source, unnest(regexp_extract_all(text, '{_TOKEN_RE}')) AS term
                FROM documents
            ), c AS (
                SELECT source, term, CAST(count(*) AS BIGINT) AS n
                FROM words GROUP BY source, term
            )
            SELECT source, term, n,
                   CAST(row_number() OVER (
                       PARTITION BY source
                       ORDER BY n DESC, term ASC) AS BIGINT) AS rank
            FROM c QUALIFY rank <= 5
        """,
        "sample_stratified": """
            SELECT doc_id, lang, source FROM documents
            WHERE CAST(CAST('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)
                            AS UBIGINT) % 1048576 AS DOUBLE) / 1048576.0
                  < CASE lang WHEN 'en' THEN 0.5
                              WHEN 'de' THEN 0.25
                              WHEN 'fr' THEN 0.25
                              WHEN 'es' THEN 0.25
                              ELSE 0.125 END
        """,
        "top_terms_sketch": f"""
            WITH words AS (
                SELECT unnest(regexp_extract_all(text, '{_TOKEN_RE}')) AS term
                FROM documents
            ), c AS (
                SELECT term, CAST(count(*) AS BIGINT) AS n
                FROM words GROUP BY term
            )
            SELECT term, n FROM c ORDER BY n DESC, term ASC LIMIT 20
        """,
        "dedup_incremental": """
            WITH c AS (
                SELECT CAST(floor(count(*) / 2) AS BIGINT) AS cut
                FROM documents
            ), prior AS (
                SELECT DISTINCT md5(text) AS h FROM documents, c
                WHERE doc_id < cut
            ), cur AS (
                SELECT doc_id, md5(text) AS h FROM documents, c
                WHERE doc_id >= cut
            )
            SELECT doc_id, h FROM cur
            WHERE h NOT IN (SELECT h FROM prior)
        """,
        "sample_per_group": """
            WITH r AS (
                SELECT lang, doc_id,
                       CAST('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)
                            AS UBIGINT) AS h
                FROM documents
            )
            SELECT lang, doc_id,
                   CAST(row_number() OVER (
                       PARTITION BY lang ORDER BY h, doc_id) AS BIGINT) AS rank
            FROM r QUALIFY rank <= 20
        """,
        "token_pack": f"""
            WITH t AS (
                SELECT doc_id,
                       CAST(len(regexp_extract_all(text, '{_TOKEN_RE}')) AS BIGINT)
                           AS n_tokens
                FROM documents
            )
            SELECT doc_id, n_tokens,
                   CAST(coalesce(sum(n_tokens) OVER (
                       ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
                       AS BIGINT) AS start_offset,
                   CAST(coalesce(sum(n_tokens) OVER (
                       ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
                       // 1024 AS BIGINT) AS pack_id
            FROM t
        """,
        "embedding_neardup_exact": """
            -- CAST inputs (not the result) to DOUBLE[] so DuckDB's
            -- cosine runs in float64 like the numpy side; float32
            -- accumulation drifts ~1e-7, enough to flip a round-4
            -- boundary (observed on kmeans_assign during round 3)
            SELECT a.vec_id AS a, b.vec_id AS b,
                   round(list_cosine_similarity(
                       CAST(a.embedding AS DOUBLE[]),
                       CAST(b.embedding AS DOUBLE[])), 4) AS cosine
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE round(list_cosine_similarity(
                      CAST(a.embedding AS DOUBLE[]),
                      CAST(b.embedding AS DOUBLE[])), 4) >= 0.35
        """,
        "events_hopping_window": """
            SELECT event_type,
                   ws * 1000000 AS window_start_us,
                   count(*) AS n_events,
                   round(sum(value), 4) AS sum_value
            FROM (
                SELECT event_type, value,
                       unnest([CAST(floor(epoch(ts) / 300) * 300
                                    AS BIGINT),
                               CAST(floor(epoch(ts) / 300) * 300 - 300
                                    AS BIGINT)]) AS ws
                FROM events
            )
            GROUP BY 1, 2
        """,
        "value_percent_rank": """
            SELECT event_id, value,
                   round(percent_rank() OVER (ORDER BY value), 6) AS pr
            FROM events
        """,
        "events_zscore": """
            WITH stats AS (
                SELECT event_type, count(*) AS n,
                       sum(value) AS s1, sum(value * value) AS s2
                FROM events GROUP BY event_type
            )
            SELECT e.event_id, e.event_type,
                   round((e.value - s.s1 / s.n)
                         / greatest(sqrt(s.s2 / s.n
                                         - pow(s.s1 / s.n, 2)), 1e-12),
                         4) AS z
            FROM events e JOIN stats s USING (event_type)
        """,
        "curate_keep_best": f"""
            WITH RECURSIVE pairs AS (
                SELECT a.vec_id AS a, b.vec_id AS b
                FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
                WHERE round(list_cosine_similarity(
                          CAST(a.embedding AS DOUBLE[]),
                          CAST(b.embedding AS DOUBLE[])), 4) >= 0.35
            ), edges AS (
                SELECT a AS u, b AS v FROM pairs
                UNION ALL
                SELECT b AS u, a AS v FROM pairs
            ), reach AS (
                SELECT u, u AS lbl FROM (SELECT DISTINCT u FROM edges)
                UNION
                SELECT e.u, r.lbl FROM edges e JOIN reach r ON r.u = e.v
            ), comp AS (
                SELECT u AS vec_id, min(lbl) AS component
                FROM reach GROUP BY u
            ), quality AS (
                SELECT doc_id,
                       round(length(regexp_extract_all(text, '{_STOP_RE}'))
                             / greatest(length(regexp_extract_all(text,
                                 '{_TOKEN_RE}')), 1), 6) AS stop_ratio
                FROM documents
            )
            SELECT CAST(coalesce(c.component, q.doc_id) AS BIGINT)
                       AS component,
                   q.doc_id, q.stop_ratio
            FROM quality q LEFT JOIN comp c ON c.vec_id = q.doc_id
            QUALIFY row_number() OVER (
                PARTITION BY coalesce(c.component, q.doc_id)
                ORDER BY q.stop_ratio DESC, q.doc_id) = 1
        """,
        "value_buckets": """
            WITH ranked AS (
                SELECT value, row_number() OVER (ORDER BY value) AS rn,
                       count(*) OVER () AS n
                FROM events
            ), bnds AS (
                SELECT g.i AS i, min(value) AS b
                FROM ranked, generate_series(1, 9) g(i)
                WHERE rn = CAST(ceil(g.i * n / 10.0) AS BIGINT)
                GROUP BY g.i
            )
            SELECT (SELECT count(*) FROM bnds WHERE b <= e.value)
                       AS bucket,
                   count(*) AS n_rows,
                   min(value) AS min_value,
                   max(value) AS max_value
            FROM events e
            GROUP BY 1
        """,
        "dup_clusters": _DUP_COMPONENTS_SQL,
        "dup_cluster_sizes": f"""
            WITH comp AS ({_DUP_COMPONENTS_SQL}),
            cs AS (
                SELECT component, count(*) AS sz FROM comp
                GROUP BY component
            )
            SELECT CAST(sz AS BIGINT) AS cluster_size,
                   CAST(count(*) AS BIGINT) AS n_clusters,
                   CAST(sz * count(*) AS BIGINT) AS n_docs
            FROM cs GROUP BY sz ORDER BY sz
        """,
        "mix_interleave": """
            WITH w AS (
                SELECT doc_id, source,
                       6 // ((CAST(substr(source, 4) AS INT) % 3) + 1)
                           AS stride,
                       CAST(row_number() OVER (
                           PARTITION BY source ORDER BY doc_id) - 1
                           AS BIGINT) AS rk
                FROM documents
            )
            SELECT doc_id, source, rk,
                   rk * stride AS key,
                   CAST(row_number() OVER (
                       ORDER BY rk * stride, source) - 1 AS BIGINT)
                       AS mix_pos
            FROM w
        """,
        "bm25_topk": """
            WITH toks AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '[a-z0-9_]+') AS toks,
                       CAST(len(regexp_extract_all(text, '[A-Za-z0-9_]+'))
                            AS BIGINT) AS dl
                FROM documents
            ), stats AS (
                SELECT count(*) AS n,
                       sum(dl) * 1.0 / count(*) AS avgdl
                FROM toks
            ), tf AS (
                SELECT doc_id, dl, t.term,
                       CAST(len(list_filter(toks, x -> x = t.term))
                            AS BIGINT) AS tf
                FROM toks CROSS JOIN (VALUES ('spark'), ('window'),
                                             ('merge'), ('vector')) t(term)
                WHERE len(list_filter(toks, x -> x = t.term)) > 0
            ), df AS (
                SELECT term, count(*) AS df FROM tf GROUP BY term
            ), scored AS (
                SELECT tf.doc_id,
                       sum(ln(1.0 + (s.n - df.df + 0.5) / (df.df + 0.5))
                           * tf.tf * 2.2
                           / (tf.tf + 1.2 * (1.0 - 0.75
                                             + 0.75 * tf.dl / s.avgdl)))
                           AS score
                FROM tf JOIN df USING (term) CROSS JOIN stats s
                GROUP BY tf.doc_id
            )
            SELECT doc_id, round(score, 6) AS score,
                   CAST(row_number() OVER (
                       ORDER BY round(score, 6) DESC, doc_id) AS BIGINT)
                       AS rank
            FROM scored
            ORDER BY rank
            LIMIT 20
        """,
        "kmeans_assign": """
            WITH cent AS (
                SELECT vec_id AS cid, CAST(embedding AS DOUBLE[]) AS cemb
                FROM embeddings ORDER BY vec_id LIMIT 8
            ), scored AS (
                SELECT e.vec_id, c.cid,
                       round(list_cosine_similarity(
                           CAST(e.embedding AS DOUBLE[]), c.cemb), 4) AS sim
                FROM embeddings e CROSS JOIN cent c
            )
            SELECT vec_id, cid AS cluster_id, sim
            FROM scored
            QUALIFY row_number() OVER (
                PARTITION BY vec_id ORDER BY sim DESC, cid) = 1
        """,
        "ngram_jaccard_pairs": """
            WITH grams AS (
                SELECT doc_id,
                       list_distinct([lower(w[i]) || ' ' || lower(w[i+1]) || ' ' || lower(w[i+2])
                                      for i in generate_series(1, greatest(len(w) - 2, 0))]) AS g
                FROM (SELECT doc_id, string_split(text, ' ') AS w FROM documents)
            )
            SELECT a.doc_id AS a, b.doc_id AS b,
                   round(CAST(len(list_intersect(a.g, b.g)) AS DOUBLE)
                         / greatest(len(list_distinct(a.g || b.g)), 1), 6) AS jaccard
            FROM grams a JOIN grams b ON b.doc_id = a.doc_id + 1
            WHERE a.doc_id < 100
        """,
        "jaccard_join": """
            WITH grams AS (
                SELECT doc_id,
                       list_distinct([lower(w[i]) || ' ' || lower(w[i+1]) || ' ' || lower(w[i+2])
                                      for i in generate_series(1, greatest(len(w) - 2, 0))]) AS g
                FROM (SELECT doc_id, string_split(text, ' ') AS w FROM documents)
            )
            SELECT a.doc_id AS a, b.doc_id AS b,
                   round(CAST(len(list_intersect(a.g, b.g)) AS DOUBLE)
                         / greatest(len(list_distinct(a.g || b.g)), 1), 6) AS jaccard
            FROM grams a JOIN grams b ON a.doc_id < b.doc_id
            WHERE round(CAST(len(list_intersect(a.g, b.g)) AS DOUBLE)
                        / greatest(len(list_distinct(a.g || b.g)), 1), 6) >= 0.8
        """,
        "exact_dedup": """
            SELECT md5(text) AS h, min(doc_id) AS keeper_id,
                   count(*) AS dup_count
            FROM documents GROUP BY md5(text)
        """,
        "events_window": """
            SELECT event_type,
                   CAST(floor(epoch(ts) / 300) * 300 AS BIGINT) * 1000000 AS window_start_us,
                   count(*) AS n_events,
                   round(sum(value), 4) AS sum_value
            FROM events GROUP BY 1, 2
        """,
        "events_stats": """
            SELECT event_type, count(*) AS n_events,
                   round(sum(value), 4) AS sum_value,
                   round(min(value), 6) AS min_value,
                   round(max(value), 6) AS max_value
            FROM events GROUP BY event_type
        """,
        "segment_revenue": """
            SELECT coalesce(c.c_mktsegment, 'UNKNOWN') AS mktsegment,
                   count(*) AS n_orders,
                   round(sum(o.o_totalprice), 2) AS revenue
            FROM orders o LEFT JOIN customer c ON o.o_custkey = c.c_custkey
            GROUP BY 1
        """,
        "pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   round(sum(l_quantity), 2) AS sum_qty,
                   round(sum(l_extendedprice), 2) AS sum_base_price,
                   round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
                   count(*) AS count_order
            FROM lineitem GROUP BY l_returnflag, l_linestatus
        """,
        "top_orders": """
            SELECT o_orderkey, o_totalprice FROM orders
            ORDER BY o_totalprice DESC, o_orderkey ASC LIMIT 20
        """,
        "user_sessions": """
            WITH marked AS (
                SELECT user_id, event_id, epoch_us(ts) AS ts_us, value,
                       CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER (
                                PARTITION BY user_id
                                ORDER BY ts, event_id) > 1800000000
                            THEN 1 ELSE 0 END AS new_sess
                FROM events
            ), sess AS (
                SELECT user_id, ts_us, value,
                       SUM(new_sess) OVER (
                           PARTITION BY user_id
                           ORDER BY ts_us, event_id
                           ROWS UNBOUNDED PRECEDING) AS sid
                FROM marked
            )
            SELECT user_id,
                   CAST(min(ts_us) AS BIGINT) AS session_start_us,
                   count(*) AS n_events,
                   round(sum(value), 4) AS sum_value
            FROM sess GROUP BY user_id, sid
        """,
        "value_percentiles": """
            WITH ranked AS (
                SELECT event_type, value,
                       row_number() OVER (PARTITION BY event_type
                                          ORDER BY value) AS rn,
                       count(*) OVER (PARTITION BY event_type) AS n
                FROM events
            )
            SELECT event_type,
                   max(CASE WHEN rn = CAST(ceil(0.5 * n) AS BIGINT)
                            THEN value END) AS p50,
                   max(CASE WHEN rn = CAST(ceil(0.9 * n) AS BIGINT)
                            THEN value END) AS p90,
                   max(CASE WHEN rn = CAST(ceil(0.99 * n) AS BIGINT)
                            THEN value END) AS p99
            FROM ranked GROUP BY event_type
        """,
        "distinct_users": """
            SELECT event_type, count(DISTINCT user_id) AS n_users
            FROM events GROUP BY event_type
        """,
        "events_band_join": """
            SELECT a.event_id AS a, b.event_id AS b,
                   a.event_type AS event_type,
                   abs(epoch_us(b.ts) - epoch_us(a.ts)) AS dt_us
            FROM events a JOIN events b
              ON a.event_type = b.event_type
             AND a.event_id < b.event_id
             AND abs(epoch_us(a.ts) - epoch_us(b.ts)) <= 30000000
        """,
        "asof_join": """
            WITH o1 AS (
                SELECT o_custkey, o_orderdate,
                       max(o_orderkey) AS o_orderkey,
                       max_by(o_totalprice, o_orderkey) AS o_totalprice
                FROM orders GROUP BY 1, 2
            )
            SELECT e.event_id, e.user_id AS user_id,
                   epoch_us(e.ts) AS ts_us,
                   o.o_orderkey,
                   round(o.o_totalprice, 2) AS o_totalprice
            FROM events e ASOF LEFT JOIN o1 o
              ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
        """,
        "streaming_window": """
            WITH arr AS (
                SELECT event_type, event_id, epoch_us(ts) AS ts_us, value,
                       max(epoch_us(ts)) OVER (
                           PARTITION BY event_type ORDER BY event_id
                           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                       ) AS wm_us
                FROM events
            )
            SELECT event_type,
                   CAST(floor(ts_us / 300000000) * 300000000 AS BIGINT)
                       AS window_start_us,
                   count(*) AS n_events,
                   round(sum(value), 4) AS sum_value
            FROM arr
            WHERE wm_us IS NULL
               OR wm_us < CAST(floor(ts_us / 300000000) * 300000000 AS BIGINT)
                          + 300000000 + 600000000
            GROUP BY 1, 2
        """,
        "top_orders_per_segment": """
            SELECT mktsegment, o_orderkey, o_totalprice, rank FROM (
                SELECT coalesce(c.c_mktsegment, 'UNKNOWN') AS mktsegment,
                       o.o_orderkey, o.o_totalprice,
                       CAST(row_number() OVER (
                           PARTITION BY coalesce(c.c_mktsegment, 'UNKNOWN')
                           ORDER BY o.o_totalprice DESC, o.o_orderkey ASC)
                           AS BIGINT) AS rank
                FROM orders o LEFT JOIN customer c ON o.o_custkey = c.c_custkey
            ) WHERE rank <= 3
        """,
        "ann_topk": """
            WITH q AS (
                SELECT vec_id AS query_id, embedding AS qe FROM embeddings
                ORDER BY vec_id LIMIT 5
            ), scored AS (
                SELECT q.query_id, e.vec_id,
                       CAST(list_cosine_similarity(q.qe, e.embedding) AS DOUBLE) AS raw_sim
                FROM q JOIN embeddings e ON e.vec_id <> q.query_id
            )
            SELECT query_id, vec_id, round(raw_sim, 4) AS sim,
                   CAST(row_number() OVER (
                       PARTITION BY query_id
                       ORDER BY raw_sim DESC, vec_id ASC) AS BIGINT) AS rank
            FROM scored
            QUALIFY rank <= 10
        """,
    }
