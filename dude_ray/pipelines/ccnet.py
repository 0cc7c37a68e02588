"""CCNet-style per-language perplexity bucketing over ``documents``.

Wenzek et al., "CCNet: Extracting High Quality Monolingual Datasets
from Web Crawl Data" (LREC 2020) splits each language's documents into
``head`` / ``middle`` / ``tail`` terciles by language-model perplexity
— the standard pre-training curation signal (head = cleanest third).
This operator composes two already-oracled primitives — the LangId
marker-word classifier (textops) and the bigram-LM likelihood scorer
(lm.run_lm_score) — and assigns each scored document its tercile
WITHIN its predicted language, by the total order
(lm_score DESC, doc_id ASC), with SQL ``ntile(3)`` bucket-size
semantics (the first n%3 terciles get the extra document).

Scale shape — exact global terciles WITHOUT a global sort:
  1. lang and lm_score streams are merged by one data-scaled hash
     reduce on doc_id (the repo's distributed hash-join shape; inner
     join — docs with <2 tokens carry no score and drop, as in the
     oracle).
  2. Per-language totals come from a tiny per-lang count reduce (the
     language inventory is bounded), giving each tercile's exact size.
  3. Each doc's rank is resolved by DISTRIBUTED SELECTION: round-6
     scores are exact integers at 1e-6 scale (qk), coarsened to
     histogram buckets (ck = qk >> COARSE_SHIFT).  The (lang, ck)
     histogram is bounded by the score RANGE (~1e4 buckets for tens
     of nats), not the corpus size, so the driver can afford it; every
     bucket that does not straddle a tercile boundary labels its docs
     directly from the broadcast cut table, and only the ≤2 straddling
     buckets per language are exact-ranked (one map_groups over that
     sliver, sorted by (qk DESC, doc_id ASC) with the bucket's global
     rank offset).  A fully-tied boundary bucket concentrates in one
     task — ties at 1e-6 score granularity, noted as the pinch case.

The composition is reproduced end-to-end by :data:`CCNET_ORACLE_SQL`
(the lm_score and lang_id oracle CTEs plus one ntile window), so the
gate hash-match covers the join, the selection and the tie-breaks.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from dude_ray.partitioning import group_agg, hash_grouped_reduce

COARSE_SHIFT = 12  # histogram bucket = 4096 qk units = 4.096e-3 score
OUT_SCHEMA = pa.schema([("doc_id", pa.int64()), ("pred_lang", pa.string()),
                        ("lm_score", pa.float64()), ("bucket", pa.string())])


def _qk(scores: np.ndarray) -> np.ndarray:
    """Round-6 lm_scores as exact integers at 1e-6 scale."""
    return np.floor(scores * 1e6 + 0.5).astype(np.int64)


def _ntile_cuts(n: int) -> tuple[int, int]:
    """0-based rank boundaries of SQL ntile(3): rank < r1 → bucket 1,
    rank < r2 → bucket 2 (first n%3 buckets take the extra row)."""
    base, rem = divmod(n, 3)
    s1 = base + (1 if rem >= 1 else 0)
    s2 = base + (1 if rem >= 2 else 0)
    return s1, s1 + s2


def run_ccnet_buckets(sf_dir: str, target_rows_per_group: int = 65536,
                      coarse_shift: int = COARSE_SHIFT):
    """(doc_id, pred_lang, lm_score, bucket) for every document with
    ≥2 tokens; bucket ∈ {'head','middle','tail'} = per-language
    perplexity tercile (see module docstring).  The output is
    invariant to ``coarse_shift`` / ``target_rows_per_group`` (tested)
    — they tune task granularity, never semantics."""
    from dude_ray.partitioning import estimate_rows, shuffle_join
    from dude_ray.pipelines.lm import run_lm_score
    from dude_ray.pipelines.textops import run_lang_id

    n_docs = estimate_rows(f"{sf_dir}/documents.parquet")

    joined = shuffle_join(
        (run_lang_id(sf_dir),
         pa.schema([("doc_id", pa.int64()), ("pred_lang", pa.string())])),
        (run_lm_score(sf_dir),
         pa.schema([("doc_id", pa.int64()), ("lm_score", pa.float64())])),
        "doc_id", 2 * max(n_docs, 1), lambda t: t,
        target_rows_per_group=target_rows_per_group).materialize()

    def _with_ck(t: pa.Table) -> pa.Table:
        qk = _qk(t["lm_score"].to_numpy(zero_copy_only=False))
        return t.append_column("ck", pa.array(qk >> coarse_shift,
                                              type=pa.int64()))

    ds = joined.map_batches(_with_ck, batch_format="pyarrow")

    # (lang, ck) histogram — bounded by score range, not corpus size
    hist_rows = hash_grouped_reduce(
        ds.map_batches(lambda t: t.select(["pred_lang", "ck"]),
                       batch_format="pyarrow"),
        ["pred_lang", "ck"],
        lambda t: group_agg(t, ["pred_lang", "ck"], {"n": ([], "count_all")}),
        max(n_docs, 1), out_cols=("pred_lang", "ck", "n")).take_all()

    hist: dict[str, dict[int, int]] = {}
    for r in hist_rows:
        hist.setdefault(r["pred_lang"], {})[int(r["ck"])] = int(r["n"])

    # per-lang walk in rank order (ck DESC = score DESC): label whole
    # buckets; buckets straddling a tercile boundary go to refinement
    direct: dict[tuple[str, int], str] = {}
    refine: dict[tuple[str, int], int] = {}  # -> global rank offset
    cuts: dict[str, tuple[int, int]] = {}
    for lang, d in hist.items():
        n = sum(d.values())
        r1, r2 = _ntile_cuts(n)
        cuts[lang] = (r1, r2)
        cum = 0
        for ck in sorted(d, reverse=True):
            lo, hi = cum, cum + d[ck]  # ranks [lo, hi) live here
            if hi <= r1:
                direct[(lang, ck)] = "head"
            elif lo >= r1 and hi <= r2:
                direct[(lang, ck)] = "middle"
            elif lo >= r2:
                direct[(lang, ck)] = "tail"
            else:
                refine[(lang, ck)] = lo
            cum = hi

    # broadcastable bounded label tables — per-batch assignment is one
    # Arrow hash join, never a per-row Python loop; a batch that
    # matches nothing still yields OUT_SCHEMA's columns
    keys = ["pred_lang", "ck"]
    direct_t = pa.table({
        "pred_lang": pa.array([k[0] for k in direct], pa.string()),
        "ck": pa.array([k[1] for k in direct], pa.int64()),
        "bucket": pa.array(list(direct.values()), pa.string())})
    refine_t = pa.table({
        "pred_lang": pa.array([k[0] for k in refine], pa.string()),
        "ck": pa.array([k[1] for k in refine], pa.int64())})

    def _label_direct(t: pa.Table) -> pa.Table:
        return t.join(direct_t, keys, join_type="inner",
                      use_threads=False).select(
            OUT_SCHEMA.names).cast(OUT_SCHEMA)

    def _needs_refine(t: pa.Table) -> pa.Table:
        return t.join(refine_t, keys, join_type="left semi",
                      use_threads=False)

    labeled = ds.map_batches(_label_direct, batch_format="pyarrow")

    def _refine_group(t: pa.Table) -> pa.Table:
        lang = t["pred_lang"][0].as_py()
        base = refine[(lang, t["ck"][0].as_py())]
        r1, r2 = cuts[lang]
        t = t.append_column("__qk", pa.array(_qk(t["lm_score"].to_numpy())))
        t = t.sort_by([("__qk", "descending"), ("doc_id", "ascending")])
        rank = base + np.arange(len(t))
        return t.select(OUT_SCHEMA.names[:3]).append_column(
            "bucket", pa.array(np.where(rank < r1, "head",
                                        np.where(rank < r2, "middle",
                                                 "tail")), pa.string()))

    refined = (ds.map_batches(_needs_refine, batch_format="pyarrow")
               .groupby(keys)
               .map_groups(_refine_group, batch_format="pyarrow"))

    return labeled.union(refined)


def ccnet_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_ccnet_buckets` — the lm_score and
    lang_id oracle queries joined on doc_id, bucketed by one
    ``ntile(3)`` window under the shared (lm_score DESC, doc_id ASC)
    order."""
    from dude_ray.pipelines.lm import LM_SCORE_ORACLE_SQL
    from dude_ray.pipelines.textops import LANG_ID_ORACLE_SQL

    return f"""
        WITH lm AS ({LM_SCORE_ORACLE_SQL}),
        lang AS ({LANG_ID_ORACLE_SQL})
        SELECT lm.doc_id, lang.pred_lang, lm.lm_score,
               CASE ntile(3) OVER (
                   PARTITION BY lang.pred_lang
                   ORDER BY lm.lm_score DESC, lm.doc_id ASC)
                   WHEN 1 THEN 'head' WHEN 2 THEN 'middle'
                   ELSE 'tail' END AS bucket
        FROM lm JOIN lang ON lm.doc_id = lang.doc_id
    """
