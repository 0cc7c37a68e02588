"""Distributed logistic-regression training over document quality
features — a trainable quality filter, the model-based sibling of the
hand-tuned ``textops.run_quality`` gate.

Scale shape (the standard data-parallel full-batch GD):

* the feature table (doc_id, f1..f4, y) is computed in ONE text scan
  and materialized — fixed-width rows, reused by every iteration; the
  text column is never read again;
* each GD iteration broadcasts the 5 weights via closure (40 bytes),
  streams the feature table through ``map_batches`` partials that emit
  one (Σ gradient, count) row per batch, and reduces them with a
  fixed-size ``Dataset.sum`` — gradient traffic is 6 doubles per block
  regardless of corpus size;
* the final scoring pass is one more stream over the features.

Cross-engine determinism contract (same as clustering.kmeans_iterate):
weights are rounded to 9 dp after every update, features to 6 dp, so
the DuckDB unrolled-CTE oracle — whose ``exp``/summation order differs
at ~1e-16 — reproduces the exact weight trajectory and scores.

The label is ``lang == 'en'``: the classifier learns to separate
English documents from the rest using only length/punctuation/stopword
statistics, i.e. a realistic weak-supervision setup for corpus
filtering.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from dude_ray.partitioning import hash_grouped_reduce

LR_ITERS = 8
LR_RATE = 0.5

# feature scaling keeps the GD conditioning sane; ratios are already
# rounded to 6 dp by the shared quality formulas
_F_SCALE_WORDS = 100.0
_F_SCALE_CHARS = 1000.0


def _feature_table(batch: pa.Table) -> pa.Table:
    """(doc_id, f1..f4, y) — the quality_score formulas (textops
    .quality_batch / the SQL oracle) plus fixed scaling, all rounded
    6 dp so engine and oracle start from bit-identical features."""
    from dude_ray.pipelines.textops import PUNCT_RE, STOP_RE, TOKEN_RE

    text = batch["text"]
    n_chars = pc.cast(pc.utf8_length(text), pa.float64())
    n_words = pc.cast(pc.count_substring_regex(text, TOKEN_RE), pa.float64())
    n_stop = pc.cast(pc.count_substring_regex(text, STOP_RE), pa.float64())
    n_punct = pc.cast(pc.count_substring_regex(text, PUNCT_RE), pa.float64())
    safe_words = pc.max_element_wise(n_words, 1.0)
    safe_chars = pc.max_element_wise(n_chars, 1.0)
    return pa.table({
        "doc_id": batch["doc_id"],
        "f1": pc.round(pc.divide(n_words, _F_SCALE_WORDS), ndigits=6),
        "f2": pc.round(pc.divide(n_stop, safe_words), ndigits=6),
        "f3": pc.round(pc.divide(n_punct, safe_chars), ndigits=6),
        "f4": pc.round(pc.divide(n_chars, _F_SCALE_CHARS), ndigits=6),
        "y": pc.cast(pc.equal(batch["lang"], "en"), pa.float64()),
    })


def _batch_xy(batch: pa.Table):
    n = len(batch)
    x = np.empty((n, 5), dtype=np.float64)
    x[:, 0] = 1.0
    for c, col in enumerate(("f1", "f2", "f3", "f4"), start=1):
        x[:, c] = batch[col].to_numpy(zero_copy_only=False)
    return x, batch["y"].to_numpy(zero_copy_only=False)


def train_lr(feats, iters: int = LR_ITERS, lr: float = LR_RATE,
             batch_size: int = 8192) -> np.ndarray:
    """Full-batch GD over the materialized feature dataset; returns the
    trained 5-weight vector.  w_t is the only driver state."""
    w = np.zeros(5, dtype=np.float64)
    for _ in range(iters):
        w_now = w

        def grad_partial(batch: pa.Table) -> pa.Table:
            x, y = _batch_xy(batch)
            z = x @ w_now
            sig = 1.0 / (1.0 + np.exp(-z))
            g = (sig - y) @ x          # (5,) partial gradient sum
            return pa.table({f"g{i}": pa.array([g[i]], type=pa.float64())
                             for i in range(5)}
                            | {"n": pa.array([len(y)], type=pa.int64())})

        agg = feats.map_batches(grad_partial, batch_format="pyarrow",
                                batch_size=batch_size).sum(
            [f"g{i}" for i in range(5)] + ["n"])
        n = agg["sum(n)"]
        g = np.array([agg[f"sum(g{i})"] for i in range(5)]) / n
        w = np.round(w - lr * g, 9)
    return w


def run_lr_quality(sf_dir: str, iters: int = LR_ITERS, lr: float = LR_RATE):
    """Train the classifier and score every document.  Output:
    (doc_id, lr_score ∈ (0,1) rounded 6 dp, label)."""
    from dude_ray.io import read_parquet_clean

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "text", "lang"])
    feats = docs.map_batches(_feature_table, batch_format="pyarrow",
                             batch_size=4096).materialize()
    w = train_lr(feats, iters=iters, lr=lr)

    def score(batch: pa.Table) -> pa.Table:
        x, y = _batch_xy(batch)
        sig = 1.0 / (1.0 + np.exp(-(x @ w)))
        return pa.table({
            "doc_id": batch["doc_id"],
            "lr_score": pa.array(np.round(sig, 6), type=pa.float64()),
            "label": pa.array(y.astype(np.int64), type=pa.int64()),
        })

    return feats.map_batches(score, batch_format="pyarrow",
                             batch_size=8192)


_LR_SIG = ("(1.0 / (1.0 + exp(-(w.w0 + w.w1*f.f1 + w.w2*f.f2"
           " + w.w3*f.f3 + w.w4*f.f4))))")


def _feats_cte(extra_cols: str = "") -> str:
    """The feature CTE shared by the lr_quality and training_mix
    oracles (identical expressions to _feature_table)."""
    from dude_ray.pipelines.textops import PUNCT_RE, STOP_RE, TOKEN_RE
    tok = TOKEN_RE.replace("'", "''")
    stop = STOP_RE.replace("'", "''")
    punct = PUNCT_RE.replace("'", "''")
    return f"""
        feats AS (
          SELECT doc_id,
            round(length(regexp_extract_all(text, '{tok}')) / {_F_SCALE_WORDS}, 6) AS f1,
            round(length(regexp_extract_all(text, '{stop}'))
                  / greatest(length(regexp_extract_all(text, '{tok}')), 1), 6) AS f2,
            round(length(regexp_extract_all(text, '{punct}'))
                  / greatest(length(text), 1), 6) AS f3,
            round(length(text) / {_F_SCALE_CHARS}, 6) AS f4,
            CASE WHEN lang = 'en' THEN 1.0 ELSE 0.0 END AS y{extra_cols}
          FROM documents
        )"""


def _weights_chain(iters: int, lr: float) -> str:
    """The unrolled GD weight CTEs (w0 … w{iters}) over a previously
    defined ``feats`` CTE."""
    sig = _LR_SIG
    parts = ["""
        w0 AS (SELECT 0.0 AS w0, 0.0 AS w1, 0.0 AS w2, 0.0 AS w3, 0.0 AS w4),"""]
    for t in range(1, iters + 1):
        p = t - 1
        parts.append(f"""
        g{t} AS (
          SELECT avg(({sig} - f.y) * 1.0) AS g0,
                 avg(({sig} - f.y) * f.f1) AS g1,
                 avg(({sig} - f.y) * f.f2) AS g2,
                 avg(({sig} - f.y) * f.f3) AS g3,
                 avg(({sig} - f.y) * f.f4) AS g4
          FROM feats f CROSS JOIN w{p} w
        ),
        w{t} AS (
          SELECT round(w.w0 - {lr} * g.g0, 9) AS w0,
                 round(w.w1 - {lr} * g.g1, 9) AS w1,
                 round(w.w2 - {lr} * g.g2, 9) AS w2,
                 round(w.w3 - {lr} * g.g3, 9) AS w3,
                 round(w.w4 - {lr} * g.g4, 9) AS w4
          FROM w{p} w CROSS JOIN g{t} g
        ),""")
    return "\n".join(parts)


def lr_quality_oracle_sql(iters: int = LR_ITERS, lr: float = LR_RATE) -> str:
    """DuckDB oracle: identical features, the GD loop unrolled as
    chained one-row weight CTEs, identical 9-dp weight rounding."""
    return f"""
        WITH {_feats_cte()},
        {_weights_chain(iters, lr)}
        fin AS (
          SELECT f.doc_id, round({_LR_SIG}, 6) AS lr_score,
                 CAST(f.y AS BIGINT) AS label
          FROM feats f CROSS JOIN w{iters} w
        )
        SELECT doc_id, lr_score, label FROM fin"""


# --------------------------------------------------------------------------
# composed flagship: prep → dedup keepers → model filter → sequence pack
# --------------------------------------------------------------------------

# the keep threshold is DATA-DERIVED: the global mean score (rounded
# 9 dp, the usual cross-engine contract).  Scores cluster near the
# class base rate after a fixed GD budget, so an absolute constant
# degenerates to keep-all/drop-all as the corpus distribution shifts;
# the mean gives a stable ~50% quality cut at any scale and is exactly
# computable both distributed (one fixed-size sum/count aggregate) and
# in SQL (scalar avg subquery)
PACK_MIN_SCORE: float | None = None


def run_training_mix(sf_dir: str, budget: int | None = None,
                     min_score: float = PACK_MIN_SCORE,
                     iters: int = LR_ITERS, lr: float = LR_RATE):
    """The composed LLM-training-data flagship, end-to-end SQL-oracled:
    ONE text scan emits features + content hash + token count; the
    logistic-regression filter is TRAINED on that same materialized
    table (full-batch GD, fixed-size gradient partials); exact-dedup
    keepers (min doc_id per md5) survive; keepers scoring ≥
    ``min_score`` are packed head-to-tail into ``budget``-token
    training sequences in doc_id order (token_pack semantics).

    Scale shape: the corpus text is read EXACTLY ONCE for the whole
    chain; everything downstream moves fixed-width rows (features 40 B,
    dedup keys 48 B, pack rows 24 B).  The pack step sorts only the
    surviving (doc_id, n_tokens) rows and prefix-sums one partial row
    per block on the driver.

    Output: (doc_id, n_tokens, lr_score, pack_id)."""
    import hashlib

    from dude_ray.io import read_parquet_clean
    from dude_ray.pipelines.sampling import PACK_BUDGET
    from dude_ray.pipelines.textops import TOKEN_RE

    if budget is None:
        budget = PACK_BUDGET

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "text", "lang"])

    def stage1(batch: pa.Table) -> pa.Table:
        t = _feature_table(batch)
        hs = [hashlib.md5((x or "").encode()).hexdigest()
              for x in batch["text"].to_pylist()]
        return t.append_column("h", pa.array(hs, type=pa.string())) \
                .append_column("n_tokens", pc.cast(
                    pc.count_substring_regex(batch["text"], TOKEN_RE),
                    pa.int64()))

    feats = docs.map_batches(stage1, batch_format="pyarrow",
                             batch_size=4096).materialize()
    w = train_lr(feats, iters=iters, lr=lr)

    def _keeper_rows(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        idx = df.groupby("h", sort=False)["doc_id"].idxmin()
        return pa.Table.from_pandas(df.loc[idx], preserve_index=False)

    keep_cols = ("doc_id", "f1", "f2", "f3", "f4", "y", "h", "n_tokens")
    keepers = hash_grouped_reduce(feats, "h", _keeper_rows, feats.count(),
                                  out_cols=keep_cols)

    def score_rows(batch: pa.Table) -> pa.Table:
        x, _y = _batch_xy(batch)
        sig = np.round(1.0 / (1.0 + np.exp(-(x @ w))), 6)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_tokens": batch["n_tokens"],
            "lr_score": pa.array(sig, type=pa.float64()),
        })

    scored = keepers.map_batches(score_rows, batch_format="pyarrow",
                                 batch_size=8192).materialize()
    if min_score is None:
        total = scored.sum("lr_score") or 0.0
        min_score = round(total / max(scored.count(), 1), 9)

    thr = float(min_score)
    surv = scored.map_batches(
        lambda t: t.filter(pc.greater_equal(t["lr_score"], thr)),
        batch_format="pyarrow").sort("doc_id").materialize()

    def block_partial(batch: pa.Table) -> pa.Table:
        if not len(batch):
            return pa.table({"first_id": pa.array([], type=pa.int64()),
                             "total": pa.array([], type=pa.int64())})
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "first_id": pa.array([int(ids[0])], type=pa.int64()),
            "total": pa.array([pc.sum(batch["n_tokens"]).as_py() or 0],
                              type=pa.int64()),
        })

    parts = sorted(
        surv.map_batches(block_partial, batch_format="pyarrow",
                         batch_size=None).take_all(),
        key=lambda r: r["first_id"])
    offsets: dict[int, int] = {}
    acc = 0
    for p in parts:
        offsets[p["first_id"]] = acc
        acc += p["total"]

    def assign(batch: pa.Table) -> pa.Table:
        if not len(batch):
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "n_tokens": pa.array([], type=pa.int64()),
                             "lr_score": pa.array([], type=pa.float64()),
                             "pack_id": pa.array([], type=pa.int64())})
        n = batch["n_tokens"].to_numpy(zero_copy_only=False)
        off = offsets[batch["doc_id"][0].as_py()] + \
            np.concatenate(([0], np.cumsum(n[:-1])))
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_tokens": batch["n_tokens"],
            "lr_score": batch["lr_score"],
            "pack_id": pa.array(off // budget, type=pa.int64()),
        })

    return surv.map_batches(assign, batch_format="pyarrow",
                            batch_size=None)


def training_mix_oracle_sql(budget: int | None = None,
                            min_score: float | None = PACK_MIN_SCORE,
                            iters: int = LR_ITERS,
                            lr: float = LR_RATE) -> str:
    """DuckDB oracle for the composed flagship: the same feature CTE
    (+ md5/token columns), the same unrolled GD chain, keeper/score
    filters, and a window cumulative sum for the pack offsets."""
    from dude_ray.pipelines.sampling import PACK_BUDGET
    from dude_ray.pipelines.textops import TOKEN_RE

    if budget is None:
        budget = PACK_BUDGET
    tok = TOKEN_RE.replace("'", "''")
    extra = (",\n            md5(coalesce(text, '')) AS h,\n"
             f"            CAST(length(regexp_extract_all(text, '{tok}'))"
             " AS BIGINT) AS n_tokens")
    return f"""
        WITH {_feats_cte(extra)},
        {_weights_chain(iters, lr)}
        scored AS (
          SELECT f.doc_id, f.n_tokens, round({_LR_SIG}, 6) AS lr_score
          FROM feats f CROSS JOIN w{iters} w
          QUALIFY f.doc_id = min(f.doc_id) OVER (PARTITION BY f.h)
        ),
        keep AS (
          SELECT * FROM scored
          WHERE lr_score >= {min_score if min_score is not None
                             else "(SELECT round(avg(lr_score), 9) FROM scored)"}
        ),
        packed AS (
          SELECT doc_id, n_tokens, lr_score,
                 coalesce(sum(n_tokens) OVER (
                   ORDER BY doc_id
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
                 AS start_offset
          FROM keep
        )
        SELECT doc_id, n_tokens, lr_score,
               CAST(start_offset // {budget} AS BIGINT) AS pack_id
        FROM packed"""
