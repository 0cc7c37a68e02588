"""Bigram language-model quality scoring over ``documents``.

The CCNet/KenLM-style curation primitive: score every document by the
average log-likelihood of its token bigrams under a language model
trained on the corpus itself — low scores flag machine-generated or
boilerplate text.  The model is the maximum-likelihood bigram LM
p(w2|w1) = c(w1,w2) / c(w1·), where c(w1·) is w1's bigram-prefix count,
so every observed bigram has positive probability and no smoothing
constant enters the oracle comparison.

Scale shape (nothing vocabulary-sized ever touches the driver):
  1. ONE streaming pass over ``documents`` tokenizes (the corpus is
     single-space separated; same `string_split` rule as the DuckDB
     oracle) and emits per-doc UNIQUE bigram rows (doc_id, w1, w2, n)
     — pandas-groupby combined inside the batch, so join volume is
     per-doc distinct bigrams, not token count.
  2. Global count tables are two `hash_grouped_reduce` sums over that
     stream: c(w1,w2) and the prefix marginal c(w1·).  Both stay
     distributed datasets (vocab² rows at web scale).
  3. Two distributed hash joins ship the counts back onto the doc
     rows; the per-doc score is one more data-scaled reduce:
     lm_score = Σ n·ln(cb/cu) / Σ n, n_bigrams = Σ n.

Round-6 on both sides absorbs float-association drift (~1e-14 across
per-doc sums of O(100) doubles; observed pattern documented at
__ray_entry__.py kmeans_assign note).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from dude_ray.partitioning import group_agg, hash_grouped_reduce


def _doc_bigrams(df: pd.DataFrame) -> pd.DataFrame:
    """Per-doc unique bigram rows (doc_id, w1, w2, n), vectorized:
    one concatenated token array for the whole batch, bigram pairs by
    shifting, doc boundaries masked out via parent indices."""
    texts = df["text"].fillna("").to_numpy(dtype=object)
    ids = df["doc_id"].to_numpy(dtype=np.int64)
    toks = [t.split(" ") for t in texts]
    lens = np.fromiter((len(t) for t in toks), dtype=np.int64,
                       count=len(toks))
    if not lens.sum():
        return pd.DataFrame({"doc_id": np.array([], dtype=np.int64),
                             "w1": [], "w2": [],
                             "n": np.array([], dtype=np.int64)})
    flat = np.concatenate([np.asarray(t, dtype=object) for t in toks])
    parent = np.repeat(np.arange(len(toks)), lens)
    same = parent[1:] == parent[:-1]
    out = pd.DataFrame({"doc_id": ids[parent[:-1][same]],
                        "w1": flat[:-1][same], "w2": flat[1:][same]})
    out = (out.groupby(["doc_id", "w1", "w2"], sort=False)
           .size().reset_index(name="n"))
    out["n"] = out["n"].astype(np.int64)
    return out


def run_lm_score(sf_dir: str, num_partitions: int = 4,
                 batch_size: int = 4096):
    """(doc_id, lm_score, n_bigrams) for every document with ≥2
    tokens; lm_score = mean bigram log-likelihood, rounded to 6."""
    import pyarrow.compute as pc

    from dude_ray.io import read_parquet_clean

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "text"])
    doc_big = docs.map_batches(_doc_bigrams, batch_format="pandas",
                               batch_size=batch_size).materialize()
    n_rows = doc_big.count()
    agg_args = {"num_cpus": 0}

    cb = hash_grouped_reduce(
        doc_big.map_batches(
            lambda t: t.select(["w1", "w2", "n"]),
            batch_format="pyarrow"),
        ["w1", "w2"],
        lambda t: group_agg(t, ["w1", "w2"], {"cb": ("n", "sum")}),
        n_rows, out_cols=("w1", "w2", "cb"))
    cb = cb.map_batches(
        lambda t: pa.table({"bw1": t["w1"], "bw2": t["w2"],
                            "cb": pc.cast(t["cb"], pa.float64())}),
        batch_format="pyarrow").materialize()
    n_cb = cb.count()
    # the prefix marginal c(w1·) = Σ_w2 c(w1,w2) folds out of the
    # bigram table itself — a reduce over |distinct bigrams| rows, not
    # a second pass over the doc-bigram stream
    cu = hash_grouped_reduce(
        cb.map_batches(lambda t: t.select(["bw1", "cb"]),
                       batch_format="pyarrow"),
        "bw1",
        lambda t: group_agg(t, "bw1", {"cu": ("cb", "sum")}).rename_columns(
            ["uw", "cu"]),
        n_cb, out_cols=("uw", "cu")).materialize()
    if n_cb <= 2_000_000:
        # broadcast-join tier: the count tables fit in every worker
        # (ray.put once, pandas merge per batch) — skips two
        # Dataset.join shuffles of the doc-bigram stream.  Above the
        # threshold (web-scale vocab²) the distributed hash joins
        # below carry.
        import ray

        tabs_ref = ray.put((cb.to_pandas(), cu.to_pandas()))

        def bjoin(df: pd.DataFrame) -> pd.DataFrame:
            cbt, cut = ray.get(tabs_ref)
            out = df.merge(cbt, left_on=["w1", "w2"],
                           right_on=["bw1", "bw2"])
            return out.merge(cut, left_on="w1", right_on="uw")

        j = doc_big.map_batches(bjoin, batch_format="pandas",
                                batch_size=65536)
    else:
        j = doc_big.join(cb, "inner", num_partitions,
                         on=("w1", "w2"), right_on=("bw1", "bw2"),
                         aggregator_ray_remote_args=agg_args)
        j = j.join(cu, "inner", num_partitions,
                   on=("w1",), right_on=("uw",),
                   aggregator_ray_remote_args=agg_args)

    def to_lp(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        cb_ = t["cb"].to_numpy(zero_copy_only=False)
        cu_ = t["cu"].to_numpy(zero_copy_only=False)
        lp = np.log(cb_ / cu_)
        return pa.table({"doc_id": t["doc_id"],
                         "nlp": pa.array(n * lp, type=pa.float64()),
                         "n": t["n"]})

    def _doc_score(t: pa.Table) -> pa.Table:
        g = group_agg(t, "doc_id", {"s": ("nlp", "sum"),
                                    "n_bigrams": ("n", "sum")})
        return g.append_column("lm_score", pa.array(np.round(
            g["s"].to_numpy() / g["n_bigrams"].to_numpy(), 6)))

    return hash_grouped_reduce(
        j.map_batches(to_lp, batch_format="pyarrow", batch_size=8192),
        "doc_id", _doc_score, n_rows,
        out_cols=("doc_id", "lm_score", "n_bigrams"))


LM_SCORE_ORACLE_SQL = """
    WITH toks AS (
      SELECT doc_id, string_split(text, ' ') AS sp FROM documents
    ),
    docbig AS (
      SELECT doc_id,
             unnest(sp[1:len(sp)-1]) AS w1,
             unnest(sp[2:len(sp)]) AS w2
      FROM toks WHERE len(sp) >= 2
    ),
    big AS (
      SELECT w1, w2, CAST(count(*) AS DOUBLE) AS cb
      FROM docbig GROUP BY w1, w2
    ),
    uni AS (
      SELECT w1 AS w, CAST(count(*) AS DOUBLE) AS cu
      FROM docbig GROUP BY w1
    )
    SELECT d.doc_id,
           round(avg(ln(bg.cb / un.cu)), 6) AS lm_score,
           count(*) AS n_bigrams
    FROM docbig d
    JOIN big bg ON bg.w1 = d.w1 AND bg.w2 = d.w2
    JOIN uni un ON un.w = d.w1
    GROUP BY d.doc_id
"""
