"""BM25 full-text ranking over the ``documents`` table.

The retrieval primitive of a training-data curation stack (scoring
corpus docs against benchmark/eval queries, targeted selection, search
QA).  Okapi BM25 with the Lucene-style ``(k1+1)`` numerator and the
``ln(1 + (N - df + 0.5)/(df + 0.5))`` non-negative IDF.

Scale shape (one corpus scan, tiny everything-after):
  1. ONE streaming pass over ``documents`` emits, per batch, a single
     corpus-stats partial (doc count + token sum — 24 B) plus one row
     per (doc, query-term) hit: (doc_id, term, tf, dl).  Only docs
     matching ≥1 query term leave the scan; tf/dl counting is pandas
     vectorized-regex with patterns compiled once on the driver.
  2. The matched-row set is materialized (its size is bounded by
     matching docs × |terms|, not the corpus); document frequencies
     fall out of a ``groupby(term).count()`` over it (|terms| rows).
  3. Scoring is arithmetic on the matched rows with the broadcast
     (idf, avgdl) table, summed per doc by one small-row shuffle;
     the global top-n is per-batch local-k partials → sort → limit
     (the ann_topk discipline), so the driver holds n rows.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pandas as pd
import pyarrow as pa

from dude_ray.partitioning import group_agg, hash_grouped_reduce
from dude_ray.pipelines.textops import TOKEN_RE

# the benchmark query: terms from the synthetic corpus vocabulary with
# spread document frequencies
QUERY_TERMS = ("spark", "window", "merge", "vector")
BM25_K1 = 1.2
BM25_B = 0.75
TOP_N = 20


class _Bm25Scan:
    """documents → per-batch stats partial (kind 0) + per-(doc, term)
    tf rows (kind 1), unified schema so one pass serves both.  Passed
    as an instance (the compiled term patterns are cheap config), so
    the scan is a task stage."""

    def __init__(self, terms):
        self.terms = list(terms)
        # term-as-token occurrences == term bounded by non-token chars;
        # Python re lookarounds (pandas str.count) — terms are pure
        # [a-z0-9_]+ so this equals token-equality counting, which is
        # what the DuckDB oracle's list_filter does
        self.pats = [re.compile(
            rf"(?<![a-z0-9_]){re.escape(t)}(?![a-z0-9_])")
            for t in self.terms]

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        text = df["text"].fillna("")
        dl = text.str.count(TOKEN_RE).to_numpy(dtype=np.int64)
        lt = text.str.lower()
        ids = df["doc_id"].to_numpy(dtype=np.int64)
        out_id, out_t, out_tf, out_dl = [], [], [], []
        for term, pat in zip(self.terms, self.pats):
            tf = lt.str.count(pat).to_numpy(dtype=np.int64)
            hit = np.nonzero(tf)[0]
            out_id.append(ids[hit])
            out_t.extend([term] * len(hit))
            out_tf.append(tf[hit])
            out_dl.append(dl[hit])
        n_hit = sum(len(a) for a in out_id)
        return pd.DataFrame({
            "kind": np.concatenate(([0], np.ones(n_hit, dtype=np.int64))),
            "doc_id": np.concatenate(([-1], *out_id)) if n_hit
            else np.array([-1], dtype=np.int64),
            "term": [""] + out_t,
            # stats partial reuses the tf/dl columns: tf=doc count,
            # dl=token sum for the batch
            "tf": np.concatenate(([len(df)], *out_tf)) if n_hit
            else np.array([len(df)], dtype=np.int64),
            "dl": np.concatenate(([int(dl.sum())], *out_dl)) if n_hit
            else np.array([int(dl.sum())], dtype=np.int64),
        })


def _kind(ds, k: int):
    import pyarrow.compute as pc

    return ds.map_batches(
        lambda b: b.filter(pc.equal(b["kind"], k)),
        batch_format="pyarrow", batch_size=8192)


def run_bm25(sf_dir: str, terms=QUERY_TERMS, top_n: int = TOP_N,
             k1: float = BM25_K1, b: float = BM25_B,
             batch_size: int = 4096):
    """Top-``top_n`` documents by BM25 score for the fixed query.
    Output: (doc_id, score, rank) — rank on (round-6 score desc,
    doc_id asc), the same tie rule as the DuckDB oracle."""
    import pyarrow.compute as pc

    from dude_ray.io import read_parquet_clean

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "text"])
    scan = docs.map_batches(
        _Bm25Scan(terms), batch_format="pandas",
        batch_size=batch_size).materialize()

    stats = _kind(scan, 0).sum(["tf", "dl"])
    n_docs, total_tokens = stats["sum(tf)"], stats["sum(dl)"]
    avgdl = total_tokens / n_docs

    matched = _kind(scan, 1).materialize()
    n_matched = matched.count()

    df_rows = hash_grouped_reduce(matched, "term",
                                  lambda t: group_agg(
                                      t, "term", {"df": ([], "count_all")}),
                                  n_matched,
                                  out_cols=("term", "df")).take_all()
    idf = {r["term"]: math.log(1.0 + (n_docs - r["df"] + 0.5)
                               / (r["df"] + 0.5))
           for r in df_rows}

    def contrib(batch: pa.Table) -> pa.Table:
        tf = batch["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        dl = batch["dl"].to_numpy(zero_copy_only=False).astype(np.float64)
        w = np.asarray([idf.get(t, 0.0)
                        for t in batch["term"].to_pylist()])
        score = w * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))
        return pa.table({"doc_id": batch["doc_id"],
                         "contrib": pa.array(score, type=pa.float64())})

    scores = hash_grouped_reduce(
        matched.map_batches(contrib, batch_format="pyarrow",
                            batch_size=8192),
        "doc_id",
        lambda t: group_agg(t, "doc_id",
                            {"sum(contrib)": ("contrib", "sum")}),
        n_matched,
        out_cols=("doc_id", "sum(contrib)"))

    def local_top(batch: pa.Table) -> pa.Table:
        s = pc.round(batch["sum(contrib)"], ndigits=6)
        t = pa.table({"doc_id": batch["doc_id"], "score": s})
        idx = pc.select_k_unstable(
            t, top_n, [("score", "descending"), ("doc_id", "ascending")])
        return t.take(idx)

    top = (scores.map_batches(local_top, batch_format="pyarrow",
                              batch_size=8192)
           .sort(["score", "doc_id"], descending=[True, False])
           .limit(top_n).to_pandas())
    top["rank"] = np.arange(1, len(top) + 1, dtype=np.int64)
    return top


def _doc_terms(df: pd.DataFrame) -> pd.DataFrame:
    """Per-doc unique term rows (doc_id, term, tf), batch-vectorized —
    the same single-space tokenization the DuckDB oracle's
    string_split uses (the corpus is single-space separated)."""
    texts = df["text"].fillna("").to_numpy(dtype=object)
    ids = df["doc_id"].to_numpy(dtype=np.int64)
    toks = [t.split(" ") for t in texts]
    lens = np.fromiter((len(t) for t in toks), dtype=np.int64,
                       count=len(toks))
    if not lens.sum():
        return pd.DataFrame({"doc_id": np.array([], dtype=np.int64),
                             "term": [],
                             "tf": np.array([], dtype=np.int64)})
    flat = np.concatenate([np.asarray(t, dtype=object) for t in toks])
    parent = np.repeat(np.arange(len(toks)), lens)
    out = pd.DataFrame({"doc_id": ids[parent], "term": flat})
    out = (out.groupby(["doc_id", "term"], sort=False)
           .size().reset_index(name="tf"))
    out["tf"] = out["tf"].astype(np.int64)
    return out


def run_tfidf_keywords(sf_dir: str, top_k: int = 5,
                       num_partitions: int = 4,
                       batch_size: int = 4096):
    """Top-``top_k`` TF-IDF keywords per document: (doc_id, term,
    score, rank) with score = tf · ln(N/df), rank on (round-6 score
    desc, term asc) — per-doc keyword extraction, the corpus-analysis
    counterpart of :func:`run_bm25`'s query-time scoring.

    Scale shape: ONE corpus scan → per-doc unique (term, tf) rows;
    document frequencies via the data-scaled hash reduce (the df table
    stays a distributed dataset — vocab-sized at web scale, never on
    the driver); ONE hash join ships df back onto the term rows; the
    per-doc top-k is one more hash-grouped reduce (pandas sort+head
    per group)."""
    from dude_ray.io import read_parquet_clean
    from dude_ray.partitioning import parquet_row_groups

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "text"])
    # EXACT doc count from ALL parquet footers (metadata-only, no data
    # read): df counts are exact, so the IDF's N must be too — the
    # sampled estimate_rows extrapolation silently skews scores on
    # multi-file datasets with uneven file sizes
    n_docs = max(sum(n for _f, _rg, n in
                     parquet_row_groups(f"{sf_dir}/documents.parquet")), 1)
    terms = docs.map_batches(_doc_terms, batch_format="pandas",
                             batch_size=batch_size).materialize()
    n_rows = terms.count()

    dftab = hash_grouped_reduce(
        terms.map_batches(lambda t: t.select(["term"]),
                          batch_format="pyarrow"),
        "term",
        lambda t: group_agg(t, "term", {"df": ([], "count_all")})
        .rename_columns(["dterm", "df"]),
        n_rows,
        out_cols=("dterm", "df")).materialize()

    if dftab.count() <= 2_000_000:
        # broadcast-join tier: the df table fits in every worker
        # (ray.put once, pandas merge per batch); the distributed hash
        # join below carries past web-scale vocab sizes.
        import ray

        df_ref = ray.put(dftab.to_pandas())

        def bjoin(df: pd.DataFrame) -> pd.DataFrame:
            return df.merge(ray.get(df_ref), left_on="term",
                            right_on="dterm")

        j = terms.map_batches(bjoin, batch_format="pandas",
                              batch_size=65536)
    else:
        j = terms.join(dftab, "inner", num_partitions,
                       on=("term",), right_on=("dterm",),
                       aggregator_ray_remote_args={"num_cpus": 0})

    def score(t: pa.Table) -> pa.Table:
        tf = t["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        dfv = t["df"].to_numpy(zero_copy_only=False).astype(np.float64)
        s = np.round(tf * np.log(n_docs / dfv), 6)
        return pa.table({"doc_id": t["doc_id"], "term": t["term"],
                         "score": pa.array(s, type=pa.float64())})

    def _top_k(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(["doc_id", "score", "term"],
                            ascending=[True, False, True],
                            kind="mergesort")
        df["rank"] = df.groupby("doc_id", sort=False).cumcount() + 1
        out = df[df["rank"] <= top_k].reset_index(drop=True)
        out["rank"] = out["rank"].astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    return hash_grouped_reduce(
        j.map_batches(score, batch_format="pyarrow", batch_size=8192),
        "doc_id", _top_k, n_rows,
        out_cols=("doc_id", "term", "score", "rank"))


def tfidf_keywords_oracle_sql(top_k: int = 5) -> str:
    """DuckDB oracle for :func:`run_tfidf_keywords` — identical
    tokenization (string_split on single space), tf·ln(N/df) scoring
    rounded to 6, row_number on (score desc, term asc)."""
    return f"""
        WITH toks AS (
          SELECT doc_id, unnest(string_split(text, ' ')) AS term
          FROM documents
        ),
        tf AS (
          SELECT doc_id, term, count(*) AS tf
          FROM toks GROUP BY doc_id, term
        ),
        dfq AS (
          SELECT term, CAST(count(*) AS DOUBLE) AS df FROM tf GROUP BY term
        ),
        nd AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM documents),
        scored AS (
          SELECT t.doc_id, t.term,
                 round(t.tf * ln((SELECT n FROM nd) / d.df), 6) AS score
          FROM tf t JOIN dfq d ON d.term = t.term
        ),
        ranked AS (
          SELECT doc_id, term, score,
                 CAST(row_number() OVER (PARTITION BY doc_id
                      ORDER BY score DESC, term) AS BIGINT) AS rank
          FROM scored
        )
        SELECT doc_id, term, score, rank FROM ranked
        WHERE rank <= {top_k}
    """


def run_term_postings(sf_dir: str, min_df: int = 2,
                      target_rows_per_group: int = 65536):
    """Inverted-index build — the search-index artifact behind
    :func:`run_bm25` as a first-class operator: per term, document
    frequency, collection frequency and the ascending posting list
    (canonical comma-joined string, so the DuckDB oracle's
    ``string_agg ORDER BY`` compares exactly).

    Scale shape: one text scan emits (term, doc_id, c) rows — each doc
    lives in exactly one batch, so per-batch term counts are globally
    final and only fixed-width rows shuffle; the per-term reduce goes
    through the data-scaled ``hash_grouped_reduce`` (no Python-per-row
    combine, no fixed key width).  Hot terms concentrate their posting
    list in one group by construction — at 10^10 docs posting lists
    shard by (term, doc-range) buckets and concatenate lazily;
    ``min_df`` here also drops the hapax tail that dominates vocabulary
    size."""
    import re

    from dude_ray.io import read_parquet_clean
    from dude_ray.pipelines.textops import TOKEN_RE

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "text"])
    pat = re.compile(TOKEN_RE)

    def term_doc_counts(df: pd.DataFrame) -> pd.DataFrame:
        df = df.reset_index(drop=True)
        ex = df["text"].str.lower().str.findall(pat).explode().dropna()
        x = pd.DataFrame({
            "doc_id": df["doc_id"].reindex(ex.index).to_numpy(dtype=np.int64),
            "term": ex.to_numpy(dtype=object),
        })
        out = (x.groupby(["term", "doc_id"], sort=False).size()
               .reset_index(name="c"))
        return pd.DataFrame({"term": out["term"].astype(str),
                             "doc_id": out["doc_id"].to_numpy(dtype=np.int64),
                             "c": out["c"].to_numpy(dtype=np.int64)})

    rows = docs.map_batches(term_doc_counts, batch_format="pandas",
                            batch_size=2048).materialize()

    def build_postings(t: pa.Table) -> pa.Table:
        terms, dfs, cfs, posts = [], [], [], []
        for term, sub in t.to_pandas().groupby("term", sort=False):
            if len(sub) < min_df:
                continue
            ids = np.sort(sub["doc_id"].to_numpy(dtype=np.int64))
            terms.append(term)
            dfs.append(len(ids))
            cfs.append(int(sub["c"].sum()))
            posts.append(",".join(map(str, ids)))
        return pa.table({"term": pa.array(terms, pa.string()),
                         "df": pa.array(dfs, pa.int64()),
                         "cf": pa.array(cfs, pa.int64()),
                         "postings": pa.array(posts, pa.string())})

    return hash_grouped_reduce(rows, "term", build_postings, rows.count(),
                               target_rows_per_group,
                               out_cols=("term", "df", "cf", "postings"))


TERM_POSTINGS_ORACLE_SQL = """
    WITH t AS (
      SELECT doc_id,
             unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS term
      FROM documents
    ), d AS (
      SELECT term, doc_id, count(*) AS c FROM t GROUP BY term, doc_id
    )
    SELECT term, count(*) AS df, CAST(sum(c) AS BIGINT) AS cf,
           string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id) AS postings
    FROM d GROUP BY term HAVING count(*) >= 2
"""
