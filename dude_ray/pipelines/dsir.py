"""DSIR — Data Selection with Importance Resampling (Xie et al. 2023,
arXiv:2302.03169) over the ``documents`` table.

The published recipe: featurize every document as a bag of HASHED word
unigrams + bigrams over ``B`` buckets, fit smoothed bucket
distributions for a TARGET domain (p̂) and the RAW corpus (q̂), score
each raw document with the importance log-weight
``w(x) = Σ_b c_b(x) · (ln p̂_b − ln q̂_b)``, and keep the top-scoring
examples.  Here the target domain is the corpus's own ``lang = 'en'``
slice (any SQL-expressible predicate works), so the whole pipeline is
hash-matched against a DuckDB oracle that recomputes the hashes, the
smoothed distributions and the weights independently.

Determinism contract (cross-engine float parity): bucket log-ratios
are quantized to INTEGER nano-units (round(lr·1e9), both engines), so
every per-document weight is an ORDER-FREE exact int64 sum — immune to
the aggregation-order float drift a round-6 double sum suffers under
DuckDB's parallel hash aggregate — and the reported weight
(nanos / 1e9, |nanos| ≪ 2^53) is the identical double on both sides
with no final rounding.  The bucket hash is the low 10 bits of the
md5-top-8 token hash, which DuckDB reproduces from hex digits 14-16
of ``md5()`` (the low 12 bits of the 16-hex-char prefix).

Scale notes (100 TB): two scans of ``documents`` (inherent to DSIR —
estimate, then score).  Pass 1 emits ONE fixed-size partial row per
batch (two B-long int64 count vectors) merged by a two-level tree —
nothing keyed by document ever shuffles; the driver holds only 2·B
ints.  Pass 2 broadcasts the B-double log-ratio table in the task
closure and streams (doc_id, n_feats, weight) rows out; selection
reduces per-batch local top-k partials before one tiny global sort —
the full corpus is never sorted.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

NUM_BUCKETS = 1024
ALPHA = 1.0  # Laplace smoothing
TARGET_LANG = "en"


def _docs(sf_dir: str):
    from dude_ray.io import read_parquet_clean

    return read_parquet_clean(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "text", "lang"])


class _Featurizer:
    """Hashed unigram+bigram bucket ids for one document; md5 only on
    memo miss (web vocabularies repeat heavily — same memo discipline
    as dedup.Shingler).  Cached per worker PROCESS (not per actor) via
    :func:`_featurizer` so the stages can stay task-based: a fixed
    actor pool here would pin every CPU and starve the downstream
    repartition/merge tasks (observed deadlock at num_cpus=4)."""

    def __init__(self, n_buckets: int = NUM_BUCKETS):
        self.n = n_buckets
        self._memo: dict[str, int] = {}

    def _b(self, s: str) -> int:
        h = self._memo.get(s)
        if h is None:
            h = int.from_bytes(hashlib.md5(s.encode()).digest()[:8],
                               "big") % self.n
            if len(self._memo) < 1_000_000:
                self._memo[s] = h
        return h

    def buckets(self, text: str) -> np.ndarray:
        toks = (text or "").lower().split()
        bs = [self._b(t) for t in toks]
        bs.extend(self._b(toks[i] + " " + toks[i + 1])
                  for i in range(len(toks) - 1))
        return np.asarray(bs, dtype=np.int64)


_FEATURIZERS: dict[int, "_Featurizer"] = {}


def _featurizer(n_buckets: int) -> "_Featurizer":
    """Process-local featurizer memo — Ray reuses worker processes
    across task invocations, so the md5 memo warms exactly as an actor
    field would, without reserving the CPU between batches."""
    f = _FEATURIZERS.get(n_buckets)
    if f is None:
        f = _Featurizer(n_buckets)
        _FEATURIZERS[n_buckets] = f
    return f


def _bucket_counts(ds, n_buckets: int, batch_size: int):
    """Pass 1: (target_counts, raw_counts) over the whole corpus —
    fixed-size per-batch partials, two-level tree merge (the
    clustering._reduce_moments shape)."""

    def partial(batch: pa.Table) -> pa.Table:
        f = _featurizer(n_buckets)
        tc = np.zeros(n_buckets, dtype=np.int64)
        rc = np.zeros(n_buckets, dtype=np.int64)
        langs = batch["lang"].to_pylist()
        for text, lang in zip(batch["text"].to_pylist(), langs):
            bs = f.buckets(text)
            if not len(bs):
                continue
            cnt = np.bincount(bs, minlength=n_buckets)
            rc += cnt
            if lang == TARGET_LANG:
                tc += cnt
        return pa.table({"tc": pa.array([tc]), "rc": pa.array([rc])})

    def merge(t: pa.Table) -> pa.Table:
        if not len(t):
            return t
        return pa.table({
            "tc": pa.array([np.stack(t["tc"].to_pylist()).sum(axis=0)]),
            "rc": pa.array([np.stack(t["rc"].to_pylist()).sum(axis=0)]),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=batch_size)
    lvl1 = partials.repartition(8).map_batches(merge, batch_format="pyarrow",
                                               batch_size=None)
    row = lvl1.repartition(1).map_batches(merge, batch_format="pyarrow",
                                          batch_size=None).take_all()[0]
    return (np.asarray(row["tc"], dtype=np.int64),
            np.asarray(row["rc"], dtype=np.int64))


def _log_ratios(tc: np.ndarray, rc: np.ndarray,
                alpha: float = ALPHA) -> np.ndarray:
    """Smoothed bucket log-ratios ln p̂_b − ln q̂_b, quantized to int64
    NANO-units (see module determinism contract)."""
    B = len(tc)
    T, R = int(tc.sum()), int(rc.sum())
    lr = (np.log((tc + alpha) / (T + alpha * B))
          - np.log((rc + alpha) / (R + alpha * B)))
    return np.round(lr * 1e9).astype(np.int64)


def run_dsir_weights(sf_dir: str, n_buckets: int = NUM_BUCKETS,
                     batch_size: int = 2048):
    """Per-document DSIR importance log-weights:
    (doc_id, n_feats, weight).  Documents with no tokens have no
    features and are absent (matching the SQL oracle's inner
    aggregation)."""
    ds = _docs(sf_dir)
    tc, rc = _bucket_counts(ds, n_buckets, batch_size)
    lr = _log_ratios(tc, rc)

    def score(batch: pa.Table) -> pa.Table:
        f = _featurizer(n_buckets)
        ids, nf, ws = [], [], []
        for did, text in zip(batch["doc_id"].to_pylist(),
                             batch["text"].to_pylist()):
            bs = f.buckets(text)
            if not len(bs):
                continue
            cnt = np.bincount(bs, minlength=n_buckets)
            ids.append(did)
            nf.append(len(bs))
            ws.append(int(cnt @ lr) / 1e9)
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "n_feats": pa.array(nf, type=pa.int64()),
            "weight": pa.array(ws, type=pa.float64()),
        })

    return ds.map_batches(score, batch_format="pyarrow",
                          batch_size=batch_size)


def run_dsir_select(sf_dir: str, k: int = 256,
                    n_buckets: int = NUM_BUCKETS,
                    batch_size: int = 2048):
    """Top-``k`` documents by DSIR weight (ties broken by doc_id
    ascending) — the selection step.  Local top-k per batch first, so
    the global sort sees ≤ k·num_blocks rows, never the corpus."""
    ws = run_dsir_weights(sf_dir, n_buckets=n_buckets,
                          batch_size=batch_size)

    def local_top(batch: pa.Table) -> pa.Table:
        t = batch.select(["doc_id", "weight"])
        idx = pc.select_k_unstable(
            t, k, [("weight", "descending"), ("doc_id", "ascending")])
        return t.take(idx)

    top = (ws.map_batches(local_top, batch_format="pyarrow",
                          batch_size=8192)
             .sort(["weight", "doc_id"], descending=[True, False])
             .limit(k).to_pandas())
    top["rank"] = np.arange(1, len(top) + 1, dtype=np.int64)
    return top


def _sql_bucket(expr: str, n_buckets: int = NUM_BUCKETS) -> str:
    """SQL for the engine's bucket hash: md5-top-8 mod n_buckets.  For
    the default 1024 (2^10) buckets only hex digits 14-16 of the md5
    matter (the low 12 bits of the top-8-byte prefix), so a 3-char
    strpos fold suffices."""
    assert n_buckets == 1024, "SQL fold below hard-codes 2^10 buckets"
    digs = "0123456789abcdef"
    c = [f"(strpos('{digs}', substr(md5({expr}), {14 + i}, 1)) - 1)"
         for i in range(3)]
    return f"(({c[0]} * 256 + {c[1]} * 16 + {c[2]}) % {n_buckets})"


def dsir_weights_oracle_sql(n_buckets: int = NUM_BUCKETS,
                            alpha: float = ALPHA) -> str:
    """DuckDB oracle for :func:`run_dsir_weights`: independent
    recompute of the hashed features, the smoothed target/raw bucket
    distributions and every weight (int64 nano-unit log-ratios →
    order-free exact integer doc sums; see module contract)."""
    return f"""
        WITH toks AS (
          SELECT doc_id, lang, list_filter(
                   regexp_split_to_array(lower(coalesce(text, '')), '\\s+'),
                   x -> x <> '') AS w
          FROM documents
        ), uni AS (
          SELECT doc_id, lang, unnest(w) AS t FROM toks
        ), bi AS (
          SELECT doc_id, lang, unnest(
                   [w[i] || ' ' || w[i + 1]
                    for i in generate_series(1, len(w) - 1)]) AS t
          FROM toks WHERE len(w) >= 2
        ), feats AS (
          SELECT doc_id, lang, {_sql_bucket('t', n_buckets)} AS b
          FROM (SELECT * FROM uni UNION ALL SELECT * FROM bi)
        ), cnt AS (
          SELECT b,
                 count(*) FILTER (WHERE lang = '{TARGET_LANG}') AS tc,
                 count(*) AS rc
          FROM feats GROUP BY b
        ), tot AS (
          SELECT sum(tc) AS t_tot, sum(rc) AS r_tot FROM cnt
        ), lr AS (
          SELECT b,
                 CAST(round(
                   (ln((tc + {alpha}) / (t_tot + {alpha * n_buckets}))
                    - ln((rc + {alpha}) / (r_tot + {alpha * n_buckets})))
                   * 1000000000) AS BIGINT) AS lri
          FROM cnt CROSS JOIN tot
        ), dc AS (
          SELECT doc_id, b, count(*) AS c FROM feats GROUP BY doc_id, b
        )
        SELECT dc.doc_id,
               CAST(sum(dc.c) AS BIGINT) AS n_feats,
               CAST(sum(dc.c * lr.lri) AS DOUBLE) / 1000000000.0 AS weight
        FROM dc JOIN lr ON lr.b = dc.b
        GROUP BY dc.doc_id
    """


def dsir_select_oracle_sql(k: int = 256,
                           n_buckets: int = NUM_BUCKETS,
                           alpha: float = ALPHA) -> str:
    """Top-k selection over the weights oracle."""
    return f"""
        WITH w AS ({dsir_weights_oracle_sql(n_buckets, alpha)})
        SELECT doc_id, weight,
               row_number() OVER (ORDER BY weight DESC, doc_id) AS rank
        FROM w
        ORDER BY weight DESC, doc_id
        LIMIT {k}
    """
