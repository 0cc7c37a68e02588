"""Similarity search over the ``embeddings`` table.

* ``run_ann_topk`` — brute-force cosine top-k baseline: the (small)
  query matrix is broadcast via ``ray.put``; each batch does one numpy
  matmul against it and emits per-batch LOCAL top-k partials, so the
  final groupby only sees ``Q × k × num_batches`` rows, never the full
  score matrix (partial-aggregate discipline).
* ``run_ann_lsh`` — the scale path: random-hyperplane bucket
  signatures; each query searches only buckets within Hamming radius r
  of its own signature.  Approximate — recall is asserted against the
  brute-force baseline in tests.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from dude_ray.partitioning import hash_grouped_reduce
from dude_ray.pipelines.dedup import _popcount64


def _load_queries(sf_dir: str, num_queries: int):
    """The query set = the ``num_queries`` globally-lowest vec_ids,
    found distributed (per-batch local min-k → tiny sort+limit) — the
    driver only ever holds the Q query rows, never the embedding
    matrix."""
    import pyarrow.compute as pc

    from dude_ray.io import read_parquet_clean

    ds = read_parquet_clean(f"{sf_dir}/embeddings.parquet",
                            columns=["vec_id", "embedding"])

    def local_min(batch: pa.Table) -> pa.Table:
        idx = pc.select_k_unstable(batch, num_queries,
                                   [("vec_id", "ascending")])
        return batch.take(idx)

    rows = ds.map_batches(local_min, batch_format="pyarrow",
                          batch_size=8192).sort("vec_id") \
             .limit(num_queries).take_all()
    qids = np.asarray([r["vec_id"] for r in rows], dtype=np.int64)
    qmat = np.stack([np.asarray(r["embedding"], dtype=np.float64)
                     for r in rows])
    return qids, qmat


def _normalize(m: np.ndarray) -> np.ndarray:
    return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)


# -- integer-exact hyperplane signatures ------------------------------------
#
# Signatures are computed on INTEGER-quantized embeddings against
# INTEGER-valued random hyperplanes, so every dot product is a sum of
# integer-valued float64 terms < 2^36 ≪ 2^53 — exact in ANY summation
# order, hence bit-identical between numpy matmul and a DuckDB
# list_inner_product.  This is what lets the LSH bucket keys (and the
# candidate sets derived from them) be hash-matched against a SQL
# oracle instead of rows-only — the same determinism discipline as the
# inlined minhash permutations.  Sign semantics are unchanged from a
# float hyperplane (quantization perturbs each plane's offset by
# < 2^-20 relative — statistically the same random hyperplane family).

QUANT_SCALE = float(1 << 20)  # exact power-of-two float64 scale


def lsh_planes(d: int, n_bits: int, seed: int = 42) -> np.ndarray:
    """Deterministic integer hyperplanes, float64-valued.  The SQL
    oracle inlines exactly these values as literals."""
    rng = np.random.RandomState(seed)
    return rng.randint(-999, 1000, size=(d, n_bits)).astype(np.float64)


def quantized_signature(emb: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Bucket keys: quantize to integers (floor(x·2^20 + 0.5) — the
    quantize_embeddings exactness trick), dot with integer planes, pack
    the sign bits.  Exact in both engines."""
    q = np.floor(emb * QUANT_SCALE + 0.5)
    bits = (q @ planes) > 0
    return bits.dot(1 << np.arange(planes.shape[1], dtype=np.int64))


def quantize_sql(col: str = "embedding") -> str:
    """DuckDB expression for the integer quantization of a FLOAT[]
    column (name the result ``q`` in a CTE, then apply
    :func:`signature_sql`)."""
    return (f"list_transform(CAST({col} AS DOUBLE[]), "
            f"x -> floor(x * {QUANT_SCALE} + 0.5))")


def signature_sql(n_bits: int, d: int = 64, seed: int = 42,
                  qcol: str = "q") -> str:
    """DuckDB expression reproducing :func:`quantized_signature` over a
    quantized list column ``qcol`` — plane constants inlined (the
    testdata embeddings are 64-dim at every scale factor)."""
    planes = lsh_planes(d, n_bits, seed)
    return " + ".join(
        f"(CASE WHEN list_inner_product({qcol}, ["
        + ", ".join(str(v) for v in planes[:, j].astype(np.int64))
        + f"]) > 0 THEN {1 << j} ELSE 0 END)"
        for j in range(n_bits))


def _final_topk(k: int):
    def fn(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["sim", "vec_id"], ascending=[False, True]).head(k)
        g = g.copy()
        g["sim"] = g["sim"].round(4)
        g["rank"] = range(1, len(g) + 1)
        return g

    return fn


def run_ann_topk(sf_dir: str, num_queries: int = 5, k: int = 10):
    """Exact cosine top-k for queries = the first ``num_queries`` vec_ids
    (deterministic; ties broken by ascending vec_id).  Each batch scores
    against the broadcast query matrix and keeps a local top-k partial
    per query."""
    import ray

    qids, qmat = _load_queries(sf_dir, num_queries)
    ref = ray.put((qids, _normalize(qmat)))  # (Q,), (Q, d) normalized

    def brute_topk(batch: pa.Table) -> pa.Table:
        qids, qmat = ray.get(ref)
        vids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        emb = _normalize(np.stack(batch["embedding"].to_pylist()).astype(np.float64))
        sims = emb @ qmat.T  # (n, Q)
        out_q, out_v, out_s = [], [], []
        for qi, qid in enumerate(qids):
            col = sims[:, qi]
            mask = vids != qid
            cand_v, cand_s = vids[mask], col[mask]
            if len(cand_v) > k:
                idx = np.argpartition(-cand_s, k)[:k]
                cand_v, cand_s = cand_v[idx], cand_s[idx]
            out_q.extend([int(qid)] * len(cand_v))
            out_v.extend(int(v) for v in cand_v)
            out_s.extend(float(s) for s in cand_s)
        return pa.table({
            "query_id": pa.array(out_q, type=pa.int64()),
            "vec_id": pa.array(out_v, type=pa.int64()),
            "sim": pa.array(out_s, type=pa.float64()),
        })

    from dude_ray.io import read_parquet_clean

    ds = read_parquet_clean(f"{sf_dir}/embeddings.parquet",
                            columns=["vec_id", "embedding"])
    partials = ds.map_batches(brute_topk, batch_format="pyarrow",
                              batch_size=4096)
    return partials.groupby("query_id").map_groups(
        _final_topk(k), batch_format="pandas")


def run_ann_lsh(sf_dir: str, num_queries: int = 5, k: int = 10,
                n_bits: int = 12, radius: int = 2, seed: int = 42):
    """LSH-bucketed approximate top-k: candidates = vectors whose
    hyperplane signature is within Hamming ``radius`` of the query's.
    Signatures use the integer-exact scheme above, so the candidate set
    is bit-reproducible by :func:`ann_lsh_oracle_sql`."""
    import ray

    qids, qmat = _load_queries(sf_dir, num_queries)
    planes = lsh_planes(qmat.shape[1], n_bits, seed)
    ref = ray.put((qids, _normalize(qmat), planes,
                   quantized_signature(qmat, planes)))

    def lsh_topk(batch: pa.Table) -> pa.Table:
        qids, qmat, planes, qsig = ray.get(ref)
        vids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        raw = np.stack(batch["embedding"].to_pylist()).astype(np.float64)
        sig = quantized_signature(raw, planes)
        embb = _normalize(raw)
        sig_u64 = sig.astype(np.uint64)
        out_q, out_v, out_s = [], [], []
        for qi, qid in enumerate(qids):
            ham = _popcount64(sig_u64 ^ np.uint64(int(qsig[qi])))
            mask = (ham <= radius) & (vids != qid)
            cand_v = vids[mask]
            if len(cand_v) == 0:
                continue
            cand_s = embb[mask] @ qmat[qi]
            if len(cand_v) > k:
                idx = np.argpartition(-cand_s, k)[:k]
                cand_v, cand_s = cand_v[idx], cand_s[idx]
            out_q.extend([int(qid)] * len(cand_v))
            out_v.extend(int(v) for v in cand_v)
            out_s.extend(float(s) for s in cand_s)
        return pa.table({
            "query_id": pa.array(out_q, type=pa.int64()),
            "vec_id": pa.array(out_v, type=pa.int64()),
            "sim": pa.array(out_s, type=pa.float64()),
        })

    from dude_ray.io import read_parquet_clean

    ds = read_parquet_clean(f"{sf_dir}/embeddings.parquet",
                            columns=["vec_id", "embedding"])
    partials = ds.map_batches(lsh_topk, batch_format="pyarrow",
                              batch_size=4096)
    return partials.groupby("query_id").map_groups(
        _final_topk(k), batch_format="pandas")


def _kmeans(sample: np.ndarray, n_cells: int, iters: int = 10,
            seed: int = 42) -> np.ndarray:
    """Seeded mini k-means on a bounded training sample (spherical:
    rows and centroids L2-normalized, assignment by max dot)."""
    rng = np.random.RandomState(seed)
    cent = sample[rng.choice(len(sample), size=n_cells, replace=False)]
    cent = _normalize(cent)
    for _ in range(iters):
        assign = (sample @ cent.T).argmax(axis=1)
        for c in range(n_cells):
            members = sample[assign == c]
            if len(members):
                cent[c] = members.mean(axis=0)
        cent = _normalize(cent)
    return cent


def run_ann_ivf(sf_dir: str, num_queries: int = 5, k: int = 10,
                n_cells: int = 16, nprobe: int = 4, train_rows: int = 2048,
                seed: int = 42):
    """IVF approximate top-k — the coarse-quantizer scale path: a
    seeded k-means codebook is trained ONCE on a bounded sample
    (``Dataset.limit(train_rows)`` — the only driver materialization,
    fixed-size at any corpus scale), centroids are broadcast, and each
    batch scores only the vectors living in one of a query's ``nprobe``
    nearest cells.  Shuffle traffic stays at Q × k local partials per
    batch, like the brute-force baseline; recall vs brute force is
    asserted in tests."""
    import ray

    from dude_ray.io import read_parquet_clean

    ds = read_parquet_clean(f"{sf_dir}/embeddings.parquet",
                            columns=["vec_id", "embedding"])
    sample_df = ds.limit(train_rows).to_pandas()
    semb = _normalize(np.stack(sample_df["embedding"].to_numpy()))
    cent = _kmeans(semb, min(n_cells, len(semb)), seed=seed)

    # queries: the globally-lowest vec_ids via the same distributed
    # min-k every ANN entry point uses — the limit(train_rows) sample
    # above is ONLY the k-means training set (block order is not
    # guaranteed vec_id-ascending, so sampling queries from it would
    # silently diverge from run_ann_topk/run_ann_lsh)
    qids, qmat = _load_queries(sf_dir, num_queries)
    qmat = _normalize(qmat)
    qcells = np.argsort(-(qmat @ cent.T), axis=1)[:, :nprobe]  # (Q, nprobe)
    state = (qids, qmat, cent, qcells)
    state_ref = ray.put(state)

    def ivf_topk(batch: pa.Table) -> pa.Table:
        qids, qmat, cent, qcells = ray.get(state_ref)
        vids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        emb = _normalize(np.stack(
            batch["embedding"].to_pylist()).astype(np.float64))
        cells = (emb @ cent.T).argmax(axis=1)
        out_q, out_v, out_s = [], [], []
        for qi, qid in enumerate(qids):
            mask = np.isin(cells, qcells[qi]) & (vids != qid)
            cand_v = vids[mask]
            if not len(cand_v):
                continue
            cand_s = emb[mask] @ qmat[qi]
            if len(cand_v) > k:
                idx = np.argpartition(-cand_s, k)[:k]
                cand_v, cand_s = cand_v[idx], cand_s[idx]
            out_q.extend([int(qid)] * len(cand_v))
            out_v.extend(int(v) for v in cand_v)
            out_s.extend(float(s) for s in cand_s)
        return pa.table({
            "query_id": pa.array(out_q, type=pa.int64()),
            "vec_id": pa.array(out_v, type=pa.int64()),
            "sim": pa.array(out_s, type=pa.float64()),
        })

    partials = ds.map_batches(ivf_topk, batch_format="pyarrow",
                              batch_size=4096)
    return partials.groupby("query_id").map_groups(
        _final_topk(k), batch_format="pandas")


def _pq_books_and_luts(sample: np.ndarray, qmat_norm: np.ndarray,
                       m_subspaces: int, n_codes: int, seed: int):
    """Train the per-subspace codebooks and derive the INTEGER
    artifacts both engines share: ``qbooks`` (codewords quantized with
    the ``floor(x·2^20 + 0.5)`` exactness trick — every encode dot
    product becomes a sum of integer-valued float64 terms < 2^45,
    exact in any summation order) and ``lutq`` (the per-query
    query·codeword lookup tables, quantized to int64).  With both
    quantized, code assignment AND the ADC candidate ranking are pure
    integer arithmetic — bit-reproducible by a DuckDB oracle that
    inlines these constants, the same discipline as the hyperplane-LSH
    signatures above."""
    d = sample.shape[1]
    assert d % m_subspaces == 0
    sub = d // m_subspaces
    books = np.stack([
        _kmeans(np.ascontiguousarray(sample[:, j * sub:(j + 1) * sub]),
                min(n_codes, len(sample)), seed=seed + j)
        for j in range(m_subspaces)
    ])  # (m, n_codes, sub) — _kmeans L2-normalizes centroids, fine for
    # lookup tables (the dot decomposes per subspace)
    qbooks = np.floor(books * QUANT_SCALE + 0.5)  # integer-valued f64
    luts = np.einsum("qjd,jcd->qjc",
                     qmat_norm.reshape(len(qmat_norm), m_subspaces, sub),
                     books)
    lutq = np.floor(luts * QUANT_SCALE + 0.5).astype(np.int64)
    return qbooks, lutq


def run_ann_pq(sf_dir: str, num_queries: int = 5, k: int = 10,
               m_subspaces: int = 8, n_codes: int = 128,
               train_rows: int = 2048, rerank: int = 100,
               seed: int = 42):
    """Product-quantization approximate top-k — the memory-bound scale
    path: vectors are compressed to ``m`` small codes each (d=64
    floats → 8 codes, 32×), query-vs-code scores come from per-query
    lookup tables (integer gathers per batch — no float matmul against
    the corpus), the globally best ``rerank`` candidates by ADC score
    are exactly re-scored from the raw vectors, and the final top-k is
    taken from those true cosines.  Codebooks are trained once on a
    bounded sample (the IVF discipline: fixed driver cost at any
    corpus size) and broadcast.

    The candidate cut is BATCH-INVARIANT: each batch emits its local
    top-``rerank`` by the total order (adc DESC, vec_id ASC) — a
    guaranteed superset of the global top-``rerank`` under the same
    order — and the per-query reduce re-applies the identical cut, so
    the result is independent of block/batch boundaries.  Encode and
    ADC are integer-exact (see :func:`_pq_books_and_luts`), which is
    what lets :func:`ann_pq_oracle_sql` reproduce the ENTIRE pipeline,
    approximation included, in DuckDB.

    Recall vs the brute-force baseline is asserted in tests."""
    import ray

    from dude_ray.io import read_parquet_clean

    ds = read_parquet_clean(f"{sf_dir}/embeddings.parquet",
                            columns=["vec_id", "embedding"])
    sample = _normalize(np.stack(
        ds.limit(train_rows).to_pandas()["embedding"].to_numpy()))
    qids, qmat = _load_queries(sf_dir, num_queries)
    qmat = _normalize(qmat)
    qbooks, lutq = _pq_books_and_luts(sample, qmat, m_subspaces,
                                      n_codes, seed)
    state_ref = ray.put((qids, qmat, qbooks, lutq))

    def pq_topk(batch: pa.Table) -> pa.Table:
        qids, qmat, qbooks, lutq = ray.get(state_ref)
        vids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        raw = np.stack(batch["embedding"].to_pylist()).astype(np.float64)
        n = len(vids)
        m, _nc, sub_d = qbooks.shape
        # encode on the quantized RAW vector (argmax over codewords
        # is invariant to the vector's positive scale, so skipping
        # normalization keeps the quantization exact on both
        # engines — raw parquet floats times 2^20 are exact f64)
        qv = np.floor(raw * QUANT_SCALE + 0.5).reshape(n, m, sub_d)
        codes = np.stack([
            (qv[:, j] @ qbooks[j].T).argmax(axis=1)
            for j in range(m)
        ], axis=1)  # (n, m) — ties to the lowest codeword
        embn = _normalize(raw)
        out = {"query_id": [], "vec_id": [], "adc": [], "sim": []}
        for qi, qid in enumerate(qids):
            # ADC score = Σ_j lutq[j, code_j]  — int64, exact
            adc = lutq[qi][np.arange(m)[None, :], codes].sum(axis=1)
            mask = vids != qid
            cand = np.nonzero(mask)[0]
            if not len(cand):
                continue
            # local top-rerank by the shared (adc DESC, vid ASC)
            # total order — superset of the global cut
            order = np.lexsort((vids[cand], -adc[cand]))
            top = cand[order[:rerank]]
            exact = embn[top] @ qmat[qi]
            out["query_id"].extend([int(qid)] * len(top))
            out["vec_id"].extend(int(v) for v in vids[top])
            out["adc"].extend(int(a) for a in adc[top])
            out["sim"].extend(float(s) for s in exact)
        return pa.table({
            "query_id": pa.array(out["query_id"], type=pa.int64()),
            "vec_id": pa.array(out["vec_id"], type=pa.int64()),
            "adc": pa.array(out["adc"], type=pa.int64()),
            "sim": pa.array(out["sim"], type=pa.float64()),
        })

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["adc", "vec_id"],
                          ascending=[False, True]).head(rerank)
        g = g.sort_values(["sim", "vec_id"],
                          ascending=[False, True]).head(k).copy()
        g["sim"] = g["sim"].round(4)
        g["rank"] = range(1, len(g) + 1)
        return g.drop(columns=["adc"])

    partials = ds.map_batches(pq_topk, batch_format="pyarrow",
                              batch_size=4096)
    return partials.groupby("query_id").map_groups(
        final, batch_format="pandas")


def ann_pq_oracle_sql(sf_dir: str | None = None, num_queries: int = 5,
                      k: int = 10, m_subspaces: int = 8, n_codes: int = 128,
                      train_rows: int = 2048, rerank: int = 100,
                      seed: int = 42) -> str:
    """DuckDB oracle for :func:`run_ann_pq` — the ENTIRE approximate
    pipeline recomputed independently: the quantized codebooks and
    per-query integer LUTs are retrained here (same seeded
    :func:`_kmeans`, independent of Ray — the ann_ivf inlined-constants
    pattern) and inlined as VALUES; DuckDB then recomputes every code
    assignment (integer argmax, ties to the lowest codeword), the
    integer ADC ranking with its global top-``rerank`` cut, and the
    exact raw-cosine rerank under the shared 4-dp / (sim DESC, vec_id
    ASC) contract.  ``sf_dir`` defaults to the driver's gate scale
    (override via ``GRAFT_ORACLE_SF``)."""
    import os

    import pyarrow.parquet as pq

    sf_dir = sf_dir or os.environ.get("GRAFT_ORACLE_SF",
                                      "/root/testdata/sf0.01")
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    emb = np.stack(t["embedding"].to_pylist()).astype(np.float64)
    sample = _normalize(emb[:train_rows])
    vids = t["vec_id"].to_numpy()
    order = np.argsort(vids)[:num_queries]
    qids = vids[order]
    qmat = _normalize(emb[order])
    qbooks, lutq = _pq_books_and_luts(sample, qmat, m_subspaces,
                                      n_codes, seed)
    m, nc, sub = qbooks.shape

    qb_sql = ",".join(
        "(%d, %d, [%s])" % (j, c,
                            ",".join(str(int(x)) for x in qbooks[j, c]))
        for j in range(m) for c in range(nc))
    lut_sql = ",".join(
        f"({int(qids[qi])}, {j}, {c}, {int(lutq[qi, j, c])})"
        for qi in range(len(qids)) for j in range(m) for c in range(nc))
    return f"""
        WITH qb(j, c, b) AS (VALUES {qb_sql}),
        lut(query_id, j, c, w) AS (VALUES {lut_sql}),
        q AS (
            SELECT vec_id AS query_id, embedding AS qe FROM embeddings
            ORDER BY vec_id LIMIT {num_queries}
        ), qv AS (
            SELECT vec_id, {quantize_sql()} AS qvec FROM embeddings
        ), codes AS (
            SELECT vec_id, j, c FROM (
                SELECT v.vec_id, b.j, b.c,
                       list_inner_product(
                           list_slice(v.qvec, b.j * {sub} + 1,
                                      (b.j + 1) * {sub}), b.b) AS d
                FROM qv v CROSS JOIN qb b
            )
            QUALIFY row_number() OVER (
                PARTITION BY vec_id, j ORDER BY d DESC, c ASC) = 1
        ), adc AS (
            SELECT l.query_id, co.vec_id, sum(l.w) AS adc
            FROM codes co JOIN lut l ON l.j = co.j AND l.c = co.c
            WHERE co.vec_id <> l.query_id
            GROUP BY 1, 2
        ), cand AS (
            SELECT query_id, vec_id FROM adc
            QUALIFY row_number() OVER (
                PARTITION BY query_id
                ORDER BY adc DESC, vec_id ASC) <= {rerank}
        ), scored AS (
            SELECT c.query_id, c.vec_id,
                   list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                          CAST(e.embedding AS DOUBLE[]))
                       AS raw_sim
            FROM cand c
            JOIN q ON q.query_id = c.query_id
            JOIN embeddings e ON e.vec_id = c.vec_id
        )
        SELECT query_id, vec_id, round(raw_sim, 4) AS sim,
               CAST(row_number() OVER (
                   PARTITION BY query_id
                   ORDER BY raw_sim DESC, vec_id ASC) AS BIGINT) AS rank
        FROM scored
        QUALIFY rank <= {k}
    """


def ann_lsh_oracle_sql(num_queries: int = 5, k: int = 10,
                       n_bits: int = 12, radius: int = 2,
                       seed: int = 42) -> str:
    """DuckDB oracle for :func:`run_ann_lsh` — the ENTIRE approximate
    pipeline recomputed independently: integer-quantized hyperplane
    signatures (plane constants inlined, arithmetic exact on both
    sides), the Hamming-radius candidate semi-join via
    bit_count(xor()), then the same raw-cosine top-k / 4-dp rounding
    contract as the ann_topk oracle."""
    return f"""
        WITH sig AS (
            SELECT vec_id, embedding,
                   {signature_sql(n_bits, seed=seed)} AS key
            FROM (SELECT vec_id, embedding,
                         {quantize_sql()} AS q
                  FROM embeddings)
        ), q AS (
            SELECT vec_id AS query_id, embedding AS qe, key AS qkey
            FROM sig ORDER BY vec_id LIMIT {num_queries}
        ), cand AS (
            SELECT q.query_id, s.vec_id,
                   list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                          CAST(s.embedding AS DOUBLE[]))
                       AS raw_sim
            FROM q JOIN sig s
              ON s.vec_id <> q.query_id
             AND bit_count(xor(s.key, q.qkey)) <= {radius}
        )
        SELECT query_id, vec_id, round(raw_sim, 4) AS sim,
               CAST(row_number() OVER (
                   PARTITION BY query_id
                   ORDER BY raw_sim DESC, vec_id ASC) AS BIGINT) AS rank
        FROM cand
        QUALIFY rank <= {k}
    """


def ann_ivf_oracle_sql(sf_dir: str | None = None, num_queries: int = 5,
                       k: int = 10, n_cells: int = 16, nprobe: int = 4,
                       train_rows: int = 2048, seed: int = 42) -> str:
    """DuckDB oracle for :func:`run_ann_ivf` — the codebook is
    deterministic given the seeded sample (trained here single-process
    with the same :func:`_kmeans`, independent of Ray — the
    pca_oracle_sql inlined-constants pattern), so the centroids and
    each query's nprobe probe cells are INLINED and DuckDB recomputes
    every cell assignment (argmax cosine, ties to the lowest cell),
    the probe semi-join and the exact top-k with the shared 4-dp
    contract.  ``sf_dir`` defaults to the driver's gate scale
    (override via ``GRAFT_ORACLE_SF``)."""
    import os

    import pyarrow.parquet as pq

    sf_dir = sf_dir or os.environ.get("GRAFT_ORACLE_SF",
                                      "/root/testdata/sf0.01")
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    emb = np.stack(t["embedding"].to_pylist()).astype(np.float64)
    semb = _normalize(emb[:train_rows])
    cent = _kmeans(semb, min(n_cells, len(semb)), seed=seed)

    vids = t["vec_id"].to_numpy()
    order = np.argsort(vids)[:num_queries]
    qids = vids[order]
    qmat = _normalize(emb[order])
    qcells = np.argsort(-(qmat @ cent.T), axis=1)[:, :nprobe]

    cent_sql = ",".join(
        "(%d, [%s])" % (j, ",".join(repr(float(x)) for x in cent[j]))
        for j in range(len(cent)))
    probe_sql = ",".join(
        f"({int(qids[qi])}, {int(c)})"
        for qi in range(len(qids)) for c in qcells[qi])
    return f"""
        WITH cent(j, c) AS (VALUES {cent_sql}),
        probe(query_id, j) AS (VALUES {probe_sql}),
        q AS (
            SELECT vec_id AS query_id, embedding AS qe FROM embeddings
            ORDER BY vec_id LIMIT {num_queries}
        ), assign AS (
            SELECT e.vec_id, e.embedding,
                   (SELECT j FROM cent
                    ORDER BY list_cosine_similarity(
                        CAST(e.embedding AS DOUBLE[]), c) DESC, j ASC
                    LIMIT 1) AS cell
            FROM embeddings e
        ), cand AS (
            SELECT p.query_id, a.vec_id,
                   list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                          CAST(a.embedding AS DOUBLE[]))
                       AS raw_sim
            FROM assign a
            JOIN probe p ON a.cell = p.j
            JOIN q ON q.query_id = p.query_id
            WHERE a.vec_id <> p.query_id
        )
        SELECT query_id, vec_id, round(raw_sim, 4) AS sim,
               CAST(row_number() OVER (
                   PARTITION BY query_id
                   ORDER BY raw_sim DESC, vec_id ASC) AS BIGINT) AS rank
        FROM cand
        QUALIFY rank <= {k}
    """


# --------------------------------------------------------------------------
# exact k-nearest-neighbor graph (blocked all-pairs)
# --------------------------------------------------------------------------

class _BlockKnnJoin:
    """Pair-join stage for the exact kNN-graph scan — the same
    row-group-keyed per-task LRU block layout as dedup._BlockPairJoin
    (as a task stage it beat an actor pool: 7.96 → 5.13 s warm at 48
    row groups, 2.50 → 1.49 s at 16, 2,000 vectors, 4-CPU session), but
    the per-pair output is a tie-safe local top-k PARTIAL per source
    vector instead of a thresholded pair set: every source row keeps
    all candidates whose raw cosine ties-or-beats its k-th best in the
    opposite block, so the global groupby reduce sees a guaranteed
    superset of the true top-k (ties at the boundary are resolved
    there by the shared (sim DESC, dst ASC) contract, never dropped by
    an arbitrary argpartition cut)."""

    CACHE = 16

    def __init__(self, k: int):
        self.k = k
        self._cache: dict = {}

    def _block(self, path: str, rg: int):
        import pyarrow.parquet as pq

        key = (path, rg)
        hit = self._cache.pop(key, None)
        if hit is None:
            t = pq.ParquetFile(path).read_row_group(
                rg, columns=["vec_id", "embedding"])
            vid = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            emb = np.stack(t["embedding"].to_pylist()).astype(np.float64)
            emb = _normalize(emb)
            hit = (vid, emb)
            if len(self._cache) >= self.CACHE:
                self._cache.pop(next(iter(self._cache)))
        self._cache[key] = hit
        return hit

    def _side(self, svid, sims, dvid, out):
        """Emit, for every source row, all dst whose sim >= its k-th
        largest (the tie-inclusive local top-k partial)."""
        n_dst = sims.shape[1]
        if n_dst == 0:
            return
        kk = min(self.k, n_dst)
        thresh = -np.partition(-sims, kk - 1, axis=1)[:, kk - 1]
        ii, jj = np.nonzero(sims >= thresh[:, None])
        out[0].append(svid[ii])
        out[1].append(dvid[jj])
        out[2].append(sims[ii, jj])

    def __call__(self, batch: pa.Table) -> pa.Table:
        out: tuple = ([], [], [])
        for row in batch.to_pylist():
            avid, amat = self._block(row["a_file"], row["a_rg"])
            bvid, bmat = self._block(row["b_file"], row["b_rg"])
            sims = amat @ bmat.T
            if row["same"]:
                np.fill_diagonal(sims, -np.inf)  # no self-edges
                self._side(avid, sims, bvid, out)
            else:
                self._side(avid, sims, bvid, out)
                self._side(bvid, sims.T, avid, out)
        cat = lambda xs, dt: (np.concatenate(xs) if xs
                              else np.array([], dtype=dt))
        return pa.table({
            "src": pa.array(cat(out[0], np.int64), type=pa.int64()),
            "dst": pa.array(cat(out[1], np.int64), type=pa.int64()),
            "raw_sim": pa.array(cat(out[2], np.float64), type=pa.float64()),
        })


def run_knn_graph(sf_dir: str, k: int = 5):
    """EXACT cosine k-nearest-neighbor graph over the whole
    ``embeddings`` table — the corpus-curation building block (SemDeDup
    neighborhoods, graph-density pruning, label propagation all consume
    this artifact).  Output: (src, dst, sim, rank), rank 1..k per src
    by (raw cosine DESC, dst ASC), sim rounded to the 4-dp cross-engine
    contract shared with the ann_topk oracle.

    Scale shape: identical to run_embedding_neardup_exact — parquet row
    groups are the blocks, the driver enumerates the B·(B+1)/2 block
    pairs (footer metadata only), a task stage streams block pairs
    from storage (LRU-cached, nothing transits the driver) and emits
    tie-inclusive per-source local top-k partials, so the final
    groupby(src) shuffles ~n·k·B rows rather than n² scores.  The work
    is inherently O(n²) — that is the exact-graph contract; the
    LSH/IVF entry points are the approximate scale path."""
    import ray.data as rd

    from dude_ray.partitioning import parquet_row_groups

    blocks = parquet_row_groups(f"{sf_dir}/embeddings.parquet")
    items = []
    for i, (fa, ra, _na) in enumerate(blocks):
        for fb, rb, _nb in blocks[i:]:
            items.append({"a_file": fa, "a_rg": ra, "b_file": fb,
                          "b_rg": rb, "same": (fa, ra) == (fb, rb)})
    partials = rd.from_items(items).map_batches(
        _BlockKnnJoin(k), batch_format="pyarrow", batch_size=4)

    def final(t: pa.Table) -> pa.Table:
        """Per-src top-k inside the hash bucket — a per-vector Ray
        group would mean millions of tiny groups at scale (the
        substring_dup lesson); here one vectorized pandas groupby
        handles the whole bucket."""
        df = t.to_pandas().sort_values(["src", "raw_sim", "dst"],
                            ascending=[True, False, True],
                            kind="mergesort")
        df["rank"] = df.groupby("src", sort=False).cumcount() + 1
        df = df[df["rank"] <= k]
        return pa.table({
            "src": df["src"].to_numpy(dtype=np.int64),
            "dst": df["dst"].to_numpy(dtype=np.int64),
            "sim": np.round(df["raw_sim"].to_numpy(dtype=np.float64), 4),
            "rank": df["rank"].to_numpy(dtype=np.int64),
        })

    n_blocks = len(blocks)
    n_rows_est = sum(nb for _f, _rg, nb in blocks) * k * max(n_blocks, 1)
    return hash_grouped_reduce(partials, "src", final, n_rows_est,
                               out_cols=("src", "dst", "sim", "rank"))


def knn_graph_oracle_sql(k: int = 5) -> str:
    """DuckDB oracle for :func:`run_knn_graph`: brute-force all-pairs
    cosine + row_number, the exact (raw DESC, dst ASC) / 4-dp rounding
    contract the engine's final reduce applies."""
    return f"""
        WITH cand AS (
            SELECT a.vec_id AS src, b.vec_id AS dst,
                   list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                          CAST(b.embedding AS DOUBLE[]))
                       AS raw_sim
            FROM embeddings a JOIN embeddings b
              ON a.vec_id <> b.vec_id
        )
        SELECT src, dst, round(raw_sim, 4) AS sim,
               CAST(row_number() OVER (
                   PARTITION BY src
                   ORDER BY raw_sim DESC, dst ASC) AS BIGINT) AS rank
        FROM cand
        QUALIFY rank <= {k}
    """


# --------------------------------------------------------------------------
# ANN recall evaluation (approximate vs exact top-k)
# --------------------------------------------------------------------------

def run_ann_recall(sf_dir: str, num_queries: int = 5, k: int = 10,
                   n_bits: int = 12, radius: int = 2, seed: int = 42):
    """Recall@k of the LSH approximate path against the exact
    brute-force scan — the evaluation loop every ANN deployment runs
    before trusting the index.

    Plan (the 100 TB shape): both inputs are the already-distributed
    pipelines (:func:`run_ann_lsh`, :func:`run_ann_topk`); their
    outputs are ``num_queries × k`` rows — CONSTANTS — so the final
    set intersection happens on collected frames, which is the
    correct tier (same rule as the graph planner's driver tier:
    bounded state may centralize).

    Float contract: ``recall = n_hits / n_exact`` is one IEEE
    division of exact int64 counts."""
    exact = run_ann_topk(sf_dir, num_queries=num_queries, k=k).to_pandas()
    approx = run_ann_lsh(sf_dir, num_queries=num_queries, k=k,
                         n_bits=n_bits, radius=radius,
                         seed=seed).to_pandas()
    hit = exact.merge(approx[["query_id", "vec_id"]],
                      on=["query_id", "vec_id"], how="left",
                      indicator=True)
    g = hit.groupby("query_id", sort=True).agg(
        n_exact=("vec_id", "size"),
        n_hits=("_merge", lambda s: int((s == "both").sum()))
    ).reset_index()
    return pd.DataFrame({
        "query_id": g["query_id"].astype("int64"),
        "n_exact": g["n_exact"].astype("int64"),
        "n_hits": g["n_hits"].astype("int64"),
        "recall": (g["n_hits"].to_numpy(dtype=np.float64)
                   / g["n_exact"].to_numpy(dtype=np.float64)),
    })


def ann_recall_oracle_sql(num_queries: int = 5, k: int = 10,
                          n_bits: int = 12, radius: int = 2,
                          seed: int = 42) -> str:
    """DuckDB oracle for :func:`run_ann_recall` — both the exact and
    the approximate top-k recomputed independently as derived tables,
    then the intersection counted per query."""
    lsh = ann_lsh_oracle_sql(num_queries=num_queries, k=k,
                             n_bits=n_bits, radius=radius, seed=seed)
    return f"""
        WITH exact AS (
            WITH q AS (
                SELECT vec_id AS query_id, embedding AS qe
                FROM embeddings ORDER BY vec_id LIMIT {num_queries}
            ), scored AS (
                SELECT q.query_id, e.vec_id,
                       CAST(list_cosine_similarity(q.qe, e.embedding)
                            AS DOUBLE) AS raw_sim
                FROM q JOIN embeddings e ON e.vec_id <> q.query_id
            )
            SELECT query_id, vec_id FROM scored
            QUALIFY row_number() OVER (
                PARTITION BY query_id
                ORDER BY raw_sim DESC, vec_id ASC) <= {k}
        ), approx AS ({lsh})
        SELECT e.query_id,
               count(*) AS n_exact,
               CAST(sum(CASE WHEN a.vec_id IS NOT NULL THEN 1 ELSE 0
                        END) AS BIGINT) AS n_hits,
               CAST(sum(CASE WHEN a.vec_id IS NOT NULL THEN 1 ELSE 0
                        END) AS DOUBLE) / count(*) AS recall
        FROM exact e LEFT JOIN approx a
          ON a.query_id = e.query_id AND a.vec_id = e.vec_id
        GROUP BY e.query_id
        ORDER BY e.query_id
    """


# --------------------------------------------------------------------------
# leave-one-out 1-NN label accuracy (embedding-quality eval)
# --------------------------------------------------------------------------

def run_knn_accuracy(sf_dir: str, num_partitions: int = 4):
    """Leave-one-out 1-nearest-neighbor classification accuracy per
    label over the ``embeddings`` table: each vector is "classified"
    by its nearest other vector's label, and the per-label hit rate
    — (label, n, n_correct, acc) — is the standard geometric-quality
    eval of an embedding space (high 1-NN accuracy ⟺ labels form
    coherent neighborhoods; the supervised twin of
    :func:`run_ann_recall`).

    Plan (the 100 TB shape): the neighbor edges come from
    :func:`run_knn_graph` with k = 1 (block-pair streaming, per-source
    local top-k partials — never n² scores through the shuffle); the
    two label lookups are distributed hash joins against the
    column-pruned (vec_id, label) projection; the accuracy table is a
    fixed-|labels| tree merge.  Float contract: acc is one IEEE
    division of exact int64 counts, rounded 6 dp."""
    import pyarrow.compute as pc

    from dude_ray.io import read_parquet_clean
    from dude_ray.pipelines.relational import _py_round, tree_combine

    agg_args = {"num_cpus": 0}
    nn = run_knn_graph(sf_dir, k=1).materialize()
    labels = read_parquet_clean(f"{sf_dir}/embeddings.parquet",
                                columns=["vec_id", "label"])
    la = labels.map_batches(
        lambda t: pa.table({"a_id": t["vec_id"],
                            "label": pc.cast(t["label"], pa.int64())}),
        batch_format="pyarrow").materialize()
    lb = labels.map_batches(
        lambda t: pa.table({"b_id": t["vec_id"],
                            "pred": pc.cast(t["label"], pa.int64())}),
        batch_format="pyarrow").materialize()

    j = nn.join(la, "inner", num_partitions, on=("src",),
                right_on=("a_id",), aggregator_ray_remote_args=agg_args)
    j = j.materialize().join(lb, "inner", num_partitions, on=("dst",),
                             right_on=("b_id",),
                             aggregator_ray_remote_args=agg_args)

    def _partial(t: pa.Table) -> pa.Table:
        lab = t["label"].to_numpy(zero_copy_only=False)
        pred = t["pred"].to_numpy(zero_copy_only=False)
        tt = pa.table({
            "label": pa.array(lab),
            "n": pa.array(np.ones(len(lab), dtype=np.int64)),
            "n_correct": pa.array((lab == pred).astype(np.int64)),
        })
        g = tt.group_by(["label"]).aggregate([("n", "sum"),
                                              ("n_correct", "sum")])
        return pa.table({"label": g["label"], "n": g["n_sum"],
                         "n_correct": g["n_correct_sum"]})

    merged = tree_combine(
        j.map_batches(_partial, batch_format="pyarrow",
                      batch_size=65536),
        ["label"], sums=("n", "n_correct"))

    def finalize(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        c = t["n_correct"].to_numpy(zero_copy_only=False)
        return pa.table({
            "label": t["label"], "n": t["n"], "n_correct": t["n_correct"],
            "acc": _py_round(pa.array((c * 1.0) / n, type=pa.float64()),
                             6)})

    return merged.map_batches(finalize, batch_format="pyarrow",
                              batch_size=None).sort("label")


def knn_accuracy_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_knn_accuracy`: the exact 1-NN
    graph of :func:`knn_graph_oracle_sql` with both label joins and
    the same count ratio."""
    return f"""
        WITH g AS ({knn_graph_oracle_sql(k=1)})
        SELECT CAST(la.label AS BIGINT) AS label,
               CAST(count(*) AS BIGINT) AS n,
               CAST(sum(CASE WHEN lb.label = la.label
                        THEN 1 ELSE 0 END) AS BIGINT) AS n_correct,
               round(sum(CASE WHEN lb.label = la.label
                         THEN 1 ELSE 0 END) * 1.0 / count(*), 6) AS acc
        FROM g
        JOIN embeddings la ON la.vec_id = g.src
        JOIN embeddings lb ON lb.vec_id = g.dst
        GROUP BY 1 ORDER BY 1
    """
