"""Distributed document clustering over the ``embeddings`` table.

Two entry points:

* ``run_kmeans_assign`` — one nearest-centroid assignment step against
  a deterministic seed codebook (the embeddings of the ``k`` lowest
  vec_ids).  Exact and SQL-expressible, so it hash-matches a DuckDB
  oracle (cross join × argmax via ``list_cosine_similarity``); it is
  the correctness anchor for the kernel the iterative path reuses.
* ``run_kmeans_cluster`` — full distributed Lloyd's iterations
  (spherical k-means: rows and centroids L2-normalized, assignment by
  max dot).  Per iteration: centroids broadcast once via ``ray.put``;
  each batch emits ONE partial row per touched cluster (count +
  d-dim sum); a ``groupby(cluster).map_groups`` reduce merges the
  partials so only ``k × num_blocks`` fixed-width rows ever shuffle
  and the driver only holds the k × d codebook — never a vector of
  the input.  Verified in tests against a local numpy reference with
  the identical update rule (same init, same rounding).

Scale notes (100 TB): the corpus is re-scanned once per iteration
(inherent to Lloyd's); all shuffle traffic is k·blocks partial rows of
d float64s; the codebook (k × d) is the only driver state.  Skewed
cluster sizes don't skew tasks — partials are per-batch, the reduce
per cluster merges #blocks rows regardless of member counts.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from dude_ray.pipelines.similarity import _load_queries, _normalize


def _emb(sf_dir: str):
    from dude_ray.io import read_parquet_clean

    return read_parquet_clean(f"{sf_dir}/embeddings.parquet",
                              columns=["vec_id", "embedding"])


def _batch_mat(batch: pa.Table):
    vids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
    emb = _normalize(np.stack(
        batch["embedding"].to_pylist()).astype(np.float64))
    return vids, emb


def _assign_table(vids, emb, cent_ids, cent) -> pa.Table:
    """argmax over ROUNDED (4 dp) cosine, ties → lowest centroid id;
    the rounding is shared with the DuckDB oracle so boundary points
    cannot flip on float noise (same convention as
    dedup._BlockPairJoin, dedup.py:650)."""
    sims = np.round(emb @ cent.T, 4)  # (n, k)
    best = sims.argmax(axis=1)        # first max = lowest centroid index
    return pa.table({
        "vec_id": pa.array(vids, type=pa.int64()),
        "cluster_id": pa.array(cent_ids[best], type=pa.int64()),
        "sim": pa.array(sims[np.arange(len(vids)), best],
                        type=pa.float64()),
    })


def run_kmeans_assign(sf_dir: str, k: int = 8):
    """Nearest-centroid assignment to the seed codebook (embeddings of
    the k globally-lowest vec_ids, found distributed).  cluster_id is
    the centroid's vec_id.  Hash-matched against a DuckDB
    cross-join/argmax oracle."""
    import ray

    cent_ids, cmat = _load_queries(sf_dir, k)
    ref = ray.put((cent_ids, _normalize(cmat)))

    def assign(batch: pa.Table) -> pa.Table:
        vids, emb = _batch_mat(batch)
        return _assign_table(vids, emb, *ray.get(ref))

    return _emb(sf_dir).map_batches(assign, batch_format="pyarrow",
                                    batch_size=4096)


def _merge_partials(g: pd.DataFrame) -> pd.DataFrame:
    """Reduce one cluster's per-batch partials to a single row."""
    vecs = np.stack(g["vec_sum"].to_numpy())
    return pd.DataFrame({
        "cluster": [int(g["cluster"].iloc[0])],
        "count": [int(g["count"].sum())],
        "vec_sum": [vecs.sum(axis=0)],
    })


def kmeans_iterate(ds, cent: np.ndarray, iters: int,
                   batch_size: int = 4096):
    """Run ``iters`` Lloyd's update passes over ``ds`` starting from
    ``cent`` (already L2-normalized); returns the final codebook.
    Empty clusters keep their previous centroid (standard Lloyd's
    fallback, deterministic).

    Cross-engine determinism contract: every codebook (seed included)
    is rounded to 9 dp after normalization.  Summation order differs
    between distributed partials, the numpy reference and a SQL engine
    (~1e-15 relative drift); rounding at 1e-9 absorbs it, so the DuckDB
    unrolled-CTE oracle reproduces the exact codebook trajectory."""
    import ray

    k = len(cent)
    cent = np.round(cent, 9)
    for _ in range(iters):
        ref = ray.put(cent)

        def partial(batch: pa.Table) -> pa.Table:
            c = ray.get(ref)
            _vids, emb = _batch_mat(batch)
            assign = np.round(emb @ c.T, 4).argmax(axis=1)
            clusters = np.unique(assign)
            return pa.table({
                "cluster": pa.array(clusters, type=pa.int64()),
                "count": pa.array(
                    [int((assign == ci).sum()) for ci in clusters],
                    type=pa.int64()),
                "vec_sum": pa.array(
                    [emb[assign == ci].sum(axis=0) for ci in clusters]),
            })

        rows = (ds.map_batches(partial, batch_format="pyarrow",
                               batch_size=batch_size)
                  .groupby("cluster")
                  .map_groups(_merge_partials, batch_format="pandas")
                  .take_all())  # ≤ k rows — the codebook update
        new_cent = cent.copy()
        for r in rows:
            ci = int(r["cluster"])
            if r["count"]:
                new_cent[ci] = np.asarray(r["vec_sum"]) / r["count"]
        cent = np.round(_normalize(new_cent), 9)
    return cent


def run_kmeans_cluster(sf_dir: str, k: int = 8, iters: int = 5,
                       batch_size: int = 4096):
    """Full spherical k-means: deterministic seed codebook (k lowest
    vec_ids), ``iters`` distributed Lloyd's passes, then a final
    assignment pass.  Output: (vec_id, cluster_id ∈ [0, k), sim).
    Tested against a local numpy reference (identical init and update
    rule) — centroids agree to 1e-8 and assignments exactly."""
    import ray

    _seed_ids, cmat = _load_queries(sf_dir, k)
    cent = kmeans_iterate(_emb(sf_dir), _normalize(cmat), iters,
                          batch_size=batch_size)
    ref = ray.put(cent)
    idx = np.arange(k, dtype=np.int64)

    def final(batch: pa.Table) -> pa.Table:
        vids, emb = _batch_mat(batch)
        return _assign_table(vids, emb, idx, ray.get(ref))

    return _emb(sf_dir).map_batches(final, batch_format="pyarrow",
                                    batch_size=batch_size)


def run_semdedup(sf_dir: str, k: int = 8, iters: int = 5,
                 threshold: float = 0.35, batch_size: int = 4096,
                 pair_chunk: int = 2048):
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): semantic
    deduplication = spherical k-means over the embedding space, then
    within each cluster prune every member that sits inside the
    ε-ball (cosine ≥ ``threshold``) of a KEPT representative.  The
    kept representative of each ball is the member with the LOWEST
    centroid similarity — the paper's diversity rule (keep the example
    farthest from the cluster centroid) — made order-free and
    SQL-expressible as pairwise dominance: x is pruned iff some
    same-cluster y has ROUNDED (4 dp) pairwise cosine ≥ threshold and
    a strictly smaller (cent_sim, vec_id) key.

    Output: one row per vector — (vec_id, cluster_id, sim, pruned).
    Hash-matched against :func:`semdedup_oracle_sql` (the shared
    unrolled-Lloyd's trajectory + a within-cluster dominance
    self-join).

    Scale notes (100 TB): the clustering passes are
    :func:`kmeans_iterate` (per-iteration shuffle = k·blocks partial
    rows only).  The prune pass shuffles each embedding ONCE to its
    cluster's group; per-cluster work is O(m²·d) pairwise cosine done
    as chunked matmuls (``pair_chunk`` rows at a time, never an m×m
    bool matrix per chunk beyond pair_chunk×m).  SemDeDup at scale
    keeps m bounded by growing k ∝ n (the paper uses 50k clusters for
    LAION) — k is a parameter, the per-cluster kernel is
    size-oblivious, and skewed clusters parallelize across the
    chunked rows."""
    _seed_ids, cmat = _load_queries(sf_dir, k)
    cent = kmeans_iterate(_emb(sf_dir), _normalize(cmat), iters,
                          batch_size=batch_size)
    idx = np.arange(k, dtype=np.int64)

    def assign_carry(batch: pa.Table) -> pa.Table:
        vids, emb = _batch_mat(batch)
        t = _assign_table(vids, emb, idx, cent)
        return t.append_column("e", pa.array(list(emb)))

    def prune_group(g: pd.DataFrame) -> pd.DataFrame:
        E = np.stack(g["e"].to_numpy())
        sims = g["sim"].to_numpy()
        vids = g["vec_id"].to_numpy()
        m = len(E)
        pruned = np.zeros(m, dtype=bool)
        for lo in range(0, m, pair_chunk):
            hi = min(lo + pair_chunk, m)
            rows_idx = np.arange(lo, hi)
            near = np.round(E[lo:hi] @ E.T, 4) >= threshold
            near[np.arange(hi - lo), rows_idx] = False  # self
            dominated = ((sims[None, :] < sims[rows_idx, None])
                         | ((sims[None, :] == sims[rows_idx, None])
                            & (vids[None, :] < vids[rows_idx, None])))
            pruned[rows_idx] = (near & dominated).any(axis=1)
        return pd.DataFrame({
            "vec_id": vids,
            "cluster_id": g["cluster_id"].to_numpy(),
            "sim": sims,
            "pruned": pruned,
        })

    ds = _emb(sf_dir).map_batches(assign_carry, batch_format="pyarrow",
                                  batch_size=batch_size)
    return ds.groupby("cluster_id").map_groups(prune_group,
                                               batch_format="pandas")


def kmeans_reference(sf_dir: str, k: int = 8, iters: int = 5):
    """Single-process numpy Lloyd's with the same init/update/rounding
    — the test oracle for ``run_kmeans_cluster`` (analogous to the
    sequential crawl replay oracle in tests/test_crawl.py)."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    vids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    emb = _normalize(np.stack(t["embedding"].to_pylist()).astype(np.float64))
    lowest = np.argsort(vids)[:k]
    cent = np.round(_normalize(emb[lowest].copy()), 9)
    for _ in range(iters):
        assign = np.round(emb @ cent.T, 4).argmax(axis=1)
        new_cent = cent.copy()
        for ci in range(k):
            members = emb[assign == ci]
            if len(members):
                new_cent[ci] = members.mean(axis=0)
        cent = np.round(_normalize(new_cent), 9)
    assign = np.round(emb @ cent.T, 4).argmax(axis=1)
    sims = np.round(emb @ cent.T, 4)[np.arange(len(vids)), assign]
    return vids, assign, sims, cent


def _moment_partial(batch: pa.Table) -> pa.Table:
    """One (count, Σx, Σxxᵀ-flattened) row per batch — the sufficient
    statistics for mean/covariance, fixed-size regardless of rows."""
    _vids, emb = _batch_mat_raw(batch)
    return pa.table({
        "n": pa.array([len(emb)], type=pa.int64()),
        "s1": pa.array([emb.sum(axis=0)]),
        "s2": pa.array([(emb.T @ emb).reshape(-1)]),
    })


def _batch_mat_raw(batch: pa.Table):
    vids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
    emb = np.stack(batch["embedding"].to_pylist()).astype(np.float64)
    return vids, emb


def _reduce_moments(ds, blocks: int = 8):
    """Two-level merge of moment rows (the tree_combine shape, list
    columns): per-block numpy sums → one final sum; the driver only
    ever holds d² + d + 1 doubles."""

    def merge(t: pa.Table) -> pa.Table:
        if not len(t):
            return t
        return pa.table({
            "n": pa.array([int(np.sum(t["n"].to_numpy(
                zero_copy_only=False)))], type=pa.int64()),
            "s1": pa.array([np.stack(t["s1"].to_pylist()).sum(axis=0)]),
            "s2": pa.array([np.stack(t["s2"].to_pylist()).sum(axis=0)]),
        })

    lvl1 = ds.repartition(blocks).map_batches(merge, batch_format="pyarrow",
                                              batch_size=None)
    row = lvl1.repartition(1).map_batches(merge, batch_format="pyarrow",
                                          batch_size=None).take_all()[0]
    return int(row["n"]), np.asarray(row["s1"]), np.asarray(row["s2"])


def run_embedding_pca(sf_dir: str, n_components: int = 8,
                      batch_size: int = 4096):
    """Distributed PCA over the embedding column: one streaming pass
    accumulates the (count, Σx, Σxxᵀ) sufficient statistics in
    fixed-size per-batch partials (d=64 → 33 KB each, independent of
    corpus size), the driver eigendecomposes the d×d covariance (the
    only driver math — microseconds), and a second pass projects every
    vector onto the top components.  Eigenvector sign is fixed
    deterministically (largest-|coefficient| made positive) so output
    is reproducible across runs and cluster sizes.  Mean and covariance
    round to 10 dp BEFORE the eigendecomposition (summation-order drift
    across partials is ~1e-16, four orders below the quantum), so any
    computation path — distributed, single-process, the DuckDB oracle's
    inlined eigenbasis — eigendecomposes the bit-identical matrix.

    Output: UNNESTED (vec_id, i: 1-based component, proj: 9-dp rounded)
    scalar rows — SQL-hash-matchable (pca_oracle_sql inlines the
    deterministic eigenbasis and recomputes the mean-centered
    projection independently); also verified against a single-process
    numpy reference in tests."""
    import ray

    ds = _emb(sf_dir)
    n, s1, s2 = _reduce_moments(
        ds.map_batches(_moment_partial, batch_format="pyarrow",
                       batch_size=batch_size))
    d = len(s1)
    mean, comps, _evals = _pca_basis(n, s1, s2.reshape(d, d), n_components)
    ref = ray.put((mean, comps))

    def project(batch: pa.Table) -> pa.Table:
        mean, comps = ray.get(ref)
        vids, emb = _batch_mat_raw(batch)
        proj = np.round((emb - mean) @ comps, 9)
        q = proj.shape[1]
        return pa.table({
            "vec_id": pa.array(np.repeat(vids, q), type=pa.int64()),
            "i": pa.array(np.tile(np.arange(1, q + 1, dtype=np.int64),
                                  len(vids)), type=pa.int64()),
            "proj": pa.array(proj.ravel(), type=pa.float64()),
        })

    return ds.map_batches(project, batch_format="pyarrow",
                          batch_size=batch_size)


def _pca_basis(n: int, s1: np.ndarray, s2: np.ndarray,
               n_components: int):
    """(10-dp-rounded mean, sign-fixed top components, descending
    eigenvalues) from the raw moments — THE shared deterministic
    convention for the distributed pipeline, the numpy reference and
    the SQL oracle's inlined basis."""
    mean_raw = s1 / n
    cov = np.round(s2 / n - np.outer(mean_raw, mean_raw), 10)
    mean = np.round(mean_raw, 10)
    evals, evecs = np.linalg.eigh(cov)              # ascending
    comps = evecs[:, ::-1][:, :n_components].copy()  # (d, q), desc var
    # deterministic sign: the largest-|coeff| entry of each component
    # is positive (ties impossible on real spectra)
    for j in range(comps.shape[1]):
        i = np.argmax(np.abs(comps[:, j]))
        if comps[i, j] < 0:
            comps[:, j] = -comps[:, j]
    return mean, comps, evals[::-1][:n_components]


def _local_moments(sf_dir: str):
    """Single-process raw moments from the parquet — the oracle /
    reference side (independent of Ray; summation-order differences
    are absorbed by _pca_basis's 10-dp rounding)."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    vids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    emb = np.stack(t["embedding"].to_pylist()).astype(np.float64)
    return vids, emb, len(emb), emb.sum(axis=0), emb.T @ emb


def pca_reference(sf_dir: str, n_components: int = 8):
    """Single-process numpy PCA with the identical convention — the
    test oracle for ``run_embedding_pca``.  Returns (vec_ids, 9-dp
    projection matrix, descending eigenvalues)."""
    vids, emb, n, s1, s2 = _local_moments(sf_dir)
    mean, comps, evals = _pca_basis(n, s1, s2, n_components)
    return vids, np.round((emb - mean) @ comps, 9), evals


def pca_oracle_sql(sf_dir: str | None = None,
                   n_components: int = 8) -> str:
    """DuckDB oracle for :func:`run_embedding_pca`: the eigenbasis is
    deterministic given the 10-dp-rounded covariance (computed here
    single-process, independent of Ray — the covariance itself is
    separately hash-matched via run_embedding_cov), so the mean and
    components are INLINED as exact float literals and DuckDB
    recomputes every mean-centered projection from the raw embeddings
    table.  9-dp output rounding absorbs matmul-vs-list_sum
    summation-order drift (~1e-15).  ``sf_dir`` defaults to the
    driver's gate scale (override via ``GRAFT_ORACLE_SF``)."""
    import os

    sf_dir = sf_dir or os.environ.get("GRAFT_ORACLE_SF",
                                      "/root/testdata/sf0.01")
    _vids, _emb, n, s1, s2 = _local_moments(sf_dir)
    mean, comps, _evals = _pca_basis(n, s1, s2, n_components)
    d = len(mean)
    mean_sql = "[" + ",".join(repr(float(x)) for x in mean) + "]"
    comp_rows = ",".join(
        "(%d, [%s])" % (j + 1,
                        ",".join(repr(float(x)) for x in comps[:, j]))
        for j in range(comps.shape[1]))
    return f"""
        WITH rows0 AS (
          SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings
        ), m(mu) AS (VALUES ({mean_sql})),
        comps(i, c) AS (VALUES {comp_rows})
        SELECT r.vec_id, comps.i,
               round(list_sum([(r.e[j] - mu[j]) * c[j]
                               for j in generate_series(1, {d})]), 9)
                   AS proj
        FROM rows0 r CROSS JOIN m CROSS JOIN comps
    """


def _kmeans_trajectory_parts(k: int, iters: int) -> list[str]:
    """The unrolled spherical-Lloyd's trajectory as CTE fragments,
    ending in ``fin(vec_id, cluster_id, sim)`` — shared by the
    kmeans_cluster and semdedup oracles.  9-dp codebook rounding
    (kmeans_iterate contract) makes the float paths equal despite
    differing summation orders; per-dim means use the aligned-unnest
    ordinality idiom (DuckDB has no lateral generate_series)."""
    rn = ("list_transform({x}, v -> round(v / greatest(sqrt(list_sum("
          "list_transform({x}, y -> y*y))), 1e-12), 9))")
    nr = ("list_transform({x}, v -> v / greatest(sqrt(list_sum("
          "list_transform({x}, y -> y*y))), 1e-12))")
    parts = [
        "WITH rows0 AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e"
        " FROM embeddings),",
        f"rows AS (SELECT vec_id, {nr.format(x='e')} AS e FROM rows0),",
        f"seed AS (SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cid, e"
        f" FROM (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e"
        f" FROM embeddings ORDER BY vec_id LIMIT {k})),",
        f"c0 AS (SELECT cid, {rn.format(x='e')} AS v FROM seed),",
    ]
    for it in range(1, iters + 1):
        p = it - 1
        parts.append(
            f"a{it} AS (SELECT r.vec_id, r.e, c.cid"
            f" FROM rows r CROSS JOIN c{p} c"
            f" QUALIFY row_number() OVER (PARTITION BY r.vec_id"
            f" ORDER BY round(list_inner_product(r.e, c.v), 4) DESC,"
            f" c.cid) = 1),")
        parts.append(
            f"m{it} AS (SELECT cid, i, sum(val) / count(*) AS mu FROM"
            f" (SELECT cid, unnest(e) AS val,"
            f" unnest(generate_series(1, len(e))) AS i FROM a{it})"
            f" GROUP BY cid, i),")
        parts.append(
            f"mv{it} AS (SELECT cid, list(mu ORDER BY i) AS v FROM m{it}"
            f" GROUP BY cid),")
        parts.append(
            f"c{it} AS (SELECT p.cid, {rn.format(x='coalesce(m.v, p.v)')}"
            f" AS v FROM c{p} p LEFT JOIN mv{it} m ON m.cid = p.cid),")
    parts.append(
        f"fin AS (SELECT r.vec_id, r.e, c.cid AS cluster_id,"
        f" round(list_inner_product(r.e, c.v), 4) AS sim"
        f" FROM rows r CROSS JOIN c{iters} c"
        f" QUALIFY row_number() OVER (PARTITION BY r.vec_id"
        f" ORDER BY round(list_inner_product(r.e, c.v), 4) DESC,"
        f" c.cid) = 1)")
    return parts


def kmeans_cluster_oracle_sql(k: int = 8, iters: int = 5) -> str:
    """DuckDB oracle for :func:`run_kmeans_cluster`: the identical
    spherical-Lloyd's trajectory with the iteration loop unrolled as
    chained CTEs (:func:`_kmeans_trajectory_parts`)."""
    parts = _kmeans_trajectory_parts(k, iters)
    parts.append("SELECT vec_id, cluster_id, sim FROM fin")
    return "\n".join(parts)


def semdedup_oracle_sql(k: int = 8, iters: int = 5,
                        threshold: float = 0.35) -> str:
    """DuckDB oracle for :func:`run_semdedup`: the kmeans trajectory
    CTEs (shared with the hash-matched kmeans_cluster oracle) followed
    by a within-cluster self-join applying the identical dominance
    rule — prune x iff some same-cluster y has ROUNDED (4 dp) pairwise
    cosine ≥ threshold and a strictly smaller (sim, vec_id) key."""
    parts = _kmeans_trajectory_parts(k, iters)
    parts.append(f"""
        SELECT x.vec_id, x.cluster_id, x.sim,
               coalesce(bool_or(
                 round(list_inner_product(x.e, y.e), 4) >= {threshold}
                 AND (y.sim < x.sim
                      OR (y.sim = x.sim AND y.vec_id < x.vec_id))),
                 FALSE) AS pruned
        FROM fin x LEFT JOIN fin y
          ON y.cluster_id = x.cluster_id AND y.vec_id <> x.vec_id
        GROUP BY x.vec_id, x.cluster_id, x.sim
    """)
    return "\n".join(parts)


def run_embedding_cov(sf_dir: str, batch_size: int = 4096):
    """The distributed heavy-lifting of :func:`run_embedding_pca` as a
    first-class SQL-verifiable operator: the d×d covariance matrix of
    the embedding column from one streaming pass of fixed-size
    (count, Σx, Σxxᵀ) partials.  PCA = this + a driver-side
    eigendecomposition of the returned 256-value matrix; verifying the
    covariance verifies everything distributed about PCA.  Output:
    (i, j, cov) with 1-based dims, rounded 10 dp (the cross-engine
    summation-order contract, as in graph.pagerank's oracle)."""
    import ray

    ds = _emb(sf_dir)
    n, s1, s2 = _reduce_moments(
        ds.map_batches(_moment_partial, batch_format="pyarrow",
                       batch_size=batch_size))
    d = len(s1)
    mean = s1 / n
    cov = np.round(s2.reshape(d, d) / n - np.outer(mean, mean), 10)
    ii, jj = np.meshgrid(np.arange(1, d + 1), np.arange(1, d + 1),
                         indexing="ij")
    return ray.data.from_arrow(pa.table({
        "i": pa.array(ii.ravel(), type=pa.int64()),
        "j": pa.array(jj.ravel(), type=pa.int64()),
        "cov": pa.array(cov.ravel(), type=pa.float64()),
    }))


EMBEDDING_COV_ORACLE_SQL = """
    WITH rows0 AS (
      SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings
    ), x AS (
      SELECT vec_id, unnest(e) AS v,
             unnest(generate_series(1, len(e))) AS i
      FROM rows0
    ), s AS (
      SELECT a.i AS i, b.i AS j, avg(a.v * b.v) AS exy
      FROM x a JOIN x b USING (vec_id) GROUP BY a.i, b.i
    ), m AS (
      SELECT i, avg(v) AS mu FROM x GROUP BY i
    )
    SELECT s.i, s.j, round(s.exy - ma.mu * mb.mu, 10) AS cov
    FROM s JOIN m ma ON ma.i = s.i JOIN m mb ON mb.i = s.j
"""


def run_label_centroids(sf_dir: str, batch_size: int = 4096):
    """Per-label mean embedding (the domain/source centroid op used for
    mix balancing and drift monitoring): per-batch (label, count,
    vec-sum) partials — one fixed-width row per label per batch — then
    a bounded-key groupby merge; output unnested as (label, i, c, n)
    scalar rows (1-based dim, 9-dp rounding: the cross-engine
    summation-order contract)."""
    from dude_ray.io import read_parquet_clean

    ds = read_parquet_clean(f"{sf_dir}/embeddings.parquet",
                            columns=["label", "embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        lab = np.asarray(batch["label"].to_pylist())
        emb = np.stack(batch["embedding"].to_pylist()).astype(np.float64)
        uniq = np.unique(lab)
        return pa.table({
            "label": pa.array(uniq.astype(np.int64)),
            "count": pa.array([int((lab == u).sum()) for u in uniq],
                              type=pa.int64()),
            "vec_sum": pa.array([emb[lab == u].sum(axis=0) for u in uniq]),
        })

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        vecs = np.stack(g["vec_sum"].to_numpy())
        n = int(g["count"].sum())
        c = np.round(vecs.sum(axis=0) / n, 9)
        d = len(c)
        return pd.DataFrame({
            "label": np.full(d, int(g["label"].iloc[0]), dtype=np.int64),
            "i": np.arange(1, d + 1, dtype=np.int64),
            "c": c,
            "n": np.full(d, n, dtype=np.int64),
        })

    return (ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=batch_size)
              .groupby("label").map_groups(merge, batch_format="pandas"))


LABEL_CENTROIDS_ORACLE_SQL = """
    WITH x AS (
      SELECT label, unnest(CAST(embedding AS DOUBLE[])) AS v,
             unnest(generate_series(1, len(embedding))) AS i
      FROM embeddings
    )
    SELECT CAST(label AS BIGINT) AS label, CAST(i AS BIGINT) AS i,
           round(avg(v), 9) AS c, count(*) AS n
    FROM x GROUP BY label, i
"""


# --------------------------------------------------------------------------
# scalar int8 quantization (two-pass: global per-dim range, then codes)
# --------------------------------------------------------------------------

QUANT_LEVELS = 255


def run_quantize_embeddings(sf_dir: str, batch_size: int = 4096):
    """Scalar quantization of the embedding column to 8-bit codes — the
    storage/bandwidth-reduction step in front of an ANN index (a 4×
    shrink before IVF/PQ; codes are what a 100 TB vector store actually
    ships between nodes).  Two streaming passes:

      1. global per-dimension (min, max) from fixed-size per-block
         partials (2·d doubles per block — same shape as the PCA
         moment pass);
      2. broadcast the d-vector range, emit
         code = floor((v - min) · (255 / (max - min)) + 0.5)
         per element — explicit floor(x+0.5) so the engine and the
         DuckDB oracle round identically (np.round is half-even,
         SQL round is half-away).

    Output is unnested (vec_id, dim, code), 1-based dims, matching the
    embedding_cov oracle convention; constant dimensions (max == min)
    code to 0."""
    import ray

    ds = _emb(sf_dir)

    def _range_partial(batch: pa.Table) -> pa.Table:
        emb = np.stack(batch["embedding"].to_pylist()).astype(np.float64)
        d = emb.shape[1]
        return pa.table({
            "dim": pa.array(np.arange(1, d + 1), type=pa.int64()),
            "mn": pa.array(emb.min(axis=0), type=pa.float64()),
            "mx": pa.array(emb.max(axis=0), type=pa.float64()),
        })

    from dude_ray.pipelines.relational import tree_combine

    partials = ds.map_batches(_range_partial, batch_format="pyarrow",
                              batch_size=batch_size)
    rng = tree_combine(partials, keys=("dim",), mins=("mn",),
                       maxs=("mx",)).to_pandas().sort_values("dim")
    mn = rng["mn"].to_numpy(dtype=np.float64)
    mx = rng["mx"].to_numpy(dtype=np.float64)
    span = mx - mn
    scale = np.where(span > 0, QUANT_LEVELS / np.where(span > 0, span, 1.0),
                     0.0)
    mn_ref = ray.put(mn)
    scale_ref = ray.put(scale)

    def _codes(batch: pa.Table) -> pa.Table:
        lo = ray.get(mn_ref)
        sc = ray.get(scale_ref)
        vids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        emb = np.stack(batch["embedding"].to_pylist()).astype(np.float64)
        code = np.floor((emb - lo) * sc + 0.5).astype(np.int64)
        d = emb.shape[1]
        return pa.table({
            "vec_id": pa.array(np.repeat(vids, d), type=pa.int64()),
            "dim": pa.array(np.tile(np.arange(1, d + 1, dtype=np.int64),
                                    len(vids)), type=pa.int64()),
            "code": pa.array(code.ravel(), type=pa.int64()),
        })

    return ds.map_batches(_codes, batch_format="pyarrow",
                          batch_size=batch_size)


def run_embedding_project(sf_dir: str, k: int = 16, seed: int = 42,
                          batch_size: int = 4096):
    """Johnson-Lindenstrauss random projection of the embedding column
    to ``k`` dimensions — the dimensionality-reduction step in front
    of clustering / ANN at scale (Achlioptas, JCSS 2003:
    database-friendly integer projections preserve pairwise distances
    in expectation like Gaussian ones).  Stateless single pass, no
    shuffle: the d×k integer plane matrix is generated per batch from
    the seed (a few µs).

    Integer-exact on both engines (the ann_lsh discipline): embeddings
    quantize via floor(x·2^20 + 0.5), planes are integers in
    [-999, 999], so every projection component is a sum of 64
    integer-valued float64 terms < 2^31 — exact in any order, hence
    bit-identical to :func:`embedding_project_oracle_sql`.  Output is
    unnested (vec_id, dim, value), 1-based dims, the
    quantize_embeddings convention."""
    from dude_ray.pipelines.similarity import QUANT_SCALE, lsh_planes

    ds = _emb(sf_dir)

    def project(batch: pa.Table) -> pa.Table:
        vids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        emb = np.stack(batch["embedding"].to_pylist()).astype(np.float64)
        planes = lsh_planes(emb.shape[1], k, seed=seed)
        q = np.floor(emb * QUANT_SCALE + 0.5)
        proj = (q @ planes).astype(np.int64)
        return pa.table({
            "vec_id": pa.array(np.repeat(vids, k), type=pa.int64()),
            "dim": pa.array(np.tile(np.arange(1, k + 1, dtype=np.int64),
                                    len(vids)), type=pa.int64()),
            "value": pa.array(proj.ravel(), type=pa.int64()),
        })

    return ds.map_batches(project, batch_format="pyarrow",
                          batch_size=batch_size)


def embedding_project_oracle_sql(k: int = 16, d: int = 64,
                                 seed: int = 42) -> str:
    """DuckDB oracle for :func:`run_embedding_project` — the same
    integer plane matrix inlined as VALUES, the same quantization, one
    exact list_inner_product per output dimension."""
    from dude_ray.pipelines.similarity import lsh_planes, quantize_sql

    planes = lsh_planes(d, k, seed=seed)
    rows = ",".join(
        "(%d, [%s])" % (j + 1, ",".join(str(int(v)) for v in planes[:, j]))
        for j in range(k))
    return f"""
        WITH planes(dim, p) AS (VALUES {rows}),
        qv AS (SELECT vec_id, {quantize_sql()} AS q FROM embeddings)
        SELECT v.vec_id, pl.dim,
               CAST(list_inner_product(v.q, pl.p) AS BIGINT) AS value
        FROM qv v CROSS JOIN planes pl
    """


def run_kmeans_silhouette(sf_dir: str, k: int = 8, iters: int = 5,
                          batch_size: int = 4096):
    """Per-cluster mean SIMPLIFIED silhouette of the spherical
    k-means solution — for each vector, a = cosine distance to its
    own centroid, b = distance to the nearest OTHER centroid,
    ``sil = (b − a) / max(a, b)`` — the standard "are these clusters
    real" quality gate (simplified = centroid distances, the O(n·k)
    variant that scales where pairwise silhouette's O(n²) cannot).
    Output: (cluster_id, n, silhouette).

    Plan (the 100 TB shape): the Lloyd's trajectory is
    :func:`kmeans_iterate` (per-iteration shuffle = k·blocks partial
    rows); the silhouette pass is ONE more broadcast-codebook scan
    emitting fixed-size (cluster → n, sil_sum) partials that
    tree-merge to k rows.

    Float contract: similarities round to 4 dp (the shared
    ``_assign_table`` convention, so assignment ties cannot flip),
    per-row sil rounds to 6 dp with a 1e-12 denominator guard, and
    the per-cluster mean is one division of a same-multiset sum
    (reassociation ≲1e-13) rounded to 6 dp."""
    import ray

    from dude_ray.pipelines.relational import _py_round, tree_combine

    _seed_ids, cmat = _load_queries(sf_dir, k)
    cent = kmeans_iterate(_emb(sf_dir), _normalize(cmat), iters,
                          batch_size=batch_size)

    ref = ray.put(cent)

    def part(batch: pa.Table) -> pa.Table:
        _vids, emb = _batch_mat(batch)
        sims = np.round(emb @ ray.get(ref).T, 4)
        n = len(sims)
        rows = np.arange(n)
        best = sims.argmax(axis=1)
        s1 = sims[rows, best]
        masked = sims.copy()
        masked[rows, best] = -np.inf
        s2 = masked.max(axis=1)
        denom = np.maximum(np.maximum(1.0 - s1, 1.0 - s2), 1e-12)
        sil = np.round((s1 - s2) / denom, 6)
        t = pa.table({
            "cluster_id": pa.array(best.astype(np.int64)),
            "n": pa.array(np.ones(n, dtype=np.int64)),
            "sil_sum": pa.array(sil, type=pa.float64()),
        })
        g = t.group_by(["cluster_id"]).aggregate(
            [("n", "sum"), ("sil_sum", "sum")])
        return pa.table({"cluster_id": g["cluster_id"],
                         "n": g["n_sum"],
                         "sil_sum": g["sil_sum_sum"]})

    partials = _emb(sf_dir).map_batches(part, batch_format="pyarrow",
                                        batch_size=batch_size)
    merged = tree_combine(partials, ["cluster_id"],
                          sums=("n", "sil_sum"))

    def finalize(t: pa.Table) -> pa.Table:
        s = t["sil_sum"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "cluster_id": t["cluster_id"],
            "n": t["n"],
            "silhouette": _py_round(pa.array(s / n, type=pa.float64()),
                                    6)})

    return merged.map_batches(finalize, batch_format="pyarrow",
                              batch_size=None).sort("cluster_id")


def kmeans_silhouette_oracle_sql(k: int = 8, iters: int = 5) -> str:
    """DuckDB oracle for :func:`run_kmeans_silhouette`: the shared
    unrolled-Lloyd's trajectory, all k rounded similarities per
    vector, the identical guarded sil expression, per-cluster mean."""
    parts = _kmeans_trajectory_parts(k, iters)
    parts.append(f"""
        , sims AS (
            SELECT r.vec_id, c.cid,
                   round(list_inner_product(r.e, c.v), 4) AS s
            FROM rows r CROSS JOIN c{iters} c
        ),
        nearest_other AS (
            SELECT s.vec_id, max(s.s) AS s2
            FROM sims s JOIN fin f
              ON f.vec_id = s.vec_id AND s.cid <> f.cluster_id
            GROUP BY s.vec_id
        ),
        sil AS (
            SELECT f.cluster_id,
                   round((f.sim - o.s2)
                         / greatest(1.0 - f.sim, 1.0 - o.s2, 1e-12),
                         6) AS sil
            FROM fin f JOIN nearest_other o ON o.vec_id = f.vec_id
        )
        SELECT CAST(cluster_id AS BIGINT) AS cluster_id,
               CAST(count(*) AS BIGINT) AS n,
               round(sum(sil) / count(*), 6) AS silhouette
        FROM sil GROUP BY cluster_id ORDER BY cluster_id
    """)
    return "\n".join(parts)
