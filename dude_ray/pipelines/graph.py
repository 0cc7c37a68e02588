"""Link-graph analytics over the crawl/extract output.

PageRank is the crawl-prioritization primitive (which hosts/pages to
fetch first at 10^10-URL scale).  The graph is built from the span
extractor's ``kind == "link"`` rows — the same link set the frontier
follows — with targets canonicalized by the engine's own URL rules and
restricted (semi-join) to corpus pages.

Distributed shape, per power iteration (same discipline as
``dedup.run_dup_clusters``):
  * ONE hash join ships (node, rank) into the static weighted edge
    list → contribution rows (dst, rank·1/outdeg);
  * zero-contribution rows for every node are unioned in so sinks keep
    a row (no per-iteration left-outer join against the node set);
  * a data-scaled hash-group + vectorized pandas sum reduces
    contributions (Ray's groupby().sum() Python combine measured
    ~20k rows/s — see dedup.py);
  * the DANGLING mass needs no join at all: contributions conserve
    Σ rank(src) over non-dangling sources, so
    dangling = total_rank − Σ contributions — one scalar aggregate.
Ranks update as (1−d)/N + d·(contrib + dangling/N).  Verified against
a single-process numpy power iteration with the identical update rule.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _member(sorted_keys: np.ndarray, keys) -> np.ndarray:
    """Membership of ``keys`` in the sorted string array ``sorted_keys``
    in one clamped ``searchsorted`` — ``dim_lookup``'s probe
    (pipelines/relational.py) over string keys."""
    keys = np.asarray(keys, dtype=str)
    if not len(sorted_keys):
        return np.zeros(len(keys), dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[pos] == keys


def link_edges(sf_dir: str):
    """(src, dst) canonical-URL edges from the extractor's link spans,
    dst restricted to corpus pages.  Also returns the node dataset
    (distinct page URLs), read from the corpus ``doc_id`` column: the
    span extractor emits one row per corpus document, so the corpus is
    the page set without extracting twice.  The restriction is a
    broadcast semi-join inside the edge map — a sorted node array,
    ``ray.put`` once and probed per batch — so no shuffle runs."""
    import ray

    from dude_ray.canonical import canonicalize_url
    from dude_ray.pipelines.flagship import read_corpus, run_extract
    from dude_ray.sources.corpus import ensure_corpus

    def to_nodes(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch["doc_id"]})

    nodes = (read_corpus(ensure_corpus(sf_dir), columns=["doc_id"])
             .map_batches(to_nodes, batch_format="pyarrow", batch_size=4096)
             .materialize())
    node_col = pa.concat_tables(ray.get(nodes.to_arrow_refs()))["node"]
    nodes_ref = ray.put(np.sort(np.asarray(node_col.to_pylist(), dtype=str)))

    def to_edges(batch: pa.Table) -> pa.Table:
        col = batch["spans"].combine_chunks()
        if isinstance(col, pa.ChunkedArray):
            col = col.chunk(0) if col.num_chunks else pa.array(
                [], type=col.type)
        flat = col.flatten()
        parent = pc.list_parent_indices(col)
        kinds = flat.field("kind").to_pylist()
        refs = flat.field("media_ref").to_pylist()
        srcs = batch["doc_id"].to_pylist()
        out_s, out_d = [], []
        for i, (kind, ref) in enumerate(zip(kinds, refs)):
            if kind != "link" or not ref:
                continue
            src = srcs[parent[i].as_py()]
            dst = canonicalize_url(ref, base=src)
            if dst and dst != src:
                out_s.append(src)
                out_d.append(dst)
        keep = _member(ray.get(nodes_ref), out_d)
        return pa.table({"src": pa.array(out_s, type=pa.string()),
                         "dst": pa.array(out_d, type=pa.string())}
                        ).filter(pa.array(keep, type=pa.bool_()))

    edges = run_extract(sf_dir).map_batches(
        to_edges, batch_format="pyarrow", batch_size=1024)
    return edges.materialize(), nodes


def _grouped_sum(ds, n_rows: int):
    """Vectorized (node, value) sum via the shared data-scaled
    hash-group reduce (partitioning.hash_grouped_reduce)."""
    from dude_ray.partitioning import hash_grouped_reduce

    def sum_g(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("node", sort=False)["value"].sum().reset_index()
        return out[["node", "value"]]

    return hash_grouped_reduce(ds, "node", sum_g, n_rows,
                               out_cols=("node", "value"))


def run_pagerank(sf_dir: str, damping: float = 0.85, iters: int = 6,
                 num_partitions: int = 4):
    """PageRank over the extracted link graph; output (node, rank)
    for every corpus page, Σ rank = 1."""
    edges, nodes = link_edges(sf_dir)
    return pagerank_kernel(edges, nodes, damping=damping, iters=iters,
                           num_partitions=num_partitions)


def pagerank_kernel(edges, nodes, damping: float = 0.85, iters: int = 6,
                    num_partitions: int = 4,
                    broadcast_threshold: int = 500_000,
                    scatter_local_threshold: int = 2_000_000):
    """Distributed power iteration over arbitrary (src, dst) string
    edges and a (node,) universe — the shared kernel behind
    ``run_pagerank`` (link graph) and ``run_graph_pagerank``
    (relational graph, DuckDB-oracled).  Both inputs must be
    materialized Datasets; Σ rank = 1 over ``nodes``.

    Adaptive join strategy (the broadcast-vs-shuffle planner choice):
    when the vertex state fits comfortably in one process
    (``n_nodes ≤ broadcast_threshold``), each iteration is ONE
    map pass over a static int-ified edge list with the rank vector
    broadcast via ``ray.put`` and per-block ``np.bincount`` partials —
    no per-iteration join or shuffle (measured 17 s → ~3 s at sf0.1,
    where per-iteration Ray join+sort fixed costs dominated).  Above
    the threshold the per-iteration hash-join + data-scaled grouped
    reduce below carries to web-scale graphs where the rank table
    itself is too large to broadcast."""
    n_nodes = nodes.count()
    if n_nodes == 0:
        return nodes.map_batches(
            lambda t: pa.table({"node": pa.array([], type=pa.string()),
                                "rank": pa.array([], type=pa.float64())}),
            batch_format="pyarrow")
    n_edges = max(edges.count(), 1)
    if n_nodes <= broadcast_threshold:
        return _pagerank_scatter(edges, nodes, n_nodes, n_edges,
                                 damping, iters,
                                 local_threshold=scatter_local_threshold)
    agg_args = {"num_cpus": 0}

    # fold 1/outdeg into the static edge list once
    outdeg = _grouped_sum(
        edges.map_batches(
            lambda t: pa.table({"node": t["src"],
                                "value": pa.array(
                                    np.ones(len(t)), type=pa.float64())}),
            batch_format="pyarrow"), n_edges).materialize()
    edges_w = edges.join(outdeg, "inner", num_partitions,
                         on=("src",), right_on=("node",),
                         aggregator_ray_remote_args=agg_args)
    edges_w = edges_w.map_batches(
        lambda t: pa.table({
            "src": t["src"], "dst": t["dst"],
            "inv": pc.divide(pa.scalar(1.0), t["value"]),
        }), batch_format="pyarrow").materialize()

    zero_rows = nodes.map_batches(
        lambda t: pa.table({"node": t["node"],
                            "value": pa.array(np.zeros(len(t)),
                                              type=pa.float64())}),
        batch_format="pyarrow").materialize()
    ranks = nodes.map_batches(
        lambda t: pa.table({"node": t["node"],
                            "rank": pa.array(
                                np.full(len(t), 1.0 / n_nodes),
                                type=pa.float64())}),
        batch_format="pyarrow").materialize()

    for _ in range(iters):
        j = edges_w.join(ranks, "inner", num_partitions,
                         on=("src",), right_on=("node",),
                         aggregator_ray_remote_args=agg_args)
        contribs = j.map_batches(
            lambda t: pa.table({"node": t["dst"],
                                "value": pc.multiply(t["rank"], t["inv"])}),
            batch_format="pyarrow")
        sums = _grouped_sum(contribs.union(zero_rows),
                            n_edges + n_nodes).materialize()
        # mass conservation: Σ contributions = Σ rank(non-dangling src),
        # so the dangling mass is the remainder — no join needed
        total_contrib = sums.sum("value") or 0.0
        total_rank = ranks.sum("rank") or 0.0
        dangling = max(total_rank - total_contrib, 0.0)
        base = (1.0 - damping) / n_nodes + damping * dangling / n_nodes

        def update(t: pa.Table, _base=base) -> pa.Table:
            r = _base + damping * t["value"].to_numpy(zero_copy_only=False)
            return pa.table({"node": t["node"],
                             "rank": pa.array(r, type=pa.float64())})

        ranks = sums.map_batches(update,
                                 batch_format="pyarrow").materialize()
    return ranks


def _pagerank_scatter(edges, nodes, n_nodes: int, n_edges: int,
                      damping: float, iters: int,
                      local_threshold: int = 2_000_000):
    """Small-vertex-set fast path: dense rank vector on the driver
    (≤ threshold × 8 B), scatter distributed over the edge list.

    One-time: sort the node array (driver; bounded by the threshold),
    broadcast it, int-ify edges via ``np.searchsorted`` and compute
    out-degrees from per-block ``bincount`` partials.  Per iteration:
    broadcast w = rank/outdeg (``ray.put``, read zero-copy by every
    task), ONE map pass over the static int edge blocks emits a dense
    per-block contribution vector; the driver sums the ≤ n_blocks
    partials.  Update rule and dangling-mass-by-conservation are
    IDENTICAL to the join path (Σ rank = 1 exactly in exact
    arithmetic, so the conserved total is the constant 1)."""
    import ray

    node_arr = np.sort(np.asarray(
        [r["node"] for r in nodes.take_all()], dtype=object))
    nodes_ref = ray.put(node_arr)
    n_blocks = max(16, min(128, n_edges // 200_000 + 1))

    def to_ids(t: pa.Table) -> pa.Table:
        na = ray.get(nodes_ref)
        out = {}
        for col, name in (("src", "src_id"), ("dst", "dst_id")):
            vals = t[col].to_numpy(zero_copy_only=False)
            pos = np.minimum(np.searchsorted(na, vals), len(na) - 1)
            if not np.array_equal(na[pos], vals):  # edges ⊆ nodes
                raise ValueError(f"edge {col} outside the node universe")
            out[name] = pa.array(pos.astype(np.int64), type=pa.int64())
        return pa.table(out)

    eint = edges.map_batches(to_ids, batch_format="pyarrow",
                             batch_size=65536).materialize()

    if n_edges <= local_threshold:
        # smallest tier: the int edge list fits on the driver (≤ 32 MB)
        # — run the iterations as pure numpy bincounts (≈ ms each)
        # instead of paying ~1 s of Ray pass fixed cost per iteration.
        # Same bounded-materialization discipline as the IVF train
        # sample; the scatter path below covers edge sets past this.
        edf = eint.to_pandas()
        src = edf["src_id"].to_numpy(dtype=np.int64)
        dst = edf["dst_id"].to_numpy(dtype=np.int64)
        outdeg = np.bincount(src, minlength=n_nodes).astype(np.float64)
        inv_out = np.divide(1.0, outdeg, out=np.zeros(n_nodes),
                            where=outdeg > 0)
        rank = np.full(n_nodes, 1.0 / n_nodes)
        for _ in range(iters):
            contrib = np.bincount(dst, weights=(rank * inv_out)[src],
                                  minlength=n_nodes)
            dangling = max(rank.sum() - contrib.sum(), 0.0)
            rank = ((1.0 - damping) / n_nodes
                    + damping * dangling / n_nodes + damping * contrib)
        return ray.data.from_arrow(pa.table({
            "node": pa.array(node_arr, type=pa.string()),
            "rank": pa.array(rank, type=pa.float64())}))

    eint = eint.repartition(n_blocks).materialize()

    def deg_part(t: pa.Table) -> pa.Table:
        d = np.bincount(t["src_id"].to_numpy(zero_copy_only=False),
                        minlength=n_nodes)
        return pa.table({"v": pa.array([d.astype(np.float64).tobytes()],
                                       type=pa.binary())})

    outdeg = np.zeros(n_nodes)
    for row in eint.map_batches(deg_part, batch_format="pyarrow",
                                batch_size=None).take_all():
        outdeg += np.frombuffer(row["v"], dtype=np.float64)
    inv_out = np.divide(1.0, outdeg, out=np.zeros(n_nodes),
                        where=outdeg > 0)

    rank = np.full(n_nodes, 1.0 / n_nodes)
    for _ in range(iters):
        w_ref = ray.put(rank * inv_out)

        def scatter(t: pa.Table, _ref=w_ref) -> pa.Table:
            w = ray.get(_ref)
            c = np.bincount(
                t["dst_id"].to_numpy(zero_copy_only=False),
                weights=w[t["src_id"].to_numpy(zero_copy_only=False)],
                minlength=n_nodes)
            return pa.table({"v": pa.array([c.tobytes()],
                                           type=pa.binary())})

        contrib = np.zeros(n_nodes)
        for row in eint.map_batches(scatter, batch_format="pyarrow",
                                    batch_size=None).take_all():
            contrib += np.frombuffer(row["v"], dtype=np.float64)
        dangling = max(rank.sum() - contrib.sum(), 0.0)
        rank = ((1.0 - damping) / n_nodes
                + damping * dangling / n_nodes + damping * contrib)

    return ray.data.from_arrow(pa.table({
        "node": pa.array(node_arr, type=pa.string()),
        "rank": pa.array(rank, type=pa.float64())}))


def _cust_supp_graph(sf_dir: str, num_partitions: int = 4):
    """(edges, nodes) of the relational test graph shared by
    ``run_graph_pagerank`` and ``run_graph_hits``: customers link to
    the suppliers that filled their orders (distinct (o_custkey,
    l_suppkey) pairs via the orders⋈lineitem join), node universe =
    all customers ∪ all suppliers.  Broadcast-map tier for the
    orderkey→custkey dimension below 2M orders, Dataset.join above."""
    import os

    import ray

    from dude_ray.partitioning import estimate_rows, hash_grouped_reduce

    lineitem = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_suppkey"])
    n_li = max(estimate_rows(os.path.join(sf_dir, "lineitem.parquet")), 1)
    n_ord = estimate_rows(os.path.join(sf_dir, "orders.parquet"))

    if n_ord <= 2_000_000:
        # broadcast-join tier: the orderkey→custkey map fits in every
        # worker (≤ 32 MB as two sorted int64 arrays via ray.put, read
        # zero-copy per task) — no shuffle of the lineitem fact side
        # (measured 6.6 s → ~1 s at sf0.1 vs Dataset.join)
        odf = pd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                              columns=["o_orderkey", "o_custkey"])
        okey = odf["o_orderkey"].to_numpy(dtype=np.int64)
        order = np.argsort(okey, kind="stable")
        omap_ref = ray.put((okey[order],
                            odf["o_custkey"].to_numpy(dtype=np.int64)[order]))

        def lookup(t: pa.Table) -> pa.Table:
            ok, oc = ray.get(omap_ref)
            lk = t["l_orderkey"].to_numpy(zero_copy_only=False)
            pos = np.minimum(np.searchsorted(ok, lk), len(ok) - 1)
            if not np.array_equal(ok[pos], lk):  # FK integrity
                raise ValueError("lineitem orderkey missing from orders")
            cust = oc[pos]
            return pa.table({
                "src": pc.binary_join_element_wise(
                    "c", pc.cast(pa.array(cust), pa.string()), ""),
                "dst": pc.binary_join_element_wise(
                    "s", pc.cast(t["l_suppkey"], pa.string()), ""),
            })

        pairs = lineitem.map_batches(lookup, batch_format="pyarrow",
                                     batch_size=65536)
    else:
        orders = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderkey", "o_custkey"])
        pairs = lineitem.join(orders, "inner", num_partitions,
                              on=("l_orderkey",), right_on=("o_orderkey",),
                              aggregator_ray_remote_args={"num_cpus": 0})
        pairs = pairs.map_batches(
            lambda t: pa.table({
                "src": pc.binary_join_element_wise(
                    "c", pc.cast(t["o_custkey"], pa.string()), ""),
                "dst": pc.binary_join_element_wise(
                    "s", pc.cast(t["l_suppkey"], pa.string()), ""),
            }), batch_format="pyarrow")

    def distinct_pairs(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(ignore_index=True)

    edges = hash_grouped_reduce(pairs, ["src", "dst"], distinct_pairs,
                                n_li, out_cols=("src", "dst")).materialize()

    def prefix(col: str, tag: str):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({"node": pc.binary_join_element_wise(
                tag, pc.cast(t[col], pa.string()), "")})
        return fn

    cust = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey"]
    ).map_batches(prefix("c_custkey", "c"), batch_format="pyarrow")
    supp = ray.data.read_parquet(
        os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey"]
    ).map_batches(prefix("s_suppkey", "s"), batch_format="pyarrow")
    nodes = cust.union(supp).materialize()
    return edges, nodes


def run_graph_pagerank(sf_dir: str, damping: float = 0.85,
                       iters: int = 4, num_partitions: int = 4):
    """PageRank over the relational customer→supplier graph
    (:func:`_cust_supp_graph`).  Suppliers have no out-edges, so the
    dangling-mass path is exercised on every iteration.

    Exists to give the distributed power-iteration kernel a DuckDB
    hash-match (the link-graph variant, :func:`run_pagerank`, takes
    its input from HTML extraction, which SQL can't reach): the oracle unrolls the same fixed
    iteration count as chained CTEs.  Ranks round to 10 decimals on
    both sides — float64 association drift across 4 iterations is
    ~1e-14, two orders below the rounding quantum."""
    edges, nodes = _cust_supp_graph(sf_dir, num_partitions)
    ranks = pagerank_kernel(edges, nodes, damping=damping, iters=iters,
                            num_partitions=num_partitions)
    return ranks.map_batches(
        lambda t: pa.table({
            "node": t["node"],
            "rank": pc.round(t["rank"], ndigits=10),
        }), batch_format="pyarrow")


def corpus_link_edges_py(n_docs: int):
    """The crawl link-edge list as a PURE function of ``n_docs`` — the
    synthetic corpus's nav-link topology never consumes document text
    (corpus._build_struct draws targets from the doc-id-seeded rng
    only) — computed with the SAME corpus + canonicalization functions
    the engine's extractor path uses.  Returns (host boundaries,
    [(src_id, dst_id), ...]) with edge multiplicity preserved,
    self-links dropped and targets restricted to corpus pages:
    exactly :func:`link_edges` semantics (equality asserted in
    tests/test_graph.py::test_oracle_edge_list_matches_engine).  This
    is what lets the HTML-extracted link graph get a DuckDB oracle:
    the EDGE LIST is inlined (it is generator-determined), while the
    PageRank arithmetic is recomputed independently by DuckDB."""
    from dude_ray.canonical import canonicalize_url
    from dude_ray.sources.corpus import (_build_struct, host_boundaries,
                                         host_of, url_for)

    bounds = host_boundaries(n_docs)
    url_to_id = {url_for(i, host_of(i, bounds)): i for i in range(n_docs)}
    edges: list[tuple[int, int]] = []
    for i in range(n_docs):
        src = url_for(i, host_of(i, bounds))
        s = _build_struct(i, "", n_docs, bounds)
        for _text, href in s.nav_links:
            dst = canonicalize_url(href, base=src)
            if dst and dst != src and dst in url_to_id:
                edges.append((i, url_to_id[dst]))
    return bounds, edges


def pagerank_oracle_sql(sf_dir: str | None = None, damping: float = 0.85,
                        iters: int = 6) -> str:
    """DuckDB oracle for the crawl-link-graph :func:`run_pagerank`:
    node URLs are rebuilt in SQL from the documents table + the inlined
    host boundaries, the (generator-determined) edge list is inlined as
    VALUES (see :func:`corpus_link_edges_py`), and the power iteration
    is unrolled as chained CTEs with the identical update rule — the
    same 10-dp rounding contract as :func:`graph_pagerank_oracle_sql`.
    ``sf_dir`` defaults to the driver's correctness-gate scale
    (override via ``GRAFT_ORACLE_SF`` for other scales)."""
    import os

    import pyarrow.parquet as pq

    sf_dir = sf_dir or os.environ.get("GRAFT_ORACLE_SF",
                                      "/root/testdata/sf0.01")
    n_docs = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    bounds, edges = corpus_link_edges_py(n_docs)
    if not edges:
        raise ValueError("empty corpus link graph")
    d = repr(damping)
    b_vals = ",".join(f"({h}, {bounds[h]}, {bounds[h + 1]})"
                      for h in range(len(bounds) - 1))
    e_vals = ",".join(f"({s},{t})" for s, t in edges)
    parts = [
        f"WITH bounds(h, lo, hi) AS (VALUES {b_vals}),",
        "nodes AS (SELECT d.doc_id AS id,"
        " 'https://h' || lpad(CAST(b.h AS VARCHAR), 4, '0')"
        " || '.test/docs/' || CAST(d.doc_id AS VARCHAR) || '.html' AS node"
        " FROM documents d JOIN bounds b"
        " ON d.doc_id >= b.lo AND d.doc_id < b.hi),",
        "nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM nodes),",
        f"edges0(src_id, dst_id) AS (VALUES {e_vals}),",
        # multiplicity preserved: a page linking twice contributes twice,
        # exactly like the engine's bincount over raw link spans
        "edges AS (SELECT ns.node AS src, nd.node AS dst FROM edges0 e"
        " JOIN nodes ns ON ns.id = e.src_id"
        " JOIN nodes nd ON nd.id = e.dst_id),",
        "outdeg AS (SELECT src, CAST(count(*) AS DOUBLE) AS od"
        " FROM edges GROUP BY src),",
        "r0 AS (SELECT node, 1.0 / (SELECT n FROM nn) AS rank"
        " FROM nodes),",
    ]
    for k in range(1, iters + 1):
        p = k - 1
        parts.append(
            f"c{k} AS (SELECT e.dst AS node, sum(r.rank / o.od) AS contrib"
            f" FROM edges e JOIN r{p} r ON r.node = e.src"
            f" JOIN outdeg o ON o.src = e.src GROUP BY e.dst),")
        parts.append(
            f"d{k} AS (SELECT coalesce(sum(r.rank), 0) AS dm FROM r{p} r"
            f" WHERE r.node NOT IN (SELECT src FROM outdeg)),")
        parts.append(
            f"r{k} AS (SELECT n.node,"
            f" (1 - {d}) / (SELECT n FROM nn)"
            f" + {d} * (SELECT dm FROM d{k}) / (SELECT n FROM nn)"
            f" + {d} * coalesce(c.contrib, 0) AS rank"
            f" FROM nodes n LEFT JOIN c{k} c ON c.node = n.node),")
    parts.append(
        f"fin AS (SELECT node, round(rank, 10) AS rank FROM r{iters})"
        " SELECT node, rank FROM fin ORDER BY node")
    return "\n".join(parts)


def graph_pagerank_oracle_sql(damping: float = 0.85,
                              iters: int = 4) -> str:
    """The DuckDB oracle for :func:`run_graph_pagerank`: the identical
    update rule with the iteration loop unrolled as chained CTEs."""
    d = repr(damping)
    parts = [
        "WITH nodes AS ("
        " SELECT 'c' || CAST(c_custkey AS VARCHAR) AS node FROM customer"
        " UNION ALL"
        " SELECT 's' || CAST(s_suppkey AS VARCHAR) FROM supplier),",
        "nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM nodes),",
        "edges AS ("
        " SELECT DISTINCT 'c' || CAST(o_custkey AS VARCHAR) AS src,"
        " 's' || CAST(l_suppkey AS VARCHAR) AS dst"
        " FROM orders JOIN lineitem ON l_orderkey = o_orderkey),",
        "outdeg AS (SELECT src, CAST(count(*) AS DOUBLE) AS od"
        " FROM edges GROUP BY src),",
        "r0 AS (SELECT node, 1.0 / (SELECT n FROM nn) AS rank"
        " FROM nodes),",
    ]
    for k in range(1, iters + 1):
        p = k - 1
        parts.append(
            f"c{k} AS (SELECT e.dst AS node, sum(r.rank / o.od) AS contrib"
            f" FROM edges e JOIN r{p} r ON r.node = e.src"
            f" JOIN outdeg o ON o.src = e.src GROUP BY e.dst),")
        parts.append(
            f"d{k} AS (SELECT coalesce(sum(r.rank), 0) AS dm FROM r{p} r"
            f" WHERE r.node NOT IN (SELECT src FROM outdeg)),")
        parts.append(
            f"r{k} AS (SELECT n.node,"
            f" (1 - {d}) / (SELECT n FROM nn)"
            f" + {d} * (SELECT dm FROM d{k}) / (SELECT n FROM nn)"
            f" + {d} * coalesce(c.contrib, 0) AS rank"
            f" FROM nodes n LEFT JOIN c{k} c ON c.node = n.node),")
    parts.append(
        f"fin AS (SELECT node, round(rank, 10) AS rank FROM r{iters})"
        " SELECT node, rank FROM fin ORDER BY node")
    return "\n".join(parts)


def pagerank_reference(edge_list, node_list, damping: float = 0.85,
                       iters: int = 8):
    """Single-process numpy power iteration with the identical update
    rule — the test oracle for ``run_pagerank``."""
    idx = {n: i for i, n in enumerate(node_list)}
    n = len(node_list)
    out = np.zeros(n)
    for s, _d in edge_list:
        out[idx[s]] += 1
    rank = np.full(n, 1.0 / n)
    for _ in range(iters):
        contrib = np.zeros(n)
        for s, d in edge_list:
            contrib[idx[d]] += rank[idx[s]] / out[idx[s]]
        dangling = rank[out == 0].sum()
        rank = ((1 - damping) / n + damping * dangling / n
                + damping * contrib)
    return {node: rank[i] for node, i in idx.items()}


# --------------------------------------------------------------------------
# HITS hubs & authorities (Kleinberg, JACM 1999)
# --------------------------------------------------------------------------

def hits_kernel(edges, nodes, iters: int = 4, num_partitions: int = 4,
                broadcast_threshold: int = 500_000,
                local_threshold: int = 2_000_000):
    """Distributed HITS over (src, dst) string edges and a (node,)
    universe — hubs point at good authorities, authorities are pointed
    at by good hubs, L1-normalized each half-step:

        a_k(v) = Σ_{(u,v)} h_{k-1}(u),  a_k /= Σ a_k
        h_k(u) = Σ_{(u,v)} a_k(v),      h_k /= Σ h_k

    Same adaptive tiers as :func:`pagerank_kernel` (equivalence
    asserted in tests): vertex state ≤ ``broadcast_threshold`` runs as
    bincount scatters over the int-ified edge list (driver-local numpy
    below ``local_threshold`` edges, per-block scatter partials with
    the ranks broadcast via ``ray.put`` above); past the threshold
    every half-step is one hash join + data-scaled grouped sum, so
    nothing vertex- or edge-sized ever sits on the driver."""
    import ray

    n_nodes = nodes.count()
    empty = pa.table({"node": pa.array([], type=pa.string()),
                      "auth": pa.array([], type=pa.float64()),
                      "hub": pa.array([], type=pa.float64())})
    if n_nodes == 0:
        return ray.data.from_arrow(empty)
    n_edges = max(edges.count(), 1)

    if n_nodes <= broadcast_threshold:
        node_arr = np.sort(np.asarray(
            [r["node"] for r in nodes.take_all()], dtype=object))
        nodes_ref = ray.put(node_arr)

        def to_ids(t: pa.Table) -> pa.Table:
            na = ray.get(nodes_ref)
            out = {}
            for col, name in (("src", "src_id"), ("dst", "dst_id")):
                vals = t[col].to_numpy(zero_copy_only=False)
                pos = np.minimum(np.searchsorted(na, vals), len(na) - 1)
                if not np.array_equal(na[pos], vals):
                    raise ValueError(f"edge {col} outside node universe")
                out[name] = pa.array(pos.astype(np.int64), type=pa.int64())
            return pa.table(out)

        eint = edges.map_batches(to_ids, batch_format="pyarrow",
                                 batch_size=65536).materialize()
        hub = np.full(n_nodes, 1.0 / n_nodes)
        auth = np.zeros(n_nodes)

        if n_edges <= local_threshold:
            edf = eint.to_pandas()
            src = edf["src_id"].to_numpy(dtype=np.int64)
            dst = edf["dst_id"].to_numpy(dtype=np.int64)
            for _ in range(iters):
                auth = np.bincount(dst, weights=hub[src],
                                   minlength=n_nodes)
                s = auth.sum()
                if s > 0:
                    auth = auth / s
                hub = np.bincount(src, weights=auth[dst],
                                  minlength=n_nodes)
                s = hub.sum()
                if s > 0:
                    hub = hub / s
        else:
            n_blocks = max(16, min(128, n_edges // 200_000 + 1))
            eint = eint.repartition(n_blocks).materialize()

            def gather(weights: np.ndarray, by: str, take: str):
                w_ref = ray.put(weights)

                def scatter(t: pa.Table, _ref=w_ref) -> pa.Table:
                    w = ray.get(_ref)
                    c = np.bincount(
                        t[by].to_numpy(zero_copy_only=False),
                        weights=w[t[take].to_numpy(zero_copy_only=False)],
                        minlength=n_nodes)
                    return pa.table({"v": pa.array([c.tobytes()],
                                                   type=pa.binary())})

                acc = np.zeros(n_nodes)
                for row in eint.map_batches(scatter,
                                            batch_format="pyarrow",
                                            batch_size=None).take_all():
                    acc += np.frombuffer(row["v"], dtype=np.float64)
                return acc

            for _ in range(iters):
                auth = gather(hub, by="dst_id", take="src_id")
                s = auth.sum()
                if s > 0:
                    auth = auth / s
                hub = gather(auth, by="src_id", take="dst_id")
                s = hub.sum()
                if s > 0:
                    hub = hub / s

        return ray.data.from_arrow(pa.table({
            "node": pa.array(node_arr, type=pa.string()),
            "auth": pa.array(auth, type=pa.float64()),
            "hub": pa.array(hub, type=pa.float64())}))

    # join tier: per half-step, ship the opposite score onto the edge
    # list (hash join), grouped-sum by the gathering endpoint, union
    # zero rows so the full universe keeps a row, normalize by the
    # scalar L1 mass (one Dataset.sum — never a driver vector)
    agg_args = {"num_cpus": 0}
    zero_rows = nodes.map_batches(
        lambda t: pa.table({"node": t["node"],
                            "value": pa.array(np.zeros(len(t)),
                                              type=pa.float64())}),
        batch_format="pyarrow").materialize()

    def half_step(scores, on: str, gather_by: str):
        j = edges.join(scores, "inner", num_partitions,
                       on=(on,), right_on=("node",),
                       aggregator_ray_remote_args=agg_args)
        contribs = j.map_batches(
            lambda t: pa.table({"node": t[gather_by],
                                "value": t["score"]}),
            batch_format="pyarrow")
        sums = _grouped_sum(contribs.union(zero_rows),
                            n_edges + n_nodes).materialize()
        mass = sums.sum("value") or 0.0
        inv = 1.0 / mass if mass > 0 else 0.0

        def norm(t: pa.Table, _inv=inv) -> pa.Table:
            v = t["value"].to_numpy(zero_copy_only=False) * _inv
            return pa.table({"node": t["node"],
                             "score": pa.array(v, type=pa.float64())})

        return sums.map_batches(norm, batch_format="pyarrow").materialize()

    hub = nodes.map_batches(
        lambda t: pa.table({"node": t["node"],
                            "score": pa.array(
                                np.full(len(t), 1.0 / n_nodes),
                                type=pa.float64())}),
        batch_format="pyarrow").materialize()
    auth = None
    for _ in range(iters):
        auth = half_step(hub, on="src", gather_by="dst")
        hub = half_step(auth, on="dst", gather_by="src")

    # both score sets hold exactly one row per node (the zero rows),
    # so the inner join keeps every node
    from dude_ray.partitioning import shuffle_join

    def side(scores, name: str):
        return (scores.map_batches(
            lambda t: t.rename_columns(["node", name]),
            batch_format="pyarrow"),
            pa.schema([("node", pa.string()), (name, pa.float64())]))

    return shuffle_join(side(auth, "auth"), side(hub, "hub"), "node",
                        2 * n_nodes, lambda t: t)


def run_graph_hits(sf_dir: str, iters: int = 4, num_partitions: int = 4,
                   **kernel_kwargs):
    """HITS over the relational customer→supplier graph
    (:func:`_cust_supp_graph`): authorities concentrate on suppliers
    (in-edges only), hubs on customers (out-edges only) — both sides
    of the update are exercised.  Scores round to 10 decimals on both
    sides, the ``graph_pagerank`` drift contract."""
    edges, nodes = _cust_supp_graph(sf_dir, num_partitions)
    scores = hits_kernel(edges, nodes, iters=iters,
                         num_partitions=num_partitions, **kernel_kwargs)
    return scores.map_batches(
        lambda t: pa.table({
            "node": t["node"],
            "auth": pc.round(t["auth"], ndigits=10),
            "hub": pc.round(t["hub"], ndigits=10),
        }), batch_format="pyarrow")


def graph_hits_oracle_sql(iters: int = 4) -> str:
    """DuckDB oracle for :func:`run_graph_hits`: the identical
    L1-normalized update with the iteration loop unrolled as chained
    CTEs (the graph_pagerank oracle pattern)."""
    parts = [
        "WITH nodes AS MATERIALIZED ("
        " SELECT 'c' || CAST(c_custkey AS VARCHAR) AS node FROM customer"
        " UNION ALL"
        " SELECT 's' || CAST(s_suppkey AS VARCHAR) FROM supplier),",
        "nn AS MATERIALIZED (SELECT CAST(count(*) AS DOUBLE) AS n FROM nodes),",
        "edges AS MATERIALIZED ("
        " SELECT DISTINCT 'c' || CAST(o_custkey AS VARCHAR) AS src,"
        " 's' || CAST(l_suppkey AS VARCHAR) AS dst"
        " FROM orders JOIN lineitem ON l_orderkey = o_orderkey),",
        "h0 AS MATERIALIZED (SELECT node, 1.0 / (SELECT n FROM nn) AS s FROM nodes),",
    ]
    for k in range(1, iters + 1):
        p = k - 1
        parts.append(
            f"ar{k} AS MATERIALIZED (SELECT e.dst AS node, sum(h.s) AS v"
            f" FROM edges e JOIN h{p} h ON h.node = e.src GROUP BY e.dst),")
        parts.append(
            f"am{k} AS MATERIALIZED (SELECT coalesce(sum(v), 0) AS m FROM ar{k}),")
        parts.append(
            f"a{k} AS MATERIALIZED (SELECT n.node, CASE WHEN (SELECT m FROM am{k}) > 0"
            f" THEN coalesce(r.v, 0) / (SELECT m FROM am{k}) ELSE 0 END AS s"
            f" FROM nodes n LEFT JOIN ar{k} r ON r.node = n.node),")
        parts.append(
            f"hr{k} AS MATERIALIZED (SELECT e.src AS node, sum(a.s) AS v"
            f" FROM edges e JOIN a{k} a ON a.node = e.dst GROUP BY e.src),")
        parts.append(
            f"hm{k} AS MATERIALIZED (SELECT coalesce(sum(v), 0) AS m FROM hr{k}),")
        parts.append(
            f"h{k} AS MATERIALIZED (SELECT n.node, CASE WHEN (SELECT m FROM hm{k}) > 0"
            f" THEN coalesce(r.v, 0) / (SELECT m FROM hm{k}) ELSE 0 END AS s"
            f" FROM nodes n LEFT JOIN hr{k} r ON r.node = n.node),")
    parts.append(
        f"fin AS (SELECT a{iters}.node, round(a{iters}.s, 10) AS auth,"
        f" round(h{iters}.s, 10) AS hub"
        f" FROM a{iters} JOIN h{iters} ON h{iters}.node = a{iters}.node)"
        " SELECT node, auth, hub FROM fin ORDER BY node")
    return "\n".join(parts)


def hits_reference(edge_list, node_list, iters: int = 4):
    """Single-process numpy HITS with the identical update rule — the
    tier-equivalence oracle for ``hits_kernel``."""
    idx = {n: i for i, n in enumerate(node_list)}
    n = len(node_list)
    hub = np.full(n, 1.0 / n)
    auth = np.zeros(n)
    for _ in range(iters):
        auth = np.zeros(n)
        for s, d in edge_list:
            auth[idx[d]] += hub[idx[s]]
        if auth.sum() > 0:
            auth = auth / auth.sum()
        hub = np.zeros(n)
        for s, d in edge_list:
            hub[idx[s]] += auth[idx[d]]
        if hub.sum() > 0:
            hub = hub / hub.sum()
    return {node: (auth[i], hub[i]) for node, i in idx.items()}


# --------------------------------------------------------------------------
# triangle counting over the kNN graph (forward / compact-forward)
# --------------------------------------------------------------------------

def run_knn_triangles(sf_dir: str, k: int = 5,
                      target_rows_per_group: int = 65536):
    """Per-node triangle counts over the symmetrized exact-kNN graph —
    the local-clustering signal corpus curation uses to find dense
    near-duplicate neighborhoods (a triangle-rich kNN region is a
    semantic cluster; triangle-free nodes are outliers).

    Forward algorithm (Schank & Wagner 2005), each triangle counted
    exactly once at its LOWEST vertex: edges orient low→high, wedges
    (b, c) enumerate per low endpoint a, and a wedge closes iff (b, c)
    is itself an edge — checked by ONE left-semi :func:`shuffle_join`
    of the wedge and edge streams on the (x, y) pair, whose groups
    count the three per-node increments per closed triangle; a second
    tiny reduce sums them.  kNN degrees are ≤ 2k after symmetrization,
    so wedge fan-out is ≤ C(2k, 2) per node — id-orientation is safe
    here; a general power-law graph would orient by (degree, id)
    instead (same plumbing, one extra degree broadcast).

    Output: (node, n_triangles) for every node in ≥1 triangle — exact
    BIGINTs, so the DuckDB oracle (three-way self-join over the same
    kNN edge CTE) hash-matches with no rounding contract."""
    from dude_ray.partitioning import (hash_grouped_reduce,
                                       parquet_row_groups, shuffle_join)
    from dude_ray.pipelines.similarity import run_knn_graph

    n_vecs = sum(n for _f, _rg, n in
                 parquet_row_groups(f"{sf_dir}/embeddings.parquet"))

    def _und(t: pa.Table) -> pa.Table:
        s = t["src"].to_numpy(zero_copy_only=False)
        d = t["dst"].to_numpy(zero_copy_only=False)
        g = (pa.table({"a": np.minimum(s, d), "b": np.maximum(s, d)})
             .group_by(["a", "b"]).aggregate([]))
        return g.select(["a", "b"])

    edges = hash_grouped_reduce(
        run_knn_graph(sf_dir, k=k)
        .map_batches(_und, batch_format="pyarrow", batch_size=65536),
        ["a", "b"],
        lambda df: df.drop_duplicates(["a", "b"])[["a", "b"]],
        n_vecs * k, target_rows_per_group,
        out_cols=("a", "b")).materialize()

    def _wedges(df: pd.DataFrame) -> pd.DataFrame:
        xs, ys, ws = [], [], []
        for a, g in df.groupby("a", sort=False):
            nb = np.sort(g["b"].to_numpy())
            if len(nb) < 2:
                continue
            i, j = np.triu_indices(len(nb), k=1)
            xs.append(nb[i])
            ys.append(nb[j])
            ws.append(np.full(len(i), a, dtype=np.int64))
        if not xs:
            return pd.DataFrame({"x": pd.Series(dtype="int64"),
                                 "y": pd.Series(dtype="int64"),
                                 "w": pd.Series(dtype="int64")})
        return pd.DataFrame({"x": np.concatenate(xs),
                             "y": np.concatenate(ys),
                             "w": np.concatenate(ws)})

    # wedge stream: adjacency grouped by the LOW endpoint (kNN degree
    # is bounded, so one hash group per low node is bounded work)
    wedges = hash_grouped_reduce(
        edges, "a", _wedges, n_vecs * k, target_rows_per_group,
        out_cols=("x", "y", "w"))

    def _close(t: pa.Table) -> pa.Table:
        node, cnt = np.unique(np.concatenate(
            [t[c].to_numpy(zero_copy_only=False) for c in ("w", "x", "y")]),
            return_counts=True)
        return pa.table({"node": pa.array(node, type=pa.int64()),
                         "cnt": pa.array(cnt, type=pa.int64())})

    partials = shuffle_join(
        (wedges, pa.schema([("x", pa.int64()), ("y", pa.int64()),
                            ("w", pa.int64())])),
        (edges.map_batches(lambda t: t.rename_columns(["x", "y"]),
                           batch_format="pyarrow"),
         pa.schema([("x", pa.int64()), ("y", pa.int64())])),
        ["x", "y"], n_vecs * k * (2 * k), _close, how="left semi",
        target_rows_per_group=target_rows_per_group)

    def _sum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("node", sort=False)["cnt"].sum()
        return pd.DataFrame({
            "node": g.index.to_numpy(dtype=np.int64),
            "n_triangles": g.to_numpy(dtype=np.int64)})

    return hash_grouped_reduce(partials, "node", _sum, n_vecs,
                               target_rows_per_group,
                               out_cols=("node", "n_triangles"))


def knn_triangles_oracle_sql(k: int = 5) -> str:
    """DuckDB oracle for :func:`run_knn_triangles` — the same kNN edge
    set (knn_graph's hash-matched oracle as a CTE), symmetrized
    low<high, three-way self-joined."""
    from dude_ray.pipelines.similarity import knn_graph_oracle_sql

    return f"""
        WITH knn AS ({knn_graph_oracle_sql(k)}),
        e AS (
            SELECT least(src, dst) AS a, greatest(src, dst) AS b
            FROM knn GROUP BY 1, 2
        ), t AS (
            SELECT e1.a AS x, e1.b AS y, e2.b AS z
            FROM e e1
            JOIN e e2 ON e2.a = e1.b
            JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b
        ), u AS (
            SELECT x AS node FROM t
            UNION ALL SELECT y FROM t
            UNION ALL SELECT z FROM t
        )
        SELECT node, CAST(count(*) AS BIGINT) AS n_triangles
        FROM u GROUP BY node
    """


# --------------------------------------------------------------------------
# degree distribution of the crawl link graph
# --------------------------------------------------------------------------

def run_graph_degree_dist(sf_dir: str):
    """In/out-degree histogram of the extracted hyperlink graph —
    (side, degree, n_nodes) — the first diagnostic a web-graph analyst
    reads (hub/authority skew, dangling mass, disconnected share).

    Plan (the 100 TB shape): per-batch endpoint count partials feed
    the data-scaled hash-group sum (a node's edges co-locate once),
    then per-block degree value_counts collapse to the tiny
    #distinct-degrees histogram via tree_combine — no per-node row
    ever centralizes; the only driver values are the two dataset
    counts.  Zero-degree nodes are recovered arithmetically
    (n_nodes − Σ histogram) instead of an anti-join.  All counts are
    int64 — no float contract at all.

    Edge semantics match :func:`run_pagerank`: multiplicity preserved
    (a page linking twice contributes 2), self-links dropped, dst
    restricted to corpus pages."""
    from dude_ray.pipelines.relational import tree_combine

    edges, nodes = link_edges(sf_dir)
    n_nodes = nodes.count()
    n_edges = max(edges.count(), 1)

    def _side_hist(col: str, side: str):
        def _partial(batch: pa.Table) -> pa.Table:
            g = batch.select([col]).group_by([col]).aggregate(
                [([], "count_all")])
            return pa.table({
                "node": g[col],
                "value": pc.cast(g["count_all"], pa.int64()),
            })

        partials = edges.map_batches(_partial, batch_format="pyarrow",
                                     batch_size=65536)
        deg = _grouped_sum(partials, n_edges)

        def _hist(batch: pa.Table) -> pa.Table:
            g = batch.select(["value"]).group_by(["value"]).aggregate(
                [([], "count_all")])
            return pa.table({
                "side": pa.array([side] * len(g), type=pa.string()),
                "degree": pc.cast(g["value"], pa.int64()),
                "n_nodes": pc.cast(g["count_all"], pa.int64()),
            })

        hist = deg.map_batches(_hist, batch_format="pyarrow",
                               batch_size=None)
        return tree_combine(hist, ["side", "degree"], sums=("n_nodes",))

    res = _side_hist("src", "out").union(_side_hist("dst", "in"))

    def add_zero(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        rows = []
        for side in ("in", "out"):
            nz = int(df.loc[df["side"] == side, "n_nodes"].sum())
            if n_nodes - nz > 0:
                rows.append({"side": side, "degree": 0,
                             "n_nodes": n_nodes - nz})
        if rows:
            df = pd.concat([df, pd.DataFrame(rows)], ignore_index=True)
        df = df.sort_values(["side", "degree"], kind="mergesort")
        return pa.table({
            "side": pa.array(df["side"], type=pa.string()),
            "degree": pa.array(df["degree"].astype("int64")),
            "n_nodes": pa.array(df["n_nodes"].astype("int64")),
        })

    # histogram is #distinct-degrees × 2 rows — one block by construction
    return (res.repartition(1)
            .map_batches(add_zero, batch_format="pyarrow",
                         batch_size=None)
            .sort(["side", "degree"]))


def graph_degree_dist_oracle_sql(sf_dir: str | None = None) -> str:
    """DuckDB oracle for :func:`run_graph_degree_dist`: the
    generator-determined edge list is inlined as VALUES (see
    :func:`corpus_link_edges_py`), the node universe is the documents
    row count, and the zero-degree rows are recovered by the same
    n − Σ arithmetic as the engine.  ``sf_dir`` defaults to the
    driver's correctness-gate scale (override via
    ``GRAFT_ORACLE_SF``)."""
    import os

    import pyarrow.parquet as pq

    sf_dir = sf_dir or os.environ.get("GRAFT_ORACLE_SF",
                                      "/root/testdata/sf0.01")
    n_docs = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    _bounds, edges = corpus_link_edges_py(n_docs)
    if not edges:
        raise ValueError("empty corpus link graph")
    e_vals = ",".join(f"({s},{t})" for s, t in edges)
    return f"""
        WITH edges0(src_id, dst_id) AS (VALUES {e_vals}),
        nn AS (SELECT count(*) AS n FROM documents),
        outd AS (SELECT src_id AS id, count(*) AS d
                 FROM edges0 GROUP BY 1),
        ind AS (SELECT dst_id AS id, count(*) AS d
                FROM edges0 GROUP BY 1),
        hist AS (
            SELECT 'out' AS side, d AS degree, count(*) AS n_nodes
            FROM outd GROUP BY 2
            UNION ALL
            SELECT 'in' AS side, d AS degree, count(*) AS n_nodes
            FROM ind GROUP BY 2
        ), zero AS (
            SELECT 'out' AS side, 0 AS degree,
                   (SELECT n FROM nn) - (SELECT count(*) FROM outd)
                       AS n_nodes
            UNION ALL
            SELECT 'in' AS side, 0 AS degree,
                   (SELECT n FROM nn) - (SELECT count(*) FROM ind)
                       AS n_nodes
        )
        SELECT side, CAST(degree AS BIGINT) AS degree,
               CAST(n_nodes AS BIGINT) AS n_nodes
        FROM (SELECT * FROM hist
              UNION ALL SELECT * FROM zero WHERE n_nodes > 0)
        ORDER BY side, degree
    """


# --------------------------------------------------------------------------
# co-citation (pages linked together by the same source)
# --------------------------------------------------------------------------

def run_cocitation(sf_dir: str, top_k: int = 100,
                   target_rows_per_group: int = 65536):
    """Top-``top_k`` co-cited page pairs: distinct destination pairs
    (a < b) ranked by how many distinct source pages link to both —
    the classic related-page / link-spam signal over the crawl graph.

    Plan (the 100 TB shape): edges dedup to distinct (src, dst) per
    batch, then ONE data-scaled hash reduce keyed on ``src`` emits the
    per-source destination pairs (out-degree is nav-bounded — a
    handful per page — so pair fan-out is O(d²)·|src| with tiny d,
    never |dst|²), and a second reduce keyed on the pair makes the
    count exact before the bounded top-k.  All counts int64."""
    from dude_ray.partitioning import hash_grouped_reduce
    from dude_ray.pipelines.relational import tree_combine

    edges, _nodes = link_edges(sf_dir)
    n_edges = max(edges.count(), 1)

    def _dedup(batch: pa.Table) -> pa.Table:
        return batch.select(["src", "dst"]).group_by(
            ["src", "dst"]).aggregate([])

    def _pairs(df: pd.DataFrame) -> pd.DataFrame:
        d = df[["src", "dst"]].drop_duplicates()
        m = d.merge(d, on="src")
        m = m[m["dst_x"] < m["dst_y"]]
        out = (m.groupby(["dst_x", "dst_y"], sort=False)
               .size().rename("c").reset_index()
               .rename(columns={"dst_x": "page_a", "dst_y": "page_b"}))
        return out.astype({"c": "int64"})

    dd = edges.map_batches(_dedup, batch_format="pyarrow",
                           batch_size=65536)
    pair_partials = hash_grouped_reduce(
        dd, "src", _pairs, n_edges,
        target_rows_per_group=target_rows_per_group,
        out_cols=("page_a", "page_b", "c"))
    counts = tree_combine(pair_partials, ["page_a", "page_b"],
                          sums=("c",))

    def _top(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = (df.sort_values(["c", "page_a", "page_b"],
                             ascending=[False, True, True])
              .head(top_k).reset_index(drop=True))
        return pa.table({
            "page_a": pa.array(df["page_a"], type=pa.string()),
            "page_b": pa.array(df["page_b"], type=pa.string()),
            "n_cociting": pa.array(df["c"].astype("int64")),
            "rank": pa.array(
                np.arange(1, len(df) + 1, dtype=np.int64)),
        })

    # pair counts collapse to ≤ |src|·d² rows; the bounded top-k is
    # the only driver-width result
    return counts.repartition(1).map_batches(
        _top, batch_format="pyarrow", batch_size=None)


def cocitation_oracle_sql(sf_dir: str | None = None,
                          top_k: int = 100) -> str:
    """DuckDB oracle for :func:`run_cocitation`: the
    generator-determined edge list is inlined (see
    :func:`corpus_link_edges_py`), node ids map back to URLs so the
    deterministic (count DESC, url, url) tiebreak matches the engine
    exactly."""
    import os

    import pyarrow.parquet as pq

    sf_dir = sf_dir or os.environ.get("GRAFT_ORACLE_SF",
                                      "/root/testdata/sf0.01")
    n_docs = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    bounds, edges = corpus_link_edges_py(n_docs)
    if not edges:
        raise ValueError("empty corpus link graph")
    b_vals = ",".join(f"({h}, {bounds[h]}, {bounds[h + 1]})"
                      for h in range(len(bounds) - 1))
    e_vals = ",".join(f"({s},{t})" for s, t in edges)
    return f"""
        WITH bounds(h, lo, hi) AS (VALUES {b_vals}),
        nodes AS (
            SELECT d.doc_id AS id,
                   'https://h' || lpad(CAST(b.h AS VARCHAR), 4, '0')
                       || '.test/docs/' || CAST(d.doc_id AS VARCHAR)
                       || '.html' AS node
            FROM documents d JOIN bounds b
              ON d.doc_id >= b.lo AND d.doc_id < b.hi
        ), edges0(src_id, dst_id) AS (VALUES {e_vals}),
        dd AS (SELECT DISTINCT src_id, dst_id FROM edges0),
        pairs AS (
            SELECT na.node AS page_a, nb.node AS page_b,
                   count(*) AS c
            FROM dd a JOIN dd b
              ON a.src_id = b.src_id
            JOIN nodes na ON na.id = a.dst_id
            JOIN nodes nb ON nb.id = b.dst_id
            WHERE na.node < nb.node
            GROUP BY 1, 2
        )
        SELECT page_a, page_b, CAST(c AS BIGINT) AS n_cociting,
               CAST(row_number() OVER (
                   ORDER BY c DESC, page_a ASC, page_b ASC)
                   AS BIGINT) AS rank
        FROM pairs
        QUALIFY rank <= {top_k}
    """


# --------------------------------------------------------------------------
# anchor-text oracle (upgrades anchor_texts from rows-only to SQL-checked)
# --------------------------------------------------------------------------

def corpus_link_anchors_py(n_docs: int):
    """The crawl link list WITH anchor texts as a PURE function of
    ``n_docs`` — same mechanism as :func:`corpus_link_edges_py` (the
    synthetic nav topology and its 'Nav {doc}-{i}' anchors never
    consume document text), but UNFILTERED: dead, robots-disallowed
    and self links are kept because
    :func:`dude_ray.pipelines.flagship.run_anchor_texts` aggregates
    every link span.  Returns [(canonical_target_url, anchor_text),
    ...] with multiplicity preserved; equality with the engine's
    extracted spans is asserted by
    tests/test_graph.py::test_anchor_list_matches_engine."""
    from dude_ray.canonical import canonicalize_url
    from dude_ray.sources.corpus import (_build_struct, host_boundaries,
                                         host_of, url_for)

    bounds = host_boundaries(n_docs)
    rows: list[tuple[str, str]] = []
    for i in range(n_docs):
        src = url_for(i, host_of(i, bounds))
        s = _build_struct(i, "", n_docs, bounds)
        for text, href in s.nav_links:
            rows.append((canonicalize_url(href, base=src), text))
    return rows


def anchor_texts_oracle_sql(sf_dir: str | None = None) -> str:
    """DuckDB oracle for
    :func:`dude_ray.pipelines.flagship.run_anchor_texts`: the
    generator-determined (target, anchor) link list is inlined as
    VALUES and the per-target aggregation — incoming count, distinct
    anchors, top anchor by (count DESC, anchor ASC) — is recomputed
    independently in SQL."""
    import os

    import pyarrow.parquet as pq

    sf_dir = sf_dir or os.environ.get("GRAFT_ORACLE_SF",
                                      "/root/testdata/sf0.01")
    n_docs = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    rows = corpus_link_anchors_py(n_docs)
    if not rows:
        raise ValueError("empty corpus link list")

    def q(s: str) -> str:
        return "'" + s.replace("'", "''") + "'"

    vals = ",".join(f"({q(t)},{q(a)})" for t, a in rows)
    return f"""
        WITH links(target, anchor) AS (VALUES {vals}),
        g AS (
            SELECT target, anchor, count(*) AS n
            FROM links GROUP BY 1, 2
        ), ranked AS (
            SELECT target, anchor, n,
                   row_number() OVER (
                       PARTITION BY target
                       ORDER BY n DESC, anchor ASC) AS rn
            FROM g
        )
        SELECT target,
               CAST(sum(n) AS BIGINT) AS n_incoming,
               CAST(count(*) AS BIGINT) AS n_distinct_anchors,
               max(CASE WHEN rn = 1 THEN anchor END) AS top_anchor
        FROM ranked GROUP BY target
    """


# --------------------------------------------------------------------------
# bibliographic coupling (source pages sharing outgoing links)
# --------------------------------------------------------------------------

def run_coupling(sf_dir: str, top_k: int = 100,
                 target_rows_per_group: int = 65536):
    """Top-``top_k`` bibliographically-coupled page pairs: distinct
    SOURCE pairs (a < b) ranked by how many distinct pages both link
    to — :func:`run_cocitation`'s dual (coupling measures the linking
    pages' similarity; co-citation the linked pages').

    Plan: identical to co-citation with the key flipped — the reduce
    keys on ``dst``, and the pair fan-out is bounded by each page's
    IN-degree within the dedup'd edge set.  In-degree is not
    nav-bounded like out-degree, so hub targets are the skew risk; the
    reduce is data-scaled on dst and a hub's pair expansion stays
    inside one vectorized task (documented bound: Σ d_in² over the
    distinct edge set)."""
    from dude_ray.partitioning import hash_grouped_reduce
    from dude_ray.pipelines.relational import tree_combine

    edges, _nodes = link_edges(sf_dir)
    n_edges = max(edges.count(), 1)

    def _dedup(batch: pa.Table) -> pa.Table:
        return batch.select(["src", "dst"]).group_by(
            ["src", "dst"]).aggregate([])

    def _pairs(df: pd.DataFrame) -> pd.DataFrame:
        d = df[["src", "dst"]].drop_duplicates()
        m = d.merge(d, on="dst")
        m = m[m["src_x"] < m["src_y"]]
        out = (m.groupby(["src_x", "src_y"], sort=False)
               .size().rename("c").reset_index()
               .rename(columns={"src_x": "page_a", "src_y": "page_b"}))
        return out.astype({"c": "int64"})

    dd = edges.map_batches(_dedup, batch_format="pyarrow",
                           batch_size=65536)
    pair_partials = hash_grouped_reduce(
        dd, "dst", _pairs, n_edges,
        target_rows_per_group=target_rows_per_group,
        out_cols=("page_a", "page_b", "c"))
    counts = tree_combine(pair_partials, ["page_a", "page_b"],
                          sums=("c",))

    def _top(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = (df.sort_values(["c", "page_a", "page_b"],
                             ascending=[False, True, True])
              .head(top_k).reset_index(drop=True))
        return pa.table({
            "page_a": pa.array(df["page_a"], type=pa.string()),
            "page_b": pa.array(df["page_b"], type=pa.string()),
            "n_shared": pa.array(df["c"].astype("int64")),
            "rank": pa.array(
                np.arange(1, len(df) + 1, dtype=np.int64)),
        })

    return counts.repartition(1).map_batches(
        _top, batch_format="pyarrow", batch_size=None)


def coupling_oracle_sql(sf_dir: str | None = None,
                        top_k: int = 100) -> str:
    """DuckDB oracle for :func:`run_coupling` (inlined edge list,
    dual of the co-citation oracle — join on dst, pair srcs)."""
    import os

    import pyarrow.parquet as pq

    sf_dir = sf_dir or os.environ.get("GRAFT_ORACLE_SF",
                                      "/root/testdata/sf0.01")
    n_docs = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    bounds, edges = corpus_link_edges_py(n_docs)
    if not edges:
        raise ValueError("empty corpus link graph")
    b_vals = ",".join(f"({h}, {bounds[h]}, {bounds[h + 1]})"
                      for h in range(len(bounds) - 1))
    e_vals = ",".join(f"({s},{t})" for s, t in edges)
    return f"""
        WITH bounds(h, lo, hi) AS (VALUES {b_vals}),
        nodes AS (
            SELECT d.doc_id AS id,
                   'https://h' || lpad(CAST(b.h AS VARCHAR), 4, '0')
                       || '.test/docs/' || CAST(d.doc_id AS VARCHAR)
                       || '.html' AS node
            FROM documents d JOIN bounds b
              ON d.doc_id >= b.lo AND d.doc_id < b.hi
        ), edges0(src_id, dst_id) AS (VALUES {e_vals}),
        dd AS (SELECT DISTINCT src_id, dst_id FROM edges0),
        pairs AS (
            SELECT na.node AS page_a, nb.node AS page_b,
                   count(*) AS c
            FROM dd a JOIN dd b
              ON a.dst_id = b.dst_id
            JOIN nodes na ON na.id = a.src_id
            JOIN nodes nb ON nb.id = b.src_id
            WHERE na.node < nb.node
            GROUP BY 1, 2
        )
        SELECT page_a, page_b, CAST(c AS BIGINT) AS n_shared,
               CAST(row_number() OVER (
                   ORDER BY c DESC, page_a ASC, page_b ASC)
                   AS BIGINT) AS rank
        FROM pairs
        QUALIFY rank <= {top_k}
    """


# --------------------------------------------------------------------------
# Adamic-Adar link prediction (common-neighbor score over the link graph)
# --------------------------------------------------------------------------

def run_adamic_adar(sf_dir: str, top_k: int = 100,
                    target_rows_per_group: int = 65536):
    """Top-``top_k`` Adamic-Adar link-prediction pairs over the
    DISTINCT undirected link graph: for NON-adjacent pages a < b,
    ``aa = Σ_z 1/ln(deg z)`` over their common neighbors z — the
    classic "which missing links are most likely" score (rare shared
    neighbors count more than hubs).  Output: (page_a, page_b,
    n_common, aa, rank).

    Plan (the 100 TB shape): ONE hash reduce keyed on the wedge
    CENTER z emits z's neighbor pairs weighted ``1/ln(deg z)`` —
    deg z is simply z's group size, so no degree join is needed; the
    d² fan-out is nav-bounded exactly as :func:`run_cocitation`
    documents.  Existing edges are excluded WITHOUT a separate
    anti-join shuffle: the undirected edge set unions in as
    (pair, is_edge=1) marker rows and the same keyed merge that sums
    the scores also sums the marker, so the final filter is local.
    Ranking sorts the ROUNDED score (6 dp, the cross-engine drift
    argument of ``components.run_host_rank``) so rank order is
    drift-proof; only the bounded top-k ever reaches one task.
    """
    from dude_ray.partitioning import hash_grouped_reduce
    from dude_ray.pipelines.components import _distinct_undirected
    from dude_ray.pipelines.relational import tree_combine

    edges, _nodes = link_edges(sf_dir)
    n_edges = max(edges.count(), 1)
    und = _distinct_undirected(edges, n_edges,
                               target_rows_per_group).materialize()
    n_und = max(und.count(), 1)

    def _both(t: pa.Table) -> pa.Table:
        lo = t["lo"].combine_chunks()
        hi = t["hi"].combine_chunks()
        return pa.table({"z": pa.concat_arrays([lo, hi]),
                         "n": pa.concat_arrays([hi, lo])})

    both = und.map_batches(_both, batch_format="pyarrow",
                           batch_size=65536)

    def _wedges(df: pd.DataFrame) -> pd.DataFrame:
        xs, ys, ws = [], [], []
        for _z, grp in df.groupby("z", sort=False):
            nb = np.unique(grp["n"].to_numpy())
            d = len(nb)
            if d < 2:
                continue
            w = 1.0 / float(np.log(float(d)))
            iu, iv = np.triu_indices(d, 1)
            xs.append(nb[iu])
            ys.append(nb[iv])
            ws.append(np.full(len(iu), w, dtype=np.float64))
        if not xs:
            return pd.DataFrame({
                "x": pd.Series(dtype=object),
                "y": pd.Series(dtype=object),
                "n_common": pd.Series(dtype="int64"),
                "aa": pd.Series(dtype="float64"),
                "is_edge": pd.Series(dtype="int64")})
        x = np.concatenate(xs)
        return pd.DataFrame({
            "x": x, "y": np.concatenate(ys),
            "n_common": np.ones(len(x), dtype=np.int64),
            "aa": np.concatenate(ws),
            "is_edge": np.zeros(len(x), dtype=np.int64)})

    wedge_partials = hash_grouped_reduce(
        both, "z", _wedges, 2 * n_und,
        target_rows_per_group=target_rows_per_group,
        out_cols=("x", "y", "n_common", "aa", "is_edge"))

    def _markers(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table({
            "x": t["lo"], "y": t["hi"],
            "n_common": pa.array(np.zeros(n, dtype=np.int64)),
            "aa": pa.array(np.zeros(n, dtype=np.float64)),
            "is_edge": pa.array(np.ones(n, dtype=np.int64))})

    markers = und.map_batches(_markers, batch_format="pyarrow",
                              batch_size=65536)
    merged = tree_combine(wedge_partials.union(markers), ["x", "y"],
                          sums=("n_common", "aa", "is_edge"))

    def _top(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df[df["is_edge"] == 0]
        df["aa"] = [round(v, 6) for v in df["aa"]]
        df = (df.sort_values(["aa", "x", "y"],
                             ascending=[False, True, True])
              .head(top_k).reset_index(drop=True))
        return pa.table({
            "page_a": pa.array(df["x"], type=pa.string()),
            "page_b": pa.array(df["y"], type=pa.string()),
            "n_common": pa.array(df["n_common"].astype("int64")),
            "aa": pa.array(df["aa"], type=pa.float64()),
            "rank": pa.array(np.arange(1, len(df) + 1,
                                       dtype=np.int64))})

    return merged.repartition(1).map_batches(
        _top, batch_format="pyarrow", batch_size=None)


def adamic_adar_oracle_sql(sf_dir: str | None = None,
                           top_k: int = 100) -> str:
    """DuckDB oracle for :func:`run_adamic_adar`: wedge enumeration
    over the inlined undirected edge list with the pair normalized in
    URL-STRING order (matching the engine's labels), degree weight
    ``1/ln(deg)``, existing edges excluded by URL-pair anti-join, the
    same rounded-score rank order."""
    from dude_ray.pipelines.components import _graph_sql_parts

    preamble, _bounds, _n = _graph_sql_parts(sf_dir)
    return f"""
        WITH {preamble},
        und AS (
            SELECT DISTINCT least(src_id, dst_id) AS lo,
                            greatest(src_id, dst_id) AS hi
            FROM edges0),
        nbr AS (
            SELECT lo AS z, nh.node AS n
            FROM und JOIN nodes nh ON nh.id = hi
            UNION ALL
            SELECT hi AS z, nl.node AS n
            FROM und JOIN nodes nl ON nl.id = lo),
        deg AS (SELECT z, count(*) AS d FROM nbr GROUP BY z),
        agg AS (
            SELECT a.n AS x, b.n AS y,
                   count(*) AS n_common,
                   round(sum(1.0 / ln(CAST(d.d AS DOUBLE))), 6) AS aa
            FROM nbr a
            JOIN nbr b ON b.z = a.z AND a.n < b.n
            JOIN deg d ON d.z = a.z
            GROUP BY x, y),
        eund AS (
            SELECT least(na.node, nb.node) AS x,
                   greatest(na.node, nb.node) AS y
            FROM und JOIN nodes na ON na.id = lo
            JOIN nodes nb ON nb.id = hi),
        nonedge AS (
            SELECT agg.* FROM agg
            LEFT JOIN eund e ON e.x = agg.x AND e.y = agg.y
            WHERE e.x IS NULL)
        SELECT x AS page_a, y AS page_b,
               CAST(n_common AS BIGINT) AS n_common, aa,
               CAST(row_number() OVER (
                   ORDER BY aa DESC, x ASC, y ASC) AS BIGINT) AS rank
        FROM nonedge
        QUALIFY rank <= {top_k}
    """
