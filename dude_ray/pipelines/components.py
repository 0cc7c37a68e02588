"""Connected components + BFS depth over the crawl link graph.

Two iterative graph operators the crawl/curation stack needs beyond
PageRank/HITS (``graph.py``):

* ``run_link_components`` — connected components of the INTRA-HOST
  (same-netloc) link graph: the "site section" structure a crawler
  uses to partition recrawl budgets and a dedup pipeline uses to scope
  near-dup candidates to a site.  Component id = lexicographically
  minimum member URL.
* ``run_link_depth`` — BFS hop distance from the crawl SEED set over
  the full link graph: the idealized frontier depth (how many link
  hops each page sits from a seed), the quantity a breadth-budgeted
  crawl (reference semantics: FIFO BFS over the deque,
  /root/reference/dude/base.py:361-376) truncates on.

Distributed shape (same discipline as ``dedup.run_dup_clusters``):
two-tier planner — a driver union-find / BFS below
``local_threshold`` edges (the edge list fits in one task's heap),
and above it an iterative min-label propagation where every round is
ONE hash join (probe rows ⋈ current labels) plus one data-scaled
hash-grouped vectorized min (Ray's groupby().min() Python combine
measures ~20k rows/s — see ``partitioning.hash_grouped_reduce``).
Components use pointer jumping (label-of-label probe rows unioned
into the same join) so rounds are O(log diameter); BFS is
Bellman-Ford-shaped, O(eccentricity) rounds with ``max_depth`` as the
explicit bound.  All shuffle traffic is (node, label) pairs hash
partitioned by node — no stage ever holds the whole graph in one
process on the scale path.

Fixpoint detection: BFS labels are int64 and only ever (a) get added
or (b) decrease, so an unchanged (count, sum) pair IS an unchanged
labeling — two scalar aggregates per round.  Component labels are
strings, so the monotone-sum trick uses a per-row uint64 content hash
(labels strictly lexicographically decrease when they change, so the
hash-sum changes w.h.p.; a collision would stop one round early with
probability ~2^-64 — the ``max_iters`` backstop and the tier
equivalence test bound the risk).
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from dude_ray.partitioning import group_agg, hash_grouped_reduce

_AGG_ARGS = {"num_cpus": 0}
_NETLOC_RE = r"^[a-z][a-z0-9+.-]*://(?P<h>[^/]+)"


def _netloc(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Vectorized scheme://netloc prefix (pyarrow regex kernel — the
    canonicalizer already lowercased scheme+host)."""
    ex = pc.extract_regex(col, _NETLOC_RE)
    if isinstance(ex, pa.ChunkedArray):
        ex = ex.combine_chunks()
    return ex.field(0)


# --------------------------------------------------------------------------
# kernels
# --------------------------------------------------------------------------

def _degree(t: pa.Table) -> pa.Table:
    """(node, degree): the row count of each node in a node column."""
    return group_agg(t, "node", {"degree": ([], "count_all")})


def _hash_sum(labels) -> int:
    """Order-independent uint64 content hash of a (node, label)
    dataset — ONE scalar per round for the string-label fixpoint."""

    def h(df: pd.DataFrame) -> pd.DataFrame:
        v = pd.util.hash_pandas_object(
            df["node"].astype(str) + "\x00" + df["label"].astype(str),
            index=False).to_numpy(dtype=np.uint64)
        tot = int(np.sum(v, dtype=np.uint64))
        return pd.DataFrame({"h": pd.Series([tot % (2 ** 63)],
                                            dtype="int64")})

    return int(labels.map_batches(h, batch_format="pandas").sum("h"))


def connected_components(pairs, nodes, max_iters: int = 64,
                         num_partitions: int = 4,
                         local_threshold: int = 2_000_000,
                         target_rows_per_group: int = 65536):
    """(node, component) for every node — component = min node id
    (lexicographic for strings).  ``pairs`` is a Dataset of undirected
    edges (a, b); ``nodes`` a Dataset with a ``node`` column listing
    ALL nodes (singletons become their own component).

    Tier 1 (≤ ``local_threshold`` edges): driver union-find — the
    int64/str pair list fits in one heap, and a handful of label-prop
    rounds cannot beat a linear pass.  Tier 2: distributed min-label
    propagation with pointer jumping (see module docstring); the
    per-round join is the only all-to-all and ships (node, label)
    pairs only.  Tier equivalence is asserted in
    tests/test_components.py."""
    import ray.data  # noqa: F401  (Dataset.join registration)

    n_edges = pairs.count()
    if n_edges <= local_threshold:
        edf = pairs.to_pandas()
        ndf = nodes.to_pandas()
        a = edf["a"].to_numpy()
        b = edf["b"].to_numpy()
        uniq = np.unique(np.concatenate(
            [ndf["node"].to_numpy(), a, b]))  # sorted ascending
        idx = {n: i for i, n in enumerate(uniq)}
        parent = np.arange(len(uniq))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for x, y in zip(a, b):
            rx, ry = find(idx[x]), find(idx[y])
            if rx != ry:
                # always parent the larger root to the smaller: root
                # index stays the index of the minimum member, so
                # component id == min node without a second pass
                parent[max(rx, ry)] = min(rx, ry)
        comp = np.array([uniq[find(i)] for i in range(len(uniq))])
        import ray

        return ray.data.from_arrow(pa.table({
            "node": pa.array(uniq, type=pa.string()),
            "component": pa.array(comp, type=pa.string())}))

    def grouped_min(ds):
        return hash_grouped_reduce(
            ds, "node",
            lambda t: group_agg(t, "node", {"label": ("label", "min")}),
            3 * n_edges,
            target_rows_per_group=target_rows_per_group,
            out_cols=("node", "label"))

    both = pairs.map_batches(
        lambda t: pa.table({
            "u": pa.concat_arrays([t["a"].combine_chunks(),
                                   t["b"].combine_chunks()]),
            "v": pa.concat_arrays([t["b"].combine_chunks(),
                                   t["a"].combine_chunks()])}),
        batch_format="pyarrow", batch_size=8192).materialize()
    init = both.map_batches(
        lambda t: pa.table({"node": t["u"], "label": t["v"]}),
        batch_format="pyarrow")
    self_rows = nodes.map_batches(
        lambda t: pa.table({"node": t["node"], "label": t["node"]}),
        batch_format="pyarrow")
    labels = grouped_min(init.union(self_rows)).materialize()
    prev = _hash_sum(labels)

    # static probe rows: candidate label for u arrives via its
    # neighbor v; the pointer-jump probe (node via its own label —
    # label(label(u)) ≤ label(u)) is rebuilt each round and unioned in
    # so one join serves both (see dedup.run_dup_clusters)
    edge_probe = both.map_batches(
        lambda t: pa.table({"dst": t["u"], "via": t["v"]}),
        batch_format="pyarrow").materialize()

    for _ in range(max_iters):
        jump_probe = labels.map_batches(
            lambda t: pa.table({"dst": t["node"], "via": t["label"]}),
            batch_format="pyarrow")
        jlabels = labels.map_batches(
            lambda t: pa.table({"jnode": t["node"], "jlabel": t["label"]}),
            batch_format="pyarrow")
        prop = edge_probe.union(jump_probe).join(
            jlabels, "inner", num_partitions,
            on=("via",), right_on=("jnode",),
            aggregator_ray_remote_args=_AGG_ARGS)
        cand = prop.map_batches(
            lambda t: pa.table({"node": t["dst"], "label": t["jlabel"]}),
            batch_format="pyarrow")
        labels = grouped_min(cand).materialize()
        cur = _hash_sum(labels)
        if cur == prev:
            break
        prev = cur

    return labels.map_batches(
        lambda t: pa.table({"node": t["node"], "component": t["label"]}),
        batch_format="pyarrow")


def bfs_depths(edges, seeds: list[str], max_depth: int = 32,
               num_partitions: int = 4,
               local_threshold: int = 2_000_000,
               target_rows_per_group: int = 65536):
    """(node, depth) = min hop count from any seed over DIRECTED
    ``edges`` (src, dst); nodes deeper than ``max_depth`` (or
    unreachable) are absent.  Tier 1: driver FIFO BFS.  Tier 2:
    Bellman-Ford min propagation — per round ONE hash join (edges ⋈
    current depths on src) plus a grouped min; rounds = eccentricity
    of the seed set, bounded by ``max_depth``."""
    import ray
    import ray.data  # noqa: F401

    n_edges = edges.count()
    if n_edges <= local_threshold:
        edf = edges.to_pandas()
        adj: dict = {}
        for s, d in zip(edf["src"].to_numpy(), edf["dst"].to_numpy()):
            adj.setdefault(s, []).append(d)
        dist = {s: 0 for s in seeds}
        dq = deque(seeds)
        while dq:
            u = dq.popleft()
            du = dist[u]
            if du >= max_depth:
                continue
            for v in adj.get(u, ()):
                if v not in dist:
                    dist[v] = du + 1
                    dq.append(v)
        out = sorted(dist)
        return ray.data.from_arrow(pa.table({
            "node": pa.array(out, type=pa.string()),
            "depth": pa.array([dist[n] for n in out], type=pa.int64())}))

    def grouped_min(ds):
        return hash_grouped_reduce(
            ds, "node",
            lambda t: group_agg(t, "node", {"depth": ("depth", "min")}),
            n_edges + len(seeds),
            target_rows_per_group=target_rows_per_group,
            out_cols=("node", "depth"))

    labels = ray.data.from_arrow(pa.table({
        "node": pa.array(seeds, type=pa.string()),
        "depth": pa.array(np.zeros(len(seeds), dtype=np.int64))}))
    labels = grouped_min(labels).materialize()  # dedup seed list
    prev = (labels.count(), labels.sum("depth"))
    edge_probe = edges.map_batches(
        lambda t: pa.table({"src": t["src"], "dst": t["dst"]}),
        batch_format="pyarrow", batch_size=8192).materialize()

    for _ in range(max_depth):
        front = labels.map_batches(
            lambda t: pa.table({"jnode": t["node"], "jdepth": t["depth"]}),
            batch_format="pyarrow")
        prop = edge_probe.join(
            front, "inner", num_partitions,
            on=("src",), right_on=("jnode",),
            aggregator_ray_remote_args=_AGG_ARGS)
        cand = prop.map_batches(
            lambda t: pa.table({
                "node": t["dst"],
                "depth": pc.add(t["jdepth"], pa.scalar(1, pa.int64()))}),
            batch_format="pyarrow")
        cand = cand.filter(
            expr=f"depth <= {max_depth}")
        labels = grouped_min(labels.union(cand)).materialize()
        cur = (labels.count(), labels.sum("depth"))
        if cur == prev:
            break
        prev = cur

    return labels


# --------------------------------------------------------------------------
# pipelines
# --------------------------------------------------------------------------

def run_link_components(sf_dir: str, max_iters: int = 64,
                        num_partitions: int = 4,
                        local_threshold: int = 2_000_000):
    """Connected components of the intra-host link graph (src and dst
    share a netloc): (node, component) for EVERY corpus page, sorted
    by node; component = lexicographically smallest member URL."""
    from dude_ray.pipelines.graph import link_edges

    edges, nodes = link_edges(sf_dir)

    def intra(t: pa.Table) -> pa.Table:
        keep = pc.equal(_netloc(t["src"]), _netloc(t["dst"]))
        kept = t.filter(keep)
        return pa.table({"a": kept["src"], "b": kept["dst"]})

    pairs = edges.map_batches(intra, batch_format="pyarrow",
                              batch_size=8192)
    out = connected_components(
        pairs, nodes, max_iters=max_iters,
        num_partitions=num_partitions, local_threshold=local_threshold)
    return out.sort("node")


def run_link_depth(sf_dir: str, max_depth: int = 32,
                   num_partitions: int = 4,
                   local_threshold: int = 2_000_000):
    """BFS hop distance of every reachable corpus page from the crawl
    seed set (the same seeds.json ``run_crawl`` loads), over the full
    extracted link graph; (node, depth) sorted by node."""
    from dude_ray.canonical import canonicalize_url
    from dude_ray.pipelines.graph import link_edges
    from dude_ray.sources.corpus import (DEFAULT_NUM_PARTS, ensure_corpus,
                                         load_seeds)

    edges, _nodes = link_edges(sf_dir)
    corpus_dir = ensure_corpus(sf_dir, scale=1, seed_every=2,
                               num_parts=DEFAULT_NUM_PARTS)
    seeds = [canonicalize_url(s["url"]) for s in load_seeds(corpus_dir)]
    out = bfs_depths(edges, seeds, max_depth=max_depth,
                     num_partitions=num_partitions,
                     local_threshold=local_threshold)
    return out.sort("node")


def run_host_graph(sf_dir: str):
    """The HOST-level link graph: (src_host, dst_host, n_links) with
    multiplicity, sorted by (src_host, dst_host) — the site-to-site
    aggregation a crawl scheduler budgets over (hosts, not pages, are
    the politeness/recrawl unit).  Distributed shape: per-batch Arrow
    group_by partials (≤ #host-pairs rows per batch — fixed-size, no
    raw edge ever reaches the reduce) → tree_combine sum."""
    from dude_ray.pipelines.graph import link_edges
    from dude_ray.pipelines.relational import tree_combine

    edges, _nodes = link_edges(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        pairs = pa.table({"src_host": _netloc(t["src"]),
                          "dst_host": _netloc(t["dst"])})
        g = pairs.group_by(["src_host", "dst_host"]).aggregate(
            [([], "count_all")])
        return pa.table({"src_host": g["src_host"],
                         "dst_host": g["dst_host"],
                         "n_links": pc.cast(g["count_all"], pa.int64())})

    partials = edges.map_batches(partial, batch_format="pyarrow",
                                 batch_size=8192)
    out = tree_combine(partials, ("src_host", "dst_host"),
                       sums=("n_links",))
    return out.sort(["src_host", "dst_host"])


def run_link_reciprocity(sf_dir: str,
                         target_rows_per_group: int = 65536):
    """Per-host link reciprocity over the DISTINCT intra-host edge
    set: (host, n_edges, n_recip, reciprocity) where ``n_recip`` is
    the number of directed edges whose reverse also exists and
    ``reciprocity = round(n_recip / n_edges, 6)`` — a site-structure
    signal (template nav ≈ 1.0, hierarchies ≈ 0).  Hosts are the
    partition key (every host's edges land in one reduce group via
    ``hash_grouped_reduce``; per-group memory is one site's edge set,
    the same bound the frontier's politeness shards already rely on);
    batch-local dedup shrinks the shuffle before the exact one."""
    from dude_ray.pipelines.graph import link_edges
    from dude_ray.pipelines.relational import _py_round

    edges, _nodes = link_edges(sf_dir)
    n_edges_total = edges.count()

    def intra(t: pa.Table) -> pa.Table:
        sh = _netloc(t["src"])
        kept = pa.table({"host": sh, "a": t["src"].combine_chunks(),
                         "b": t["dst"].combine_chunks()}).filter(
            pc.equal(sh, _netloc(t["dst"])))
        # batch-local dedup: multiplicity never matters again
        return kept.group_by(["host", "a", "b"]).aggregate([])

    def recip(t: pa.Table) -> pa.Table:
        rows = []
        for host, e in t.to_pandas().groupby("host", sort=False):
            e = e.drop_duplicates(["a", "b"])
            fwd = set(zip(e["a"], e["b"]))
            n = len(fwd)
            r = sum((b, a) in fwd for a, b in fwd)
            rows.append((host, n, r))
        df = pd.DataFrame(rows, columns=["host", "n_edges", "n_recip"])
        ratio = _py_round(pa.array(
            df["n_recip"].to_numpy(np.float64)
            / df["n_edges"].to_numpy(np.float64)), 6)
        return pa.table({
            "host": pa.array(df["host"], pa.string()),
            "n_edges": pa.array(df["n_edges"], pa.int64()),
            "n_recip": pa.array(df["n_recip"], pa.int64()),
            "reciprocity": ratio})

    pairs = edges.map_batches(intra, batch_format="pyarrow",
                              batch_size=8192)
    out = hash_grouped_reduce(
        pairs, "host", recip, n_edges_total,
        target_rows_per_group=target_rows_per_group,
        out_cols=("host", "n_edges", "n_recip", "reciprocity"))
    return out.sort("host")


def run_component_sizes(sf_dir: str, max_iters: int = 64,
                        num_partitions: int = 4,
                        local_threshold: int = 2_000_000,
                        target_rows_per_group: int = 65536):
    """Histogram of intra-host connected-component sizes:
    (size, n_components) sorted by size — the shape-of-the-web summary
    (how many isolated pages vs whole-site navigation cliques).
    Composes :func:`connected_components` with a data-scaled per-label
    count and a fixed-domain histogram combine."""
    from dude_ray.pipelines.graph import link_edges
    from dude_ray.pipelines.relational import tree_combine

    edges, nodes = link_edges(sf_dir)
    n_nodes = nodes.count()

    def intra(t: pa.Table) -> pa.Table:
        keep = pc.equal(_netloc(t["src"]), _netloc(t["dst"]))
        kept = t.filter(keep)
        return pa.table({"a": kept["src"], "b": kept["dst"]})

    pairs = edges.map_batches(intra, batch_format="pyarrow",
                              batch_size=8192)
    labels = connected_components(
        pairs, nodes, max_iters=max_iters,
        num_partitions=num_partitions, local_threshold=local_threshold)

    comp_sizes = hash_grouped_reduce(
        labels.map_batches(
            lambda t: pa.table({"node": t["node"],
                                "component": t["component"]}),
            batch_format="pyarrow"),
        "component",
        lambda t: group_agg(t, "component", {"size": ([], "count_all")}),
        n_nodes,
        target_rows_per_group=target_rows_per_group,
        out_cols=("component", "size"))

    def hist(t: pa.Table) -> pa.Table:
        g = t.group_by(["size"]).aggregate([([], "count_all")])
        return pa.table({"size": g["size"],
                         "n_components": pc.cast(g["count_all"],
                                                 pa.int64())})

    partials = comp_sizes.map_batches(hist, batch_format="pyarrow",
                                      batch_size=65536)
    out = tree_combine(partials, ("size",), sums=("n_components",))
    return out.sort("size")


def _distinct_undirected(edges, n_edges: int,
                         target_rows_per_group: int = 65536):
    """DISTINCT undirected (lo, hi) pairs from directed (src, dst)
    string edges (self-links already absent upstream): batch-local
    canonicalize+dedup, then one exact hash-grouped dedup."""

    def canon(t: pa.Table) -> pa.Table:
        s = t["src"].combine_chunks()
        d = t["dst"].combine_chunks()
        lo = pc.min_element_wise(s, d)
        hi = pc.max_element_wise(s, d)
        return pa.table({"lo": lo, "hi": hi}).group_by(
            ["lo", "hi"]).aggregate([])

    pairs = edges.map_batches(canon, batch_format="pyarrow",
                              batch_size=8192)
    return hash_grouped_reduce(
        pairs, ("lo", "hi"), lambda t: group_agg(t, ["lo", "hi"]), n_edges,
        target_rows_per_group=target_rows_per_group,
        out_cols=("lo", "hi"))


def run_k_core(sf_dir: str, k: int = 2, rounds: int = 16,
               num_partitions: int = 4,
               target_rows_per_group: int = 65536):
    """The ``k``-core of the undirected DISTINCT link graph after
    ``rounds`` peel iterations: (node, degree) for every surviving
    node with its within-core degree, sorted by node — the
    graph-curation trim (drop weakly-embedded pages before expensive
    per-page scoring; Gopher-style connectivity floor).

    Semantics are defined as EXACTLY ``rounds`` peel steps (degree <
    ``k`` nodes removed, incident edges dropped, repeat) — the
    fixpoint early-stop below is a pure optimization: peeling is
    idempotent once the edge count stops changing, so stopping early
    never diverges from the unrolled-SQL oracle's fixed ``rounds``.
    Per round: one grouped endpoint count (data-scaled hash reduce) +
    two semi-joins shipping only surviving (node,) keys — the edge
    set never centralizes."""
    import ray.data  # noqa: F401

    from dude_ray.pipelines.graph import link_edges

    edges, _nodes = link_edges(sf_dir)
    n_edges = max(edges.count(), 1)
    und = _distinct_undirected(edges, n_edges,
                               target_rows_per_group).materialize()

    def degrees(pairs_ds, n_rows: int):
        both = pairs_ds.map_batches(
            lambda t: pa.table({"node": pa.concat_arrays(
                [t["lo"].combine_chunks(), t["hi"].combine_chunks()])}),
            batch_format="pyarrow")

        return hash_grouped_reduce(
            both, "node", _degree, 2 * max(n_rows, 1),
            target_rows_per_group=target_rows_per_group,
            out_cols=("node", "degree"))

    cur = und
    n_cur = cur.count()
    deg = degrees(cur, n_cur).materialize()
    for _ in range(rounds):
        surv = deg.filter(expr=f"degree >= {k}").select_columns(
            ["node"]).materialize()
        kept = cur.join(surv, "left_semi", num_partitions,
                        on=("lo",), right_on=("node",),
                        aggregator_ray_remote_args=_AGG_ARGS)
        kept = kept.join(surv, "left_semi", num_partitions,
                         on=("hi",), right_on=("node",),
                         aggregator_ray_remote_args=_AGG_ARGS)
        kept = kept.materialize()
        n_kept = kept.count()
        if n_kept == n_cur:
            break
        cur, n_cur = kept, n_kept
        deg = degrees(cur, n_cur).materialize()
    out = deg.filter(expr=f"degree >= {k}")
    return out.sort("node")


def run_host_depth_profile(sf_dir: str, max_depth: int = 32):
    """Per-host seed-reachability profile over the BFS depths of
    :func:`run_link_depth`: (host, n_reached, max_depth, avg_depth)
    sorted by host — how deep a breadth-budgeted crawl must go into
    each site, the per-site recrawl-budget signal.  avg_depth =
    round(Σdepth / n, 6) with the int64 sum exact on both engines.
    Fixed-size per-batch partials → tree_combine; hosts only."""
    from dude_ray.canonical import canonicalize_url
    from dude_ray.pipelines.graph import link_edges
    from dude_ray.pipelines.relational import _py_round, tree_combine
    from dude_ray.sources.corpus import (DEFAULT_NUM_PARTS, ensure_corpus,
                                         load_seeds)

    edges, _nodes = link_edges(sf_dir)
    corpus_dir = ensure_corpus(sf_dir, scale=1, seed_every=2,
                               num_parts=DEFAULT_NUM_PARTS)
    seeds = [canonicalize_url(s["url"]) for s in load_seeds(corpus_dir)]
    depths = bfs_depths(edges, seeds, max_depth=max_depth)

    def partial(t: pa.Table) -> pa.Table:
        host = _netloc(t["node"])
        tt = pa.table({"host": host, "depth": t["depth"]})
        g = tt.group_by(["host"]).aggregate(
            [("depth", "count"), ("depth", "sum"), ("depth", "max")])
        return pa.table({
            "host": g["host"],
            "n_reached": pc.cast(g["depth_count"], pa.int64()),
            "sum_depth": pc.cast(g["depth_sum"], pa.int64()),
            "max_depth": pc.cast(g["depth_max"], pa.int64())})

    partials = depths.map_batches(partial, batch_format="pyarrow",
                                  batch_size=65536)
    merged = tree_combine(partials, ("host",),
                          sums=("n_reached", "sum_depth"),
                          maxs=("max_depth",))

    def finalize(t: pa.Table) -> pa.Table:
        n = t["n_reached"].to_numpy(zero_copy_only=False).astype(np.float64)
        s = t["sum_depth"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "host": t["host"],
            "n_reached": t["n_reached"],
            "max_depth": t["max_depth"],
            "avg_depth": _py_round(pa.array(s / n, type=pa.float64()), 6)})

    return merged.map_batches(finalize,
                              batch_format="pyarrow").sort("host")


def run_host_rank(sf_dir: str, damping: float = 0.85, iters: int = 6):
    """Host-level PageRank mass: (host, n_pages, host_rank) with
    host_rank = round(Σ page ranks, 8) — the crawl-scheduler's
    site-priority table, composed from the DISTRIBUTED page-level
    power iteration (graph.pagerank_kernel) and a host partial-sum.
    Page ranks are rounded to 10 dp first (the kernel's established
    cross-engine contract); the host sum of ≤per-host-page-count such
    doubles drifts ≲1e-15 under reassociation, three orders below the
    8-dp quantum."""
    from dude_ray.pipelines.graph import run_pagerank
    from dude_ray.pipelines.relational import _py_round, tree_combine

    ranks = run_pagerank(sf_dir, damping=damping, iters=iters)

    def partial(t: pa.Table) -> pa.Table:
        tt = pa.table({"host": _netloc(t["node"]),
                       "rank": pc.round(t["rank"], ndigits=10)})
        g = tt.group_by(["host"]).aggregate(
            [([], "count_all"), ("rank", "sum")])
        return pa.table({
            "host": g["host"],
            "n_pages": pc.cast(g["count_all"], pa.int64()),
            "rank_sum": g["rank_sum"]})

    merged = tree_combine(
        ranks.map_batches(partial, batch_format="pyarrow",
                          batch_size=65536),
        ("host",), sums=("n_pages", "rank_sum"))

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({
            "host": t["host"],
            "n_pages": t["n_pages"],
            "host_rank": _py_round(t["rank_sum"], 8)})

    return merged.map_batches(finalize,
                              batch_format="pyarrow").sort("host")


def run_link_triangles(sf_dir: str,
                       target_rows_per_group: int = 65536):
    """Global triangle census of the DISTINCT undirected link graph —
    one row (n_edges, n_wedges, n_triangles, global_clustering) with
    C = round(3T / W, 6); W = Σ d(d−1)/2 from exact degrees.

    Triangle counting uses DEGREE-ORDERED ORIENTATION (orient every
    edge toward the higher (degree, id) endpoint): each triangle is
    enumerated exactly once from its minimum-(degree, id) vertex, and
    per-vertex out-degree is O(√m), so the wedge fan-out a hub would
    otherwise cause is bounded — the standard scale guard.  Candidate
    closing pairs then hash-join against the edge set; only (lo, hi)
    key pairs shuffle.  The oracle enumerates with min-ID orientation
    instead — a different single-count apex, same total."""
    from dude_ray.pipelines.graph import link_edges
    from dude_ray.pipelines.relational import _py_round

    import ray
    import ray.data  # noqa: F401

    edges, _nodes = link_edges(sf_dir)
    n_edges_raw = max(edges.count(), 1)
    und = _distinct_undirected(edges, n_edges_raw).materialize()
    n_und = und.count()

    both = und.map_batches(
        lambda t: pa.table({"node": pa.concat_arrays(
            [t["lo"].combine_chunks(), t["hi"].combine_chunks()])}),
        batch_format="pyarrow")

    deg = hash_grouped_reduce(both, "node", _degree, 2 * n_und,
                              out_cols=("node", "degree")).materialize()

    # wedge total from degrees alone — one scalar
    def wpart(t: pa.Table) -> pa.Table:
        d = t["degree"].to_numpy(zero_copy_only=False)
        return pa.table({"w": pa.array([int(np.sum(d * (d - 1) // 2))],
                                       type=pa.int64())})

    n_wedges = int(deg.map_batches(wpart,
                                   batch_format="pyarrow").sum("w"))

    dl = deg.map_batches(lambda t: pa.table(
        {"lnode": t["node"], "ldeg": t["degree"]}), batch_format="pyarrow")
    dh = deg.map_batches(lambda t: pa.table(
        {"hnode": t["node"], "hdeg": t["degree"]}), batch_format="pyarrow")
    j = und.join(dl, "inner", 4, on=("lo",), right_on=("lnode",),
                 aggregator_ray_remote_args=_AGG_ARGS)
    j = j.join(dh, "inner", 4, on=("hi",), right_on=("hnode",),
               aggregator_ray_remote_args=_AGG_ARGS)

    def orient(t: pa.Table) -> pa.Table:
        lo = t["lo"].to_numpy(zero_copy_only=False)
        hi = t["hi"].to_numpy(zero_copy_only=False)
        ld = t["ldeg"].to_numpy(zero_copy_only=False)
        hd = t["hdeg"].to_numpy(zero_copy_only=False)
        # src = the smaller (degree, id); ids are unique so ties on
        # degree break by string id — lo < hi already
        lo_first = (ld < hd) | ((ld == hd))
        src = np.where(lo_first, lo, hi)
        dst = np.where(lo_first, hi, lo)
        return pa.table({"src": pa.array(src, type=pa.string()),
                         "dst": pa.array(dst, type=pa.string())})

    oriented = j.map_batches(orient, batch_format="pyarrow",
                             batch_size=65536)

    def wedge_pairs(t: pa.Table) -> pa.Table:
        out_lo, out_hi = [], []
        for _, grp in t.to_pandas().groupby("src", sort=False):
            nb = np.sort(grp["dst"].to_numpy())
            k = len(nb)
            if k < 2:
                continue
            iu = np.triu_indices(k, 1)
            out_lo.append(nb[iu[0]])
            out_hi.append(nb[iu[1]])
        if not out_lo:
            return pa.table({"lo": pa.array([], pa.string()),
                             "hi": pa.array([], pa.string())})
        return pa.table({"lo": np.concatenate(out_lo),
                         "hi": np.concatenate(out_hi)})

    cand = hash_grouped_reduce(
        oriented, "src", wedge_pairs, n_und,
        target_rows_per_group=target_rows_per_group,
        out_cols=("lo", "hi"))
    closed = cand.join(
        und.map_batches(lambda t: pa.table({"elo": t["lo"],
                                            "ehi": t["hi"]}),
                        batch_format="pyarrow"),
        "inner", 4, on=("lo", "hi"), right_on=("elo", "ehi"),
        aggregator_ray_remote_args=_AGG_ARGS)
    n_tri = closed.count()

    c = 3.0 * n_tri / n_wedges if n_wedges else 0.0
    return ray.data.from_arrow(pa.table({
        "n_edges": pa.array([n_und], type=pa.int64()),
        "n_wedges": pa.array([n_wedges], type=pa.int64()),
        "n_triangles": pa.array([n_tri], type=pa.int64()),
        "global_clustering": _py_round(
            pa.array([c], type=pa.float64()), 6)}))


def run_seed_coverage(sf_dir: str, max_depth: int = 32):
    """Cumulative seed-reachability curve: (depth, n_pages, cum_pages,
    frac_corpus) — how much of the corpus a breadth-budgeted crawl
    captures per extra hop, the depth-cutoff planning table.
    ``frac_corpus`` = round(cum / n_docs, 6) against the WHOLE corpus
    (unreachable pages keep the curve honest below 1.0).  The depth
    histogram is tiny (≤ max_depth rows): per-batch partials,
    tree-combined, finalized in one block."""
    from dude_ray.canonical import canonicalize_url
    from dude_ray.pipelines.graph import link_edges
    from dude_ray.pipelines.relational import _py_round, tree_combine
    from dude_ray.sources.corpus import (DEFAULT_NUM_PARTS, ensure_corpus,
                                         load_seeds)

    edges, nodes = link_edges(sf_dir)
    n_docs = nodes.count()
    corpus_dir = ensure_corpus(sf_dir, scale=1, seed_every=2,
                               num_parts=DEFAULT_NUM_PARTS)
    seeds = [canonicalize_url(s["url"]) for s in load_seeds(corpus_dir)]
    depths = bfs_depths(edges, seeds, max_depth=max_depth)

    def partial(t: pa.Table) -> pa.Table:
        g = t.select(["depth"]).group_by(["depth"]).aggregate(
            [([], "count_all")])
        return pa.table({"depth": g["depth"],
                         "n_pages": pc.cast(g["count_all"], pa.int64())})

    hist = tree_combine(
        depths.map_batches(partial, batch_format="pyarrow",
                           batch_size=65536),
        ("depth",), sums=("n_pages",))

    def finalize(t: pa.Table) -> pa.Table:
        order = pc.sort_indices(t["depth"])
        d = t["depth"].take(order)
        n = t["n_pages"].take(order)
        cum = np.cumsum(n.to_numpy(zero_copy_only=False))
        return pa.table({
            "depth": d,
            "n_pages": n,
            "cum_pages": pa.array(cum, type=pa.int64()),
            "frac_corpus": _py_round(
                pa.array(cum.astype(np.float64) / float(n_docs)), 6)})

    return (hist.repartition(1)
            .map_batches(finalize, batch_format="pyarrow",
                         batch_size=None)
            .sort("depth"))


def run_degree_assortativity(sf_dir: str):
    """Degree assortativity of the undirected DISTINCT link graph —
    one row (n_edges, assortativity): the Pearson correlation of
    endpoint degrees over the 2·|E| symmetric edge-end samples
    (Newman 2002).  Both marginals are identical by symmetry, so
    r = (n·Σxy − (Σx)²) / (n·Σx² − (Σx)²) — every term an exact int64
    (degrees are small), ONE float division at the end (6-dp
    contract), which is what lets DuckDB reproduce the value
    bit-for-bit.  Distributed shape: grouped degree count → two hash
    joins decorate edges with endpoint degrees → per-batch int64
    moment partials → three scalar sums."""
    import ray
    import ray.data  # noqa: F401

    from dude_ray.pipelines.graph import link_edges
    from dude_ray.pipelines.relational import _py_round

    edges, _nodes = link_edges(sf_dir)
    n_edges = max(edges.count(), 1)
    und = _distinct_undirected(edges, n_edges).materialize()

    both = und.map_batches(
        lambda t: pa.table({"node": pa.concat_arrays(
            [t["lo"].combine_chunks(), t["hi"].combine_chunks()])}),
        batch_format="pyarrow")

    deg = hash_grouped_reduce(both, "node", _degree, und.count() * 2,
                              out_cols=("node", "degree")).materialize()

    dl = deg.map_batches(lambda t: pa.table(
        {"lnode": t["node"], "ldeg": t["degree"]}), batch_format="pyarrow")
    dh = deg.map_batches(lambda t: pa.table(
        {"hnode": t["node"], "hdeg": t["degree"]}), batch_format="pyarrow")
    j = und.join(dl, "inner", 4, on=("lo",), right_on=("lnode",),
                 aggregator_ray_remote_args=_AGG_ARGS)
    j = j.join(dh, "inner", 4, on=("hi",), right_on=("hnode",),
               aggregator_ray_remote_args=_AGG_ARGS)

    def moments(t: pa.Table) -> pa.Table:
        x = t["ldeg"].to_numpy(zero_copy_only=False).astype(np.int64)
        y = t["hdeg"].to_numpy(zero_copy_only=False).astype(np.int64)
        # symmetric samples: (x,y) and (y,x) — Σx covers both ends
        return pa.table({
            "m": pa.array([len(x)], type=pa.int64()),
            "sx": pa.array([int(np.sum(x) + np.sum(y))], type=pa.int64()),
            "sxx": pa.array([int(np.sum(x * x) + np.sum(y * y))],
                            type=pa.int64()),
            "sxy": pa.array([2 * int(np.sum(x * y))], type=pa.int64()),
        })

    part = j.map_batches(moments, batch_format="pyarrow",
                         batch_size=65536)
    m = part.sum(["m", "sx", "sxx", "sxy"])
    e_cnt = int(m["sum(m)"])
    n = 2 * e_cnt
    sx, sxx, sxy = int(m["sum(sx)"]), int(m["sum(sxx)"]), int(m["sum(sxy)"])
    num = n * sxy - sx * sx
    den = n * sxx - sx * sx
    r = float(num) / float(den) if den else 0.0
    val = _py_round(pa.array([r], type=pa.float64()), 6)
    return ray.data.from_arrow(pa.table({
        "n_edges": pa.array([e_cnt], type=pa.int64()),
        "assortativity": val}))


# --------------------------------------------------------------------------
# oracles
# --------------------------------------------------------------------------

def _graph_sql_parts(sf_dir: str | None):
    """Shared oracle preamble: bounds VALUES, node id→URL CTE and the
    inlined (generator-determined) edge list — identical mechanism to
    :func:`graph.cocitation_oracle_sql` (the edge TOPOLOGY is a pure
    function of n_docs; every algorithm step is recomputed in SQL)."""
    import os

    import pyarrow.parquet as pq

    from dude_ray.pipelines.graph import corpus_link_edges_py

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
    preamble = f"""
        bounds(h, lo, hi) AS (VALUES {b_vals}),
        nodes AS (
            SELECT d.doc_id AS id,
                   'https://h' || lpad(CAST(b.h AS VARCHAR), 4, '0')
                       || '.test/docs/' || CAST(d.doc_id AS VARCHAR)
                       || '.html' AS node
            FROM documents d JOIN bounds b
              ON d.doc_id >= b.lo AND d.doc_id < b.hi
        ),
        edges0(src_id, dst_id) AS (VALUES {e_vals})"""
    return preamble, bounds, n_docs


def link_components_oracle_sql(sf_dir: str | None = None) -> str:
    """DuckDB oracle for :func:`run_link_components`: recursive-CTE
    reachability closure over the DISTINCT undirected intra-host edge
    set (host equality recomputed in SQL from the bounds), component =
    min member URL (min taken over URL STRINGS, matching the engine's
    lexicographic label order — within a host that is the string order
    of the numeric doc id, not its numeric order)."""
    preamble, _bounds, _n = _graph_sql_parts(sf_dir)
    return f"""
        WITH RECURSIVE {preamble},
        intra AS (
            SELECT DISTINCT e.src_id AS a, e.dst_id AS b
            FROM edges0 e
            JOIN bounds bs ON e.src_id >= bs.lo AND e.src_id < bs.hi
            JOIN bounds bd ON e.dst_id >= bd.lo AND e.dst_id < bd.hi
            WHERE bs.h = bd.h
        ),
        und AS (SELECT a, b FROM intra
                UNION SELECT b, a FROM intra),
        reach(id, peer) AS (
            SELECT doc_id, doc_id FROM documents
            UNION
            SELECT r.id, u.b FROM reach r JOIN und u ON u.a = r.peer
        ),
        comp AS (
            SELECT r.id, min(np.node) AS component
            FROM reach r JOIN nodes np ON np.id = r.peer
            GROUP BY r.id
        )
        SELECT n.node AS node, c.component AS component
        FROM comp c JOIN nodes n ON n.id = c.id
        ORDER BY node
    """


def host_graph_oracle_sql(sf_dir: str | None = None) -> str:
    """DuckDB oracle for :func:`run_host_graph`: the inlined edge list
    re-aggregated at host granularity (host label rebuilt from the
    bounds, matching the engine's ``_netloc`` — bare netloc, no
    scheme), multiplicity preserved."""
    preamble, _bounds, _n = _graph_sql_parts(sf_dir)
    return f"""
        WITH {preamble},
        hosted AS (
            SELECT 'h' || lpad(CAST(bs.h AS VARCHAR), 4, '0') || '.test'
                       AS src_host,
                   'h' || lpad(CAST(bd.h AS VARCHAR), 4, '0') || '.test'
                       AS dst_host
            FROM edges0 e
            JOIN bounds bs ON e.src_id >= bs.lo AND e.src_id < bs.hi
            JOIN bounds bd ON e.dst_id >= bd.lo AND e.dst_id < bd.hi
        )
        SELECT src_host, dst_host, count(*) AS n_links
        FROM hosted GROUP BY src_host, dst_host
        ORDER BY src_host, dst_host
    """


def link_reciprocity_oracle_sql(sf_dir: str | None = None) -> str:
    """DuckDB oracle for :func:`run_link_reciprocity`: DISTINCT
    intra-host edges, reverse-existence via LEFT JOIN on the swapped
    pair, ratio rounded like the engine (DuckDB round == _py_round,
    correctly-rounded half-away-from-zero)."""
    preamble, _bounds, _n = _graph_sql_parts(sf_dir)
    return f"""
        WITH {preamble},
        intra AS (
            SELECT DISTINCT bs.h AS h, e.src_id AS a, e.dst_id AS b
            FROM edges0 e
            JOIN bounds bs ON e.src_id >= bs.lo AND e.src_id < bs.hi
            JOIN bounds bd ON e.dst_id >= bd.lo AND e.dst_id < bd.hi
            WHERE bs.h = bd.h
        )
        SELECT 'h' || lpad(CAST(i.h AS VARCHAR), 4, '0') || '.test'
                   AS host,
               count(*) AS n_edges,
               count(j.a) AS n_recip,
               round(count(j.a) * 1.0 / count(*), 6) AS reciprocity
        FROM intra i
        LEFT JOIN intra j ON j.h = i.h AND j.a = i.b AND j.b = i.a
        GROUP BY i.h
        ORDER BY host
    """


def component_sizes_oracle_sql(sf_dir: str | None = None) -> str:
    """DuckDB oracle for :func:`run_component_sizes`: the
    :func:`link_components_oracle_sql` reachability closure grouped
    twice — component → size, then size → n_components."""
    preamble, _bounds, _n = _graph_sql_parts(sf_dir)
    return f"""
        WITH RECURSIVE {preamble},
        intra AS (
            SELECT DISTINCT e.src_id AS a, e.dst_id AS b
            FROM edges0 e
            JOIN bounds bs ON e.src_id >= bs.lo AND e.src_id < bs.hi
            JOIN bounds bd ON e.dst_id >= bd.lo AND e.dst_id < bd.hi
            WHERE bs.h = bd.h
        ),
        und AS (SELECT a, b FROM intra
                UNION SELECT b, a FROM intra),
        reach(id, peer) AS (
            SELECT doc_id, doc_id FROM documents
            UNION
            SELECT r.id, u.b FROM reach r JOIN und u ON u.a = r.peer
        ),
        comp AS (
            SELECT r.id, min(np.node) AS component
            FROM reach r JOIN nodes np ON np.id = r.peer
            GROUP BY r.id
        ),
        sizes AS (
            SELECT component, count(*) AS size FROM comp
            GROUP BY component
        )
        SELECT size, count(*) AS n_components
        FROM sizes GROUP BY size ORDER BY size
    """


def k_core_oracle_sql(sf_dir: str | None = None, k: int = 2,
                      rounds: int = 16) -> str:
    """DuckDB oracle for :func:`run_k_core`: ``rounds`` peel steps
    unrolled as chained MATERIALIZED CTEs (the HITS-oracle trick —
    without MATERIALIZED the inlining blows up exponentially).  The
    peel is idempotent past the fixpoint, so a fixed unroll equals the
    engine's early-stopped loop whenever the fixpoint lands within
    ``rounds`` (the engine's definition is the same fixed-round
    semantics, see its docstring)."""
    preamble, _bounds, _n = _graph_sql_parts(sf_dir)
    parts = [f"""
        e0 AS MATERIALIZED (
            SELECT DISTINCT least(src_id, dst_id) AS lo,
                            greatest(src_id, dst_id) AS hi
            FROM edges0)"""]
    for i in range(rounds + 1):
        parts.append(f"""
        d{i} AS MATERIALIZED (
            SELECT node, count(*) AS deg
            FROM (SELECT lo AS node FROM e{i}
                  UNION ALL SELECT hi FROM e{i})
            GROUP BY node)""")
        if i < rounds:
            parts.append(f"""
        e{i + 1} AS MATERIALIZED (
            SELECT e.lo, e.hi FROM e{i} e
            JOIN d{i} x ON x.node = e.lo AND x.deg >= {k}
            JOIN d{i} y ON y.node = e.hi AND y.deg >= {k})""")
    chain = ",".join(parts)
    return f"""
        WITH {preamble},{chain}
        SELECT n.node AS node, CAST(d.deg AS BIGINT) AS degree
        FROM d{rounds} d JOIN nodes n ON n.id = d.node
        WHERE d.deg >= {k}
        ORDER BY node
    """


def host_depth_profile_oracle_sql(sf_dir: str | None = None,
                                  max_depth: int = 32) -> str:
    """DuckDB oracle for :func:`run_host_depth_profile`: the
    :func:`link_depth_oracle_sql` bounded BFS grouped at host
    granularity; avg via one DOUBLE division then round 6 (identical
    IEEE sequence — the int64 sum is exact on both engines)."""
    preamble, bounds, _n = _graph_sql_parts(sf_dir)
    seed_ids = [bounds[h] for h in range(len(bounds) - 1) if h % 2 == 0]
    s_vals = ",".join(f"({i})" for i in seed_ids)
    return f"""
        WITH RECURSIVE {preamble},
        dd AS (SELECT DISTINCT src_id, dst_id FROM edges0),
        seeds(id) AS (VALUES {s_vals}),
        bfs(id, depth) AS (
            SELECT id, 0 FROM seeds
            UNION
            SELECT e.dst_id, b.depth + 1
            FROM bfs b JOIN dd e ON e.src_id = b.id
            WHERE b.depth < {max_depth}
        ),
        best AS (
            SELECT id, min(depth) AS depth FROM bfs GROUP BY id
        )
        SELECT 'h' || lpad(CAST(bs.h AS VARCHAR), 4, '0') || '.test'
                   AS host,
               count(*) AS n_reached,
               CAST(max(b.depth) AS BIGINT) AS max_depth,
               round(CAST(sum(b.depth) AS DOUBLE) / count(*), 6)
                   AS avg_depth
        FROM best b
        JOIN bounds bs ON b.id >= bs.lo AND b.id < bs.hi
        GROUP BY bs.h
        ORDER BY host
    """


def host_rank_oracle_sql(sf_dir: str | None = None,
                         damping: float = 0.85, iters: int = 6) -> str:
    """DuckDB oracle for :func:`run_host_rank`: the full unrolled
    power-iteration chain of :func:`graph.pagerank_oracle_sql` as a
    subquery (its fin already rounds pages to 10 dp), host extracted
    by regex from the node URL, sum rounded to 8 dp."""
    from dude_ray.pipelines.graph import pagerank_oracle_sql

    inner = pagerank_oracle_sql(sf_dir, damping=damping, iters=iters)
    return f"""
        SELECT host,
               CAST(count(*) AS BIGINT) AS n_pages,
               round(sum(rank), 8) AS host_rank
        FROM (
            SELECT regexp_extract(node, '://([^/]+)', 1) AS host, rank
            FROM ({inner}) base
        )
        GROUP BY host
        ORDER BY host
    """


def link_triangles_oracle_sql(sf_dir: str | None = None) -> str:
    """DuckDB oracle for :func:`run_link_triangles`: min-ID-apex
    triangle enumeration (every triangle counted once from its
    smallest vertex — a different single-count orientation than the
    engine's degree order, same total), wedges from the degree table,
    the same (3.0·T)/W IEEE sequence."""
    preamble, _bounds, _n = _graph_sql_parts(sf_dir)
    return f"""
        WITH {preamble},
        und AS (
            SELECT DISTINCT least(src_id, dst_id) AS lo,
                            greatest(src_id, dst_id) AS hi
            FROM edges0),
        deg AS (
            SELECT node, count(*) AS deg
            FROM (SELECT lo AS node FROM und UNION ALL SELECT hi FROM und)
            GROUP BY node),
        w AS (SELECT sum((deg * (deg - 1)) // 2) AS w FROM deg),
        tri AS (
            SELECT count(*) AS t
            FROM und e1
            JOIN und e2 ON e2.lo = e1.lo AND e2.hi > e1.hi
            JOIN und e3 ON e3.lo = e1.hi AND e3.hi = e2.hi)
        SELECT (SELECT count(*) FROM und) AS n_edges,
               CAST(w.w AS BIGINT) AS n_wedges,
               CAST(tri.t AS BIGINT) AS n_triangles,
               round((3.0 * tri.t) / w.w, 6) AS global_clustering
        FROM w, tri
    """


def seed_coverage_oracle_sql(sf_dir: str | None = None,
                             max_depth: int = 32) -> str:
    """DuckDB oracle for :func:`run_seed_coverage`: the bounded-BFS
    depth histogram with a window cumulative sum; frac against
    count(*) FROM documents (one DOUBLE division + round 6)."""
    preamble, bounds, _n = _graph_sql_parts(sf_dir)
    seed_ids = [bounds[h] for h in range(len(bounds) - 1) if h % 2 == 0]
    s_vals = ",".join(f"({i})" for i in seed_ids)
    return f"""
        WITH RECURSIVE {preamble},
        dd AS (SELECT DISTINCT src_id, dst_id FROM edges0),
        seeds(id) AS (VALUES {s_vals}),
        bfs(id, depth) AS (
            SELECT id, 0 FROM seeds
            UNION
            SELECT e.dst_id, b.depth + 1
            FROM bfs b JOIN dd e ON e.src_id = b.id
            WHERE b.depth < {max_depth}
        ),
        best AS (SELECT id, min(depth) AS depth FROM bfs GROUP BY id),
        hist AS (
            SELECT depth, count(*) AS n_pages FROM best GROUP BY depth
        )
        SELECT CAST(depth AS BIGINT) AS depth,
               n_pages,
               CAST(sum(n_pages) OVER (ORDER BY depth) AS BIGINT)
                   AS cum_pages,
               round(CAST(sum(n_pages) OVER (ORDER BY depth) AS DOUBLE)
                     / (SELECT count(*) FROM documents), 6)
                   AS frac_corpus
        FROM hist
        ORDER BY depth
    """


def degree_assortativity_oracle_sql(sf_dir: str | None = None) -> str:
    """DuckDB oracle for :func:`run_degree_assortativity`: the same
    exact-int64 moment algebra over the DISTINCT undirected edge set,
    one DOUBLE division at the end (identical IEEE sequence — the
    moments fit a double exactly at every test scale)."""
    preamble, _bounds, _n = _graph_sql_parts(sf_dir)
    return f"""
        WITH {preamble},
        und AS (
            SELECT DISTINCT least(src_id, dst_id) AS lo,
                            greatest(src_id, dst_id) AS hi
            FROM edges0),
        deg AS (
            SELECT node, count(*) AS deg
            FROM (SELECT lo AS node FROM und UNION ALL SELECT hi FROM und)
            GROUP BY node),
        j AS (
            SELECT x.deg AS dx, y.deg AS dy
            FROM und e
            JOIN deg x ON x.node = e.lo
            JOIN deg y ON y.node = e.hi),
        s AS (
            SELECT count(*) AS m,
                   sum(dx + dy) AS sx,
                   sum(dx * dx + dy * dy) AS sxx,
                   2 * sum(dx * dy) AS sxy
            FROM j)
        SELECT CAST(m AS BIGINT) AS n_edges,
               round(CAST(2 * m * sxy - sx * sx AS DOUBLE)
                     / CAST(2 * m * sxx - sx * sx AS DOUBLE), 6)
                   AS assortativity
        FROM s
    """


def link_depth_oracle_sql(sf_dir: str | None = None,
                          max_depth: int = 32) -> str:
    """DuckDB oracle for :func:`run_link_depth`: bounded recursive-CTE
    BFS (depth < ``max_depth`` keeps the UNION-distinct recursion
    finite on cyclic graphs) from the inlined seed ids — seeds are the
    same pure function of n_docs (first doc of every 2nd host,
    corpus.seed_urls) the engine's seeds.json is generated from."""
    preamble, bounds, n_docs = _graph_sql_parts(sf_dir)
    seed_ids = [bounds[h] for h in range(len(bounds) - 1) if h % 2 == 0]
    s_vals = ",".join(f"({i})" for i in seed_ids)
    return f"""
        WITH RECURSIVE {preamble},
        dd AS (SELECT DISTINCT src_id, dst_id FROM edges0),
        seeds(id) AS (VALUES {s_vals}),
        bfs(id, depth) AS (
            SELECT id, 0 FROM seeds
            UNION
            SELECT e.dst_id, b.depth + 1
            FROM bfs b JOIN dd e ON e.src_id = b.id
            WHERE b.depth < {max_depth}
        )
        SELECT n.node AS node, CAST(min(b.depth) AS BIGINT) AS depth
        FROM bfs b JOIN nodes n ON n.id = b.id
        GROUP BY n.node
        ORDER BY node
    """


# --------------------------------------------------------------------------
# bow-tie decomposition of the directed link graph (Broder et al. 2000)
# --------------------------------------------------------------------------

def run_bowtie_census(sf_dir: str,
                      target_rows_per_group: int = 65536):
    """Bow-tie decomposition of the DIRECTED crawl link graph (Broder
    et al. 2000, "Graph structure in the Web"): pick the
    highest-degree page as the pivot (ties → lexicographically
    smallest URL), take F = its forward reachability set and B = its
    backward set, and classify every page as ``core`` (F∩B — the
    pivot's strongly connected component and the crawl's recurrent
    heart), ``in`` (B only — feeds the core), ``out`` (F only — fed
    by it) or ``other`` (tendrils/disconnected).  Output one row per
    nonempty class: (cls, n_pages) — the macro-shape statistic that
    tells a crawler how much of the web its seeds can ever reach.

    Plan (the 100 TB shape): degrees via the data-scaled hash reduce
    + per-block top-1 (only blocks·1 candidate rows reach the final
    pick); both reachability sets via :func:`bfs_depths` (tiered:
    driver FIFO below 2M edges, per-round hash-join Bellman-Ford
    above); classification is ONE more hash reduce over (node, f, b)
    marker rows that emits per-class partial counts, tree-merged to
    ≤ 4 rows.  No stage holds the node set in one process on the
    scale path."""
    from dude_ray.pipelines.graph import link_edges
    from dude_ray.pipelines.relational import tree_combine

    edges, nodes = link_edges(sf_dir)
    edges = edges.materialize()
    n_edges = max(edges.count(), 1)

    both = edges.map_batches(
        lambda t: pa.table({"node": pa.concat_arrays(
            [t["src"].combine_chunks(), t["dst"].combine_chunks()])}),
        batch_format="pyarrow")

    deg = hash_grouped_reduce(both, "node",
                              lambda t: group_agg(
                                  t, "node", {"d": ([], "count_all")}),
                              2 * n_edges,
                              target_rows_per_group,
                              out_cols=("node", "d"))

    def _top1(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["d", "node"],
                              ascending=[False, True]).head(1)

    pivot = (deg.map_batches(_top1, batch_format="pandas",
                             batch_size=None)
             .repartition(1)
             .map_batches(_top1, batch_format="pandas",
                          batch_size=None)
             .to_pandas()["node"].iloc[0])

    rev = edges.map_batches(
        lambda t: pa.table({"src": t["dst"], "dst": t["src"]}),
        batch_format="pyarrow").materialize()
    fwd = bfs_depths(edges, [pivot], max_depth=1 << 30)
    bwd = bfs_depths(rev, [pivot], max_depth=1 << 30)

    def _mark(f: int, b: int):
        def m(t: pa.Table) -> pa.Table:
            n = len(t)
            return pa.table({
                "node": t["node"],
                "f": pa.array(np.full(n, f, dtype=np.int64)),
                "b": pa.array(np.full(n, b, dtype=np.int64))})
        return m

    marks = (fwd.map_batches(_mark(1, 0), batch_format="pyarrow")
             .union(bwd.map_batches(_mark(0, 1),
                                    batch_format="pyarrow"))
             .union(nodes.map_batches(_mark(0, 0),
                                      batch_format="pyarrow")))

    def _classify(t: pa.Table) -> pa.Table:
        per = group_agg(t, "node", {"f": ("f", "sum"), "b": ("b", "sum")})
        f = per["f"].to_numpy() > 0
        b = per["b"].to_numpy() > 0
        cls = np.where(f & b, "core",
                       np.where(b, "in",
                                np.where(f, "out", "other")))
        return group_agg(pa.table({"cls": cls}), "cls",
                         {"n_pages": ([], "count_all")})

    partials = hash_grouped_reduce(
        marks, "node", _classify, 2 * n_edges,
        target_rows_per_group, out_cols=("cls", "n_pages"))
    return tree_combine(partials, ["cls"],
                        sums=("n_pages",)).sort("cls")


def bowtie_census_oracle_sql(sf_dir: str | None = None) -> str:
    """DuckDB oracle for :func:`run_bowtie_census`: the same
    (degree DESC, URL ASC) pivot, recursive-CTE forward/backward
    closures over the inlined edge list, CASE classification."""
    preamble, _bounds, _n = _graph_sql_parts(sf_dir)
    return f"""
        WITH RECURSIVE {preamble},
        ecnt AS (SELECT src_id AS id FROM edges0
                 UNION ALL SELECT dst_id FROM edges0),
        deg AS (SELECT id, count(*) AS d FROM ecnt GROUP BY id),
        pv AS (
            SELECT n.id FROM deg JOIN nodes n ON n.id = deg.id
            ORDER BY deg.d DESC, n.node ASC LIMIT 1),
        fwd(id) AS (
            SELECT id FROM pv
            UNION
            SELECT e.dst_id FROM fwd f
            JOIN edges0 e ON e.src_id = f.id),
        bwd(id) AS (
            SELECT id FROM pv
            UNION
            SELECT e.src_id FROM bwd b
            JOIN edges0 e ON e.dst_id = b.id),
        cls AS (
            SELECT n.id,
                   CASE WHEN f.id IS NOT NULL AND b.id IS NOT NULL
                        THEN 'core'
                        WHEN b.id IS NOT NULL THEN 'in'
                        WHEN f.id IS NOT NULL THEN 'out'
                        ELSE 'other' END AS cls
            FROM nodes n
            LEFT JOIN fwd f ON f.id = n.id
            LEFT JOIN bwd b ON b.id = n.id)
        SELECT cls, CAST(count(*) AS BIGINT) AS n_pages
        FROM cls GROUP BY cls ORDER BY cls
    """


def run_host_modularity(sf_dir: str,
                        target_rows_per_group: int = 65536):
    """Newman MODULARITY of the host partition of the DISTINCT
    undirected link graph: per host i, ``contrib = e_ii/m −
    (d_i/(2m))²`` (intra-host edge fraction minus the random-graph
    expectation from its degree mass); Q = Σ contrib answers "is this
    corpus siloed into sites or one tangled web" — the community-
    structure number a crawler uses to decide host-partitioned vs
    global scheduling.  Output: (host, n_intra, deg_sum, contrib).

    Plan (the 100 TB shape): one pass over the distinct undirected
    edges emits fixed-size (host → n_intra, deg) partials (an edge
    adds 1 to each endpoint's host, 1 to n_intra when they agree);
    tree-merge to the ≤|hosts| table; m is the exact edge count.
    All-integer until the final constant-size IEEE expression,
    rounded 6 dp (shared tree with the oracle)."""
    from dude_ray.pipelines.graph import link_edges
    from dude_ray.pipelines.relational import _py_round, tree_combine

    edges, _nodes = link_edges(sf_dir)
    n_edges_raw = max(edges.count(), 1)
    und = _distinct_undirected(edges, n_edges_raw,
                               target_rows_per_group).materialize()
    m = max(und.count(), 1)

    def _partial(t: pa.Table) -> pa.Table:
        hlo = _netloc(t["lo"])
        hhi = _netloc(t["hi"])
        same = pc.equal(hlo, hhi)
        intra_lo = pc.cast(same, pa.int64())
        zeros = pa.array(np.zeros(len(t), dtype=np.int64))
        ones = pa.array(np.ones(len(t), dtype=np.int64))
        tt = pa.table({
            "host": pa.concat_arrays([hlo.combine_chunks()
                                      if isinstance(hlo, pa.ChunkedArray)
                                      else hlo,
                                      hhi.combine_chunks()
                                      if isinstance(hhi, pa.ChunkedArray)
                                      else hhi]),
            "n_intra": pa.concat_arrays([
                intra_lo.combine_chunks()
                if isinstance(intra_lo, pa.ChunkedArray) else intra_lo,
                zeros]),
            "deg_sum": pa.concat_arrays([ones, ones]),
        })
        g = tt.group_by(["host"]).aggregate([("n_intra", "sum"),
                                             ("deg_sum", "sum")])
        return pa.table({"host": g["host"],
                         "n_intra": g["n_intra_sum"],
                         "deg_sum": g["deg_sum_sum"]})

    merged = tree_combine(
        und.map_batches(_partial, batch_format="pyarrow",
                        batch_size=65536),
        ["host"], sums=("n_intra", "deg_sum"))

    def finalize(t: pa.Table) -> pa.Table:
        ei = t["n_intra"].to_numpy(zero_copy_only=False).astype(
            np.float64)
        dg = t["deg_sum"].to_numpy(zero_copy_only=False).astype(
            np.float64)
        frac = dg / (2.0 * m)
        contrib = ei / m - frac * frac
        return pa.table({
            "host": t["host"],
            "n_intra": t["n_intra"],
            "deg_sum": t["deg_sum"],
            "contrib": _py_round(pa.array(contrib, type=pa.float64()),
                                 6)})

    return merged.map_batches(finalize, batch_format="pyarrow",
                              batch_size=None).sort("host")


def host_modularity_oracle_sql(sf_dir: str | None = None) -> str:
    """DuckDB oracle for :func:`run_host_modularity`: the distinct
    undirected edge list with host labels from the bounds table, the
    identical contrib expression tree."""
    preamble, _bounds, _n = _graph_sql_parts(sf_dir)
    return f"""
        WITH {preamble},
        und AS (
            SELECT DISTINCT least(src_id, dst_id) AS lo,
                            greatest(src_id, dst_id) AS hi
            FROM edges0),
        m AS (SELECT CAST(count(*) AS DOUBLE) AS m FROM und),
        hof AS (
            SELECT u.lo, u.hi,
                   'h' || lpad(CAST(bl.h AS VARCHAR), 4, '0')
                       || '.test' AS hlo,
                   'h' || lpad(CAST(bh.h AS VARCHAR), 4, '0')
                       || '.test' AS hhi
            FROM und u
            JOIN bounds bl ON u.lo >= bl.lo AND u.lo < bl.hi
            JOIN bounds bh ON u.hi >= bh.lo AND u.hi < bh.hi),
        ends AS (
            SELECT hlo AS host,
                   CASE WHEN hlo = hhi THEN 1 ELSE 0 END AS n_intra,
                   1 AS deg FROM hof
            UNION ALL
            SELECT hhi, 0, 1 FROM hof),
        agg AS (
            SELECT host, sum(n_intra) AS n_intra, sum(deg) AS deg_sum
            FROM ends GROUP BY host)
        SELECT host,
               CAST(n_intra AS BIGINT) AS n_intra,
               CAST(deg_sum AS BIGINT) AS deg_sum,
               round((n_intra * 1.0) / (SELECT m FROM m)
                     - ((deg_sum * 1.0) / (2.0 * (SELECT m FROM m)))
                       * ((deg_sum * 1.0) / (2.0 * (SELECT m FROM m))),
                     6) AS contrib
        FROM agg ORDER BY host
    """


# --------------------------------------------------------------------------
# deterministic random walks from the seed set (graph sampling)
# --------------------------------------------------------------------------

def run_seed_walks(sf_dir: str, length: int = 8,
                   num_partitions: int = 4,
                   target_rows_per_group: int = 65536,
                   local_threshold: int = 2_000_000):
    """DETERMINISTIC random walks from every crawl seed over the
    distinct directed link graph — the node2vec/DeepWalk sampling
    primitive, made reproducible (and therefore SQL-oracle-able) by
    drawing each step from a hash instead of an RNG: at step t the
    walker at ``node`` moves to the neighbor with
    ``rank = splitmix64(md5_top8(node) + t) mod outdeg`` (neighbors
    ranked by URL; a dead end ends the walk).  Output: one row per
    visited position — (seed, step, node), step 0 = the seed.

    Plan (the 100 TB shape): the ranked adjacency (src, dst, rank,
    outdeg) builds with ONE data-scaled hash reduce and materializes
    once; each of the ``length`` steps is ONE hash join of the
    walker frontier against it (frontier = |seeds| rows; the join
    fans out outdeg rows per walker, filtered immediately to the one
    picked edge).  Per-walker state never leaves the data plane.
    Below ``local_threshold`` edges the walk instead runs as one
    vectorized driver pass over the collected ranked adjacency (the
    ``bfs_depths`` tier-1 discipline — ``length`` sequential joins
    cannot beat array indexing on a graph that fits one heap);
    tier equivalence is pytest-asserted.

    Float contract: none — every quantity is exact integer (md5 fold,
    splitmix64 wraparound arithmetic, modulo pick), reproduced
    bit-for-bit by the oracle's HUGEINT schoolbook arithmetic."""
    import hashlib

    import ray.data as rd

    from dude_ray.pipelines.graph import link_edges
    from dude_ray.pipelines.sketches import _mix64
    from dude_ray.canonical import canonicalize_url
    from dude_ray.sources.corpus import (DEFAULT_NUM_PARTS,
                                         ensure_corpus, load_seeds)

    _AGG = {"num_cpus": 0}
    edges, _nodes = link_edges(sf_dir)
    n_edges = max(edges.count(), 1)

    def _dd(t: pa.Table) -> pa.Table:
        return t.select(["src", "dst"]).group_by(
            ["src", "dst"]).aggregate([])

    def _rank(t: pa.Table) -> pa.Table:
        outs = []
        for src, grp in t.to_pandas().groupby("src", sort=False):
            nb = np.unique(grp["dst"].to_numpy())
            outs.append(pd.DataFrame({
                "src": src, "dst": nb,
                "rank": np.arange(len(nb), dtype=np.int64),
                "od": np.full(len(nb), len(nb), dtype=np.int64)}))
        if not outs:
            return pa.table({"src": pa.array([], pa.string()),
                             "dst": pa.array([], pa.string()),
                             "rank": pa.array([], pa.int64()),
                             "od": pa.array([], pa.int64())})
        return pa.Table.from_pandas(pd.concat(outs), preserve_index=False)

    ranked = hash_grouped_reduce(
        edges.map_batches(_dd, batch_format="pyarrow",
                          batch_size=65536),
        "src", _rank, n_edges, target_rows_per_group,
        out_cols=("src", "dst", "rank", "od")).materialize()

    corpus_dir = ensure_corpus(sf_dir, scale=1, seed_every=2,
                               num_parts=DEFAULT_NUM_PARTS)
    seeds = sorted({canonicalize_url(s["url"])
                    for s in load_seeds(corpus_dir)})

    if n_edges <= local_threshold:
        rdf = ranked.to_pandas()
        order = np.lexsort((rdf["rank"].to_numpy(),
                            rdf["src"].to_numpy()))
        src_s = rdf["src"].to_numpy()[order]
        dst_s = rdf["dst"].to_numpy()[order]
        od_s = rdf["od"].to_numpy()[order]
        hcache: dict[str, int] = {}

        def h64(node: str) -> int:
            v = hcache.get(node)
            if v is None:
                v = int.from_bytes(
                    hashlib.md5(node.encode()).digest()[:8], "big")
                hcache[node] = v
            return v

        out_seed: list[str] = list(seeds)
        out_step: list[int] = [0] * len(seeds)
        out_node: list[str] = list(seeds)
        cur_seed = np.asarray(seeds, dtype=object)
        cur_node = np.asarray(seeds, dtype=object)
        for t_step in range(1, length + 1):
            if not len(cur_node):
                break
            pos = np.searchsorted(src_s, cur_node)
            ok = (pos < len(src_s)) & (src_s[np.minimum(
                pos, len(src_s) - 1)] == cur_node)
            pos, cur_seed, cur_node = (pos[ok], cur_seed[ok],
                                       cur_node[ok])
            if not len(cur_node):
                break
            hs = np.fromiter((h64(n) for n in cur_node),
                             dtype=np.uint64, count=len(cur_node))
            mixed = _mix64(hs + np.uint64(t_step))
            od = od_s[pos].astype(np.uint64)
            pick = (mixed % od).astype(np.int64)
            cur_node = dst_s[pos + pick]
            out_seed.extend(cur_seed)
            out_step.extend([t_step] * len(cur_seed))
            out_node.extend(cur_node)
        return rd.from_arrow(pa.table({
            "seed": pa.array(out_seed, type=pa.string()),
            "step": pa.array(out_step, type=pa.int64()),
            "node": pa.array(out_node, type=pa.string()),
        })).sort(["seed", "step"])

    frontier = rd.from_arrow(pa.table({
        "seed": pa.array(seeds, type=pa.string()),
        "node": pa.array(seeds, type=pa.string())})).materialize()

    visited = [frontier.map_batches(
        lambda t: pa.table({"seed": t["seed"],
                            "step": pa.array(
                                np.zeros(len(t), dtype=np.int64)),
                            "node": t["node"]}),
        batch_format="pyarrow")]

    for t_step in range(1, length + 1):
        j = frontier.join(ranked, "inner", num_partitions,
                          on=("node",), right_on=("src",),
                          aggregator_ray_remote_args=_AGG)

        def _step(tbl: pa.Table, _t=t_step) -> pa.Table:
            nodes_ = tbl["node"].to_pylist()
            hs = np.array(
                [int.from_bytes(hashlib.md5(n.encode()).digest()[:8],
                                "big") for n in nodes_],
                dtype=np.uint64)
            mixed = _mix64(hs + np.uint64(_t))
            od = tbl["od"].to_numpy(
                zero_copy_only=False).astype(np.uint64)
            pick = (mixed % od).astype(np.int64)
            keep = tbl["rank"].to_numpy(zero_copy_only=False) == pick
            return pa.table({
                "seed": pc.array_filter(tbl["seed"], pa.array(keep)),
                "node": pc.array_filter(tbl["dst"], pa.array(keep))})

        frontier = j.map_batches(_step, batch_format="pyarrow",
                                 batch_size=65536).materialize()
        visited.append(frontier.map_batches(
            lambda t, _t=t_step: pa.table({
                "seed": t["seed"],
                "step": pa.array(np.full(len(t), _t, dtype=np.int64)),
                "node": t["node"]}),
            batch_format="pyarrow"))

    out = visited[0]
    for v in visited[1:]:
        out = out.union(v)
    return out.sort(["seed", "step"])


def seed_walks_oracle_sql(sf_dir: str | None = None,
                          length: int = 8) -> str:
    """DuckDB oracle for :func:`run_seed_walks`: ranked adjacency via
    window functions over the inlined edge list, the walk unrolled
    one CTE chain per step with the md5-fold + splitmix64 pick
    reproduced in HUGEINT schoolbook arithmetic (the minhash / HLL
    oracle machinery)."""
    from dude_ray.pipelines.dedup import _sql_addmod64, _sql_mulmod64
    from dude_ray.pipelines.sketches import (_SPLITMIX_C1, _SPLITMIX_C2,
                                             _SPLITMIX_INC)

    preamble, bounds, _n = _graph_sql_parts(sf_dir)
    seed_ids = [bounds[h] for h in range(len(bounds) - 1) if h % 2 == 0]
    s_vals = ",".join(f"({i})" for i in seed_ids)
    h16 = ("CAST(list_sum([CAST(strpos('0123456789abcdef', m[i]) - 1 "
           "AS UBIGINT) * (CAST(1 AS UBIGINT) << CAST(4*(16 - i) "
           "AS INTEGER)) for i in generate_series(1, 16)]) AS UBIGINT)")
    inc, c1, c2 = (int(_SPLITMIX_INC), int(_SPLITMIX_C1),
                   int(_SPLITMIX_C2))
    parts = [f"""
        WITH {preamble},
        sd(id) AS (VALUES {s_vals}),
        redges AS (
            SELECT ns.node AS src, nd.node AS dst
            FROM (SELECT DISTINCT src_id, dst_id FROM edges0) e
            JOIN nodes ns ON ns.id = e.src_id
            JOIN nodes nd ON nd.id = e.dst_id),
        ranked AS MATERIALIZED (
            SELECT src, dst,
                   row_number() OVER (PARTITION BY src
                                      ORDER BY dst ASC) - 1 AS rank,
                   count(*) OVER (PARTITION BY src) AS od
            FROM redges),
        w0 AS (SELECT n.node AS seed, n.node AS node
               FROM sd JOIN nodes n ON n.id = sd.id)"""]
    for t in range(1, length + 1):
        x0 = _sql_addmod64(_sql_addmod64("h", str(t)), str(inc))
        parts.append(f""",
        a{t} AS (
            SELECT w.seed, e.dst, e.rank, e.od,
                   (SELECT {h16} FROM
                    (SELECT string_split(substr(md5(w.node), 1, 16),
                                         '') AS m)) AS h
            FROM w{t - 1} w JOIN ranked e ON e.src = w.node),
        b{t} AS (SELECT seed, dst, rank, od, {x0} AS x0 FROM a{t}),
        c{t} AS (SELECT seed, dst, rank, od,
                        xor(x0, x0 >> 30) AS x1 FROM b{t}),
        d{t} AS (SELECT seed, dst, rank, od,
                        {_sql_mulmod64('x1', c1)} AS x2 FROM c{t}),
        e{t} AS (SELECT seed, dst, rank, od,
                        xor(x2, x2 >> 27) AS x3 FROM d{t}),
        f{t} AS (SELECT seed, dst, rank, od,
                        {_sql_mulmod64('x3', c2)} AS x4 FROM e{t}),
        g{t} AS (SELECT seed, dst, rank, od,
                        xor(x4, x4 >> 31) AS x5 FROM f{t}),
        w{t} AS (SELECT seed, dst AS node FROM g{t}
                 WHERE rank = CAST(x5 % CAST(od AS UBIGINT)
                                   AS BIGINT))""")
    union = " UNION ALL ".join(
        f"SELECT seed, {t} AS step, node FROM w{t}"
        for t in range(0, length + 1))
    parts.append(f"""
        SELECT seed, CAST(step AS BIGINT) AS step, node
        FROM ({union}) ORDER BY seed, step""")
    return "".join(parts)


def run_walk_visit_rank(sf_dir: str, length: int = 8, top_k: int = 50,
                        local_threshold: int = 2_000_000):
    """Walk-frequency centrality: the ``top_k`` pages by visit count
    across all deterministic seed walks — the sampling-based
    importance estimate a node2vec/DeepWalk pipeline consumes
    (visit frequency from short walks approximates seed-personalized
    PageRank at a fraction of the power-iteration cost).  Output:
    (node, n_visits, rank), ties broken by node URL.

    Plan: all the data work is :func:`run_seed_walks` (tiered driver
    walk / per-step hash join); the visit histogram is a fixed-size
    per-batch partial + tree merge over ≤ |seeds|·(length+1) rows,
    and only the bounded top-k leaves the final task.  All integer
    counts."""
    from dude_ray.pipelines.relational import tree_combine

    walks = run_seed_walks(sf_dir, length=length,
                           local_threshold=local_threshold)

    def _partial(t: pa.Table) -> pa.Table:
        g = (pa.table({"node": t["node"]})
             .group_by(["node"]).aggregate([([], "count_all")]))
        return pa.table({"node": g["node"],
                         "n_visits": pc.cast(g["count_all"],
                                             pa.int64())})

    merged = tree_combine(
        walks.map_batches(_partial, batch_format="pyarrow",
                          batch_size=65536),
        ["node"], sums=("n_visits",))

    def _top(t: pa.Table) -> pa.Table:
        df = (t.to_pandas()
              .sort_values(["n_visits", "node"],
                           ascending=[False, True])
              .head(top_k).reset_index(drop=True))
        return pa.table({
            "node": pa.array(df["node"], type=pa.string()),
            "n_visits": pa.array(df["n_visits"].astype("int64")),
            "rank": pa.array(np.arange(1, len(df) + 1,
                                       dtype=np.int64))})

    return merged.repartition(1).map_batches(
        _top, batch_format="pyarrow", batch_size=None)


def walk_visit_rank_oracle_sql(sf_dir: str | None = None,
                               length: int = 8,
                               top_k: int = 50) -> str:
    """DuckDB oracle for :func:`run_walk_visit_rank`: the unrolled
    walk of :func:`seed_walks_oracle_sql` as a derived table, counted
    and ranked with the identical tiebreak."""
    inner = seed_walks_oracle_sql(sf_dir, length=length)
    return f"""
        SELECT node, CAST(count(*) AS BIGINT) AS n_visits,
               CAST(row_number() OVER (
                   ORDER BY count(*) DESC, node ASC) AS BIGINT) AS rank
        FROM ({inner})
        GROUP BY node
        QUALIFY rank <= {top_k}
        ORDER BY rank
    """


def run_crawl_budget(sf_dir: str, budget: int = 10_000,
                     damping: float = 0.85, iters: int = 6):
    """Crawl-budget APPORTIONMENT: split a fixed per-cycle fetch
    budget across hosts proportionally to their PageRank mass using
    the largest-remainder (Hamilton) method — the scheduler table
    that turns :func:`run_host_rank` into per-host quotas.  Output:
    (host, n_pages, host_rank, budget).  When the total host rank is
    > 0, Σ budget = ``budget`` exactly; with no rank mass every quota
    is 0.

    Plan: all the data work is the distributed page-rank kernel +
    host partial-sum (:func:`run_host_rank`); apportionment runs on
    the ≤|hosts| table in one final task.

    Float contract: none past host_rank — the 8-dp host mass converts
    EXACTLY to integer 1e-8 units (it is already rounded to that
    grid), so quotas, remainders and the deficit ranking are pure
    int64/object-int arithmetic, bit-equal across engines by
    construction; remainder ties break by host ASC."""
    ranks = run_host_rank(sf_dir, damping=damping, iters=iters)

    def _apportion(t: pa.Table) -> pa.Table:
        df = (t.to_pandas().sort_values("host")
              .reset_index(drop=True))
        u = np.asarray([int(round(v * 1e8)) for v in df["host_rank"]],
                       dtype=np.int64)
        total = int(u.sum())
        if total <= 0:
            q = np.zeros(len(u), dtype=np.int64)
        else:
            prod = u.astype(object) * budget
            q = np.asarray([int(p // total) for p in prod],
                           dtype=np.int64)
            rem = np.asarray([int(p % total) for p in prod],
                             dtype=np.int64)
            deficit = budget - int(q.sum())
            order = np.lexsort(
                (df["host"].to_numpy(), -rem))  # rem DESC, host ASC
            q[order[:deficit]] += 1
        return pa.table({
            "host": pa.array(df["host"], type=pa.string()),
            "n_pages": pa.array(df["n_pages"].astype("int64")),
            "host_rank": pa.array(df["host_rank"],
                                  type=pa.float64()),
            "budget": pa.array(q)})

    return ranks.repartition(1).map_batches(
        _apportion, batch_format="pyarrow", batch_size=None).sort("host")


def crawl_budget_oracle_sql(sf_dir: str | None = None,
                            budget: int = 10_000,
                            damping: float = 0.85,
                            iters: int = 6) -> str:
    """DuckDB oracle for :func:`run_crawl_budget`: the host_rank
    chain as a CTE, exact 1e-8-unit integers, floor quotas and the
    same (remainder DESC, host ASC) largest-remainder bonus.  A total
    of 0 gives quota 0 and no bonus, as the engine does (``// 0`` is
    NULL in DuckDB)."""
    inner = host_rank_oracle_sql(sf_dir, damping=damping, iters=iters)
    return f"""
        WITH hr AS MATERIALIZED ({inner}),
        u AS (
            SELECT host, n_pages, host_rank,
                   CAST(round(host_rank * 100000000) AS HUGEINT) AS u
            FROM hr),
        tot AS (SELECT sum(u) AS t FROM u),
        q AS (
            SELECT host, n_pages, host_rank,
                   CASE WHEN tot.t > 0
                        THEN CAST(({budget} * u) // tot.t AS BIGINT)
                        ELSE 0 END AS quota,
                   CASE WHEN tot.t > 0 THEN ({budget} * u) % tot.t
                        ELSE 0 END AS rem
            FROM u, tot),
        d AS (SELECT CASE WHEN (SELECT t FROM tot) > 0
                          THEN {budget} - sum(quota) ELSE 0 END AS deficit
              FROM q),
        b AS (
            SELECT host, n_pages, host_rank, quota,
                   row_number() OVER (
                       ORDER BY rem DESC, host ASC) AS rn
            FROM q)
        SELECT host, n_pages, host_rank,
               CAST(quota + CASE WHEN rn <= (SELECT deficit FROM d)
                            THEN 1 ELSE 0 END AS BIGINT) AS budget
        FROM b ORDER BY host
    """
