"""Connected components + BFS depth: tier equivalence and DuckDB
recursive-CTE oracle equality at sf0.001."""

from __future__ import annotations

import duckdb
import pandas as pd

SF = "/root/testdata/sf0.001"


def _con():
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{SF}/documents.parquet')")
    return con


def test_link_components_local_oracle(ray_session):
    """(node, component) equals the DuckDB reachability-closure
    recompute; every corpus page appears exactly once; component ids
    are members of their own component."""
    from dude_ray.pipelines.components import (link_components_oracle_sql,
                                               run_link_components)

    want = _con().execute(link_components_oracle_sql(SF)).df() \
        .reset_index(drop=True)
    got = run_link_components(SF).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    assert got["node"].is_unique
    comp_ids = set(got["component"])
    assert comp_ids <= set(got["node"])
    # a component id labels itself
    self_rows = got[got["node"].isin(comp_ids)]
    assert (self_rows["node"] == self_rows["component"]).all()


def test_link_components_tiers_agree(ray_session):
    """Driver union-find tier == distributed min-label-propagation
    tier (local_threshold=0 forces the scale path)."""
    from dude_ray.pipelines.components import run_link_components

    small = run_link_components(SF).to_pandas().reset_index(drop=True)
    dist = run_link_components(SF, local_threshold=0) \
        .to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(dist, small, check_dtype=False,
                                  check_exact=True)


def test_link_depth_local_oracle(ray_session):
    """BFS depths equal the DuckDB bounded recursive-CTE BFS; seeds
    are at depth 0 and every non-seed reachable node has a parent one
    hop shallower."""
    from dude_ray.pipelines.components import (link_depth_oracle_sql,
                                               run_link_depth)

    want = _con().execute(link_depth_oracle_sql(SF)).df() \
        .reset_index(drop=True)
    got = run_link_depth(SF).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    assert (got["depth"] >= 0).all()
    assert (got["depth"] == 0).any()


def test_link_depth_tiers_agree(ray_session):
    """Driver BFS tier == distributed Bellman-Ford tier."""
    from dude_ray.pipelines.components import run_link_depth

    small = run_link_depth(SF).to_pandas().reset_index(drop=True)
    dist = run_link_depth(SF, local_threshold=0) \
        .to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(dist, small, check_dtype=False,
                                  check_exact=True)


def test_host_graph_oracle(ray_session):
    """(src_host, dst_host, n_links) equals the inlined-edge host
    re-aggregation; multiplicity sums to the total edge count."""
    from dude_ray.pipelines.components import (host_graph_oracle_sql,
                                               run_host_graph)
    from dude_ray.pipelines.graph import link_edges

    want = _con().execute(host_graph_oracle_sql(SF)).df() \
        .reset_index(drop=True)
    got = run_host_graph(SF).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    edges, _ = link_edges(SF)
    assert got["n_links"].sum() == edges.count()


def test_link_reciprocity_oracle(ray_session):
    """Per-host reciprocity equals the DISTINCT-edge reverse-join
    recompute; ratios stay in [0, 1] and n_recip ≤ n_edges."""
    from dude_ray.pipelines.components import (link_reciprocity_oracle_sql,
                                               run_link_reciprocity)

    want = _con().execute(link_reciprocity_oracle_sql(SF)).df() \
        .reset_index(drop=True)
    got = run_link_reciprocity(SF).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    assert (got["n_recip"] <= got["n_edges"]).all()
    assert got["reciprocity"].between(0, 1).all()


def test_k_core_oracle(ray_session):
    """k-core survivors + within-core degrees equal the unrolled-peel
    SQL; every surviving degree ≥ k; the 3-core is a subset of the
    2-core."""
    from dude_ray.pipelines.components import (k_core_oracle_sql,
                                               run_k_core)

    want = _con().execute(k_core_oracle_sql(SF, k=2)).df() \
        .reset_index(drop=True)
    got = run_k_core(SF, k=2).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    assert (got["degree"] >= 2).all()
    got3 = run_k_core(SF, k=3).to_pandas()
    assert set(got3["node"]) <= set(got["node"])


def test_degree_assortativity_oracle(ray_session):
    """Exact-moment assortativity equals the SQL recompute and sits
    in [-1, 1]."""
    from dude_ray.pipelines.components import (
        degree_assortativity_oracle_sql, run_degree_assortativity)

    want = _con().execute(degree_assortativity_oracle_sql(SF)).df() \
        .reset_index(drop=True)
    got = run_degree_assortativity(SF).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    assert -1.0 <= got["assortativity"].iloc[0] <= 1.0


def test_host_depth_profile_oracle(ray_session):
    """Per-host BFS-depth profile equals the grouped-BFS SQL; totals
    reconcile with the flat link_depth output."""
    from dude_ray.pipelines.components import (
        host_depth_profile_oracle_sql, run_host_depth_profile,
        run_link_depth)

    want = _con().execute(host_depth_profile_oracle_sql(SF)).df() \
        .reset_index(drop=True)
    got = run_host_depth_profile(SF).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    flat = run_link_depth(SF).to_pandas()
    assert got["n_reached"].sum() == len(flat)
    assert got["max_depth"].max() == flat["depth"].max()


def test_component_sizes_oracle(ray_session):
    """Size histogram equals the recursive-CTE recompute and accounts
    for every corpus page (Σ size·n_components == n_docs)."""
    import pyarrow.parquet as pq

    from dude_ray.pipelines.components import (component_sizes_oracle_sql,
                                               run_component_sizes)

    want = _con().execute(component_sizes_oracle_sql(SF)).df() \
        .reset_index(drop=True)
    got = run_component_sizes(SF).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    n_docs = pq.read_metadata(f"{SF}/documents.parquet").num_rows
    assert int((got["size"] * got["n_components"]).sum()) == n_docs


def test_seed_coverage_oracle(ray_session):
    """Cumulative reachability curve equals the BFS-histogram SQL;
    the last cumulative count equals the link_depth row count and the
    fraction column is monotone in (0, 1]."""
    from dude_ray.pipelines.components import (run_link_depth,
                                               run_seed_coverage,
                                               seed_coverage_oracle_sql)

    want = _con().execute(seed_coverage_oracle_sql(SF)).df() \
        .reset_index(drop=True)
    got = run_seed_coverage(SF).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    assert got["cum_pages"].iloc[-1] == run_link_depth(SF).count()
    f = got["frac_corpus"]
    assert (f.diff().dropna() >= 0).all() and f.iloc[-1] <= 1.0


def test_link_triangles_oracle(ray_session):
    """Triangle census equals the min-ID-apex SQL enumeration; the
    clustering coefficient respects 3T ≤ W."""
    from dude_ray.pipelines.components import (link_triangles_oracle_sql,
                                               run_link_triangles)

    want = _con().execute(link_triangles_oracle_sql(SF)).df() \
        .reset_index(drop=True)
    got = run_link_triangles(SF).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    r = got.iloc[0]
    assert 3 * r["n_triangles"] <= r["n_wedges"]
    assert 0.0 <= r["global_clustering"] <= 1.0


def test_host_rank_oracle(ray_session):
    """Host-level PageRank mass equals the unrolled-CTE recompute
    grouped per host; masses sum to ~1 and page counts cover the
    corpus."""
    import pyarrow.parquet as pq

    from dude_ray.pipelines.components import (host_rank_oracle_sql,
                                               run_host_rank)

    want = _con().execute(host_rank_oracle_sql(SF)).df() \
        .reset_index(drop=True)
    got = run_host_rank(SF).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    assert abs(got["host_rank"].sum() - 1.0) < 1e-6
    n_docs = pq.read_metadata(f"{SF}/documents.parquet").num_rows
    assert got["n_pages"].sum() == n_docs


def test_bowtie_census_local_oracle(ray_session):
    """The bow-tie class counts equal the DuckDB recursive-CTE
    recompute at sf0.001 across both hash_grouped_reduce tiers, and
    the classes partition the page set."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.components import (bowtie_census_oracle_sql,
                                               run_bowtie_census)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = (con.execute(bowtie_census_oracle_sql(sf)).df()
            .reset_index(drop=True))
    n_docs = con.execute("SELECT count(*) FROM documents").fetchone()[0]
    assert int(want["n_pages"].sum()) == n_docs
    for trg in (64, 1 << 22):
        got = (run_bowtie_census(sf, target_rows_per_group=trg)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_host_modularity_local_oracle(ray_session):
    """Per-host modularity contributions equal the DuckDB recompute
    at sf0.001; Q = Σ contrib lies in [-0.5, 1] and the degree sums
    total 2m."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.components import (
        host_modularity_oracle_sql, run_host_modularity)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = (con.execute(host_modularity_oracle_sql(sf)).df()
            .reset_index(drop=True))
    got = run_host_modularity(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    q = got["contrib"].sum()
    assert -0.5 <= q <= 1.0
    m = int(got["n_intra"].sum())  # intra edges <= m
    assert int(got["deg_sum"].sum()) >= 2 * m


def test_seed_walks_local_oracle(ray_session):
    """Deterministic hash-stepped walks equal the DuckDB unrolled
    recompute at sf0.001; every step-t node is an out-neighbor of the
    walker's step-(t-1) node and step 0 is the seed itself."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.components import (run_seed_walks,
                                               seed_walks_oracle_sql,
                                               _graph_sql_parts)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = (con.execute(seed_walks_oracle_sql(sf)).df()
            .reset_index(drop=True))
    # tier equivalence: driver walk (default) vs distributed join walk
    for thr in (2_000_000, 0):
        got = (run_seed_walks(sf, local_threshold=thr)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)
    step0 = got[got["step"] == 0]
    assert (step0["seed"] == step0["node"]).all()

    preamble, _b, _n = _graph_sql_parts(sf)
    edges = con.execute(f"""
        WITH {preamble}
        SELECT DISTINCT ns.node AS src, nd.node AS dst
        FROM edges0 e JOIN nodes ns ON ns.id = e.src_id
        JOIN nodes nd ON nd.id = e.dst_id
    """).df()
    eset = set(zip(edges["src"], edges["dst"]))
    for seed, grp in got.groupby("seed"):
        grp = grp.sort_values("step")
        prev = None
        for _, row in grp.iterrows():
            if prev is not None:
                assert (prev, row["node"]) in eset
            prev = row["node"]


def test_seed_walks_duplicate_seeds(ray_session, monkeypatch):
    """A seed URL listed twice walks once: duplicate seeds give the same
    rows as the deduplicated list, on both walk tiers."""
    import pandas as pd

    import dude_ray.sources.corpus as corpus
    from dude_ray.pipelines.components import run_seed_walks

    want = {thr: run_seed_walks(SF, local_threshold=thr)
            .to_pandas().reset_index(drop=True) for thr in (2_000_000, 0)}
    load = corpus.load_seeds
    monkeypatch.setattr(corpus, "load_seeds",
                        lambda d: load(d) + load(d)[::-1])
    for thr, w in want.items():
        got = (run_seed_walks(SF, local_threshold=thr)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, w, check_exact=True)
    assert len(want[0]) > 0


def test_walk_visit_rank_local_oracle(ray_session):
    """Walk-frequency top-k equals the DuckDB unrolled-walk recompute
    at sf0.001; the visit total reconciles with the walk row count
    and ranks are dense from 1."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.components import (run_seed_walks,
                                               run_walk_visit_rank,
                                               walk_visit_rank_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = (con.execute(walk_visit_rank_oracle_sql(sf)).df()
            .reset_index(drop=True))
    got = run_walk_visit_rank(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    assert list(got["rank"]) == list(range(1, len(got) + 1))
    n_walk_rows = len(run_seed_walks(sf).to_pandas())
    # top-k covers all nodes at this scale (fewer distinct than k)
    if len(got) < 50:
        assert int(got["n_visits"].sum()) == n_walk_rows


def test_crawl_budget_local_oracle(ray_session):
    """The Hamilton apportionment equals the DuckDB recompute at
    sf0.001; quotas sum EXACTLY to the budget and are monotone in
    rank mass up to the +1 remainder bonus."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.components import (crawl_budget_oracle_sql,
                                               run_crawl_budget)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = (con.execute(crawl_budget_oracle_sql(sf)).df()
            .reset_index(drop=True))
    got = run_crawl_budget(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    assert int(got["budget"].sum()) == 10_000
    by_rank = got.sort_values("host_rank", ascending=False)
    assert (by_rank["budget"].to_numpy()[:-1]
            - by_rank["budget"].to_numpy()[1:] >= -1).all()


def test_crawl_budget_zero_rank(ray_session, monkeypatch):
    """With no host rank mass the engine gives every host quota 0,
    and so does the oracle (whose ``// 0`` would be NULL unguarded)."""
    import ray

    import dude_ray.pipelines.components as comp

    sf = "/root/testdata/sf0.001"
    ranks = comp.run_host_rank(sf).to_pandas()
    ranks["host_rank"] = 0.0
    oracle = comp.host_rank_oracle_sql
    monkeypatch.setattr(comp, "run_host_rank",
                        lambda *a, **kw: ray.data.from_pandas(ranks))
    monkeypatch.setattr(
        comp, "host_rank_oracle_sql",
        lambda *a, **kw: ("SELECT host, n_pages, 0.0 AS host_rank "
                          f"FROM ({oracle(*a, **kw)})"))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = (con.execute(comp.crawl_budget_oracle_sql(sf)).df()
            .reset_index(drop=True))
    got = comp.run_crawl_budget(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    assert len(got) > 0 and (got["budget"] == 0).all()
