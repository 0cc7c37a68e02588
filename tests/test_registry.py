"""Registry invariants for the driver gate: every oracle has a query,
the 50-slot gate window is maximally SQL-verified, and entries are
callable with one sf_dir argument."""

import inspect


def _entry_module():
    import importlib.util
    from pathlib import Path

    spec = importlib.util.spec_from_file_location(
        "entry_mod",
        str(Path(__file__).resolve().parent.parent / "__ray_entry__.py"))
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    return m


def test_registry_consistency():
    m = _entry_module()
    q = m.queries()
    o = m.oracle_sql()
    assert set(o) <= set(q), "oracle without a queries() entry"
    # the rows-only entries: crawl visits, the media decode stubs and
    # the substring redaction have no SQL oracle
    assert set(q) - set(o) == {
        "crawl_visits", "media_decode", "media_frames", "media_thumbs",
        "media_audio_chunks", "substring_redact"}
    # the driver records only the first 50 entries: all of them must
    # be SQL-oracled EXCEPT the documented rows-only crawl/extract ops
    first50 = list(q)[:50]
    # anchor_texts joins the r5 window per VERDICT_r04 "Next round" #1
    # (it is HTML-extraction-derived, hence rows-only like the crawl
    # entries); crawl_visits/extract_spans join it because the r5
    # adblock/fetch/scraper changes touch their code path and the
    # driver record should re-verify changed paths; substring_redact
    # is pytest-oracled by design.
    rows_only_allowed = {"substring_redact", "anchor_texts",
                         "crawl_visits", "extract_spans"}
    not_oracled = [k for k in first50 if k not in o]
    assert set(not_oracled) <= rows_only_allowed, not_oracled
    # the 21 never-driver-verified entries (VERDICT_r04) lead the gate
    assert first50[:21] == [
        "dataset_split", "dup_rate_by_source", "editdist_neardup",
        "shipping_priority", "knn_triangles", "events_lag_diff",
        "events_rolling", "revenue_by_nation", "qty_rollup",
        "cheapest_part", "priority_semijoin", "lapsed_customers",
        "user_top_event", "event_pivot", "event_transitions",
        "kmeans_assign", "label_centroids", "events_hopping_window",
        "value_percent_rank", "bloom_registers", "anchor_texts"]
    # every registered callable takes exactly one required positional
    for k, fn in q.items():
        params = [p for p in inspect.signature(fn).parameters.values()
                  if p.default is inspect.Parameter.empty
                  and p.kind in (p.POSITIONAL_ONLY,
                                 p.POSITIONAL_OR_KEYWORD)]
        assert len(params) == 1, (k, params)


def _pass_through_wrappers(tree) -> list[str]:
    """Top-level functions of ``tree`` whose body, after the docstring,
    is one import plus ``return f(<the function's argument>)``."""
    import ast

    found = []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef) or len(fn.args.args) != 1:
            continue
        body = fn.body[1:] if ast.get_docstring(fn) else fn.body
        if (len(body) == 2
                and isinstance(body[0], (ast.Import, ast.ImportFrom))
                and isinstance(body[1], ast.Return)
                and isinstance(body[1].value, ast.Call)
                and not body[1].value.keywords
                and [getattr(a, "id", None) for a in body[1].value.args]
                == [fn.args.args[0].arg]):
            found.append(fn.name)
    return found


def test_registry_names_run_functions_directly():
    """``queries()`` maps a name straight to the ``run_*`` function it
    runs: no top-level function of __ray_entry__.py only imports one
    and passes its argument through."""
    import ast
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "__ray_entry__.py"
    assert _pass_through_wrappers(ast.parse(path.read_text())) == []
    # the scan finds the shape it forbids
    assert _pass_through_wrappers(ast.parse(
        "def _q_x(sf_dir):\n"
        "    \"\"\"doc\"\"\"\n"
        "    from m import run_x\n\n"
        "    return run_x(sf_dir)\n")) == ["_q_x"]


# Callable classes that may still be passed to ``map_batches`` anywhere
# in dude_ray/, keyed (module, class), each with the measured reason its
# cross-batch state pays for an actor pool.  Every other map is a task
# stage: a plain function, or a callable instance for cheap config.
# Empty: the block LRUs of dedup._BlockPairJoin and
# similarity._BlockKnnJoin ran faster as task stages (see their
# docstrings), and scraper.PageWorker is a callable instance.  The
# crawl's raw ``CrawlWorker``/``Frontier`` actors are not map stages.
STATEFUL_MAP_CLASSES: dict[tuple[str, str], str] = {}


def _map_stage_sites():
    """(module, line, fn name, is_class, actor keywords) for every
    ``map_batches`` call in dude_ray/, plus the functions under
    dude_ray/pipelines/ and dude_ray/stages/ that take a ``concurrency``
    parameter (``run_crawl`` sizes its raw actor pool by design)."""
    import ast
    import importlib
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent / "dude_ray"
    sites, conc = [], []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).with_suffix("")
        mod = ".".join(("dude_ray",) + rel.parts)
        tree = ast.parse(path.read_text())
        local_classes = {n.name for n in ast.walk(tree)
                         if isinstance(n, ast.ClassDef)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda))
                    and rel.parts[0] in ("pipelines", "stages")):
                a = node.args
                if any(x.arg == "concurrency" for x in
                       a.posonlyargs + a.args + a.kwonlyargs):
                    conc.append((mod, node.lineno))
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "map_batches"):
                continue
            kw = {k.arg: k.value for k in node.keywords}
            fn = node.args[0] if node.args else kw.get("fn")
            name = fn.id if isinstance(fn, ast.Name) else None
            is_class = name is not None and (
                name in local_classes or inspect.isclass(
                    getattr(importlib.import_module(mod), name, None)))
            actor_kw = sorted({"concurrency", "fn_constructor_kwargs",
                               "fn_constructor_args"} & set(kw))
            sites.append((mod, node.lineno, name, is_class, actor_kw))
    return sites, conc


def test_stateless_maps_are_task_stages():
    """One way to run a stateless map: no pipeline or stage function
    takes a ``concurrency`` parameter, and a class (an actor pool) is
    passed to ``map_batches`` anywhere in the package only if it is on
    the allowlist of stateful stages above."""
    sites, conc = _map_stage_sites()
    assert len(sites) > 100  # the scan sees the real call sites
    assert conc == [], conc
    pools = [(mod, line, name) for mod, line, name, is_class, actor_kw
             in sites if is_class or actor_kw]
    assert [p for p in pools if (p[0], p[2]) not in STATEFUL_MAP_CLASSES] \
        == []
    for key, reason in STATEFUL_MAP_CLASSES.items():
        assert reason and any((mod, name) == key for mod, _l, name in pools)


def test_no_hand_rolled_shuffle_join():
    """Fact×fact joins go through ``partitioning.shuffle_join``: no
    ``hash_grouped_reduce`` in dude_ray/ takes a ``.union(...)`` of two
    side-tagged streams as its input."""
    import ast
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent / "dude_ray"
    n_calls, unions = 0, []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else getattr(
                fn, "id", None)
            if name != "hash_grouped_reduce" or not node.args:
                continue
            n_calls += 1
            arg = node.args[0]
            if (isinstance(arg, ast.Call)
                    and isinstance(arg.func, ast.Attribute)
                    and arg.func.attr == "union"):
                unions.append(f"{path.relative_to(root)}:{node.lineno}")
    assert n_calls > 50  # the scan sees the real call sites
    assert unions == []


# Pandas calls a reducer may make and still be only a keyed aggregate:
# the group-by reductions, and the renames, casts and frame builds
# around them.
_PANDAS_AGGS = {"sum", "size", "min", "max", "count", "agg"}
_PANDAS_PLUMBING = _PANDAS_AGGS | {
    "groupby", "drop_duplicates", "reset_index", "rename", "astype",
    "to_numpy", "DataFrame", "Series"}


def _hand_rolled_keyed_aggregates(root) -> list[str]:
    """``file:line`` of every ``hash_grouped_reduce`` reducer under
    ``root`` that is a pandas keyed aggregate and nothing else: a lambda
    or a def of straight-line assignments and returns that calls a
    ``groupby(...)`` sum/size/min/max/count/agg chain or
    ``drop_duplicates``, and no pandas call beyond renames, casts and
    frame builds (the job of ``partitioning.group_agg``)."""
    import ast

    def name(call):
        f = call.func
        return f.attr if isinstance(f, ast.Attribute) else getattr(
            f, "id", None)

    def grouped(node) -> bool:
        while isinstance(node, (ast.Call, ast.Attribute, ast.Subscript)):
            if isinstance(node, ast.Call) and name(node) == "groupby":
                return True
            node = node.func if isinstance(node, ast.Call) else node.value
        return False

    def keyed_aggregate(fn) -> bool:
        if isinstance(fn, ast.Lambda):
            body = [fn.body]
        else:
            body = fn.body[1:] if ast.get_docstring(fn) else fn.body
            if not all(isinstance(s, (ast.Assign, ast.Return, ast.Expr))
                       for s in body):
                return False
        calls = [n for s in body for n in ast.walk(s)
                 if isinstance(n, ast.Call)]
        return (all(name(c) in _PANDAS_PLUMBING for c in calls)
                and any(name(c) == "drop_duplicates"
                        or (name(c) in _PANDAS_AGGS
                            and grouped(c.func.value)) for c in calls))

    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        defs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and name(node) == "hash_grouped_reduce"):
                continue
            kw = {k.arg: k.value for k in node.keywords}
            fn = node.args[2] if len(node.args) > 2 else kw.get("reduce_fn")
            if isinstance(fn, ast.Name):
                fn = max((d for d in defs if d.name == fn.id
                          and d.lineno < node.lineno),
                         key=lambda d: d.lineno, default=None)
            if fn is not None and keyed_aggregate(fn):
                found.append(f"{path.relative_to(root)}:{fn.lineno}")
    return found


def test_no_hand_rolled_keyed_aggregate(tmp_path):
    """A ``hash_grouped_reduce`` reducer that is only a keyed aggregate
    is a ``partitioning.group_agg`` call: no reducer in dude_ray/ spells
    it as a pandas ``groupby`` chain or ``drop_duplicates``."""
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent / "dude_ray"
    assert _hand_rolled_keyed_aggregates(root) == []
    # the scan finds the shapes it forbids, and passes a reducer that
    # does more than aggregate
    (tmp_path / "m.py").write_text(
        "def run(ds):\n"
        "    def _sum(df):\n"
        "        out = df.groupby('k', sort=False)['c'].sum().reset_index()\n"
        "        return out[out['c'] >= 2]\n\n"
        "    def _top(df):\n"
        "        return df.groupby('k')['c'].sum().sort_values().head(1)\n\n"
        "    a = hash_grouped_reduce(ds, 'k', _sum, 1, out_cols=('k', 'c'))\n"
        "    b = hash_grouped_reduce(ds, 'k', _top, 1, out_cols=('k', 'c'))\n"
        "    return hash_grouped_reduce(\n"
        "        ds, 'k', lambda df: df.drop_duplicates('k'), 1,\n"
        "        out_cols=('k',))\n")
    assert _hand_rolled_keyed_aggregates(tmp_path) == ["m.py:2", "m.py:12"]


# Functions that may still group on the coarsened user bucket outside
# ``relational.user_timelines``, each with the reason it is not a
# per-user timeline.
UGROUP_OUTSIDE_TIMELINES = {
    "run_rrf_fusion": "shuffles per-batch (user, cents, n) partials to "
                      "one bucket for a local top-k: a grouped reduce",
    "run_user_type_profile": "shuffles per-batch distinct (user, type) "
                             "pairs for a string_agg: a grouped reduce",
}


def test_no_hand_rolled_user_timeline():
    """Per-user sequence queries go through
    ``relational.user_timelines``: no function in dude_ray/ outside it
    and the allowlist above calls ``groupby("ugroup")``."""
    import ast
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent / "dude_ray"
    sites = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "groupby"
                        and [getattr(a, "value", None) for a in node.args]
                        == ["ugroup"]):
                    sites.append((getattr(top, "name", "<module>"),
                                  f"{path.relative_to(root)}:{node.lineno}"))
    assert [s for s in sites if s[0] != "user_timelines"
            and s[0] not in UGROUP_OUTSIDE_TIMELINES] == []
    # the scan sees the primitive and every allowlisted caller
    assert {"user_timelines", *UGROUP_OUTSIDE_TIMELINES} <= \
        {name for name, _ in sites}
