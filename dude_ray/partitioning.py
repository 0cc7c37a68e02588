"""Data-scaled partitioning widths.

Every coarse-grained ``groupby().map_groups`` in this repo dispatches
one task per *group of keys* rather than one per key.  A FIXED group
count (``& 31``, ``% 64``) is correct but concentrates 1/32-1/64 of
the dataset in a single task at any scale — fine at sf0.1, an OOM at
100 TB.  These helpers derive the group count from the input size so
no task ever receives more than ~``target_rows_per_group`` rows in
expectation, and an input that fits one group is one group.

The row estimate is planner-style: parquet footer ``num_rows`` over a
bounded sample of files, extrapolated — O(sampled footers) driver
work, no Ray job, no data read.
"""

from __future__ import annotations

import glob
import os

import numpy as np


def estimate_rows(paths, sample_files: int = 64) -> int:
    """Row-count estimate from parquet footers.

    Reads at most ``sample_files`` footers and extrapolates by file
    count (single-footer metadata reads, the same information any
    query planner uses).  Returns 0 when nothing matches.
    """
    import pyarrow.parquet as pq

    if isinstance(paths, (list, tuple)):
        cands = list(paths)
    else:
        cands = [paths]
    files: list[str] = []
    for p in cands:
        if os.path.isdir(p):
            files.extend(sorted(glob.glob(
                os.path.join(p, "**", "*.parquet"), recursive=True)))
        else:
            files.append(p)
    if not files:
        return 0
    take = files[:sample_files]
    try:
        n = sum(pq.read_metadata(f).num_rows for f in take)
    except OSError:
        return 0
    return int(n * len(files) / len(take))


def parquet_row_groups(paths) -> list[tuple[str, int, int]]:
    """(file, row_group_index, num_rows) for every row group under
    ``paths`` — the natural block unit for blocked pair joins (footer
    metadata only; no data read)."""
    import pyarrow.parquet as pq

    if isinstance(paths, (list, tuple)):
        cands = list(paths)
    else:
        cands = [paths]
    files: list[str] = []
    for p in cands:
        if os.path.isdir(p):
            files.extend(sorted(glob.glob(
                os.path.join(p, "**", "*.parquet"), recursive=True)))
        else:
            files.append(p)
    out: list[tuple[str, int, int]] = []
    for f in files:
        meta = pq.read_metadata(f)
        for rg in range(meta.num_row_groups):
            out.append((f, rg, meta.row_group(rg).num_rows))
    return out


def scaled_group_count(n_rows: int, target_rows_per_group: int,
                       hi: int = 1 << 20) -> int:
    """Power-of-two group count for a coarse ``map_groups`` dispatch:
    the next power of two ≥ ⌈n_rows / target_rows_per_group⌉.

    Sized so a group receives ~``target_rows_per_group`` rows in
    expectation (uniform keys; salt hot keys separately), so an input
    that fits one group gets one reducer call.  A wider floor buys no
    parallelism on small inputs: ``map_groups`` calls its function once
    per group inside the tasks that hold the sorted blocks, and a small
    sort output is one block, hence one task, so extra groups only add
    reducer calls (each call pays a fixed per-call cost however few rows
    it gets).  ``hi`` bounds groupby key cardinality (and must
    not exceed the key's own bit width when the group id is a bitmask
    of a hash/LSH key).
    """
    want = -(-max(n_rows, 1) // max(target_rows_per_group, 1))
    n = 1
    while n < want and n < hi:
        n <<= 1
    return min(n, hi)


def parquet_sorted_by(path: str, key: str) -> bool:
    """True iff the parquet input is PROVABLY globally sorted by
    ``key``: per-row-group min/max statistics, read in filename +
    row-group order (the order ``read_parquet`` emits blocks), are
    non-overlapping and monotone.  A metadata-only check — O(row
    groups), no data read — that lets sort-requiring operators skip an
    all-to-all when the writer already ordered the data (the common
    case for snapshot/export tables at scale)."""
    import glob as _glob
    import os as _os

    import pyarrow.parquet as pq

    if _os.path.isdir(path):
        files = sorted(_glob.glob(_os.path.join(path, "**", "*.parquet"),
                                  recursive=True))
    else:
        files = [path]
    prev_max = None
    for f in files:
        meta = pq.read_metadata(f)
        try:
            col_idx = meta.schema.to_arrow_schema().get_field_index(key)
        except Exception:
            return False
        if col_idx < 0:
            return False
        for rg in range(meta.num_row_groups):
            col = meta.row_group(rg).column(col_idx)
            stats = col.statistics
            if stats is None or not stats.has_min_max:
                return False
            if prev_max is not None and stats.min < prev_max:
                return False
            prev_max = stats.max
    return True


def blocks_prove_order(partials) -> bool:
    """Runtime completion of :func:`parquet_sorted_by`'s metadata
    check: given per-block partial rows carrying ``first_id``,
    ``last_id`` and ``mono`` (block-internal monotonicity — the part
    row-group statistics can NEVER prove), verify blocks are
    internally sorted and their [first, last] ranges are disjoint and
    ascending.  Together the two checks are a full proof of global
    order, independent of executor bundle order or operator fusion."""
    seen: dict[int, tuple[int, bool]] = {}
    for p in partials:
        f = p["first_id"]
        if f in seen:
            continue
        seen[f] = (p["last_id"], bool(p["mono"]))
    prev_last = None
    for f in sorted(seen):
        last, mono = seen[f]
        if not mono or last < f:
            return False
        if prev_last is not None and f <= prev_last:
            return False
        prev_last = last
    return True


def resolve_ordered(ds, parquet_path: str, key: str, partial_fn,
                    batch_format: str = "pyarrow"):
    """(ordered dataset, validated block partials) for operators that
    need key-ordered contiguous blocks (two-pass prefix scans).

    Tries the sort-free path first — ONLY when parquet row-group stats
    are consistent with global order — then PROVES the order from the
    partials themselves (``blocks_prove_order``); any violation
    (intra-row-group disorder, executor reordering, non-fused stages)
    falls back to an explicit ``Dataset.sort``.  ``partial_fn`` must
    emit, per block, row(s) that include ``first_id`` / ``last_id`` /
    ``mono`` for the block."""
    attempts = []
    if parquet_sorted_by(parquet_path, key):
        attempts.append(ds.materialize())
    attempts.append(None)  # sentinel: explicit sort
    for cand in attempts:
        if cand is None:
            cand = ds.sort(key).materialize()
        parts = cand.map_batches(partial_fn, batch_format=batch_format,
                                 batch_size=None).take_all()
        parts.sort(key=lambda r: r["first_id"])
        if blocks_prove_order(parts):
            return cand, parts
    raise AssertionError(
        f"dataset not {key}-ordered even after an explicit sort")


def _group_ids(t, keys, n_groups: int) -> np.ndarray:
    """int64 group id in ``[0, n_groups)`` per row of ``t``: a
    DETERMINISTIC fixed-key hash (``pd.util.hash_array`` — python's
    builtin ``hash()`` is process-salted and would split keys across
    groups) of the ``keys`` columns, masked to the power-of-two
    ``n_groups``.  Integer keys hash by value whatever their width, so
    two streams keyed on the same ints land in the same groups."""
    import pandas as pd

    h = np.zeros(len(t), dtype=np.uint64)
    for c in keys:
        col = t[c].to_numpy(zero_copy_only=False)
        if col.dtype == object or col.dtype.kind in ("U", "S"):
            h ^= pd.util.hash_array(np.asarray(col, dtype=object))
        else:
            h ^= pd.util.hash_array(col.astype(np.int64))
        h = _mix(h)
    return (h & np.uint64(n_groups - 1)).astype(np.int64)


def group_agg(t, keys, aggs=None):
    """Arrow hash group-by of ``t`` on ``keys`` (a name or a list): the
    key columns, then one column ``name`` per ``aggs`` entry
    ``name: (column, op)``, where ``op`` is a pyarrow hash aggregate
    (``"sum"``, ``"min"``, ``"max"``, ``"count"``, ``"first"`` …; for
    ``"count_all"`` the column is ``[]``).  No ``aggs`` gives the
    distinct keys.  One thread: the calling Ray task holds one CPU."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    aggs = aggs or {}
    g = t.group_by(keys, use_threads=False).aggregate(list(aggs.values()))
    names = ["count_all" if op == "count_all" else f"{c}_{op}"
             for c, op in aggs.values()]
    return g.select([*keys, *names]).rename_columns([*keys, *aggs])


def hash_grouped_reduce(ds, key_cols, reduce_fn, n_rows: int,
                        target_rows_per_group: int = 65536, *, out_cols):
    """Vectorized substitute for ``Dataset.groupby().aggregate()``.

    Ray's sort-based aggregate runs its combine in Python per row
    (~20k rows/s measured on this Ray version — see
    dedup.run_substring_dup history for a 271 s → 1 s case), so every
    unbounded-key reduce here goes through this shape instead: a
    :func:`_group_ids` hash of the key column(s), masked to a
    data-scaled group count (`scaled_group_count`, never a fixed
    width), ONE sort shuffle on that int key, then ``reduce_fn`` per
    group.  ``reduce_fn`` takes the group as a ``pa.Table`` (without
    the ``__g`` column) holding many keys, and returns a ``pa.Table``
    that reduces it by the real keys — :func:`group_agg` when the
    reduce is a keyed aggregate.  An input of ≤
    ``target_rows_per_group`` rows is one group: one ``reduce_fn``
    call.

    ``n_rows`` sizes the group count — pass a metadata-derived or
    already-known count, not an extra counting pass.  Every output
    block is ``reduce_fn``'s result projected to ``out_cols``, without
    schema metadata, so downstream unions stay homogeneous."""
    import pyarrow as pa

    n_groups = scaled_group_count(max(n_rows, 1), target_rows_per_group)
    keys = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    out_cols = list(out_cols)

    def add_g(t: pa.Table) -> pa.Table:
        return t.append_column(
            "__g", pa.array(_group_ids(t, keys, n_groups), type=pa.int64()))

    def reduce_g(t: pa.Table) -> pa.Table:
        out = reduce_fn(t.drop_columns("__g"))
        return out.select(out_cols).replace_schema_metadata(None)

    return (ds.map_batches(add_g, batch_format="pyarrow",
                           batch_size=65536)
            .groupby("__g")
            .map_groups(reduce_g, batch_format="pyarrow"))


def shuffle_join(left, right, key, n_rows: int, post, how: str = "inner",
                 target_rows_per_group: int = 65536):
    """Partitioned hash join of two fact-sized Datasets: the join
    neither side of which fits a broadcast.

    ``left`` and ``right`` are ``(Dataset, pa.Schema)`` pairs; each
    Dataset emits its schema's columns (others are dropped, and types
    are cast to the schema), and the two schemas share only the
    ``key`` column(s).  Both sides are padded to one joint schema with
    null columns for the other side's fields, tagged, unioned and
    colocated on the same data-scaled :func:`_group_ids` group as
    :func:`hash_grouped_reduce` (one sort shuffle; an input of ≤
    ``target_rows_per_group`` rows is one group).  Each group is joined with Arrow's hash join
    (``pa.Table.join``; ``how`` is ``"inner"``, ``"left semi"`` or
    ``"left anti"``), and ``post`` maps the joined ``pa.Table`` to the
    group's output ``pa.Table``.  A group holding rows of one side
    only joins to a typed empty table, so ``post`` needs no empty
    guard.  The schemas are declared, not read off the Datasets:
    ``Dataset.schema()`` of a lazy mapped Dataset executes it, and a
    union of differently-shaped sides makes Ray warn about a changed
    schema on every call."""
    import pyarrow as pa
    import pyarrow.compute as pc

    (lds, lschema), (rds, rschema) = left, right
    keys = [key] if isinstance(key, str) else list(key)
    shared = (set(lschema.names) & set(rschema.names)) - set(keys)
    if shared:
        raise ValueError(
            f"shuffle_join: both sides carry non-key columns {sorted(shared)}")
    joint = pa.schema([*lschema, *(f for f in rschema if f.name not in keys)])
    n_groups = scaled_group_count(max(n_rows, 1), target_rows_per_group)

    def tagger(side: int, schema: pa.Schema):
        own = pa.schema([joint.field(n) for n in schema.names])

        def tag(t: pa.Table) -> pa.Table:
            t = t.select(own.names).cast(own)
            n = len(t)
            cols = [t[f.name] if f.name in own.names else pa.nulls(n, f.type)
                    for f in joint]
            cols.append(pa.array(np.full(n, side, dtype=np.int8)))
            cols.append(pa.array(_group_ids(t, keys, n_groups)))
            return pa.Table.from_arrays(cols, names=[*joint.names, "__side",
                                                     "__g"])
        return tag

    def join(t: pa.Table) -> pa.Table:
        side = t["__side"]
        lt = t.filter(pc.equal(side, 0)).select(lschema.names)
        rt = t.filter(pc.equal(side, 1)).select(rschema.names)
        # one thread: the task holds one Ray CPU
        return post(lt.join(rt, keys, join_type=how, use_threads=False))

    return (lds.map_batches(tagger(0, lschema), batch_format="pyarrow",
                            batch_size=65536)
            .union(rds.map_batches(tagger(1, rschema),
                                   batch_format="pyarrow", batch_size=65536))
            .groupby("__g")
            .map_groups(join, batch_format="pyarrow"))


def _mix(x: np.ndarray) -> np.ndarray:
    x = x ^ (x >> np.uint64(33))
    x = x * np.uint64(0xFF51AFD7ED558CCD)
    return x ^ (x >> np.uint64(33))
