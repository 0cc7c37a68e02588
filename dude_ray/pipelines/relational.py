"""Relational / streaming-shaped operators over the driver tables —
the groupby / window / join building blocks the crawl engine's
accounting uses (SURVEY §2.4-2.6), demonstrated with DuckDB-checkable
oracles.

Shuffle discipline: every aggregate here pre-combines inside
``map_batches`` (one partial row per key per batch) before the — then
tiny — ``groupby``; a dimension that fits a worker is broadcast once
via ``ray.put`` of a :func:`dim_table` and probed by :func:`dim_lookup`
inside plain task stages, never shuffled.  Two fact-sized sides meet
in :func:`dude_ray.partitioning.shuffle_join`: each side map filters,
projects and pre-aggregates to its own declared columns, one sort
shuffle colocates both sides by a data-scaled hash of the key, and
each group is an Arrow hash join whose ``post`` reduces it.  A
per-user sequence query (PARTITION BY user_id ORDER BY ts, event_id)
is one :func:`user_timelines` scan: one sort shuffle on coarsened user
buckets, one Arrow sort per bucket, and a numpy kernel over each
user's sorted segment.
"""

from __future__ import annotations

import functools
import math
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from dude_ray.partitioning import group_agg, hash_grouped_reduce


def _read(sf_dir: str, table: str, columns=None):
    from dude_ray.io import read_parquet_clean

    return read_parquet_clean(f"{sf_dir}/{table}.parquet", columns=columns)


def _read_dim(sf_dir: str, table: str, columns) -> pd.DataFrame:
    """A dimension table as a driver-side pandas frame, read by pyarrow
    directly: a Ray Data read would start a streaming execution
    (~70 ms) for a table the driver only turns into a broadcast or a
    name map.  The pandas schema blob is stripped first (see
    :mod:`dude_ray.io`), so ``to_pandas`` never restores a stored
    index."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/{table}.parquet", columns=list(columns))
    return t.replace_schema_metadata(None).to_pandas()


# --------------------------------------------------------------------------
# events: tumbling-window aggregate (partial-combine pattern)
# --------------------------------------------------------------------------

WINDOW_S = 300


def tree_combine(partials, keys, sums=(), mins=(), maxs=()):
    """Arrow-native two-level merge of partial-aggregate rows.

    Ray's sort-based ``groupby().aggregate()`` runs its combine in
    Python per row (~5k rows/s measured) — 1000× slower than Arrow's
    C++ hash aggregation for the same merge.  Since each input batch
    already emitted ≤1 row per key, the merge is: per-block
    ``pyarrow`` group_by → repartition(1) → one exact group_by.
    Column names are preserved through each level so the same combine
    applies at every depth.  The first level runs on the partial
    blocks as they come, so it never splits a short stream into
    empty, schema-less blocks.

    Scale assumption (documented, checked by the caller's semantics):
    the FINAL key cardinality fits one block — true for every
    aggregate here (≤100k windows/keys).  A high-cardinality final
    combine would instead need a hash-shuffle groupby; the partial
    stream itself never exceeds (#input blocks × keys/block) rows."""
    aggs = {c: (c, op) for cols, op in ((sums, "sum"), (mins, "min"),
                                        (maxs, "max")) for c in cols}

    def combine(batch: pa.Table) -> pa.Table:
        return group_agg(batch, keys, aggs)

    lvl1 = partials.map_batches(combine, batch_format="pyarrow",
                                batch_size=None)
    return lvl1.repartition(1).map_batches(
        combine, batch_format="pyarrow", batch_size=None)


def tree_sum(partials) -> dict:
    """The one row summing ``partials`` column-wise (numbers or
    equal-length number lists): :func:`tree_combine` without keys, its
    first level likewise per partial block as it comes."""

    def merge(t: pa.Table) -> pa.Table:
        if not len(t):
            return t
        return pa.table({c: pa.array([np.stack(t[c].to_pylist()).sum(axis=0)])
                         for c in t.column_names})

    lvl1 = partials.map_batches(merge, batch_format="pyarrow",
                                batch_size=None)
    return lvl1.repartition(1).map_batches(
        merge, batch_format="pyarrow", batch_size=None).take_all()[0]


def dim_table(keys, *cols):
    """A join dimension as sorted lookup arrays ``(keys, *cols)``:
    stable-sorted by the int64 ``keys``, each column permuted alongside.
    Raises ``ValueError`` on a duplicate key — a lookup resolves every
    key to exactly one dimension row.  This is the broadcast form of a
    dimension: ``ray.put`` it once, probe it with :func:`dim_lookup`."""
    keys = np.asarray(keys, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    if (keys[1:] == keys[:-1]).any():
        raise ValueError("dim_table: duplicate dimension keys")
    return (keys, *(np.asarray(c)[order] for c in cols))


def dim_lookup(table, keys):
    """Probe a :func:`dim_table` with ``keys`` in one clamped
    ``searchsorted``: returns ``(found, *cols_at_keys)``.  Column values
    where ``found`` is False are arbitrary (zeros on an empty
    dimension), so callers mask with ``found``."""
    dk, *cols = table
    keys = np.asarray(keys, dtype=np.int64)
    if not len(dk):
        return (np.zeros(len(keys), dtype=bool),
                *(np.zeros(len(keys), dtype=c.dtype) for c in cols))
    pos = np.minimum(np.searchsorted(dk, keys), len(dk) - 1)
    return (dk[pos] == keys, *(c[pos] for c in cols))


def _keep_columns(ds, schema: pa.Schema):
    """``ds``, whose ``to_pandas`` keeps ``schema``'s columns when it
    has no rows.  Ray Data builds that frame from the non-empty blocks
    only, so a 0-row Dataset otherwise converts to a frame without
    columns."""

    class KeepColumns(type(ds)):
        def to_pandas(self, limit=None):
            df = super().to_pandas(limit)
            return df if len(df.columns) else \
                schema.empty_table().to_pandas()

    ds.__class__ = KeepColumns
    return ds


def _py_round(arr, n: int) -> pa.Array:
    """Correctly-rounded decimal rounding (Python round == DuckDB round),
    unlike pc.round which can be 1 ulp off; used only on small final
    aggregate tables."""
    return pa.array([None if v is None else round(v, n) for v in arr.to_pylist()],
                    type=pa.float64())


def _vec_round(vals: np.ndarray, n: int) -> np.ndarray:
    """Vectorized decimal rounding for LARGE per-row outputs,
    bit-identical to DuckDB's round(v, n).  DuckDB computes
    ``std::round(v * 10^n) / 10^n`` (scale-multiply, half away from
    zero) — NOT correctly-rounded decimal — so matching it exactly
    means emulating std::round, not calling np.round (half-to-even at
    the scaled double's ties) or Python round (correctly-rounded
    decimal; repo-proven equal to DuckDB on aggregate magnitudes but
    not at exact scaled-double .5 ties).  trunc + exact residual
    (Sterbenz: y and trunc(y) are within a factor of 2) reproduces
    std::round for every finite double, preserving -0.0 and DuckDB's
    return-input-on-overflow branch.  Validated bitwise vs DuckDB on
    465k adversarial values at n=2,4,6,10 (tests/test_rounding.py)."""
    scale = 10.0 ** n
    with np.errstate(over="ignore", invalid="ignore"):
        y = vals * scale
        t = np.trunc(y)
        frac = y - t
        r = np.where(np.abs(frac) >= 0.5, t + np.sign(y), t)
        return np.where(np.isinf(y), vals, r / scale)


def _window_partials(batch: pa.Table) -> pa.Table:
    """Per-batch partial aggregation: one row per (event_type, window)
    per batch — the pre-shuffle combiner.  Arrow-native (TableGroupBy)
    so no pandas round-trip and no schema-metadata churn."""
    us = pc.cast(batch["ts"], pa.int64())  # timestamp[us] → microseconds
    win = pc.multiply(pc.divide(us, WINDOW_S * 1_000_000), WINDOW_S * 1_000_000)
    t = pa.table({"event_type": batch["event_type"], "window_us": win,
                  "value": batch["value"]})
    g = t.group_by(["event_type", "window_us"]).aggregate(
        [("value", "count"), ("value", "sum")])
    return pa.table({"event_type": g["event_type"],
                     "window_us": g["window_us"],
                     "n": pc.cast(g["value_count"], pa.int64()),
                     "sum_value": g["value_sum"]})


def run_events_window(sf_dir: str):
    """Tumbling 5-minute windows per event_type: count + sum(value)."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])
    partials = ds.map_batches(_window_partials, batch_format="pyarrow",
                              batch_size=8192)
    out = tree_combine(partials, ["event_type", "window_us"],
                       sums=("n", "sum_value"))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": batch["event_type"],
            "window_start_us": pc.cast(batch["window_us"], pa.int64()),
            "n_events": pc.cast(batch["n"], pa.int64()),
            "sum_value": _py_round(batch["sum_value"], 4),
        })

    return out.map_batches(finalize, batch_format="pyarrow")


def _stats_partials(batch: pa.Table) -> pa.Table:
    g = batch.group_by("event_type").aggregate(
        [("value", "count"), ("value", "sum"),
         ("value", "min"), ("value", "max")])
    return pa.table({"event_type": g["event_type"],
                     "n": pc.cast(g["value_count"], pa.int64()),
                     "s": g["value_sum"],
                     "mn": g["value_min"],
                     "mx": g["value_max"]})


def run_events_stats(sf_dir: str):
    """Per-event-type stats (count, sum, min, max of value) — partial
    combine per batch, then a tiny final merge."""
    ds = _read(sf_dir, "events", ["event_type", "value"])
    partials = ds.map_batches(_stats_partials, batch_format="pyarrow",
                              batch_size=8192)
    out = tree_combine(partials, ["event_type"], sums=("n", "s"),
                       mins=("mn",), maxs=("mx",))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": batch["event_type"],
            "n_events": pc.cast(batch["n"], pa.int64()),
            "sum_value": _py_round(batch["s"], 4),
            "min_value": _py_round(batch["mn"], 6),
            "max_value": _py_round(batch["mx"], 6),
        })

    return out.map_batches(finalize, batch_format="pyarrow")


# --------------------------------------------------------------------------
# broadcast join: orders ⋈ customer (dimension side broadcast, J2 analog)
# --------------------------------------------------------------------------

def _segment_lookup(sf_dir: str):
    """The customer → market-segment dimension, broadcast once as a
    :func:`dim_table` of int segment codes.  Returns ``(segments,
    cats)``: ``segments(custkeys)`` gives each order's code and
    ``cats`` names the codes.  The last name, 'UNKNOWN', is the code of
    a NULL segment and of a customer missing from the dimension (the
    oracle's LEFT JOIN + coalesce)."""
    import ray

    cust = _read_dim(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    codes, segs = pd.factorize(cust["c_mktsegment"])
    unknown = len(segs)
    codes[codes < 0] = unknown
    ref = ray.put(dim_table(cust["c_custkey"], codes))

    def segments(custkeys) -> np.ndarray:
        found, code = dim_lookup(ray.get(ref),
                                 custkeys.to_numpy(zero_copy_only=False))
        return np.where(found, code, unknown)

    return segments, pa.array(list(segs) + ["UNKNOWN"], type=pa.string())


def run_segment_revenue(sf_dir: str):
    """Revenue per market segment: the customer dimension is broadcast
    (``ray.put`` once, probed per batch by :func:`dim_lookup`) and
    joined inside map_batches — no shuffle of the fact table."""
    segments, cats = _segment_lookup(sf_dir)

    def segment_join(batch: pa.Table) -> pa.Table:
        t = pa.table({"code": segments(batch["o_custkey"]),
                      "price": batch["o_totalprice"]})
        g = t.group_by("code").aggregate(
            [("price", "count"), ("price", "sum")])
        return pa.table({"mktsegment": cats.take(g["code"]),
                         "n": pc.cast(g["price_count"], pa.int64()),
                         "revenue": g["price_sum"]})

    ds = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    partials = ds.map_batches(segment_join, batch_format="pyarrow",
                              batch_size=8192)
    out = tree_combine(partials, ["mktsegment"], sums=("n", "revenue"))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "mktsegment": batch["mktsegment"],
            "n_orders": pc.cast(batch["n"], pa.int64()),
            "revenue": _py_round(batch["revenue"], 2),
        })

    return out.map_batches(finalize, batch_format="pyarrow")


# --------------------------------------------------------------------------
# lineitem pricing summary (TPC-H Q1 shape — wide partial aggregate)
# --------------------------------------------------------------------------

def _pricing_partials(batch: pa.Table) -> pa.Table:
    disc_price = pc.multiply(batch["l_extendedprice"],
                             pc.subtract(pa.scalar(1.0), batch["l_discount"]))
    t = pa.table({
        "l_returnflag": batch["l_returnflag"],
        "l_linestatus": batch["l_linestatus"],
        "qty": batch["l_quantity"],
        "base_price": batch["l_extendedprice"],
        "disc_price": disc_price,
    })
    g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
        [("qty", "sum"), ("base_price", "sum"), ("disc_price", "sum"),
         ("qty", "count")])
    return pa.table({
        "l_returnflag": g["l_returnflag"],
        "l_linestatus": g["l_linestatus"],
        "sum_qty": g["qty_sum"],
        "sum_base_price": g["base_price_sum"],
        "sum_disc_price": g["disc_price_sum"],
        "count_order": pc.cast(g["qty_count"], pa.int64()),
    })


def run_pricing_summary(sf_dir: str):
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice", "l_discount"])
    partials = ds.map_batches(_pricing_partials, batch_format="pyarrow",
                              batch_size=16384)
    out = tree_combine(partials, ["l_returnflag", "l_linestatus"],
                       sums=("sum_qty", "sum_base_price", "sum_disc_price",
                             "count_order"))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": batch["l_returnflag"],
            "l_linestatus": batch["l_linestatus"],
            "sum_qty": _py_round(batch["sum_qty"], 2),
            "sum_base_price": _py_round(batch["sum_base_price"], 2),
            "sum_disc_price": _py_round(batch["sum_disc_price"], 2),
            "count_order": pc.cast(batch["count_order"], pa.int64()),
        })

    return out.map_batches(finalize, batch_format="pyarrow")


# --------------------------------------------------------------------------
# sessionization (gap-based windows — the classic streaming operator)
# --------------------------------------------------------------------------

SESSION_GAP_US = 1800 * 1_000_000  # 30-min inactivity gap

# Rows a single coarse-keyed map_groups task should hold; every
# bucketed groupby here derives its key width from it (see
# dude_ray/partitioning.py).
TARGET_ROWS_PER_GROUP = 100_000


def _scaled_buckets(sf_dir: str, table: str,
                    target: int = TARGET_ROWS_PER_GROUP) -> int:
    """Power-of-two bucket count for ``table``: ~``target`` rows per
    bucket by its parquet footers (:func:`scaled_group_count`), so a
    table of ≤ ``target`` rows is one bucket and one ``map_groups``
    call."""
    from dude_ray.partitioning import estimate_rows, scaled_group_count

    return scaled_group_count(
        estimate_rows(f"{sf_dir}/{table}.parquet"), target)


def user_timelines(sf_dir: str, cols, fn, schema: pa.Schema,
                   users_per_group: int | None = None, where=None):
    """PARTITION BY user_id ORDER BY (ts, event_id) over ``events``:
    the one shape of every per-user sequence query here.

    Reads ``user_id``, ``event_id``, ``ts`` and ``cols``, keeps the
    rows matching the optional ``where`` expression over those columns
    (before the shuffle, so only relevant rows move), and hash-partitions them in
    ONE sort shuffle on the coarsened user bucket
    ``user_id & (users_per_group-1)``.  The bucket count is data-scaled
    by :func:`_scaled_buckets` unless given: a fixed 64 would
    concentrate 1/64 of ALL events in one task at any scale.  A
    user's timeline lands whole in one bucket, so results are
    bucket-width independent.  Each bucket is sorted once by
    (user_id, ts_us, event_id) and handed to ``fn(c, starts)``: ``c``
    maps ``user_id``, ``event_id``, ``ts_us`` (``ts`` as int64
    microseconds) and ``cols`` to sorted numpy arrays, and ``starts``
    holds the index of each user's first row.  ``fn`` returns a
    mapping (a dict or a ``pa.Table``) holding ``schema``'s columns;
    each bucket's output is cast to ``schema``, and a 0-row result
    still converts to a frame with ``schema``'s columns.

    Hot-user skew at 10^12-event scale would salt by (user, day) with
    a stitch pass across day boundaries.  Not on this shape:
    :func:`run_rrf_fusion` and :func:`run_user_type_profile` shuffle
    per-batch partials, not timelines (a grouped reduce), and
    :func:`run_asof_join` is a two-sided merge."""
    if users_per_group is None:
        users_per_group = _scaled_buckets(sf_dir, "events")
    names = ["user_id", "event_id", "ts_us", *cols]

    def bucket(t: pa.Table) -> pa.Table:
        if where is not None:
            t = t.filter(where)
        return t.append_column(
            "ugroup", pc.bit_wise_and(t["user_id"], users_per_group - 1))

    def scan(t: pa.Table) -> pa.Table:
        t = t.append_column("ts_us", pc.cast(t["ts"], pa.int64())) \
            .select(names)
        t = t.take(pc.sort_indices(t, [("user_id", "ascending"),
                                       ("ts_us", "ascending"),
                                       ("event_id", "ascending")]))
        c = {n: t[n].to_numpy() for n in names}
        uid = c["user_id"]
        new_user = np.ones(len(uid), dtype=bool)
        new_user[1:] = uid[1:] != uid[:-1]
        out = fn(c, np.flatnonzero(new_user))
        return pa.table({f.name: out[f.name] for f in schema}).cast(schema)

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", *cols])
    return _keep_columns(
        ds.map_batches(bucket, batch_format="pyarrow", batch_size=16384)
        .groupby("ugroup").map_groups(scan, batch_format="pyarrow"),
        schema)


def _rank(starts, n: int) -> np.ndarray:
    """0-based position of each of ``n`` sorted rows in its user's
    timeline, from :func:`user_timelines`' ``starts``."""
    return np.arange(n) - np.repeat(starts, np.diff(np.r_[starts, n]))


def _session_starts(ts, starts) -> np.ndarray:
    """Index of each session's first row in a sorted timeline: a new
    user, or more than SESSION_GAP_US since the user's previous
    event."""
    new = np.zeros(len(ts), dtype=bool)
    new[starts] = True
    new[1:] |= ts[1:] - ts[:-1] > SESSION_GAP_US
    return np.flatnonzero(new)


def run_user_sessions(sf_dir: str, users_per_group: int | None = None):
    """Per-user sessions split on >30-min inactivity; one row per
    session (user_id, session_start_us, n_events, sum_value).

    One :func:`user_timelines` scan; inside a bucket the sessions are
    one vectorized pass (gap/user boundaries → np.add.reduceat
    per-session aggregates)."""
    def _sessions(c, starts):
        ts = c["ts_us"]
        s = _session_starts(ts, starts)
        return {"user_id": c["user_id"][s], "session_start_us": ts[s],
                "n_events": np.diff(np.r_[s, len(ts)]),
                "sum_value": np.round(np.add.reduceat(c["value"], s), 4)}

    return user_timelines(
        sf_dir, ["value"], _sessions,
        pa.schema([("user_id", pa.int64()), ("session_start_us", pa.int64()),
                   ("n_events", pa.int64()), ("sum_value", pa.float64())]),
        users_per_group)


# --------------------------------------------------------------------------
# ranked join: top-k orders per market segment (broadcast + partial top-k)
# --------------------------------------------------------------------------

def run_top_orders_per_segment(sf_dir: str, k: int = 3):
    """Top-k orders by totalprice within each market segment — a ranked
    broadcast join: the customer dimension is broadcast, each batch
    emits its local per-segment top-k (the shuffle only ever carries
    k × segments rows per batch), one final combine ranks."""
    segments, cats = _segment_lookup(sf_dir)

    def local_topk(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "code": segments(batch["o_custkey"]),
            "o_orderkey": batch["o_orderkey"].to_numpy(zero_copy_only=False),
            "o_totalprice": batch["o_totalprice"].to_numpy(zero_copy_only=False),
        })
        top = df.sort_values(["o_totalprice", "o_orderkey"],
                             ascending=[False, True]) \
                .groupby("code", sort=False).head(k)
        return pa.table({
            "mktsegment": cats.take(pa.array(top["code"])),
            "o_orderkey": pa.array(top["o_orderkey"], type=pa.int64()),
            "o_totalprice": pa.array(top["o_totalprice"], type=pa.float64()),
        })

    def finalize(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "mktsegment": batch["mktsegment"].to_pylist(),
            "o_orderkey": batch["o_orderkey"].to_numpy(zero_copy_only=False),
            "o_totalprice": batch["o_totalprice"].to_numpy(zero_copy_only=False),
        }).sort_values(["mktsegment", "o_totalprice", "o_orderkey"],
                       ascending=[True, False, True])
        df["rank"] = df.groupby("mktsegment").cumcount() + 1
        df = df[df["rank"] <= k]
        return pa.table({
            "mktsegment": pa.array(df["mktsegment"], type=pa.string()),
            "o_orderkey": pa.array(df["o_orderkey"], type=pa.int64()),
            "o_totalprice": pa.array(df["o_totalprice"], type=pa.float64()),
            "rank": pa.array(df["rank"], type=pa.int64()),
        })

    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])
    partials = ds.map_batches(local_topk, batch_format="pyarrow",
                              batch_size=16384)
    return partials.repartition(1).map_batches(finalize,
                                               batch_format="pyarrow",
                                               batch_size=None)


# --------------------------------------------------------------------------
# histogram quantiles + mergeable distinct (sketch-family aggregates)
# --------------------------------------------------------------------------

def run_value_percentiles(sf_dir: str, ps=(0.5, 0.9, 0.99)):
    """EXACT p50/p90/p99 of ``value`` per event_type via a mergeable
    value histogram: per-batch (type, value) counts, Arrow tree merge,
    then quantiles from cumulative counts.  Exact because the column's
    2-decimal precision bounds the histogram domain; for unbounded
    domains the same shape carries a mergeable t-digest/KLL sketch
    instead of exact counts.  Quantile definition: smallest value whose
    cumulative count reaches ``ceil(p·n)`` (the oracle encodes the same
    rank arithmetic, independent of DuckDB's quantile builtins)."""

    def _hist(batch: pa.Table) -> pa.Table:
        g = batch.select(["event_type", "value"]).group_by(
            ["event_type", "value"]).aggregate([("value", "count")])
        return pa.table({"event_type": g["event_type"],
                         "value": g["value"],
                         "n": pc.cast(g["value_count"], pa.int64())})

    def _quantiles(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "event_type": batch["event_type"].to_pylist(),
            "value": batch["value"].to_numpy(zero_copy_only=False),
            "n": batch["n"].to_numpy(zero_copy_only=False),
        }).sort_values(["event_type", "value"])
        out = {"event_type": []}
        for p in ps:
            out[f"p{int(p * 100)}"] = []
        for et, grp in df.groupby("event_type", sort=True):
            cum = grp["n"].cumsum().to_numpy()
            vals = grp["value"].to_numpy()
            total = cum[-1]
            out["event_type"].append(et)
            for p in ps:
                rank = int(np.ceil(p * total))
                out[f"p{int(p * 100)}"].append(
                    float(vals[np.searchsorted(cum, rank, side="left")]))
        cols = {"event_type": pa.array(out["event_type"], type=pa.string())}
        for p in ps:
            k = f"p{int(p * 100)}"
            cols[k] = pa.array(out[k], type=pa.float64())
        return pa.table(cols)

    ds = _read(sf_dir, "events", ["event_type", "value"])
    partials = ds.map_batches(_hist, batch_format="pyarrow", batch_size=16384)
    hist = tree_combine(partials, ["event_type", "value"], sums=("n",))
    return hist.map_batches(_quantiles, batch_format="pyarrow",
                            batch_size=None)


def run_distinct_users(sf_dir: str, n_buckets: int | None = None):
    """Exact count-distinct users per event_type via hash-bucketed
    distinct: per-batch distinct (type, user) pairs, hash-shuffle the
    pairs on ``user_id & (n_buckets-1)`` (a pair always lands whole in
    exactly one bucket), per-bucket exact distinct count per type, then
    a tiny sum over (type, bucket) partials.  Only distinct pairs ever
    shuffle and NO stage materializes the full pair set in one task —
    the previous repartition(1) exact distinct was the single-block
    bottleneck/OOM at web scale.  Bucket count is data-scaled; results
    are width-independent (parametrized test).  (The approximate path
    at unbounded cardinality swaps the per-bucket set for an HLL
    register array with the identical merge shape.)"""
    if n_buckets is None:
        n_buckets = _scaled_buckets(sf_dir, "events")

    def _pairs(batch: pa.Table) -> pa.Table:
        g = batch.select(["event_type", "user_id"]).group_by(
            ["event_type", "user_id"]).aggregate([])
        return pa.table({
            "bucket": pc.cast(
                pc.bit_wise_and(g["user_id"], n_buckets - 1), pa.int64()),
            "event_type": g["event_type"],
            "user_id": g["user_id"],
        })

    def _bucket_count(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["event_type", "user_id"])
        c = d.groupby("event_type", sort=False).size()
        return pd.DataFrame({
            "event_type": c.index.astype(str),
            "n": pd.Series(c.to_numpy(), dtype="int64"),
        })

    def _count(batch: pa.Table) -> pa.Table:
        return pa.table({"event_type": batch["event_type"],
                         "n_users": pc.cast(batch["n"], pa.int64())})

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    partials = ds.map_batches(_pairs, batch_format="pyarrow",
                              batch_size=16384)
    per_bucket = partials.groupby("bucket").map_groups(
        _bucket_count, batch_format="pandas")
    out = tree_combine(per_bucket, ["event_type"], sums=("n",))
    return out.map_batches(_count, batch_format="pyarrow", batch_size=None)


# --------------------------------------------------------------------------
# as-of join (events ⋈asof orders on user/customer + time)
# --------------------------------------------------------------------------

def run_asof_join(sf_dir: str, users_per_group: int | None = None):
    """For every event, the most recent order of the same customer with
    ``o_orderdate <= ts`` (LEFT semantics: no prior order → nulls) —
    the classic AS-OF join Ray Data lacks as a primitive.

    Composition (documented partitioning assumption): both sides hash-
    partition on the user/customer key (coarsened per dispatch bucket),
    then one vectorized merge per key run — orders sorted by date,
    events resolved with ``np.searchsorted``.  The bucket count is
    DATA-SCALED from the larger (probe) side's row estimate — see
    run_user_sessions — and results are width-independent because a
    key's rows land whole in one bucket.  Date ties are broken by
    max o_orderkey (deduped per (custkey, date) pre-shuffle) so the
    result is deterministic; the oracle encodes the same tie-break."""
    if users_per_group is None:
        users_per_group = _scaled_buckets(sf_dir, "events")

    def _ev(batch: pa.Table) -> pa.Table:
        return pa.table({
            "k": pc.cast(pc.bit_wise_and(batch["user_id"],
                                         users_per_group - 1), pa.int64()),
            "uid": batch["user_id"],
            "side": pa.array(np.ones(batch.num_rows, dtype=np.int32)),
            "event_id": batch["event_id"],
            "t_us": pc.cast(batch["ts"], pa.int64()),
            "o_orderkey": pa.nulls(batch.num_rows, pa.int64()),
            "o_totalprice": pa.nulls(batch.num_rows, pa.float64()),
        })

    def _ord(batch: pa.Table) -> pa.Table:
        # pre-shuffle dedup per (custkey, date): keep max orderkey row
        g = batch.select(["o_custkey", "o_orderdate", "o_orderkey",
                          "o_totalprice"])
        t = pa.table({
            "cust": g["o_custkey"],
            "d_us": pc.cast(g["o_orderdate"], pa.int64()),
            "key": g["o_orderkey"],
            "price": g["o_totalprice"],
        })
        idx = pc.sort_indices(t, sort_keys=[("cust", "ascending"),
                                            ("d_us", "ascending"),
                                            ("key", "ascending")])
        t = t.take(idx)
        cust = t["cust"].to_numpy()
        d = t["d_us"].to_numpy()
        last = np.ones(len(cust), dtype=bool)
        if len(cust) > 1:
            last[:-1] = (cust[1:] != cust[:-1]) | (d[1:] != d[:-1])
        t = t.filter(pa.array(last))
        return pa.table({
            "k": pc.cast(pc.bit_wise_and(t["cust"], users_per_group - 1),
                         pa.int64()),
            "uid": t["cust"],
            "side": pa.array(np.zeros(t.num_rows, dtype=np.int32)),
            "event_id": pa.nulls(t.num_rows, pa.int64()),
            "t_us": t["d_us"],
            "o_orderkey": t["key"],
            "o_totalprice": t["price"],
        })

    def _merge(g: pd.DataFrame) -> pd.DataFrame:
        uid = g["uid"].to_numpy(dtype=np.int64)
        side = g["side"].to_numpy(dtype=np.int64)
        t = g["t_us"].to_numpy(dtype=np.int64)
        okey_f = g["o_orderkey"].to_numpy(dtype=np.float64)  # NaN on events
        # order rows by (uid, side, time, orderkey): side-0 orders come
        # first per uid run; duplicate dates surviving the per-batch
        # dedup (pairs split across batches) sort orderkey-ascending so
        # searchsorted's right-1 lands on the max-orderkey row — the
        # deterministic tie-break the oracle encodes
        order = np.lexsort((okey_f, t, side, uid))
        uid, side, t = uid[order], side[order], t[order]
        eid = g["event_id"].to_numpy()[order]
        okey = okey_f[order]
        oprice = g["o_totalprice"].to_numpy()[order]
        starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
        ends = np.r_[starts[1:], len(uid)]
        out = {"event_id": [], "user_id": [], "ts_us": [],
               "o_orderkey": [], "o_totalprice": []}
        for s0, e0 in zip(starts, ends):
            sd = side[s0:e0]
            n_ord = int((sd == 0).sum())
            odates = t[s0:s0 + n_ord]
            ev = slice(s0 + n_ord, e0)
            if ev.start == ev.stop:
                continue
            pos = np.searchsorted(odates, t[ev], side="right") - 1
            hit = pos >= 0
            out["event_id"].extend(eid[ev])
            out["user_id"].extend(uid[ev])
            out["ts_us"].extend(t[ev])
            ok = np.full(ev.stop - ev.start, np.nan)
            op = np.full(ev.stop - ev.start, np.nan)
            if hit.any():
                ok[hit] = okey[s0:s0 + n_ord][pos[hit]]
                op[hit] = oprice[s0:s0 + n_ord][pos[hit]]
            out["o_orderkey"].extend(ok)
            out["o_totalprice"].extend(op)
        return pd.DataFrame({
            "event_id": pd.Series(out["event_id"], dtype="int64"),
            "user_id": pd.Series(out["user_id"], dtype="int64"),
            "ts_us": pd.Series(out["ts_us"], dtype="int64"),
            "o_orderkey": pd.Series(out["o_orderkey"], dtype="Int64"),
            # masked Float64 so a no-prior-order event is a true null,
            # not NaN (matches the SQL LEFT-join output)
            "o_totalprice": pd.array(
                np.round(np.asarray(out["o_totalprice"], dtype=np.float64), 2),
                dtype="Float64"),
        })

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"]).map_batches(
        _ev, batch_format="pyarrow", batch_size=16384)
    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderdate", "o_orderkey",
                    "o_totalprice"]).map_batches(
        _ord, batch_format="pyarrow", batch_size=16384)
    return ev.union(orders).groupby("k").map_groups(_merge,
                                                    batch_format="pandas")


# --------------------------------------------------------------------------
# band (range) join: same-type event pairs within a time band
# --------------------------------------------------------------------------

BAND_US = 30 * 1_000_000
# coarse partition block (1024 bands ≈ 8.5 h): ghost duplication is
# 1/1024 of rows and the (type, block) group count stays in the
# hundreds — map_groups dispatch cost, not pair work, dominates if
# blocks are too fine
BAND_BLOCK = BAND_US * 1024


def run_events_band_join(sf_dir: str):
    """All pairs of same-type events within 30 s of each other
    (a.event_id < b.event_id) — a banded range join, the inequality-
    predicate join Ray Data has no primitive for.

    Composition: partition by (event_type, coarse time block); a pair
    belongs to its EARLIER event's block, so events within one band of
    a block START are also emitted to the PREVIOUS block as GHOST rows
    (possible later partners of that block's real rows).  Inside a
    block a single sorted scan pairs each REAL row with every later
    in-band row; ghosts never start a pair, so no pair is emitted
    twice.  Shuffle volume is rows × (1 + boundary fraction); no
    all-pairs blowup anywhere."""

    def _emit(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch["ts"], pa.int64()).to_numpy()
        eid = batch["event_id"].to_numpy()
        et = np.asarray(batch["event_type"].to_pylist(), dtype=object)
        block = ts // BAND_BLOCK
        near_start = ts % BAND_BLOCK <= BAND_US
        out_et = np.concatenate([et, et[near_start]])
        out_block = np.concatenate([block, block[near_start] - 1])
        out_eid = np.concatenate([eid, eid[near_start]])
        out_ts = np.concatenate([ts, ts[near_start]])
        ghost = np.concatenate([np.zeros(len(ts), dtype=np.int8),
                                np.ones(int(near_start.sum()), dtype=np.int8)])
        return pa.table({
            "event_type": pa.array(out_et, type=pa.string()),
            "block": pa.array(out_block, type=pa.int64()),
            "event_id": pa.array(out_eid, type=pa.int64()),
            "ts_us": pa.array(out_ts, type=pa.int64()),
            "ghost": pa.array(ghost, type=pa.int8()),
        })

    def _pairs(g: pd.DataFrame) -> pd.DataFrame:
        ts = g["ts_us"].to_numpy(dtype=np.int64)
        eid = g["event_id"].to_numpy(dtype=np.int64)
        ghost = g["ghost"].to_numpy(dtype=np.int8)
        order = np.lexsort((eid, ts))
        ts, eid, ghost = ts[order], eid[order], ghost[order]
        # j-range per real i: [i+1, hi_i) — expanded fully vectorized
        hi = np.searchsorted(ts, ts + BAND_US, side="right")
        i_idx = np.flatnonzero(ghost == 0)
        cnt = hi[i_idx] - (i_idx + 1)
        pos = cnt > 0
        i_idx, cnt = i_idx[pos], cnt[pos]
        if not len(i_idx):
            return pd.DataFrame({
                "a": pd.Series([], dtype="int64"),
                "b": pd.Series([], dtype="int64"),
                "event_type": pd.Series([], dtype="object"),
                "dt_us": pd.Series([], dtype="int64"),
            })
        ii = np.repeat(i_idx, cnt)
        offs = np.cumsum(cnt) - cnt
        jj = np.arange(cnt.sum()) - np.repeat(offs, cnt) + ii + 1
        a = np.minimum(eid[ii], eid[jj])
        b = np.maximum(eid[ii], eid[jj])
        return pd.DataFrame({
            "a": pd.Series(a, dtype="int64"),
            "b": pd.Series(b, dtype="int64"),
            "event_type": pd.Series([g["event_type"].iloc[0]] * len(a),
                                    dtype="object"),
            "dt_us": pd.Series(ts[jj] - ts[ii], dtype="int64"),
        })

    ds = _read(sf_dir, "events", ["event_id", "event_type", "ts"])
    rows = ds.map_batches(_emit, batch_format="pyarrow", batch_size=16384)
    return rows.groupby(["event_type", "block"]).map_groups(
        _pairs, batch_format="pandas")


# --------------------------------------------------------------------------
# top-k sort (orders by totalprice)
# --------------------------------------------------------------------------

def run_top_orders(sf_dir: str, k: int = 20):
    """Global top-k with per-batch partial top-k before the sort —
    the sort/limit only ever sees k rows per batch."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def local_topk(batch: pa.Table) -> pa.Table:
        idx = pc.select_k_unstable(batch, k,
                                   [("o_totalprice", "descending"),
                                    ("o_orderkey", "ascending")])
        return batch.take(idx)

    partials = ds.map_batches(local_topk, batch_format="pyarrow",
                              batch_size=65536)
    return partials.sort(["o_totalprice", "o_orderkey"],
                         descending=[True, False]).limit(k)


def _value_histogram(sf_dir: str):
    """Exact global value histogram of ``events.value`` (bounded
    2-decimal domain): (sorted distinct values, counts) — the shared
    quantile substrate for bucketing and percent-rank."""

    def _hist(batch: pa.Table) -> pa.Table:
        g = batch.select(["value"]).group_by(["value"]).aggregate(
            [("value", "count")])
        return pa.table({"value": g["value"],
                         "n": pc.cast(g["value_count"], pa.int64())})

    ds = _read(sf_dir, "events", ["value"])
    rows = tree_combine(
        ds.map_batches(_hist, batch_format="pyarrow", batch_size=16384),
        ["value"], sums=("n",)).take_all()
    rows.sort(key=lambda r: r["value"])
    vals = np.asarray([r["value"] for r in rows])
    counts = np.asarray([r["n"] for r in rows], dtype=np.int64)
    return vals, counts


def run_value_buckets(sf_dir: str, n_buckets: int = 10):
    """Global equi-depth (decile) bucketing of ``events.value`` — the
    feature-binning primitive: boundary b_i = smallest value whose rank
    reaches ceil(i·n/n_buckets) (the value_percentiles rank rule), a
    row's bucket = #{i : b_i <= value} ∈ [0, n_buckets-1], output is
    the per-bucket (count, min, max) summary.

    Two streaming passes over events (inherent: quantiles must exist
    before assignment):
      1. mergeable value histogram (exact — the column's 2-decimal
         domain is bounded) → boundaries via cumulative counts; the
         driver holds n_buckets-1 floats, never rows;
      2. vectorized searchsorted against the broadcast boundaries +
         per-batch bucket partials → tree merge.  No sort, no shuffle
         wider than n_buckets × #blocks partial rows."""

    vals, counts = _value_histogram(sf_dir)
    cum = np.cumsum(counts)
    total = int(cum[-1])
    ranks = [int(np.ceil(i * total / n_buckets))
             for i in range(1, n_buckets)]
    bnds = vals[np.searchsorted(cum, ranks, side="left")]

    def _assign(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        bucket = np.searchsorted(bnds, v, side="right").astype(np.int64)
        t = pa.table({"bucket": pa.array(bucket, type=pa.int64()),
                      "value": batch["value"]})
        g = t.group_by(["bucket"]).aggregate(
            [("value", "count"), ("value", "min"), ("value", "max")])
        return pa.table({"bucket": g["bucket"],
                         "n_rows": pc.cast(g["value_count"], pa.int64()),
                         "min_value": g["value_min"],
                         "max_value": g["value_max"]})

    partials = _read(sf_dir, "events", ["value"]).map_batches(
        _assign, batch_format="pyarrow", batch_size=16384)
    return tree_combine(partials, ["bucket"], sums=("n_rows",),
                        mins=("min_value",), maxs=("max_value",))


def run_events_zscore(sf_dir: str):
    """Per-event-type z-score normalization of ``value`` — the feature
    standardization pass.  Two streaming passes: (1) per-type moment
    partials (n, Σv, Σv²) tree-merged to one tiny stats table;
    (2) broadcast-stats vectorized normalize.  Both the engine and the
    oracle compute std from the SAME explicit moment arithmetic
    (sqrt(Σv²/n − mean²)) so float parity holds; z is rounded to 4 dp
    (the cosine convention) to absorb summation-order drift."""

    def _moments(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "event_type": batch["event_type"].to_pylist(),
            "v": batch["value"].to_numpy(zero_copy_only=False),
        })
        g = df.groupby("event_type")["v"].agg(["count", "sum",
                                               lambda s: (s * s).sum()])
        g.columns = ["n", "s1", "s2"]
        g = g.reset_index()
        return pa.table({
            "event_type": pa.array(g["event_type"], type=pa.string()),
            "n": pa.array(g["n"].to_numpy(dtype=np.int64)),
            "s1": pa.array(g["s1"].to_numpy(dtype=np.float64)),
            "s2": pa.array(g["s2"].to_numpy(dtype=np.float64)),
        })

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    stats_rows = tree_combine(
        ds.map_batches(_moments, batch_format="pyarrow", batch_size=16384),
        ["event_type"], sums=("n", "s1", "s2")).take_all()
    stats = {}
    for r in stats_rows:
        mean = r["s1"] / r["n"]
        std = float(np.sqrt(r["s2"] / r["n"] - mean * mean))
        stats[r["event_type"]] = (mean, std)

    def _normalize(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_pylist()
        v = batch["value"].to_numpy(zero_copy_only=False)
        mean = np.asarray([stats[t][0] for t in et])
        std = np.asarray([stats[t][1] for t in et])
        z = np.round((v - mean) / np.maximum(std, 1e-12), 4)
        return pa.table({
            "event_id": batch["event_id"],
            "event_type": batch["event_type"],
            "z": pa.array(z, type=pa.float64()),
        })

    return ds.map_batches(_normalize, batch_format="pyarrow",
                          batch_size=16384)


HOP_S = 300        # hop
HOP_WINDOW_S = 600  # window length = 2 hops


def _hop_partials(batch: pa.Table) -> pa.Table:
    """Each event lands in exactly WINDOW/HOP (=2) overlapping windows;
    emit both memberships, then combine per batch — the standard
    replicate-then-tumble encoding of a hopping window."""
    us = pc.cast(batch["ts"], pa.int64())
    base = pc.multiply(pc.divide(us, HOP_S * 1_000_000),
                       HOP_S * 1_000_000)
    prev = pc.subtract(base, pa.scalar(HOP_S * 1_000_000, type=pa.int64()))
    t = pa.concat_tables([
        pa.table({"event_type": batch["event_type"], "window_us": base,
                  "value": batch["value"]}),
        pa.table({"event_type": batch["event_type"], "window_us": prev,
                  "value": batch["value"]}),
    ])
    g = t.group_by(["event_type", "window_us"]).aggregate(
        [("value", "count"), ("value", "sum")])
    return pa.table({"event_type": g["event_type"],
                     "window_us": g["window_us"],
                     "n": pc.cast(g["value_count"], pa.int64()),
                     "sum_value": g["value_sum"]})


def run_events_hopping_window(sf_dir: str):
    """Hopping (sliding) 10-minute windows advancing every 5 minutes,
    per event_type: count + sum(value).  Same partial-combine + tree
    merge shape as the tumbling window — replication factor is
    WINDOW/HOP, applied inside the batch before any shuffle."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])
    partials = ds.map_batches(_hop_partials, batch_format="pyarrow",
                              batch_size=8192)
    out = tree_combine(partials, ["event_type", "window_us"],
                       sums=("n", "sum_value"))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": batch["event_type"],
            "window_start_us": pc.cast(batch["window_us"], pa.int64()),
            "n_events": pc.cast(batch["n"], pa.int64()),
            "sum_value": _py_round(batch["sum_value"], 4),
        })

    return out.map_batches(finalize, batch_format="pyarrow")


def run_value_percent_rank(sf_dir: str):
    """Global percent_rank of every event's value —
    (#rows strictly smaller) / (n − 1), the SQL window-function
    definition — computed WITHOUT a global sort: the exact mergeable
    value histogram (bounded 2-decimal domain) gives the strict-less
    cumulative count per distinct value; a second pass broadcasts the
    (values, cum-less) step function and assigns per row via
    searchsorted.  Both sides compute the identical integer ratio, so
    round-6 parity is exact."""

    ds = _read(sf_dir, "events", ["event_id", "value"])
    vals, counts = _value_histogram(sf_dir)
    less = np.concatenate(([0], np.cumsum(counts[:-1])))
    total = int(counts.sum())

    def _assign(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(vals, v, side="left")
        pr = np.round(less[idx] / max(total - 1, 1), 6)
        return pa.table({
            "event_id": batch["event_id"],
            "value": batch["value"],
            "pr": pa.array(pr, type=pa.float64()),
        })

    return ds.map_batches(_assign, batch_format="pyarrow",
                          batch_size=16384)


# --------------------------------------------------------------------------
# conversion funnel (A-then-B per user)
# --------------------------------------------------------------------------

FUNNEL_FIRST = "view"
FUNNEL_THEN = "purchase"


def run_event_funnel(sf_dir: str, first: str = FUNNEL_FIRST,
                     then: str = FUNNEL_THEN,
                     users_per_group: int | None = None):
    """Per-user conversion funnel: for every user whose first ``first``
    event is followed (at or after it, by ``ts`` alone) by a ``then``
    event, emit (user_id, first_view_us, first_purchase_us, delay_us).
    The classic product-analytics two-step funnel as one
    :func:`user_timelines` scan over the rows of the two event types
    (filtered before the shuffle); per user, two masked
    ``np.minimum.reduceat`` passes over the sorted segments — no
    per-user Python."""
    never = np.iinfo(np.int64).max

    def _funnel(c, starts):
        ts, is_then = c["ts_us"], c["event_type"] == then
        fv = np.minimum.reduceat(np.where(is_then, never, ts), starts)
        after = ts >= np.repeat(fv, np.diff(np.r_[starts, len(ts)]))
        fp = np.minimum.reduceat(np.where(is_then & after, ts, never),
                                 starts)
        ok = fp < never
        return {"user_id": c["user_id"][starts][ok],
                "first_view_us": fv[ok], "first_purchase_us": fp[ok],
                "delay_us": fp[ok] - fv[ok]}

    return user_timelines(
        sf_dir, ["event_type"], _funnel,
        pa.schema([(n, pa.int64()) for n in (
            "user_id", "first_view_us", "first_purchase_us", "delay_us")]),
        users_per_group, where=pc.field("event_type").isin([first, then]))


# --------------------------------------------------------------------------
# weekly cohort retention
# --------------------------------------------------------------------------

WEEK_US = 7 * 24 * 3600 * 1_000_000


def run_retention_cohorts(sf_dir: str, users_per_group: int | None = None):
    """Weekly cohort retention matrix: users are cohorted by the week
    of their FIRST event; for each (cohort_week, week_offset) the
    output counts the distinct cohort users active that many weeks
    later — the classic product-analytics retention triangle.

    One :func:`user_timelines` scan: a user's history lands whole in
    one bucket, so cohort assignment and the per-user distinct-week
    set never cross buckets; each bucket emits pre-counted
    (cohort, offset, n) partials — at most O(weeks²) rows per bucket
    regardless of event volume — and the tiny tree_combine sums them."""
    def _cohort(c, starts):
        week = c["ts_us"] // WEEK_US
        cohort = np.repeat(week[starts], np.diff(np.r_[starts, len(week)]))
        # one row per distinct (user, week): weeks ascend within a user
        new = np.ones(len(week), dtype=bool)
        new[1:] = week[1:] != week[:-1]
        new[starts] = True
        return group_agg(
            pa.table({"cohort_week_us": cohort[new] * WEEK_US,
                      "week_offset": week[new] - cohort[new]}),
            ["cohort_week_us", "week_offset"],
            {"n_users": ("week_offset", "count")})

    partials = user_timelines(
        sf_dir, [], _cohort,
        pa.schema([(n, pa.int64()) for n in (
            "cohort_week_us", "week_offset", "n_users")]),
        users_per_group)
    return tree_combine(partials, keys=("cohort_week_us", "week_offset"),
                        sums=("n_users",))


# --------------------------------------------------------------------------
# shipping priority (TPC-H Q3 shape — big x big shuffle hash join)
# --------------------------------------------------------------------------

Q3_CUTOFF = "1998-01-01"
Q3_SEGMENT = "BUILDING"


def run_shipping_priority(sf_dir: str, k: int = 10, cutoff: str = Q3_CUTOFF,
                          segment: str = Q3_SEGMENT,
                          target_rows_per_group: int = 65536):
    """TPC-H Q3 shape: top-k open orders of one market segment by
    outstanding lineitem revenue — the canonical dimension-broadcast +
    FACT-x-FACT equi-join.  The other relational joins here broadcast
    the small side; this is the one where BOTH sides are fact-sized,
    so orders and lineitem meet in a genuine shuffle hash join.

    Scale shape: customer (the dimension) broadcasts once via ray.put
    (at TPC-H ratios it is ~1% of lineitem; if the dimension ever
    outgrew a worker heap the same shuffle join below would take it
    too); both fact scans filter + project + PRE-AGGREGATE per
    batch before anything moves (lineitem collapses to one partial row
    per (orderkey, batch)), then ONE :func:`shuffle_join` on the
    orderkey colocates the two streams — the classic
    partition-hash-join, no driver materialization, no row ever
    carrying more than 4 columns.  Top-k cuts per block first, so the
    global sort sees k rows per block.

    Float contract: revenue rounds to 2 dp (`_py_round` == DuckDB
    round) BEFORE the top-k comparison on both engines, so the cut and
    the hash agree (the pricing_summary precedent)."""
    import ray

    from dude_ray.partitioning import parquet_row_groups, shuffle_join

    cut_us = np.int64(pd.Timestamp(cutoff).value // 1000)

    cust = _read_dim(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    seg_ref = ray.put(dim_table(
        cust.loc[cust["c_mktsegment"] == segment, "c_custkey"]))

    def order_side(batch: pa.Table) -> pa.Table:
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
        dt = pc.cast(batch["o_orderdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        in_seg = dim_lookup(ray.get(seg_ref), ck)[0]
        kept = batch.filter(pa.array((dt < cut_us) & in_seg))
        return pa.table({
            "l_orderkey": kept["o_orderkey"],
            "o_orderdate": pc.strftime(kept["o_orderdate"],
                                       format="%Y-%m-%d"),
            "o_orderpriority": kept["o_orderpriority"],
        })

    def line_side(batch: pa.Table) -> pa.Table:
        sd = pc.cast(batch["l_shipdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        kept = batch.filter(pa.array(sd > cut_us))
        rev = pc.multiply(kept["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), kept["l_discount"]))
        return group_agg(
            pa.table({"l_orderkey": kept["l_orderkey"], "rev": rev}),
            ["l_orderkey"], {"revenue": ("rev", "sum")})

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate",
                    "o_orderpriority"]).map_batches(
        order_side, batch_format="pyarrow", batch_size=65536)
    lines = _read(sf_dir, "lineitem",
                  ["l_orderkey", "l_extendedprice", "l_discount",
                   "l_shipdate"]).map_batches(
        line_side, batch_format="pyarrow", batch_size=65536)

    n_rows = sum(n for t in ("orders", "lineitem") for _f, _rg, n in
                 parquet_row_groups(f"{sf_dir}/{t}.parquet"))

    def _revenue(t: pa.Table) -> pa.Table:
        return group_agg(
            t, ["l_orderkey", "o_orderdate", "o_orderpriority"],
            {"revenue": ("revenue", "sum")}).select(
            ["l_orderkey", "revenue", "o_orderdate", "o_orderpriority"])

    joined = shuffle_join(
        (orders, pa.schema([("l_orderkey", pa.int64()),
                            ("o_orderdate", pa.string()),
                            ("o_orderpriority", pa.string())])),
        (lines, pa.schema([("l_orderkey", pa.int64()),
                           ("revenue", pa.float64())])),
        "l_orderkey", n_rows, _revenue,
        target_rows_per_group=target_rows_per_group)

    def local_topk(batch: pa.Table) -> pa.Table:
        batch = batch.set_column(
            batch.schema.get_field_index("revenue"), "revenue",
            _py_round(batch["revenue"], 2))
        idx = pc.select_k_unstable(batch, k,
                                   [("revenue", "descending"),
                                    ("l_orderkey", "ascending")])
        return batch.take(idx)

    return (joined.map_batches(local_topk, batch_format="pyarrow",
                               batch_size=65536)
            .sort(["revenue", "l_orderkey"], descending=[True, False])
            .limit(k))


def shipping_priority_oracle_sql(k: int = 10, cutoff: str = Q3_CUTOFF,
                                 segment: str = Q3_SEGMENT) -> str:
    """DuckDB oracle for :func:`run_shipping_priority` (TPC-H Q3 with
    the same 2-dp revenue rounding applied before the top-k cut)."""
    return f"""
        WITH o AS (
            SELECT o_orderkey, o_orderdate, o_orderpriority
            FROM orders JOIN customer ON o_custkey = c_custkey
            WHERE c_mktsegment = '{segment}'
              AND o_orderdate < TIMESTAMP '{cutoff}'
        ), r AS (
            SELECT l_orderkey,
                   round(sum(l_extendedprice * (1 - l_discount)), 2) AS rev
            FROM lineitem
            WHERE l_shipdate > TIMESTAMP '{cutoff}'
            GROUP BY l_orderkey
        )
        SELECT l_orderkey, rev AS revenue,
               strftime(o_orderdate, '%Y-%m-%d') AS o_orderdate,
               o_orderpriority
        FROM r JOIN o ON l_orderkey = o_orderkey
        ORDER BY rev DESC, l_orderkey
        LIMIT {k}
    """


# --------------------------------------------------------------------------
# lag window: per-user consecutive-event deltas
# --------------------------------------------------------------------------

def run_events_lag_diff(sf_dir: str, users_per_group: int | None = None):
    """LAG window over each user's (ts, event_id)-ordered timeline:
    for every event with a predecessor, the previous value, the value
    delta and the microsecond gap — the feature-engineering shape
    (inter-event time, value momentum) sessionization doesn't cover.

    One :func:`user_timelines` scan and a shifted-subtract pass per
    bucket.  First-per-user rows are dropped, so every output is
    per-row arithmetic on identical float64/int64 inputs in both
    engines — IEEE-deterministic, no null-representation or rounding
    contract."""
    def _lag(c, starts):
        ts, val = c["ts_us"], c["value"]
        k = np.flatnonzero(_rank(starts, len(ts)) >= 1)
        return {"event_id": c["event_id"][k], "prev_value": val[k - 1],
                "value_delta": val[k] - val[k - 1],
                "gap_us": ts[k] - ts[k - 1]}

    return user_timelines(
        sf_dir, ["value"], _lag,
        pa.schema([("event_id", pa.int64()), ("prev_value", pa.float64()),
                   ("value_delta", pa.float64()), ("gap_us", pa.int64())]),
        users_per_group)


def events_lag_diff_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_events_lag_diff`."""
    return """
        WITH w AS (
            SELECT event_id, value,
                   lag(value) OVER
                       (PARTITION BY user_id ORDER BY ts, event_id)
                       AS prev_value,
                   lag(ts) OVER
                       (PARTITION BY user_id ORDER BY ts, event_id)
                       AS prev_ts,
                   ts
            FROM events
        )
        SELECT event_id, prev_value,
               value - prev_value AS value_delta,
               CAST(epoch_us(ts) - epoch_us(prev_ts) AS BIGINT) AS gap_us
        FROM w WHERE prev_ts IS NOT NULL
    """


# --------------------------------------------------------------------------
# rolling window: per-user running total + moving average + row_number
# --------------------------------------------------------------------------

def run_events_rolling(sf_dir: str, users_per_group: int | None = None):
    """The three remaining window frames the family lacked: per-user
    ``row_number()``, running total (ROWS UNBOUNDED PRECEDING) and a
    3-row moving average (ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
    over the (ts, event_id)-ordered timeline, as one
    :func:`user_timelines` scan.

    Float contract: the running sum accumulates sequentially per user
    (pandas groupby-cumsum) and the 3-row sum adds explicitly shifted
    arrays; DuckDB's window aggregator may associate differently, so
    BOTH engines round to 6 dp (values are O(1e2)-O(1e5) doubles —
    1-ulp scatter is ~1e-11, far inside the rounding guard).  The
    rounding itself is :func:`_vec_round` (correctly-rounded decimal,
    == _py_round == DuckDB), not bare np.round, so tie-adjacent
    cumulative sums cannot diverge by a scale-multiply ulp."""
    def _roll(c, starts):
        val = c["value"]
        r = _rank(starts, len(val))
        # sequential per-user running total (pandas cumsum is ordered)
        cum = pd.Series(val).groupby(c["user_id"], sort=False).cumsum() \
            .to_numpy(dtype=np.float64)
        # 3-row moving sum/count with the window clipped at user start
        avg3 = (val + np.where(r >= 1, np.roll(val, 1), 0.0)
                + np.where(r >= 2, np.roll(val, 2), 0.0)) \
            / (1 + np.minimum(r, 2))
        return {"event_id": c["event_id"], "rn": r + 1,
                "cum_value": _vec_round(cum, 6),
                "avg3": _vec_round(avg3, 6)}

    return user_timelines(
        sf_dir, ["value"], _roll,
        pa.schema([("event_id", pa.int64()), ("rn", pa.int64()),
                   ("cum_value", pa.float64()), ("avg3", pa.float64())]),
        users_per_group)


def events_rolling_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_events_rolling`."""
    return """
        SELECT event_id,
               CAST(row_number() OVER
                    (PARTITION BY user_id ORDER BY ts, event_id)
                    AS BIGINT) AS rn,
               round(sum(value) OVER
                    (PARTITION BY user_id ORDER BY ts, event_id
                     ROWS UNBOUNDED PRECEDING), 6) AS cum_value,
               round(avg(value) OVER
                    (PARTITION BY user_id ORDER BY ts, event_id
                     ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), 6) AS avg3
        FROM events
    """


# --------------------------------------------------------------------------
# TPC-H Q5 shape: six-table join — region/nation/supplier/customer
# broadcast, orders x lineitem in the shuffle hash join
# --------------------------------------------------------------------------

Q5_REGION = "ASIA"
Q5_START = "1996-01-01"
Q5_END = "1997-01-01"


def run_revenue_by_nation(sf_dir: str, region: str = Q5_REGION,
                          start: str = Q5_START, end: str = Q5_END,
                          target_rows_per_group: int = 65536):
    """TPC-H Q5 shape: revenue per nation where the ordering customer
    and the line's supplier share a nation inside one region — the
    canonical MULTI-WAY join plan.

    Plan (the 100 TB shape): region⋈nation collapse on the driver
    (tiny); supplier and customer reduce to two (key → nationkey)
    :func:`dim_table` lookups broadcast ONCE via ``ray.put`` and
    probed by :func:`dim_lookup` in task stages — dimension rows never
    shuffle.  Both fact scans filter + project + pre-aggregate per
    batch (lineitem collapses to one partial row per
    (orderkey, supp_nation, batch)), then the SAME
    :func:`shuffle_join` :func:`run_shipping_priority` uses joins the
    two streams on (orderkey, nation), which applies the c_nation =
    s_nation equality inside the join.  Output is ≤ |nation| partial
    rows per group, merged by :func:`tree_combine`.

    Float contract: per-nation revenue rounds to 2 dp (``_py_round``
    == DuckDB round) after the final merge, the pricing_summary
    precedent."""
    import ray

    from dude_ray.partitioning import parquet_row_groups, shuffle_join

    start_us = np.int64(pd.Timestamp(start).value // 1000)
    end_us = np.int64(pd.Timestamp(end).value // 1000)

    nat = _read_dim(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"])
    reg = _read_dim(sf_dir, "region", ["r_regionkey", "r_name"])
    rkeys = set(reg.loc[reg["r_name"] == region, "r_regionkey"])
    nat = nat[nat["n_regionkey"].isin(rkeys)]
    nat_names = dict(zip(nat["n_nationkey"].astype(int), nat["n_name"]))

    sup = _read_dim(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    cust = _read_dim(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    sup = sup[sup["s_nationkey"].isin(nat["n_nationkey"])]
    cust = cust[cust["c_nationkey"].isin(nat["n_nationkey"])]
    sup_ref = ray.put(dim_table(sup["s_suppkey"], sup["s_nationkey"]))
    cust_ref = ray.put(dim_table(cust["c_custkey"], cust["c_nationkey"]))

    def order_side(batch: pa.Table) -> pa.Table:
        dt = pc.cast(batch["o_orderdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        in_range = (dt >= start_us) & (dt < end_us)
        kept = batch.filter(pa.array(in_range))
        found, cnat = dim_lookup(ray.get(cust_ref), kept["o_custkey"]
                                 .to_numpy(zero_copy_only=False))
        kept = kept.filter(pa.array(found))
        return pa.table({"okey": kept["o_orderkey"],
                         "nat": pa.array(cnat[found], type=pa.int64())})

    def line_side(batch: pa.Table) -> pa.Table:
        found, snat = dim_lookup(ray.get(sup_ref), batch["l_suppkey"]
                                 .to_numpy(zero_copy_only=False))
        kept = batch.filter(pa.array(found))
        rev = pc.multiply(kept["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), kept["l_discount"]))
        return group_agg(
            pa.table({"okey": kept["l_orderkey"],
                      "nat": pa.array(snat[found], type=pa.int64()),
                      "rev": rev}),
            ["okey", "nat"], {"rev": ("rev", "sum")})

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        order_side, batch_format="pyarrow", batch_size=65536)
    lines = _read(sf_dir, "lineitem",
                  ["l_orderkey", "l_suppkey", "l_extendedprice",
                   "l_discount"]).map_batches(
        line_side, batch_format="pyarrow", batch_size=65536)

    n_rows = sum(n for t in ("orders", "lineitem") for _f, _rg, n in
                 parquet_row_groups(f"{sf_dir}/{t}.parquet"))

    partials = shuffle_join(
        (orders, pa.schema([("okey", pa.int64()), ("nat", pa.int64())])),
        (lines, pa.schema([("okey", pa.int64()), ("nat", pa.int64()),
                           ("rev", pa.float64())])),
        ["okey", "nat"], n_rows,
        lambda t: group_agg(t, ["nat"], {"rev": ("rev", "sum")}),
        target_rows_per_group=target_rows_per_group)

    out = tree_combine(partials, ["nat"], sums=("rev",))

    def finalize(batch: pa.Table) -> pa.Table:
        nats = batch["nat"].to_pylist()
        return pa.table({
            "n_name": pa.array([nat_names[int(k)] for k in nats],
                               type=pa.string()),
            "revenue": _py_round(batch["rev"], 2),
        })

    return (out.map_batches(finalize, batch_format="pyarrow")
            .sort(["revenue", "n_name"], descending=[True, False]))


def revenue_by_nation_oracle_sql(region: str = Q5_REGION,
                                 start: str = Q5_START,
                                 end: str = Q5_END) -> str:
    """DuckDB oracle for :func:`run_revenue_by_nation` (TPC-H Q5 with
    the same 2-dp rounding)."""
    return f"""
        SELECT n_name,
               round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue
        FROM customer, orders, lineitem, supplier, nation, region
        WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
          AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
          AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
          AND r_name = '{region}'
          AND o_orderdate >= TIMESTAMP '{start}'
          AND o_orderdate < TIMESTAMP '{end}'
        GROUP BY n_name
        ORDER BY revenue DESC, n_name
    """


# --------------------------------------------------------------------------
# ROLLUP aggregate (multi-level subtotals from one scan)
# --------------------------------------------------------------------------

def run_qty_rollup(sf_dir: str):
    """GROUP BY ROLLUP(l_returnflag, l_linestatus): row count +
    sum(l_quantity) at every rollup level — detail, per-flag subtotal,
    grand total — the nested-group accounting shape the reference's
    per-group/per-page save rollups imply (dude/base.py flatten +
    storage grouping), done as ONE distributed pass.

    Plan (the 100 TB shape): one scan; each batch pre-aggregates to
    ≤|flag×status| partial rows, :func:`tree_combine` merges them, and
    the coarser rollup levels are EXPANDED from the ≤6-row finest
    aggregate inside the final block — subtotals are sums of the
    finest level, never a second scan or shuffle.  Measures are exact
    under reordering: counts are integers and l_quantity is integral
    (driver testdata + TPC-H spec), so float sums are bit-identical
    in any association.  Rolled-up columns carry 'ALL' (the COALESCE
    contract shared with the DuckDB oracle)."""
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("l_quantity", "count"), ("l_quantity", "sum")])
        return pa.table({
            "l_returnflag": g["l_returnflag"],
            "l_linestatus": g["l_linestatus"],
            "n_rows": pc.cast(g["l_quantity_count"], pa.int64()),
            "sum_qty": g["l_quantity_sum"],
        })

    finest = tree_combine(ds.map_batches(partial, batch_format="pyarrow",
                                         batch_size=65536),
                          ["l_returnflag", "l_linestatus"],
                          sums=("n_rows", "sum_qty"))

    def expand(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        lvl1 = (df.groupby("l_returnflag", sort=False)
                [["n_rows", "sum_qty"]].sum().reset_index())
        lvl1["l_linestatus"] = "ALL"
        lvl2 = pd.DataFrame({
            "l_returnflag": ["ALL"], "l_linestatus": ["ALL"],
            "n_rows": [df["n_rows"].sum()],
            "sum_qty": [df["sum_qty"].sum()]})
        out = pd.concat([df, lvl1, lvl2], ignore_index=True)[
            ["l_returnflag", "l_linestatus", "n_rows", "sum_qty"]]
        out["n_rows"] = out["n_rows"].astype("int64")
        out["sum_qty"] = out["sum_qty"].astype("float64")
        return pa.Table.from_pandas(
            out.sort_values(["l_returnflag", "l_linestatus"]),
            preserve_index=False)

    return finest.map_batches(expand, batch_format="pyarrow",
                              batch_size=None)


def qty_rollup_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_qty_rollup` (same COALESCE
    contract for the rolled-up level markers)."""
    return """
        SELECT coalesce(l_returnflag, 'ALL') AS l_returnflag,
               coalesce(l_linestatus, 'ALL') AS l_linestatus,
               count(*) AS n_rows,
               sum(l_quantity) AS sum_qty
        FROM lineitem
        GROUP BY ROLLUP(l_returnflag, l_linestatus)
        ORDER BY l_returnflag, l_linestatus
    """


# --------------------------------------------------------------------------
# groupwise ARGMIN (keeper row per key, total-order tiebreak)
# --------------------------------------------------------------------------

def run_cheapest_part(sf_dir: str, target_rows_per_group: int = 65536):
    """Groupwise ARGMIN: for every part, the single lineitem row with
    the lowest extended price, ties broken by (orderkey, linenumber)
    so the winner is a TOTAL order — the keeper-row-per-key shape
    curate_keep_best uses, here against a fact table with ~200k keys
    per SF (too many for a driver dict, exactly right for the
    data-scaled hash-grouped reduce).

    Plan (the 100 TB shape): per-batch partial argmin first (lexsort +
    first-per-key — one surviving row per partkey per batch, so only
    ~|parts| rows per block ever shuffle), then ONE data-scaled
    hash-grouped reduce on l_partkey applies the same kernel per
    bucket.  No arithmetic touches the price — the winning float
    passes through bit-identical to the oracle's."""
    from dude_ray.partitioning import parquet_row_groups

    cols = ["l_partkey", "l_orderkey", "l_linenumber", "l_extendedprice"]

    def _first_per_part(pk, price, ok, ln):
        order = np.lexsort((ln, ok, price, pk))
        pks = pk[order]
        first = np.ones(len(pks), dtype=bool)
        first[1:] = pks[1:] != pks[:-1]
        return order[first]

    def partial(batch: pa.Table) -> pa.Table:
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False)
        sel = _first_per_part(
            pk,
            batch["l_extendedprice"].to_numpy(zero_copy_only=False),
            batch["l_orderkey"].to_numpy(zero_copy_only=False),
            batch["l_linenumber"].to_numpy(zero_copy_only=False))
        kept = batch.take(pa.array(sel))
        return pa.table({
            "l_partkey": kept["l_partkey"],
            "l_orderkey": kept["l_orderkey"],
            "l_linenumber": pc.cast(kept["l_linenumber"], pa.int64()),
            "min_price": kept["l_extendedprice"],
        })

    def reduce_fn(t: pa.Table) -> pa.Table:
        return t.take(pa.array(_first_per_part(
            *(t[c].to_numpy() for c in ("l_partkey", "min_price",
                                        "l_orderkey", "l_linenumber")))))

    n_rows = sum(n for _f, _rg, n in
                 parquet_row_groups(f"{sf_dir}/lineitem.parquet"))
    partials = _read(sf_dir, "lineitem", cols).map_batches(
        partial, batch_format="pyarrow", batch_size=65536)
    out = hash_grouped_reduce(
        partials, "l_partkey", reduce_fn, n_rows,
        target_rows_per_group=target_rows_per_group,
        out_cols=("l_partkey", "l_orderkey", "l_linenumber", "min_price"))
    return out.sort("l_partkey")


def cheapest_part_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_cheapest_part` (row_number, not
    arg_min, so the tiebreak is the same total order)."""
    return """
        SELECT l_partkey, l_orderkey, l_linenumber,
               l_extendedprice AS min_price
        FROM (SELECT l_partkey, l_orderkey, l_linenumber, l_extendedprice,
                     row_number() OVER (
                         PARTITION BY l_partkey
                         ORDER BY l_extendedprice, l_orderkey, l_linenumber
                     ) AS rn
              FROM lineitem)
        WHERE rn = 1
        ORDER BY l_partkey
    """


# --------------------------------------------------------------------------
# EXISTS semi-join + NOT EXISTS anti-join (Q4 / Q22 shapes)
# --------------------------------------------------------------------------

Q4_START = "1997-01-01"
Q4_END = "1998-01-01"
Q4_QTY_MIN = 45.0


def run_priority_semijoin(sf_dir: str, start: str = Q4_START,
                          end: str = Q4_END, qty_min: float = Q4_QTY_MIN,
                          target_rows_per_group: int = 65536):
    """TPC-H Q4 shape: orders per priority that have AT LEAST ONE
    qualifying lineitem — the canonical EXISTS semi-join between two
    fact tables (the relational analog of the crawl engine's
    allowed-domains semi-join, frontier.py J2, at fact×fact scale
    where neither side can broadcast).

    Plan (the 100 TB shape): both scans filter + project + pre-shrink
    per batch (lineitem collapses to its DISTINCT orderkeys per batch
    — existence needs no payload), then a left-semi
    :func:`shuffle_join` on orderkey keeps the orders whose key
    appears on the line side; each group emits ≤|priority| partial
    count rows.  Counts are integers —
    exact under any merge order."""
    from dude_ray.partitioning import parquet_row_groups, shuffle_join

    start_us = np.int64(pd.Timestamp(start).value // 1000)
    end_us = np.int64(pd.Timestamp(end).value // 1000)

    def order_side(batch: pa.Table) -> pa.Table:
        dt = pc.cast(batch["o_orderdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        kept = batch.filter(pa.array((dt >= start_us) & (dt < end_us)))
        return pa.table({"okey": kept["o_orderkey"],
                         "pri": kept["o_orderpriority"]})

    def line_side(batch: pa.Table) -> pa.Table:
        kept = batch.filter(pc.greater_equal(batch["l_quantity"],
                                             pa.scalar(qty_min)))
        return pa.table({"okey": pc.unique(kept["l_orderkey"])})

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate",
                    "o_orderpriority"]).map_batches(
        order_side, batch_format="pyarrow", batch_size=65536)
    lines = _read(sf_dir, "lineitem",
                  ["l_orderkey", "l_quantity"]).map_batches(
        line_side, batch_format="pyarrow", batch_size=65536)

    n_rows = sum(n for t in ("orders", "lineitem") for _f, _rg, n in
                 parquet_row_groups(f"{sf_dir}/{t}.parquet"))

    partials = shuffle_join(
        (orders, pa.schema([("okey", pa.int64()), ("pri", pa.string())])),
        (lines, pa.schema([("okey", pa.int64())])),
        "okey", n_rows,
        lambda t: group_agg(t, ["pri"], {"n": ("okey", "count")}),
        how="left semi", target_rows_per_group=target_rows_per_group)
    out = tree_combine(partials, ["pri"], sums=("n",))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderpriority": batch["pri"],
            "n_orders": pc.cast(batch["n"], pa.int64()),
        })

    return (out.map_batches(finalize, batch_format="pyarrow")
            .sort("o_orderpriority"))


def priority_semijoin_oracle_sql(start: str = Q4_START, end: str = Q4_END,
                                 qty_min: float = Q4_QTY_MIN) -> str:
    """DuckDB oracle for :func:`run_priority_semijoin`."""
    return f"""
        SELECT o_orderpriority, count(*) AS n_orders
        FROM orders o
        WHERE o_orderdate >= TIMESTAMP '{start}'
          AND o_orderdate < TIMESTAMP '{end}'
          AND EXISTS (SELECT 1 FROM lineitem l
                      WHERE l.l_orderkey = o.o_orderkey
                        AND l.l_quantity >= {qty_min})
        GROUP BY o_orderpriority
        ORDER BY o_orderpriority
    """


Q22_CUTOFF = "2000-01-01"


def run_lapsed_customers(sf_dir: str, cutoff: str = Q22_CUTOFF,
                         target_rows_per_group: int = 65536):
    """TPC-H Q22 shape: positive-balance customers with NO order since
    ``cutoff``, counted + balance-summed per market segment — the
    canonical NOT EXISTS anti-join (the relational analog of the
    frontier's adblock anti-join, J3, at fact×fact scale).

    Plan (the 100 TB shape): orders pre-shrinks to its DISTINCT
    custkeys per batch; customers carry (segment, balance-in-cents);
    ONE left-anti :func:`shuffle_join` on custkey keeps the customers
    whose key never appears on the order side.  Balances convert to exact
    integer cents (the testdata's 2-dp contract) so every sum is
    order-independent and bit-identical to the oracle's."""
    from dude_ray.partitioning import parquet_row_groups, shuffle_join

    cut_us = np.int64(pd.Timestamp(cutoff).value // 1000)

    def cust_side(batch: pa.Table) -> pa.Table:
        kept = batch.filter(pc.greater(batch["c_acctbal"], pa.scalar(0.0)))
        # half-away-from-zero on the scaled double — the SAME function
        # DuckDB's round(c_acctbal * 100) applies (std::round), so the
        # cents are bit-identical for ANY input, not just the
        # testdata's 2-dp balances (np.round's half-to-even would
        # diverge on an exact .5-cent value)
        y = kept["c_acctbal"].to_numpy(zero_copy_only=False) * 100.0
        cents = (np.sign(y) * np.floor(np.abs(y) + 0.5)).astype(np.int64)
        return pa.table({"ckey": kept["c_custkey"],
                         "seg": kept["c_mktsegment"],
                         "cents": pa.array(cents, type=pa.int64())})

    def order_side(batch: pa.Table) -> pa.Table:
        dt = pc.cast(batch["o_orderdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        kept = batch.filter(pa.array(dt >= cut_us))
        return pa.table({"ckey": pc.unique(kept["o_custkey"])})

    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_mktsegment", "c_acctbal"]).map_batches(
        cust_side, batch_format="pyarrow", batch_size=65536)
    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderdate"]).map_batches(
        order_side, batch_format="pyarrow", batch_size=65536)

    n_rows = sum(n for t in ("customer", "orders") for _f, _rg, n in
                 parquet_row_groups(f"{sf_dir}/{t}.parquet"))

    partials = shuffle_join(
        (cust, pa.schema([("ckey", pa.int64()), ("seg", pa.string()),
                          ("cents", pa.int64())])),
        (orders, pa.schema([("ckey", pa.int64())])),
        "ckey", n_rows,
        lambda t: group_agg(t, ["seg"], {"n": ("ckey", "count"),
                                         "cents": ("cents", "sum")}),
        how="left anti", target_rows_per_group=target_rows_per_group)
    out = tree_combine(partials, ["seg"], sums=("n", "cents"))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "c_mktsegment": batch["seg"],
            "n_customers": pc.cast(batch["n"], pa.int64()),
            "sum_acctbal_cents": pc.cast(batch["cents"], pa.int64()),
        })

    return (out.map_batches(finalize, batch_format="pyarrow")
            .sort("c_mktsegment"))


def lapsed_customers_oracle_sql(cutoff: str = Q22_CUTOFF) -> str:
    """DuckDB oracle for :func:`run_lapsed_customers` (same exact
    integer-cents contract)."""
    return f"""
        SELECT c_mktsegment, count(*) AS n_customers,
               CAST(sum(CAST(round(c_acctbal * 100) AS BIGINT)) AS BIGINT)
                   AS sum_acctbal_cents
        FROM customer c
        WHERE c_acctbal > 0
          AND NOT EXISTS (SELECT 1 FROM orders o
                          WHERE o.o_custkey = c.c_custkey
                            AND o.o_orderdate >= TIMESTAMP '{cutoff}')
        GROUP BY c_mktsegment
        ORDER BY c_mktsegment
    """


def run_user_top_event(sf_dir: str, target_rows_per_group: int = 65536):
    """Groupwise MODE: each user's most frequent event_type (ties
    broken by event_type ascending — a total order, so the winner is
    unique).  The two-level aggregate shape: count per (user, type),
    then argmax per user — the per-host top-rule accounting the
    reference's per-group save rollups imply, at per-user cardinality.

    Plan (the 100 TB shape): per-batch Arrow group_by collapses each
    batch to ≤|users×types| partial count rows, then ONE data-scaled
    hash-grouped reduce on user_id sums partials and takes the
    argmax inside each bucket.  Counts are integers — exact under any
    merge order."""
    from dude_ray.partitioning import parquet_row_groups

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["user_id", "event_type"]).aggregate(
            [("event_type", "count")])
        return pa.table({
            "user_id": g["user_id"],
            "event_type": g["event_type"],
            "n_events": pc.cast(g["event_type_count"], pa.int64()),
        })

    def reduce_fn(t: pa.Table) -> pa.Table:
        full = group_agg(t, ["user_id", "event_type"],
                         {"n_events": ("n_events", "sum")})
        top = full.sort_by([("user_id", "ascending"),
                            ("n_events", "descending"),
                            ("event_type", "ascending")])
        return group_agg(top, "user_id",
                         {c: (c, "first") for c in ("event_type",
                                                    "n_events")})

    n_rows = sum(n for _f, _rg, n in
                 parquet_row_groups(f"{sf_dir}/events.parquet"))
    partials = _read(sf_dir, "events",
                     ["user_id", "event_type"]).map_batches(
        partial, batch_format="pyarrow", batch_size=65536)
    out = hash_grouped_reduce(
        partials, "user_id", reduce_fn, n_rows,
        target_rows_per_group=target_rows_per_group,
        out_cols=("user_id", "event_type", "n_events"))
    return out.sort("user_id")


def user_top_event_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_user_top_event` (row_number, not
    mode(), so the tiebreak is the same total order)."""
    return """
        SELECT user_id, event_type, n AS n_events
        FROM (SELECT user_id, event_type, count(*) AS n,
                     row_number() OVER (
                         PARTITION BY user_id
                         ORDER BY count(*) DESC, event_type
                     ) AS rn
              FROM events
              GROUP BY user_id, event_type)
        WHERE rn = 1
        ORDER BY user_id
    """


def run_event_pivot(sf_dir: str, target_rows_per_group: int = 65536):
    """PIVOT / crosstab: one row per user, one count column per
    event_type plus a total — the wide conditional-aggregation shape
    (the reference's per-page × per-group save matrix, SURVEY §2.10,
    as a relational operator).

    Plan (the 100 TB shape): a first TINY pass collects the distinct
    event_type domain (per-batch unique partials → tree merge — the
    domain is bounded by the schema, not the data volume) and fixes
    the output column set; the main pass collapses each batch to
    ≤|users×types| (user, type, n) partial rows, then ONE data-scaled
    hash-grouped reduce on user_id pivots each bucket wide.  Counts
    are integers — exact under any merge order.  The oracle inlines
    the same domain as FILTER columns (the inlined-codebook pattern
    ann_ivf/hll use)."""
    from dude_ray.partitioning import parquet_row_groups

    types = list(_event_type_domain(sf_dir))
    cols = _pivot_labels(types)

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["user_id", "event_type"]).aggregate(
            [("event_type", "count")])
        return pa.table({
            "user_id": g["user_id"],
            "event_type": g["event_type"],
            "n": pc.cast(g["event_type_count"], pa.int64()),
        })

    def reduce_fn(t: pa.Table) -> pa.Table:
        wide = (t.to_pandas().groupby(["user_id", "event_type"],
                                      sort=False)["n"]
                .sum().unstack(fill_value=0))
        for ty in types:
            if ty not in wide.columns:
                wide[ty] = 0
        wide = wide[types].astype("int64")
        out = wide.reset_index()
        out.columns = ["user_id"] + cols
        out["n_total"] = wide.sum(axis=1).to_numpy()
        return pa.Table.from_pandas(out, preserve_index=False)

    n_rows = sum(n for _f, _rg, n in
                 parquet_row_groups(f"{sf_dir}/events.parquet"))
    partials = _read(sf_dir, "events",
                     ["user_id", "event_type"]).map_batches(
        partial, batch_format="pyarrow", batch_size=65536)
    out = hash_grouped_reduce(
        partials, "user_id", reduce_fn, n_rows,
        target_rows_per_group=target_rows_per_group,
        out_cols=tuple(["user_id"] + cols + ["n_total"]))
    return out.sort("user_id")


@functools.lru_cache(maxsize=8)
def _event_type_domain(sf_dir: str) -> tuple[str, ...]:
    """Distinct event_type values via per-batch unique partials and a
    tree merge — never a full-column materialization.  Cached per
    sf_dir so :func:`run_event_pivot` and
    :func:`event_pivot_oracle_sql` share ONE distributed scan when
    they target the same data (and a scale mismatch between them is
    structurally impossible when the oracle is built from the run's
    own sf_dir)."""
    ds = _read(sf_dir, "events", ["event_type"])

    def uniq(batch: pa.Table) -> pa.Table:
        return pa.table({"event_type": pc.unique(batch["event_type"]),
                         "one": pa.nulls(len(pc.unique(batch["event_type"])),
                                         type=pa.int64())})

    merged = tree_combine(
        ds.map_batches(uniq, batch_format="pyarrow", batch_size=65536),
        ["event_type"], sums=("one",))
    return tuple(sorted(r["event_type"] for r in merged.take_all()))


def _pivot_labels(types) -> list[str]:
    """Column labels for the pivot: ``n_<type>`` with every
    non-identifier character replaced by ``_`` (an event_type
    containing whitespace/quotes/SQL-special characters would
    otherwise yield invalid oracle SQL and divergent column names),
    and collisions after sanitization disambiguated by suffix so the
    label set stays bijective with the type domain."""
    seen: dict[str, int] = {}
    out = []
    for t in types:
        base = "n_" + re.sub(r"\W", "_", t)
        k = seen.get(base, 0)
        seen[base] = k + 1
        out.append(base if k == 0 else f"{base}__{k + 1}")
    return out


def event_pivot_oracle_sql(sf_dir: str | None = None) -> str:
    """DuckDB oracle for :func:`run_event_pivot` — the event_type
    domain inlines as FILTER columns (scale-pinned via GRAFT_ORACLE_SF
    like the other inlined-domain oracles; the domain scan itself is
    lru-cached per sf_dir, so when the pipeline already ran at this
    scale the oracle reuses its result instead of re-scanning).
    String literals are single-quote-escaped and aliases are QUOTED
    with the same sanitized labels the pipeline emits."""
    import os

    sf = sf_dir or os.environ.get("GRAFT_ORACLE_SF",
                                  "/root/testdata/sf0.01")
    types = _event_type_domain(sf)
    labels = _pivot_labels(types)
    filters = ",\n               ".join(
        "count(*) FILTER (WHERE event_type = '{}') AS \"{}\"".format(
            t.replace("'", "''"), lbl)
        for t, lbl in zip(types, labels))
    return f"""
        SELECT user_id,
               {filters},
               count(*) AS n_total
        FROM events
        GROUP BY user_id
        ORDER BY user_id
    """


def run_event_transitions(sf_dir: str, users_per_group: int | None = None):
    """Markov transition counts: for every ordered pair of
    CONSECUTIVE events in a user's (ts, event_id)-ordered timeline,
    the global count of (prev_type → type) transitions — the sequence
    bigram shape (funnel analysis's raw material; event_funnel counts
    one fixed path, this counts all 1-step paths).

    One :func:`user_timelines` scan; each bucket emits ≤|types|²
    partial count rows, then :func:`tree_combine` sums the tiny pair
    table.  Counts are integers — exact under any merge order."""
    def _pairs(c, starts):
        typ = c["event_type"]
        k = np.flatnonzero(_rank(starts, len(typ)) >= 1)
        return group_agg(
            pa.table({"prev_type": typ[k - 1], "event_type": typ[k]}),
            ["prev_type", "event_type"],
            {"n_transitions": ("event_type", "count")})

    partials = user_timelines(
        sf_dir, ["event_type"], _pairs,
        pa.schema([("prev_type", pa.string()), ("event_type", pa.string()),
                   ("n_transitions", pa.int64())]),
        users_per_group)
    return (tree_combine(partials, ["prev_type", "event_type"],
                         sums=("n_transitions",))
            .sort(["prev_type", "event_type"]))


def event_transitions_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_event_transitions`."""
    return """
        WITH w AS (
            SELECT user_id, event_type,
                   lag(event_type) OVER
                       (PARTITION BY user_id ORDER BY ts, event_id)
                       AS prev_type
            FROM events
        )
        SELECT prev_type, event_type, count(*) AS n_transitions
        FROM w WHERE prev_type IS NOT NULL
        GROUP BY prev_type, event_type
        ORDER BY prev_type, event_type
    """


# --------------------------------------------------------------------------
# TPC-H Q17 shape: correlated per-key threshold (avg-quantity subquery)
# --------------------------------------------------------------------------

def run_small_qty_revenue(sf_dir: str, frac: float = 0.2,
                          target_rows_per_group: int = 65536):
    """TPC-H Q17 shape, widened to every brand: revenue (integer
    cents) of lineitems whose quantity is below ``frac`` x that PART's
    average quantity — the correlated-scalar-subquery plan
    (``WHERE l_quantity < (SELECT 0.2*avg(..) .. same part)``), the
    one relational shape the registry lacked.

    Plan (the 100 TB shape): the threshold needs every row of a part
    on one worker ANYWAY, so instead of aggregate + re-scan + join we
    :func:`shuffle_join` ONE projected pass of lineitem with the part
    dimension on partkey (the :func:`run_revenue_by_nation`
    discipline) and compute avg-threshold, filter and brand
    attribution per part inside the group — lineitem is scanned once
    and only (partkey, qty, price-cents, brand) ever shuffles.  Money
    follows the integer-cents contract (`run_lapsed_customers`):
    half-away conversion per row, int64 sums exact under any merge
    order; the threshold compare reproduces DuckDB's
    ``0.2 * avg(qty)`` double arithmetic exactly because integral
    quantities sum exactly in float64.  Reference parity: the
    correlated-filter shape of dude's per-group handler filters
    (dude/base.py flatten loop), here as one distributed pass."""
    from dude_ray.partitioning import parquet_row_groups, shuffle_join

    def line_side(batch: pa.Table) -> pa.Table:
        y = pc.multiply(batch["l_extendedprice"],
                        pa.scalar(100.0)).to_numpy(zero_copy_only=False)
        cents = (np.sign(y) * np.floor(np.abs(y) + 0.5)).astype(np.int64)
        return pa.table({"p_partkey": batch["l_partkey"],
                         "qty": batch["l_quantity"],
                         "cents": pa.array(cents, type=pa.int64())})

    lines = _read(sf_dir, "lineitem",
                  ["l_partkey", "l_quantity", "l_extendedprice"]).map_batches(
        line_side, batch_format="pyarrow", batch_size=65536)
    parts = _read(sf_dir, "part", ["p_partkey", "p_brand"])

    def _per_part(t: pa.Table) -> pa.Table:
        t = t.join(group_agg(t, ["p_partkey"], {"sq": ("qty", "sum"),
                                                "nq": ("qty", "count")}),
                   "p_partkey", use_threads=False)
        # same op order as the SQL's 0.2 * avg(qty)
        thr = pc.multiply(pa.scalar(frac), pc.divide(
            t["sq"], pc.cast(t["nq"], pa.float64())))
        return group_agg(t.filter(pc.less(t["qty"], thr)), ["p_brand"],
                         {"revenue_cents": ("cents", "sum"),
                          "n_small": ("cents", "count")})

    n_rows = sum(n for t in ("lineitem", "part") for _f, _rg, n in
                 parquet_row_groups(f"{sf_dir}/{t}.parquet"))
    partials = shuffle_join(
        (lines, pa.schema([("p_partkey", pa.int64()), ("qty", pa.float64()),
                           ("cents", pa.int64())])),
        (parts, pa.schema([("p_partkey", pa.int64()),
                           ("p_brand", pa.string())])),
        "p_partkey", n_rows, _per_part,
        target_rows_per_group=target_rows_per_group)
    out = tree_combine(partials, ["p_brand"],
                       sums=("revenue_cents", "n_small"))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "p_brand": batch["p_brand"],
            "revenue_cents": pc.cast(batch["revenue_cents"], pa.int64()),
            "n_small": pc.cast(batch["n_small"], pa.int64()),
        })

    return (out.map_batches(finalize, batch_format="pyarrow")
            .sort("p_brand"))


def small_qty_revenue_oracle_sql(frac: float = 0.2) -> str:
    """DuckDB oracle for :func:`run_small_qty_revenue` (Q17 widened to
    GROUP BY brand; integer-cents contract)."""
    return f"""
        WITH thr AS (
            SELECT l_partkey, {frac} * avg(l_quantity) AS t
            FROM lineitem GROUP BY l_partkey
        )
        SELECT p_brand,
               CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT))
                    AS BIGINT) AS revenue_cents,
               count(*) AS n_small
        FROM lineitem JOIN thr USING (l_partkey)
             JOIN part ON p_partkey = l_partkey
        WHERE l_quantity < t
        GROUP BY p_brand
        ORDER BY p_brand
    """


# --------------------------------------------------------------------------
# TPC-H Q18 shape: HAVING-filtered groupby driving a two-hop join
# --------------------------------------------------------------------------

Q18_MIN_QTY = 250.0


def run_large_orders(sf_dir: str, min_qty: float = Q18_MIN_QTY,
                     target_rows_per_group: int = 65536):
    """TPC-H Q18 shape: orders whose total lineitem quantity exceeds
    ``min_qty``, with customer name attached — the HAVING-filtered
    aggregate feeding a selective two-hop (orders, customer) join.

    Plan (the 100 TB shape): lineitem pre-aggregates per batch to one
    (orderkey, qty) partial row (Arrow group_by — only ~|orders per
    block| rows shuffle) and meets the projected orders table in ONE
    :func:`shuffle_join` on orderkey, whose groups apply the HAVING
    cut; the ~1%-selective survivor set then joins customer in a
    SECOND :func:`shuffle_join` on custkey for the name.  No
    driver-side key lists, no broadcast of a data-scaled dimension;
    quantities are integral so every float sum is exact in any
    association."""
    from dude_ray.partitioning import parquet_row_groups, shuffle_join

    def line_partial(batch: pa.Table) -> pa.Table:
        return group_agg(pa.table({"o_orderkey": batch["l_orderkey"],
                                   "qty": batch["l_quantity"]}),
                         ["o_orderkey"], {"sqty": ("qty", "sum")})

    def order_side(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": batch["o_orderkey"],
            "c_custkey": batch["o_custkey"],
            "odate_us": pc.cast(batch["o_orderdate"], pa.int64()),
            "o_totalprice": batch["o_totalprice"],
        })

    lines = _read(sf_dir, "lineitem",
                  ["l_orderkey", "l_quantity"]).map_batches(
        line_partial, batch_format="pyarrow", batch_size=65536)
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate",
                    "o_totalprice"]).map_batches(
        order_side, batch_format="pyarrow", batch_size=65536)
    order_cols = pa.schema([("o_orderkey", pa.int64()),
                            ("c_custkey", pa.int64()),
                            ("odate_us", pa.int64()),
                            ("o_totalprice", pa.float64())])

    def _having(t: pa.Table) -> pa.Table:
        g = group_agg(t, order_cols.names, {"total_qty": ("sqty", "sum")})
        return g.filter(pc.greater(g["total_qty"], min_qty))

    n1 = sum(n for t in ("lineitem", "orders") for _f, _rg, n in
             parquet_row_groups(f"{sf_dir}/{t}.parquet"))
    survivors = shuffle_join(
        (orders, order_cols),
        (lines, pa.schema([("o_orderkey", pa.int64()),
                           ("sqty", pa.float64())])),
        "o_orderkey", n1, _having,
        target_rows_per_group=target_rows_per_group)

    def finalize(batch: pa.Table) -> pa.Table:
        odate = pd.to_datetime(
            batch["odate_us"].to_numpy(zero_copy_only=False),
            unit="us").strftime("%Y-%m-%d")
        return pa.table({
            "c_name": batch["c_name"],
            "c_custkey": batch["c_custkey"],
            "o_orderkey": batch["o_orderkey"],
            "o_orderdate": pa.array(odate, type=pa.string()),
            "o_totalprice": batch["o_totalprice"],
            "total_qty": pc.cast(batch["total_qty"], pa.int64()),
        })

    n2 = sum(n for _f, _rg, n in
             parquet_row_groups(f"{sf_dir}/customer.parquet"))
    named = shuffle_join(
        (survivors, pa.schema([*order_cols,
                               ("total_qty", pa.float64())])),
        (_read(sf_dir, "customer", ["c_custkey", "c_name"]),
         pa.schema([("c_custkey", pa.int64()), ("c_name", pa.string())])),
        "c_custkey", n2, finalize,
        target_rows_per_group=target_rows_per_group)
    return named.sort(["o_totalprice", "o_orderkey"],
                      descending=[True, False])


def large_orders_oracle_sql(min_qty: float = Q18_MIN_QTY) -> str:
    """DuckDB oracle for :func:`run_large_orders` (TPC-H Q18 without
    the LIMIT so the full survivor set hashes; dates as strings, the
    shipping_priority convention)."""
    return f"""
        SELECT c_name, c_custkey, o_orderkey,
               strftime(o_orderdate, '%Y-%m-%d') AS o_orderdate,
               o_totalprice,
               CAST(sum(l_quantity) AS BIGINT) AS total_qty
        FROM customer, orders, lineitem
        WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem
                             GROUP BY l_orderkey
                             HAVING sum(l_quantity) > {min_qty})
          AND c_custkey = o_custkey AND o_orderkey = l_orderkey
        GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
        ORDER BY o_totalprice DESC, o_orderkey
    """


# --------------------------------------------------------------------------
# GROUP BY CUBE expansion from one scan
# --------------------------------------------------------------------------

def run_qty_cube(sf_dir: str):
    """GROUP BY CUBE(l_returnflag, l_linestatus): count + quantity sum
    at ALL FOUR cube levels — detail, per-flag, per-status, grand
    total.  Extends :func:`run_qty_rollup` (which omits the
    per-status slice) to the full lattice, the OLAP cube shape.

    Plan (the 100 TB shape): identical to the rollup — one scan,
    per-batch partials of ≤|flag×status| rows, :func:`tree_combine`,
    then the three coarser levels EXPANDED from the ≤6-row finest
    aggregate inside the final block; no second scan, no extra
    shuffle.  Integral quantities and integer counts are exact under
    any merge order."""
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("l_quantity", "count"), ("l_quantity", "sum")])
        return pa.table({
            "l_returnflag": g["l_returnflag"],
            "l_linestatus": g["l_linestatus"],
            "n_rows": pc.cast(g["l_quantity_count"], pa.int64()),
            "sum_qty": g["l_quantity_sum"],
        })

    finest = tree_combine(ds.map_batches(partial, batch_format="pyarrow",
                                         batch_size=65536),
                          ["l_returnflag", "l_linestatus"],
                          sums=("n_rows", "sum_qty"))

    def expand(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        by_flag = (df.groupby("l_returnflag", sort=False)
                   [["n_rows", "sum_qty"]].sum().reset_index())
        by_flag["l_linestatus"] = "ALL"
        by_status = (df.groupby("l_linestatus", sort=False)
                     [["n_rows", "sum_qty"]].sum().reset_index())
        by_status["l_returnflag"] = "ALL"
        grand = pd.DataFrame({
            "l_returnflag": ["ALL"], "l_linestatus": ["ALL"],
            "n_rows": [df["n_rows"].sum()],
            "sum_qty": [df["sum_qty"].sum()]})
        out = pd.concat([df, by_flag, by_status, grand],
                        ignore_index=True)[
            ["l_returnflag", "l_linestatus", "n_rows", "sum_qty"]]
        out["n_rows"] = out["n_rows"].astype("int64")
        out["sum_qty"] = out["sum_qty"].astype("float64")
        return pa.Table.from_pandas(
            out.sort_values(["l_returnflag", "l_linestatus"]),
            preserve_index=False)

    return finest.map_batches(expand, batch_format="pyarrow",
                              batch_size=None)


def qty_cube_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_qty_cube` (COALESCE contract for
    the rolled-up level markers, as in the rollup oracle)."""
    return """
        SELECT coalesce(l_returnflag, 'ALL') AS l_returnflag,
               coalesce(l_linestatus, 'ALL') AS l_linestatus,
               count(*) AS n_rows,
               sum(l_quantity) AS sum_qty
        FROM lineitem
        GROUP BY CUBE(l_returnflag, l_linestatus)
        ORDER BY l_returnflag, l_linestatus
    """


# --------------------------------------------------------------------------
# sequence trigrams (3-step Markov paths per user timeline)
# --------------------------------------------------------------------------

def run_event_trigrams(sf_dir: str, users_per_group: int | None = None):
    """Sequence trigram counts: for every run of THREE consecutive
    events in a user's (ts, event_id)-ordered timeline, the global
    count of (t1 → t2 → t3) paths — the 2-step funnel raw material,
    one order deeper than :func:`run_event_transitions`.

    One :func:`user_timelines` scan; each bucket emits ≤|types|³
    partial count rows, then :func:`tree_combine` sums the tiny path
    table.  Integer counts are exact under any merge order."""
    def _trigrams(c, starts):
        typ = c["event_type"]
        k = np.flatnonzero(_rank(starts, len(typ)) >= 2)
        return group_agg(
            pa.table({"type_1": typ[k - 2], "type_2": typ[k - 1],
                      "type_3": typ[k]}),
            ["type_1", "type_2", "type_3"], {"n_paths": ("type_3", "count")})

    partials = user_timelines(
        sf_dir, ["event_type"], _trigrams,
        pa.schema([("type_1", pa.string()), ("type_2", pa.string()),
                   ("type_3", pa.string()), ("n_paths", pa.int64())]),
        users_per_group)
    return (tree_combine(partials, ["type_1", "type_2", "type_3"],
                         sums=("n_paths",))
            .sort(["type_1", "type_2", "type_3"]))


def event_trigrams_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_event_trigrams`."""
    return """
        WITH w AS (
            SELECT user_id, event_type,
                   lag(event_type, 1) OVER
                       (PARTITION BY user_id ORDER BY ts, event_id)
                       AS t2,
                   lag(event_type, 2) OVER
                       (PARTITION BY user_id ORDER BY ts, event_id)
                       AS t1
            FROM events
        )
        SELECT t1 AS type_1, t2 AS type_2, event_type AS type_3,
               count(*) AS n_paths
        FROM w WHERE t1 IS NOT NULL
        GROUP BY type_1, type_2, type_3
        ORDER BY type_1, type_2, type_3
    """


# --------------------------------------------------------------------------
# winsorization (percentile clipping) via the exact value histogram
# --------------------------------------------------------------------------

def run_winsorize(sf_dir: str, lo: float = 0.05, hi: float = 0.95):
    """Winsorize ``events.value`` at the exact [lo, hi] percentiles —
    the outlier-clipping pass a feature pipeline runs before
    normalization.  Percentile rule shared with
    :func:`run_value_buckets`: bound b_q = the value at sorted
    position ceil(q*n) (row_number semantics), so both engines pick
    the identical element with no interpolation ambiguity.

    Scale shape: pass 1 builds the exact mergeable value histogram
    (bounded 2-decimal domain — :func:`_value_histogram`); the driver
    holds two floats.  Pass 2 clips per batch with broadcast bounds —
    clipping passes exact input doubles through, so parity is
    bit-exact with no rounding contract needed."""
    vals, counts = _value_histogram(sf_dir)
    cum = np.cumsum(counts)
    total = int(cum[-1])
    lo_v = float(vals[np.searchsorted(cum, int(np.ceil(lo * total)),
                                      side="left")])
    hi_v = float(vals[np.searchsorted(cum, int(np.ceil(hi * total)),
                                      side="left")])

    def _clip(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        w = np.minimum(np.maximum(v, lo_v), hi_v)
        return pa.table({
            "event_id": batch["event_id"],
            "value": batch["value"],
            "value_w": pa.array(w, type=pa.float64()),
        })

    return (_read(sf_dir, "events", ["event_id", "value"])
            .map_batches(_clip, batch_format="pyarrow",
                         batch_size=16384)
            .sort("event_id"))


def winsorize_oracle_sql(lo: float = 0.05, hi: float = 0.95) -> str:
    """DuckDB oracle for :func:`run_winsorize` (row_number-position
    percentile rule, no interpolation)."""
    return f"""
        WITH ranked AS (
            SELECT value,
                   row_number() OVER (ORDER BY value) AS rn,
                   count(*) OVER () AS n
            FROM events
        ), b AS (
            SELECT min(CASE WHEN rn >= ceil({lo} * n) THEN value END)
                       AS lo_v,
                   min(CASE WHEN rn >= ceil({hi} * n) THEN value END)
                       AS hi_v
            FROM ranked
        )
        SELECT event_id, value,
               least(greatest(value, b.lo_v), b.hi_v) AS value_w
        FROM events, b
        ORDER BY event_id
    """


# --------------------------------------------------------------------------
# Pareto front (2D skyline: cheapest-for-its-size parts)
# --------------------------------------------------------------------------

def run_pareto_front(sf_dir: str, batch_size: int = 65536):
    """2D skyline over ``part``: rows not dominated on (minimize
    p_retailprice, maximize p_size) — the multi-objective shortlist
    shape (cheapest part at every size level).  A dominates B iff
    price(A) <= price(B), size(A) >= size(B), and one is strict.

    Scale shape: the skyline operator distributes as a local filter —
    skyline(union of local skylines) == skyline(all) because
    dominance is global and a locally-dominated point is globally
    dominated.  Each batch runs one vectorized kernel (sort by
    (price asc, size desc), per-price group max, strict prefix max)
    and emits its local front; the union (tiny — fronts are ~sqrt-
    sized on random data, bounded by #distinct prices) collapses in
    one final block with the SAME kernel.  No shuffle wider than the
    partial fronts; ties (equal price AND equal size) all survive,
    matching SQL's strict-dominance NOT EXISTS."""

    def _skyline(batch: pa.Table) -> pa.Table:
        price = batch["p_retailprice"].to_numpy(zero_copy_only=False)
        size = batch["p_size"].to_numpy(zero_copy_only=False)
        if len(price) == 0:
            return batch
        o = np.lexsort((-size, price))
        p, s = price[o], size[o]
        new = np.concatenate(([True], p[1:] != p[:-1]))
        gidx = np.cumsum(new) - 1
        gmax = s[new]  # within a price group rows are size-desc
        prefix = np.concatenate(
            ([-np.inf], np.maximum.accumulate(gmax)[:-1]))
        keep = (s == gmax[gidx]) & (s > prefix[gidx])
        return batch.take(pa.array(o[keep]))

    ds = _read(sf_dir, "part", ["p_partkey", "p_retailprice", "p_size"])
    local = ds.map_batches(_skyline, batch_format="pyarrow",
                           batch_size=batch_size)
    front = local.repartition(1).map_batches(
        _skyline, batch_format="pyarrow", batch_size=None)
    return front.sort(["p_retailprice", "p_partkey"])


def pareto_front_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_pareto_front` (strict-dominance
    NOT EXISTS self-join)."""
    return """
        SELECT p_partkey, p_retailprice, p_size
        FROM part t
        WHERE NOT EXISTS (
            SELECT 1 FROM part o
            WHERE o.p_retailprice <= t.p_retailprice
              AND o.p_size >= t.p_size
              AND (o.p_retailprice < t.p_retailprice
                   OR o.p_size > t.p_size))
        ORDER BY p_retailprice, p_partkey
    """


# --------------------------------------------------------------------------
# reciprocal-rank fusion of two user rankings
# --------------------------------------------------------------------------

RRF_K = 60


def run_rrf_fusion(sf_dir: str, k: int = 100, rrf_k: int = RRF_K,
                   users_per_group: int | None = None):
    """Reciprocal-rank fusion (Cormack et al. 2009): fuse the top-k
    users by TOTAL SPEND (sum of event value, integer cents) with the
    top-k by ACTIVITY (event count); fused score =
    Σ 1/(rrf_k + rank) over the lists containing the user — the
    standard multi-signal retrieval-fusion shape.

    Scale shape: per-batch Arrow pre-aggregation to ≤|users-per-batch|
    partial rows, ONE hash partition on data-scaled coarsened user
    buckets (each bucket holds all of its users' partials → exact
    totals), per-bucket vectorized local top-k by BOTH metrics
    (≤2k rows leave each bucket), then the tiny union collapses in one
    final block where global ranks are assigned under the same total
    order (metric desc, user_id asc).  Ranks never require a global
    sort of the totals table; cents are int64-exact under any merge
    order.  Absent-from-list ranks surface as 0 (the COALESCE
    contract), score is correctly-rounded to 6 decimals."""
    if users_per_group is None:
        users_per_group = _scaled_buckets(sf_dir, "events")

    def _partial(batch: pa.Table) -> pa.Table:
        y = pc.multiply(batch["value"],
                        pa.scalar(100.0)).to_numpy(zero_copy_only=False)
        cents = (np.sign(y) * np.floor(np.abs(y) + 0.5)).astype(np.int64)
        t = pa.table({"user_id": batch["user_id"],
                      "cents": pa.array(cents),
                      "n": pa.array(np.ones(len(batch), dtype=np.int64))})
        g = t.group_by(["user_id"]).aggregate(
            [("cents", "sum"), ("n", "sum")])
        return pa.table({
            "ugroup": pc.cast(
                pc.bit_wise_and(g["user_id"], users_per_group - 1),
                pa.int64()),
            "user_id": g["user_id"],
            "cents": pc.cast(g["cents_sum"], pa.int64()),
            "n": pc.cast(g["n_sum"], pa.int64()),
        })

    def _local_topk(g: pd.DataFrame) -> pd.DataFrame:
        uid = g["user_id"].to_numpy(dtype=np.int64)
        codes, uniq = pd.factorize(uid)
        cents = np.bincount(codes, weights=g["cents"].to_numpy(
            dtype=np.float64), minlength=len(uniq)).astype(np.int64)
        n = np.bincount(codes, weights=g["n"].to_numpy(
            dtype=np.float64), minlength=len(uniq)).astype(np.int64)
        by_c = np.lexsort((uniq, -cents))[:k]
        by_n = np.lexsort((uniq, -n))[:k]
        keep = np.unique(np.concatenate([by_c, by_n]))
        return pd.DataFrame({"user_id": uniq[keep],
                             "cents": cents[keep], "n": n[keep]})

    totals = (_read(sf_dir, "events", ["user_id", "value"])
              .map_batches(_partial, batch_format="pyarrow",
                           batch_size=16384)
              .groupby("ugroup").map_groups(_local_topk,
                                            batch_format="pandas"))

    def _fuse(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        cents = batch["cents"].to_numpy(zero_copy_only=False)
        n = batch["n"].to_numpy(zero_copy_only=False)
        rank_v = np.zeros(len(uid), dtype=np.int64)
        rank_c = np.zeros(len(uid), dtype=np.int64)
        by_c = np.lexsort((uid, -cents))[:k]
        by_n = np.lexsort((uid, -n))[:k]
        rank_v[by_c] = np.arange(1, len(by_c) + 1)
        rank_c[by_n] = np.arange(1, len(by_n) + 1)
        keep = (rank_v > 0) | (rank_c > 0)
        rv, rc, u = rank_v[keep], rank_c[keep], uid[keep]
        score = (np.where(rv > 0, 1.0 / (rrf_k + rv), 0.0)
                 + np.where(rc > 0, 1.0 / (rrf_k + rc), 0.0))
        return pa.table({
            "user_id": pa.array(u),
            "rank_value": pa.array(rv),
            "rank_count": pa.array(rc),
            "rrf_score": _py_round(pa.array(score, type=pa.float64()), 6),
        })

    return (totals.repartition(1)
            .map_batches(_fuse, batch_format="pyarrow", batch_size=None)
            .sort(["rrf_score", "user_id"], descending=[True, False]))


def rrf_fusion_oracle_sql(k: int = 100, rrf_k: int = RRF_K) -> str:
    """DuckDB oracle for :func:`run_rrf_fusion` (row_number under the
    identical (metric desc, user_id) total order; COALESCE-0 ranks)."""
    return f"""
        WITH tot AS (
            SELECT user_id,
                   CAST(sum(CAST(round(value * 100) AS BIGINT))
                        AS BIGINT) AS cents,
                   count(*) AS n
            FROM events GROUP BY user_id
        ), rv AS (
            SELECT user_id,
                   row_number() OVER (ORDER BY cents DESC, user_id) AS r
            FROM tot QUALIFY r <= {k}
        ), rc AS (
            SELECT user_id,
                   row_number() OVER (ORDER BY n DESC, user_id) AS r
            FROM tot QUALIFY r <= {k}
        )
        SELECT coalesce(rv.user_id, rc.user_id) AS user_id,
               CAST(coalesce(rv.r, 0) AS BIGINT) AS rank_value,
               CAST(coalesce(rc.r, 0) AS BIGINT) AS rank_count,
               round(CASE WHEN rv.r IS NULL THEN 0
                          ELSE 1.0 / ({rrf_k} + rv.r) END
                     + CASE WHEN rc.r IS NULL THEN 0
                            ELSE 1.0 / ({rrf_k} + rc.r) END, 6)
                   AS rrf_score
        FROM rv FULL OUTER JOIN rc ON rc.user_id = rv.user_id
        ORDER BY rrf_score DESC, user_id
    """


# --------------------------------------------------------------------------
# as-of join (purchase → most recent preceding view, per user)
# --------------------------------------------------------------------------

def run_asof_attribution(sf_dir: str, match: str = "view",
                         target: str = "purchase",
                         users_per_group: int | None = None):
    """AS-OF JOIN within the event stream: every ``target`` (purchase)
    event joins the MOST RECENT preceding ``match`` (view) event of
    the same user — last-touch attribution, the canonical as-of-join
    shape Ray Data lacks natively.  "Preceding" is strict under the
    (ts, event_id) total order, so simultaneous-timestamp ties are
    deterministic on both engines.

    One :func:`user_timelines` scan over the rows of the two event
    types (filtered before the shuffle), then a per-bucket vectorized
    kernel: forward-fill of the last match index via
    ``np.maximum.accumulate``, reset at each user's first row (no
    per-row Python, no per-user loop).  Output: one row per
    attributed target with the matched ts and the gap."""
    def _attrib(c, starts):
        ts, tgt = c["ts_us"], c["event_type"] == target
        idx = np.arange(len(ts))
        # last match index up to AND INCLUDING each row, shifted to
        # "strictly preceding"; kept only inside the row's own user
        ff = np.maximum.accumulate(np.where(tgt, -1, idx))
        prev = np.r_[-1, ff[:-1]]
        t = np.flatnonzero(tgt & (prev >= idx - _rank(starts, len(ts))))
        v = prev[t]
        return {"event_id": c["event_id"][t], "user_id": c["user_id"][t],
                "ts_us": ts[t], "last_view_us": ts[v],
                "gap_us": ts[t] - ts[v]}

    return user_timelines(
        sf_dir, ["event_type"], _attrib,
        pa.schema([(n, pa.int64()) for n in (
            "event_id", "user_id", "ts_us", "last_view_us", "gap_us")]),
        users_per_group,
        where=pc.field("event_type").isin([match, target])).sort("event_id")


def asof_attribution_oracle_sql(match: str = "view",
                                target: str = "purchase") -> str:
    """DuckDB oracle for :func:`run_asof_attribution` (IGNORE NULLS
    last_value window under the identical (ts, event_id) order)."""
    return f"""
        WITH seq AS (
            SELECT user_id, event_id, event_type,
                   CAST(epoch_us(ts) AS BIGINT) AS ts_us
            FROM events
            WHERE event_type IN ('{match}', '{target}')
        ), w AS (
            SELECT *, last_value(
                       CASE WHEN event_type = '{match}'
                            THEN ts_us END IGNORE NULLS)
                   OVER (PARTITION BY user_id ORDER BY ts_us, event_id
                         ROWS BETWEEN UNBOUNDED PRECEDING
                              AND 1 PRECEDING) AS last_view_us
            FROM seq
        )
        SELECT event_id, user_id, ts_us, last_view_us,
               ts_us - last_view_us AS gap_us
        FROM w
        WHERE event_type = '{target}' AND last_view_us IS NOT NULL
        ORDER BY event_id
    """


# --------------------------------------------------------------------------
# exact per-group median (holistic aggregate via mergeable histogram)
# --------------------------------------------------------------------------

def run_median_by_type(sf_dir: str):
    """Exact per-event-type MEDIAN of ``value`` — the holistic
    aggregate no partial-sum trick covers.  quantile_cont(0.5)
    semantics: odd n → the middle element, even n → the exact mean of
    the two middle elements (matching DuckDB ``median``).

    Scale shape: medians are not mergeable, but the exact PER-KEY
    VALUE HISTOGRAM is — value's bounded 2-decimal domain makes
    (type, value) cardinality data-independent, so per-batch Arrow
    partials tree-combine to one tiny block where cumulative counts
    select each type's middle element(s).  One scan, no sort, no
    row-level shuffle."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def _hist(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["event_type", "value"]).aggregate(
            [("value", "count")])
        return pa.table({"event_type": g["event_type"],
                         "value": g["value"],
                         "n": pc.cast(g["value_count"], pa.int64())})

    hist = tree_combine(ds.map_batches(_hist, batch_format="pyarrow",
                                       batch_size=16384),
                        ["event_type", "value"], sums=("n",))

    def _median(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values(["event_type", "value"])
        types, medians, counts = [], [], []
        for t, g in df.groupby("event_type", sort=True):
            c = g["n"].to_numpy(dtype=np.int64)
            v = g["value"].to_numpy(dtype=np.float64)
            cum = np.cumsum(c)
            n = int(cum[-1])
            k1, k2 = (n - 1) // 2, n // 2
            a = v[np.searchsorted(cum, k1 + 1, side="left")]
            b = v[np.searchsorted(cum, k2 + 1, side="left")]
            types.append(t)
            medians.append((a + b) / 2.0)
            counts.append(n)
        return pa.table({
            "event_type": pa.array(types, type=pa.string()),
            "n_rows": pa.array(counts, type=pa.int64()),
            "median_value": pa.array(medians, type=pa.float64()),
        })

    return hist.repartition(1).map_batches(
        _median, batch_format="pyarrow", batch_size=None)


def median_by_type_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_median_by_type`."""
    return """
        SELECT event_type, count(*) AS n_rows,
               median(value) AS median_value
        FROM events
        GROUP BY event_type
        ORDER BY event_type
    """


def run_anomaly_mad(sf_dir: str, k: float = 3.0):
    """Robust per-event-type outlier detection: median, MAD
    (median absolute deviation) and the count of values beyond
    ``k × MAD`` of the median — the standard robust anomaly gate
    (unlike z-scores, immune to the outliers it hunts).

    Scale shape: MAD needs TWO holistic medians, but the exact
    per-type VALUE HISTOGRAM (bounded 2-decimal domain, see
    :func:`run_median_by_type`) carries the full distribution, so ONE
    scan emits mergeable (type, value, n) partials and the finalize on
    the tiny merged block derives median, the deviation histogram
    (re-sorted by |v−med|), its weighted median, and the outlier count
    — no second pass over the data, no sort, no row shuffle.

    Float contract: median/MAD interpolate even-n as ``(a+b)/2``
    (matching :func:`run_median_by_type`'s verified DuckDB-equality);
    deviations and the ``k·MAD`` threshold are single IEEE ops on
    identical doubles in both engines."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def _hist(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["event_type", "value"]).aggregate(
            [("value", "count")])
        return pa.table({"event_type": g["event_type"],
                         "value": g["value"],
                         "n": pc.cast(g["value_count"], pa.int64())})

    hist = tree_combine(ds.map_batches(_hist, batch_format="pyarrow",
                                       batch_size=16384),
                        ["event_type", "value"], sums=("n",))

    def _weighted_median(v: np.ndarray, c: np.ndarray) -> float:
        cum = np.cumsum(c)
        n = int(cum[-1])
        k1, k2 = (n - 1) // 2, n // 2
        a = v[np.searchsorted(cum, k1 + 1, side="left")]
        b = v[np.searchsorted(cum, k2 + 1, side="left")]
        return (a + b) / 2.0

    def _finalize(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values(["event_type", "value"])
        out = {"event_type": [], "n_rows": [], "median_value": [],
               "mad": [], "n_outliers": []}
        for t, g in df.groupby("event_type", sort=True):
            c = g["n"].to_numpy(dtype=np.int64)
            v = g["value"].to_numpy(dtype=np.float64)
            med = _weighted_median(v, c)
            dev = np.abs(v - med)
            order = np.argsort(dev, kind="stable")
            mad = _weighted_median(dev[order], c[order])
            n_out = int(c[dev > k * mad].sum())
            out["event_type"].append(t)
            out["n_rows"].append(int(c.sum()))
            out["median_value"].append(med)
            out["mad"].append(mad)
            out["n_outliers"].append(n_out)
        return pa.table({
            "event_type": pa.array(out["event_type"],
                                   type=pa.string()),
            "n_rows": pa.array(out["n_rows"], type=pa.int64()),
            "median_value": pa.array(out["median_value"],
                                     type=pa.float64()),
            "mad": pa.array(out["mad"], type=pa.float64()),
            "n_outliers": pa.array(out["n_outliers"],
                                   type=pa.int64()),
        })

    return hist.repartition(1).map_batches(
        _finalize, batch_format="pyarrow", batch_size=None)


def anomaly_mad_oracle_sql(k: float = 3.0) -> str:
    """DuckDB oracle for :func:`run_anomaly_mad` — two explicit
    median passes plus a threshold count, same doubles throughout."""
    return f"""
        WITH m AS (
            SELECT event_type, count(*) AS n_rows,
                   median(value) AS med
            FROM events GROUP BY event_type
        ), d AS (
            SELECT e.event_type, abs(e.value - m.med) AS dev
            FROM events e JOIN m USING (event_type)
        ), s AS (
            SELECT event_type, median(dev) AS mad
            FROM d GROUP BY event_type
        ), o AS (
            SELECT d.event_type,
                   CAST(count(*) FILTER (
                        WHERE d.dev > {k} * s.mad) AS BIGINT)
                       AS n_outliers
            FROM d JOIN s USING (event_type)
            GROUP BY d.event_type
        )
        SELECT m.event_type, m.n_rows, m.med AS median_value,
               s.mad AS mad, o.n_outliers
        FROM m JOIN s USING (event_type) JOIN o USING (event_type)
        ORDER BY event_type
    """


# --------------------------------------------------------------------------
# top-N per group (generalized keeper rows per key)
# --------------------------------------------------------------------------

def run_top_orders_per_cust(sf_dir: str, n: int = 3,
                            target_rows_per_group: int = 65536):
    """Top-N rows per key: every customer's ``n`` highest-price orders
    with their rank — the generalized keeper shape
    (:func:`run_cheapest_part` is the N=1 special case).  Rank is a
    row_number under the (o_totalprice desc, o_orderkey asc) total
    order, so ties are deterministic.

    Scale shape: ONE data-scaled hash-grouped partition on custkey;
    the per-group kernel is a vectorized lexsort + per-key cumcount,
    emitting ≤N rows per customer.  No global sort — the only wide
    step is the single key-hash shuffle of the projected columns."""
    from dude_ray.partitioning import parquet_row_groups

    def _topn(t: pa.Table) -> pa.Table:
        ck, ok, tp = (t[c].to_numpy() for c in ("o_custkey", "o_orderkey",
                                                "o_totalprice"))
        order = np.lexsort((ok, -tp, ck))
        ck, ok, tp = ck[order], ok[order], tp[order]
        new = np.concatenate(([True], ck[1:] != ck[:-1]))
        # rank within key = position - key start position + 1
        idx = np.arange(len(ck))
        start = idx[new][np.cumsum(new) - 1]
        rank = idx - start + 1
        keep = rank <= n
        return pa.table({
            "o_custkey": ck[keep], "rank": rank[keep],
            "o_orderkey": ok[keep], "o_totalprice": tp[keep]})

    ds = _read(sf_dir, "orders",
               ["o_custkey", "o_orderkey", "o_totalprice"])
    n_rows = sum(nr for _f, _rg, nr in parquet_row_groups(
        f"{sf_dir}/orders.parquet"))
    out = hash_grouped_reduce(
        ds, "o_custkey", _topn, n_rows,
        target_rows_per_group=target_rows_per_group,
        out_cols=("o_custkey", "rank", "o_orderkey", "o_totalprice"))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": batch["o_custkey"],
            "rank": pc.cast(batch["rank"], pa.int64()),
            "o_orderkey": batch["o_orderkey"],
            "o_totalprice": batch["o_totalprice"],
        })

    return (out.map_batches(finalize, batch_format="pyarrow")
            .sort(["o_custkey", "rank"]))


def top_orders_per_cust_oracle_sql(n: int = 3) -> str:
    """DuckDB oracle for :func:`run_top_orders_per_cust`."""
    return f"""
        SELECT o_custkey, rank, o_orderkey, o_totalprice FROM (
            SELECT o_custkey, o_orderkey, o_totalprice,
                   row_number() OVER (PARTITION BY o_custkey
                       ORDER BY o_totalprice DESC, o_orderkey) AS rank
            FROM orders)
        WHERE rank <= {n}
        ORDER BY o_custkey, rank
    """


# --------------------------------------------------------------------------
# ordered distinct string aggregation per key
# --------------------------------------------------------------------------

def run_user_type_profile(sf_dir: str,
                          users_per_group: int | None = None):
    """Per-user behavioural profile string: the alphabetically-sorted
    DISTINCT event types joined by ',' plus the distinct count — the
    ordered string-aggregation shape (SQL ``string_agg`` with a
    deterministic ORDER BY contract).

    Scale shape: per-batch Arrow dedup of (user, type) pairs (the
    moved data shrinks to ≤|users × types| per batch BEFORE the
    shuffle), ONE hash partition on coarsened user buckets, then a
    per-bucket sorted-dedup + pandas grouped join — output is one row
    per user."""
    if users_per_group is None:
        users_per_group = _scaled_buckets(sf_dir, "events")

    def _pairs(batch: pa.Table) -> pa.Table:
        g = (batch.select(["user_id", "event_type"])
             .group_by(["user_id", "event_type"]).aggregate([]))
        return pa.table({
            "ugroup": pc.cast(
                pc.bit_wise_and(g["user_id"], users_per_group - 1),
                pa.int64()),
            "user_id": g["user_id"],
            "event_type": g["event_type"],
        })

    def _profile(g: pd.DataFrame) -> pd.DataFrame:
        d = (g[["user_id", "event_type"]]
             .drop_duplicates()
             .sort_values(["user_id", "event_type"]))
        out = (d.groupby("user_id", sort=True)["event_type"]
               .agg([("type_profile", ",".join),
                     ("n_types", "size")]).reset_index())
        out["n_types"] = out["n_types"].astype("int64")
        return out

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    keyed = ds.map_batches(_pairs, batch_format="pyarrow",
                           batch_size=16384)
    return (keyed.groupby("ugroup").map_groups(
        _profile, batch_format="pandas").sort("user_id"))


def user_type_profile_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_user_type_profile` (list-sorted
    distinct aggregation — deterministic, unlike bare string_agg)."""
    return """
        SELECT user_id,
               array_to_string(list_sort(list(DISTINCT event_type)), ',')
                   AS type_profile,
               CAST(count(DISTINCT event_type) AS BIGINT) AS n_types
        FROM events
        GROUP BY user_id
        ORDER BY user_id
    """


# --------------------------------------------------------------------------
# customer order-count distribution (LEFT-JOIN histogram, TPC-H Q13 shape)
# --------------------------------------------------------------------------

def run_custdist(sf_dir: str, target_rows_per_group: int = 65536):
    """TPC-H Q13 shape: the distribution of per-customer order counts
    INCLUDING customers with zero orders — the left-outer-join
    aggregate whose naive plan joins two fact tables just to count.

    Plan (the 100 TB shape): no join at all.  The orders scan
    pre-counts per custkey per batch (one partial row per key per
    batch), ONE data-scaled hash-grouped reduce makes the counts exact
    per customer AND collapses each group to its local histogram
    (count → #customers), so the final combine sees ≤|distinct counts|
    rows per group.  The zero bucket is arithmetic, not a join:
    #customers with no orders = |customer| (parquet metadata row
    count) − Σ custdist — valid under the TPC-H FK contract
    (o_custkey ⊆ c_custkey), stated here and enforced by the oracle's
    LEFT JOIN."""
    from dude_ray.partitioning import parquet_row_groups

    n_cust = sum(nr for _f, _rg, nr in parquet_row_groups(
        f"{sf_dir}/customer.parquet"))
    n_orders = sum(nr for _f, _rg, nr in parquet_row_groups(
        f"{sf_dir}/orders.parquet"))

    def _partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("o_custkey").aggregate([("o_custkey", "count")])
        return pa.table({"ckey": g["o_custkey"],
                         "n": pc.cast(g["o_custkey_count"], pa.int64())})

    def _hist(t: pa.Table) -> pa.Table:
        per_cust = group_agg(t, "ckey", {"c_count": ("n", "sum")})
        return group_agg(per_cust, "c_count",
                         {"custdist": ([], "count_all")})

    partials = _read(sf_dir, "orders", ["o_custkey"]).map_batches(
        _partial, batch_format="pyarrow", batch_size=65536)
    hist = hash_grouped_reduce(
        partials, "ckey", _hist, n_orders,
        target_rows_per_group=target_rows_per_group,
        out_cols=("c_count", "custdist"))
    combined = tree_combine(hist, ["c_count"], sums=("custdist",))

    def _add_zero(batch: pa.Table) -> pa.Table:
        c = batch["c_count"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch["custdist"].to_numpy(zero_copy_only=False).astype(np.int64)
        zero = n_cust - int(d.sum())
        if zero > 0:
            c = np.concatenate((c, [0]))
            d = np.concatenate((d, [zero]))
        return pa.table({"c_count": pa.array(c, type=pa.int64()),
                         "custdist": pa.array(d, type=pa.int64())})

    return (combined.repartition(1)
            .map_batches(_add_zero, batch_format="pyarrow",
                         batch_size=None)
            .sort(["custdist", "c_count"], descending=[True, True]))


def custdist_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_custdist` (TPC-H Q13 without the
    o_comment NOT-LIKE filter — the trimmed schema carries no
    comments)."""
    return """
        SELECT c_count, CAST(count(*) AS BIGINT) AS custdist FROM (
            SELECT c_custkey,
                   CAST(count(o_orderkey) AS BIGINT) AS c_count
            FROM customer LEFT OUTER JOIN orders
                 ON c_custkey = o_custkey
            GROUP BY c_custkey)
        GROUP BY c_count
        ORDER BY custdist DESC, c_count DESC
    """


# --------------------------------------------------------------------------
# returned-item revenue report (TPC-H Q10 shape: fact⋈fact + top-k
# + dimension join-back AFTER the cut)
# --------------------------------------------------------------------------

Q10_START = "1996-01-01"
Q10_END = "1996-04-01"


def run_returned_items(sf_dir: str, k: int = 20, start: str = Q10_START,
                       end: str = Q10_END,
                       target_rows_per_group: int = 65536):
    """TPC-H Q10 shape: top-k customers by revenue lost to returned
    lineitems in one quarter, reported with their name, balance and
    nation — the fact⋈fact join whose dimension attributes are
    joined back ONLY for the k winners.

    Plan (the 100 TB shape): both fact scans filter + project +
    pre-aggregate per batch (lineitem keeps only returnflag='R' rows
    and collapses to one partial row per (orderkey, batch)); ONE
    :func:`shuffle_join` on orderkey joins the streams AND re-keys the
    joined revenue to custkey; a SECOND
    hash-grouped reduce makes per-customer revenue exact and cuts to
    a local top-k per group, so the global sort sees ≤k rows per
    group.  Customer name/balance/nation attach afterwards: the ≤k
    winner keys broadcast into a filtered customer scan — dimension
    attributes never ride through either shuffle.

    Float contract: revenue rounds to 2 dp (``_py_round`` == DuckDB
    round) BEFORE the top-k comparison on both engines (the
    shipping_priority precedent)."""
    import ray

    from dude_ray.partitioning import parquet_row_groups, shuffle_join

    start_us = np.int64(pd.Timestamp(start).value // 1000)
    end_us = np.int64(pd.Timestamp(end).value // 1000)

    def order_side(batch: pa.Table) -> pa.Table:
        dt = pc.cast(batch["o_orderdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        kept = batch.filter(pa.array((dt >= start_us) & (dt < end_us)))
        return pa.table({"okey": kept["o_orderkey"],
                         "ckey": kept["o_custkey"]})

    def line_side(batch: pa.Table) -> pa.Table:
        kept = batch.filter(pc.equal(batch["l_returnflag"], "R"))
        rev = pc.multiply(kept["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), kept["l_discount"]))
        return group_agg(pa.table({"okey": kept["l_orderkey"], "rev": rev}),
                         ["okey"], {"rev": ("rev", "sum")})

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        order_side, batch_format="pyarrow", batch_size=65536)
    lines = _read(sf_dir, "lineitem",
                  ["l_orderkey", "l_returnflag", "l_extendedprice",
                   "l_discount"]).map_batches(
        line_side, batch_format="pyarrow", batch_size=65536)

    n_rows = sum(n for t in ("orders", "lineitem") for _f, _rg, n in
                 parquet_row_groups(f"{sf_dir}/{t}.parquet"))

    by_cust = shuffle_join(
        (orders, pa.schema([("okey", pa.int64()), ("ckey", pa.int64())])),
        (lines, pa.schema([("okey", pa.int64()), ("rev", pa.float64())])),
        "okey", n_rows,
        lambda t: group_agg(t, ["ckey"], {"rev": ("rev", "sum")}),
        target_rows_per_group=target_rows_per_group)

    def _cust_topk(t: pa.Table) -> pa.Table:
        g = group_agg(t, "ckey", {"rev": ("rev", "sum")})
        g = g.set_column(1, "rev", pa.array(
            _vec_round(g["rev"].to_numpy(), 2)))
        return g.sort_by([("rev", "descending"),
                          ("ckey", "ascending")]).slice(0, k)

    winners = hash_grouped_reduce(
        by_cust, "ckey", _cust_topk, n_rows,
        target_rows_per_group=target_rows_per_group,
        out_cols=("ckey", "rev"))
    top = (winners.repartition(1)
           .sort(["rev", "ckey"], descending=[True, False])
           .limit(k).to_pandas())

    nat = _read_dim(sf_dir, "nation", ["n_nationkey", "n_name"])
    keys_ref = ray.put(dim_table(top["ckey"]))

    def cust_attrs(batch: pa.Table) -> pa.Table:
        ck = batch["c_custkey"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(dim_lookup(ray.get(keys_ref), ck)[0]))

    attrs = (_read(sf_dir, "customer",
                   ["c_custkey", "c_name", "c_acctbal", "c_nationkey"])
             .map_batches(cust_attrs, batch_format="pyarrow",
                          batch_size=65536)
             .to_pandas())
    out = (top.merge(attrs, left_on="ckey", right_on="c_custkey")
           .merge(nat, left_on="c_nationkey", right_on="n_nationkey")
           .sort_values(["rev", "ckey"], ascending=[False, True]))
    return pd.DataFrame({
        "c_custkey": out["ckey"].astype("int64"),
        "c_name": out["c_name"],
        "revenue": out["rev"].to_numpy(dtype=np.float64),
        "c_acctbal": out["c_acctbal"].to_numpy(dtype=np.float64),
        "n_name": out["n_name"],
    }).reset_index(drop=True)


def returned_items_oracle_sql(k: int = 20, start: str = Q10_START,
                              end: str = Q10_END) -> str:
    """DuckDB oracle for :func:`run_returned_items` (TPC-H Q10 on the
    trimmed schema; 2-dp rounding before the top-k cut on both
    engines)."""
    return f"""
        SELECT c_custkey, c_name,
               round(sum(l_extendedprice * (1 - l_discount)), 2)
                   AS revenue,
               c_acctbal, n_name
        FROM customer, orders, lineitem, nation
        WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
          AND o_orderdate >= TIMESTAMP '{start}'
          AND o_orderdate < TIMESTAMP '{end}'
          AND l_returnflag = 'R' AND c_nationkey = n_nationkey
        GROUP BY c_custkey, c_name, c_acctbal, n_name
        ORDER BY revenue DESC, c_custkey
        LIMIT {k}
    """


# --------------------------------------------------------------------------
# top supplier (TPC-H Q15 shape: global argmax-with-ties over an aggregate)
# --------------------------------------------------------------------------

Q15_START = "1996-01-01"
Q15_END = "1996-04-01"


def run_top_supplier(sf_dir: str, start: str = Q15_START,
                     end: str = Q15_END,
                     target_rows_per_group: int = 65536):
    """TPC-H Q15 shape: the supplier(s) whose quarterly shipped
    revenue equals the GLOBAL maximum — the aggregate-then-argmax
    whose SQL form is a view plus a scalar subquery.

    Plan (the 100 TB shape): lineitem pre-aggregates per batch (one
    partial row per (suppkey, batch)), ONE data-scaled hash-grouped
    reduce makes per-supplier revenue exact; the supplier-cardinality
    aggregate (2 columns, ~10⁻⁴ of the fact bytes) materializes in
    the OBJECT STORE — never the driver — so the argmax is two cheap
    passes over it: per-block local maxima (≤1 row per block reaches
    the driver) fix the global max, then a filter selects the
    winner(s).  Name lookup joins the ≤tie-count winner keys into a
    filtered supplier scan, the returned_items pattern.

    Float contract: both engines compare each supplier's own float
    sum to a max over those same sums, so the comparison is internally
    consistent per engine; the reported total rounds to 2 dp."""
    import ray

    from dude_ray.partitioning import parquet_row_groups

    start_us = np.int64(pd.Timestamp(start).value // 1000)
    end_us = np.int64(pd.Timestamp(end).value // 1000)

    def _partial(batch: pa.Table) -> pa.Table:
        sd = pc.cast(batch["l_shipdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        kept = batch.filter(pa.array((sd >= start_us) & (sd < end_us)))
        rev = pc.multiply(kept["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), kept["l_discount"]))
        g = (pa.table({"skey": kept["l_suppkey"], "rev": rev})
             .group_by("skey").aggregate([("rev", "sum")]))
        return pa.table({"skey": g["skey"], "rev": g["rev_sum"]})

    n_rows = sum(nr for _f, _rg, nr in parquet_row_groups(
        f"{sf_dir}/lineitem.parquet"))
    partials = _read(sf_dir, "lineitem",
                     ["l_suppkey", "l_shipdate", "l_extendedprice",
                      "l_discount"]).map_batches(
        _partial, batch_format="pyarrow", batch_size=65536)

    agg = hash_grouped_reduce(
        partials, "skey",
        lambda t: group_agg(t, "skey", {"rev": ("rev", "sum")}), n_rows,
        target_rows_per_group=target_rows_per_group,
        out_cols=("skey", "rev")).materialize()

    def _local_max(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table({"m": pa.array([], type=pa.float64())})
        return pa.table({"m": pa.array(
            [pc.max(batch["rev"]).as_py()], type=pa.float64())})

    maxima = agg.map_batches(_local_max, batch_format="pyarrow",
                             batch_size=None).take_all()
    gmax = max(r["m"] for r in maxima)

    winners = (agg.map_batches(
        lambda t: t.filter(pc.equal(t["rev"], gmax)),
        batch_format="pyarrow").to_pandas())

    keys_ref = ray.put(dim_table(winners["skey"]))

    def sup_attrs(batch: pa.Table) -> pa.Table:
        sk = batch["s_suppkey"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(dim_lookup(ray.get(keys_ref), sk)[0]))

    attrs = (_read(sf_dir, "supplier", ["s_suppkey", "s_name"])
             .map_batches(sup_attrs, batch_format="pyarrow",
                          batch_size=65536)
             .to_pandas())
    out = (winners.merge(attrs, left_on="skey", right_on="s_suppkey")
           .sort_values("skey"))
    return pd.DataFrame({
        "s_suppkey": out["skey"].astype("int64"),
        "s_name": out["s_name"],
        "total_revenue": _vec_round(
            out["rev"].to_numpy(dtype=np.float64), 2),
    }).reset_index(drop=True)


def top_supplier_oracle_sql(start: str = Q15_START,
                            end: str = Q15_END) -> str:
    """DuckDB oracle for :func:`run_top_supplier` (TPC-H Q15 as a CTE
    instead of the spec's CREATE VIEW)."""
    return f"""
        WITH revenue AS (
            SELECT l_suppkey AS supplier_no,
                   sum(l_extendedprice * (1 - l_discount)) AS total
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '{start}'
              AND l_shipdate < TIMESTAMP '{end}'
            GROUP BY l_suppkey)
        SELECT s_suppkey, s_name, round(total, 2) AS total_revenue
        FROM supplier, revenue
        WHERE s_suppkey = supplier_no
          AND total = (SELECT max(total) FROM revenue)
        ORDER BY s_suppkey
    """


# --------------------------------------------------------------------------
# disjunctive-predicate revenue (TPC-H Q19 shape: OR-of-conjunctions)
# --------------------------------------------------------------------------

Q19_CLAUSES = (
    ("Brand#4", 1, 5, 1.0, 11.0),
    ("Brand#2", 1, 10, 10.0, 20.0),
    ("Brand#19", 1, 15, 20.0, 30.0),
)


def run_disjunctive_revenue(sf_dir: str, clauses=Q19_CLAUSES):
    """TPC-H Q19 shape (trimmed schema): revenue over an
    OR-of-conjunctions predicate mixing part attributes (brand, size)
    with lineitem attributes (quantity) — the disjunctive join filter
    no single pushdown covers.

    Plan (the 100 TB shape): the part side FIRST filters to rows any
    clause could accept (brand ∈ clause brands AND size ≤ max size —
    ~6 % of parts here), THEN broadcasts three sorted int64 arrays
    (partkey, brand-code, size) once as a :func:`dim_table`; each
    lineitem batch resolves its partkeys by :func:`dim_lookup` and
    evaluates every clause vectorized (a boolean OR-reduction, no row
    loop), emitting a single partial revenue sum per batch.  If the filtered part side
    ever outgrew a worker heap the orderkey-colocate pattern of
    :func:`run_revenue_by_nation` applies unchanged; at TPC-H ratios
    the filtered broadcast is ~10⁻³ of the fact bytes.

    Float contract: one output row, revenue rounded to 2 dp
    (``_py_round`` == DuckDB round) after the final merge."""
    import ray

    brands = sorted({c[0] for c in clauses})
    brand_code = {b: i for i, b in enumerate(brands)}
    max_size = max(c[2] for c in clauses)

    part = _read_dim(sf_dir, "part", ["p_partkey", "p_brand", "p_size"])
    part = part[part["p_brand"].isin(brands) &
                (part["p_size"] >= min(c[1] for c in clauses)) &
                (part["p_size"] <= max_size)]
    lookup_ref = ray.put(dim_table(
        part["p_partkey"],
        part["p_brand"].map(brand_code).to_numpy(dtype=np.int64),
        part["p_size"].to_numpy(dtype=np.int64)))
    codes = [(brand_code[b], lo, hi, qlo, qhi)
             for b, lo, hi, qlo, qhi in clauses]

    def clause(batch: pa.Table) -> pa.Table:
        qty = batch["l_quantity"].to_numpy(zero_copy_only=False)
        found, pb, psz = dim_lookup(ray.get(lookup_ref), batch["l_partkey"]
                                    .to_numpy(zero_copy_only=False))
        m = np.zeros(len(batch), dtype=bool)
        for bc, lo, hi, qlo, qhi in codes:
            m |= ((pb == bc) & (psz >= lo) & (psz <= hi)
                  & (qty >= qlo) & (qty <= qhi))
        kept = batch.filter(pa.array(found & m))
        rev = pc.multiply(kept["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), kept["l_discount"]))
        s = pc.sum(rev).as_py()
        return pa.table({"k": pa.array([0], type=pa.int64()),
                         "rev": pa.array([0.0 if s is None else s],
                                         type=pa.float64())})

    partials = _read(sf_dir, "lineitem",
                     ["l_partkey", "l_quantity", "l_extendedprice",
                      "l_discount"]).map_batches(
        clause, batch_format="pyarrow", batch_size=65536)
    out = tree_combine(partials, ["k"], sums=("rev",))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({"revenue": _py_round(batch["rev"], 2)})

    return out.map_batches(finalize, batch_format="pyarrow")


def disjunctive_revenue_oracle_sql(clauses=Q19_CLAUSES) -> str:
    """DuckDB oracle for :func:`run_disjunctive_revenue` (TPC-H Q19 on
    the trimmed schema — brand/size/quantity conjunctions only)."""
    ors = " OR ".join(
        f"(p_brand = '{b}' AND p_size BETWEEN {lo} AND {hi} "
        f"AND l_quantity BETWEEN {qlo} AND {qhi})"
        for b, lo, hi, qlo, qhi in clauses)
    return f"""
        SELECT round(sum(l_extendedprice * (1 - l_discount)), 2)
                   AS revenue
        FROM lineitem, part
        WHERE p_partkey = l_partkey AND ({ors})
    """


# --------------------------------------------------------------------------
# promo revenue share (TPC-H Q14 shape: conditional-aggregate ratio)
# --------------------------------------------------------------------------

Q14_START = "1996-01-01"
Q14_END = "1996-02-01"


def run_promo_revenue(sf_dir: str, start: str = Q14_START,
                      end: str = Q14_END):
    """TPC-H Q14 shape: the percentage of one month's revenue that
    came from PROMO parts — the conditional-aggregate ratio
    (CASE-WHEN numerator over the unconditional denominator, one
    scalar out).

    Plan (the 100 TB shape): the part side reduces to ONE broadcast
    structure — a sorted partkey array plus a parallel is-promo
    bitmask (1 bit of payload per part, ~10⁻⁴ of the fact bytes);
    each lineitem batch resolves membership by :func:`dim_lookup` and
    emits a single two-sum partial row (promo revenue, total revenue),
    so the combine is a fixed-size scalar merge regardless of corpus
    size.

    Float contract: the ratio rounds to 2 dp after the final merge
    (``_py_round`` == DuckDB round); numerator and denominator are
    summed in engine-local order, the repo-wide accepted ulp
    contract."""
    import ray

    start_us = np.int64(pd.Timestamp(start).value // 1000)
    end_us = np.int64(pd.Timestamp(end).value // 1000)

    part = _read_dim(sf_dir, "part", ["p_partkey", "p_type"])
    lookup_ref = ray.put(dim_table(
        part["p_partkey"], (part["p_type"] == "PROMO").to_numpy(dtype=bool)))

    def partial(batch: pa.Table) -> pa.Table:
        sd = pc.cast(batch["l_shipdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        kept = batch.filter(pa.array((sd >= start_us) & (sd < end_us)))
        found, promo = dim_lookup(ray.get(lookup_ref), kept["l_partkey"]
                                  .to_numpy(zero_copy_only=False))
        rev = pc.multiply(
            kept["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), kept["l_discount"])
        ).to_numpy(zero_copy_only=False)
        return pa.table({
            "k": pa.array([0], type=pa.int64()),
            "promo": pa.array([float(rev[found & promo].sum())],
                              type=pa.float64()),
            "total": pa.array([float(rev[found].sum())],
                              type=pa.float64()),
        })

    partials = _read(sf_dir, "lineitem",
                     ["l_partkey", "l_shipdate", "l_extendedprice",
                      "l_discount"]).map_batches(
        partial, batch_format="pyarrow", batch_size=65536)
    out = tree_combine(partials, ["k"], sums=("promo", "total"))

    def finalize(batch: pa.Table) -> pa.Table:
        p = batch["promo"].to_numpy(zero_copy_only=False)
        t = batch["total"].to_numpy(zero_copy_only=False)
        return pa.table({"promo_revenue": _py_round(
            pa.array(100.0 * p / t, type=pa.float64()), 2)})

    return out.map_batches(finalize, batch_format="pyarrow")


def promo_revenue_oracle_sql(start: str = Q14_START,
                             end: str = Q14_END) -> str:
    """DuckDB oracle for :func:`run_promo_revenue` (TPC-H Q14; the
    trimmed schema stores the bare type word, so equality replaces the
    spec's LIKE 'PROMO%%')."""
    return f"""
        SELECT round(100.00 * sum(CASE WHEN p_type = 'PROMO'
                       THEN l_extendedprice * (1 - l_discount)
                       ELSE 0 END)
                   / sum(l_extendedprice * (1 - l_discount)), 2)
                   AS promo_revenue
        FROM lineitem, part
        WHERE l_partkey = p_partkey
          AND l_shipdate >= TIMESTAMP '{start}'
          AND l_shipdate < TIMESTAMP '{end}'
    """


# --------------------------------------------------------------------------
# volume shipping between two nations (TPC-H Q7 shape)
# --------------------------------------------------------------------------

Q7_NATION_A = "NATION_1"
Q7_NATION_B = "NATION_2"
Q7_START = "1996-01-01"
Q7_END = "1998-01-01"


def run_volume_shipping(sf_dir: str, nation_a: str = Q7_NATION_A,
                        nation_b: str = Q7_NATION_B,
                        start: str = Q7_START, end: str = Q7_END,
                        target_rows_per_group: int = 65536):
    """TPC-H Q7 shape: shipped revenue between two nations in BOTH
    directions, by (supplier nation, customer nation, ship year) —
    the bidirectional dimension-pair join.

    Plan (the 100 TB shape): supplier and customer each reduce to a
    (key → nationkey) :func:`dim_table` restricted to the two nations
    (the :func:`run_revenue_by_nation` pattern — dimension rows never
    shuffle); lineitem pre-aggregates per batch to one partial row per
    (orderkey, supp-nation, year); orders contributes (orderkey,
    cust-nation); ONE :func:`shuffle_join` on orderkey joins the
    streams and keeps only cross-nation pairs.  The
    final combine sees ≤ 2 nations × 2 nations × years rows per
    group.

    Float contract: per-(pair, year) revenue rounds to 2 dp after the
    final merge."""
    import ray

    from dude_ray.partitioning import parquet_row_groups, shuffle_join

    start_us = np.int64(pd.Timestamp(start).value // 1000)
    end_us = np.int64(pd.Timestamp(end).value // 1000)

    nat = _read_dim(sf_dir, "nation", ["n_nationkey", "n_name"])
    nat = nat[nat["n_name"].isin([nation_a, nation_b])]
    nat_names = dict(zip(nat["n_nationkey"].astype(int), nat["n_name"]))

    sup = _read_dim(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    cust = _read_dim(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    sup = sup[sup["s_nationkey"].isin(nat["n_nationkey"])]
    cust = cust[cust["c_nationkey"].isin(nat["n_nationkey"])]
    sup_ref = ray.put(dim_table(sup["s_suppkey"], sup["s_nationkey"]))
    cust_ref = ray.put(dim_table(cust["c_custkey"], cust["c_nationkey"]))

    def order_side(batch: pa.Table) -> pa.Table:
        found, cnat = dim_lookup(ray.get(cust_ref), batch["o_custkey"]
                                 .to_numpy(zero_copy_only=False))
        kept = batch.filter(pa.array(found))
        return pa.table({"okey": kept["o_orderkey"],
                         "cnat": pa.array(cnat[found], type=pa.int64())})

    def line_side(batch: pa.Table) -> pa.Table:
        sd = pc.cast(batch["l_shipdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        batch = batch.filter(pa.array((sd >= start_us) & (sd < end_us)))
        found, snat = dim_lookup(ray.get(sup_ref), batch["l_suppkey"]
                                 .to_numpy(zero_copy_only=False))
        kept = batch.filter(pa.array(found))
        year = pc.cast(pc.year(kept["l_shipdate"]), pa.int64())
        rev = pc.multiply(kept["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), kept["l_discount"]))
        return group_agg(
            pa.table({"okey": kept["l_orderkey"],
                      "snat": pa.array(snat[found], type=pa.int64()),
                      "year": year, "rev": rev}),
            ["okey", "snat", "year"], {"rev": ("rev", "sum")})

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey"]).map_batches(
        order_side, batch_format="pyarrow", batch_size=65536)
    lines = _read(sf_dir, "lineitem",
                  ["l_orderkey", "l_suppkey", "l_shipdate",
                   "l_extendedprice", "l_discount"]).map_batches(
        line_side, batch_format="pyarrow", batch_size=65536)

    n_rows = sum(n for t in ("orders", "lineitem") for _f, _rg, n in
                 parquet_row_groups(f"{sf_dir}/{t}.parquet"))

    def _cross(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t["snat"], t["cnat"]))
        return group_agg(t, ["snat", "cnat", "year"], {"rev": ("rev", "sum")})

    partials = shuffle_join(
        (orders, pa.schema([("okey", pa.int64()), ("cnat", pa.int64())])),
        (lines, pa.schema([("okey", pa.int64()), ("snat", pa.int64()),
                           ("year", pa.int64()), ("rev", pa.float64())])),
        "okey", n_rows, _cross,
        target_rows_per_group=target_rows_per_group)
    out = tree_combine(partials, ["snat", "cnat", "year"], sums=("rev",))

    def finalize(batch: pa.Table) -> pa.Table:
        sn = [nat_names[int(k)] for k in batch["snat"].to_pylist()]
        cn = [nat_names[int(k)] for k in batch["cnat"].to_pylist()]
        return pa.table({
            "supp_nation": pa.array(sn, type=pa.string()),
            "cust_nation": pa.array(cn, type=pa.string()),
            "l_year": batch["year"],
            "revenue": _py_round(batch["rev"], 2),
        })

    return _keep_columns(
        out.map_batches(finalize, batch_format="pyarrow")
        .sort(["supp_nation", "cust_nation", "l_year"]),
        pa.schema([("supp_nation", pa.string()),
                   ("cust_nation", pa.string()),
                   ("l_year", pa.int64()),
                   ("revenue", pa.float64())]))


def volume_shipping_oracle_sql(nation_a: str = Q7_NATION_A,
                               nation_b: str = Q7_NATION_B,
                               start: str = Q7_START,
                               end: str = Q7_END) -> str:
    """DuckDB oracle for :func:`run_volume_shipping` (TPC-H Q7)."""
    return f"""
        SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
               CAST(year(l_shipdate) AS BIGINT) AS l_year,
               round(sum(l_extendedprice * (1 - l_discount)), 2)
                   AS revenue
        FROM supplier, lineitem, orders, customer,
             nation n1, nation n2
        WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey
          AND c_custkey = o_custkey AND s_nationkey = n1.n_nationkey
          AND c_nationkey = n2.n_nationkey
          AND ((n1.n_name = '{nation_a}' AND n2.n_name = '{nation_b}')
               OR (n1.n_name = '{nation_b}' AND n2.n_name = '{nation_a}'))
          AND l_shipdate >= TIMESTAMP '{start}'
          AND l_shipdate < TIMESTAMP '{end}'
        GROUP BY supp_nation, cust_nation, l_year
        ORDER BY supp_nation, cust_nation, l_year
    """


# --------------------------------------------------------------------------
# audience overlap (users shared between every event-type pair)
# --------------------------------------------------------------------------

def _type_mask_hist(sf_dir: str, n_buckets: int | None = None):
    """(types, merged Dataset of (mask → n_users)) — each user's whole
    event-type history OR-folded into one int64 bitmask, counted.

    The type domain T is tiny (≤ ~20), so per-batch distinct
    (user, bit) pairs shuffle hash-bucketed on ``user_id`` (a user
    lands whole in one bucket); each bucket OR-folds masks per user
    and emits a histogram of ≤ 2^T rows; the tree merge is O(2^T) —
    a constant, independent of corpus size.  No stage ever holds the
    distinct-user set in one task.  Shared by
    :func:`run_audience_overlap` and :func:`run_type_lift`."""
    types = list(_event_type_domain(sf_dir))
    if len(types) > 24:
        raise ValueError(
            f"type-mask histogram: {len(types)} event types exceed the "
            "bitmask tier; switch pair counting to a (type_a, type_b) "
            "hash-grouped reduce over per-user sorted type lists")
    dom = pa.array(types, type=pa.string())
    if n_buckets is None:
        n_buckets = _scaled_buckets(sf_dir, "events")

    def _pairs(batch: pa.Table) -> pa.Table:
        g = batch.select(["user_id", "event_type"]).group_by(
            ["user_id", "event_type"]).aggregate([])
        idx = pc.index_in(g["event_type"], dom).to_numpy(
            zero_copy_only=False).astype(np.int64)
        return pa.table({
            "bucket": pc.cast(
                pc.bit_wise_and(g["user_id"], n_buckets - 1), pa.int64()),
            "user_id": g["user_id"],
            "mask": pa.array(np.int64(1) << idx, type=pa.int64()),
        })

    def _bucket_hist(g: pd.DataFrame) -> pd.DataFrame:
        codes, _ = pd.factorize(g["user_id"].to_numpy(), sort=False)
        masks = np.zeros(codes.max() + 1 if len(codes) else 0,
                         dtype=np.int64)
        np.bitwise_or.at(masks, codes, g["mask"].to_numpy(dtype=np.int64))
        hist = np.bincount(masks, minlength=0)
        nz = np.flatnonzero(hist)
        return pd.DataFrame({"mask": nz.astype("int64"),
                             "n": hist[nz].astype("int64")})

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    partials = ds.map_batches(_pairs, batch_format="pyarrow",
                              batch_size=65536)
    per_bucket = partials.groupby("bucket").map_groups(
        _bucket_hist, batch_format="pandas")
    return types, tree_combine(per_bucket, ["mask"], sums=("n",))


def run_audience_overlap(sf_dir: str, n_buckets: int | None = None):
    """For every unordered pair of event types, the number of distinct
    users who performed BOTH — the audience-overlap matrix behind
    retargeting / cohort analysis.

    Plan (the 100 TB shape): the per-user bitmask histogram of
    :func:`_type_mask_hist` (one shuffle of distinct pairs, constant
    merged size); the pair expansion is O(2^T·T²) on the merged
    histogram — corpus-size-independent."""
    types, merged = _type_mask_hist(sf_dir, n_buckets)

    def _expand(batch: pa.Table) -> pa.Table:
        m = batch["mask"].to_numpy(zero_copy_only=False)
        n = batch["n"].to_numpy(zero_copy_only=False)
        ta, tb, cnt = [], [], []
        order = sorted(range(len(types)), key=lambda i: types[i])
        for x, i in enumerate(order):
            for j in order[x + 1:]:
                both = int(n[((m >> i) & 1).astype(bool)
                             & ((m >> j) & 1).astype(bool)].sum())
                if both:
                    ta.append(types[i])
                    tb.append(types[j])
                    cnt.append(both)
        return pa.table({
            "type_a": pa.array(ta, type=pa.string()),
            "type_b": pa.array(tb, type=pa.string()),
            "n_users": pa.array(cnt, type=pa.int64()),
        })

    return (merged.map_batches(_expand, batch_format="pyarrow",
                               batch_size=None)
            .sort(["type_a", "type_b"]))


def audience_overlap_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_audience_overlap` (pairwise
    distinct-user self-join on the deduped (user, type) set)."""
    return """
        WITH f AS (SELECT DISTINCT user_id, event_type FROM events)
        SELECT a.event_type AS type_a, b.event_type AS type_b,
               count(*) AS n_users
        FROM f a JOIN f b
          ON a.user_id = b.user_id AND a.event_type < b.event_type
        GROUP BY type_a, type_b
        ORDER BY type_a, type_b
    """


# --------------------------------------------------------------------------
# customer spend deciles (global NTILE(10) over per-customer totals)
# --------------------------------------------------------------------------

def run_spend_deciles(sf_dir: str, tiles: int = 10,
                      target_rows_per_group: int = 65536):
    """Per-decile stats (count, min/max/sum spend) of customers ranked
    by lifetime order spend — the global NTILE(10) window.

    Plan (the 100 TB shape): per-customer totals come from ONE
    hash-grouped reduce on custkey in exact integer cents (the repo's
    half-away-from-zero contract, bit-identical to DuckDB's
    ``round(x*100)``); each reduce group then emits only its local
    (spend → count) histogram, so what reaches the merge is the
    distinct-spend-value distribution, not customers.  Tile boundaries
    and per-tile count/min/max/sum all derive from the merged
    histogram's cumulative counts — NTILE's tie-splitting never
    changes them because equal-spend rows are interchangeable.  Scale
    assumption (same as :func:`run_value_percentiles`): the distinct
    spend-value histogram fits one final block; an unbounded domain
    swaps in a mergeable KLL/t-digest with approximate tiles."""
    from dude_ray.partitioning import parquet_row_groups

    def _cents(batch: pa.Table) -> pa.Table:
        y = batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0
        cents = (np.sign(y) * np.floor(np.abs(y) + 0.5)).astype(np.int64)
        t = pa.table({"ckey": batch["o_custkey"],
                      "cents": pa.array(cents, type=pa.int64())})
        g = t.group_by(["ckey"]).aggregate([("cents", "sum")])
        return pa.table({"ckey": g["ckey"], "cents": g["cents_sum"]})

    def _hist(t: pa.Table) -> pa.Table:
        spend = group_agg(t, "ckey", {"spend_cents": ("cents", "sum")})
        return group_agg(spend, "spend_cents", {"n": ([], "count_all")})

    n_rows = sum(n for _f, _rg, n in
                 parquet_row_groups(f"{sf_dir}/orders.parquet"))
    partials = _read(sf_dir, "orders",
                     ["o_custkey", "o_totalprice"]).map_batches(
        _cents, batch_format="pyarrow", batch_size=65536)
    hist_parts = hash_grouped_reduce(
        partials, "ckey", _hist, n_rows,
        target_rows_per_group=target_rows_per_group,
        out_cols=("spend_cents", "n"))
    hist = tree_combine(hist_parts, ["spend_cents"], sums=("n",))

    def _tiles(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "v": batch["spend_cents"].to_numpy(zero_copy_only=False),
            "n": batch["n"].to_numpy(zero_copy_only=False),
        }).sort_values("v")
        v = df["v"].to_numpy(dtype=np.int64)
        n = df["n"].to_numpy(dtype=np.int64)
        cum = np.cumsum(n)                       # rows through value k
        wsum = np.cumsum(v * n)                  # spend through value k
        total = int(cum[-1]) if len(cum) else 0
        base, rem = divmod(total, tiles)
        sizes = np.full(tiles, base, dtype=np.int64)
        sizes[:rem] += 1
        hi_ranks = np.cumsum(sizes)              # 1-based tile ends
        lo_ranks = hi_ranks - sizes

        def _prefix_spend(r: int) -> int:
            # total spend of the first r rows in (spend, key) order
            if r <= 0:
                return 0
            k = int(np.searchsorted(cum, r, side="left"))
            prev_rows = int(cum[k - 1]) if k else 0
            prev_spend = int(wsum[k - 1]) if k else 0
            return prev_spend + int(v[k]) * (r - prev_rows)

        def _value_at(r: int) -> int:            # value of the r-th row
            return int(v[np.searchsorted(cum, r, side="left")])

        dec, cnts, mins, maxs, sums = [], [], [], [], []
        for d in range(tiles):
            lo, hi = int(lo_ranks[d]), int(hi_ranks[d])
            if hi <= lo:
                continue
            dec.append(d + 1)
            cnts.append(hi - lo)
            mins.append(_value_at(lo + 1) / 100.0)
            maxs.append(_value_at(hi) / 100.0)
            sums.append((_prefix_spend(hi) - _prefix_spend(lo)) / 100.0)
        return pa.table({
            "decile": pa.array(dec, type=pa.int64()),
            "n_cust": pa.array(cnts, type=pa.int64()),
            "min_spend": _py_round(pa.array(mins, type=pa.float64()), 2),
            "max_spend": _py_round(pa.array(maxs, type=pa.float64()), 2),
            "sum_spend": _py_round(pa.array(sums, type=pa.float64()), 2),
        })

    return hist.map_batches(_tiles, batch_format="pyarrow",
                            batch_size=None)


def spend_deciles_oracle_sql(tiles: int = 10) -> str:
    """DuckDB oracle for :func:`run_spend_deciles` (NTILE over exact
    integer cents; the tie order is pinned by custkey but per-tile
    stats are tie-invariant)."""
    return f"""
        WITH spend AS (
            SELECT o_custkey,
                   sum(CAST(round(o_totalprice * 100) AS BIGINT))
                       AS cents
            FROM orders GROUP BY o_custkey
        ), t AS (
            SELECT cents,
                   NTILE({tiles}) OVER (ORDER BY cents, o_custkey)
                       AS decile
            FROM spend
        )
        SELECT decile, count(*) AS n_cust,
               round(min(cents) / 100.0, 2) AS min_spend,
               round(max(cents) / 100.0, 2) AS max_spend,
               round(sum(cents) / 100.0, 2) AS sum_spend
        FROM t GROUP BY decile ORDER BY decile
    """


# --------------------------------------------------------------------------
# nation market share within a region (TPC-H Q8 shape)
# --------------------------------------------------------------------------

Q8_REGION = "AMERICA"
Q8_TYPE = "ECONOMY"
Q8_NATION = "NATION_19"
Q8_START = "1995-01-01"
Q8_END = "1997-01-01"


def run_market_share(sf_dir: str, region: str = Q8_REGION,
                     ptype: str = Q8_TYPE, nation: str = Q8_NATION,
                     start: str = Q8_START, end: str = Q8_END,
                     target_rows_per_group: int = 65536):
    """TPC-H Q8 shape: one supplier nation's share of a customer
    region's market for one part type, by order year — the
    ratio-of-conditional-sums over the widest logical join in the
    suite (part, supplier, lineitem, orders, customer, nation×2,
    region).

    Plan (the 100 TB shape): all four dimension legs collapse to
    broadcasts — a sorted partkey set (type filter), a sorted suppkey
    array with an is-target-nation bit, and a sorted custkey set
    (region semi-join; at a scale where one region's customers no
    longer broadcast, this leg becomes a :func:`shuffle_join` on
    custkey, the :func:`run_lapsed_customers` shape).
    Facts then shuffle ONCE: lineitem pre-aggregates per batch to
    (orderkey, target_vol, total_vol); orders contributes (orderkey,
    year); a :func:`shuffle_join` on orderkey joins them and re-groups
    to ≤ #years rows per group before a constant-size final merge.

    Float contract: the share rounds to 4 dp after the final merge;
    numerator/denominator sum in engine-local order (repo ulp
    contract)."""
    import ray

    from dude_ray.partitioning import parquet_row_groups, shuffle_join

    start_us = np.int64(pd.Timestamp(start).value // 1000)
    end_us = np.int64(pd.Timestamp(end).value // 1000)

    nat = _read_dim(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"])
    reg = _read_dim(sf_dir, "region", ["r_regionkey", "r_name"])
    rkeys = set(reg.loc[reg["r_name"] == region, "r_regionkey"].astype(int))
    region_nations = nat.loc[nat["n_regionkey"].astype(int).isin(rkeys),
                             "n_nationkey"].to_numpy(dtype=np.int64)
    target_nk = nat.loc[nat["n_name"] == nation,
                        "n_nationkey"].to_numpy(dtype=np.int64)

    part = _read_dim(sf_dir, "part", ["p_partkey", "p_type"])
    sup = _read_dim(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    cust = _read_dim(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    line_ref = ray.put((
        dim_table(part.loc[part["p_type"] == ptype, "p_partkey"]),
        dim_table(sup["s_suppkey"], sup["s_nationkey"].isin(target_nk))))
    order_ref = ray.put(dim_table(
        cust.loc[cust["c_nationkey"].isin(region_nations), "c_custkey"]))

    def order_side(batch: pa.Table) -> pa.Table:
        od = pc.cast(batch["o_orderdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        batch = batch.filter(pa.array((od >= start_us) & (od < end_us)))
        keep = dim_lookup(ray.get(order_ref), batch["o_custkey"]
                          .to_numpy(zero_copy_only=False))[0]
        kept = batch.filter(pa.array(keep))
        return pa.table({
            "okey": kept["o_orderkey"],
            "year": pc.cast(pc.year(kept["o_orderdate"]), pa.int64()),
        })

    def line_side(batch: pa.Table) -> pa.Table:
        parts, sups = ray.get(line_ref)
        keep = dim_lookup(parts, batch["l_partkey"]
                          .to_numpy(zero_copy_only=False))[0]
        kept = batch.filter(pa.array(keep))
        found, target = dim_lookup(sups, kept["l_suppkey"]
                                   .to_numpy(zero_copy_only=False))
        vol = pc.multiply(kept["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0),
                                      kept["l_discount"])).to_numpy(
            zero_copy_only=False)
        return group_agg(pa.table({
            "okey": kept["l_orderkey"],
            "tvol": pa.array(np.where(found & target, vol, 0.0),
                             type=pa.float64()),
            "vol": pa.array(vol, type=pa.float64())}),
            ["okey"], {"tvol": ("tvol", "sum"), "vol": ("vol", "sum")})

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        order_side, batch_format="pyarrow", batch_size=65536)
    lines = _read(sf_dir, "lineitem",
                  ["l_orderkey", "l_partkey", "l_suppkey",
                   "l_extendedprice", "l_discount"]).map_batches(
        line_side, batch_format="pyarrow", batch_size=65536)

    n_rows = sum(n for t in ("orders", "lineitem") for _f, _rg, n in
                 parquet_row_groups(f"{sf_dir}/{t}.parquet"))

    partials = shuffle_join(
        (orders, pa.schema([("okey", pa.int64()), ("year", pa.int64())])),
        (lines, pa.schema([("okey", pa.int64()), ("tvol", pa.float64()),
                           ("vol", pa.float64())])),
        "okey", n_rows,
        lambda t: group_agg(t, ["year"], {"tvol": ("tvol", "sum"),
                                          "vol": ("vol", "sum")}),
        target_rows_per_group=target_rows_per_group)
    out = tree_combine(partials, ["year"], sums=("tvol", "vol"))

    def finalize(batch: pa.Table) -> pa.Table:
        t = batch["tvol"].to_numpy(zero_copy_only=False)
        v = batch["vol"].to_numpy(zero_copy_only=False)
        return pa.table({
            "o_year": batch["year"],
            "mkt_share": _py_round(pa.array(t / v, type=pa.float64()), 4),
        })

    return (out.map_batches(finalize, batch_format="pyarrow")
            .sort("o_year"))


def market_share_oracle_sql(region: str = Q8_REGION,
                            ptype: str = Q8_TYPE,
                            nation: str = Q8_NATION,
                            start: str = Q8_START,
                            end: str = Q8_END) -> str:
    """DuckDB oracle for :func:`run_market_share` (TPC-H Q8; the
    trimmed schema stores bare type words and year() replaces
    extract)."""
    return f"""
        SELECT o_year,
               round(sum(CASE WHEN nation = '{nation}' THEN volume
                              ELSE 0 END) / sum(volume), 4) AS mkt_share
        FROM (
            SELECT CAST(year(o_orderdate) AS BIGINT) AS o_year,
                   l_extendedprice * (1 - l_discount) AS volume,
                   n2.n_name AS nation
            FROM part, supplier, lineitem, orders, customer,
                 nation n1, nation n2, region
            WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey
              AND l_orderkey = o_orderkey AND o_custkey = c_custkey
              AND c_nationkey = n1.n_nationkey
              AND n1.n_regionkey = r_regionkey
              AND r_name = '{region}'
              AND s_nationkey = n2.n_nationkey
              AND o_orderdate >= TIMESTAMP '{start}'
              AND o_orderdate < TIMESTAMP '{end}'
              AND p_type = '{ptype}'
        ) all_nations
        GROUP BY o_year
        ORDER BY o_year
    """


# --------------------------------------------------------------------------
# event-type association lift (market-basket lift over the mask histogram)
# --------------------------------------------------------------------------

def run_type_lift(sf_dir: str, n_buckets: int | None = None):
    """Association lift for every co-occurring event-type pair:
    ``lift = P(a ∧ b) / (P(a)·P(b)) = n_ab·N / (n_a·n_b)`` over
    distinct users — the market-basket association matrix.

    Plan (the 100 TB shape): everything — the pair counts n_ab, the
    marginals n_a/n_b, and the universe N — reads off the SAME merged
    (mask → n_users) histogram from :func:`_type_mask_hist`, so the
    corpus is scanned once and only constant-size state reaches the
    driver-free final task.

    Float contract: numerator ``n_ab·N`` and denominator ``n_a·n_b``
    are exact int64 products; one IEEE division produces the lift —
    bit-identical across engines, no rounding needed."""
    types, merged = _type_mask_hist(sf_dir, n_buckets)

    def _lift(batch: pa.Table) -> pa.Table:
        m = batch["mask"].to_numpy(zero_copy_only=False)
        n = batch["n"].to_numpy(zero_copy_only=False)
        total = int(n.sum())
        marg = {i: int(n[((m >> i) & 1).astype(bool)].sum())
                for i in range(len(types))}
        ta, tb, na, nb, nab, lift = [], [], [], [], [], []
        order = sorted(range(len(types)), key=lambda i: types[i])
        for x, i in enumerate(order):
            for j in order[x + 1:]:
                both = int(n[((m >> i) & 1).astype(bool)
                             & ((m >> j) & 1).astype(bool)].sum())
                if not both:
                    continue
                ta.append(types[i])
                tb.append(types[j])
                na.append(marg[i])
                nb.append(marg[j])
                nab.append(both)
                lift.append(float(both * total) / float(marg[i] * marg[j]))
        return pa.table({
            "type_a": pa.array(ta, type=pa.string()),
            "type_b": pa.array(tb, type=pa.string()),
            "n_a": pa.array(na, type=pa.int64()),
            "n_b": pa.array(nb, type=pa.int64()),
            "n_ab": pa.array(nab, type=pa.int64()),
            "lift": pa.array(lift, type=pa.float64()),
        })

    return (merged.map_batches(_lift, batch_format="pyarrow",
                               batch_size=None)
            .sort(["type_a", "type_b"]))


def type_lift_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_type_lift` (distinct-set self-join
    with marginals and universe; the lift division is one exact-int
    IEEE division on both engines)."""
    return """
        WITH f AS (SELECT DISTINCT user_id, event_type FROM events),
        tot AS (SELECT count(DISTINCT user_id) AS n FROM events),
        per AS (SELECT event_type, count(*) AS n_t FROM f GROUP BY 1),
        pr AS (
            SELECT a.event_type AS ta, b.event_type AS tb,
                   count(*) AS n_ab
            FROM f a JOIN f b
              ON a.user_id = b.user_id AND a.event_type < b.event_type
            GROUP BY ta, tb
        )
        SELECT ta AS type_a, tb AS type_b,
               p1.n_t AS n_a, p2.n_t AS n_b, n_ab,
               CAST(n_ab * tot.n AS DOUBLE) / (p1.n_t * p2.n_t) AS lift
        FROM pr, tot, per p1, per p2
        WHERE p1.event_type = ta AND p2.event_type = tb
        ORDER BY type_a, type_b
    """


# --------------------------------------------------------------------------
# RFM customer segmentation (CUME_DIST tercile scores from histograms)
# --------------------------------------------------------------------------

def run_rfm_segments(sf_dir: str, target_rows_per_group: int = 65536):
    """Classic RFM marketing segmentation: every customer scored 1–3
    on Recency (last order date), Frequency (order count) and
    Monetary (lifetime spend), reported as segment counts + spend —
    ``score = ceil(3 · CUME_DIST)`` so equal metric values always
    share a score (rank-stable, unlike NTILE's tie-splitting).

    Plan (the 100 TB shape): ONE hash reduce on custkey turns orders
    into per-customer (last_date, n_orders, cents) rows — cents via
    the repo's half-away integer contract, so every aggregate is
    order-independent.  That per-customer table (already ~1000×
    smaller than the fact stream) is materialized once and scanned
    twice: first for three mergeable value histograms (distinct dates
    / small counts / distinct spends — bounded domains, same caveat
    as :func:`run_value_percentiles`), whose cumulative counts
    broadcast as the exact CUME_DIST tables; second to score each
    customer by :func:`dim_lookup` and pre-aggregate (r,f,m) cells per
    batch.  The final merge sees ≤ 27 segment rows.

    Float contract: CUME_DIST is an exact-int division c/N on both
    engines, then one multiply-by-3 and ceil — bit-identical; spend
    rounds from exact cents at the very end."""
    import ray

    from dude_ray.partitioning import parquet_row_groups

    def _partial(batch: pa.Table) -> pa.Table:
        y = batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0
        cents = (np.sign(y) * np.floor(np.abs(y) + 0.5)).astype(np.int64)
        t = pa.table({
            "ckey": batch["o_custkey"],
            "last_us": pc.cast(batch["o_orderdate"], pa.int64()),
            "n": pa.array(np.ones(len(batch), dtype=np.int64)),
            "cents": pa.array(cents, type=pa.int64()),
        })
        g = t.group_by(["ckey"]).aggregate(
            [("last_us", "max"), ("n", "sum"), ("cents", "sum")])
        return pa.table({"ckey": g["ckey"], "last_us": g["last_us_max"],
                         "n": g["n_sum"], "cents": g["cents_sum"]})

    def _per_cust(t: pa.Table) -> pa.Table:
        return group_agg(t, "ckey", {"last_us": ("last_us", "max"),
                                     "n": ("n", "sum"),
                                     "cents": ("cents", "sum")})

    n_rows = sum(n for _f, _rg, n in
                 parquet_row_groups(f"{sf_dir}/orders.parquet"))
    partials = _read(sf_dir, "orders",
                     ["o_custkey", "o_orderdate",
                      "o_totalprice"]).map_batches(
        _partial, batch_format="pyarrow", batch_size=65536)
    per_cust = hash_grouped_reduce(
        partials, "ckey", _per_cust, n_rows,
        target_rows_per_group=target_rows_per_group,
        out_cols=("ckey", "last_us", "n", "cents")).materialize()

    METRICS = ("last_us", "n", "cents")

    def _hists(batch: pa.Table) -> pa.Table:
        mids, vals, cnts = [], [], []
        for mid, col in enumerate(METRICS):
            g = batch.select([col]).group_by([col]).aggregate(
                [([], "count_all")])
            v = g[col].to_numpy(zero_copy_only=False)
            c = g["count_all"].to_numpy(zero_copy_only=False)
            mids.append(np.full(len(v), mid, dtype=np.int64))
            vals.append(v.astype(np.int64))
            cnts.append(c.astype(np.int64))
        return pa.table({
            "mid": pa.array(np.concatenate(mids)),
            "value": pa.array(np.concatenate(vals)),
            "cnt": pa.array(np.concatenate(cnts)),
        })

    hist = tree_combine(
        per_cust.map_batches(_hists, batch_format="pyarrow",
                             batch_size=65536),
        ["mid", "value"], sums=("cnt",)).to_pandas()
    cume = []
    total = 0
    for mid in range(len(METRICS)):
        h = hist[hist["mid"] == mid].sort_values("value")
        c = np.cumsum(h["cnt"].to_numpy(dtype=np.int64))
        cume.append(dim_table(h["value"], c))
        total = int(c[-1]) if len(c) else 0
    cume_ref = ray.put(cume)

    def scorer(batch: pa.Table) -> pa.Table:
        tables = ray.get(cume_ref)

        def score(mid: int, col: str) -> pa.Array:
            # every value is in its table; le = #customers with a value ≤ it
            _, le = dim_lookup(tables[mid],
                               batch[col].to_numpy(zero_copy_only=False))
            return pa.array(np.ceil(3.0 * (le / total)).astype(np.int64))

        t = pa.table({
            "r_score": score(0, "last_us"),
            "f_score": score(1, "n"),
            "m_score": score(2, "cents"),
            "n_cust": pa.array(np.ones(len(batch), dtype=np.int64)),
            "cents": batch["cents"],
        })
        g = t.group_by(["r_score", "f_score", "m_score"]).aggregate(
            [("n_cust", "sum"), ("cents", "sum")])
        return pa.table({
            "r_score": g["r_score"], "f_score": g["f_score"],
            "m_score": g["m_score"], "n_cust": g["n_cust_sum"],
            "cents": g["cents_sum"]})

    out = tree_combine(
        per_cust.map_batches(scorer, batch_format="pyarrow",
                             batch_size=65536),
        ["r_score", "f_score", "m_score"], sums=("n_cust", "cents"))

    def finalize(batch: pa.Table) -> pa.Table:
        cents = batch["cents"].to_numpy(zero_copy_only=False)
        return pa.table({
            "r_score": batch["r_score"], "f_score": batch["f_score"],
            "m_score": batch["m_score"], "n_cust": batch["n_cust"],
            "sum_spend": _py_round(
                pa.array(cents / 100.0, type=pa.float64()), 2),
        })

    return (out.map_batches(finalize, batch_format="pyarrow")
            .sort(["r_score", "f_score", "m_score"]))


def rfm_segments_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_rfm_segments` (three CUME_DIST
    windows over the per-customer rollup; integer-cents spend)."""
    return """
        WITH per AS (
            SELECT o_custkey, max(o_orderdate) AS last_dt,
                   count(*) AS n_orders,
                   sum(CAST(round(o_totalprice * 100) AS BIGINT))
                       AS cents
            FROM orders GROUP BY o_custkey
        ), scored AS (
            SELECT CAST(ceil(3 * CUME_DIST() OVER (ORDER BY last_dt))
                        AS BIGINT) AS r_score,
                   CAST(ceil(3 * CUME_DIST() OVER (ORDER BY n_orders))
                        AS BIGINT) AS f_score,
                   CAST(ceil(3 * CUME_DIST() OVER (ORDER BY cents))
                        AS BIGINT) AS m_score,
                   cents
            FROM per
        )
        SELECT r_score, f_score, m_score, count(*) AS n_cust,
               round(sum(cents) / 100.0, 2) AS sum_spend
        FROM scored GROUP BY r_score, f_score, m_score
        ORDER BY r_score, f_score, m_score
    """


# --------------------------------------------------------------------------
# month-over-month revenue growth (LAG over a tumbling aggregate)
# --------------------------------------------------------------------------

def run_monthly_growth(sf_dir: str):
    """Monthly order revenue plus its month-over-month growth rate —
    the LAG-over-aggregate reporting shape (the window runs over the
    ALREADY-aggregated series, not the fact stream).

    Plan (the 100 TB shape): per-batch partial (month → cents, exact
    integer) rows tree-merge to ≤ #months rows; the LAG pass then
    touches a constant-size series in one task.  Growth is
    ``(cur − prev)/prev`` on exact int64 cents — one IEEE division,
    identical across engines — rounded 4 dp at the end."""

    def _partial(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch["o_orderdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        month = us.astype("datetime64[us]").astype("datetime64[M]")
        y = batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0
        cents = (np.sign(y) * np.floor(np.abs(y) + 0.5)).astype(np.int64)
        t = pa.table({
            "m": pa.array(month.astype(np.int64), type=pa.int64()),
            "cents": pa.array(cents, type=pa.int64()),
        })
        g = t.group_by(["m"]).aggregate([("cents", "sum")])
        return pa.table({"m": g["m"], "cents": g["cents_sum"]})

    merged = tree_combine(
        _read(sf_dir, "orders",
              ["o_orderdate", "o_totalprice"]).map_batches(
            _partial, batch_format="pyarrow", batch_size=65536),
        ["m"], sums=("cents",))

    def _lag(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "m": batch["m"].to_numpy(zero_copy_only=False),
            "cents": batch["cents"].to_numpy(zero_copy_only=False),
        }).sort_values("m")
        c = df["cents"].to_numpy(dtype=np.int64)
        growth = [None] + [
            float(c[i] - c[i - 1]) / float(c[i - 1])
            for i in range(1, len(c))]
        months = df["m"].to_numpy(dtype=np.int64).astype(
            "datetime64[M]").astype("datetime64[us]")
        return pa.table({
            "month": pa.array(months, type=pa.timestamp("us")),
            "revenue": _py_round(
                pa.array(c / 100.0, type=pa.float64()), 2),
            "growth": _py_round(
                pa.array(growth, type=pa.float64()), 4),
        })

    return merged.map_batches(_lag, batch_format="pyarrow",
                              batch_size=None)


def monthly_growth_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_monthly_growth` (date_trunc +
    LAG window over exact integer cents)."""
    return """
        WITH m AS (
            SELECT date_trunc('month', o_orderdate) AS month,
                   sum(CAST(round(o_totalprice * 100) AS BIGINT))
                       AS cents
            FROM orders GROUP BY month
        )
        SELECT month,
               round(cents / 100.0, 2) AS revenue,
               round((cents - LAG(cents) OVER (ORDER BY month)) * 1.0
                     / LAG(cents) OVER (ORDER BY month), 4) AS growth
        FROM m ORDER BY month
    """


# --------------------------------------------------------------------------
# user burstiness per event type (Fano factor / overdispersion)
# --------------------------------------------------------------------------

def run_user_burstiness(sf_dir: str, target_rows_per_group: int = 65536):
    """Per event type: mean, variance and Fano factor
    (variance/mean — the overdispersion index) of per-user event
    counts — the burstiness statistic that separates steady usage
    from bot/batch traffic.

    Plan (the 100 TB shape): per-batch (type, user, c) count partials
    feed ONE data-scaled hash reduce on user_id (a user's rows
    co-locate); each group emits per-type (n_users, Σc, Σc²) —
    exact int64 moment partials — so the final merge sees
    #types × #groups constant-width rows and no per-user row ever
    centralizes.

    Float contract: mean/var/fano derive from exact int64 moments via
    the SAME float64 expression tree on both engines —
    ``mean = Σc/n``, ``var = (Σc² − (Σc·1.0)·Σc/n)/(n−1)``,
    ``fano = var/mean`` — so the doubles are bit-identical with no
    rounding contract (the PMI precedent)."""

    def _partial(batch: pa.Table) -> pa.Table:
        g = batch.select(["event_type", "user_id"]).group_by(
            ["event_type", "user_id"]).aggregate([([], "count_all")])
        return pa.table({
            "user_id": g["user_id"],
            "event_type": g["event_type"],
            "c": pc.cast(g["count_all"], pa.int64()),
        })

    def _moments(t: pa.Table) -> pa.Table:
        uc = group_agg(t, ["event_type", "user_id"], {"c": ("c", "sum")})
        c = uc["c"].to_numpy()
        return group_agg(uc.append_column("c2", pa.array(c * c)),
                         "event_type", {"n_users": ([], "count_all"),
                                        "sum_c": ("c", "sum"),
                                        "sum_c2": ("c2", "sum")})

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    partials = ds.map_batches(_partial, batch_format="pyarrow",
                              batch_size=65536)
    moments = hash_grouped_reduce(
        partials, "user_id", _moments, partials.count(),
        target_rows_per_group=target_rows_per_group,
        out_cols=("event_type", "n_users", "sum_c", "sum_c2"))
    out = tree_combine(moments, ["event_type"],
                       sums=("n_users", "sum_c", "sum_c2"))

    def finalize(batch: pa.Table) -> pa.Table:
        n = batch["n_users"].to_numpy(zero_copy_only=False).astype(
            np.float64)
        sc = batch["sum_c"].to_numpy(zero_copy_only=False)
        sc2 = batch["sum_c2"].to_numpy(zero_copy_only=False)
        mean = sc / n
        var = (sc2 - (sc * 1.0) * sc / n) / (n - 1.0)
        return pa.table({
            "event_type": batch["event_type"],
            "n_users": batch["n_users"],
            "mean_events": pa.array(mean, type=pa.float64()),
            "var_events": pa.array(var, type=pa.float64()),
            "fano": pa.array(var / mean, type=pa.float64()),
        })

    return (out.map_batches(finalize, batch_format="pyarrow")
            .sort("event_type"))


def user_burstiness_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_user_burstiness` (exact int64
    moments, the same float64 expression tree as the engine — NOT
    var_samp, whose internal order differs)."""
    return """
        WITH uc AS (
            SELECT event_type, user_id, count(*) AS c
            FROM events GROUP BY event_type, user_id
        ), m AS (
            SELECT event_type, count(*) AS n,
                   CAST(sum(c) AS BIGINT) AS sum_c,
                   CAST(sum(c * c) AS BIGINT) AS sum_c2
            FROM uc GROUP BY event_type
        )
        SELECT event_type, n AS n_users,
               sum_c / CAST(n AS DOUBLE) AS mean_events,
               (sum_c2 - (sum_c * 1.0) * sum_c / CAST(n AS DOUBLE))
                   / (CAST(n AS DOUBLE) - 1.0) AS var_events,
               ((sum_c2 - (sum_c * 1.0) * sum_c / CAST(n AS DOUBLE))
                   / (CAST(n AS DOUBLE) - 1.0))
                   / (sum_c / CAST(n AS DOUBLE)) AS fano
        FROM m ORDER BY event_type
    """


# --------------------------------------------------------------------------
# revenue concentration per market segment (exact Gini coefficient)
# --------------------------------------------------------------------------

def run_revenue_gini(sf_dir: str, target_rows_per_group: int = 65536):
    """Gini coefficient of customer lifetime spend within each market
    segment — the revenue-concentration statistic ("do 1% of
    customers carry the segment?").

    Plan (the 100 TB shape): orders fold to per-customer exact cents
    and join the customer's segment in ONE :func:`shuffle_join` on
    custkey (the :func:`run_lapsed_customers` shape — neither side
    broadcasts); each reduce group emits only its local
    (segment, cents → count) histogram, so the merge holds the
    distinct-spend distribution per segment, not customers.  The Gini
    rank sum is tie-invariant (equal values swap positions without
    changing Σ rank·value), so it computes EXACTLY from the histogram:
    a value-run of count c starting at cumulative position p
    contributes value·(c·p + c(c+1)/2) — all int64.

    Float contract: ``gini = (2·S)/(n·T) − (n+1)/n`` evaluated with
    the SAME float64 expression tree on both engines (S, T, n exact
    ints converted once to double)."""
    from dude_ray.partitioning import parquet_row_groups, shuffle_join

    def order_side(batch: pa.Table) -> pa.Table:
        y = batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0
        cents = (np.sign(y) * np.floor(np.abs(y) + 0.5)).astype(np.int64)
        return group_agg(pa.table({"c_custkey": batch["o_custkey"],
                                   "cents": pa.array(cents,
                                                     type=pa.int64())}),
                         ["c_custkey"], {"cents": ("cents", "sum")})

    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_totalprice"]).map_batches(
        order_side, batch_format="pyarrow", batch_size=65536)
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    n_rows = sum(n for t in ("orders", "customer") for _f, _rg, n in
                 parquet_row_groups(f"{sf_dir}/{t}.parquet"))

    def _hist(t: pa.Table) -> pa.Table:
        spend = group_agg(t, ["c_custkey", "c_mktsegment"],
                          {"cents": ("cents", "sum")})
        return group_agg(spend, ["c_mktsegment", "cents"],
                         {"n": ("c_custkey", "count")})

    partials = shuffle_join(
        (orders, pa.schema([("c_custkey", pa.int64()),
                            ("cents", pa.int64())])),
        (cust, pa.schema([("c_custkey", pa.int64()),
                          ("c_mktsegment", pa.string())])),
        "c_custkey", n_rows, _hist,
        target_rows_per_group=target_rows_per_group)
    hist = tree_combine(partials, ["c_mktsegment", "cents"], sums=("n",))

    def _gini(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "seg": batch["c_mktsegment"].to_pylist(),
            "v": batch["cents"].to_numpy(zero_copy_only=False),
            "n": batch["n"].to_numpy(zero_copy_only=False),
        }).sort_values(["seg", "v"])
        segs, ncs, ginis = [], [], []
        for seg, grp in df.groupby("seg", sort=True):
            v = grp["v"].to_numpy(dtype=np.int64)
            c = grp["n"].to_numpy(dtype=np.int64)
            starts = np.concatenate(([0], np.cumsum(c)[:-1]))
            S = int((v * (c * starts + c * (c + 1) // 2)).sum())
            T = int((v * c).sum())
            n = int(c.sum())
            gini = ((2.0 * S) / (float(n) * float(T))
                    - (n + 1.0) / float(n))
            segs.append(seg)
            ncs.append(n)
            ginis.append(gini)
        return pa.table({
            "mktsegment": pa.array(segs, type=pa.string()),
            "n_cust": pa.array(ncs, type=pa.int64()),
            "gini": pa.array(ginis, type=pa.float64()),
        })

    return hist.map_batches(_gini, batch_format="pyarrow",
                            batch_size=None)


def revenue_gini_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_revenue_gini` — row_number rank
    sum (tie-invariant) with the same float64 expression tree."""
    return """
        WITH spend AS (
            SELECT o_custkey,
                   sum(CAST(round(o_totalprice * 100) AS BIGINT))
                       AS cents
            FROM orders GROUP BY o_custkey
        ), ranked AS (
            SELECT c.c_mktsegment AS seg, s.cents,
                   row_number() OVER (
                       PARTITION BY c.c_mktsegment
                       ORDER BY s.cents) AS rn
            FROM spend s JOIN customer c ON c.c_custkey = s.o_custkey
        )
        SELECT seg AS mktsegment, count(*) AS n_cust,
               (2.0 * CAST(sum(rn * cents) AS BIGINT))
                   / (CAST(count(*) AS DOUBLE)
                      * CAST(CAST(sum(cents) AS BIGINT) AS DOUBLE))
                   - (count(*) + 1.0) / CAST(count(*) AS DOUBLE)
                   AS gini
        FROM ranked GROUP BY seg ORDER BY mktsegment
    """


# --------------------------------------------------------------------------
# inter-arrival time stats per event type (cadence moments)
# --------------------------------------------------------------------------

def run_interarrival_stats(sf_dir: str, users_per_group: int | None = None):
    """Per event type: count, mean and variance of the time gap (in
    whole SECONDS — each timestamp truncated to seconds before
    differencing, so the squared-moment sum stays inside int64 at any
    realistic corpus; promote Σg² to a 128-bit accumulator past
    ~10¹⁸ s²·rows) since the SAME user's previous event — the cadence
    statistic behind rate limiting and engagement models.  A gap is
    attributed to the type of the LATER event.

    One :func:`user_timelines` scan, then per-type EXACT int64 moment
    partials (n, Σgap, Σgap²) into :func:`tree_combine`.

    Float contract: mean/var derive from the exact moments via the
    same float64 expression tree as :func:`run_user_burstiness`, except
    that ``Σg·Σg`` is exact: DuckDB forms ``(sum_g * 1.0) * sum_g`` as a
    DECIMAL(38,1) and casts it to double once, and past 2^53 s² (sf0.1)
    a float64 product rounds differently."""
    def _moments(c, starts):
        ts_s = c["ts_us"] // 1_000_000
        k = np.flatnonzero(_rank(starts, len(ts_s)) >= 1)
        g = ts_s[k] - ts_s[k - 1]
        return group_agg(
            pa.table({"event_type": c["event_type"][k], "g": g, "g2": g * g}),
            ["event_type"],
            {"n": ("g", "count"), "sum_g": ("g", "sum"),
             "sum_g2": ("g2", "sum")})

    partials = user_timelines(
        sf_dir, ["event_type"], _moments,
        pa.schema([("event_type", pa.string()), ("n", pa.int64()),
                   ("sum_g", pa.int64()), ("sum_g2", pa.int64())]),
        users_per_group)
    out = tree_combine(partials, ["event_type"],
                       sums=("n", "sum_g", "sum_g2"))

    def finalize(batch: pa.Table) -> pa.Table:
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        sg = batch["sum_g"].to_numpy(zero_copy_only=False)
        sg2 = batch["sum_g2"].to_numpy(zero_copy_only=False)
        # the DECIMAL's unscaled int (Σg·Σg·10) to double, then / 10
        sq = np.array([float(int(v) * int(v) * 10) for v in sg]) / 10.0
        mean = sg / n
        var = (sg2 - sq / n) / (n - 1.0)
        return pa.table({
            "event_type": batch["event_type"],
            "n_gaps": batch["n"],
            "mean_gap_s": pa.array(mean, type=pa.float64()),
            "var_gap_s": pa.array(var, type=pa.float64()),
        })

    return (out.map_batches(finalize, batch_format="pyarrow")
            .sort("event_type"))


def interarrival_stats_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_interarrival_stats` (LAG over the
    (ts, event_id)-ordered per-user timeline; exact int64 moments,
    same expression tree — not var_samp)."""
    return """
        WITH g AS (
            SELECT event_type,
                   epoch_us(ts) // 1000000
                   - LAG(epoch_us(ts) // 1000000) OVER (
                       PARTITION BY user_id
                       ORDER BY ts, event_id) AS gap
            FROM events
        ), m AS (
            SELECT event_type, count(*) AS n,
                   CAST(sum(gap) AS BIGINT) AS sum_g,
                   CAST(sum(gap * gap) AS BIGINT) AS sum_g2
            FROM g WHERE gap IS NOT NULL GROUP BY event_type
        )
        SELECT event_type, n AS n_gaps,
               sum_g / CAST(n AS DOUBLE) AS mean_gap_s,
               (sum_g2 - (sum_g * 1.0) * sum_g / CAST(n AS DOUBLE))
                   / (CAST(n AS DOUBLE) - 1.0) AS var_gap_s
        FROM m ORDER BY event_type
    """


# --------------------------------------------------------------------------
# weekday seasonality index (revenue share per ISO weekday)
# --------------------------------------------------------------------------

def run_weekday_index(sf_dir: str):
    """Order revenue by ISO weekday plus its seasonality index
    (``weekday revenue × 7 / total revenue`` — 1.0 = a flat week) —
    the day-of-week demand profile.

    Plan (the 100 TB shape): per-batch partial (isodow → n, cents)
    rows tree-merge to exactly 7 rows; the index divides exact int64
    cents at the end (``(cents·7.0)/total``, one shared expression
    tree).  ISO weekday computes vectorized from the epoch-day
    (1970-01-01 is ISO day 4)."""

    def _partial(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch["o_orderdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        days = us // 86_400_000_000
        dow = (days + 3) % 7 + 1
        y = batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0
        cents = (np.sign(y) * np.floor(np.abs(y) + 0.5)).astype(np.int64)
        t = pa.table({
            "dow": pa.array(dow.astype(np.int64), type=pa.int64()),
            "n": pa.array(np.ones(len(batch), dtype=np.int64)),
            "cents": pa.array(cents, type=pa.int64()),
        })
        g = t.group_by(["dow"]).aggregate([("n", "sum"),
                                           ("cents", "sum")])
        return pa.table({"dow": g["dow"], "n": g["n_sum"],
                         "cents": g["cents_sum"]})

    merged = tree_combine(
        _read(sf_dir, "orders",
              ["o_orderdate", "o_totalprice"]).map_batches(
            _partial, batch_format="pyarrow", batch_size=65536),
        ["dow"], sums=("n", "cents"))

    def finalize(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "dow": batch["dow"].to_numpy(zero_copy_only=False),
            "n": batch["n"].to_numpy(zero_copy_only=False),
            "cents": batch["cents"].to_numpy(zero_copy_only=False),
        }).sort_values("dow")
        total = int(df["cents"].sum())
        c = df["cents"].to_numpy(dtype=np.int64)
        return pa.table({
            "dow": pa.array(df["dow"].to_numpy(dtype=np.int64)),
            "n_orders": pa.array(df["n"].to_numpy(dtype=np.int64)),
            "revenue": _py_round(
                pa.array(c / 100.0, type=pa.float64()), 2),
            "idx": pa.array((c * 7.0) / float(total),
                            type=pa.float64()),
        })

    return merged.map_batches(finalize, batch_format="pyarrow",
                              batch_size=None)


def weekday_index_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_weekday_index` (isodow + exact
    cents; the total is a window sum over the 7-row aggregate)."""
    return """
        WITH d AS (
            SELECT CAST(isodow(o_orderdate) AS BIGINT) AS dow,
                   count(*) AS n_orders,
                   sum(CAST(round(o_totalprice * 100) AS BIGINT))
                       AS cents
            FROM orders GROUP BY dow
        )
        SELECT dow, n_orders,
               round(cents / 100.0, 2) AS revenue,
               (cents * 7.0) / CAST(sum(cents) OVER () AS DOUBLE)
                   AS idx
        FROM d ORDER BY dow
    """


# --------------------------------------------------------------------------
# forecast revenue change (TPC-H Q6 shape: filtered scalar aggregate)
# --------------------------------------------------------------------------

Q6_START = "1996-01-01"
Q6_END = "1997-01-01"
Q6_DISC_LO = 0.05
Q6_DISC_HI = 0.07
Q6_MAX_QTY = 24.0


def run_forecast_revenue(sf_dir: str, start: str = Q6_START,
                         end: str = Q6_END,
                         disc_lo: float = Q6_DISC_LO,
                         disc_hi: float = Q6_DISC_HI,
                         max_qty: float = Q6_MAX_QTY):
    """TPC-H Q6 shape: the revenue increase from eliminating a
    discount band in one year — the pure filtered scalar aggregate
    (the simplest pipeline in the suite, and the one that most
    directly measures scan + predicate throughput).

    Plan (the 100 TB shape): each batch filters on three vectorized
    predicates and emits ONE one-row partial; the combine is a
    fixed-size scalar merge.  Column pruning means only 4 of
    lineitem's 11 columns leave storage.

    Float contract: the sum rounds to 2 dp after the final merge;
    band-edge comparisons are raw double equality — identical
    literals parse to identical doubles in both engines."""
    start_us = np.int64(pd.Timestamp(start).value // 1000)
    end_us = np.int64(pd.Timestamp(end).value // 1000)

    def _partial(batch: pa.Table) -> pa.Table:
        sd = pc.cast(batch["l_shipdate"], pa.int64()).to_numpy(
            zero_copy_only=False)
        d = batch["l_discount"].to_numpy(zero_copy_only=False)
        q = batch["l_quantity"].to_numpy(zero_copy_only=False)
        keep = ((sd >= start_us) & (sd < end_us)
                & (d >= disc_lo) & (d <= disc_hi) & (q < max_qty))
        ep = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        return pa.table({
            "k": pa.array([0], type=pa.int64()),
            "rev": pa.array([float((ep[keep] * d[keep]).sum())],
                            type=pa.float64()),
        })

    merged = tree_combine(
        _read(sf_dir, "lineitem",
              ["l_shipdate", "l_discount", "l_quantity",
               "l_extendedprice"]).map_batches(
            _partial, batch_format="pyarrow", batch_size=65536),
        ["k"], sums=("rev",))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({"revenue": _py_round(batch["rev"], 2)})

    return merged.map_batches(finalize, batch_format="pyarrow")


def forecast_revenue_oracle_sql(start: str = Q6_START,
                                end: str = Q6_END,
                                disc_lo: float = Q6_DISC_LO,
                                disc_hi: float = Q6_DISC_HI,
                                max_qty: float = Q6_MAX_QTY) -> str:
    """DuckDB oracle for :func:`run_forecast_revenue` (TPC-H Q6)."""
    return f"""
        SELECT round(sum(l_extendedprice * l_discount), 2) AS revenue
        FROM lineitem
        WHERE l_shipdate >= TIMESTAMP '{start}'
          AND l_shipdate < TIMESTAMP '{end}'
          AND l_discount BETWEEN {disc_lo} AND {disc_hi}
          AND l_quantity < {max_qty}
    """


# --------------------------------------------------------------------------
# JSON props field stats (semi-structured column extraction)
# --------------------------------------------------------------------------

def run_props_field_stats(sf_dir: str, field: str = "k"):
    """Per event type: count/sum/mean/min/max of an integer field
    extracted from the semi-structured JSON ``props`` column — the
    schema-on-read shape every event pipeline hits (typed access into
    a JSON blob without a preparsed column).

    Plan (the 100 TB shape): extraction is ONE vectorized Arrow
    kernel per batch (``pc.extract_regex`` — no per-row Python, no
    JSON object allocation); rows lacking the field drop out via the
    null mask; per-batch partials carry exact int64 (n, Σ, min, max)
    and :func:`tree_combine` merges ≤ #types rows.

    Float contract: ``mean = Σ/n`` is one IEEE division of exact
    int64s.  The extraction contract is the integer-valued field
    ``{field}`` (regex and json_extract agree on every well-formed
    integer; non-integer values are out of contract)."""
    pattern = rf'"{field}":\s*(?P<v>-?\d+)'

    def _partial(batch: pa.Table) -> pa.Table:
        ex = pc.extract_regex(batch["props"], pattern)
        v = pc.struct_field(ex, "v")
        ok = pc.is_valid(v)
        t = pa.table({
            "event_type": pc.filter(batch["event_type"], ok),
            "v": pc.cast(pc.filter(v, ok), pa.int64()),
            "n": pa.array(np.ones(int(pc.sum(pc.cast(ok, pa.int64()))
                                      .as_py() or 0), dtype=np.int64)),
        })
        g = t.group_by(["event_type"]).aggregate(
            [("n", "sum"), ("v", "sum"), ("v", "min"), ("v", "max")])
        return pa.table({
            "event_type": g["event_type"], "n": g["n_sum"],
            "sum_v": g["v_sum"], "min_v": g["v_min"],
            "max_v": g["v_max"]})

    merged = tree_combine(
        _read(sf_dir, "events", ["event_type", "props"]).map_batches(
            _partial, batch_format="pyarrow", batch_size=65536),
        ["event_type"], sums=("n", "sum_v"), mins=("min_v",),
        maxs=("max_v",))

    def finalize(batch: pa.Table) -> pa.Table:
        n = batch["n"].to_numpy(zero_copy_only=False)
        s = batch["sum_v"].to_numpy(zero_copy_only=False)
        return pa.table({
            "event_type": batch["event_type"],
            "n_with_field": pc.cast(batch["n"], pa.int64()),
            "sum_v": pc.cast(batch["sum_v"], pa.int64()),
            "mean_v": pa.array(s / n.astype(np.float64),
                               type=pa.float64()),
            "min_v": pc.cast(batch["min_v"], pa.int64()),
            "max_v": pc.cast(batch["max_v"], pa.int64()),
        })

    return (merged.map_batches(finalize, batch_format="pyarrow")
            .sort("event_type"))


def props_field_stats_oracle_sql(field: str = "k") -> str:
    """DuckDB oracle for :func:`run_props_field_stats`
    (json_extract + typed cast)."""
    return f"""
        WITH x AS (
            SELECT event_type,
                   CAST(json_extract(props, '$.{field}') AS BIGINT) AS v
            FROM events
        )
        SELECT event_type, count(v) AS n_with_field,
               CAST(sum(v) AS BIGINT) AS sum_v,
               CAST(sum(v) AS BIGINT) / CAST(count(v) AS DOUBLE)
                   AS mean_v,
               min(v) AS min_v, max(v) AS max_v
        FROM x WHERE v IS NOT NULL
        GROUP BY event_type ORDER BY event_type
    """


def run_value_props_corr(sf_dir: str, field: str = "k"):
    """Per event type: Pearson correlation and OLS slope/intercept of
    ``value`` (exact integer cents) on the integer JSON field
    ``props.{field}`` — the "does this logged knob move revenue"
    regression every event pipeline runs, composed schema-on-read.

    Plan (the 100 TB shape): ONE scan; extraction is the same
    vectorized ``pc.extract_regex`` kernel as
    :func:`run_props_field_stats`; each batch emits exact int64
    moments (n, Σx, Σy, Σxy, Σx², Σy²) per type and
    :func:`tree_combine` merges ≤ #types rows — no shuffle of row
    data, no float accumulation anywhere in the distributed part.

    Float contract: the merged moments are exact integers (per-batch
    int64 sums are safe to ~10^9 rows/type at the testdata's value
    range; the final merge is widened to Python ints on ≤ #types
    rows), and BOTH engines finalize with the identical IEEE
    expression tree —
    ``r = double(nΣxy−ΣxΣy) / sqrt(double(nΣx²−Σx²)·double(nΣy²−Σy²))``,
    ``slope = double(nΣxy−ΣxΣy) / double(nΣx²−Σx²)``,
    ``intercept = (double(Σy) − slope·double(Σx)) / double(n)`` —
    so every double is bit-identical.  Money follows the
    half-away-from-zero integer-cents contract
    (:func:`run_lapsed_customers`)."""
    pattern = rf'"{field}":\s*(?P<v>-?\d+)'

    def _partial(batch: pa.Table) -> pa.Table:
        ex = pc.extract_regex(batch["props"], pattern)
        v = pc.struct_field(ex, "v")
        ok = pc.is_valid(v)
        x = pc.cast(pc.filter(v, ok), pa.int64()).to_numpy(
            zero_copy_only=False)
        y100 = pc.filter(batch["value"], ok).to_numpy(
            zero_copy_only=False).astype(np.float64) * 100.0
        y = (np.sign(y100) * np.floor(np.abs(y100) + 0.5)).astype(
            np.int64)
        t = pa.table({
            "event_type": pc.filter(batch["event_type"], ok),
            "n": pa.array(np.ones(len(x), dtype=np.int64)),
            "sx": pa.array(x), "sy": pa.array(y),
            "sxy": pa.array(x * y), "sxx": pa.array(x * x),
            "syy": pa.array(y * y),
        })
        g = t.group_by(["event_type"]).aggregate(
            [(c, "sum") for c in ("n", "sx", "sy", "sxy", "sxx",
                                  "syy")])
        return pa.table({"event_type": g["event_type"],
                         **{c: g[c + "_sum"]
                            for c in ("n", "sx", "sy", "sxy", "sxx",
                                      "syy")}})

    merged = tree_combine(
        _read(sf_dir, "events",
              ["event_type", "props", "value"]).map_batches(
            _partial, batch_format="pyarrow", batch_size=65536),
        ["event_type"], sums=("n", "sx", "sy", "sxy", "sxx", "syy"))

    def finalize(batch: pa.Table) -> pa.Table:
        rows = batch.to_pylist()
        out = {"event_type": [], "n": [], "pearson_r": [],
               "slope": [], "intercept": []}
        for r in rows:
            n, sx, sy = int(r["n"]), int(r["sx"]), int(r["sy"])
            sxy, sxx, syy = (int(r["sxy"]), int(r["sxx"]),
                             int(r["syy"]))
            cov_n = n * sxy - sx * sy          # exact Python ints
            varx_n = n * sxx - sx * sx
            vary_n = n * syy - sy * sy
            den = math.sqrt(float(varx_n) * float(vary_n))
            pr = float(cov_n) / den if den != 0.0 else None
            slope = (float(cov_n) / float(varx_n)
                     if varx_n != 0 else None)
            icpt = ((float(sy) - slope * float(sx)) / float(n)
                    if slope is not None else None)
            out["event_type"].append(r["event_type"])
            out["n"].append(n)
            out["pearson_r"].append(pr)
            out["slope"].append(slope)
            out["intercept"].append(icpt)
        return pa.table({
            "event_type": pa.array(out["event_type"],
                                   type=pa.string()),
            "n": pa.array(out["n"], type=pa.int64()),
            "pearson_r": pa.array(out["pearson_r"],
                                  type=pa.float64()),
            "slope": pa.array(out["slope"], type=pa.float64()),
            "intercept": pa.array(out["intercept"],
                                  type=pa.float64()),
        })

    return (merged.map_batches(finalize, batch_format="pyarrow")
            .sort("event_type"))


def value_props_corr_oracle_sql(field: str = "k") -> str:
    """DuckDB oracle for :func:`run_value_props_corr` — the SAME
    exact-integer moments (HUGEINT sums) finalized by the SAME IEEE
    expression tree, NOT DuckDB's streaming ``corr()``."""
    return f"""
        WITH x AS (
            SELECT event_type,
                   CAST(json_extract(props, '$.{field}') AS BIGINT)
                       AS x,
                   CAST(round(value * 100) AS BIGINT) AS y
            FROM events
        ), m AS (
            SELECT event_type, count(*) AS n,
                   sum(x) AS sx, sum(y) AS sy, sum(x*y) AS sxy,
                   sum(x*x) AS sxx, sum(y*y) AS syy
            FROM x WHERE x IS NOT NULL
            GROUP BY event_type
        )
        SELECT event_type, CAST(n AS BIGINT) AS n,
               CASE WHEN (n*sxx - sx*sx) = 0 OR (n*syy - sy*sy) = 0
                    THEN NULL
                    ELSE CAST(n*sxy - sx*sy AS DOUBLE)
                         / sqrt(CAST(n*sxx - sx*sx AS DOUBLE)
                                * CAST(n*syy - sy*sy AS DOUBLE))
               END AS pearson_r,
               CASE WHEN (n*sxx - sx*sx) = 0 THEN NULL
                    ELSE CAST(n*sxy - sx*sy AS DOUBLE)
                         / CAST(n*sxx - sx*sx AS DOUBLE)
               END AS slope,
               CASE WHEN (n*sxx - sx*sx) = 0 THEN NULL
                    ELSE (CAST(sy AS DOUBLE)
                          - (CAST(n*sxy - sx*sy AS DOUBLE)
                             / CAST(n*sxx - sx*sx AS DOUBLE))
                            * CAST(sx AS DOUBLE))
                         / CAST(n AS DOUBLE)
               END AS intercept
        FROM m ORDER BY event_type
    """


def run_waiting_suppliers(sf_dir: str, k: int = 20,
                          target_rows_per_group: int = 65536):
    """TPC-H Q21 SHAPE re-keyed to this schema: suppliers that were
    the SOLE supplier with a returned line ('R') in a finished ('F')
    multi-supplier order — the correlated EXISTS + NOT-EXISTS
    lineitem self-join, the hardest join shape in the TPC-H suite
    (the reference date columns Q21 predicates on don't exist here,
    so the flag predicate is l_returnflag, preserving the structure:
    one fact self-join, one fact semi-join, exactly-one-distinguished
    -row-per-group logic).

    Scale shape (`run_shipping_priority`'s discipline): both fact
    scans pre-aggregate per batch — lineitem collapses to one
    (orderkey, suppkey, n_r_lines) row per pair per batch, orders to
    its 'F' keys — then ONE left-semi :func:`shuffle_join` on orderkey
    keeps the lines of 'F' orders; the lone-fault test is per
    orderkey, so each group decides it exactly with three Arrow
    group-bys (no Python row loop) and emits one (suppkey, numwait)
    partial per supplier per group; a tree_combine sums them and the
    tiny final block joins the driver-broadcast supplier names.  numwait counts
    qualifying R-lines exactly as the oracle's count(*) does."""
    from dude_ray.partitioning import parquet_row_groups, shuffle_join

    def order_side(batch: pa.Table) -> pa.Table:
        kept = batch.filter(pc.equal(batch["o_orderstatus"], "F"))
        return pa.table({"okey": kept["o_orderkey"]})

    def line_side(batch: pa.Table) -> pa.Table:
        r = pc.cast(pc.equal(batch["l_returnflag"], "R"), pa.int64())
        return group_agg(pa.table({"okey": batch["l_orderkey"],
                                   "skey": batch["l_suppkey"], "r": r}),
                         ["okey", "skey"], {"nr": ("r", "sum")})

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderstatus"]).map_batches(
        order_side, batch_format="pyarrow", batch_size=65536)
    lines = _read(sf_dir, "lineitem",
                  ["l_orderkey", "l_suppkey",
                   "l_returnflag"]).map_batches(
        line_side, batch_format="pyarrow", batch_size=65536)

    n_rows = sum(n for t in ("orders", "lineitem") for _f, _rg, n in
                 parquet_row_groups(f"{sf_dir}/{t}.parquet"))

    def _lone_fault(t: pa.Table) -> pa.Table:
        pair = group_agg(t, ["okey", "skey"], {"nr": ("nr", "sum")})
        has_r = pc.greater(pair["nr"], 0)
        per_order = group_agg(
            pa.table({"okey": pair["okey"],
                      "r": pc.cast(has_r, pa.int64())}),
            ["okey"], {"n_sups": ("r", "count"), "r_sups": ("r", "sum")})
        ok = per_order.filter(pc.and_(
            pc.greater_equal(per_order["n_sups"], 2),
            pc.equal(per_order["r_sups"], 1)))["okey"]
        qual = pair.filter(pc.and_(has_r, pc.is_in(pair["okey"], ok)))
        return group_agg(qual, ["skey"], {"numwait": ("nr", "sum")})

    partials = shuffle_join(
        (lines, pa.schema([("okey", pa.int64()), ("skey", pa.int64()),
                           ("nr", pa.int64())])),
        (orders, pa.schema([("okey", pa.int64())])),
        "okey", n_rows, _lone_fault, how="left semi",
        target_rows_per_group=target_rows_per_group)
    merged = tree_combine(partials, ["skey"], sums=("numwait",))

    names = _read_dim(sf_dir, "supplier", ["s_suppkey", "s_name"])

    def finalize(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().merge(
            names, left_on="skey", right_on="s_suppkey", how="inner")
        df = (df.sort_values(["numwait", "s_suppkey"],
                             ascending=[False, True]).head(k))
        return pa.table({
            "s_suppkey": pa.array(df["s_suppkey"].to_numpy(
                dtype=np.int64)),
            "s_name": pa.array(df["s_name"], type=pa.string()),
            "numwait": pa.array(df["numwait"].to_numpy(
                dtype=np.int64)),
        })

    return merged.repartition(1).map_batches(
        finalize, batch_format="pyarrow", batch_size=None)


def waiting_suppliers_oracle_sql(k: int = 20) -> str:
    """DuckDB oracle for :func:`run_waiting_suppliers` — the literal
    correlated EXISTS / NOT-EXISTS Q21 form."""
    return f"""
        SELECT s.s_suppkey, s.s_name,
               CAST(count(*) AS BIGINT) AS numwait
        FROM supplier s, lineitem l1, orders o
        WHERE s.s_suppkey = l1.l_suppkey
          AND o.o_orderkey = l1.l_orderkey
          AND o.o_orderstatus = 'F'
          AND l1.l_returnflag = 'R'
          AND EXISTS (SELECT 1 FROM lineitem l2
                      WHERE l2.l_orderkey = l1.l_orderkey
                        AND l2.l_suppkey <> l1.l_suppkey)
          AND NOT EXISTS (SELECT 1 FROM lineitem l3
                          WHERE l3.l_orderkey = l1.l_orderkey
                            AND l3.l_suppkey <> l1.l_suppkey
                            AND l3.l_returnflag = 'R')
        GROUP BY s.s_suppkey, s.s_name
        ORDER BY numwait DESC, s.s_suppkey
        LIMIT {k}
    """


# --------------------------------------------------------------------------
# per-user behavioural entropy (event-type mix diversity)
# --------------------------------------------------------------------------

def run_user_entropy(sf_dir: str, target_rows_per_group: int = 65536):
    """Per-user Shannon entropy of the event-type distribution plus
    event/type counts — the behavioural-diversity feature that
    separates single-purpose bots (entropy ≈ 0) from organic users.

    Plan (the 100 TB shape): per-batch (user, type, c) count partials
    feed ONE data-scaled hash reduce keyed on user_id (a user's rows
    co-locate once); entropy finishes inside the group, so the output
    is one constant-width row per user and no per-event row ever
    centralizes.

    Float contract: counts are exact int64; entropy = ln(n) −
    Σ c·ln(c)/n is rounded to 6 dp with Python ``round``
    (correctly-rounded decimal == DuckDB ``round``) — the same
    cross-engine float summation-order contract as
    :func:`dude_ray.pipelines.textops.run_char_entropy`."""

    def _partial(batch: pa.Table) -> pa.Table:
        g = batch.select(["user_id", "event_type"]).group_by(
            ["user_id", "event_type"]).aggregate([([], "count_all")])
        return pa.table({
            "user_id": pc.cast(g["user_id"], pa.int64()),
            "event_type": g["event_type"],
            "c": pc.cast(g["count_all"], pa.int64()),
        })

    def _ent(t: pa.Table) -> pa.Table:
        uc = group_agg(t, ["user_id", "event_type"],
                       {"c": ("c", "sum")}).to_pandas()
        cf = uc["c"].to_numpy(dtype=np.float64)
        uc["s"] = cf * np.log(cf)
        g = (uc.groupby("user_id", sort=False)
             .agg(n_events=("c", "sum"), n_types=("c", "size"),
                  s=("s", "sum")).reset_index())
        n = g["n_events"].to_numpy(dtype=np.float64)
        ent = np.log(n) - g["s"].to_numpy(dtype=np.float64) / n
        g["entropy"] = [round(v, 6) for v in ent]
        return pa.Table.from_pandas(g.astype(
            {"n_events": "int64", "n_types": "int64"}), preserve_index=False)

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    partials = ds.map_batches(_partial, batch_format="pyarrow",
                              batch_size=65536)
    out = hash_grouped_reduce(
        partials, "user_id", _ent, partials.count(),
        target_rows_per_group=target_rows_per_group,
        out_cols=("user_id", "n_events", "n_types", "entropy"))
    return out.sort("user_id")


def user_entropy_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_user_entropy` (exact int64 counts,
    6-dp rounded entropy — the char_entropy summation contract)."""
    return """
        WITH uc AS (
            SELECT user_id, event_type, count(*) AS c
            FROM events GROUP BY 1, 2
        ), m AS (
            SELECT user_id,
                   CAST(sum(c) AS BIGINT) AS n_events,
                   CAST(count(*) AS BIGINT) AS n_types,
                   sum(c * ln(c)) AS s
            FROM uc GROUP BY 1
        )
        SELECT user_id, n_events, n_types,
               round(ln(CAST(n_events AS DOUBLE)) - s / n_events, 6)
                   AS entropy
        FROM m ORDER BY user_id
    """


# --------------------------------------------------------------------------
# session-length distribution (sessionization aggregate)
# --------------------------------------------------------------------------

def run_session_stats(sf_dir: str, users_per_group: int | None = None):
    """Distribution of session sizes: one row per session length
    (n_events) with the session count, total and mean session
    duration — the engagement histogram read off any event stream.

    The :func:`run_user_sessions` sessionization on one
    :func:`user_timelines` scan, but each bucket collapses its
    sessions to per-length partials before leaving the task, so the
    final tree_combine sees #lengths × #buckets constant-width rows.

    Float contract: counts and duration sums are exact int64
    (microsecond epochs); mean = (sum * 1.0) / n is the identical
    float64 expression tree on both engines — no rounding contract."""
    def _partial(c, starts):
        ts = c["ts_us"]
        s = _session_starts(ts, starts)
        lens = np.diff(np.r_[s, len(ts)])
        return group_agg(
            pa.table({"n_events": lens, "dur": ts[s + lens - 1] - ts[s]}),
            ["n_events"],
            {"n_sessions": ("dur", "count"), "sum_dur": ("dur", "sum")})

    partials = user_timelines(
        sf_dir, [], _partial,
        pa.schema([(n, pa.int64()) for n in (
            "n_events", "n_sessions", "sum_dur")]),
        users_per_group)
    out = tree_combine(partials, ["n_events"],
                       sums=("n_sessions", "sum_dur"))

    def finalize(batch: pa.Table) -> pa.Table:
        n = batch["n_sessions"].to_numpy(zero_copy_only=False)
        s = batch["sum_dur"].to_numpy(zero_copy_only=False)
        return pa.table({
            "n_events": batch["n_events"],
            "n_sessions": batch["n_sessions"],
            "sum_duration_us": batch["sum_dur"],
            "mean_duration_us": pa.array((s * 1.0) / n,
                                         type=pa.float64()),
        })

    return (out.map_batches(finalize, batch_format="pyarrow")
            .sort("n_events"))


def session_stats_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_session_stats` (the user_sessions
    gap contract; exact int64 duration sums, identical mean tree)."""
    return f"""
        WITH marked AS (
            SELECT user_id, event_id, epoch_us(ts) AS ts_us,
                   CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER (
                            PARTITION BY user_id
                            ORDER BY ts, event_id) > {SESSION_GAP_US}
                        THEN 1 ELSE 0 END AS new_sess
            FROM events
        ), sess AS (
            SELECT user_id, ts_us,
                   SUM(new_sess) OVER (
                       PARTITION BY user_id
                       ORDER BY ts_us, event_id
                       ROWS UNBOUNDED PRECEDING) AS sid
            FROM marked
        ), s2 AS (
            SELECT user_id, sid, count(*) AS n_events,
                   CAST(max(ts_us) - min(ts_us) AS BIGINT) AS dur
            FROM sess GROUP BY user_id, sid
        )
        SELECT CAST(n_events AS BIGINT) AS n_events,
               CAST(count(*) AS BIGINT) AS n_sessions,
               CAST(sum(dur) AS BIGINT) AS sum_duration_us,
               (sum(dur) * 1.0) / count(*) AS mean_duration_us
        FROM s2 GROUP BY n_events ORDER BY n_events
    """


# --------------------------------------------------------------------------
# lag-1 autocorrelation of the per-type daily revenue series
# --------------------------------------------------------------------------

def run_value_autocorr(sf_dir: str):
    """Per event type: lag-1 Pearson autocorrelation of the daily
    value series (consecutive PRESENT days in day order — the LAG
    contract) — the momentum/mean-reversion diagnostic read off any
    metric stream before forecasting it.

    Plan (the 100 TB shape): per-batch (type, day, cents) partials
    tree-merge to the #types × #days aggregate (calendar-bounded —
    thousands of rows at ANY corpus size, so the one-block finalize is
    scale-safe by construction, not by luck).  The pair moments are
    accumulated in arbitrary-precision Python ints over that tiny
    block (cents² × days would overflow int64 at full scale; DuckDB's
    BIGINT sum promotes to HUGEINT the same way).

    Float contract: all moments are exact integers; autocorr converts
    to float64 only at the final fixed expression
    ``num / sqrt(float(A) · float(B))`` — Python ``float(int)`` and
    DuckDB's HUGEINT→DOUBLE cast both round-to-nearest, so the doubles
    are bit-identical.  Cents use the repo's half-away-from-zero
    contract (== DuckDB ``round(x*100)``)."""
    import math

    def _partial(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch["ts"], pa.int64()).to_numpy(
            zero_copy_only=False)
        days = us // 86_400_000_000
        y = batch["value"].to_numpy(zero_copy_only=False) * 100.0
        cents = (np.sign(y) * np.floor(np.abs(y) + 0.5)).astype(np.int64)
        t = pa.table({
            "event_type": batch["event_type"],
            "day": pa.array(days.astype(np.int64), type=pa.int64()),
            "cents": pa.array(cents, type=pa.int64()),
        })
        g = t.group_by(["event_type", "day"]).aggregate(
            [("cents", "sum")])
        return pa.table({"event_type": g["event_type"],
                         "day": g["day"], "cents": g["cents_sum"]})

    merged = tree_combine(
        _read(sf_dir, "events",
              ["event_type", "ts", "value"]).map_batches(
            _partial, batch_format="pyarrow", batch_size=65536),
        ["event_type", "day"], sums=("cents",))

    def finalize(batch: pa.Table) -> pa.Table:
        df = (batch.to_pandas()
              .sort_values(["event_type", "day"], kind="mergesort"))
        types, pairs, corrs = [], [], []
        for et, g in df.groupby("event_type", sort=True):
            c = [int(v) for v in g["cents"]]
            if len(c) < 2:
                continue
            prev, cur = c[:-1], c[1:]
            m = len(cur)
            sxy = sum(a * b for a, b in zip(prev, cur))
            sa, sb = sum(prev), sum(cur)
            sa2 = sum(a * a for a in prev)
            sb2 = sum(b * b for b in cur)
            va = m * sa2 - sa * sa
            vb = m * sb2 - sb * sb
            if va <= 0 or vb <= 0:
                continue
            r = float(m * sxy - sa * sb) / math.sqrt(
                float(va) * float(vb))
            types.append(et)
            pairs.append(m)
            corrs.append(r)
        return pa.table({
            "event_type": pa.array(types, type=pa.string()),
            "n_pairs": pa.array(pairs, type=pa.int64()),
            "autocorr": pa.array(corrs, type=pa.float64()),
        })

    return (merged.repartition(1)
            .map_batches(finalize, batch_format="pyarrow",
                         batch_size=None)
            .sort("event_type"))


def value_autocorr_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_value_autocorr` (LAG over the
    daily-cents aggregate; HUGEINT-exact moments, identical float64
    finalization)."""
    return """
        WITH d AS (
            SELECT event_type, date_trunc('day', ts) AS day,
                   sum(CAST(round(value * 100) AS BIGINT)) AS cents
            FROM events GROUP BY 1, 2
        ), p AS (
            SELECT event_type, cents,
                   lag(cents) OVER (PARTITION BY event_type
                                    ORDER BY day) AS prev
            FROM d
        ), m AS (
            SELECT event_type, count(*) AS m,
                   sum(prev * cents) AS sxy,
                   sum(prev) AS sa, sum(cents) AS sb,
                   sum(prev * prev) AS sa2, sum(cents * cents) AS sb2
            FROM p WHERE prev IS NOT NULL GROUP BY 1
        )
        SELECT event_type, CAST(m AS BIGINT) AS n_pairs,
               CAST(m * sxy - sa * sb AS DOUBLE)
                   / sqrt(CAST(m * sa2 - sa * sa AS DOUBLE)
                          * CAST(m * sb2 - sb * sb AS DOUBLE))
                   AS autocorr
        FROM m
        WHERE (m * sa2 - sa * sa) > 0 AND (m * sb2 - sb * sb) > 0
        ORDER BY event_type
    """


# --------------------------------------------------------------------------
# session-level event-type co-occurrence (basket pairs per session)
# --------------------------------------------------------------------------

def run_session_type_pairs(sf_dir: str,
                           users_per_group: int | None = None):
    """For every unordered event-type pair (a < b): the number of
    sessions in which both types occur — the session-granularity
    market-basket table (type_lift's sibling at user granularity).

    The :func:`run_user_sessions` sessionization on one
    :func:`user_timelines` scan; inside a bucket the distinct
    (session, type) sets fan out to at most |types|²/2 pair rows per
    session (the type domain is small by construction), pre-counted
    before leaving the task, then tree_combine merges the
    #pairs × #buckets partials.  All counts int64."""
    def _pairs(c, starts):
        ts = c["ts_us"]
        s = _session_starts(ts, starts)
        sid = np.repeat(np.arange(len(s)), np.diff(np.r_[s, len(ts)]))
        d = (pa.table({"sid": sid, "type": c["event_type"]})
             .group_by(["sid", "type"]).aggregate([]))
        m = d.join(d, "sid", left_suffix="_a", right_suffix="_b",
                   use_threads=False)
        return group_agg(m.filter(pc.less(m["type_a"], m["type_b"])),
                         ["type_a", "type_b"],
                         {"n_sessions": ("sid", "count")})

    partials = user_timelines(
        sf_dir, ["event_type"], _pairs,
        pa.schema([("type_a", pa.string()), ("type_b", pa.string()),
                   ("n_sessions", pa.int64())]),
        users_per_group)
    return (tree_combine(partials, ["type_a", "type_b"],
                         sums=("n_sessions",))
            .sort(["type_a", "type_b"]))


def session_type_pairs_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_session_type_pairs` (the
    user_sessions gap contract; DISTINCT (session, type) self-join)."""
    return f"""
        WITH marked AS (
            SELECT user_id, event_id, event_type,
                   epoch_us(ts) AS ts_us,
                   CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER (
                            PARTITION BY user_id
                            ORDER BY ts, event_id) > {SESSION_GAP_US}
                        THEN 1 ELSE 0 END AS new_sess
            FROM events
        ), sess AS (
            SELECT user_id, event_type,
                   SUM(new_sess) OVER (
                       PARTITION BY user_id
                       ORDER BY ts_us, event_id
                       ROWS UNBOUNDED PRECEDING) AS sid
            FROM marked
        ), st AS (
            SELECT DISTINCT user_id, sid, event_type FROM sess
        )
        SELECT a.event_type AS type_a, b.event_type AS type_b,
               CAST(count(*) AS BIGINT) AS n_sessions
        FROM st a JOIN st b
          ON a.user_id = b.user_id AND a.sid = b.sid
         AND a.event_type < b.event_type
        GROUP BY 1, 2 ORDER BY 1, 2
    """


# --------------------------------------------------------------------------
# hour-of-day activity clock per event type
# --------------------------------------------------------------------------

def run_hour_profile(sf_dir: str):
    """Events per (event_type, UTC hour-of-day) plus each hour's share
    of its type's traffic — the activity clock that exposes bot trains
    (flat or single-spike clocks) vs organic diurnal load.

    Plan: per-batch (type, hour → n) partials tree-merge to ≤
    |types| × 24 rows; the share divides exact int64 counts at the
    end (``(n·1.0)/total``, one shared expression tree).  Hour
    computes vectorized from the microsecond epoch."""

    def _partial(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch["ts"], pa.int64()).to_numpy(
            zero_copy_only=False)
        hour = (us // 3_600_000_000) % 24
        t = pa.table({
            "event_type": batch["event_type"],
            "hour": pa.array(hour.astype(np.int64), type=pa.int64()),
            "n": pa.array(np.ones(len(batch), dtype=np.int64)),
        })
        g = t.group_by(["event_type", "hour"]).aggregate([("n", "sum")])
        return pa.table({"event_type": g["event_type"],
                         "hour": g["hour"], "n": g["n_sum"]})

    merged = tree_combine(
        _read(sf_dir, "events", ["event_type", "ts"]).map_batches(
            _partial, batch_format="pyarrow", batch_size=65536),
        ["event_type", "hour"], sums=("n",))

    def finalize(batch: pa.Table) -> pa.Table:
        df = (batch.to_pandas()
              .sort_values(["event_type", "hour"], kind="mergesort"))
        tot = df.groupby("event_type", sort=False)["n"].transform("sum")
        n = df["n"].to_numpy(dtype=np.int64)
        return pa.table({
            "event_type": pa.array(df["event_type"], type=pa.string()),
            "hour": pa.array(df["hour"].to_numpy(dtype=np.int64)),
            "n_events": pa.array(n),
            "share": pa.array((n * 1.0) / tot.to_numpy(dtype=np.int64),
                              type=pa.float64()),
        })

    return (merged.repartition(1)
            .map_batches(finalize, batch_format="pyarrow",
                         batch_size=None)
            .sort(["event_type", "hour"]))


def hour_profile_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_hour_profile` (UTC hour from the
    microsecond epoch; exact counts, identical share tree)."""
    return """
        WITH h AS (
            SELECT event_type,
                   CAST((epoch_us(ts) // 3600000000) % 24 AS BIGINT)
                       AS hour,
                   count(*) AS n_events
            FROM events GROUP BY 1, 2
        )
        SELECT event_type, hour, CAST(n_events AS BIGINT) AS n_events,
               (n_events * 1.0)
                   / CAST(sum(n_events) OVER (PARTITION BY event_type)
                          AS BIGINT) AS share
        FROM h ORDER BY event_type, hour
    """


# --------------------------------------------------------------------------
# document-length percentiles per language
# --------------------------------------------------------------------------

def run_doclen_percentiles(sf_dir: str, ps=(0.5, 0.9, 0.99)):
    """EXACT p50/p90/p99 of document length (``n_chars``) per
    language — the length profile a curator reads before setting
    truncation/packing budgets per language slice.

    Same mergeable-histogram shape as :func:`run_value_percentiles`
    (exact because n_chars is a bounded integer domain): per-batch
    (lang, n_chars) counts, Arrow tree merge, quantiles from
    cumulative counts with the smallest-value-reaching-ceil(p·n) rank
    contract.  Also reports the exact count and int64 length sum."""

    def _hist(batch: pa.Table) -> pa.Table:
        g = batch.select(["lang", "n_chars"]).group_by(
            ["lang", "n_chars"]).aggregate([("n_chars", "count")])
        return pa.table({
            "lang": g["lang"],
            "n_chars": pc.cast(g["n_chars"], pa.int64()),
            "n": pc.cast(g["n_chars_count"], pa.int64()),
        })

    def _quantiles(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "lang": batch["lang"].to_pylist(),
            "v": batch["n_chars"].to_numpy(zero_copy_only=False),
            "n": batch["n"].to_numpy(zero_copy_only=False),
        }).sort_values(["lang", "v"])
        out = {"lang": [], "n_docs": [], "sum_chars": []}
        for p in ps:
            out[f"p{int(p * 100)}"] = []
        for lang, grp in df.groupby("lang", sort=True):
            cum = grp["n"].cumsum().to_numpy()
            vals = grp["v"].to_numpy()
            total = int(cum[-1])
            out["lang"].append(lang)
            out["n_docs"].append(total)
            out["sum_chars"].append(
                int((grp["v"].to_numpy() * grp["n"].to_numpy()).sum()))
            for p in ps:
                rank = int(np.ceil(p * total))
                out[f"p{int(p * 100)}"].append(
                    int(vals[np.searchsorted(cum, rank, side="left")]))
        cols = {"lang": pa.array(out["lang"], type=pa.string()),
                "n_docs": pa.array(out["n_docs"], type=pa.int64()),
                "sum_chars": pa.array(out["sum_chars"],
                                      type=pa.int64())}
        for p in ps:
            k = f"p{int(p * 100)}"
            cols[k] = pa.array(out[k], type=pa.int64())
        return pa.table(cols)

    from dude_ray.io import read_parquet_clean

    ds = read_parquet_clean(f"{sf_dir}/documents.parquet",
                            columns=["lang", "n_chars"])
    partials = ds.map_batches(_hist, batch_format="pyarrow",
                              batch_size=16384)
    hist = tree_combine(partials, ["lang", "n_chars"], sums=("n",))
    return hist.map_batches(_quantiles, batch_format="pyarrow",
                            batch_size=None)


def doclen_percentiles_oracle_sql(ps=(0.5, 0.9, 0.99)) -> str:
    """DuckDB oracle for :func:`run_doclen_percentiles` (row_number
    rank arithmetic — the same ceil(p·n) contract, independent of
    DuckDB's quantile builtins)."""
    cols = ",\n               ".join(
        f"max(CASE WHEN rn = CAST(ceil({p} * n) AS BIGINT) "
        f"THEN n_chars END) AS p{int(p * 100)}" for p in ps)
    return f"""
        WITH ranked AS (
            SELECT lang, n_chars,
                   row_number() OVER (PARTITION BY lang
                                      ORDER BY n_chars) AS rn,
                   count(*) OVER (PARTITION BY lang) AS n
            FROM documents
        )
        SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
               CAST(sum(n_chars) AS BIGINT) AS sum_chars,
               {cols}
        FROM ranked GROUP BY lang ORDER BY lang
    """


# --------------------------------------------------------------------------
# dau_wau — rolling 7-day distinct users (the sliding-COUNT-DISTINCT kernel)
# --------------------------------------------------------------------------

def run_dau_wau(sf_dir: str, window_days: int = 7,
                target_rows_per_group: int = 65536):
    """(day, dau, wau): daily active users and trailing-``window_days``
    active users per calendar day — the canonical engagement pair, and
    the one windowed aggregate whose state does NOT merge additively
    (distinct users across days can overlap), so the sliding window is
    materialized by FAN-OUT: each distinct (day, user) pair is
    replicated to the ≤7 window-end days it supports, deduped again,
    then counted.  Shuffle volume is ≤ 7 × |distinct (day,user)| fixed
    -width rows — never a per-day user-set merge on the driver.

    Float-free output; ``day`` is a '%Y-%m-%d' string on both engines.
    """

    ds = _read(sf_dir, "events", ["ts", "user_id"])
    n_events = ds.count()

    def to_pairs(t: pa.Table) -> pa.Table:
        d32 = pc.cast(pc.cast(t["ts"], pa.date32()), pa.int32())
        tt = pa.table({"d": pc.cast(d32, pa.int64()),
                       "user_id": t["user_id"]})
        return tt.group_by(["d", "user_id"]).aggregate([])

    def dedup(t: pa.Table) -> pa.Table:
        return group_agg(t, ["d", "user_id"])

    du = hash_grouped_reduce(
        ds.map_batches(to_pairs, batch_format="pyarrow",
                       batch_size=65536),
        ("d", "user_id"), dedup, n_events,
        target_rows_per_group=target_rows_per_group,
        out_cols=("d", "user_id")).materialize()
    n_pairs = du.count()

    def day_counts(pairs_ds, col_out: str):
        def partial(t: pa.Table) -> pa.Table:
            g = t.select(["d"]).group_by(["d"]).aggregate(
                [([], "count_all")])
            return pa.table({"d": g["d"],
                             col_out: pc.cast(g["count_all"],
                                              pa.int64())})

        return tree_combine(
            pairs_ds.map_batches(partial, batch_format="pyarrow",
                                 batch_size=65536),
            ("d",), sums=(col_out,))

    dau = day_counts(du, "dau")

    def fan_out(t: pa.Table) -> pa.Table:
        d = t["d"].to_numpy(zero_copy_only=False)
        u = t["user_id"].to_numpy(zero_copy_only=False)
        k = np.arange(window_days, dtype=np.int64)
        return pa.table({
            "d": pa.array((d[:, None] + k[None, :]).reshape(-1),
                          type=pa.int64()),
            "user_id": pa.array(np.repeat(u, window_days),
                                type=pa.int64())})

    wdu = hash_grouped_reduce(
        du.map_batches(fan_out, batch_format="pyarrow",
                       batch_size=65536),
        ("d", "user_id"), dedup, n_pairs * window_days,
        target_rows_per_group=target_rows_per_group,
        out_cols=("d", "user_id"))
    wau = day_counts(wdu, "wau").map_batches(
        lambda t: pa.table({"wd": t["d"], "wau": t["wau"]}),
        batch_format="pyarrow")

    # inner join drops fan-out days past the data's end (they have no
    # DAU row); day domain is tiny, 2 partitions suffice
    joined = dau.join(wau, "inner", 2, on=("d",), right_on=("wd",),
                      aggregator_ray_remote_args={"num_cpus": 0})

    def finalize(t: pa.Table) -> pa.Table:
        day = pc.strftime(pc.cast(pc.cast(t["d"], pa.int32()),
                                  pa.date32()), format="%Y-%m-%d")
        return pa.table({"day": day, "dau": t["dau"], "wau": t["wau"]})

    return joined.map_batches(finalize,
                              batch_format="pyarrow").sort("day")


def dau_wau_oracle_sql(window_days: int = 7) -> str:
    """DuckDB oracle for :func:`run_dau_wau`: DISTINCT (day, user)
    pairs, DAU by count, WAU by a self-join over the trailing window —
    all integers, no float contract."""
    return f"""
        WITH du AS (
            SELECT DISTINCT CAST(ts AS DATE) AS day, user_id FROM events
        ),
        dau AS (SELECT day, count(*) AS dau FROM du GROUP BY day),
        wau AS (
            SELECT d.day, count(DISTINCT u.user_id) AS wau
            FROM (SELECT DISTINCT day FROM du) d
            JOIN du u ON u.day BETWEEN d.day - {window_days - 1}
                                   AND d.day
            GROUP BY d.day
        )
        SELECT strftime(a.day, '%Y-%m-%d') AS day, a.dau, w.wau
        FROM dau a JOIN wau w ON w.day = a.day
        ORDER BY day
    """


# --------------------------------------------------------------------------
# order_backlog — interval sweep: running open-order count by day
# --------------------------------------------------------------------------

def run_order_backlog(sf_dir: str, target_rows_per_group: int = 65536):
    """(day, open_orders): how many orders are placed but not yet
    fully shipped as of each day — the classic interval-stabbing
    running count, computed as a DELTA SWEEP so no interval is ever
    expanded into its covered days: +1 at o_orderdate, −1 the day
    after the order's LAST l_shipdate, per-day deltas tree-combined,
    then ONE cumulative pass over the tiny day domain.  Output rows
    are the change days only (delta ≠ 0).  Orders with no lineitem
    rows are excluded (no ship horizon — same inner-join contract as
    the oracle)."""

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
    n_li = li.count()

    def li_partial(t: pa.Table) -> pa.Table:
        tt = pa.table({
            "k": t["l_orderkey"],
            "e": pc.cast(pc.cast(t["l_shipdate"], pa.date32()),
                         pa.int32())})
        g = tt.group_by(["k"]).aggregate([("e", "max")])
        return pa.table({"k": g["k"],
                         "e": pc.cast(g["e_max"], pa.int64())})

    last = hash_grouped_reduce(
        li.map_batches(li_partial, batch_format="pyarrow",
                       batch_size=65536),
        "k", lambda t: group_agg(t, "k", {"e": ("e", "max")}), n_li,
        target_rows_per_group=target_rows_per_group,
        out_cols=("k", "e"))

    okeyed = orders.map_batches(
        lambda t: pa.table({
            "o_orderkey": t["o_orderkey"],
            "s": pc.cast(pc.cast(pc.cast(t["o_orderdate"], pa.date32()),
                                 pa.int32()), pa.int64())}),
        batch_format="pyarrow")
    iv = okeyed.join(last, "inner", 4, on=("o_orderkey",),
                     right_on=("k",),
                     aggregator_ray_remote_args={"num_cpus": 0})

    def deltas(t: pa.Table) -> pa.Table:
        s = t["s"].to_numpy(zero_copy_only=False)
        e = t["e"].to_numpy(zero_copy_only=False)
        day = np.concatenate([s, e + 1])
        d = np.concatenate([np.ones(len(s), dtype=np.int64),
                            -np.ones(len(e), dtype=np.int64)])
        tt = pa.table({"day": pa.array(day, type=pa.int64()),
                       "d": pa.array(d, type=pa.int64())})
        g = tt.group_by(["day"]).aggregate([("d", "sum")])
        return pa.table({"day": g["day"], "d": g["d_sum"]})

    agg = tree_combine(
        iv.map_batches(deltas, batch_format="pyarrow",
                       batch_size=65536),
        ("day",), sums=("d",))

    def finalize(t: pa.Table) -> pa.Table:
        order = pc.sort_indices(t["day"])
        day = t["day"].take(order).to_numpy(zero_copy_only=False)
        d = t["d"].take(order).to_numpy(zero_copy_only=False)
        keep = d != 0
        day, d = day[keep], d[keep]
        run = np.cumsum(d)
        days = pc.strftime(pc.cast(pa.array(
            day.astype(np.int32)), pa.date32()), format="%Y-%m-%d")
        return pa.table({"day": days,
                         "open_orders": pa.array(run, type=pa.int64())})

    return (agg.repartition(1)
            .map_batches(finalize, batch_format="pyarrow",
                         batch_size=None)
            .sort("day"))


def order_backlog_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_order_backlog`: the same delta
    sweep via UNION ALL + window sum — all integer arithmetic."""
    return """
        WITH last AS (
            SELECT l_orderkey AS k, CAST(max(l_shipdate) AS DATE) AS e
            FROM lineitem GROUP BY 1
        ),
        iv AS (
            SELECT CAST(o.o_orderdate AS DATE) AS s, l.e
            FROM orders o JOIN last l ON l.k = o.o_orderkey
        ),
        delta AS (
            SELECT s AS day, 1 AS d FROM iv
            UNION ALL
            SELECT e + 1, -1 FROM iv
        ),
        agg AS (
            SELECT day, sum(d) AS d FROM delta
            GROUP BY day HAVING sum(d) <> 0
        )
        SELECT strftime(day, '%Y-%m-%d') AS day,
               CAST(sum(d) OVER (ORDER BY day) AS BIGINT) AS open_orders
        FROM agg ORDER BY day
    """


# --------------------------------------------------------------------------
# event-type × weekday mutual information (categorical dependence)
# --------------------------------------------------------------------------

def run_type_day_mi(sf_dir: str):
    """Pointwise mutual information between event type and ISO
    weekday: one row per observed (event_type, dow) cell with the
    exact count and ``pmi = ln(n_td·N / (n_t·n_d))`` — the "does this
    event type have a weekly rhythm" dependence table (the total MI
    is the n/N-weighted sum of these cells; cells with pmi ≈ 0 are
    independent of the day).

    Plan (the 100 TB shape): one scan emits per-batch (event_type,
    dow → n) partial rows — ≤ |types|·7 rows per batch regardless of
    batch size — which tree-merge to the ≤ |types|·7-row contingency
    table; the marginals n_t / n_d and universe N read off that same
    merged table in the single final task.  Nothing but fixed-size
    aggregate rows ever shuffles.

    Float contract: the pmi argument is one IEEE expression tree over
    exact int64 counts — ``(n_td·1.0·N) / (n_t·1.0·n_d)`` then
    ``ln`` — identical in numpy and DuckDB; rounded to 6 dp
    (``_py_round`` == DuckDB ``round``).  The int→double products
    stay exact below 2^53 events per cell product — true to ~10^15
    rows per marginal, documented headroom for the test scales."""

    def _partial(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch["ts"], pa.int64()).to_numpy(
            zero_copy_only=False)
        days = us // 86_400_000_000
        dow = (days + 3) % 7 + 1  # 1970-01-01 is ISO day 4
        t = pa.table({
            "event_type": batch["event_type"],
            "dow": pa.array(dow.astype(np.int64), type=pa.int64()),
            "n": pa.array(np.ones(len(batch), dtype=np.int64)),
        })
        g = t.group_by(["event_type", "dow"]).aggregate([("n", "sum")])
        return pa.table({"event_type": g["event_type"],
                         "dow": g["dow"], "n": g["n_sum"]})

    merged = tree_combine(
        _read(sf_dir, "events", ["ts", "event_type"]).map_batches(
            _partial, batch_format="pyarrow", batch_size=65536),
        ["event_type", "dow"], sums=("n",))

    def finalize(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "event_type": batch["event_type"].to_pandas(),
            "dow": batch["dow"].to_numpy(zero_copy_only=False),
            "n": batch["n"].to_numpy(zero_copy_only=False),
        }).sort_values(["event_type", "dow"])
        total = float(df["n"].sum())
        n_t = df.groupby("event_type")["n"].transform("sum").to_numpy(
            dtype=np.float64)
        n_d = df.groupby("dow")["n"].transform("sum").to_numpy(
            dtype=np.float64)
        n = df["n"].to_numpy(dtype=np.float64)
        pmi = np.log((n * total) / (n_t * n_d))
        return pa.table({
            "event_type": pa.array(df["event_type"], type=pa.string()),
            "dow": pa.array(df["dow"].to_numpy(dtype=np.int64)),
            "n_events": pa.array(df["n"].to_numpy(dtype=np.int64)),
            "pmi": _py_round(pa.array(pmi, type=pa.float64()), 6),
        })

    return (merged.map_batches(finalize, batch_format="pyarrow",
                               batch_size=None)
            .sort(["event_type", "dow"]))


def type_day_mi_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_type_day_mi` (isodow contingency
    table with window-sum marginals; the pmi expression tree mirrors
    the pipeline's double ops exactly)."""
    return """
        WITH c AS (
            SELECT event_type, CAST(isodow(ts) AS BIGINT) AS dow,
                   count(*) AS n
            FROM events GROUP BY 1, 2
        )
        SELECT event_type, dow, n AS n_events,
               round(ln((n * 1.0 * sum(n) OVER ()) /
                        (sum(n) OVER (PARTITION BY event_type) * 1.0
                         * sum(n) OVER (PARTITION BY dow))), 6) AS pmi
        FROM c ORDER BY event_type, dow
    """


# --------------------------------------------------------------------------
# stationary distribution of the event-type Markov chain
# --------------------------------------------------------------------------

def run_stationary_types(sf_dir: str, iters: int = 8,
                         users_per_group: int | None = None):
    """Stationary distribution of the event-type Markov chain: build
    the row-stochastic transition matrix from
    :func:`run_event_transitions`'s exact counts (types with no
    outgoing transition get a uniform row — the standard dangling
    fix), then ``iters`` power-iteration steps from the uniform
    vector — "where does a user session settle" (the long-run type
    mix, PageRank's little sibling over the behavioural graph).
    Output: (event_type, stationary), Σ ≈ 1.  The type universe is
    the set of types observed in any transition.

    Plan (the 100 TB shape): all the data work is the transition
    count pipeline (one hash partition + vectorized shift); the
    |types|² matrix and the iteration loop run in ONE constant-size
    final task.

    Float contract: P cells are exact-int divisions; each iteration's
    vector is rounded to 10 dp with :func:`_vec_round` (bit-identical
    to DuckDB ``round``), so per-step reassociation drift (~1e-17
    over ≤|types| products) can never accumulate — the pagerank /
    kmeans trajectory contract."""
    trans = run_event_transitions(sf_dir, users_per_group)

    def _power(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        types = sorted(set(df["prev_type"]) | set(df["event_type"]))
        k = len(types)
        if k == 0:
            return pa.table({"event_type": pa.array([], pa.string()),
                             "stationary": pa.array([], pa.float64())})
        idx = {ty: i for i, ty in enumerate(types)}
        P = np.zeros((k, k), dtype=np.float64)
        for pt, et, n in zip(df["prev_type"], df["event_type"],
                             df["n_transitions"]):
            P[idx[pt], idx[et]] = float(n)
        rs = P.sum(axis=1)
        dangling = rs == 0.0
        P[~dangling] /= rs[~dangling, None]
        P[dangling] = 1.0 / k
        pi = _vec_round(np.full(k, 1.0 / k), 10)
        for _ in range(iters):
            pi = _vec_round(pi @ P, 10)
        return pa.table({
            "event_type": pa.array(types, type=pa.string()),
            "stationary": pa.array(pi, type=pa.float64())})

    return (trans.repartition(1)
            .map_batches(_power, batch_format="pyarrow",
                         batch_size=None)
            .sort("event_type"))


def stationary_types_oracle_sql(iters: int = 8) -> str:
    """DuckDB oracle for :func:`run_stationary_types`: the transition
    counts of :func:`event_transitions_oracle_sql` as a CTE, the
    power iteration unrolled with per-step 10-dp rounding and the
    dangling mass split out pagerank-oracle style."""
    parts = [f"""
        WITH trans AS MATERIALIZED ({event_transitions_oracle_sql()}),
        types AS MATERIALIZED (
            SELECT DISTINCT t FROM (
                SELECT prev_type AS t FROM trans
                UNION SELECT event_type FROM trans)),
        nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM types),
        rowsum AS MATERIALIZED (
            SELECT prev_type AS i, sum(n_transitions) AS rs
            FROM trans GROUP BY 1),
        p AS MATERIALIZED (
            SELECT t.prev_type AS i, t.event_type AS j,
                   (t.n_transitions * 1.0) / r.rs AS p
            FROM trans t JOIN rowsum r ON r.i = t.prev_type),
        pi0 AS (
            SELECT t, round(1.0 / (SELECT n FROM nn), 10) AS v
            FROM types),"""]
    for k in range(1, iters + 1):
        q = k - 1
        parts.append(f"""
        c{k} AS (
            SELECT p.j AS t, sum(q.v * p.p) AS s
            FROM p JOIN pi{q} q ON q.t = p.i GROUP BY p.j),
        d{k} AS (
            SELECT coalesce(sum(v), 0) AS dm FROM pi{q}
            WHERE t NOT IN (SELECT i FROM rowsum)),
        pi{k} AS (
            SELECT ty.t,
                   round(coalesce(c.s, 0)
                         + (SELECT dm FROM d{k}) / (SELECT n FROM nn),
                         10) AS v
            FROM types ty LEFT JOIN c{k} c ON c.t = ty.t),""")
    parts.append(f"""
        fin AS (SELECT t AS event_type, v AS stationary FROM pi{iters})
        SELECT event_type, stationary FROM fin ORDER BY event_type""")
    return "\n".join(parts)


# --------------------------------------------------------------------------
# k-anonymity audit over customer quasi-identifiers
# --------------------------------------------------------------------------

def run_kanon_risk(sf_dir: str, k: int = 10):
    """k-anonymity audit of the customer table under the
    (nation, market-segment) quasi-identifier: the histogram of
    equivalence-class sizes — (group_size, n_groups, n_customers,
    at_risk) with ``at_risk = group_size < k`` — the privacy gate a
    release pipeline runs before publishing joinable attributes
    (classes smaller than k re-identify their members).

    Plan (the 100 TB shape): per-batch (nation, segment → n) partial
    counts tree-merge to the ≤ |nations|·|segments| class table; the
    size histogram is computed over that constant-size table in the
    final task.  All integer arithmetic."""

    def _partial(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "nat": batch["c_nationkey"],
            "seg": batch["c_mktsegment"],
            "n": pa.array(np.ones(len(batch), dtype=np.int64)),
        })
        g = t.group_by(["nat", "seg"]).aggregate([("n", "sum")])
        return pa.table({"nat": g["nat"], "seg": g["seg"],
                         "n": g["n_sum"]})

    merged = tree_combine(
        _read(sf_dir, "customer",
              ["c_nationkey", "c_mktsegment"]).map_batches(
            _partial, batch_format="pyarrow", batch_size=65536),
        ["nat", "seg"], sums=("n",))

    def _hist(t: pa.Table) -> pa.Table:
        sizes = t["n"].to_numpy(zero_copy_only=False)
        df = (pd.Series(sizes).value_counts().rename_axis("group_size")
              .reset_index(name="n_groups").sort_values("group_size"))
        gs = df["group_size"].to_numpy(dtype=np.int64)
        ng = df["n_groups"].to_numpy(dtype=np.int64)
        return pa.table({
            "group_size": pa.array(gs),
            "n_groups": pa.array(ng),
            "n_customers": pa.array(gs * ng),
            "at_risk": pa.array(gs < k),
        })

    return merged.repartition(1).map_batches(
        _hist, batch_format="pyarrow", batch_size=None)


def kanon_risk_oracle_sql(k: int = 10) -> str:
    """DuckDB oracle for :func:`run_kanon_risk`."""
    return f"""
        WITH cls AS (
            SELECT c_nationkey, c_mktsegment, count(*) AS s
            FROM customer GROUP BY 1, 2
        )
        SELECT s AS group_size,
               CAST(count(*) AS BIGINT) AS n_groups,
               CAST(s * count(*) AS BIGINT) AS n_customers,
               s < {k} AS at_risk
        FROM cls GROUP BY s ORDER BY s
    """


def run_markov_entropy_rate(sf_dir: str, iters: int = 8,
                            users_per_group: int | None = None):
    """Entropy RATE of the event-type Markov chain:
    ``H = −Σ_i π_i Σ_j P_ij ln P_ij`` with π the stationary vector of
    :func:`run_stationary_types` and P the same row-stochastic matrix
    (dangling rows uniform) — "how many nats does the next event cost
    given the last one", with ``perplexity = exp(H)`` the effective
    branching factor of user behaviour.  One row: (n_types,
    entropy_rate, perplexity).

    Plan: the data work is the transition-count pipeline; matrix, π
    and the double sum run in one constant-size final task.  Float
    contract: π comes from the per-step-rounded trajectory (the
    :func:`run_stationary_types` contract); the entropy sum spans
    ≤ |types|² identical doubles on both engines, reassociation
    absorbed by the final 6-dp round; exp is applied to the
    already-identical double."""
    trans = run_event_transitions(sf_dir, users_per_group)

    def _entropy(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        types = sorted(set(df["prev_type"]) | set(df["event_type"]))
        k = len(types)
        if k == 0:
            return pa.table({"n_types": pa.array([], pa.int64()),
                             "entropy_rate": pa.array([], pa.float64()),
                             "perplexity": pa.array([], pa.float64())})
        idx = {ty: i for i, ty in enumerate(types)}
        P = np.zeros((k, k), dtype=np.float64)
        for pt, et, n in zip(df["prev_type"], df["event_type"],
                             df["n_transitions"]):
            P[idx[pt], idx[et]] = float(n)
        rs = P.sum(axis=1)
        dangling = rs == 0.0
        P[~dangling] /= rs[~dangling, None]
        P[dangling] = 1.0 / k
        pi = _vec_round(np.full(k, 1.0 / k), 10)
        for _ in range(iters):
            pi = _vec_round(pi @ P, 10)
        with np.errstate(divide="ignore"):
            lp = np.where(P > 0.0, np.log(np.where(P > 0.0, P, 1.0)),
                          0.0)
        h = -float((pi[:, None] * P * lp).sum())
        return pa.table({
            "n_types": pa.array([k], type=pa.int64()),
            "entropy_rate": pa.array([round(h, 6)], type=pa.float64()),
            "perplexity": pa.array([round(float(np.exp(h)), 6)],
                                   type=pa.float64())})

    return trans.repartition(1).map_batches(
        _entropy, batch_format="pyarrow", batch_size=None)


def markov_entropy_rate_oracle_sql(iters: int = 8) -> str:
    """DuckDB oracle for :func:`run_markov_entropy_rate`: the
    stationary-chain CTEs of :func:`stationary_types_oracle_sql`
    (shared trajectory) extended with the dangling-uniform P cells
    and the same −Σ π·p·ln(p) expression."""
    base = stationary_types_oracle_sql(iters)
    base = base[: base.rindex("fin AS")]
    return base + f"""
        pcell AS (
            SELECT i, j, p FROM p
            UNION ALL
            SELECT d.t AS i, ty.t AS j,
                   1.0 / (SELECT n FROM nn) AS p
            FROM (SELECT t FROM types
                  WHERE t NOT IN (SELECT i FROM rowsum)) d
            CROSS JOIN types ty)
        SELECT CAST((SELECT n FROM nn) AS BIGINT) AS n_types,
               round(-sum(q.v * c.p * ln(c.p)), 6) AS entropy_rate,
               round(exp(-sum(q.v * c.p * ln(c.p))), 6) AS perplexity
        FROM pcell c JOIN pi{iters} q ON q.t = c.i
    """


def run_funnel_latency(sf_dir: str, ps=(0.5, 0.9, 0.99),
                       users_per_group: int | None = None):
    """EXACT conversion-latency percentiles of the view→purchase
    funnel: one row (n_users, min_s, p50_s, p90_s, p99_s, max_s) over
    each converting user's first-view → first-following-purchase
    delay, COARSENED TO WHOLE SECONDS (``delay_us // 1e6``) — the SLA
    curve a growth team reads next to :func:`run_event_funnel`'s
    per-user rows.

    Plan (the 100 TB shape): the per-user delays come from the funnel
    kernel (filter-before-shuffle, one user-bucket hash partition);
    the percentile machinery is :func:`run_doclen_percentiles`'s
    mergeable value-histogram + cumulative-rank selection — exact
    because the second-grain domain is bounded by the dataset's time
    span, which is what keeps the merged histogram fixed-size no
    matter how many users convert.  All integer arithmetic; the rank
    contract is the shared ceil(p·n) smallest-value rule.  With no
    converting user the row reads n_users 0 and NULL latencies, the
    SQL aggregates over no rows."""
    funnel = run_event_funnel(sf_dir, users_per_group=users_per_group)

    def _hist(t: pa.Table) -> pa.Table:
        s = pc.cast(pc.floor(pc.divide(
            pc.cast(t["delay_us"], pa.float64()), 1e6)), pa.int64())
        tt = pa.table({"delay_s": s,
                       "n": pa.array(np.ones(len(t), dtype=np.int64))})
        g = tt.group_by(["delay_s"]).aggregate([("n", "sum")])
        return pa.table({"delay_s": g["delay_s"], "n": g["n_sum"]})

    hist = tree_combine(
        funnel.map_batches(_hist, batch_format="pyarrow",
                           batch_size=65536),
        ["delay_s"], sums=("n",))

    def _quantiles(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "v": batch["delay_s"].to_numpy(zero_copy_only=False),
            "n": batch["n"].to_numpy(zero_copy_only=False),
        }).sort_values("v")
        cum = df["n"].cumsum().to_numpy()
        vals = df["v"].to_numpy()
        total = int(cum[-1]) if len(cum) else 0

        def at_rank(rank: int) -> pa.Array:
            # no converting user: NULL, like SQL aggregates of no rows
            val = int(vals[np.searchsorted(cum, rank)]) if total else None
            return pa.array([val], type=pa.int64())

        cols = {"n_users": pa.array([total], type=pa.int64()),
                "min_s": at_rank(1)}
        for p in ps:
            cols[f"p{int(p * 100)}_s"] = at_rank(int(np.ceil(p * total)))
        cols["max_s"] = at_rank(total)
        return pa.table(cols)

    res = hist.repartition(1).map_batches(
        _quantiles, batch_format="pyarrow", batch_size=None).materialize()
    if res.count():
        return res
    # an empty funnel leaves no block for _quantiles to run on
    import ray.data

    return ray.data.from_arrow(_quantiles(pa.table({
        "delay_s": pa.array([], type=pa.int64()),
        "n": pa.array([], type=pa.int64())})))


def funnel_latency_oracle_sql(ps=(0.5, 0.9, 0.99)) -> str:
    """DuckDB oracle for :func:`run_funnel_latency`: the funnel join
    recomputed, second-grain floor, row_number rank arithmetic with
    the shared ceil(p·n) contract."""
    pcols = ",\n               ".join(
        f"max(CASE WHEN rn = CAST(ceil({p} * n) AS BIGINT) "
        f"THEN delay_s END) AS p{int(p * 100)}_s" for p in ps)
    return f"""
        WITH f AS (
            SELECT user_id, min(epoch_us(ts)) AS first_view_us
            FROM events WHERE event_type = 'view' GROUP BY user_id
        ), p AS (
            SELECT e.user_id, min(epoch_us(e.ts)) AS first_purchase_us
            FROM events e JOIN f ON e.user_id = f.user_id
            WHERE e.event_type = 'purchase'
              AND epoch_us(e.ts) >= f.first_view_us
            GROUP BY e.user_id
        ), d AS (
            SELECT CAST(floor((p.first_purchase_us - f.first_view_us)
                              / 1000000.0) AS BIGINT) AS delay_s
            FROM f JOIN p ON f.user_id = p.user_id
        ), ranked AS (
            SELECT delay_s,
                   row_number() OVER (ORDER BY delay_s) AS rn,
                   count(*) OVER () AS n
            FROM d
        )
        SELECT CAST(count(*) AS BIGINT) AS n_users,
               CAST(min(delay_s) AS BIGINT) AS min_s,
               {pcols},
               CAST(max(delay_s) AS BIGINT) AS max_s
        FROM ranked
    """


def run_basket_pairs(sf_dir: str, top_k: int = 100,
                     target_rows_per_group: int = 65536):
    """Market-basket pairs over the order lines: the ``top_k`` part
    pairs most often ordered TOGETHER (same orderkey), ranked by
    exact co-order count — the classic retail affinity table
    (:func:`run_type_lift`'s relational sibling, keyed on parts
    instead of event types).  Output: (part_a < part_b, n_orders,
    rank).

    Plan (the 100 TB shape): ONE data-scaled hash reduce keyed on
    the ORDER colocates each order's distinct parts and emits its
    PRE-COUNTED pairs (per-order line count is bounded — TPC-H ≤ 7 —
    so the d² fan-out is a constant per order, the run_cocitation
    argument); pair counts tree-merge before the bounded top-k.
    All integer counts; ties break on (part_a, part_b)."""

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    n_rows = ds.count()

    def _dd(t: pa.Table) -> pa.Table:
        return t.group_by(["l_orderkey", "l_partkey"]).aggregate([])

    def _pairs(t: pa.Table) -> pa.Table:
        outs = []
        for _ok, grp in t.to_pandas().groupby("l_orderkey", sort=False):
            parts = np.unique(grp["l_partkey"].to_numpy())
            if len(parts) < 2:
                continue
            iu, iv = np.triu_indices(len(parts), 1)
            outs.append(pd.DataFrame({
                "part_a": parts[iu], "part_b": parts[iv],
                "n": np.ones(len(iu), dtype=np.int64)}))
        if not outs:
            return pa.table({c: pa.array([], pa.int64())
                             for c in ("part_a", "part_b", "n")})
        return group_agg(pa.Table.from_pandas(pd.concat(outs),
                                              preserve_index=False),
                         ["part_a", "part_b"], {"n": ("n", "sum")})

    pair_partials = hash_grouped_reduce(
        ds.map_batches(_dd, batch_format="pyarrow", batch_size=65536),
        "l_orderkey", _pairs, n_rows, target_rows_per_group,
        out_cols=("part_a", "part_b", "n"))
    counts = tree_combine(pair_partials, ["part_a", "part_b"],
                          sums=("n",))

    def _top(t: pa.Table) -> pa.Table:
        df = (t.to_pandas()
              .sort_values(["n", "part_a", "part_b"],
                           ascending=[False, True, True])
              .head(top_k).reset_index(drop=True))
        return pa.table({
            "part_a": pa.array(df["part_a"].astype("int64")),
            "part_b": pa.array(df["part_b"].astype("int64")),
            "n_orders": pa.array(df["n"].astype("int64")),
            "rank": pa.array(np.arange(1, len(df) + 1,
                                       dtype=np.int64))})

    return counts.repartition(1).map_batches(
        _top, batch_format="pyarrow", batch_size=None)


def basket_pairs_oracle_sql(top_k: int = 100) -> str:
    """DuckDB oracle for :func:`run_basket_pairs` (distinct-line
    self-join with the identical count/tiebreak ranking)."""
    return f"""
        WITH d AS (
            SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
        ),
        pr AS (
            SELECT a.l_partkey AS part_a, b.l_partkey AS part_b,
                   count(*) AS n
            FROM d a JOIN d b
              ON a.l_orderkey = b.l_orderkey
             AND a.l_partkey < b.l_partkey
            GROUP BY 1, 2
        )
        SELECT part_a, part_b, CAST(n AS BIGINT) AS n_orders,
               CAST(row_number() OVER (
                   ORDER BY n DESC, part_a ASC, part_b ASC)
                   AS BIGINT) AS rank
        FROM pr
        QUALIFY rank <= {top_k}
        ORDER BY rank
    """
