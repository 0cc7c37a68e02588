"""Seeded input tables for the benchmark workloads.

Every table is a pure function of ``(seed, size)``: the same arguments
write byte-identical parquet.  The schemas are those of the
TPC-H-style star tables and ``documents`` table the engine's pipelines
read (``<sf_dir>/<table>.parquet``), so ``run_crawl``, ``run_extract``
and the ``__ray_entry__.queries()`` callables take the generated
directory as their ``sf_dir`` unchanged.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

WORDS = ("a the big small fast slow data table column row key value part "
         "hash join merge sort group filter window scan batch stream query "
         "vector spark agg line order customer").split()
EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]
REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]


def _write(out_dir: str, name: str, table: pa.Table) -> None:
    tmp = os.path.join(out_dir, f".{name}.parquet.tmp")
    pq.write_table(table, tmp)
    os.replace(tmp, os.path.join(out_dir, f"{name}.parquet"))


def _days(rng: np.random.Generator, start: str, n_days: int, n: int) -> np.ndarray:
    base = np.datetime64(start, "us")
    return base + rng.integers(0, n_days, n).astype("timedelta64[D]")


def documents_table(seed: int, n_docs: int) -> pa.Table:
    """``documents(doc_id, text, lang, source, n_chars)``: word-salad
    texts of 8 to 96 words drawn from a fixed vocabulary."""
    rng = np.random.default_rng([seed, 1])
    lens = rng.integers(8, 97, n_docs)
    words = rng.integers(0, len(WORDS), int(lens.sum()))
    ends = np.cumsum(lens)
    vocab = np.array(WORDS, dtype=object)
    texts = [" ".join(vocab[words[e - n:e]]) for n, e in zip(lens, ends)]
    return pa.table({
        "doc_id": pa.array(np.arange(n_docs, dtype=np.int64)),
        "text": pa.array(texts, type=pa.string()),
        "lang": pa.array(["en"] * n_docs, type=pa.string()),
        "source": pa.array([f"src{i}" for i in rng.integers(0, 20, n_docs)],
                           type=pa.string()),
        "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
    })


def write_documents(out_dir: str, seed: int, n_docs: int) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _write(out_dir, "documents", documents_table(seed, n_docs))


def write_star(out_dir: str, seed: int, n_orders: int, n_customers: int,
               n_suppliers: int, n_events: int, n_users: int,
               n_docs: int) -> None:
    """The tables the ``query_mix`` queries read: region, nation,
    customer, supplier, orders, lineitem (1 to 7 lines per order),
    events (one month of timestamps) and documents."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, 2])
    _write(out_dir, "region", pa.table({
        "r_regionkey": pa.array(range(5), type=pa.int32()),
        "r_name": pa.array(REGIONS, type=pa.string())}))
    _write(out_dir, "nation", pa.table({
        "n_nationkey": pa.array(range(25), type=pa.int32()),
        "n_name": pa.array([f"NATION_{i}" for i in range(25)], type=pa.string()),
        "n_regionkey": pa.array([i // 5 for i in range(25)], type=pa.int32())}))
    _write(out_dir, "customer", pa.table({
        "c_custkey": pa.array(np.arange(n_customers, dtype=np.int64)),
        "c_name": pa.array([f"Customer#{i:09d}" for i in range(n_customers)]),
        "c_nationkey": pa.array(rng.integers(0, 25, n_customers).astype(np.int32)),
        "c_acctbal": pa.array(np.round(rng.uniform(-999, 9999, n_customers), 2)),
        "c_mktsegment": pa.array(rng.choice(
            ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"],
            n_customers).tolist(), type=pa.string())}))
    _write(out_dir, "supplier", pa.table({
        "s_suppkey": pa.array(np.arange(n_suppliers, dtype=np.int64)),
        "s_name": pa.array([f"Supplier#{i:09d}" for i in range(n_suppliers)]),
        "s_nationkey": pa.array(rng.integers(0, 25, n_suppliers).astype(np.int32)),
        "s_acctbal": pa.array(np.round(rng.uniform(-999, 9999, n_suppliers), 2))}))

    odate = _days(rng, "1995-01-01", 2404, n_orders)
    _write(out_dir, "orders", pa.table({
        "o_orderkey": pa.array(np.arange(n_orders, dtype=np.int64)),
        "o_custkey": pa.array(rng.integers(0, n_customers, n_orders)),
        "o_orderstatus": pa.array(rng.choice(["F", "O", "P"], n_orders).tolist(),
                                  type=pa.string()),
        "o_totalprice": pa.array(np.round(rng.uniform(1000, 400000, n_orders), 2)),
        "o_orderdate": pa.array(odate, type=pa.timestamp("us")),
        "o_orderpriority": pa.array(rng.choice(
            ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"],
            n_orders).tolist(), type=pa.string())}))

    per_order = rng.integers(1, 8, n_orders)
    n_lines = int(per_order.sum())
    l_order = np.repeat(np.arange(n_orders, dtype=np.int64), per_order)
    starts = np.repeat(np.cumsum(per_order) - per_order, per_order)
    qty = rng.integers(1, 51, n_lines).astype(np.float64)
    unit = rng.integers(90000, 210000, n_lines) / 100.0
    _write(out_dir, "lineitem", pa.table({
        "l_orderkey": pa.array(l_order),
        "l_partkey": pa.array(rng.integers(0, 20 * n_suppliers, n_lines)),
        "l_suppkey": pa.array(rng.integers(0, n_suppliers, n_lines)),
        "l_linenumber": pa.array((np.arange(n_lines) - starts + 1).astype(np.int32)),
        "l_quantity": pa.array(qty),
        "l_extendedprice": pa.array(np.round(qty * unit, 2)),
        "l_discount": pa.array(rng.integers(0, 11, n_lines) / 100.0),
        "l_tax": pa.array(rng.integers(0, 9, n_lines) / 100.0),
        "l_returnflag": pa.array(rng.choice(["A", "N", "R"], n_lines).tolist(),
                                 type=pa.string()),
        "l_linestatus": pa.array(rng.choice(["F", "O"], n_lines).tolist(),
                                 type=pa.string()),
        "l_shipdate": pa.array(odate[l_order]
                               + rng.integers(1, 122, n_lines).astype("timedelta64[D]"),
                               type=pa.timestamp("us"))}))

    ts = np.sort(np.datetime64("2024-01-01", "us")
                 + rng.integers(0, 30 * 86_400_000_000, n_events).astype("timedelta64[us]"))
    _write(out_dir, "events", pa.table({
        "event_id": pa.array(np.arange(n_events, dtype=np.int64)),
        "ts": pa.array(ts, type=pa.timestamp("us")),
        "user_id": pa.array(rng.integers(0, n_users, n_events)),
        "event_type": pa.array(rng.choice(EVENT_TYPES, n_events).tolist(),
                               type=pa.string()),
        "value": pa.array(np.round(rng.exponential(40.0, n_events), 2)),
        "props": pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, n_events)],
                          type=pa.string())}))
    _write(out_dir, "documents", documents_table(seed, n_docs))
