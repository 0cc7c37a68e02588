"""Mimics the driver's correctness gate: run each queries() entry and
its oracle_sql() side-by-side at sf0.01 via DuckDB; compare row count,
schema (column names) and an order-insensitive value hash.  The last
line tallies Ray Data's schema warnings logged during the run.

Usage:
    python tools/check_oracle.py            # all queries
    python tools/check_oracle.py -q NAME    # one query
    SF_DIR=/root/testdata/sf0.001 python tools/check_oracle.py
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import logging
import os
import re
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import pandas as pd


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()  # ray Dataset


def value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)]
    rows = sorted(
        tuple(str(v) for v in row) for row in df.itertuples(index=False, name=None)
    )
    h = hashlib.sha1()
    for r in rows:
        h.update(("\x1f".join(r) + "\n").encode())
    return h.hexdigest()


SCHEMA_WARNINGS = {"different schema": "different schema",
                   "failed to hash": "Failed to hash the schemas"}
REPEATED = re.compile(r"\[repeated (\d+)x across cluster\]")


class WarningTally(logging.Handler):
    """Counts Ray Data's schema warnings: records of this process's
    ``ray.data`` loggers, and the worker log lines Ray prints on its
    stderr (a line Ray folded as ``[repeated Nx across cluster]``
    counts N)."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts = collections.Counter()

    def count(self, text: str) -> None:
        for line in text.splitlines():
            m = REPEATED.search(line)
            for key, needle in SCHEMA_WARNINGS.items():
                if needle in line:
                    self.counts[key] += int(m.group(1)) if m else 1

    def emit(self, record: logging.LogRecord) -> None:
        self.count(record.getMessage())


class _CountingStream:
    """``sys.stderr`` stand-in that shows each write to the tally."""

    def __init__(self, stream, tally: WarningTally):
        self.stream, self.tally = stream, tally

    def write(self, text: str) -> int:
        self.tally.count(text)
        return self.stream.write(text)

    def __getattr__(self, name):
        return getattr(self.stream, name)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("-q", "--query", default=None)
    ap.add_argument("--sf", default=os.environ.get("SF_DIR", "/root/testdata/sf0.01"))
    args = ap.parse_args()
    # scale-dependent oracles (pagerank's inlined edge list, pca's
    # inlined eigenbasis) must target the same sf the queries run at
    os.environ["GRAFT_ORACLE_SF"] = args.sf

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    tally = WarningTally()
    logging.getLogger("ray.data").addHandler(tally)
    sys.stderr = _CountingStream(sys.stderr, tally)

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem "
              "events documents embeddings").split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{args.sf}/{t}.parquet')")

    names = [args.query] if args.query else list(qs)
    failures = 0
    for name in names:
        t0 = time.time()
        try:
            got = to_pandas(qs[name](args.sf))
        except Exception as e:  # noqa: BLE001
            print(f"[FAIL] {name}: query raised {type(e).__name__}: {e}")
            failures += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"[rows-only] {name}: {len(got)} rows, cols={sorted(got.columns)} ({dt:.1f}s)")
            continue
        want = con.execute(oracles[name]).df()
        ok_rows = len(got) == len(want)
        ok_cols = sorted(got.columns) == sorted(want.columns)
        ok_hash = ok_rows and ok_cols and value_hash(got) == value_hash(want)
        status = "OK" if (ok_rows and ok_cols and ok_hash) else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"[{status}] {name}: rows {len(got)}/{len(want)} cols_match={ok_cols} "
              f"hash_match={ok_hash} ({dt:.1f}s)")
        if status == "FAIL" and ok_cols and ok_rows:
            merged_cols = sorted(got.columns)
            g = got[merged_cols].sort_values(merged_cols).reset_index(drop=True)
            w = want[merged_cols].sort_values(merged_cols).reset_index(drop=True)
            diff = (g.astype(str) != w.astype(str)).any(axis=1)
            print("  first diffs:")
            print(pd.concat([g[diff].head(3).add_suffix("_ray"),
                             w[diff].head(3).add_suffix("_sql")], axis=1).to_string())
    ray.shutdown()  # prints the worker log lines Ray still holds back
    print("schema warnings: " + ", ".join(
        f"{tally.counts[k]} {k}" for k in SCHEMA_WARNINGS))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
