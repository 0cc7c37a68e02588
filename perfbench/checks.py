"""Answer checkers.  Each is independent of the code under test's
output path: crawl answers are compared with the sequential oracle
(``dude_ray.oracle.sequential_crawl``) and the corpus generator's
golden ``spans`` column, query answers with DuckDB over the same
parquet files.  Every ``check_*`` returns a list of problems; an empty
list means the answer is correct.
"""

from __future__ import annotations

import hashlib
import os
import sys
from dataclasses import dataclass
from decimal import Decimal

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

QUERY_NAMES = ("revenue_by_nation", "volume_shipping", "user_top_event",
               "session_stats", "graph_pagerank", "anchor_texts")


def load_corpus(corpus_dir: str) -> pa.Table:
    """(doc_id, html, spans) of a corpus directory, sorted by doc_id."""
    t = pads.dataset(os.path.join(corpus_dir, "web"), partitioning="hive").to_table(
        columns=["doc_id", "html", "spans"])
    return t.sort_by("doc_id")


@dataclass
class CrawlOracle:
    status: dict          # url -> "ok" | "missing", in sequential visit order
    golden: pa.Table      # (doc_id, spans) of every corpus page, sorted


def crawl_oracle(corpus: pa.Table, robots: dict, seeds: list[str]) -> CrawlOracle:
    from dude_ray.oracle import sequential_crawl

    index = dict(zip(corpus["doc_id"].to_pylist(), corpus["html"].to_pylist()))
    res = sequential_crawl(index, robots, seeds)
    return CrawlOracle(status={v["url"]: v["status"] for v in res.visits},
                       golden=corpus.select(["doc_id", "spans"]))


def read_crawl_rows(out_dir: str) -> pa.Table:
    import glob

    files = sorted(glob.glob(os.path.join(out_dir, "round_*", "*.parquet")))
    if not files:
        return pa.table({"doc_id": pa.array([], pa.string())})
    return pads.dataset(files).to_table()


def _spans_problems(rows: pa.Table, golden: pa.Table, what: str) -> list[str]:
    """Spans of ``rows`` (doc_id, spans) against the golden column."""
    pos = {u: i for i, u in enumerate(golden["doc_id"].to_pylist())}
    urls = rows["doc_id"].to_pylist()
    missing = [u for u in urls if u not in pos]
    if missing:
        return [f"{what}: {len(missing)} pages not in the corpus, e.g. {missing[0]}"]
    got = rows["spans"].combine_chunks()
    want = golden["spans"].take(pa.array([pos[u] for u in urls],
                                         pa.int64())).combine_chunks()
    if got.type != want.type:
        want = want.cast(got.type)
    if got.equals(want):
        return []
    for u, g, w in zip(urls, got.to_pylist(), want.to_pylist()):
        if g != w:
            return [f"{what}: spans of {u} differ from the golden spans"]
    return [f"{what}: spans column differs from the golden spans"]


def check_crawl(rows: pa.Table, metrics: dict, oracle: CrawlOracle) -> list[str]:
    """Visit set, statuses, row count and spans."""
    problems = []
    urls = rows["doc_id"].to_pylist()
    if len(urls) != metrics["released_total"]:
        problems.append(f"rows {len(urls)} != released_total "
                        f"{metrics['released_total']}")
    if len(set(urls)) != len(urls):
        problems.append(f"{len(urls) - len(set(urls))} URLs visited twice")
    got = set(urls)
    want = set(oracle.status)
    if got != want:
        problems.append(f"visit set differs from the oracle: "
                        f"{len(want - got)} missing, {len(got - want)} extra")
        return problems
    statuses = dict(zip(urls, rows["status"].to_pylist()))
    bad = [u for u in urls if statuses[u] != oracle.status[u]]
    if bad:
        problems.append(f"{len(bad)} statuses differ from the oracle, e.g. {bad[0]}")
    ok = rows.filter(pc.equal(rows["status"], "ok"))
    problems += _spans_problems(ok.select(["doc_id", "spans"]), oracle.golden,
                                "crawl")
    return problems


def value_hash(df) -> str:
    """Order-insensitive hash of a result frame: the tools/check_oracle.py
    protocol (columns sorted by name, rows as str tuples, sorted), kept
    here so that no change outside the benchmark alters what it accepts."""
    df = df[sorted(df.columns)]
    rows = sorted(tuple(str(v) for v in row)
                  for row in df.itertuples(index=False, name=None))
    h = hashlib.sha1()
    for r in rows:
        h.update(("\x1f".join(r) + "\n").encode())
    return h.hexdigest()


# ``revenue`` in these two queries rounds a double-precision sum to cents.
# When the exact decimal sum lies exactly half-way between two cents, the
# double sum lands on either side of the half depending on summation order,
# which neither the SQL nor the engine fixes, so both neighbouring cents are
# correct answers there.  Everywhere else the comparison stays exact.
HALF_CENT_TIES = ("revenue_by_nation", "volume_shipping")
_ROUNDED_SUM = "round(sum(l_extendedprice * (1 - l_discount)), 2)"
_EXACT_SUM = ("CAST(sum(CAST(l_extendedprice AS DECIMAL(18,2))"
              " * (1 - CAST(l_discount AS DECIMAL(18,2)))) AS VARCHAR)")


@dataclass
class QueryAnswer:
    frame: object               # the DuckDB result (pandas)
    hash: str
    ties: dict                  # key tuple -> {lower cent, upper cent} at exact half-cent sums


def oracle_frames(sf_dir: str) -> dict:
    """DuckDB answers for the query mix, as pandas frames by query name,
    plus ``<name>.exact`` frames holding the unrounded decimal revenue of
    the :data:`HALF_CENT_TIES` queries."""
    import duckdb

    from dude_ray.pipelines.graph import (anchor_texts_oracle_sql,
                                          graph_pagerank_oracle_sql)
    from dude_ray.pipelines.relational import (revenue_by_nation_oracle_sql,
                                               session_stats_oracle_sql,
                                               user_top_event_oracle_sql,
                                               volume_shipping_oracle_sql)

    sql = {
        "revenue_by_nation": revenue_by_nation_oracle_sql(),
        "volume_shipping": volume_shipping_oracle_sql(),
        "user_top_event": user_top_event_oracle_sql(),
        "session_stats": session_stats_oracle_sql(),
        "graph_pagerank": graph_pagerank_oracle_sql(),
        "anchor_texts": anchor_texts_oracle_sql(sf_dir),
    }
    for name in HALF_CENT_TIES:
        if _ROUNDED_SUM not in sql[name]:
            raise ValueError(f"{name} oracle no longer computes {_ROUNDED_SUM}")
        sql[f"{name}.exact"] = sql[name].replace(_ROUNDED_SUM, _EXACT_SUM)
    con = duckdb.connect()
    try:
        for t in ("region", "nation", "customer", "supplier", "orders",
                  "lineitem", "events", "documents"):
            path = os.path.join(sf_dir, f"{t}.parquet").replace("'", "''")
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')")
        return {name: con.execute(q).df() for name, q in sql.items()}
    finally:
        con.close()


def _keyed(df, value: str) -> dict:
    keys = sorted(c for c in df.columns if c != value)
    return {tuple(str(v) for v in row[:-1]): row[-1]
            for row in df[keys + [value]].itertuples(index=False, name=None)}


def query_answers(sf_dir: str) -> dict[str, QueryAnswer]:
    frames = oracle_frames(sf_dir)
    out = {}
    for name in QUERY_NAMES:
        ties = {}
        if name in HALF_CENT_TIES:
            for key, exact in _keyed(frames[f"{name}.exact"], "revenue").items():
                cents = Decimal(exact) * 100
                if cents % 1 == Decimal("0.5"):
                    ties[key] = {float((cents - Decimal("0.5")) / 100),
                                 float((cents + Decimal("0.5")) / 100)}
        out[name] = QueryAnswer(frames[name], value_hash(frames[name]), ties)
    return out


def check_query(name: str, got_df, want: QueryAnswer) -> list[str]:
    cols = sorted(want.frame.columns)
    if sorted(got_df.columns) != cols:
        return [f"{name}: columns {sorted(got_df.columns)} != {cols}"]
    if len(got_df) != len(want.frame):
        return [f"{name}: {len(got_df)} rows != oracle {len(want.frame)}"]
    if value_hash(got_df) == want.hash:
        return []
    if want.ties:
        got, exp = _keyed(got_df, "revenue"), _keyed(want.frame, "revenue")
        if got.keys() == exp.keys() and all(
                got[k] == exp[k] or got[k] in want.ties.get(k, ()) for k in exp):
            print(f"perfbench: {name}: accepted a half-cent tie rounded the other "
                  f"way at {sorted(k for k in exp if got[k] != exp[k])}", file=sys.stderr)
            return []
    return [f"{name}: value hash differs from the DuckDB oracle"]
