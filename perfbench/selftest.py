"""Self-tests of the benchmark.

1. Each checker accepts a correct answer and rejects a corrupted one:
   a dropped visit, an altered span, a wrong query row, a query answer
   without columns where no row qualifies.  Runs without Ray
   on inputs generated under ``perfbench/work``.
2. The smoke run (``run.py --smoke``): every workload, traced, on small
   inputs, with every check.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [ROOT, HERE]

import pandas as pd  # noqa: E402
import pyarrow as pa  # noqa: E402

import checks  # noqa: E402
import datagen  # noqa: E402
from dude_ray.sources import corpus as corpus_mod  # noqa: E402

FAILURES: list[str] = []


def expect(label: str, problems: list[str], should_fail: bool) -> None:
    if bool(problems) != should_fail:
        FAILURES.append(f"{label}: expected {'rejection' if should_fail else 'acceptance'}, "
                        f"got {problems or 'no problems'}")
    else:
        print(f"ok  {label}" + (f"  ({problems[0][:90]})" if problems else ""))


def small_corpus(seed: int, n_docs: int, seed_every: int):
    """Corpus table, robots map and seeds built by the engine's own
    generator function, without Ray."""
    docs = datagen.documents_table(seed, n_docs).select(["doc_id", "text"])
    web = corpus_mod.generate_batch(docs, n_docs=n_docs, num_parts=16)
    robots = {corpus_mod.host_name(h): corpus_mod.robots_txt_for(h)
              for h in range(corpus_mod.num_hosts(n_docs))}
    seeds = [s["url"] for s in corpus_mod.seed_urls(n_docs, seed_every)]
    return web.sort_by("doc_id"), robots, seeds


def with_span_text(spans: pa.Array, row: int, text: str) -> pa.Array:
    py = spans.to_pylist()
    py[row] = [dict(py[row][0], text=text)] + py[row][1:]
    return pa.array(py, type=spans.type)


def crawl_answer(web: pa.Table, oracle: checks.CrawlOracle):
    """The rows and METRICS.json a correct crawl would write."""
    golden = dict(zip(web["doc_id"].to_pylist(), web["spans"].to_pylist()))
    urls = list(oracle.status)
    n = len(urls)
    rows = pa.table({
        "doc_id": urls,
        "status": [oracle.status[u] for u in urls],
        "spans": pa.array([golden[u] if oracle.status[u] == "ok" else [] for u in urls],
                          type=web["spans"].type),
    })
    metrics = {"released_total": n}
    return rows, metrics


def test_crawl() -> None:
    web, robots, seeds = small_corpus(5, 400, 2)
    oracle = checks.crawl_oracle(web, robots, seeds)
    rows, metrics = crawl_answer(web, oracle)
    expect("crawl: oracle answer", checks.check_crawl(rows, metrics, oracle), False)

    dropped = rows.slice(1)
    expect("crawl: one visit dropped",
           checks.check_crawl(dropped, dict(metrics, released_total=dropped.num_rows),
                              oracle), True)
    ok_row = rows["status"].to_pylist().index("ok")
    altered = rows.set_column(rows.schema.get_field_index("spans"), "spans",
                              with_span_text(rows["spans"].combine_chunks(), ok_row, "x"))
    expect("crawl: one span altered", checks.check_crawl(altered, metrics, oracle), True)


def test_query() -> None:
    d = os.path.join(HERE, "work", "selftest-star")
    try:
        datagen.write_star(d, 4, n_orders=3000, n_customers=300, n_suppliers=10,
                           n_events=2000, n_users=30, n_docs=300)
        want = checks.query_answers(d)
    finally:
        shutil.rmtree(d, ignore_errors=True)
    for name, ans in want.items():
        expect(f"query {name}: oracle answer", checks.check_query(name, ans.frame, ans), False)
    for name in ("revenue_by_nation", "user_top_event", "anchor_texts"):
        df = want[name].frame.copy()
        col = df.columns[-1]
        df.loc[0, col] = df.loc[0, col] * 2 + 1 if df[col].dtype.kind in "if" else "wrong"
        expect(f"query {name}: one row wrong", checks.check_query(name, df, want[name]), True)
    df = want["session_stats"].frame.iloc[1:]
    expect("query session_stats: one row missing",
           checks.check_query("session_stats", df, want["session_stats"]), True)

    # no qualifying row: the answer keeps its columns; the engine's
    # frame without columns in that case is wrong
    empty = want["volume_shipping"].frame.iloc[0:0]
    none = checks.QueryAnswer(empty, checks.value_hash(empty), {})
    expect("query volume_shipping: no rows, with the oracle's columns",
           checks.check_query("volume_shipping", empty, none), False)
    expect("query volume_shipping: no rows and no columns",
           checks.check_query("volume_shipping", pd.DataFrame(), none), True)

    # a revenue whose exact sum is a half-cent tie may be rounded either way;
    # one cent off anywhere else is still wrong
    ans = want["revenue_by_nation"]
    key = next(iter(checks._keyed(ans.frame, "revenue")))
    df = ans.frame.copy()
    df.loc[df["n_name"] == key[0], "revenue"] -= 0.01
    lower = round(float(df.loc[df["n_name"] == key[0], "revenue"].iloc[0]), 2)
    df.loc[df["n_name"] == key[0], "revenue"] = lower
    tie = checks.QueryAnswer(ans.frame, ans.hash, {key: {lower, round(lower + 0.01, 2)}})
    expect("query revenue_by_nation: other rounding of a half-cent tie",
           checks.check_query("revenue_by_nation", df, tie), False)
    expect("query revenue_by_nation: one cent off without a tie",
           checks.check_query("revenue_by_nation", df, ans), True)


def main() -> int:
    test_crawl()
    test_query()
    for f in FAILURES:
        print("FAIL", f)
    if FAILURES:
        return 1
    return subprocess.call([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                           cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
