"""BM25 ranking vs a single-process reference implementation."""

from __future__ import annotations

import math
import re

import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"


def _bm25_local(sf_dir: str, terms, top_n=20, k1=1.2, b=0.75):
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])
    ids = t["doc_id"].to_numpy(zero_copy_only=False)
    texts = [(x or "") for x in t["text"].to_pylist()]
    tok = re.compile(r"[A-Za-z0-9_]+")
    docs = [[w.lower() for w in tok.findall(x)] for x in texts]
    n = len(docs)
    avgdl = sum(len(d) for d in docs) / n
    scores = {}
    for term in terms:
        df = sum(1 for d in docs if term in d)
        if df == 0:
            continue
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        for i, d in enumerate(docs):
            tf = d.count(term)
            if tf:
                scores[ids[i]] = scores.get(ids[i], 0.0) + (
                    idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(d) / avgdl)))
    rows = sorted(((round(s, 6), int(i)) for i, s in scores.items()),
                  key=lambda r: (-r[0], r[1]))[:top_n]
    return pd.DataFrame({
        "doc_id": [i for _s, i in rows],
        "score": [s for s, _i in rows],
        "rank": np.arange(1, len(rows) + 1, dtype=np.int64),
    })


def test_bm25_matches_local(ray_session):
    from dude_ray.pipelines.ranking import QUERY_TERMS, run_bm25

    got = run_bm25(SF).reset_index(drop=True)
    want = _bm25_local(SF, QUERY_TERMS)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_bm25_batch_size_invariant(ray_session):
    """Tiny batches → many stats partials and per-term row fragments;
    the scored top-k must not change."""
    from dude_ray.pipelines.ranking import run_bm25

    got = run_bm25(SF)
    small = run_bm25(SF, batch_size=32)
    pd.testing.assert_frame_equal(got, small, check_dtype=False)


def test_bm25_unknown_term_is_noop(ray_session):
    """A query term absent from the corpus contributes nothing and
    doesn't crash the df/idf plumbing."""
    from dude_ray.pipelines.ranking import QUERY_TERMS, run_bm25

    base = run_bm25(SF)
    with_ghost = run_bm25(SF, terms=tuple(QUERY_TERMS) + ("zzzmissing",))
    pd.testing.assert_frame_equal(base, with_ghost, check_dtype=False)
