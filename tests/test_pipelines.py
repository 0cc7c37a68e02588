"""Training-data pipeline tests (dedup / similarity / text ops /
multimodal plumbing) at sf0.001."""

import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def test_exact_dedup_matches_local(ray_session):
    import hashlib

    import pyarrow.parquet as pq

    from dude_ray.pipelines.dedup import run_exact_dedup

    got = {r["h"]: (r["keeper_id"], r["dup_count"])
           for r in run_exact_dedup(SF).take_all()}
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    want: dict = {}
    for d, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        h = hashlib.md5(txt.encode()).hexdigest()
        k, c = want.get(h, (d, 0))
        want[h] = (min(k, d), c + 1)
    assert got == want


def test_minhash_finds_planted_neardups(ray_session, tmp_path):
    """Plant shuffled/truncated copies; MinHash-LSH must pair them."""
    import pyarrow.parquet as pq

    from dude_ray.pipelines.dedup import run_minhash_dedup

    t = pq.read_table(f"{SF}/documents.parquet")
    texts = t["text"].to_pylist()
    base = max(t["doc_id"].to_pylist()) + 1
    extra_ids, extra_texts = [], []
    for i in range(5):
        words = texts[i].split()
        # drop one word → high-Jaccard near-dup
        extra_ids.append(base + i)
        extra_texts.append(" ".join(words[:-1]) if len(words) > 4 else texts[i])
    planted = pa.table({
        "doc_id": pa.array(list(t["doc_id"].to_pylist()) + extra_ids, type=pa.int64()),
        "text": pa.array(texts + extra_texts, type=pa.string()),
        "lang": pa.array(["en"] * (len(texts) + 5)),
        "source": pa.array(["x"] * (len(texts) + 5)),
        "n_chars": pa.array([len(s) for s in texts + extra_texts], type=pa.int64()),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(planted, str(d / "documents.parquet"))
    pairs = {(r["a"], r["b"]) for r in run_minhash_dedup(str(d), threshold=0.7).take_all()}
    for i in range(5):
        if len(texts[i].split()) > 4:
            assert (i, base + i) in pairs, f"planted pair {i} missed"


def test_jaccard_join_equals_bruteforce(ray_session):
    """The prefix-filter join is EXACT: its output must equal the
    brute-force all-pairs Jaccard (same gram semantics) — recall by the
    prefix theorem, precision by verification."""
    import pyarrow.parquet as pq

    from dude_ray.pipelines.dedup import run_jaccard_join

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    gsets = {}
    for doc_id, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        w = [x.lower() for x in (text or "").split(" ")]
        gsets[doc_id] = {" ".join(w[i:i + 3]) for i in range(len(w) - 2)}
    ids = sorted(gsets)
    want = set()
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            u = len(gsets[a] | gsets[b])
            if u and round(len(gsets[a] & gsets[b]) / u, 6) >= 0.7:
                want.add((a, b))
    got = {(r["a"], r["b"])
           for r in run_jaccard_join(SF, threshold=0.7).take_all()}
    assert got == want


def test_simhash_planted(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from dude_ray.pipelines.dedup import run_simhash_dedup

    t = pq.read_table(f"{SF}/documents.parquet")
    texts = t["text"].to_pylist()
    base = max(t["doc_id"].to_pylist()) + 1
    # exact copies → hamming 0
    planted = pa.table({
        "doc_id": pa.array(list(t["doc_id"].to_pylist()) + [base, base + 1], type=pa.int64()),
        "text": pa.array(texts + [texts[0], texts[1]], type=pa.string()),
        "lang": pa.array(["en"] * (len(texts) + 2)),
        "source": pa.array(["x"] * (len(texts) + 2)),
        "n_chars": pa.array([len(s) for s in texts] + [len(texts[0]), len(texts[1])],
                            type=pa.int64()),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(planted, str(d / "documents.parquet"))
    rows = run_simhash_dedup(str(d)).take_all()
    pairs = {(r["a"], r["b"]): r["hamming"] for r in rows}
    assert pairs.get((0, base)) == 0
    assert pairs.get((1, base + 1)) == 0


def test_embedding_neardup_planted(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from dude_ray.pipelines.dedup import run_embedding_neardup

    rng = np.random.RandomState(0)
    emb = rng.standard_normal((50, 16)).astype(np.float32)
    emb[10] = emb[3] + 0.01 * rng.standard_normal(16)  # near-dup of 3
    t = pa.table({
        "vec_id": pa.array(range(50), type=pa.int64()),
        "embedding": pa.array([list(map(float, e)) for e in emb],
                              type=pa.list_(pa.float32())),
        "label": pa.array([0] * 50, type=pa.int32()),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, str(d / "embeddings.parquet"))
    pairs = {(r["a"], r["b"]) for r in run_embedding_neardup(str(d), threshold=0.99).take_all()}
    assert (3, 10) in pairs


def test_embedding_neardup_empty_keeps_schema(ray_session):
    from dude_ray.pipelines.dedup import run_embedding_neardup

    ds = run_embedding_neardup(SF, threshold=0.999)
    assert set(ds.schema().names) == {"a", "b", "cosine"}


def test_embedding_neardup_exact_matches_bruteforce(ray_session, tmp_path):
    """The blocked all-pairs join must equal a single-matrix brute force
    (recall 1), across a multi-row-group layout."""
    import pyarrow.parquet as pq

    from dude_ray.pipelines.dedup import run_embedding_neardup_exact

    rng = np.random.RandomState(3)
    emb = rng.standard_normal((120, 16)).astype(np.float32)
    emb[50] = emb[7] + 0.05 * rng.standard_normal(16)   # planted near-dup
    emb[99] = emb[20] + 0.02 * rng.standard_normal(16)
    t = pa.table({
        "vec_id": pa.array(range(120), type=pa.int64()),
        "embedding": pa.array([list(map(float, e)) for e in emb],
                              type=pa.list_(pa.float32())),
        "label": pa.array([0] * 120, type=pa.int32()),
    })
    d = tmp_path / "sf"
    d.mkdir()
    # tiny row groups → many block pairs, exercising the pair fan-out
    pq.write_table(t, str(d / "embeddings.parquet"), row_group_size=32)
    got = {(r["a"], r["b"]): r["cosine"]
           for r in run_embedding_neardup_exact(str(d), threshold=0.6).take_all()}
    nm = emb.astype(np.float64)
    nm /= np.linalg.norm(nm, axis=1, keepdims=True)
    sims = np.round(nm @ nm.T, 4)
    iu, ju = np.triu_indices(120, k=1)
    keep = sims[iu, ju] >= 0.6
    want = {(int(a), int(b)): float(s)
            for a, b, s in zip(iu[keep], ju[keep], sims[iu, ju][keep])}
    assert got == want
    assert (7, 50) in got and (20, 99) in got


def test_ann_topk_matches_numpy(ray_session):
    import pyarrow.parquet as pq

    from dude_ray.pipelines.similarity import run_ann_topk

    rows = run_ann_topk(SF, num_queries=3, k=5).take_all()
    t = pq.read_table(f"{SF}/embeddings.parquet")
    ids = np.asarray(t["vec_id"].to_pylist())
    emb = np.stack(t["embedding"].to_pylist()).astype(np.float64)
    emb = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    for q in range(3):
        qi = np.argsort(ids)[q]
        sims = emb @ emb[qi]
        sims[qi] = -np.inf
        want = set(ids[np.argsort(-sims)[:5]])
        got = {r["vec_id"] for r in rows if r["query_id"] == ids[qi]}
        assert got == want


def test_ann_lsh_recall(ray_session):
    from dude_ray.pipelines.similarity import run_ann_lsh, run_ann_topk

    exact = run_ann_topk(SF, num_queries=5, k=10).take_all()
    approx = run_ann_lsh(SF, num_queries=5, k=10, n_bits=8, radius=3).take_all()
    exact_sets = {}
    for r in exact:
        exact_sets.setdefault(r["query_id"], set()).add(r["vec_id"])
    hit = total = 0
    for r in approx:
        total += 1
        if r["vec_id"] in exact_sets.get(r["query_id"], set()):
            hit += 1
    assert total > 0
    assert hit / max(1, sum(len(s) for s in exact_sets.values())) > 0.3  # recall floor


def test_ann_ivf_recall(ray_session):
    """IVF coarse-quantizer variant: nprobe cells of 16 must recover a
    solid share of the exact top-10 (random synthetic vectors — cells
    are weak, so the floor is modest; nprobe=16 == exhaustive must hit
    recall 1.0)."""
    from dude_ray.pipelines.similarity import run_ann_ivf, run_ann_topk

    exact = run_ann_topk(SF, num_queries=5, k=10).take_all()
    exact_sets = {}
    for r in exact:
        exact_sets.setdefault(r["query_id"], set()).add(r["vec_id"])

    def recall(rows):
        hit = 0
        for r in rows:
            if r["vec_id"] in exact_sets.get(r["query_id"], set()):
                hit += 1
        return hit / max(1, sum(len(s) for s in exact_sets.values()))

    approx = run_ann_ivf(SF, num_queries=5, k=10, n_cells=16, nprobe=6).take_all()
    assert recall(approx) > 0.3
    exhaustive = run_ann_ivf(SF, num_queries=5, k=10, n_cells=16,
                             nprobe=16).take_all()
    assert recall(exhaustive) == 1.0


def test_token_and_quality_deterministic(ray_session):
    from dude_ray.pipelines.textops import run_quality, run_token_count

    a = run_token_count(SF).take_all()
    b = run_token_count(SF).take_all()
    assert a == b
    q = run_quality(SF).take_all()
    assert all(0 <= r["stop_ratio"] <= 1 for r in q)
    assert len(q) == len(a)


def test_lang_id_and_fingerprint(ray_session):
    from dude_ray.pipelines.textops import run_fingerprint, run_lang_id

    langs = run_lang_id(SF).take_all()
    assert {r["pred_lang"] for r in langs} <= {"en", "de", "fr", "es", "und"}
    fp = run_fingerprint(SF).take_all()
    by_doc = {r["doc_id"]: r["fingerprint"] for r in fp}
    assert len(by_doc) == len(fp)
    # identical texts → identical fingerprints
    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    texts = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
    seen: dict = {}
    for d, txt in texts.items():
        if txt in seen:
            assert by_doc[d] == by_doc[seen[txt]]
        seen[txt] = d


def test_media_decode_plumbing(ray_session):
    from dude_ray.stages.multimodal import run_media_decode

    rows = run_media_decode(SF).take_all()
    assert len(rows) > 50
    ok = [r for r in rows if r["decode_status"] == "ok"]
    assert len(ok) == len(rows)  # all synthetic payloads decode
    assert all(r["width"] >= 64 and r["height"] >= 64 for r in ok)
    assert all(len(r["feature"]) == 8 for r in ok)
    # deterministic across runs
    again = {r["media_ref"]: (r["width"], r["height"]) for r in run_media_decode(SF).take_all()}
    assert all(again[r["media_ref"]] == (r["width"], r["height"]) for r in rows)


def test_user_sessions_gap_semantics(ray_session):
    """Every session's events fit the 30-min-gap definition and per-user
    session starts are strictly increasing."""
    from dude_ray.pipelines.relational import run_user_sessions

    rows = run_user_sessions(SF).take_all()
    assert rows
    by_user: dict = {}
    for r in rows:
        by_user.setdefault(r["user_id"], []).append(r["session_start_us"])
    for starts in by_user.values():
        assert len(starts) == len(set(starts))


def test_top_orders_per_segment_ranked(ray_session):
    from dude_ray.pipelines.relational import run_top_orders_per_segment

    rows = run_top_orders_per_segment(SF).take_all()
    segs: dict = {}
    for r in rows:
        segs.setdefault(r["mktsegment"], []).append(r)
    for seg_rows in segs.values():
        seg_rows.sort(key=lambda r: r["rank"])
        assert [r["rank"] for r in seg_rows] == list(range(1, len(seg_rows) + 1))
        prices = [r["o_totalprice"] for r in seg_rows]
        assert prices == sorted(prices, reverse=True)


@pytest.mark.parametrize("drop_every", [None, 3])
@pytest.mark.parametrize("name", ["segment_revenue", "top_orders_per_segment"])
def test_segment_queries_local_oracle(ray_session, tmp_path, name, drop_every):
    """The customer-segment broadcast joins equal their DuckDB oracles
    at sf0.001; with every third customer removed, orders of a missing
    customer land in 'UNKNOWN' as the oracle's LEFT JOIN + coalesce
    does."""
    import duckdb
    import pandas as pd
    import pyarrow.parquet as pq

    import __ray_entry__ as entry

    sf = SF
    if drop_every:
        sf = str(tmp_path)
        cust = pq.read_table(f"{SF}/customer.parquet")
        keep = np.arange(len(cust)) % drop_every != 0
        pq.write_table(cust.filter(pa.array(keep)), f"{sf}/customer.parquet")
        pq.write_table(pq.read_table(f"{SF}/orders.parquet"),
                       f"{sf}/orders.parquet")
    con = duckdb.connect()
    for t in ("customer", "orders"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    want = con.execute(entry.oracle_sql()[name]).df()
    got = entry.queries()[name](sf).to_pandas()[list(want.columns)]
    cols = list(want.columns)
    pd.testing.assert_frame_equal(
        got.sort_values(cols).reset_index(drop=True),
        want.sort_values(cols).reset_index(drop=True),
        check_dtype=False, check_exact=True)
    assert ("UNKNOWN" in set(got["mktsegment"])) == bool(drop_every)


def test_media_frames_and_thumbs(ray_session):
    """Frame sampling (flat_map shape) and resize plumbing: every
    sampled frame index respects every_n and n_frames; thumbnails have
    the realistic target byte size; both deterministic."""
    from dude_ray.stages.multimodal import (
        run_media_decode,
        run_media_frames,
        run_media_thumbs,
    )

    n_frames = {r["media_ref"]: r["n_frames"]
                for r in run_media_decode(SF).take_all()}
    frames = run_media_frames(SF, every_n=2).take_all()
    assert frames
    by_ref: dict = {}
    for r in frames:
        by_ref.setdefault(r["media_ref"], []).append(r["frame_index"])
        assert len(r["frame"]) == 32
    for ref, idxs in by_ref.items():
        expect = list(range(0, n_frames[ref], 2))
        assert sorted(idxs) == expect, ref

    thumbs = run_media_thumbs(SF, target=16).take_all()
    assert thumbs
    assert all(len(r["thumb"]) == 16 * 16 * 3 for r in thumbs)
    assert all(r["width"] == 16 and r["height"] == 16 for r in thumbs)


def test_streaming_window_drops_late_events(ray_session, tmp_path):
    """Watermark semantics: an event arriving after its window is final
    (watermark >= window_end + lateness) is dropped; an in-lateness
    straggler is kept."""
    import pyarrow.parquet as pq

    from dude_ray.pipelines.streaming import run_streaming_window

    US = 1_000_000
    base = 1_700_000_000 * US
    rows = [
        # (event_id = arrival order, ts_us, value)
        (0, base + 10 * US, 1.0),            # window 0
        (1, base + 2000 * US, 1.0),          # watermark jumps far ahead
        (2, base + 20 * US, 100.0),          # LATE for window 0: wm=2000s
                                             # >= 300s + 600s → dropped
        (3, base + 1500 * US, 5.0),          # within lateness of its own
                                             # window (1200-1500s): kept
    ]
    t = pa.table({
        "event_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "ts": pa.array([r[1] for r in rows], type=pa.timestamp("us")),
        "user_id": pa.array([1] * len(rows), type=pa.int64()),
        "event_type": pa.array(["click"] * len(rows)),
        "value": pa.array([r[2] for r in rows], type=pa.float64()),
        "props": pa.array(["{}"] * len(rows)),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, str(d / "events.parquet"))
    W = 300 * US
    win_of = lambda ts_us: ts_us // W * W
    out = {r["window_start_us"]: (r["n_events"], r["sum_value"])
           for r in run_streaming_window(str(d)).take_all()}
    # event 0's window: only event 0 survives (event 2 dropped as late —
    # watermark 2000s is past its window end + 600s lateness)
    assert out[win_of(base + 10 * US)] == (1, 1.0)
    # event 1's and event 3's windows both kept (3 within lateness)
    assert out[win_of(base + 2000 * US)] == (1, 1.0)
    assert out[win_of(base + 1500 * US)] == (1, 5.0)
    assert sum(n for n, _ in out.values()) == 3  # exactly one drop


def test_asof_join_left_nulls(ray_session, tmp_path):
    """An event before its user's first order gets nulls (LEFT asof);
    later events pick the most recent prior order with date ties broken
    by max orderkey."""
    import pyarrow.parquet as pq

    from dude_ray.pipelines.relational import run_asof_join

    US = 1_000_000
    day = 86400 * US
    t0 = 1_600_000_000 * US
    ev = pa.table({
        "event_id": pa.array([0, 1, 2], type=pa.int64()),
        "ts": pa.array([t0 - day, t0 + day, t0 + 3 * day],
                       type=pa.timestamp("us")),
        "user_id": pa.array([7, 7, 7], type=pa.int64()),
        "event_type": pa.array(["click"] * 3),
        "value": pa.array([1.0] * 3, type=pa.float64()),
        "props": pa.array(["{}"] * 3),
    })
    orders = pa.table({
        "o_orderkey": pa.array([100, 101, 102], type=pa.int64()),
        "o_custkey": pa.array([7, 7, 7], type=pa.int64()),
        "o_orderstatus": pa.array(["O"] * 3),
        # orders 101 and 102 share a date → tie broken by max orderkey
        "o_totalprice": pa.array([10.0, 20.0, 30.0], type=pa.float64()),
        "o_orderdate": pa.array([t0, t0 + 2 * day, t0 + 2 * day],
                                type=pa.timestamp("us")),
        "o_orderpriority": pa.array(["1-URGENT"] * 3),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(ev, str(d / "events.parquet"))
    pq.write_table(orders, str(d / "orders.parquet"))
    rows = {r["event_id"]: r for r in run_asof_join(str(d)).take_all()}
    assert rows[0]["o_orderkey"] is None and rows[0]["o_totalprice"] is None
    assert rows[1]["o_orderkey"] == 100
    assert rows[2]["o_orderkey"] == 102 and rows[2]["o_totalprice"] == 30.0


@pytest.mark.parametrize("widths", [(16, 128)])
def test_bucketed_pipelines_width_independent(ray_session, widths):
    """The coarse dispatch-bucket width is a pure parallelism knob —
    results must be identical at any two widths (a key's rows always
    land whole in one bucket).  Guards the data-scaled key sizing:
    scaling n_groups with input size must never change answers."""
    from dude_ray.pipelines.dedup import run_embedding_neardup
    from dude_ray.pipelines.relational import (
        run_asof_join,
        run_distinct_users,
        run_user_sessions,
    )

    w0, w1 = widths

    def rows(ds):
        return sorted(tuple(sorted(r.items())) for r in ds.take_all())

    assert rows(run_user_sessions(SF, users_per_group=w0)) == \
        rows(run_user_sessions(SF, users_per_group=w1))
    assert rows(run_asof_join(SF, users_per_group=w0)) == \
        rows(run_asof_join(SF, users_per_group=w1))
    assert rows(run_distinct_users(SF, n_buckets=w0)) == \
        rows(run_distinct_users(SF, n_buckets=w1))
    assert rows(run_embedding_neardup(SF, threshold=0.9, n_groups=8)) == \
        rows(run_embedding_neardup(SF, threshold=0.9, n_groups=64))
    # _distinct_pairs (the candidate-pair distinct shared by
    # minhash_dedup and jaccard_join) went data-scaled + tiered in r4:
    # both the small one-block tier and the distributed hash-grouped
    # tier (forced via small_tier_max_rows=0) must agree at any width
    from dude_ray.pipelines.dedup import run_minhash_dedup

    small_tier = rows(run_minhash_dedup(SF))
    assert small_tier == rows(run_minhash_dedup(
        SF, target_rows_per_group=64, small_tier_max_rows=0))
    assert small_tier == rows(run_minhash_dedup(
        SF, target_rows_per_group=100_000, small_tier_max_rows=0))


def test_user_timelines_sorted_segments(ray_session, tmp_path):
    """``user_timelines`` hands ``fn`` each bucket sorted by (user_id,
    ts_us, event_id), with ``starts`` exactly each user's first row,
    over events split across blocks with duplicate timestamps and rows
    out of order.  The bucket width does not change the rows, and a
    0-row result keeps the declared columns and dtypes."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from dude_ray.pipelines.relational import user_timelines

    rng = np.random.default_rng(14)
    n = 3000
    ev = pa.table({
        "event_id": rng.permutation(n).astype(np.int64),
        # 40 distinct seconds over 50 users: many equal ts per user
        "ts": pa.array(rng.integers(0, 40, n) * 1_000_000,
                       pa.timestamp("us")),
        "user_id": rng.integers(0, 50, n).astype(np.int64),
        "value": rng.random(n),
    })
    (tmp_path / "events.parquet").mkdir()
    for i in range(4):
        pq.write_table(ev.slice(i * 750, 750),
                       tmp_path / "events.parquet" / f"part{i}.parquet")
    schema = pa.schema([("user_id", pa.int64()), ("event_id", pa.int64()),
                        ("pos", pa.int64()), ("value", pa.float64())])

    def positions(c, starts):
        uid, m = c["user_id"], len(c["user_id"])
        assert (np.lexsort((c["event_id"], c["ts_us"], uid))
                == np.arange(m)).all()
        assert starts.tolist() == [i for i in range(m)
                                   if i == 0 or uid[i] != uid[i - 1]]
        pos = np.arange(m) - np.repeat(starts, np.diff(np.r_[starts, m]))
        return {"user_id": uid, "event_id": c["event_id"], "pos": pos,
                "value": c["value"]}

    want = ev.to_pandas()
    want["ts"] = want["ts"].astype("int64")
    want = want.sort_values(["user_id", "ts", "event_id"])
    want["pos"] = want.groupby("user_id").cumcount()
    want = sorted(want[schema.names].itertuples(index=False, name=None))
    for width in (1, 4, 1 << 20):
        got = user_timelines(str(tmp_path), ["value"], positions, schema,
                             users_per_group=width).to_pandas()
        assert sorted(got.itertuples(index=False, name=None)) == want

    def no_rows(c, starts):
        return {f.name: c["user_id"][:0] for f in schema}

    for got in (user_timelines(str(tmp_path), ["value"], positions, schema,
                               where=pc.field("user_id") < 0),
                user_timelines(str(tmp_path), ["value"], no_rows, schema)):
        df = got.to_pandas()
        assert len(df) == 0
        assert df.dtypes.to_dict() == {
            "user_id": np.dtype("int64"), "event_id": np.dtype("int64"),
            "pos": np.dtype("int64"), "value": np.dtype("float64")}


def test_minhash_band_prefix_tiers_agree(ray_session):
    """The r5 (band, hash-prefix) candidate grouping (VERDICT_r04 #2):
    every LSH bucket shares one band_hash, so splitting bands by a
    hash prefix must yield the IDENTICAL verified pair set — asserted
    for a forced bit width and for the auto tier trigger (tiny
    band_rows_per_group ⇒ the sf0.001 corpus itself selects a
    positive prefix_bits)."""
    from dude_ray.pipelines.dedup import run_minhash_dedup

    def rows(ds):
        return sorted(tuple(sorted(r.items())) for r in ds.take_all())

    base = rows(run_minhash_dedup(SF))
    assert base == rows(run_minhash_dedup(SF, prefix_bits=6))
    assert base == rows(run_minhash_dedup(SF, band_rows_per_group=8))
    assert len(base) > 0


def test_jaccard_join_chunked_bucket_path(ray_session, monkeypatch):
    """Forcing every prefix bucket through the chunked O(b²) generator
    (tiny _PAIR_CHUNK_LIMIT) must not change the exact join output."""
    import dude_ray.pipelines.dedup as dd

    def rows(ds):
        return sorted(tuple(sorted(r.items())) for r in ds.take_all())

    base = rows(dd.run_jaccard_join(SF, threshold=0.4))
    monkeypatch.setattr(dd, "_PAIR_CHUNK_LIMIT", 3)
    chunked = rows(dd.run_jaccard_join(SF, threshold=0.4))
    assert base == chunked and len(base) > 0


def test_scaled_group_count():
    from dude_ray.partitioning import estimate_rows, scaled_group_count

    # capped at hi
    assert scaled_group_count(10**12, 100_000, hi=1 << 16) == 1 << 16
    # the floor is one group: next power of two ≥ rows / target
    assert scaled_group_count(1_000, 100_000) == 1
    assert scaled_group_count(150_000, 100_000) == 2
    assert scaled_group_count(10_000_000, 100_000) == 128
    n = estimate_rows(f"{SF}/events.parquet")
    assert n > 0


def test_small_grouped_reduce_calls_reducer_once(ray_session):
    """An input of ≤ ``target_rows_per_group`` rows is one group, so
    ``hash_grouped_reduce`` calls its reducer once over every key."""
    import pyarrow.compute as pc
    import ray.data as rd

    from dude_ray.partitioning import hash_grouped_reduce

    n = 5_000
    ds = rd.from_arrow(pa.table({
        "k": pa.array(np.arange(n) % 997, type=pa.int64()),
        "v": pa.array(np.ones(n), type=pa.float64())}))

    def one_row(t: pa.Table) -> pa.Table:
        return pa.table({"n_rows": [len(t)],
                         "n_keys": [pc.count_distinct(t["k"]).as_py()]})

    rows = hash_grouped_reduce(ds, "k", one_row, n_rows=n,
                               target_rows_per_group=n,
                               out_cols=("n_rows", "n_keys")).take_all()
    assert rows == [{"n_rows": n, "n_keys": 997}]


def test_grouped_reduce_arrow_contract(ray_session):
    """``hash_grouped_reduce`` hands its reducer each group as a
    ``pa.Table`` without ``__g`` and emits ``out_cols`` blocks without
    schema metadata, even from a reducer that returns a table built from
    pandas; ``group_agg`` counts rows, takes string minima and, with no
    aggregates, gives the distinct keys of a multi-key table."""
    import ray
    import ray.data as rd

    from dude_ray.partitioning import group_agg, hash_grouped_reduce

    t = pa.table({"a": [1, 1, 2, 2, 2, 1],
                  "b": ["x", "y", "x", "x", "z", "x"],
                  "s": ["q", "p", "r", "o", "n", "m"]})
    got = group_agg(t, ["a", "b"], {"n": ([], "count_all"),
                                    "lo": ("s", "min")})
    assert got.column_names == ["a", "b", "n", "lo"]
    assert sorted(zip(*got.to_pydict().values())) == [
        (1, "x", 2, "m"), (1, "y", 1, "p"), (2, "x", 2, "o"),
        (2, "z", 1, "n")]
    distinct = group_agg(t, ["a", "b"])
    assert distinct.column_names == ["a", "b"]
    assert sorted(zip(*distinct.to_pydict().values())) == [
        (1, "x"), (1, "y"), (2, "x"), (2, "z")]

    def via_pandas(g: pa.Table) -> pa.Table:
        df = g.to_pandas().groupby("a", as_index=False)["b"].nunique()
        df["cols"] = ",".join(g.column_names)
        return pa.Table.from_pandas(df, preserve_index=True)

    out = hash_grouped_reduce(rd.from_arrow(t), "a", via_pandas,
                              n_rows=len(t), target_rows_per_group=1,
                              out_cols=("a", "b", "cols"))
    blocks = ray.get(out.to_arrow_refs())
    assert all(b.schema.metadata is None for b in blocks)
    assert sorted(r for b in blocks for r in zip(*b.to_pydict().values())) \
        == [(1, 2, "a,b,s"), (2, 2, "a,b,s")]


@pytest.mark.parametrize("how", ["inner", "left semi", "left anti"],
                         ids=["inner", "left_semi", "left_anti"])
def test_shuffle_join_matches_pandas(ray_session, how):
    """``shuffle_join`` equals ``pandas.merge`` / ``isin`` on random int
    keys with duplicates on both sides, and gives the same rows with one
    group per row (many groups hold rows of one side only), 64 rows per
    group and the default width.  The semi and anti joins take a
    key-only right side."""
    import pandas as pd
    import ray.data as rd

    from dude_ray.partitioning import (_group_ids, scaled_group_count,
                                       shuffle_join)

    rng = np.random.default_rng(12)
    left = pd.DataFrame({"k": rng.integers(0, 40, 300),
                         "a": rng.integers(0, 1000, 300)})
    right = pd.DataFrame({"k": rng.integers(20, 60, 200),
                          "b": rng.random(200)})
    lschema = pa.schema([("k", pa.int64()), ("a", pa.int64())])
    if how == "inner":
        rschema = pa.schema([("k", pa.int64()), ("b", pa.float64())])
        want = left.merge(right, on="k")
    else:
        right = right[["k"]]
        rschema = pa.schema([("k", pa.int64())])
        hit = left["k"].isin(right["k"])
        want = left[hit if how == "left semi" else ~hit]
    want_rows = sorted(want.itertuples(index=False, name=None))
    assert want_rows

    n_rows = len(left) + len(right)
    n_groups = scaled_group_count(n_rows, 1)
    lg = set(_group_ids(pa.table(left), ["k"], n_groups))
    rg = set(_group_ids(pa.table(right), ["k"], n_groups))
    assert lg - rg and rg - lg  # groups holding one side only

    for width in (1, 64, 65536):
        got = shuffle_join(
            (rd.from_pandas(left, override_num_blocks=3), lschema),
            (rd.from_pandas(right, override_num_blocks=2), rschema),
            "k", n_rows, lambda t: t, how=how,
            target_rows_per_group=width).to_pandas()
        assert list(got.columns) == list(want.columns)
        assert sorted(got.itertuples(index=False, name=None)) == want_rows


def test_shuffle_join_rejects_shared_columns():
    """Side schemas may share only the key: a shared payload column
    would be ambiguous in the joined table."""
    from dude_ray.partitioning import shuffle_join

    schema = pa.schema([("k", pa.int64()), ("v", pa.int64())])
    with pytest.raises(ValueError, match="v"):
        shuffle_join((None, schema), (None, schema), "k", 10, lambda t: t)


def test_tree_combine_short_stream_logs_no_schema_warning(ray_session):
    """A one-row partial stream merges to its row, and Ray Data logs no
    "different schema" warning: the first combine level runs on the
    partial blocks as they come and makes no empty, schema-less block."""
    import logging

    import ray.data as rd

    from dude_ray.pipelines.relational import tree_combine

    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("ray.data")
    logger.addHandler(handler)
    try:
        rows = tree_combine(rd.from_arrow(pa.table({"k": [3], "n": [5]})),
                            ["k"], sums=("n",)).take_all()
    finally:
        logger.removeHandler(handler)
    assert rows == [{"k": 3, "n": 5}]
    assert records  # the handler sees Ray Data's execution log
    assert not [r for r in records if "different schema" in r.getMessage()]


def test_tree_sum_short_stream_logs_no_schema_warning(ray_session):
    """``tree_sum`` adds scalar and list columns element-wise, and the
    moment and bucket-count passes built on it (embedding_cov,
    dsir_weights) log no "different schema" warning at sf0.001: the
    first level sums the partial blocks as they come, so no empty,
    schema-less block is made."""
    import logging

    import ray.data as rd

    from dude_ray.pipelines.clustering import run_embedding_cov
    from dude_ray.pipelines.dsir import run_dsir_weights
    from dude_ray.pipelines.relational import tree_sum

    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("ray.data")
    logger.addHandler(handler)
    try:
        row = tree_sum(rd.from_arrow(pa.table({"n": [2, 3],
                                               "v": [[1.0, 2.0],
                                                     [0.5, 4.0]]})))
        assert run_embedding_cov(SF).count() == 64 * 64
        assert run_dsir_weights(SF).count() > 0
    finally:
        logger.removeHandler(handler)
    assert int(row["n"]) == 5 and list(row["v"]) == [1.5, 6.0]
    assert records  # the handler sees Ray Data's execution log
    assert not [r for r in records if "different schema" in r.getMessage()]


def test_band_join_block_boundary(ray_session, tmp_path):
    """A pair straddling a coarse partition block boundary must still be
    found exactly once (ghost-row handling)."""
    import pyarrow.parquet as pq

    from dude_ray.pipelines.relational import BAND_BLOCK, run_events_band_join

    US = 1_000_000
    edge = 5 * BAND_BLOCK  # a block boundary
    ts = [edge - 10 * US, edge + 5 * US,   # pair straddling the boundary
          edge + 6 * US,                   # also pairs with both above
          edge + 500 * US]                 # out of band with everything
    t = pa.table({
        "event_id": pa.array(range(len(ts)), type=pa.int64()),
        "ts": pa.array(ts, type=pa.timestamp("us")),
        "user_id": pa.array([1] * len(ts), type=pa.int64()),
        "event_type": pa.array(["click"] * len(ts)),
        "value": pa.array([1.0] * len(ts), type=pa.float64()),
        "props": pa.array(["{}"] * len(ts)),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, str(d / "events.parquet"))
    rows = run_events_band_join(str(d)).take_all()
    pairs = sorted((r["a"], r["b"], r["dt_us"]) for r in rows)
    assert pairs == [(0, 1, 15 * US), (0, 2, 16 * US), (1, 2, 1 * US)]


def test_hll_accuracy_and_merge_invariance(ray_session):
    """HLL estimate within 4σ of exact; registers identical regardless
    of how the input is batched (mergeability)."""
    import duckdb
    import numpy as np

    from dude_ray.pipelines.sketches import (hll_estimate, hll_registers,
                                             run_distinct_users_approx)

    sf = "/root/testdata/sf0.01"
    exact = dict(duckdb.sql(
        f"SELECT event_type, count(DISTINCT user_id) FROM "
        f"read_parquet('{sf}/events.parquet') GROUP BY event_type").fetchall())
    approx = {r["event_type"]: r["n_users_approx"]
              for r in run_distinct_users_approx(sf).take_all()}
    assert set(approx) == set(exact)
    for et, n in exact.items():
        assert abs(approx[et] - n) / n < 0.07, (et, approx[et], n)

    # merge-invariance: one pass vs max-merge of arbitrary splits
    vals = np.arange(100_000, dtype=np.uint64) * 2654435761 % 999983
    whole = hll_registers(vals)
    parts = np.maximum.reduce([hll_registers(c)
                               for c in np.array_split(vals, 7)])
    assert np.array_equal(whole, parts)
    n_true = len(np.unique(vals))
    assert abs(hll_estimate(whole) - n_true) / n_true < 0.07


def test_kmv_accuracy_and_merge(ray_session):
    """KMV estimate within the sketch's ~1/√(k-2) error band of exact
    (k=64 → σ≈12.7%, assert <4σ); register state equals its DuckDB
    recompute at sf0.001; k-smallest union merge is split-invariant."""
    import duckdb
    import numpy as np
    import pandas as pd

    from dude_ray.pipelines.sketches import (_mix64, run_kmv_registers,
                                             run_distinct_users_kmv,
                                             kmv_registers_oracle_sql,
                                             KMV_K)

    sf = "/root/testdata/sf0.01"
    exact = dict(duckdb.sql(
        f"SELECT event_type, count(DISTINCT user_id) FROM "
        f"read_parquet('{sf}/events.parquet') GROUP BY event_type")
        .fetchall())
    approx = {r["event_type"]: r["n_users_kmv"]
              for r in run_distinct_users_kmv(sf).take_all()}
    assert set(approx) == set(exact)
    for et, n in exact.items():
        assert abs(approx[et] - n) / n < 0.51, (et, approx[et], n)

    # register state vs DuckDB recompute at sf0.001
    sf0 = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf0}/events.parquet')")
    want = (con.execute(kmv_registers_oracle_sql()).df()
            .reset_index(drop=True))
    got = (run_kmv_registers(sf0).to_pandas()
           .sort_values(["event_type", "pos"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)

    # merge-invariance: k-smallest of the union == k-smallest of
    # concatenated per-chunk k-smallest partials
    vals = (np.arange(50_000, dtype=np.uint64) * 2654435761
            % 999983)
    h = _mix64(vals)
    whole = np.unique(h)[:KMV_K]
    parts = np.unique(np.concatenate(
        [np.unique(c)[:KMV_K] for c in np.array_split(h, 9)]))[:KMV_K]
    assert np.array_equal(whole, parts)


def test_dedup_incremental_exact_despite_bloom_fps(ray_session, tmp_path):
    """Prior half vs current half with planted cross-snapshot dups; a
    deliberately undersized Bloom (2 bits/key → massive FP rate) must
    still yield the exact answer via the confirm join."""
    import pyarrow.parquet as pq

    from dude_ray.pipelines.dedup import run_dedup_incremental

    n = 120
    texts = [f"unique document number {i} with words" for i in range(n)]
    # docs 60..79 duplicate prior docs 0..19 → NOT new
    for i in range(20):
        texts[60 + i] = texts[i]
    t = pa.table({
        "doc_id": pa.array(list(range(n)), type=pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * n),
        "source": pa.array(["x"] * n),
        "n_chars": pa.array([len(s) for s in texts], type=pa.int64()),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))
    got = sorted(r["doc_id"]
                 for r in run_dedup_incremental(
                     str(d), bits_per_key=2).take_all())
    assert got == sorted(range(80, 120))


def test_top_terms_sketch_heavy_hitters(ray_session, tmp_path):
    """Synthetic skewed vocabulary with forced pruning: every true
    heavy hitter must surface, approximate counts within the N/(k+1)
    Misra-Gries bound."""
    import pyarrow.parquet as pq

    from dude_ray.pipelines.sketches import run_top_terms_sketch

    rng = np.random.RandomState(7)
    heavy = {f"heavy{i}": 400 - 25 * i for i in range(8)}
    words = []
    for w, c in heavy.items():
        words += [w] * c
    # 6000 singleton terms → far more distinct terms than counters
    words += [f"rare{i}" for i in range(6000)]
    rng.shuffle(words)
    texts = [" ".join(words[i:i + 30]) for i in range(0, len(words), 30)]
    t = pa.table({
        "doc_id": pa.array(list(range(len(texts))), type=pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * len(texts)),
        "source": pa.array(["x"] * len(texts)),
        "n_chars": pa.array([len(s) for s in texts], type=pa.int64()),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))

    k = 64
    rows = run_top_terms_sketch(str(d), k_counters=k, m=8).take_all()
    got = {r["term"]: r["n"] for r in rows}
    n_total = len(words)
    bound = n_total / (k + 1)
    for w, c in heavy.items():
        assert w in got, f"heavy hitter {w} missing"
        assert c - bound <= got[w] <= c, (w, got[w], c, bound)


def test_dup_clusters_chain_and_clique(ray_session, tmp_path):
    """Connected components over a planted graph: a 7-node CHAIN
    (forces multi-round label propagation — diameter 6) plus a
    separate triangle clique and isolated nodes (absent from output)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from dude_ray.pipelines.dedup import run_dup_clusters

    dim = 16
    vecs, ids = [], []
    # chain: v_i = normalize(e_i + e_{i+1}); cos(v_i, v_{i+1}) = 0.5,
    # cos(v_i, v_{i+2}) = 0 → edges only between consecutive nodes
    for i in range(7):
        v = np.zeros(dim)
        v[i] = v[i + 1] = 1.0
        vecs.append(v / np.linalg.norm(v))
        ids.append(100 + i)
    # triangle: three copies of e_10 with tiny distinct jitter
    for j in range(3):
        v = np.zeros(dim)
        v[10] = 1.0
        v[11] = 0.01 * (j + 1)
        vecs.append(v / np.linalg.norm(v))
        ids.append(200 + j)
    # isolated nodes: e_12 and e_13 (orthogonal to everything else)
    for j, ax in enumerate((12, 13)):
        v = np.zeros(dim)
        v[ax] = 1.0
        vecs.append(v)
        ids.append(300 + j)
    t = pa.table({
        "vec_id": pa.array(ids, type=pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              type=pa.list_(pa.float32())),
    })
    pq.write_table(t, tmp_path / "embeddings.parquet")

    # both planner tiers: driver union-find and distributed min-label
    # propagation must produce the identical component map
    for cc_local in (2_000_000, 0):
        got = run_dup_clusters(str(tmp_path), threshold=0.35,
                               cc_local_threshold=cc_local).to_pandas()
        comp = dict(zip(got["vec_id"], got["component"]))
        assert set(comp) == set(range(100, 107)) | {200, 201, 202}
        assert all(comp[i] == 100 for i in range(100, 107))
        assert all(comp[i] == 200 for i in (200, 201, 202))


def test_value_buckets_equidepth(ray_session):
    """Decile buckets: counts within one boundary-tie of n/10 each,
    buckets ordered by value range, and rows conserved."""
    import numpy as np

    from dude_ray.pipelines.relational import run_value_buckets

    got = (run_value_buckets("/root/testdata/sf0.001").to_pandas()
           .sort_values("bucket").reset_index(drop=True))
    assert list(got["bucket"]) == list(range(10))
    n = got["n_rows"].sum()
    # equi-depth up to duplicate boundary values
    assert (np.abs(got["n_rows"] - n / 10) <= max(2, 0.05 * n / 10)).all()
    # ranges are disjoint and ordered
    assert (got["min_value"] <= got["max_value"]).all()
    assert (got["max_value"].to_numpy()[:-1]
            <= got["min_value"].to_numpy()[1:]).all()


def test_substring_dup_planted(ray_session, tmp_path):
    """Winnowing guarantee: docs sharing a sentence-scale verbatim run
    (~300 bytes >> the 63-byte guarantee) are paired with n_shared >= 2;
    unrelated random-gibberish docs are not paired."""
    import random
    import string

    import pyarrow as pa
    import pyarrow.parquet as pq

    from dude_ray.pipelines.dedup import run_substring_dup

    rng = random.Random(11)

    def gibberish(n_words):
        return " ".join("".join(rng.choices(string.ascii_lowercase, k=8))
                        for _ in range(n_words))

    shared = gibberish(40)  # ~360 bytes of verbatim boilerplate
    texts = {
        1: gibberish(60) + " " + shared + " " + gibberish(60),
        2: gibberish(55) + " " + shared + " " + gibberish(65),
        3: gibberish(180),
        4: gibberish(180),
    }
    t = pa.table({
        "doc_id": pa.array(sorted(texts), type=pa.int64()),
        "text": pa.array([texts[i] for i in sorted(texts)]),
    })
    pq.write_table(t, tmp_path / "documents.parquet")

    got = run_substring_dup(str(tmp_path), min_shared=2).to_pandas()
    pairs = set(zip(got["a"], got["b"]))
    assert (1, 2) in pairs
    n12 = int(got.set_index(["a", "b"]).loc[(1, 2), "n_shared"])
    assert n12 >= 2
    # gibberish docs share no sentence-scale runs with anything
    assert all({a, b} == {1, 2} for a, b in pairs)


def test_events_zscore_standardizes(ray_session):
    """Per-type z-scores have mean ~0 and population std ~1."""
    import numpy as np

    from dude_ray.pipelines.relational import run_events_zscore

    got = run_events_zscore("/root/testdata/sf0.001").to_pandas()
    for _, g in got.groupby("event_type"):
        assert abs(g["z"].mean()) < 1e-3
        assert abs(g["z"].std(ddof=0) - 1.0) < 1e-3


def test_hopping_window_covers_tumbling(ray_session):
    """Every event contributes to exactly 2 hopping windows, so total
    hopping event-count = 2 x corpus size, and each hopping window's
    count equals the sum of its two covered tumbling windows."""
    from dude_ray.pipelines.relational import (run_events_hopping_window,
                                               run_events_window)

    sf = "/root/testdata/sf0.001"
    hop = run_events_hopping_window(sf).to_pandas()
    tum = run_events_window(sf).to_pandas()
    assert hop["n_events"].sum() == 2 * tum["n_events"].sum()
    t = tum.set_index(["event_type", "window_start_us"])["n_events"]
    for _, r in hop.sample(n=min(200, len(hop)), random_state=0).iterrows():
        covered = sum(
            t.get((r["event_type"], r["window_start_us"] + k * 300_000_000),
                  0) for k in range(2))
        assert r["n_events"] == covered


def test_percent_rank_properties(ray_session):
    """pr is 0 for the global min rows, max pr < 1 unless unique max,
    and pr is monotone in value."""
    from dude_ray.pipelines.relational import run_value_percent_rank

    got = (run_value_percent_rank("/root/testdata/sf0.001").to_pandas()
           .sort_values(["value", "event_id"]).reset_index(drop=True))
    assert (got.loc[got["value"] == got["value"].min(), "pr"] == 0).all()
    assert got["pr"].is_monotonic_increasing
    assert got["pr"].iloc[-1] <= 1.0


def test_ann_pq_recall(ray_session):
    """PQ with exact rerank must recover >= 0.9 of the brute-force
    top-10 per query (1.0 at the default 128-codeword books here)."""
    from dude_ray.pipelines.similarity import run_ann_pq, run_ann_topk

    sf = "/root/testdata/sf0.001"
    bf = run_ann_topk(sf).to_pandas()
    pq = run_ann_pq(sf).to_pandas()
    for q, g in bf.groupby("query_id"):
        truth = set(g["vec_id"])
        approx = set(pq[pq["query_id"] == q]["vec_id"])
        assert len(truth & approx) / len(truth) >= 0.9
    # exact rerank means reported sims are TRUE cosines: every returned
    # sim must also appear in the brute-force scores for that query
    merged = pq.merge(bf, on=["query_id", "vec_id"], suffixes=("_pq", "_bf"))
    assert (merged["sim_pq"] == merged["sim_bf"]).all()


def test_ccnet_buckets_invariants(ray_session):
    """CCNet terciles: every scored doc appears exactly once, per-lang
    tercile sizes follow ntile(3) arithmetic, scores are ordered
    head >= middle >= tail within each language, and the output is
    invariant to the selection granularity knobs (coarse_shift /
    target_rows_per_group), which exercises the boundary-bucket
    refinement path at several histogram widths."""
    import pandas as pd

    from dude_ray.pipelines.ccnet import _ntile_cuts, run_ccnet_buckets
    from dude_ray.pipelines.lm import run_lm_score

    sf = "/root/testdata/sf0.001"
    keys = ["doc_id"]
    base = (run_ccnet_buckets(sf).to_pandas()
            .sort_values(keys).reset_index(drop=True))
    scored = run_lm_score(sf).to_pandas()
    assert sorted(base["doc_id"]) == sorted(scored["doc_id"])

    for _lang, g in base.groupby("pred_lang"):
        n = len(g)
        r1, r2 = _ntile_cuts(n)
        sizes = g["bucket"].value_counts()
        assert sizes.get("head", 0) == r1
        assert sizes.get("middle", 0) == r2 - r1
        assert sizes.get("tail", 0) == n - r2
        by = {b: gg["lm_score"] for b, gg in g.groupby("bucket")}
        if "head" in by and "middle" in by:
            assert by["head"].min() >= by["middle"].max()
        if "middle" in by and "tail" in by:
            assert by["middle"].min() >= by["tail"].max()

    for shift, width in ((4, 256), (20, 65536)):
        alt = (run_ccnet_buckets(sf, target_rows_per_group=width,
                                 coarse_shift=shift).to_pandas()
               .sort_values(keys).reset_index(drop=True))
        pd.testing.assert_frame_equal(base, alt)


def test_dedup_ops_run_to_run_deterministic(ray_session):
    """The bucketed/banded dedup ops must be bit-identical across runs
    in one session — guards against nondeterministic group dispatch or
    unseeded hashing sneaking into the shuffle keys."""
    import pandas as pd

    from dude_ray.pipelines.dedup import run_minhash_dedup, run_substring_dup

    sf = "/root/testdata/sf0.001"
    for fn, keys in ((run_minhash_dedup, ["a", "b"]),
                     (run_substring_dup, ["a", "b"])):
        one = fn(sf).to_pandas().sort_values(keys).reset_index(drop=True)
        two = fn(sf).to_pandas().sort_values(keys).reset_index(drop=True)
        pd.testing.assert_frame_equal(one, two)


def test_media_audio_chunks_framing(ray_session):
    """Window/hop arithmetic: every payload yields
    1 + floor((len - window)/hop) windows (min 1), window_index is
    dense per ref, and full windows carry exactly `window` samples."""
    from dude_ray.stages.multimodal import run_media_audio_chunks

    got = run_media_audio_chunks("/root/testdata/sf0.001",
                                 window=200, hop=100).to_pandas()
    assert len(got) > 0
    for ref, g in got.groupby("media_ref"):
        idx = sorted(g["window_index"])
        assert idx == list(range(len(idx)))
        full = g[g["n_samples"] == 200]
        assert len(full) >= len(g) - 1  # only the tail may be short
    assert (got["energy"] >= 0).all() and (got["energy"] <= 255).all()


def test_lr_quality_learns(ray_session):
    """The trained classifier must separate en from non-en better than
    chance: mean score of label-1 docs above mean score of label-0
    docs, and scores within (0, 1)."""
    from dude_ray.pipelines.lr import run_lr_quality

    rows = run_lr_quality(SF).take_all()
    assert len(rows) > 100
    s1 = [r["lr_score"] for r in rows if r["label"] == 1]
    s0 = [r["lr_score"] for r in rows if r["label"] == 0]
    assert s1 and s0
    assert all(0.0 < r["lr_score"] < 1.0 for r in rows)
    assert sum(s1) / len(s1) > sum(s0) / len(s0)


def test_training_mix_invariants(ray_session):
    """Composed flagship: survivors are unique texts, scores at/above
    the data-derived threshold, packs contiguous in doc_id order with
    each pack (except possibly the last) spanning >= budget tokens from
    its first doc's start."""
    import pyarrow.parquet as pq

    from dude_ray.pipelines.lr import run_training_mix

    rows = sorted(run_training_mix(SF, budget=512).take_all(),
                  key=lambda r: r["doc_id"])
    assert rows
    # threshold cut is real (neither keep-all nor drop-all)
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id"])
    assert 0 < len(rows) < t.num_rows
    # pack ids monotone non-decreasing in doc order, starting at 0
    pids = [r["pack_id"] for r in rows]
    assert pids[0] == 0
    assert all(b - a in (0, 1) or b == a for a, b in zip(pids, pids[1:]))
    assert all(b >= a for a, b in zip(pids, pids[1:]))
    # offsets reconstruct: cumulative tokens // budget == pack_id
    acc = 0
    for r in rows:
        assert acc // 512 == r["pack_id"]
        acc += r["n_tokens"]


@pytest.mark.parametrize("small_tier_max_docs", [100_000, 0])
def test_substring_redact_removes_planted_paragraph(ray_session, tmp_path,
                                                    small_tier_max_docs):
    """Plant a >63-char shared paragraph between two docs; the
    higher-id doc must lose it, the keeper must stay untouched, and
    unrelated docs must not appear in the output.  Parametrized over
    BOTH application tiers (broadcast map / Bloom-prefiltered join —
    small_tier_max_docs=0 forces the join tier)."""
    import pyarrow.parquet as pq

    from dude_ray.pipelines.dedup import run_substring_redact

    para = ("this exact boilerplate paragraph is shared verbatim between "
            "two documents and is long enough to trip the winnow rule. " * 2)
    base = [
        "completely unrelated text number one with its own words",
        "another unrelated document talking about different things",
    ]
    texts = [
        base[0] + " " + para + " tail of keeper doc",
        "prefix of the dup doc " + para + " " + base[1],
        "a third doc with no duplication at all whatsoever in it",
    ]
    t = pa.table({
        "doc_id": pa.array([0, 1, 2], type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
        "lang": pa.array(["en"] * 3),
        "source": pa.array(["x"] * 3),
        "n_chars": pa.array([len(s) for s in texts], type=pa.int64()),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))
    rows = {r["doc_id"]: r for r in
            run_substring_redact(
                str(d), min_shared=1,
                small_tier_max_docs=small_tier_max_docs).take_all()}
    assert 1 in rows, "dup doc not redacted"
    assert para not in rows[1]["text"]
    assert rows[1]["n_redacted_chars"] >= len(para)
    assert 0 not in rows, "keeper must be untouched"
    assert 2 not in rows, "unrelated doc must be untouched"


def test_event_funnel_local_oracle(ray_session):
    """Funnel rows equal a local pandas recomputation (first 'view'
    per user, earliest 'purchase' at/after it), and the coarse bucket
    width is answer-invariant like every other user-keyed pipeline."""
    import pyarrow.parquet as pq

    from dude_ray.pipelines.relational import run_event_funnel

    got = {r["user_id"]: (r["first_view_us"], r["first_purchase_us"],
                          r["delay_us"])
           for r in run_event_funnel(SF).take_all()}

    t = pq.read_table(f"{SF}/events.parquet",
                      columns=["user_id", "event_type", "ts"]).to_pandas()
    t["ts_us"] = t["ts"].astype("int64")
    want = {}
    for uid, g in t.groupby("user_id"):
        views = g.loc[g["event_type"] == "view", "ts_us"]
        if not len(views):
            continue
        fv = int(views.min())
        purch = g.loc[(g["event_type"] == "purchase")
                      & (g["ts_us"] >= fv), "ts_us"]
        if not len(purch):
            continue
        fp = int(purch.min())
        want[int(uid)] = (fv, fp, fp - fv)
    assert got == want
    assert len(want) > 0

    again = {r["user_id"]: (r["first_view_us"], r["first_purchase_us"],
                            r["delay_us"])
             for r in run_event_funnel(SF, users_per_group=8).take_all()}
    assert again == got


def test_retention_cohorts_local_oracle(ray_session):
    """Retention triangle equals a local pandas recomputation and is
    bucket-width-invariant."""
    import pandas as pd
    import pyarrow.parquet as pq

    from dude_ray.pipelines.relational import WEEK_US, run_retention_cohorts

    got = {(r["cohort_week_us"], r["week_offset"]): r["n_users"]
           for r in run_retention_cohorts(SF).take_all()}

    t = pq.read_table(f"{SF}/events.parquet",
                      columns=["user_id", "ts"]).to_pandas()
    t["week"] = t["ts"].astype("int64") // WEEK_US
    uw = t[["user_id", "week"]].drop_duplicates()
    cohort = uw.groupby("user_id")["week"].transform("min")
    key = pd.DataFrame({"c": cohort, "o": uw["week"] - cohort})
    want = {(int(c) * WEEK_US, int(o)): int(n)
            for (c, o), n in key.groupby(["c", "o"]).size().items()}
    assert got == want
    assert sum(got.values()) >= t["user_id"].nunique()

    again = {(r["cohort_week_us"], r["week_offset"]): r["n_users"]
             for r in run_retention_cohorts(SF, users_per_group=8).take_all()}
    assert again == got


def test_bpe_pair_counts_local_oracle(ray_session):
    """Pair counts equal a plain-Python Counter over the same word
    stream, and the top pair is a plausible BPE first merge."""
    import re
    from collections import Counter

    import pyarrow.parquet as pq

    from dude_ray.pipelines.textops import TOKEN_RE, run_bpe_pair_counts

    got = {(r["left_ch"], r["right_ch"]): r["n"]
           for r in run_bpe_pair_counts(SF).take_all()}

    t = pq.read_table(f"{SF}/documents.parquet", columns=["text"])
    pat = re.compile(TOKEN_RE)
    want: Counter = Counter()
    for tx in t["text"].to_pylist():
        for w in pat.findall(tx or ""):
            w = w.lower()
            want.update(zip(w, w[1:]))
    assert got == dict(want)
    assert sum(got.values()) > 1000


def test_char_entropy_local_oracle(ray_session):
    """Entropy matches a numpy recomputation, is 0 for empty docs,
    maximal for all-distinct strings, and bounded by log2(alphabet)."""
    import numpy as np
    import pyarrow.parquet as pq

    from dude_ray.pipelines.textops import run_char_entropy

    rows = {r["doc_id"]: r for r in run_char_entropy(SF).take_all()}
    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"])
    for did, tx in list(zip(t["doc_id"].to_pylist(),
                            t["text"].to_pylist()))[:100]:
        cp = np.frombuffer((tx or "").encode("utf-32-le"), dtype=np.uint32)
        r = rows[did]
        if not len(cp):
            assert r["char_entropy"] == 0.0 and r["n_distinct_chars"] == 0
            continue
        _u, c = np.unique(cp, return_counts=True)
        cf = c.astype(np.float64)
        n = float(len(cp))
        want = np.log2(n) - float(np.dot(cf, np.log2(cf))) / n
        assert abs(r["char_entropy"] - want) < 1e-6
        assert r["n_distinct_chars"] == len(c)
        assert 0.0 <= r["char_entropy"] <= np.log2(len(c)) + 1e-9


def _serial_anchor_texts(span_rows) -> dict:
    """target → (n_incoming, n_distinct_anchors, top_anchor), recomputed
    serially from (doc_id, spans) rows."""
    from collections import Counter

    from dude_ray.canonical import LinkCanonicalizer

    counts: dict = {}
    for row in span_rows:
        canon = LinkCanonicalizer(row["doc_id"])
        for s in row["spans"]:
            if s["kind"] != "link" or not s["media_ref"]:
                continue
            t = canon(s["media_ref"])
            counts.setdefault(t, Counter())[s["text"] or ""] += 1
    want = {}
    for t, c in counts.items():
        top = min(c.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        want[t] = (sum(c.values()), len(c), top)
    return want


def test_anchor_texts_local_oracle(ray_session):
    """Anchor aggregation equals a serial recompute over the SAME
    extractor output (target resolution, counts, distinct anchors,
    top-anchor tie-break), and is group-width-invariant."""
    from dude_ray.pipelines.flagship import run_anchor_texts, run_extract

    got = {r["target"]: (r["n_incoming"], r["n_distinct_anchors"],
                         r["top_anchor"])
           for r in run_anchor_texts(SF).take_all()}

    want = _serial_anchor_texts(run_extract(SF).take_all())
    assert got == want
    assert len(want) > 50

    again = {r["target"]: (r["n_incoming"], r["n_distinct_anchors"],
                           r["top_anchor"])
             for r in run_anchor_texts(
                 SF, target_rows_per_group=64).take_all()}
    assert again == got


def _one_cpu_rows(name, ds):
    """The rows of a converted stateless-map query, in a JSON-stable
    order, for comparing a one-CPU session with the test session."""
    cols = {"lang_id": ["doc_id", "pred_lang", "lang_score"],
            "media_decode": ["media_ref", "width", "height", "n_frames",
                             "feature", "decode_status"],
            "minhash_dedup": ["a", "b", "jaccard"]}[name]
    return sorted([getattr(r[c], "tolist", lambda: r[c])() for c in cols]
                  for r in ds.take_all())


def test_extract_in_one_cpu_session(ray_session):
    """Span extraction and the other stateless maps are task stages, so
    ``run_extract``, ``run_anchor_texts``, ``run_lang_id``,
    ``run_media_decode`` and ``run_minhash_dedup`` complete in a Ray
    session with one logical CPU.  Spans and anchors equal the
    in-process ``SpanExtractor`` output; the other three equal their
    answers in the test session."""
    import inspect
    import json
    import os
    import signal
    import subprocess
    import sys

    import pyarrow.parquet as pq

    from dude_ray.pipelines.dedup import run_minhash_dedup
    from dude_ray.pipelines.flagship import flagship_rules
    from dude_ray.pipelines.textops import run_lang_id
    from dude_ray.sources.corpus import DEFAULT_NUM_PARTS, generate_batch
    from dude_ray.stages.extract import SpanExtractor
    from dude_ray.stages.multimodal import run_media_decode

    code = (
        "import json, ray\n"
        "ray.init(address='local', num_cpus=1, include_dashboard=False,"
        " logging_level='ERROR')\n"
        "from dude_ray.pipelines.flagship import run_anchor_texts, run_extract\n"
        f"spans = run_extract({SF!r}).take_all()\n"
        "print('SPANS ' + json.dumps([[r['doc_id'], r['spans']] for r in spans]))\n"
        f"anchors = run_anchor_texts({SF!r}).take_all()\n"
        "print('ANCHORS ' + json.dumps([[r['target'], r['n_incoming'],"
        " r['n_distinct_anchors'], r['top_anchor']] for r in anchors]))\n"
        "from dude_ray.pipelines.dedup import run_minhash_dedup\n"
        "from dude_ray.pipelines.textops import run_lang_id\n"
        "from dude_ray.stages.multimodal import run_media_decode\n"
        + inspect.getsource(_one_cpu_rows) +
        "for name, run in [('lang_id', run_lang_id),"
        " ('media_decode', run_media_decode),"
        " ('minhash_dedup', run_minhash_dedup)]:\n"
        f"    rows = _one_cpu_rows(name, run({SF!r}))\n"
        "    print(name.upper() + ' ' + json.dumps(rows))\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # own process group: a hung session is stopped with all its daemons
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=root, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=240)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    assert proc.returncode == 0, stderr[-3000:]

    def payload(tag):
        line = [ln for ln in stdout.splitlines() if ln.startswith(tag + " ")][-1]
        return json.loads(line.split(" ", 1)[1])

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    corpus = generate_batch(docs, n_docs=docs.num_rows,
                            num_parts=DEFAULT_NUM_PARTS)
    local = SpanExtractor(flagship_rules())(corpus.select(["doc_id", "html"]))
    want = dict(zip(local["doc_id"].to_pylist(), local["spans"].to_pylist()))
    got = dict(payload("SPANS"))
    assert len(got) == len(want) == docs.num_rows
    assert got == want

    rows = [{"doc_id": d, "spans": sp} for d, sp in want.items()]
    assert {t: (n, nd, top) for t, n, nd, top in payload("ANCHORS")} == \
        _serial_anchor_texts(rows)

    for name, run in [("lang_id", run_lang_id),
                      ("media_decode", run_media_decode),
                      ("minhash_dedup", run_minhash_dedup)]:
        here = json.loads(json.dumps(_one_cpu_rows(name, run(SF))))
        assert here and payload(name.upper()) == here, name


def test_chunk_dedup_planted_and_local(ray_session, tmp_path):
    """A doc that embeds another doc's full first window produces a
    shared chunk hash with the earlier (doc, chunk) as keeper; and the
    whole manifest equals a serial recompute."""
    import hashlib
    import re

    import pyarrow.parquet as pq

    from dude_ray.pipelines.dedup import run_chunk_dedup
    from dude_ray.pipelines.sampling import CHUNK_STRIDE, CHUNK_TOKENS
    from dude_ray.pipelines.textops import TOKEN_RE

    t = pq.read_table(f"{SF}/documents.parquet")
    texts = t["text"].to_pylist()
    pat = re.compile(TOKEN_RE)
    donor = next(tx for tx in texts if len(pat.findall(tx)) >= CHUNK_TOKENS)
    window = " ".join(pat.findall(donor)[:CHUNK_TOKENS])
    base = max(t["doc_id"].to_pylist()) + 1
    planted = pa.table({
        "doc_id": pa.array(list(t["doc_id"].to_pylist()) + [base],
                           type=pa.int64()),
        "text": pa.array(texts + [window], type=pa.string()),
        "lang": pa.array(["en"] * (len(texts) + 1)),
        "source": pa.array(["x"] * (len(texts) + 1)),
        "n_chars": pa.array([len(s) for s in texts] + [len(window)],
                            type=pa.int64()),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(planted, str(d / "documents.parquet"))

    rows = {r["h"]: r for r in run_chunk_dedup(str(d)).take_all()}

    # serial recompute
    want: dict = {}
    for did, tx in zip(planted["doc_id"].to_pylist(),
                       planted["text"].to_pylist()):
        toks = pat.findall(tx or "")
        for ci, s in enumerate(range(0, len(toks), CHUNK_STRIDE)):
            h = hashlib.md5(
                " ".join(toks[s:s + CHUNK_TOKENS]).encode()).hexdigest()
            k, c = want.get(h, ((did, ci), 0))
            want[h] = (min(k, (did, ci)), c + 1)
    assert {h: ((r["keeper_doc_id"], r["keeper_chunk_id"]),
                r["dup_count"]) for h, r in rows.items()} == want

    hp = hashlib.md5(window.encode()).hexdigest()
    donor_id = texts.index(donor)
    assert rows[hp]["dup_count"] >= 2
    assert rows[hp]["keeper_doc_id"] == t["doc_id"][donor_id].as_py()
    assert rows[hp]["keeper_chunk_id"] == 0

    # group width is a pure parallelism knob
    narrow = {r["h"]: r for r in run_chunk_dedup(
        str(d), target_rows_per_group=64).take_all()}
    assert {h: (r["keeper_doc_id"], r["keeper_chunk_id"], r["dup_count"])
            for h, r in narrow.items()} == \
        {h: (r["keeper_doc_id"], r["keeper_chunk_id"], r["dup_count"])
         for h, r in rows.items()}


def test_hll_registers_state_matches_estimate_path(ray_session):
    """The SQL-verifiable register rows are exactly the sketch state
    the estimate derives from, independent of batching."""
    import numpy as np
    import pyarrow.parquet as pq

    from dude_ray.pipelines.sketches import (_M, hll_estimate,
                                             hll_registers,
                                             run_hll_registers,
                                             run_distinct_users_approx)

    sf = "/root/testdata/sf0.001"
    rows = run_hll_registers(sf).take_all()

    # single-process reference per event_type
    t = pq.read_table(f"{sf}/events.parquet",
                      columns=["event_type", "user_id"])
    df = t.to_pandas()
    by_type = {}
    for et, g in df.groupby("event_type"):
        by_type[et] = hll_registers(g["user_id"].to_numpy().astype(np.uint64))
    got = {}
    for r in rows:
        got.setdefault(r["event_type"], np.zeros(_M, dtype=np.uint8))[
            r["reg"]] = r["rank"]
    assert set(got) == set(by_type)
    for et, regs in by_type.items():
        assert np.array_equal(got[et], regs), et

    # and the estimate path consumes exactly this state
    approx = {r["event_type"]: r["n_users_approx"]
              for r in run_distinct_users_approx(sf).take_all()}
    for et, regs in by_type.items():
        assert approx[et] == int(round(hll_estimate(regs))), et


def test_ngram_counts_matches_reference(ray_session):
    """Distributed n-gram counts equal a single-process recount; batch
    boundaries must not leak into the partial pre-aggregation."""
    import re
    from collections import Counter

    import pandas as pd
    import pyarrow.parquet as pq

    from dude_ray.pipelines.textops import TOKEN_RE, run_ngram_counts

    sf = "/root/testdata/sf0.001"
    texts = pq.read_table(f"{sf}/documents.parquet",
                          columns=["text"])["text"].to_pylist()
    cnt = Counter()
    tok = re.compile(TOKEN_RE)
    for t in texts:
        w = tok.findall((t or "").lower())
        for n in (1, 2, 3):
            for i in range(len(w) - n + 1):
                cnt[(n, " ".join(w[i:i + n]))] += 1
    rows = []
    df = pd.DataFrame([(n, g, c) for (n, g), c in cnt.items()],
                      columns=["n", "gram", "cnt"])
    df = df[df["cnt"] >= 5]
    for n, g in df.groupby("n"):
        g = (g.sort_values(["cnt", "gram"], ascending=[False, True])
              .head(100).reset_index(drop=True))
        g["rank"] = range(1, len(g) + 1)
        rows.append(g)
    want = (pd.concat(rows).sort_values(["n", "rank"])
            .reset_index(drop=True)[["n", "gram", "cnt", "rank"]])

    for bs in (64, 4096):
        got = (run_ngram_counts(sf, batch_size=bs).to_pandas()
               .sort_values(["n", "rank"]).reset_index(drop=True))
        pd.testing.assert_frame_equal(
            got[["n", "gram", "cnt", "rank"]], want, check_dtype=False)


def test_bloom_registers_membership(ray_session):
    """Bloom state: every document's k bits are set (no false
    negatives, the Bloom guarantee), random absent strings are mostly
    rejected, and the state is invariant to batch size (union is
    commutative + idempotent)."""
    import numpy as np
    import pyarrow.parquet as pq

    from dude_ray.pipelines.sketches import (BLOOM_K, bloom_bits,
                                             run_bloom_registers)

    sf = "/root/testdata/sf0.001"
    got = set(run_bloom_registers(sf).to_pandas()["bit"])
    texts = pq.read_table(f"{sf}/documents.parquet",
                          columns=["text"])["text"].to_pylist()
    for t in texts[:50]:
        assert set(bloom_bits([t])) <= got  # no false negatives
    fp = sum(set(bloom_bits([f"absent-{i}-xyzzy"])) <= got
             for i in range(200))
    assert fp < 40  # FPR ~ (fill)^k, far below 20% here

    small = set(run_bloom_registers(sf, batch_size=7).to_pandas()["bit"])
    assert small == got


def test_ccnet_buckets_all_tied_boundary(ray_session, tmp_path):
    """Adversarial tercile case: one coarse bucket holds EVERY doc of a
    language (identical texts → identical lm_scores), so BOTH tercile
    cuts fall inside it and the boundary refinement must 3-way-split
    the tie group purely by doc_id — compared against the DuckDB
    ntile oracle on the same data."""
    import duckdb
    import pyarrow.parquet as pq

    from dude_ray.pipelines.ccnet import ccnet_oracle_sql, run_ccnet_buckets

    same = "the cat sat on the mat and the dog ran for the hill"
    other = "el gato y la casa es una cosa y los perros"
    texts = [same] * 11 + [other] * 4
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
        "lang": pa.array(["en"] * len(texts)),
        "source": pa.array(["x"] * len(texts)),
        "n_chars": pa.array([len(s) for s in texts], type=pa.int64()),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))

    got = sorted(run_ccnet_buckets(str(d)).to_pandas()
                 .itertuples(index=False, name=None))
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{d}/documents.parquet')")
    want = sorted(tuple(r) for r in
                  con.execute(ccnet_oracle_sql()).fetchall())
    assert got == want
    # the tie group really did split 4/4/3 by doc_id
    en = [r for r in got if r[1] == "en"]
    assert [r[3] for r in sorted(en)] == (
        ["head"] * 4 + ["middle"] * 4 + ["tail"] * 3)


def test_source_stats_local_oracle(ray_session):
    """Per-source rollup equals a single-process pandas recount, and
    the partial/merge path is batch-size invariant (a batch boundary
    splitting a source must not change any exact count)."""
    import re

    import pandas as pd
    import pyarrow.parquet as pq

    from dude_ray.pipelines.textops import TOKEN_RE, run_source_stats

    sf = "/root/testdata/sf0.001"
    df = pq.read_table(f"{sf}/documents.parquet",
                       columns=["source", "lang", "text",
                                "n_chars"]).to_pandas()
    tok = re.compile(TOKEN_RE)
    df["toks"] = [len(tok.findall(t or "")) for t in df["text"]]
    want = (df.groupby("source")
            .agg(n_docs=("source", "size"), n_tokens=("toks", "sum"),
                 n_chars=("n_chars", "sum"), n_langs=("lang", "nunique"))
            .reset_index().sort_values("source").reset_index(drop=True))

    for bs in (64, 4096):
        got = (run_source_stats(sf, batch_size=bs).to_pandas()
               .sort_values("source").reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_readability_local_oracle(ray_session):
    """Flesch score equals a single-process recompute BIT-EXACTLY —
    the same left-associated float64 expression must make the doubles
    identical with no tolerance."""
    import re

    import pandas as pd
    import pyarrow.parquet as pq

    from dude_ray.pipelines.textops import (SENT_RE, TOKEN_RE, VOWEL_RE,
                                            run_readability)

    sf = "/root/testdata/sf0.001"
    t = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    tok, vow, sen = (re.compile(TOKEN_RE), re.compile(VOWEL_RE),
                     re.compile(SENT_RE))
    rows = []
    for doc_id, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        low = (text or "").lower()
        words = tok.findall(low)
        nw = len(words)
        ns = max(len(sen.findall(low)), 1)
        sy = sum(max(len(vow.findall(w)), 1) for w in words)
        fl = 206.835 - 1.015 * (nw / ns) - 84.6 * (sy / max(nw, 1))
        rows.append((doc_id, nw, ns, sy, fl))
    want = (pd.DataFrame(rows, columns=["doc_id", "n_words", "n_sentences",
                                        "n_syllables", "flesch"])
            .sort_values("doc_id").reset_index(drop=True))

    got = (run_readability(sf).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)


def test_phrase_search_planted(ray_session, tmp_path):
    """Planted-phrase exactness: overlapping and repeated occurrences
    count correctly, punctuation between tokens breaks adjacency only
    when it splits tokens, and phrase-free docs are absent."""
    import pyarrow.parquet as pq

    from dude_ray.pipelines.textops import run_phrase_search

    texts = [
        "the hash table hash table hash lives here",   # 2 matches
        "HASH, TABLE! hash table",                      # 2 (case/punct-split)
        "hash alone and table alone never adjacent",    # 0
        "table hash table hash table",                  # 2 of (table, hash)
    ]
    t = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
        "lang": pa.array(["en"] * 4),
        "source": pa.array(["x"] * 4),
        "n_chars": pa.array([len(s) for s in texts], type=pa.int64()),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))

    got = {r["doc_id"]: r["n_matches"]
           for r in run_phrase_search(str(d),
                                      phrase=("hash", "table")).take_all()}
    assert got == {0: 2, 1: 2, 3: 2}

    got3 = {r["doc_id"]: r["n_matches"]
            for r in run_phrase_search(
                str(d), phrase=("table", "hash", "table")).take_all()}
    # doc 3 overlaps: positions 0 and 2 both start "table hash table"
    assert got3 == {0: 1, 1: 1, 3: 2}


def test_contamination_overlap_invariants(ray_session):
    """Benchmark-slice docs (doc_id % 97 == 0) with any grams are 100%
    contained by construction → contaminated; hit counts equal a
    single-process recount against the same gram set."""
    import re

    import pyarrow.parquet as pq

    from dude_ray.pipelines.textops import (CONTAM_MOD, CONTAM_N, TOKEN_RE,
                                            run_contamination_overlap)

    sf = "/root/testdata/sf0.001"
    t = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    tok = re.compile(TOKEN_RE)

    def grams(text):
        w = tok.findall((text or "").lower())
        return {" ".join(w[i:i + CONTAM_N])
                for i in range(len(w) - CONTAM_N + 1)}

    bench = set()
    per_doc = {}
    for doc_id, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        gs = grams(text)
        per_doc[doc_id] = gs
        if doc_id % CONTAM_MOD == 0:
            bench |= gs

    got = {r["doc_id"]: r
           for r in run_contamination_overlap(sf).take_all()}
    assert set(got) == set(per_doc)
    for doc_id, gs in per_doc.items():
        r = got[doc_id]
        assert r["n_grams"] == len(gs)
        assert r["hit_grams"] == len(gs & bench)
        assert r["contaminated"] == (len(gs & bench) * 8 >= len(gs)
                                     and len(gs) > 0)
        if doc_id % CONTAM_MOD == 0 and len(gs) > 0:
            assert r["contaminated"]


def test_dataset_split_local_oracle(ray_session):
    """Split assignment equals a local splitmix64 recompute, depends
    only on doc_id (batch-size invariant), and lands near 80/10/10."""
    import numpy as np
    import pyarrow.parquet as pq

    from dude_ray.pipelines.sampling import (SPLIT_BUCKETS, SPLIT_EDGES,
                                             run_dataset_split)
    from dude_ray.pipelines.sketches import _mix64

    sf = "/root/testdata/sf0.001"
    ids = pq.read_table(f"{sf}/documents.parquet",
                        columns=["doc_id"])["doc_id"].to_numpy()
    b = (_mix64(ids.astype(np.uint64)) % np.uint64(SPLIT_BUCKETS)).astype(int)
    names = np.array(["train", "val", "test"], dtype=object)
    want = {int(i): (int(bb), names[np.searchsorted(SPLIT_EDGES, bb,
                                                    side="right")])
            for i, bb in zip(ids, b)}

    for bs in (32, 65536):
        got = {r["doc_id"]: (r["bucket"], r["split"])
               for r in run_dataset_split(sf, batch_size=bs).take_all()}
        assert got == want

    frac_train = sum(1 for _b, s in want.values() if s == "train") / len(want)
    assert 0.7 < frac_train < 0.9


def test_dup_rate_by_source_planted(ray_session, tmp_path):
    """Planted exact duplicates: copies count as dup docs in EVERY
    source holding one (cross-source dup included); unique docs don't;
    the reduce is group-width invariant."""
    import pyarrow.parquet as pq

    from dude_ray.pipelines.dedup import run_dup_rate_by_source

    texts = ["same exact text", "same exact text",   # dup within src a
             "same exact text",                      # same content, src b
             "unique one", "unique two"]              # uniques
    srcs = ["a", "a", "b", "a", "b"]
    t = pa.table({
        "doc_id": pa.array(range(5), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
        "lang": pa.array(["en"] * 5),
        "source": pa.array(srcs, type=pa.string()),
        "n_chars": pa.array([len(s) for s in texts], type=pa.int64()),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))

    for width in (1, 65536):
        got = {r["source"]: (r["n_docs"], r["n_dup_docs"])
               for r in run_dup_rate_by_source(
                   str(d), target_rows_per_group=width).take_all()}
        assert got == {"a": (3, 2), "b": (2, 1)}


def test_editdist_neardup_planted(ray_session, tmp_path):
    """Planted typo clones: dist-0 (exact), one-substitution,
    one-insertion pairs are found with the right distance; a dist-2
    false candidate ('ab'/'ba' shares a deletion key) and unrelated
    docs are absent; the byte-based contract counts a 2-byte UTF-8
    substitution ('café'→'cafe') as dist 2; width-invariant."""
    import pyarrow.parquet as pq

    from dude_ray.pipelines.dedup import run_editdist_neardup

    texts = [
        "the quick brown fox jumps here",        # 0
        "the quick brown fox jumps here",        # 1: dist 0 with 0
        "the quick browm fox jumps here",        # 2: 1 substitution
        "the quick brown foxx jumps here",       # 3: 1 insertion vs 0
        "completely different text entirely",    # 4: unrelated
        "ab", "ba",                              # 5,6: dist 2, false cand
        "café and more words follow here ok",    # 7
        "cafe and more words follow here ok",    # 8: byte-dist 2 vs 7
    ]
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
        "lang": pa.array(["en"] * len(texts)),
        "source": pa.array(["x"] * len(texts)),
        "n_chars": pa.array([len(s) for s in texts], type=pa.int64()),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))

    for width in (1, 65536):
        got = {(r["a"], r["b"]): r["dist"]
               for r in run_editdist_neardup(
                   str(d), target_rows_per_group=width).take_all()}
        assert got[(0, 1)] == 0
        assert got[(0, 2)] == 1 and got[(1, 2)] == 1
        assert got[(0, 3)] == 1 and got[(1, 3)] == 1
        assert (2, 3) not in got            # browN→brown + foxx = dist 2
        assert (5, 6) not in got            # SymSpell false candidate
        assert (7, 8) not in got            # byte-dist 2 (é is 2 bytes)
        assert all(a < 4 and b < 4 for a, b in got)


def test_shipping_priority_local_oracle(ray_session):
    """Q3-shaped fact-x-fact shuffle join equals a DuckDB recompute at
    sf0.001 and is hash-group-width invariant (the orders/lineitem
    streams meeting in different bucket layouts must not change the
    join or the top-k cut)."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_shipping_priority,
                                               shipping_priority_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    for t in ("customer", "orders", "lineitem"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    want = con.execute(shipping_priority_oracle_sql()).df()
    assert len(want) == 10

    for width in (256, 65536):
        got = (run_shipping_priority(sf, target_rows_per_group=width)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_events_lag_diff_local_oracle(ray_session):
    """Lag deltas equal a single-process pandas window recompute
    bit-exactly, and are user-bucket-width invariant (a user's
    timeline always lands whole in one bucket)."""
    import pandas as pd
    import pyarrow.parquet as pq

    from dude_ray.pipelines.relational import run_events_lag_diff

    sf = "/root/testdata/sf0.001"
    df = (pq.read_table(f"{sf}/events.parquet",
                        columns=["event_id", "user_id", "ts", "value"])
          .to_pandas().sort_values(["user_id", "ts", "event_id"]))
    g = df.groupby("user_id", sort=False)
    df["prev_value"] = g["value"].shift(1)
    df["value_delta"] = df["value"] - df["prev_value"]
    df["prev_ts"] = g["ts"].shift(1)
    df = df.dropna(subset=["prev_ts"])
    unit_div = 1000 if str(df["ts"].dtype).endswith("[ns]") else 1
    df["gap_us"] = ((df["ts"].astype("int64")
                     - df["prev_ts"].astype("int64")) // unit_div)
    want = (df[["event_id", "prev_value", "value_delta", "gap_us"]]
            .sort_values("event_id").reset_index(drop=True))

    for width in (4, 1 << 20):
        got = (run_events_lag_diff(sf, users_per_group=width).to_pandas()
               .sort_values("event_id").reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_exact=True)


def test_events_rolling_local_oracle(ray_session):
    """row_number / running total / 3-row moving average equal the
    DuckDB window recompute at sf0.001 and are user-bucket-width
    invariant."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_events_rolling,
                                               events_rolling_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = (con.execute(events_rolling_oracle_sql()).df()
            .sort_values("event_id").reset_index(drop=True))
    assert len(want) > 0

    for width in (4, 1 << 20):
        got = (run_events_rolling(sf, users_per_group=width).to_pandas()
               .sort_values("event_id").reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_revenue_by_nation_local_oracle(ray_session):
    """Q5-shaped six-table join equals a DuckDB recompute at sf0.001
    and is hash-group-width invariant."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_revenue_by_nation,
                                               revenue_by_nation_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    for t in ("customer", "orders", "lineitem", "supplier", "nation",
              "region"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    want = con.execute(revenue_by_nation_oracle_sql()).df()
    assert len(want) > 0

    for width in (256, 65536):
        got = (run_revenue_by_nation(sf, target_rows_per_group=width)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_qty_rollup_local_oracle(ray_session):
    """ROLLUP(l_returnflag, l_linestatus) expansion equals the DuckDB
    GROUP BY ROLLUP recompute at sf0.001, exactly (integral sums)."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_qty_rollup,
                                               qty_rollup_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM "
                f"read_parquet('{sf}/lineitem.parquet')")
    want = con.execute(qty_rollup_oracle_sql()).df().reset_index(drop=True)
    assert len(want) > 3  # detail + subtotal + grand total present

    got = run_qty_rollup(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)


def test_cheapest_part_local_oracle(ray_session):
    """Groupwise argmin equals the DuckDB row_number()=1 recompute at
    sf0.001 and is hash-group-width invariant (exact floats — the
    winning price passes through untouched)."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_cheapest_part,
                                               cheapest_part_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM "
                f"read_parquet('{sf}/lineitem.parquet')")
    want = con.execute(cheapest_part_oracle_sql()).df().reset_index(drop=True)
    assert len(want) > 0

    for width in (64, 1 << 20):
        got = (run_cheapest_part(sf, target_rows_per_group=width)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_priority_semijoin_local_oracle(ray_session):
    """EXISTS semi-join (Q4 shape) equals the DuckDB recompute at
    sf0.001 and is hash-group-width invariant (integer counts)."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_priority_semijoin,
                                               priority_semijoin_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    for t in ("orders", "lineitem"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    want = (con.execute(priority_semijoin_oracle_sql()).df()
            .reset_index(drop=True))
    assert len(want) > 0

    for width in (64, 1 << 20):
        got = (run_priority_semijoin(sf, target_rows_per_group=width)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_lapsed_customers_local_oracle(ray_session):
    """NOT EXISTS anti-join (Q22 shape) equals the DuckDB recompute at
    sf0.001, bit-exact via the integer-cents contract, width
    invariant."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_lapsed_customers,
                                               lapsed_customers_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    for t in ("customer", "orders"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    want = (con.execute(lapsed_customers_oracle_sql()).df()
            .reset_index(drop=True))
    assert len(want) > 0

    for width in (64, 1 << 20):
        got = (run_lapsed_customers(sf, target_rows_per_group=width)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_user_top_event_local_oracle(ray_session):
    """Groupwise mode (top event_type per user) equals the DuckDB
    row_number()=1 recompute at sf0.001 and is width invariant."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_user_top_event,
                                               user_top_event_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = (con.execute(user_top_event_oracle_sql()).df()
            .reset_index(drop=True))
    assert len(want) > 0

    for width in (64, 1 << 20):
        got = (run_user_top_event(sf, target_rows_per_group=width)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_event_pivot_local_oracle(ray_session):
    """Crosstab (count column per event_type + total per user) equals
    the DuckDB FILTER-column recompute at sf0.001 and is width
    invariant."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_event_pivot,
                                               event_pivot_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = (con.execute(event_pivot_oracle_sql(sf)).df()
            .reset_index(drop=True))
    assert len(want) > 0 and len(want.columns) > 3

    for width in (64, 1 << 20):
        got = (run_event_pivot(sf, target_rows_per_group=width)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_event_transitions_local_oracle(ray_session):
    """Markov transition counts equal the DuckDB LAG recompute at
    sf0.001 and are user-bucket-width invariant."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_event_transitions,
                                               event_transitions_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = (con.execute(event_transitions_oracle_sql()).df()
            .reset_index(drop=True))
    assert len(want) > 0

    for width in (4, 1 << 20):
        got = (run_event_transitions(sf, users_per_group=width)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_small_qty_revenue_local_oracle(ray_session):
    """Correlated avg-threshold filter (Q17 shape widened to every
    brand) equals the DuckDB recompute at sf0.001, bit-exact via the
    integer-cents contract, hash-group-width invariant."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_small_qty_revenue,
                                               small_qty_revenue_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    for t in ("lineitem", "part"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    want = (con.execute(small_qty_revenue_oracle_sql()).df()
            .reset_index(drop=True))
    assert len(want) > 0

    for width in (64, 1 << 20):
        got = (run_small_qty_revenue(sf, target_rows_per_group=width)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_large_orders_local_oracle(ray_session):
    """HAVING-filtered aggregate + two-hop join (Q18 shape) equals the
    DuckDB recompute at sf0.001 and is hash-group-width invariant
    (integral quantities sum exactly at any width)."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_large_orders,
                                               large_orders_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    for t in ("customer", "orders", "lineitem"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    # sf0.001 orders are small: lower the HAVING cut so the survivor
    # set is non-trivial at this scale
    want = (con.execute(large_orders_oracle_sql(min_qty=120.0)).df()
            .reset_index(drop=True))
    assert len(want) > 0

    for width in (64, 1 << 20):
        got = (run_large_orders(sf, min_qty=120.0,
                                target_rows_per_group=width)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_qty_cube_local_oracle(ray_session):
    """Full CUBE lattice (detail + both marginals + grand total)
    equals the DuckDB GROUP BY CUBE recompute at sf0.001."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_qty_cube,
                                               qty_cube_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM "
                f"read_parquet('{sf}/lineitem.parquet')")
    want = con.execute(qty_cube_oracle_sql()).df().reset_index(drop=True)
    # detail + flag marginals + status marginals + grand total
    assert len(want) > 6

    got = run_qty_cube(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)


def test_event_trigrams_local_oracle(ray_session):
    """Per-user sequence trigram counts equal the DuckDB double-LAG
    recompute at sf0.001 and are user-bucket-width invariant."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_event_trigrams,
                                               event_trigrams_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = (con.execute(event_trigrams_oracle_sql()).df()
            .reset_index(drop=True))
    assert len(want) > 0

    for width in (4, 1 << 20):
        got = (run_event_trigrams(sf, users_per_group=width)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_winsorize_local_oracle(ray_session):
    """Percentile clipping equals the DuckDB row_number-rule recompute
    at sf0.001, bit-exact (clipping passes exact doubles through)."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_winsorize,
                                               winsorize_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = con.execute(winsorize_oracle_sql()).df().reset_index(drop=True)
    assert len(want) > 0
    assert (want["value_w"] != want["value"]).any()  # clipping bites

    got = run_winsorize(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)


def test_pareto_front_local_oracle(ray_session):
    """2D skyline equals the DuckDB strict-dominance NOT EXISTS
    recompute at sf0.001 and is batch-fragmentation invariant (local
    fronts merge to the exact global front)."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_pareto_front,
                                               pareto_front_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW part AS SELECT * FROM "
                f"read_parquet('{sf}/part.parquet')")
    want = (con.execute(pareto_front_oracle_sql()).df()
            .reset_index(drop=True))
    assert len(want) > 0

    for bs in (16, 65536):  # 16 forces many local fronts + the merge
        got = (run_pareto_front(sf, batch_size=bs)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_hash_features_local_oracle(ray_session):
    """Hashing-trick feature triples equal the DuckDB md5-hex-fold
    recompute at sf0.001 (every feature id reproduced bit-for-bit)."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.textops import (run_hash_features,
                                            hash_features_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = (con.execute(hash_features_oracle_sql()).df()
            .reset_index(drop=True))
    assert len(want) > 0

    got = run_hash_features(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)


def test_rrf_fusion_local_oracle(ray_session):
    """Reciprocal-rank fusion equals the DuckDB row_number recompute
    at sf0.001 and is user-bucket-width invariant; k below the user
    count exercises the partial-overlap union of the two lists."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_rrf_fusion,
                                               rrf_fusion_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = (con.execute(rrf_fusion_oracle_sql(k=8)).df()
            .reset_index(drop=True))
    assert len(want) >= 8
    # both lists contribute users the other lacks
    assert (want["rank_value"] == 0).any()
    assert (want["rank_count"] == 0).any()

    for width in (4, 1 << 20):
        got = (run_rrf_fusion(sf, k=8, users_per_group=width)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_asof_attribution_local_oracle(ray_session):
    """As-of join (purchase -> most recent preceding view per user)
    equals the DuckDB IGNORE-NULLS window recompute at sf0.001 and is
    user-bucket-width invariant (the forward-fill kernel is exact for
    any partitioning that keeps a user's rows together)."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_asof_attribution,
                                               asof_attribution_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = (con.execute(asof_attribution_oracle_sql()).df()
            .reset_index(drop=True))
    assert len(want) > 0
    assert (want["gap_us"] > 0).all()

    for width in (4, 1 << 20):
        got = (run_asof_attribution(sf, users_per_group=width)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_median_by_type_local_oracle(ray_session):
    """Exact per-type median via the mergeable value histogram equals
    DuckDB median() at sf0.001 — both the odd (middle element) and
    even (interpolated midpoint) arms must fire across the types."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_median_by_type,
                                               median_by_type_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = (con.execute(median_by_type_oracle_sql()).df()
            .reset_index(drop=True))
    assert len(want) > 0
    # both parities present so both median arms are exercised
    assert (want["n_rows"] % 2 == 0).any()
    assert (want["n_rows"] % 2 == 1).any()

    got = run_median_by_type(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)


def test_top_orders_per_cust_local_oracle(ray_session):
    """Top-N per key equals the DuckDB row_number recompute at
    sf0.001 across both hash_grouped_reduce tiers (tiny groups force
    the multi-partition path; huge groups collapse to one)."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_top_orders_per_cust,
                                               top_orders_per_cust_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM "
                f"read_parquet('{sf}/orders.parquet')")
    want = (con.execute(top_orders_per_cust_oracle_sql(n=3)).df()
            .reset_index(drop=True))
    assert len(want) > 0
    assert (want["rank"] == 3).any()  # some customers have >= 3 orders

    for trg in (64, 1 << 22):
        got = (run_top_orders_per_cust(sf, n=3,
                                       target_rows_per_group=trg)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_user_type_profile_local_oracle(ray_session):
    """Ordered distinct string aggregation equals the DuckDB
    list_sort(list(DISTINCT ...)) recompute at sf0.001 and is
    user-bucket-width invariant."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_user_type_profile,
                                               user_type_profile_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = (con.execute(user_type_profile_oracle_sql()).df()
            .reset_index(drop=True))
    assert len(want) > 0
    assert want["type_profile"].str.contains(",").any()

    for width in (4, 1 << 20):
        got = (run_user_type_profile(sf, users_per_group=width)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_custdist_local_oracle(ray_session):
    """Order-count distribution equals the DuckDB LEFT JOIN recompute
    at sf0.001 across both hash_grouped_reduce tiers."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_custdist,
                                               custdist_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    for t in ("customer", "orders"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    want = con.execute(custdist_oracle_sql()).df().reset_index(drop=True)
    assert len(want) > 0

    for trg in (64, 1 << 22):
        got = (run_custdist(sf, target_rows_per_group=trg)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_custdist_zero_bucket(ray_session, tmp_path):
    """Customers with NO orders land in the arithmetic zero bucket
    (the testdata has none, so synthesize the case)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from dude_ray.pipelines.relational import run_custdist

    pq.write_table(pa.table({"c_custkey": pa.array([1, 2, 3, 4, 5],
                                                   type=pa.int64())}),
                   str(tmp_path / "customer.parquet"))
    pq.write_table(pa.table({
        "o_custkey": pa.array([1, 1, 1, 2], type=pa.int64())}),
        str(tmp_path / "orders.parquet"))

    got = run_custdist(str(tmp_path)).to_pandas()
    dist = dict(zip(got["c_count"], got["custdist"]))
    assert dist == {3: 1, 1: 1, 0: 3}


def test_returned_items_local_oracle(ray_session):
    """Q10-shape top-k equals the DuckDB recompute at sf0.001 across
    both hash_grouped_reduce tiers (rounding applied before the cut
    on both engines)."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_returned_items,
                                               returned_items_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    for t in ("customer", "orders", "lineitem", "nation"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    want = (con.execute(returned_items_oracle_sql(k=10)).df()
            .reset_index(drop=True))
    assert len(want) == 10

    for trg in (64, 1 << 22):
        got = (run_returned_items(sf, k=10, target_rows_per_group=trg)
               .reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_top_supplier_local_oracle(ray_session):
    """Q15-shape global argmax equals the DuckDB scalar-subquery
    recompute at sf0.001 across both hash_grouped_reduce tiers."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_top_supplier,
                                               top_supplier_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    for t in ("supplier", "lineitem"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    want = (con.execute(top_supplier_oracle_sql()).df()
            .reset_index(drop=True))
    assert len(want) >= 1

    for trg in (64, 1 << 22):
        got = (run_top_supplier(sf, target_rows_per_group=trg)
               .reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_disjunctive_revenue_local_oracle(ray_session):
    """Q19-shape OR-of-conjunctions revenue equals the DuckDB join
    recompute at sf0.001, and every clause contributes rows (so the
    vectorized OR-reduction is fully exercised)."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (Q19_CLAUSES,
                                               run_disjunctive_revenue,
                                               disjunctive_revenue_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    for t in ("part", "lineitem"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    want = (con.execute(disjunctive_revenue_oracle_sql()).df()
            .reset_index(drop=True))
    assert want["revenue"][0] > 0
    for clause in Q19_CLAUSES:  # each clause alone matches something
        solo = con.execute(
            disjunctive_revenue_oracle_sql(clauses=(clause,))).df()
        assert solo["revenue"][0] > 0

    got = run_disjunctive_revenue(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)


def test_promo_revenue_local_oracle(ray_session):
    """Q14-shape conditional-ratio equals the DuckDB join recompute at
    sf0.001 (single scalar, broadcast bitmask membership)."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_promo_revenue,
                                               promo_revenue_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    for t in ("part", "lineitem"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    want = (con.execute(promo_revenue_oracle_sql()).df()
            .reset_index(drop=True))
    assert 0 < want["promo_revenue"][0] < 100

    got = run_promo_revenue(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)


def test_volume_shipping_local_oracle(ray_session):
    """Q7-shape bidirectional nation-pair revenue equals the DuckDB
    six-table recompute at sf0.001 across both hash_grouped_reduce
    tiers, and both directions appear."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_volume_shipping,
                                               volume_shipping_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    for t in ("supplier", "lineitem", "orders", "customer", "nation"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    # sf0.001 is too sparse for the sf0.01 default pair — use one
    # known to have traffic in BOTH directions in the date window.
    na, nb = "NATION_12", "NATION_13"
    want = (con.execute(volume_shipping_oracle_sql(na, nb)).df()
            .reset_index(drop=True))
    assert len(want) > 0
    assert want["supp_nation"].nunique() == 2  # both directions

    for trg in (64, 1 << 22):
        got = (run_volume_shipping(sf, nation_a=na, nation_b=nb,
                                   target_rows_per_group=trg)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_broadcast_joins_start_no_map_actor(ray_session):
    """The broadcast joins, span extraction and every other stateless
    map are task stages: running two broadcast-join queries, the
    anchor-text aggregation, the link graph build and one converted
    query per module creates no Ray Data ``MapWorker`` actor."""
    import ray._private.state as gcs

    from dude_ray.pipelines.bpe import run_bpe_encode
    from dude_ray.pipelines.cleaning import run_decontaminate
    from dude_ray.pipelines.clustering import run_kmeans_assign
    from dude_ray.pipelines.dedup import run_simhash_dedup
    from dude_ray.pipelines.flagship import run_anchor_texts
    from dude_ray.pipelines.graph import link_edges
    from dude_ray.pipelines.ranking import run_bm25
    from dude_ray.pipelines.relational import (run_revenue_by_nation,
                                               run_volume_shipping)
    from dude_ray.pipelines.similarity import run_ann_lsh
    from dude_ray.stages.multimodal import run_media_frames

    def map_actors():
        return {a["ActorID"] for a in gcs.actors().values()
                if "MapWorker" in a.get("ActorClassName", "")}

    before = map_actors()
    run_revenue_by_nation(SF).materialize()
    run_volume_shipping(SF).materialize()
    run_anchor_texts(SF).materialize()
    link_edges(SF)
    for run in (run_simhash_dedup, run_kmeans_assign, run_ann_lsh,
                run_bm25, run_bpe_encode, run_decontaminate,
                run_media_frames):
        out = run(SF)
        if hasattr(out, "materialize"):
            out.materialize()
    assert map_actors() == before


def test_link_edges_start_no_actor(ray_session):
    """``link_edges`` restricts edges to corpus pages with a broadcast
    semi-join inside its edge map: it creates no ``HashShuffleAggregator``
    (a shuffle join boots those per call) and no ``MapWorker`` actor."""
    import ray._private.state as gcs

    from dude_ray.pipelines.graph import link_edges

    def actors():
        return {a["ActorID"] for a in gcs.actors().values()
                if any(name in a.get("ActorClassName", "")
                       for name in ("HashShuffleAggregator", "MapWorker"))}

    before = actors()
    edges, nodes = link_edges(SF)
    assert edges.count() > 0 and nodes.count() > 0
    assert actors() == before


def test_scraper_follow_starts_no_map_actor(ray_session, tmp_path):
    """``Scraper.run`` maps each frontier release round with a
    ``PageWorker`` instance, a task stage: a ``follow_urls`` scrape of
    a 6-page ``file://`` chain (6 rounds) returns every page's row in
    chain order and creates no ``MapWorker`` actor."""
    import ray._private.state as gcs

    from dude_ray.scraper import Scraper

    for i in range(6):
        nxt = f'<a href="p{i + 1}.html">next</a>' if i < 5 else ""
        (tmp_path / f"p{i}.html").write_text(
            f'<div class="item"><p class="title">Page {i}</p></div>{nxt}')
    app = Scraper()

    @app.select(css=".title", group_css=".item")
    def title(el):
        return {"title": el.text_content()}

    def map_actors():
        return {a["ActorID"] for a in gcs.actors().values()
                if "MapWorker" in a.get("ActorClassName", "")}

    before = map_actors()
    rows = app.run(urls=[f"file://{tmp_path}/p0.html"], follow_urls=True)
    assert [(r["title"], r["_page_url"].rsplit("/", 1)[-1]) for r in rows] \
        == [(f"Page {i}", f"p{i}.html") for i in range(6)]
    assert map_actors() == before


def test_volume_shipping_no_qualifying_rows(ray_session, tmp_path):
    """Star tables with no supplier in either nation: the engine returns
    the declared 4 columns and 0 rows, as DuckDB does, not a frame
    without columns."""
    import duckdb
    import pandas as pd
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from dude_ray.pipelines.relational import (run_volume_shipping,
                                               volume_shipping_oracle_sql)

    sf = SF
    na, nb = "NATION_12", "NATION_13"
    nation = pq.read_table(f"{sf}/nation.parquet")
    keys = nation.filter(pc.is_in(nation["n_name"], pa.array([na, nb])))["n_nationkey"]
    for t in ("lineitem", "orders", "customer", "nation"):
        pq.write_table(pq.read_table(f"{sf}/{t}.parquet"), tmp_path / f"{t}.parquet")
    sup = pq.read_table(f"{sf}/supplier.parquet")
    pq.write_table(sup.filter(pc.invert(pc.is_in(sup["s_nationkey"], keys))),
                   tmp_path / "supplier.parquet")

    con = duckdb.connect()
    for t in ("supplier", "lineitem", "orders", "customer", "nation"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{tmp_path}/{t}.parquet')")
    want = con.execute(volume_shipping_oracle_sql(na, nb)).df()
    assert len(want) == 0 and len(want.columns) == 4
    got = run_volume_shipping(str(tmp_path), nation_a=na,
                              nation_b=nb).to_pandas()
    assert list(got.columns) == list(want.columns)
    assert len(got) == 0


def test_audience_overlap_local_oracle(ray_session):
    """Bitmask-histogram pair counts equal the DuckDB self-join
    recompute at sf0.001, invariant to the user-bucket width."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_audience_overlap,
                                               audience_overlap_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = (con.execute(audience_overlap_oracle_sql()).df()
            .reset_index(drop=True))
    assert len(want) > 1

    for nb in (2, 64):
        got = (run_audience_overlap(sf, n_buckets=nb)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_spend_deciles_local_oracle(ray_session):
    """Histogram-derived NTILE stats equal the DuckDB window recompute
    at sf0.001 across both hash_grouped_reduce tiers (per-tile stats
    are tie-invariant, so the histogram shortcut is exact)."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_spend_deciles,
                                               spend_deciles_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM "
                f"read_parquet('{sf}/orders.parquet')")
    want = (con.execute(spend_deciles_oracle_sql()).df()
            .reset_index(drop=True))
    assert len(want) == 10
    assert (want["min_spend"] <= want["max_spend"]).all()

    for trg in (64, 1 << 22):
        got = (run_spend_deciles(sf, target_rows_per_group=trg)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_spend_deciles_tie_split(ray_session, tmp_path):
    """A spend value whose count straddles a tile boundary splits
    arithmetically (synthesized: 12 customers, all equal spend, 10
    tiles → first two tiles get 2 rows each)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from dude_ray.pipelines.relational import run_spend_deciles

    pq.write_table(pa.table({
        "o_custkey": pa.array(list(range(12)), type=pa.int64()),
        "o_totalprice": pa.array([5.0] * 12, type=pa.float64()),
    }), str(tmp_path / "orders.parquet"))

    got = run_spend_deciles(str(tmp_path)).to_pandas()
    assert got["n_cust"].tolist() == [2, 2] + [1] * 8
    assert (got["min_spend"] == 5.0).all()
    assert (got["sum_spend"] == got["n_cust"] * 5.0).all()


def test_market_share_local_oracle(ray_session):
    """Q8-shape market-share ratio equals the DuckDB eight-table
    recompute at sf0.001 across both hash_grouped_reduce tiers, and
    the target nation actually contributes (share strictly inside
    (0, 1))."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_market_share,
                                               market_share_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    for t in ("part", "supplier", "lineitem", "orders", "customer",
              "nation", "region"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    want = (con.execute(market_share_oracle_sql()).df()
            .reset_index(drop=True))
    assert len(want) == 2
    assert ((want["mkt_share"] > 0) & (want["mkt_share"] < 1)).all()

    for trg in (64, 1 << 22):
        got = (run_market_share(sf, target_rows_per_group=trg)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_type_lift_local_oracle(ray_session):
    """Mask-histogram association lift equals the DuckDB self-join
    recompute at sf0.001 bit-for-bit (exact-int products, one IEEE
    division), invariant to the user-bucket width."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_type_lift,
                                               type_lift_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = (con.execute(type_lift_oracle_sql()).df()
            .reset_index(drop=True))
    assert len(want) > 1
    assert (want["n_ab"] <= want[["n_a", "n_b"]].min(axis=1)).all()

    for nb in (2, 64):
        got = (run_type_lift(sf, n_buckets=nb)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_rfm_segments_local_oracle(ray_session):
    """Histogram-derived CUME_DIST tercile segments equal the DuckDB
    triple-window recompute at sf0.001 across both
    hash_grouped_reduce tiers, and all three score axes span 1..3."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_rfm_segments,
                                               rfm_segments_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM "
                f"read_parquet('{sf}/orders.parquet')")
    want = (con.execute(rfm_segments_oracle_sql()).df()
            .reset_index(drop=True))
    assert len(want) > 1
    for col in ("r_score", "f_score", "m_score"):
        assert want[col].min() >= 1 and want[col].max() == 3

    for trg in (64, 1 << 22):
        got = (run_rfm_segments(sf, target_rows_per_group=trg)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_monthly_growth_local_oracle(ray_session):
    """LAG-over-aggregate growth series equals the DuckDB window
    recompute at sf0.001 (first month NULL, exact-cents division)."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_monthly_growth,
                                               monthly_growth_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM "
                f"read_parquet('{sf}/orders.parquet')")
    want = (con.execute(monthly_growth_oracle_sql()).df()
            .reset_index(drop=True))
    assert len(want) > 12
    assert pd.isna(want["growth"].iloc[0])
    assert want["growth"].iloc[1:].notna().all()

    got = run_monthly_growth(sf).to_pandas().reset_index(drop=True)
    got["month"] = pd.to_datetime(got["month"])
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)


def test_vocab_coverage_local_oracle(ray_session):
    """Vectorized OOV rates equal the DuckDB explode+LEFT JOIN
    recompute at sf0.001, and a stricter vocab raises OOV."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.textops import (run_vocab_coverage,
                                            vocab_coverage_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = (con.execute(vocab_coverage_oracle_sql()).df()
            .sort_values("doc_id").reset_index(drop=True))
    assert len(want) > 0
    assert (want["n_oov"] <= want["n_tokens"]).all()

    got = (run_vocab_coverage(sf).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)

    strict = (con.execute(vocab_coverage_oracle_sql(min_count=50)).df()
              .sort_values("doc_id").reset_index(drop=True))
    got50 = (run_vocab_coverage(sf, min_count=50).to_pandas()
             .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got50, strict, check_dtype=False,
                                  check_exact=True)
    assert got50["n_oov"].sum() > got["n_oov"].sum()


def test_ann_recall_local_oracle(ray_session):
    """Recall@k of the LSH path equals the DuckDB dual-recompute at
    sf0.001 and is meaningfully high (sanity: LSH finds most exact
    neighbors at radius 2)."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.similarity import (run_ann_recall,
                                               ann_recall_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW embeddings AS SELECT * FROM "
                f"read_parquet('{sf}/embeddings.parquet')")
    want = (con.execute(ann_recall_oracle_sql()).df()
            .reset_index(drop=True))
    assert len(want) == 5
    assert (want["recall"] <= 1.0).all()

    got = run_ann_recall(sf).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)


def test_dedup_recall_local_oracle(ray_session):
    """LSH-vs-exact pair-set recall/precision equals the DuckDB
    dual-recompute at sf0.001 across both hash_grouped_reduce
    tiers."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.dedup import (run_dedup_recall,
                                          dedup_recall_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = (con.execute(dedup_recall_oracle_sql()).df()
            .reset_index(drop=True))
    assert len(want) == 1
    assert want["n_exact"][0] > 0
    assert 0 < want["recall"][0] <= 1

    for trg in (4, 1 << 22):
        got = (run_dedup_recall(sf, target_rows_per_group=trg)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_coverage_curve_local_oracle(ray_session):
    """Top-k vocab coverage shares equal the DuckDB ranked-prefix
    recompute at sf0.001 and increase monotonically with k."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.textops import (run_coverage_curve,
                                            coverage_curve_oracle_sql)

    sf = "/root/testdata/sf0.001"
    ks = (10, 100, 1000)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = (con.execute(coverage_curve_oracle_sql(ks=ks)).df()
            .reset_index(drop=True))
    assert len(want) == 3
    assert want["share"].is_monotonic_increasing
    assert want["share"].iloc[-1] <= 1.0

    got = run_coverage_curve(sf, ks=ks).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)


def test_user_burstiness_local_oracle(ray_session):
    """Fano factors equal the DuckDB exact-moment recompute at
    sf0.001 bit-for-bit across both hash_grouped_reduce tiers."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_user_burstiness,
                                               user_burstiness_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = (con.execute(user_burstiness_oracle_sql()).df()
            .reset_index(drop=True))
    assert len(want) > 1
    assert (want["fano"] > 0).all()

    for trg in (64, 1 << 22):
        got = (run_user_burstiness(sf, target_rows_per_group=trg)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_revenue_gini_local_oracle(ray_session):
    """Histogram-exact Gini equals the DuckDB row_number rank-sum
    recompute at sf0.001 bit-for-bit across both hash_grouped_reduce
    tiers (run-start arithmetic == tie-invariant rank sum)."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_revenue_gini,
                                               revenue_gini_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    for t in ("orders", "customer"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    want = (con.execute(revenue_gini_oracle_sql()).df()
            .reset_index(drop=True))
    assert len(want) >= 2
    assert ((want["gini"] > 0) & (want["gini"] < 1)).all()

    for trg in (64, 1 << 22):
        got = (run_revenue_gini(sf, target_rows_per_group=trg)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_interarrival_stats_local_oracle(ray_session):
    """Per-type gap moments equal the DuckDB LAG recompute at sf0.001
    bit-for-bit, invariant to the user-bucket width."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_interarrival_stats,
                                               interarrival_stats_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = (con.execute(interarrival_stats_oracle_sql()).df()
            .reset_index(drop=True))
    assert len(want) > 1
    assert (want["mean_gap_s"] > 0).all()

    for width in (4, 1 << 20):
        got = (run_interarrival_stats(sf, users_per_group=width)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_weekday_index_local_oracle(ray_session):
    """Weekday seasonality equals the DuckDB isodow recompute at
    sf0.001 bit-for-bit, with the 7 indices averaging 1."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_weekday_index,
                                               weekday_index_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM "
                f"read_parquet('{sf}/orders.parquet')")
    want = (con.execute(weekday_index_oracle_sql()).df()
            .reset_index(drop=True))
    assert len(want) == 7
    assert abs(want["idx"].mean() - 1.0) < 1e-9

    got = run_weekday_index(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)


def test_forecast_revenue_local_oracle(ray_session):
    """Q6-shape filtered scalar equals the DuckDB recompute at
    sf0.001 and the filter actually selects a proper subset."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_forecast_revenue,
                                               forecast_revenue_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM "
                f"read_parquet('{sf}/lineitem.parquet')")
    want = (con.execute(forecast_revenue_oracle_sql()).df()
            .reset_index(drop=True))
    total = con.execute(
        "SELECT round(sum(l_extendedprice * l_discount), 2) "
        "FROM lineitem").fetchone()[0]
    assert 0 < want["revenue"][0] < total

    got = run_forecast_revenue(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)


def test_props_field_stats_local_oracle(ray_session):
    """JSON-field extraction stats equal the DuckDB json_extract
    recompute at sf0.001, and a missing field yields zero rows."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_props_field_stats,
                                               props_field_stats_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = (con.execute(props_field_stats_oracle_sql()).df()
            .reset_index(drop=True))
    assert len(want) > 1
    assert (want["min_v"] <= want["max_v"]).all()

    got = run_props_field_stats(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)

    none = run_props_field_stats(sf, field="nope").to_pandas()
    assert len(none) == 0


def test_value_props_corr_local_oracle(ray_session):
    """Per-type Pearson/OLS of value-cents on props.k is bit-equal to
    the DuckDB exact-moment recompute at sf0.001 (shared IEEE
    expression tree, exact-integer moments in both engines)."""
    import duckdb
    import numpy as np
    import pandas as pd

    from dude_ray.pipelines.relational import (run_value_props_corr,
                                               value_props_corr_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = (con.execute(value_props_corr_oracle_sql()).df()
            .reset_index(drop=True))
    assert len(want) > 1
    assert (want["pearson_r"].abs() <= 1.0).all()

    got = run_value_props_corr(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)

    # sanity: slope/intercept reproduce numpy's lstsq to float tol
    ev = con.execute(
        "SELECT event_type, CAST(json_extract(props,'$.k') AS BIGINT)"
        " AS x, CAST(round(value*100) AS BIGINT) AS y FROM events"
    ).df()
    t = want["event_type"][0]
    sub = ev[ev["event_type"] == t]
    ref = np.polyfit(sub["x"].astype(float), sub["y"].astype(float), 1)
    assert abs(ref[0] - want["slope"][0]) < 1e-6 * max(1, abs(ref[0]))
    assert abs(ref[1] - want["intercept"][0]) < 1e-6 * max(
        1, abs(ref[1]))

    none = run_value_props_corr(sf, field="nope").to_pandas()
    assert len(none) == 0


def test_waiting_suppliers_local_oracle(ray_session):
    """Q21-shape lone-fault-supplier join equals the literal
    EXISTS/NOT-EXISTS DuckDB form at sf0.001, and a tiny handmade
    case pins the exactly-one-distinguished-supplier logic."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_waiting_suppliers,
                                               waiting_suppliers_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    for t in ("supplier", "lineitem", "orders"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    want = (con.execute(waiting_suppliers_oracle_sql()).df()
            .reset_index(drop=True))
    got = run_waiting_suppliers(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    assert len(want) > 0
    assert (want["numwait"].to_numpy()[:-1]
            >= want["numwait"].to_numpy()[1:]).all()

    # handmade pin: order 1 F, suppliers {1 R, 2 clean} → supplier 1
    # waits; order 2 F, suppliers {1 R, 2 R} → two faults, nobody;
    # order 3 F, supplier 1 alone with R → single-supplier, nobody
    ld = pd.DataFrame({
        "l_orderkey": [1, 1, 2, 2, 3],
        "l_suppkey": [1, 2, 1, 2, 1],
        "l_returnflag": ["R", "N", "R", "R", "R"],
    })
    od = pd.DataFrame({"o_orderkey": [1, 2, 3],
                       "o_orderstatus": ["F", "F", "F"]})
    sup = pd.DataFrame({"s_suppkey": [1, 2],
                        "s_name": ["s1", "s2"]})
    con2 = duckdb.connect()
    con2.register("lineitem", ld)
    con2.register("orders", od)
    con2.register("supplier", sup)
    pinned = con2.execute(waiting_suppliers_oracle_sql()).df()
    assert pinned["s_suppkey"].tolist() == [1]
    assert pinned["numwait"].tolist() == [1]


def test_anomaly_mad_local_oracle(ray_session):
    """Per-type median/MAD/outlier-count from the one-scan value
    histogram equals DuckDB's two-median recompute at sf0.001."""
    import duckdb
    import numpy as np
    import pandas as pd

    from dude_ray.pipelines.relational import (run_anomaly_mad,
                                               anomaly_mad_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = (con.execute(anomaly_mad_oracle_sql()).df()
            .reset_index(drop=True))
    assert len(want) > 1
    assert (want["mad"] >= 0).all()
    assert (want["n_outliers"] < want["n_rows"]).all()

    got = run_anomaly_mad(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)

    # sanity vs numpy on one group (median semantics line up)
    ev = con.execute("SELECT event_type, value FROM events").df()
    t = want["event_type"][0]
    x = ev[ev["event_type"] == t]["value"].to_numpy()
    assert abs(np.median(x) - want["median_value"][0]) < 1e-9
    assert abs(np.median(np.abs(x - np.median(x)))
               - want["mad"][0]) < 1e-9

    # k=inf → zero outliers everywhere
    loose = run_anomaly_mad(sf, k=float("inf")).to_pandas()
    assert (loose["n_outliers"] == 0).all()


def test_source_similarity_local_oracle(ray_session):
    """Pairwise source cosines equal the DuckDB term-join recompute
    at sf0.001 bit-for-bit across both hash_grouped_reduce tiers
    (exact int64 dot/norms, identical float64 cosine tree)."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.textops import (run_source_similarity,
                                            source_similarity_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = (con.execute(source_similarity_oracle_sql()).df()
            .reset_index(drop=True))
    k = pd.concat([want["src_a"], want["src_b"]]).nunique()
    assert len(want) == k * (k - 1) // 2  # every unordered pair
    assert ((want["cosine"] > 0) & (want["cosine"] <= 1.0)).all()

    for trg in (64, 1 << 22):
        got = (run_source_similarity(sf, target_rows_per_group=trg)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_user_entropy_local_oracle(ray_session):
    """Per-user event-type entropy equals the DuckDB recompute at
    sf0.001 across both hash_grouped_reduce tiers; single-type users
    score exactly 0."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_user_entropy,
                                               user_entropy_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = (con.execute(user_entropy_oracle_sql()).df()
            .reset_index(drop=True))
    assert (want["entropy"] >= 0).all()
    single = want["n_types"] == 1
    assert (want.loc[single, "entropy"] == 0).all()

    for trg in (64, 1 << 22):
        got = (run_user_entropy(sf, target_rows_per_group=trg)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_skipgram_counts_local_oracle(ray_session):
    """Distance-d skip-gram top lists equal the DuckDB explode
    recompute at sf0.001, and the d=1 slice agrees with adjacent-pair
    bigram semantics (every pair's words appear adjacent somewhere)."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.textops import (run_skipgram_counts,
                                            skipgram_counts_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = (con.execute(skipgram_counts_oracle_sql()).df()
            .sort_values(["d", "rank"]).reset_index(drop=True))
    assert set(want["d"]) == {1, 2, 3}
    assert (want.groupby("d")["rank"].min() == 1).all()

    got = (run_skipgram_counts(sf).to_pandas()
           .sort_values(["d", "rank"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)


def test_session_stats_local_oracle(ray_session):
    """The session-length histogram equals the DuckDB window-function
    recompute at sf0.001 across bucket widths, and total sessions
    reconcile with the user_sessions row count."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_session_stats,
                                               run_user_sessions,
                                               session_stats_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = (con.execute(session_stats_oracle_sql()).df()
            .reset_index(drop=True))
    assert want["n_sessions"].sum() == run_user_sessions(sf).count()

    for upg in (4, 1 << 20):
        got = (run_session_stats(sf, users_per_group=upg)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_value_autocorr_local_oracle(ray_session):
    """Lag-1 daily-revenue autocorrelation equals the DuckDB LAG
    recompute at sf0.001 bit-for-bit (HUGEINT-exact moments, shared
    float64 finalization), with |r| <= 1."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_value_autocorr,
                                               value_autocorr_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = (con.execute(value_autocorr_oracle_sql()).df()
            .reset_index(drop=True))
    assert len(want) >= 1
    assert (want["autocorr"].abs() <= 1.0 + 1e-12).all()

    got = run_value_autocorr(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)


def test_lang_confusion_local_oracle(ray_session):
    """The lang-ID confusion matrix equals the DuckDB marker-regex
    recompute at sf0.001, and its cell counts reconcile with both the
    labeled lang distribution and the total document count."""
    import duckdb
    import pandas as pd
    import pyarrow.parquet as pq

    from dude_ray.pipelines.textops import (run_lang_confusion,
                                            lang_confusion_oracle_sql)

    sf = "/root/testdata/sf0.001"
    n_docs = pq.read_metadata(f"{sf}/documents.parquet").num_rows
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = (con.execute(lang_confusion_oracle_sql()).df()
            .reset_index(drop=True))
    assert want["n_docs"].sum() == n_docs

    got = run_lang_confusion(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)


def test_session_type_pairs_local_oracle(ray_session):
    """Session-basket type pairs equal the DuckDB windowed self-join
    recompute at sf0.001 across bucket widths; pair counts never
    exceed the total session count."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (
        run_session_type_pairs, run_user_sessions,
        session_type_pairs_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = (con.execute(session_type_pairs_oracle_sql()).df()
            .reset_index(drop=True))
    assert (want["type_a"] < want["type_b"]).all()
    assert want["n_sessions"].max() <= run_user_sessions(sf).count()

    for upg in (4, 1 << 20):
        got = (run_session_type_pairs(sf, users_per_group=upg)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_hour_profile_local_oracle(ray_session):
    """The hour-of-day clock equals the DuckDB recompute at sf0.001
    exactly, and each type's shares sum to 1."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_hour_profile,
                                               hour_profile_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = (con.execute(hour_profile_oracle_sql()).df()
            .reset_index(drop=True))
    sums = want.groupby("event_type")["share"].sum()
    assert ((sums - 1.0).abs() < 1e-9).all()

    got = run_hour_profile(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)


def test_doclen_percentiles_local_oracle(ray_session):
    """Per-language length percentiles equal the DuckDB row_number
    recompute at sf0.001 exactly; percentiles are monotone and doc
    counts reconcile with the table size."""
    import duckdb
    import pandas as pd
    import pyarrow.parquet as pq

    from dude_ray.pipelines.relational import (
        run_doclen_percentiles, doclen_percentiles_oracle_sql)

    sf = "/root/testdata/sf0.001"
    n_docs = pq.read_metadata(f"{sf}/documents.parquet").num_rows
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = (con.execute(doclen_percentiles_oracle_sql()).df()
            .reset_index(drop=True))
    assert want["n_docs"].sum() == n_docs
    assert ((want["p50"] <= want["p90"])
            & (want["p90"] <= want["p99"])).all()

    got = run_doclen_percentiles(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)


def test_dau_wau_local_oracle(ray_session):
    """(day, dau, wau) equals the DuckDB DISTINCT-pair recompute at
    sf0.001; WAU ≥ DAU every day and both ≤ the total user count."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (dau_wau_oracle_sql,
                                               run_dau_wau)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = con.execute(dau_wau_oracle_sql()).df().reset_index(drop=True)
    got = run_dau_wau(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    assert (got["wau"] >= got["dau"]).all()
    n_users = con.execute(
        "SELECT count(DISTINCT user_id) FROM events").fetchone()[0]
    assert (got["wau"] <= n_users).all()


def test_order_backlog_local_oracle(ray_session):
    """The delta-sweep running open-order count equals the DuckDB
    window recompute at sf0.001; the curve returns to zero after the
    last change day (every order eventually ships)."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (order_backlog_oracle_sql,
                                               run_order_backlog)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    for t in ("orders", "lineitem"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    want = (con.execute(order_backlog_oracle_sql()).df()
            .reset_index(drop=True))
    got = run_order_backlog(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    assert got["open_orders"].iloc[-1] == 0
    assert (got["open_orders"] >= 0).all()


def test_type_day_mi_local_oracle(ray_session):
    """The (event_type, dow) pmi table equals the DuckDB window-sum
    recompute at sf0.001; the n-weighted pmi sum (the total MI) is
    non-negative up to the 6-dp cell rounding."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (run_type_day_mi,
                                               type_day_mi_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = (con.execute(type_day_mi_oracle_sql()).df()
            .reset_index(drop=True))
    got = run_type_day_mi(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    n = got["n_events"].to_numpy()
    mi = float((n / n.sum() * got["pmi"].to_numpy()).sum())
    assert mi >= -1e-5
    assert got["dow"].between(1, 7).all()


def test_zipf_fit_local_oracle(ray_session):
    """The one-row Zipf OLS fit equals the DuckDB recompute at
    sf0.001; the slope is negative (counts decrease with rank) and
    r2 lies in [0, 1]."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.textops import (run_zipf_fit,
                                            zipf_fit_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = (con.execute(zipf_fit_oracle_sql()).df()
            .reset_index(drop=True))
    got = run_zipf_fit(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    assert got["slope"].iloc[0] < 0
    assert 0.0 <= got["r2"].iloc[0] <= 1.0


def test_ngram_containment_local_oracle(ray_session):
    """Containment over LSH candidates equals the DuckDB full-chain
    recompute at sf0.001; containment >= jaccard on the shared pair
    set (min-denominator dominance)."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.dedup import (ngram_containment_oracle_sql,
                                          run_ngram_containment,
                                          run_ngram_jaccard)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = (con.execute(ngram_containment_oracle_sql()).df()
            .sort_values(["a", "b"]).reset_index(drop=True))
    got = (run_ngram_containment(sf).to_pandas()
           .sort_values(["a", "b"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    jac = (run_ngram_jaccard(sf).to_pandas()
           .sort_values(["a", "b"]).reset_index(drop=True))
    merged = got.merge(jac, on=["a", "b"])
    assert len(merged) == len(got)
    assert (merged["containment"] >= merged["jaccard"] - 1e-9).all()


def test_hll_intersect_local_oracle(ray_session):
    """The HLL inclusion-exclusion pair table equals the DuckDB
    register-algebra recompute at sf0.001; every union estimate is
    >= each side's estimate (max-merge monotonicity) and each
    intersection estimate is within HLL error of the exact overlap."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.sketches import (hll_intersect_oracle_sql,
                                             run_hll_intersect)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = (con.execute(hll_intersect_oracle_sql()).df()
            .reset_index(drop=True))
    got = run_hll_intersect(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    assert (got["n_union"] >= got[["n_a", "n_b"]].max(axis=1)).all()
    exact = con.execute("""
        SELECT a.event_type AS type_a, b.event_type AS type_b,
               count(*) AS n
        FROM (SELECT DISTINCT event_type, user_id FROM events) a
        JOIN (SELECT DISTINCT event_type, user_id FROM events) b
          ON a.user_id = b.user_id AND a.event_type < b.event_type
        GROUP BY 1, 2
    """).df()
    m = got.merge(exact, on=["type_a", "type_b"], how="left").fillna(0)
    # inclusion-exclusion compounds three ~1.6% sketches; allow 15%
    # of the union as the tolerance band
    assert (abs(m["n_inter"] - m["n"]) <= 0.15 * m["n_union"] + 5).all()


def test_burrows_delta_local_oracle(ray_session):
    """The stylometric pair-distance table equals the DuckDB window
    recompute at sf0.001; deltas are non-negative and the table covers
    every source pair exactly once (a < b)."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.textops import (burrows_delta_oracle_sql,
                                            run_burrows_delta)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = (con.execute(burrows_delta_oracle_sql()).df()
            .reset_index(drop=True))
    got = run_burrows_delta(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    assert (got["delta"] >= 0).all()
    n_src = con.execute(
        "SELECT count(DISTINCT source) FROM documents").fetchone()[0]
    assert len(got) == n_src * (n_src - 1) // 2
    assert (got["source_a"] < got["source_b"]).all()


def test_keyness_llr_local_oracle(ray_session):
    """Per-source Dunning keyness top-k equals the DuckDB recompute
    at sf0.001 across both hash_grouped_reduce tiers; every reported
    term is overused (a·N > n_A·g) and G² > 0."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.textops import (keyness_llr_oracle_sql,
                                            run_keyness_llr)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = (con.execute(keyness_llr_oracle_sql()).df()
            .reset_index(drop=True))
    assert (want["keyness"] > 0).all()
    for trg in (64, 1 << 22):
        got = (run_keyness_llr(sf, target_rows_per_group=trg)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_dedup_threshold_sweep_local_oracle(ray_session):
    """The jaccard threshold curve equals the DuckDB full-chain
    recompute at sf0.001; the cumulative column is the reverse
    cumsum of the bucket counts and its top equals the total pair
    count of run_ngram_jaccard."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.dedup import (
        dedup_threshold_sweep_oracle_sql, run_dedup_threshold_sweep,
        run_ngram_jaccard)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = (con.execute(dedup_threshold_sweep_oracle_sql()).df()
            .sort_values("bucket").reset_index(drop=True))
    got = (run_dedup_threshold_sweep(sf).to_pandas()
           .sort_values("bucket").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    n = got["n_pairs"].to_numpy()
    assert (got["n_pairs_at_or_above"].to_numpy()
            == n[::-1].cumsum()[::-1]).all()
    total = len(run_ngram_jaccard(sf).to_pandas())
    assert int(got["n_pairs"].sum()) == total


def test_stationary_types_local_oracle(ray_session):
    """The Markov stationary vector equals the DuckDB unrolled
    power-iteration recompute at sf0.001 and sums to ~1.  (The
    near-fixpoint property is implied by the oracle equality — the
    SQL runs the identical 8 rounded steps — so no second engine run
    is paid here.)"""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (
        run_stationary_types, stationary_types_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = (con.execute(stationary_types_oracle_sql()).df()
            .reset_index(drop=True))
    got = run_stationary_types(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    assert abs(got["stationary"].sum() - 1.0) < 1e-6
    assert (got["stationary"] >= 0).all()


def test_shingle_novelty_local_oracle(ray_session):
    """Per-doc novelty equals the DuckDB gdist recompute at sf0.001
    across both hash_grouped_reduce tiers; the novel counts sum to the
    global distinct-shingle count and the lowest doc_id is fully
    novel."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.dedup import (run_shingle_novelty,
                                          shingle_novelty_oracle_sql)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = (con.execute(shingle_novelty_oracle_sql()).df()
            .reset_index(drop=True))
    for trg in (64, 1 << 22):
        got = (run_shingle_novelty(sf, target_rows_per_group=trg)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)
    assert got.loc[got["doc_id"].idxmin(), "novelty"] == 1.0
    n_distinct = con.execute(
        shingle_novelty_oracle_sql().replace(
            "ORDER BY t.doc_id", "") + " ").df()["n_novel"].sum()
    assert int(got["n_novel"].sum()) == int(n_distinct)


def test_kanon_risk_local_oracle(ray_session):
    """The k-anonymity class-size histogram equals the DuckDB
    recompute at sf0.001; customer totals reconcile and the at_risk
    flag is exactly group_size < 10."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (kanon_risk_oracle_sql,
                                               run_kanon_risk)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW customer AS SELECT * FROM "
                f"read_parquet('{sf}/customer.parquet')")
    want = (con.execute(kanon_risk_oracle_sql()).df()
            .reset_index(drop=True))
    got = run_kanon_risk(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    n_cust = con.execute("SELECT count(*) FROM customer").fetchone()[0]
    assert int(got["n_customers"].sum()) == n_cust
    assert (got["at_risk"] == (got["group_size"] < 10)).all()


def test_dup_source_matrix_local_oracle(ray_session):
    """The cross-source near-dup pair matrix equals the DuckDB
    full-chain recompute at sf0.001; its total equals the verified
    thresholded pair count and source_a <= source_b."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.dedup import (dup_source_matrix_oracle_sql,
                                          run_dup_source_matrix,
                                          run_minhash_dedup)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = (con.execute(dup_source_matrix_oracle_sql()).df()
            .reset_index(drop=True))
    got = run_dup_source_matrix(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    assert (got["source_a"] <= got["source_b"]).all()
    total = len(run_minhash_dedup(sf).to_pandas())
    assert int(got["n_pairs"].sum()) == total


def test_markov_entropy_rate_local_oracle(ray_session):
    """The chain entropy rate equals the DuckDB recompute at sf0.001;
    0 <= H <= ln(n_types) and perplexity = exp(H) within rounding."""
    import math

    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (
        markov_entropy_rate_oracle_sql, run_markov_entropy_rate)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = (con.execute(markov_entropy_rate_oracle_sql()).df()
            .reset_index(drop=True))
    got = (run_markov_entropy_rate(sf).to_pandas()
           .reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    h = got["entropy_rate"].iloc[0]
    k = int(got["n_types"].iloc[0])
    assert 0.0 <= h <= math.log(k) + 1e-9
    assert abs(got["perplexity"].iloc[0] - math.exp(h)) < 1e-3


def test_funnel_latency_local_oracle(ray_session):
    """The conversion-latency percentile row equals the DuckDB rank
    recompute at sf0.001; percentiles are monotone between min and
    max and n_users matches the funnel row count."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (funnel_latency_oracle_sql,
                                               run_event_funnel,
                                               run_funnel_latency)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = (con.execute(funnel_latency_oracle_sql()).df()
            .reset_index(drop=True))
    got = run_funnel_latency(sf).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    r = got.iloc[0]
    assert (r["min_s"] <= r["p50_s"] <= r["p90_s"] <= r["p99_s"]
            <= r["max_s"])
    assert int(r["n_users"]) == len(run_event_funnel(sf).to_pandas())


def test_funnel_latency_no_conversions(ray_session, tmp_path):
    """With no purchase event nobody converts: one row with n_users 0
    and NULL min/percentiles/max, as the oracle's aggregates over no
    rows give."""
    import duckdb
    import pandas as pd
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from dude_ray.pipelines.relational import (funnel_latency_oracle_sql,
                                               run_funnel_latency)

    ev = pq.read_table(f"{SF}/events.parquet")
    pq.write_table(ev.filter(pc.not_equal(ev["event_type"], "purchase")),
                   tmp_path / "events.parquet")
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{tmp_path}/events.parquet')")
    want = con.execute(funnel_latency_oracle_sql()).df()
    got = run_funnel_latency(str(tmp_path)).to_pandas()
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    assert int(got["n_users"].iloc[0]) == 0
    assert got.drop(columns="n_users").isna().all(axis=None)


def test_basket_pairs_local_oracle(ray_session):
    """Top co-ordered part pairs equal the DuckDB self-join recompute
    at sf0.001 across both hash_grouped_reduce tiers; part_a < part_b
    and ranks are dense from 1."""
    import duckdb
    import pandas as pd

    from dude_ray.pipelines.relational import (basket_pairs_oracle_sql,
                                               run_basket_pairs)

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM "
                f"read_parquet('{sf}/lineitem.parquet')")
    want = (con.execute(basket_pairs_oracle_sql()).df()
            .reset_index(drop=True))
    assert (want["part_a"] < want["part_b"]).all()
    for trg in (64, 1 << 22):
        got = (run_basket_pairs(sf, target_rows_per_group=trg)
               .to_pandas().reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)
    assert list(got["rank"]) == list(range(1, len(got) + 1))
