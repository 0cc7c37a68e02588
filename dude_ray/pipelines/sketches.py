"""Mergeable sketch aggregates — the unbounded-cardinality scale path
for distinct counting (the swap-in that
``relational.run_distinct_users``'s docstring names).

HyperLogLog (Flajolet et al. 2007, with the standard small/large-range
corrections) over fixed 2^p register arrays: every partial is a
constant-size byte blob regardless of input cardinality, merge is an
element-wise max, and the final estimate touches only (groups ×
2^p bytes) on the driver-side combine — nothing about the input's
cardinality ever concentrates in one task.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

HLL_P = 12                      # 4096 registers → ~1.6% standard error
_M = 1 << HLL_P
_ALPHA = 0.7213 / (1 + 1.079 / _M)

_SPLITMIX_C1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_C2 = np.uint64(0x94D049BB133111EB)
_SPLITMIX_INC = np.uint64(0x9E3779B97F4A7C15)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — a full-avalanche 64-bit hash, vectorized."""
    with np.errstate(over="ignore"):
        x = (x + _SPLITMIX_INC).astype(np.uint64)
        x ^= x >> np.uint64(30)
        x *= _SPLITMIX_C1
        x ^= x >> np.uint64(27)
        x *= _SPLITMIX_C2
        x ^= x >> np.uint64(31)
    return x


def hll_registers(values: np.ndarray) -> np.ndarray:
    """uint64 hash inputs → 2^p uint8 register array (one batch)."""
    regs = np.zeros(_M, dtype=np.uint8)
    if not len(values):
        return regs
    h = _mix64(values.astype(np.uint64))
    idx = (h >> np.uint64(64 - HLL_P)).astype(np.int64)
    rest = (h << np.uint64(HLL_P)) | np.uint64(1 << (HLL_P - 1))
    # rank = leading zeros of the remaining bits + 1, via an EXACT
    # binary-search clz (shift-left while the top s bits are zero) —
    # integer-only, so hll_registers_oracle_sql reproduces every rank
    # bit-for-bit (a float64 log2 overshoots at power-of-two
    # boundaries, engine-dependently).  The guard bit at HLL_P-1
    # bounds lz ≤ 64-HLL_P, so rank ≤ 64-HLL_P+1 without clamping.
    lz = np.zeros(len(rest), dtype=np.int64)
    v = rest.copy()
    for s in (32, 16, 8, 4, 2, 1):
        m = v < (np.uint64(1) << np.uint64(64 - s))
        lz[m] += s
        v[m] <<= np.uint64(s)
    rank = (lz + 1).astype(np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


# max rank = 64 - HLL_P + 1 = 53, so Σ_j 2^(-M_j) = S_int / 2^53 with
# S_int = Σ_j 2^(53 - M_j) an EXACT integer (≤ m·2^53 < 2^66 — Python
# int here, HUGEINT in the SQL oracle).  The raw estimate then reduces
# to ONE float division of two values both engines hold bit-identically
# (the numerator α·m²·2^53 inlined as the same literal), which is what
# lets distinct_users_approx hash-match instead of staying rows-only.
_HLL_RANK_MAX = 64 - HLL_P + 1
_HLL_NUM = _ALPHA * _M * _M * (1 << _HLL_RANK_MAX)


def hll_estimate(regs: np.ndarray) -> float:
    """Bias-corrected harmonic-mean estimate with range corrections.
    The harmonic sum is exact-integer (see _HLL_NUM note); only the
    linear-counting branch calls a transcendental (ln), whose ≤1-ulp
    libm spread is absorbed by the integer rounding of the caller."""
    cnt = np.bincount(regs.astype(np.int64), minlength=_HLL_RANK_MAX + 1)
    s_int = sum(int(c) << (_HLL_RANK_MAX - r)
                for r, c in enumerate(cnt) if c)
    est = _HLL_NUM / float(s_int)
    if est <= 2.5 * _M:
        zeros = int(cnt[0])
        if zeros:
            est = _M * np.log(_M / zeros)  # linear counting
    elif est > (1 << 64) / 30.0:  # pragma: no cover (needs ~10^18 keys)
        est = -(1 << 64) * np.log1p(-est / (1 << 64))
    return float(est)


def _hll_partials(batch: pa.Table) -> pa.Table:
    """One 4 KiB register blob per event_type present in the batch.

    Arrow-native (r5 sweep): event_type is dictionary-coded ONCE via
    ``pc.index_in`` against the batch's own unique set, so the only
    per-unique-type Python work is the blob build — the old version
    paid a ``to_pylist`` per row plus a pandas string groupby."""
    import pyarrow.compute as pc

    et = batch["event_type"]
    uniq = pc.unique(et.combine_chunks()
                     if isinstance(et, pa.ChunkedArray) else et)
    codes = pc.index_in(et, value_set=uniq).to_numpy(
        zero_copy_only=False).astype(np.int64)
    users = batch["user_id"].to_numpy(
        zero_copy_only=False).astype(np.uint64)
    order = np.argsort(codes, kind="stable")
    sc, su = codes[order], users[order]
    bounds = np.r_[np.flatnonzero(np.r_[True, sc[1:] != sc[:-1]]),
                   len(sc)]
    blobs = [hll_registers(su[bounds[i]:bounds[i + 1]]).tobytes()
             for i in range(len(bounds) - 1)]
    return pa.table({
        "event_type": uniq.take(pa.array(sc[bounds[:-1]])),
        "regs": pa.array(blobs, type=pa.binary()),
    })


def run_distinct_users_approx(sf_dir: str):
    """Approximate distinct users per event_type — the HLL twin of
    ``run_distinct_users``.  Per-batch: one register blob per
    event_type present (constant 4 KiB each); merge: groupby over the
    handful of event types, element-wise max of blobs.  At any corpus
    size the shuffle moves (#blocks × #types) 4 KiB rows.  Accuracy
    vs the exact count: test_hll_accuracy_and_merge_invariance."""
    from dude_ray.io import read_parquet_clean

    ds = read_parquet_clean(f"{sf_dir}/events.parquet",
                            columns=["event_type", "user_id"])

    def _merge(g: pd.DataFrame) -> pd.DataFrame:
        merged = np.zeros(_M, dtype=np.uint8)
        for blob in g["regs"]:
            np.maximum(merged, np.frombuffer(blob, dtype=np.uint8),
                       out=merged)
        return pd.DataFrame({
            "event_type": [g["event_type"].iloc[0]],
            "n_users_approx": pd.Series(
                [int(np.floor(hll_estimate(merged) + 0.5))],
                dtype="int64"),
        })

    partials = ds.map_batches(_hll_partials, batch_format="pyarrow",
                              batch_size=16384)
    return partials.groupby("event_type").map_groups(
        _merge, batch_format="pandas").sort("event_type")


def run_hll_registers(sf_dir: str):
    """The merged HLL sketch STATE itself, exploded to
    (event_type, reg, rank) rows for the nonzero registers — the
    SQL-verifiable surface of ``run_distinct_users_approx``: the
    splitmix64 hash, register index, exact-clz rank and max-merge are
    all integer arithmetic, reproduced bit-for-bit by
    :func:`hll_registers_oracle_sql`.  The estimate is a pure driver
    function of these rows, so hash-matching them verifies the whole
    distributed sketch."""
    from dude_ray.io import read_parquet_clean

    ds = read_parquet_clean(f"{sf_dir}/events.parquet",
                            columns=["event_type", "user_id"])

    def _explode(g: pd.DataFrame) -> pd.DataFrame:
        merged = np.zeros(_M, dtype=np.uint8)
        for blob in g["regs"]:
            np.maximum(merged, np.frombuffer(blob, dtype=np.uint8),
                       out=merged)
        nz = np.flatnonzero(merged)
        return pd.DataFrame({
            "event_type": [g["event_type"].iloc[0]] * len(nz),
            "reg": pd.Series(nz, dtype="int64"),
            "rank": pd.Series(merged[nz], dtype="int64"),
        })

    partials = ds.map_batches(_hll_partials, batch_format="pyarrow",
                              batch_size=16384)
    return partials.groupby("event_type").map_groups(
        _explode, batch_format="pandas")


def hll_registers_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_hll_registers` — independent
    recompute of the splitmix64 finalizer (wraparound multiplies via
    the 32-bit-split schoolbook product, as in the minhash oracle),
    the register index / guarded remainder, an exact binary-search
    leading-zero count, and the per-register max."""
    from dude_ray.pipelines.dedup import _sql_addmod64, _sql_mulmod64

    inc = int(_SPLITMIX_INC)
    c1, c2 = int(_SPLITMIX_C1), int(_SPLITMIX_C2)
    clz = ""
    prev, lzprev = "v0", "CAST(0 AS BIGINT)"
    for i, s in enumerate((32, 16, 8, 4, 2, 1), 1):
        lim = 1 << (64 - s)
        clz += (f", c{i} AS (SELECT event_type, reg, "
                f"CASE WHEN {prev} < {lim} THEN {prev} * {1 << s} "
                f"ELSE {prev} END AS v{i}, "
                f"{lzprev} + CASE WHEN {prev} < {lim} THEN {s} ELSE 0 END "
                f"AS lz{i} FROM c{i-1})")
        prev, lzprev = f"v{i}", f"lz{i}"
    return f"""
        WITH s0 AS (SELECT event_type, CAST(user_id AS UBIGINT) AS u
                    FROM events),
        s1 AS (SELECT event_type, {_sql_addmod64('u', str(inc))} AS x
               FROM s0),
        s2 AS (SELECT event_type, xor(x, x >> 30) AS x FROM s1),
        s3 AS (SELECT event_type, {_sql_mulmod64('x', c1)} AS x FROM s2),
        s4 AS (SELECT event_type, xor(x, x >> 27) AS x FROM s3),
        s5 AS (SELECT event_type, {_sql_mulmod64('x', c2)} AS x FROM s4),
        s6 AS (SELECT event_type, xor(x, x >> 31) AS h FROM s5),
        c0 AS (SELECT event_type,
                      CAST(h >> {64 - HLL_P} AS BIGINT) AS reg,
                      (h % {1 << (64 - HLL_P)}) * {1 << HLL_P}
                          + {1 << (HLL_P - 1)} AS v0
               FROM s6)
        {clz}
        SELECT event_type, reg, CAST(max(lz6 + 1) AS BIGINT) AS rank
        FROM c6 GROUP BY 1, 2
    """


def distinct_users_approx_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_distinct_users_approx` — the HLL
    ESTIMATE recomputed from the independently-recomputed register
    state (:func:`hll_registers_oracle_sql` as a derived table): the
    harmonic sum as the exact HUGEINT Σ 2^(53-rank) (absent registers
    contribute 2^53 each), the raw estimate as the single float
    division of the shared inlined numerator, and the same
    linear-counting branch.  ln() is the one transcendental — a ≤1-ulp
    libm spread at ~1e3 magnitude sits ~1e-13 from any integer
    rounding boundary, absorbed by the BIGINT round on both sides."""
    shift_max = _HLL_RANK_MAX
    full = 1 << _HLL_RANK_MAX
    return f"""
        WITH regs AS ({hll_registers_oracle_sql()}),
        agg AS (
            SELECT event_type,
                   CAST(count(*) AS HUGEINT) AS npresent,
                   sum(CAST(1 AS BIGINT) << CAST({shift_max} - rank
                                                 AS INTEGER)) AS s_present
            FROM regs GROUP BY 1
        ), est AS (
            SELECT event_type,
                   {_M} - npresent AS zeros,
                   {_HLL_NUM!r} / CAST(
                       CAST(s_present AS HUGEINT)
                       + ({_M} - npresent) * CAST({full} AS HUGEINT)
                       AS DOUBLE) AS raw
            FROM agg
        )
        SELECT event_type,
               CAST(floor(0.5 + CASE WHEN raw <= {2.5 * _M!r} AND zeros > 0
                                THEN {float(_M)!r} * ln({float(_M)!r} / zeros)
                                ELSE raw END) AS BIGINT) AS n_users_approx
        FROM est ORDER BY event_type
    """


# --------------------------------------------------------------------------
# Misra-Gries heavy hitters (approximate global top terms)
# --------------------------------------------------------------------------

MG_COUNTERS = 256
MG_TOP = 20


def run_top_terms_sketch(sf_dir: str, k_counters: int = MG_COUNTERS,
                         m: int = MG_TOP):
    """Approximate global top-m terms via mergeable Misra-Gries
    summaries — the unbounded-vocabulary twin of the exact
    ``cleaning.run_top_terms_per_source``.

    Per batch: one value_counts, then the batch-MG prune (subtract the
    (k+1)-th largest count, drop non-positives) — each partial is ≤ k
    rows with per-partial undercount ≤ n_batch/(k+1).  Partials merge
    by a plain groupby-sum (summed undercount stays ≤ N/(k+1) — the
    standard mergeable-summaries bound), so the only shuffle moves
    ≤ k rows per block no matter how large the vocabulary grows.  Any
    term with true count > N/(k+1) above the m-th count is guaranteed
    present.  The sf corpora's 31-term vocabulary never prunes, so the
    sketch is exact there and its SQL oracle is a plain top-m; the
    pruning path is tested by test_top_terms_sketch_heavy_hitters."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from dude_ray.io import read_parquet_clean
    from dude_ray.pipelines.textops import TOKEN_RE

    ds = read_parquet_clean(f"{sf_dir}/documents.parquet",
                            columns=["text"])

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        words = df["text"].str.findall(TOKEN_RE).explode().dropna()
        c = words.value_counts()
        if len(c) > k_counters:
            thresh = int(c.iloc[k_counters])
            c = (c.iloc[:k_counters] - thresh)
            c = c[c > 0]
        return pd.DataFrame({"term": c.index.astype(str),
                             "n": c.to_numpy().astype("int64")})

    partials = ds.map_batches(_partial, batch_format="pandas",
                              batch_size=4096)
    merged = partials.groupby("term").aggregate(Sum("n", alias_name="n"))

    def _local_top(batch: pa.Table) -> pa.Table:
        idx = pc.select_k_unstable(
            batch, k=min(m, len(batch)),
            sort_keys=[("n", "descending"), ("term", "ascending")])
        return batch.take(idx)

    # per-block local top-m, then one tiny global sort+limit
    top = merged.map_batches(_local_top, batch_format="pyarrow",
                             batch_size=None)
    return top.sort(["n", "term"], descending=[True, False]).limit(m)


# --------------------------------------------------------------------------
# Count-Min sketch (approximate frequency table, SQL-verifiable state)
# --------------------------------------------------------------------------

CMS_D = 4       # depth: independent hash rows
CMS_W = 1024    # width: counters per row (power of two)


def _cms_word_hash(words) -> np.ndarray:
    """md5-top-8 uint64 per word — the same string→u64 convention as
    the minhash gram chain (dedup.py), reproduced in SQL by the hex
    fold."""
    import hashlib

    return np.fromiter(
        (int.from_bytes(hashlib.md5(w.encode()).digest()[:8], "big")
         for w in words), dtype=np.uint64, count=len(words))


def cms_cells(h0: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(CMS_D, CMS_W) int64 counter array for pre-counted word hashes:
    row d uses splitmix64(h0 XOR d) — full-avalanche, so XORing the
    tiny depth index yields CMS_D independent hash rows."""
    acc = np.zeros((CMS_D, CMS_W), dtype=np.int64)
    for d in range(CMS_D):
        idx = (_mix64(h0 ^ np.uint64(d))
               & np.uint64(CMS_W - 1)).astype(np.int64)
        np.add.at(acc[d], idx, counts)
    return acc


def cms_estimate(cells: dict[tuple[int, int], int], word: str) -> int:
    """Point query: min over depths of the word's counter — the
    classic one-sided CMS estimate (never under-counts).  A pure
    driver function of the register rows, like hll_estimate."""
    h0 = _cms_word_hash([word])
    est = None
    for d in range(CMS_D):
        idx = int(_mix64(h0 ^ np.uint64(d))[0] & np.uint64(CMS_W - 1))
        v = cells.get((d, idx), 0)
        est = v if est is None else min(est, v)
    return int(est)


def run_cms_registers(sf_dir: str, batch_size: int = 4096):
    """Count-Min sketch (Cormode & Muthukrishnan 2005, J. Algorithms
    55(1)) of the corpus word-frequency distribution,
    reported as its full register STATE (d, idx, c) — the
    SQL-verifiable surface (the hll_registers discipline: point
    estimates are pure driver functions of these rows, so
    hash-matching the state verifies the whole distributed sketch).

    Scale shape: per-batch partials are the fixed-size (4 × 1024)
    counter array of that batch's pre-counted words, emitted as ≤ 4096
    nonzero cells; merge is an integer sum over a FIXED 4096-key
    space — shuffle volume is blocks × 4096 rows at any corpus size."""
    import re

    from dude_ray.partitioning import hash_grouped_reduce
    from dude_ray.pipelines.textops import TOKEN_RE, _docs

    tok = re.compile(TOKEN_RE)

    def _partial(batch: pa.Table) -> pa.Table:
        cnt: dict = {}
        for text in batch["text"].to_pylist():
            for w in tok.findall((text or "").lower()):
                cnt[w] = cnt.get(w, 0) + 1
        words = list(cnt.keys())
        acc = cms_cells(
            _cms_word_hash(words),
            np.fromiter((cnt[w] for w in words), dtype=np.int64,
                        count=len(words)))
        dd, ii = np.nonzero(acc)
        return pa.table({
            "d": pa.array(dd.astype(np.int64), type=pa.int64()),
            "idx": pa.array(ii.astype(np.int64), type=pa.int64()),
            "c": pa.array(acc[dd, ii], type=pa.int64()),
        })

    partials = _docs(sf_dir, ["text"]).map_batches(
        _partial, batch_format="pyarrow", batch_size=batch_size)

    def _sum(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.groupby(["d", "idx"], sort=False)["c"].sum()
                 .reset_index())
        out["c"] = out["c"].astype("int64")
        return out

    return hash_grouped_reduce(partials, ["d", "idx"], _sum,
                               CMS_D * CMS_W, out_cols=("d", "idx", "c"))


def cms_registers_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_cms_registers` — independent
    recompute: md5 hex-fold word hashes, the splitmix64 chain per
    depth (wraparound multiplies via the 32-bit-split product), and
    the grouped counter sums."""
    from dude_ray.pipelines.dedup import _sql_addmod64, _sql_mulmod64
    from dude_ray.pipelines.textops import TOKEN_RE

    h16 = ("CAST(list_sum([CAST(strpos('0123456789abcdef', m[i]) - 1"
           " AS UBIGINT)"
           " * (CAST(1 AS UBIGINT) << CAST(4*(16 - i) AS INTEGER))"
           " for i in generate_series(1, 16)]) AS UBIGINT)")
    inc = int(_SPLITMIX_INC)
    c1, c2 = int(_SPLITMIX_C1), int(_SPLITMIX_C2)
    return f"""
        WITH toks AS (
            SELECT unnest(regexp_extract_all(lower(coalesce(text, '')),
                                             '{TOKEN_RE}')) AS tok
            FROM documents
        ), tc AS (
            SELECT tok, count(*) AS c FROM toks GROUP BY tok
        ), th AS (
            SELECT c, (SELECT {h16} FROM
                       (SELECT string_split(substr(md5(tok), 1, 16), '')
                        AS m)) AS u
            FROM tc
        ), dd AS (
            SELECT th.c, g.d, xor(th.u, CAST(g.d AS UBIGINT)) AS x
            FROM th, (SELECT unnest(generate_series(0, {CMS_D - 1}))
                      AS d) g
        ),
        s1 AS (SELECT c, d, {_sql_addmod64('x', str(inc))} AS x FROM dd),
        s2 AS (SELECT c, d, xor(x, x >> 30) AS x FROM s1),
        s3 AS (SELECT c, d, {_sql_mulmod64('x', c1)} AS x FROM s2),
        s4 AS (SELECT c, d, xor(x, x >> 27) AS x FROM s3),
        s5 AS (SELECT c, d, {_sql_mulmod64('x', c2)} AS x FROM s4),
        s6 AS (SELECT c, d, xor(x, x >> 31) AS h FROM s5)
        SELECT CAST(d AS BIGINT) AS d,
               CAST(h % {CMS_W} AS BIGINT) AS idx,
               CAST(sum(c) AS BIGINT) AS c
        FROM s6 GROUP BY 1, 2
    """


# --------------------------------------------------------------------------
# Bloom filter membership state (Bloom, CACM 1970)
# --------------------------------------------------------------------------
#
# The third order-independent sketch whose full distributed state
# hash-matches a SQL recompute (after the HLL registers and the CMS
# cells): the bit set of an m-bit / k-hash Bloom filter over the
# corpus documents' text hashes — the membership structure behind the
# engine's URL-seen frontier dedup and the decontamination semi-join.
# The k bit positions are independent 16-bit SLICES of the document's
# md5 (DuckDB's md5_number_lower = the digest's low 8 bytes,
# little-endian — bit-for-bit reproducible from hashlib), so no
# wraparound arithmetic is needed at all.  Bit-set union is
# commutative and idempotent: any merge order, any batching, any
# partitioning yields the same state.  The false-positive rate
# (1 - e^{-kn/m})^k is a pure driver function of the row count; size
# m ≈ n·k/ln2 for the target FPR at scale.

BLOOM_M = 1 << 16  # bits
BLOOM_K = 4        # 16-bit slices of one md5-derived uint64


def bloom_bits(texts) -> np.ndarray:
    """Distinct bit positions set by ``texts`` — k 16-bit slices of
    md5_number_lower per text, vectorized over the batch."""
    import hashlib

    h = np.fromiter(
        (int.from_bytes(hashlib.md5(
            (t or "").encode("utf-8", "surrogatepass")).digest()[8:16],
            "little") for t in texts),
        dtype=np.uint64, count=len(texts))
    bits = np.concatenate([
        ((h >> np.uint64(16 * j)) & np.uint64(BLOOM_M - 1)).astype(np.int64)
        for j in range(BLOOM_K)
    ]) if len(h) else np.empty(0, dtype=np.int64)
    return np.unique(bits)


def run_bloom_registers(sf_dir: str, batch_size: int = 4096):
    """(bit,) — the full Bloom state over ``documents.text``.  Per
    batch: the distinct local bit set (≤ m int64 rows, constant-bound
    at any corpus size); merge: one data-scaled hash-grouped distinct.
    Nothing row-count-sized ever aggregates anywhere."""
    from dude_ray.io import read_parquet_clean
    from dude_ray.partitioning import hash_grouped_reduce

    ds = read_parquet_clean(f"{sf_dir}/documents.parquet",
                            columns=["text"])

    def _partial(batch: pa.Table) -> pa.Table:
        bits = bloom_bits(batch["text"].to_pylist())
        return pa.table({"bit": pa.array(bits, type=pa.int64())})

    def _distinct(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(ignore_index=True)

    parts = ds.map_batches(_partial, batch_format="pyarrow",
                           batch_size=batch_size)
    return hash_grouped_reduce(parts, "bit", _distinct, BLOOM_M,
                               out_cols=("bit",))


def bloom_registers_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_bloom_registers` — md5_number_lower
    reproduces the hashlib digest slice exactly; UNION dedups."""
    selects = " UNION ".join(
        f"SELECT CAST((h >> {16 * j}) % {BLOOM_M} AS BIGINT) AS bit FROM x"
        for j in range(BLOOM_K))
    return f"""
        WITH x AS (SELECT CAST(md5_number_lower(text) AS UBIGINT) AS h
                   FROM documents)
        {selects}
    """


# --------------------------------------------------------------------------
# KMV (k-minimum-values) distinct sketch — Bar-Yossef et al. 2002
# --------------------------------------------------------------------------

KMV_K = 64       # registers: the k smallest distinct hash values
# (k-1)·2^64 — exact in double (63 = 6 significant bits), inlined as
# the SAME literal in both engines so the estimate is ONE float
# division of bit-identical operands.
_KMV_NUM = float((KMV_K - 1) << 64)


def _kmv_partials(batch: pa.Table, k: int) -> pa.Table:
    """Per event_type present in the batch: the ≤k smallest DISTINCT
    splitmix64(user_id) hashes, split into (h_hi, h_lo) int32-range
    BIGINT halves (a uint64 never crosses the engine boundary).
    Same dictionary-code grouping as ``_hll_partials``."""
    et = batch["event_type"]
    uniq = pc.unique(et.combine_chunks()
                     if isinstance(et, pa.ChunkedArray) else et)
    codes = pc.index_in(et, value_set=uniq).to_numpy(
        zero_copy_only=False).astype(np.int64)
    users = batch["user_id"].to_numpy(
        zero_copy_only=False).astype(np.uint64)
    order = np.argsort(codes, kind="stable")
    sc, su = codes[order], users[order]
    bounds = np.r_[np.flatnonzero(np.r_[True, sc[1:] != sc[:-1]]),
                   len(sc)]
    types, his, los = [], [], []
    for i in range(len(bounds) - 1):
        h = np.unique(_mix64(su[bounds[i]:bounds[i + 1]]))[:k]
        types.extend([uniq[sc[bounds[i]]].as_py()] * len(h))
        his.append((h >> np.uint64(32)).astype(np.int64))
        los.append((h & np.uint64(0xFFFFFFFF)).astype(np.int64))
    return pa.table({
        "event_type": pa.array(types, type=pa.string()),
        "h_hi": pa.array(np.concatenate(his) if his
                         else np.empty(0, dtype=np.int64)),
        "h_lo": pa.array(np.concatenate(los) if los
                         else np.empty(0, dtype=np.int64)),
    })


def run_kmv_registers(sf_dir: str, k: int = KMV_K):
    """The merged KMV sketch STATE: per event_type, the k smallest
    distinct splitmix64(user_id) hash values with their rank ``pos``
    — the SQL-verifiable surface of :func:`run_distinct_users_kmv`
    (same discipline as :func:`run_hll_registers`: hash-match the full
    register state, derive the estimate from it).

    Scale shape: every batch emits ≤ k rows per type present
    (k-smallest is mergeable: union → k smallest), the merge groupby
    touches only (#blocks × #types × k) fixed-width rows, and the
    final state is (#types × k) rows regardless of corpus size."""
    from dude_ray.io import read_parquet_clean

    ds = read_parquet_clean(f"{sf_dir}/events.parquet",
                            columns=["event_type", "user_id"])

    def _merge(g: pd.DataFrame) -> pd.DataFrame:
        h = (g["h_hi"].to_numpy(dtype=np.int64).astype(np.uint64)
             << np.uint64(32)) | g["h_lo"].to_numpy(
                 dtype=np.int64).astype(np.uint64)
        h = np.unique(h)[:k]
        return pd.DataFrame({
            "event_type": [g["event_type"].iloc[0]] * len(h),
            "pos": pd.Series(np.arange(1, len(h) + 1), dtype="int64"),
            "h_hi": pd.Series((h >> np.uint64(32)).astype(np.int64)),
            "h_lo": pd.Series((h & np.uint64(0xFFFFFFFF))
                              .astype(np.int64)),
        })

    partials = ds.map_batches(
        lambda b: _kmv_partials(b, k), batch_format="pyarrow",
        batch_size=16384)
    return (partials.groupby("event_type")
            .map_groups(_merge, batch_format="pandas")
            .sort(["event_type", "pos"]))


def run_distinct_users_kmv(sf_dir: str, k: int = KMV_K):
    """Approximate distinct users per event_type from the KMV sketch:
    ``(k-1) / h_k`` with ``h_k`` the k-th smallest distinct hash as a
    fraction of 2^64 (exact count when fewer than k registers fill).

    Float contract: ``est = (k-1)·2^64 / double(h_k)`` — the numerator
    is the shared exact literal ``_KMV_NUM``; ``double(h_k)`` is the
    single IEEE rounding of the same uint64 in both engines (the SQL
    side reconstructs it as ``double(h_hi)·2^32 + double(h_lo)``,
    which is the identical rounding because ``h_hi·2^32`` is exact).
    Accuracy vs the exact count: test_kmv_accuracy_and_merge."""
    regs = run_kmv_registers(sf_dir, k=k)

    def _estimate(g: pd.DataFrame) -> pd.DataFrame:
        n = len(g)
        last = g.loc[g["pos"].idxmax()]
        kth = (float(int(last["h_hi"])) * 4294967296.0
               + float(int(last["h_lo"])))
        est = float(n) if n < k else _KMV_NUM / kth
        return pd.DataFrame({
            "event_type": [g["event_type"].iloc[0]],
            "n_regs": pd.Series([n], dtype="int64"),
            "n_users_kmv": pd.Series([est], dtype="float64"),
        })

    return (regs.groupby("event_type")
            .map_groups(_estimate, batch_format="pandas")
            .sort("event_type"))


def _sql_splitmix64_h(src: str = "events",
                      key: str = "user_id") -> str:
    """The splitmix64 CTE chain (s0..s6) shared with
    :func:`hll_registers_oracle_sql` — ends with (event_type, h)."""
    from dude_ray.pipelines.dedup import _sql_addmod64, _sql_mulmod64

    inc = int(_SPLITMIX_INC)
    c1, c2 = int(_SPLITMIX_C1), int(_SPLITMIX_C2)
    return f"""
        s0 AS (SELECT event_type, CAST({key} AS UBIGINT) AS u
               FROM {src}),
        s1 AS (SELECT event_type, {_sql_addmod64('u', str(inc))} AS x
               FROM s0),
        s2 AS (SELECT event_type, xor(x, x >> 30) AS x FROM s1),
        s3 AS (SELECT event_type, {_sql_mulmod64('x', c1)} AS x FROM s2),
        s4 AS (SELECT event_type, xor(x, x >> 27) AS x FROM s3),
        s5 AS (SELECT event_type, {_sql_mulmod64('x', c2)} AS x FROM s4),
        s6 AS (SELECT event_type, xor(x, x >> 31) AS h FROM s5)
    """


def kmv_registers_oracle_sql(k: int = KMV_K) -> str:
    """DuckDB oracle for :func:`run_kmv_registers` — the same
    splitmix64 recompute, then the k smallest distinct hashes per
    type by window rank."""
    return f"""
        WITH {_sql_splitmix64_h()},
        u AS (SELECT DISTINCT event_type, h FROM s6),
        r AS (SELECT event_type, h,
                     row_number() OVER (PARTITION BY event_type
                                        ORDER BY h) AS pos
              FROM u)
        SELECT event_type, CAST(pos AS BIGINT) AS pos,
               CAST(h >> 32 AS BIGINT) AS h_hi,
               CAST(h & 4294967295 AS BIGINT) AS h_lo
        FROM r WHERE pos <= {k}
        ORDER BY event_type, pos
    """


def distinct_users_kmv_oracle_sql(k: int = KMV_K) -> str:
    """DuckDB oracle for :func:`run_distinct_users_kmv` — estimate
    derived from the register state with the shared float contract."""
    return f"""
        WITH regs AS ({kmv_registers_oracle_sql(k)}),
        g AS (SELECT event_type,
                     CAST(count(*) AS BIGINT) AS n_regs,
                     max(CAST(h_hi AS DOUBLE) * 4294967296.0
                         + CAST(h_lo AS DOUBLE)) AS kth
              FROM (SELECT * FROM regs) GROUP BY event_type)
        SELECT event_type, n_regs,
               CASE WHEN n_regs < {k} THEN CAST(n_regs AS DOUBLE)
                    ELSE {_KMV_NUM!r} / kth END AS n_users_kmv
        FROM g ORDER BY event_type
    """


# --------------------------------------------------------------------------
# HLL set algebra: pairwise audience overlap by inclusion-exclusion
# --------------------------------------------------------------------------

def run_hll_intersect(sf_dir: str):
    """Approximate pairwise audience overlap between event types from
    HLL sketch ALGEBRA alone: union registers = element-wise max of
    the two types' register arrays, so for every type pair (a < b)
    ``n_inter = max(0, n_a + n_b − n_union)`` by inclusion-exclusion —
    the overlap estimate without ever re-scanning the fact stream
    (the exact twin is ``relational.run_audience_overlap``).

    Plan (the 100 TB shape): identical partial/merge dataflow to
    :func:`run_distinct_users_approx` — per-batch 4 KiB register
    blobs, per-type max-merge — then ONE final task pairs the ≤
    |types| merged blobs (constant work: types², each pair an
    element-wise max over 2^p bytes).  The corpus is scanned once;
    nothing data-sized leaves the sketch stage.

    Float contract: n_a / n_b / n_union each use the established
    integer estimate of ``run_distinct_users_approx`` (exact-integer
    harmonic sum, one shared-literal float division, floor+0.5), and
    n_inter is EXACT int arithmetic on those three ints — so the pair
    table is bit-stable across engines by construction."""
    from dude_ray.io import read_parquet_clean

    ds = read_parquet_clean(f"{sf_dir}/events.parquet",
                            columns=["event_type", "user_id"])

    def _merge_blob(g: pd.DataFrame) -> pd.DataFrame:
        merged = np.zeros(_M, dtype=np.uint8)
        for blob in g["regs"]:
            np.maximum(merged, np.frombuffer(blob, dtype=np.uint8),
                       out=merged)
        return pd.DataFrame({"event_type": [g["event_type"].iloc[0]],
                             "regs": [merged.tobytes()]})

    partials = ds.map_batches(_hll_partials, batch_format="pyarrow",
                              batch_size=16384)
    per_type = partials.groupby("event_type").map_groups(
        _merge_blob, batch_format="pandas")

    def _est(regs: np.ndarray) -> int:
        return int(np.floor(hll_estimate(regs) + 0.5))

    def _pairs(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("event_type").reset_index(drop=True)
        blobs = [np.frombuffer(b, dtype=np.uint8) for b in df["regs"]]
        singles = [_est(r) for r in blobs]
        ta, tb, na, nb, nu, ni = [], [], [], [], [], []
        for i in range(len(df)):
            for j in range(i + 1, len(df)):
                u = _est(np.maximum(blobs[i], blobs[j]))
                ta.append(df["event_type"].iloc[i])
                tb.append(df["event_type"].iloc[j])
                na.append(singles[i])
                nb.append(singles[j])
                nu.append(u)
                ni.append(max(0, singles[i] + singles[j] - u))
        return pd.DataFrame({
            "type_a": pd.Series(ta, dtype=object),
            "type_b": pd.Series(tb, dtype=object),
            "n_a": pd.Series(na, dtype="int64"),
            "n_b": pd.Series(nb, dtype="int64"),
            "n_union": pd.Series(nu, dtype="int64"),
            "n_inter": pd.Series(ni, dtype="int64"),
        })

    return (per_type.repartition(1)
            .map_batches(_pairs, batch_format="pandas",
                         batch_size=None)
            .sort(["type_a", "type_b"]))


def _hll_estimate_sql(src: str, keys: str) -> str:
    """The shared estimate-from-register-rows SQL: ``src`` is a CTE
    name with columns ``{keys}, reg, rank``; returns a SELECT yielding
    ``{keys}, n`` with the exact expression tree of
    :func:`distinct_users_approx_oracle_sql`."""
    shift_max = _HLL_RANK_MAX
    full = 1 << _HLL_RANK_MAX
    return f"""
        SELECT {keys},
               CAST(floor(0.5 + CASE WHEN raw <= {2.5 * _M!r} AND zeros > 0
                                THEN {float(_M)!r} * ln({float(_M)!r} / zeros)
                                ELSE raw END) AS BIGINT) AS n
        FROM (
            SELECT {keys},
                   {_M} - npresent AS zeros,
                   {_HLL_NUM!r} / CAST(
                       CAST(s_present AS HUGEINT)
                       + ({_M} - npresent) * CAST({full} AS HUGEINT)
                       AS DOUBLE) AS raw
            FROM (
                SELECT {keys},
                       CAST(count(*) AS HUGEINT) AS npresent,
                       sum(CAST(1 AS BIGINT) << CAST({shift_max} - rank
                                                     AS INTEGER))
                           AS s_present
                FROM {src} GROUP BY {keys}
            )
        )
    """


def hll_intersect_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_hll_intersect`: the register state
    from :func:`hll_registers_oracle_sql`, pairwise max-merged in SQL,
    each estimate via the shared expression tree, inclusion-exclusion
    in exact BIGINT."""
    return f"""
        WITH regs AS ({hll_registers_oracle_sql()}),
        types AS (SELECT DISTINCT event_type FROM regs),
        pairs AS (
            SELECT a.event_type AS ta, b.event_type AS tb
            FROM types a JOIN types b ON a.event_type < b.event_type),
        uregs AS (
            SELECT p.ta, p.tb, r.reg, max(r.rank) AS rank
            FROM pairs p JOIN regs r
              ON r.event_type = p.ta OR r.event_type = p.tb
            GROUP BY 1, 2, 3),
        singles AS ({_hll_estimate_sql('regs', 'event_type')}),
        unions AS ({_hll_estimate_sql('uregs', 'ta, tb')})
        SELECT u.ta AS type_a, u.tb AS type_b,
               sa.n AS n_a, sb.n AS n_b, u.n AS n_union,
               greatest(CAST(0 AS BIGINT), sa.n + sb.n - u.n) AS n_inter
        FROM unions u
        JOIN singles sa ON sa.event_type = u.ta
        JOIN singles sb ON sb.event_type = u.tb
        ORDER BY type_a, type_b
    """
