"""Deduplication operators over the ``documents`` table — exact,
MinHash+LSH, SimHash, n-gram Jaccard, embedding-cosine near-dup.

Shuffle discipline (the point at 100 TB):

* exact: one groupby on the 16-byte content hash — rows entering the
  shuffle are (hash, doc_id) only, never the text;
* MinHash-LSH: shingle→minhash per batch (vectorized numpy), explode
  to (band, band_hash, doc_id) rows — the only all-to-all is a groupby
  over those tiny band rows; candidate pairs are verified with exact
  Jaccard afterwards;
* SimHash: 64-bit signatures, 4×16-bit band buckets, Hamming≤k verify;
* embedding near-dup: random-hyperplane LSH buckets then exact cosine
  verify inside each bucket — the embedding vectors ride *inside* the
  keyed dataset through the bucket groupby, so each verify task sees
  only its own bucket's vectors (nothing is ever materialized on the
  driver).

Verification needs both documents' shingles.  That is expressed as a
two-sided distributed hash join (``Dataset.join``) of the candidate
pair list against a (doc_id, shingle-hashes) dataset — first on ``a``,
then on ``b`` — so the only rows in motion are (pair, uint64-hash
list); the raw text never leaves the shingling stage and the driver
never holds the corpus.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from dude_ray.partitioning import group_agg, hash_grouped_reduce

MERSENNE31 = (1 << 31) - 1    # minhash permutation modulus — products of
                              # two 31-bit values fit in uint64, keeping the
                              # signature kernel pure-numpy vectorized
NUM_PERM = 128
BANDS = 16
ROWS_PER_BAND = NUM_PERM // BANDS

# partitions for the verify-stage hash joins at test scale; at 100 TB
# this scales with cluster size (it is the number of shuffle blocks)
JOIN_PARTITIONS = 8
# prefix buckets larger than this generate their O(b²) candidate pairs
# in bounded chunks (and log a watermark) instead of one np.triu_indices
# allocation — see run_jaccard_join._bucket_pairs
_PAIR_CHUNK_LIMIT = 2048


def _docs(sf_dir: str, columns):
    from dude_ray.io import read_parquet_clean

    return read_parquet_clean(f"{sf_dir}/documents.parquet", columns=columns)


# --------------------------------------------------------------------------
# exact dedup (content hash groupby)
# --------------------------------------------------------------------------

def md5_batch(batch: pa.Table) -> pa.Table:
    hs = [hashlib.md5((t or "").encode()).hexdigest() for t in batch["text"].to_pylist()]
    return pa.table({"h": pa.array(hs, type=pa.string()), "doc_id": batch["doc_id"]})


def run_exact_dedup(sf_dir: str, target_rows_per_group: int = 65536):
    """hash-partition + per-group first: keeper = min doc_id per md5.

    The reduce is a data-scaled hash group over the md5 key with one
    Arrow hash aggregate per group — key cardinality grows with
    the corpus, and Ray's groupby().aggregate() combine is
    Python-per-row (~20k rows/s measured), which would make THE
    canonical dedup the slowest stage at scale."""
    ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        md5_batch, batch_format="pyarrow", batch_size=4096)
    from dude_ray.partitioning import parquet_row_groups

    # size groups from parquet metadata (row count without a data read
    # or an extra materialize pass)
    n_rows = sum(n for _f, _rg, n in
                 parquet_row_groups(f"{sf_dir}/documents.parquet"))

    return hash_grouped_reduce(ds, "h",
                               lambda t: group_agg(
                                   t, "h",
                                   {"keeper_id": ("doc_id", "min"),
                                    "dup_count": ([], "count_all")}),
                               n_rows,
                               target_rows_per_group,
                               out_cols=("h", "keeper_id", "dup_count"))


# --------------------------------------------------------------------------
# shingling + MinHash
# --------------------------------------------------------------------------

_M1 = np.uint64(0x9E3779B97F4A7C15)
_M2 = np.uint64(0xC2B2AE3D27D4EB4F)
_M3 = np.uint64(0x165667B19E3779F9)
_MIXC = np.uint64(0xFF51AFD7ED558CCD)
_S33 = np.uint64(33)


def _avalanche(x: np.ndarray) -> np.ndarray:
    """64-bit finalizer (murmur3 fmix shape) — vectorized."""
    x = x ^ (x >> _S33)
    x = x * _MIXC
    return x ^ (x >> _S33)


class Shingler:
    """Word-3-gram shingle hashing, vectorized: tokens hash once through
    a per-instance memo (web vocabularies repeat heavily; md5 only on
    cache miss), then every 3-gram hash is one numpy expression over the
    token-hash array — no per-shingle Python or md5.  Hash values are
    internal to the dedup pipelines (Jaccard over 64-bit hash sets
    equals Jaccard over the string sets absent collisions).  Token hash
    = top 8 bytes of md5 — chosen over sha1 (like SimHasher) so the
    DuckDB oracle (md5, no sha1) reproduces every gram hash, and hence
    the minhash signatures and LSH band tuples, bit-for-bit
    (:func:`minhash_oracle_sql`)."""

    def __init__(self, n: int = 3):
        self.n = n
        self._cache: dict[str, int] = {}

    def _tok_hashes(self, toks: list[str]) -> np.ndarray:
        c = self._cache
        out = np.empty(len(toks), dtype=np.uint64)
        for i, t in enumerate(toks):
            h = c.get(t)
            if h is None:
                h = int.from_bytes(hashlib.md5(t.encode()).digest()[:8], "big")
                if len(c) < 1_000_000:
                    c[t] = h
            out[i] = h
        return out

    def shingle_hashes(self, text: str) -> np.ndarray:
        """Sorted unique uint64 shingle hashes for one doc."""
        toks = (text or "").lower().split()
        if not toks:
            return np.array([], dtype=np.uint64)
        th = self._tok_hashes(toks)
        if len(th) < self.n:
            x = np.uint64(0)
            for i, v in enumerate(th):
                x = x * _M1 + v * (_M2 if i % 2 else _M3)
            return np.unique(_avalanche(np.array([x], dtype=np.uint64)))
        x = th[:-2] * _M1 ^ th[1:-1] * _M2 ^ th[2:] * _M3
        return np.unique(_avalanche(x))


def _perm_params(num_perm: int = NUM_PERM, seed: int = 42):
    rng = np.random.RandomState(seed)
    a = rng.randint(1, MERSENNE31, size=num_perm, dtype=np.uint64)
    b = rng.randint(0, MERSENNE31, size=num_perm, dtype=np.uint64)
    return a, b


class MinHasher:
    """Banded minhash over the precomputed shingle dataset — consumes
    (doc_id, sh: packed uint64 blob) rows from ``shingle_dataset`` so
    shingling runs exactly once per corpus across the whole dedup
    pipeline (signatures + both verify joins).  The signature kernel
    and the per-band LSH keys are fully vectorized per batch: one
    (num_perm × shingles) universal-hash min per doc, then one mixing
    fold over the (docs × bands × rows) signature cube."""

    def __init__(self, num_perm: int = NUM_PERM, bands: int = BANDS, seed: int = 42):
        self.a, self.b = _perm_params(num_perm, seed)
        self.num_perm = num_perm
        self.bands = bands
        self.rows = num_perm // bands

    def signature(self, hashes: np.ndarray) -> np.ndarray:
        if not len(hashes):
            return np.full(self.num_perm, MERSENNE31, dtype=np.uint64)
        x = hashes % np.uint64(MERSENNE31)
        # (a*x + b) mod p, p = 2^31-1: both operands < 2^31 so the
        # product fits in uint64 — fully vectorized (num_perm, n_shingles)
        sig = (self.a[:, None] * x[None, :] + self.b[:, None]) % np.uint64(MERSENNE31)
        return sig.min(axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        """(doc_id, sh) rows → (band, band_hash, doc_id) rows."""
        ids = batch["doc_id"].to_pylist()
        sigs = np.stack([
            self.signature(np.frombuffer(b or b"", dtype="<u8"))
            for b in batch["sh"].to_pylist()
        ]) if len(ids) else np.empty((0, self.num_perm), dtype=np.uint64)
        # per-band key: mixing fold over each band's rows, all docs and
        # bands at once — (docs, bands, rows) → (docs, bands) uint64
        cube = sigs.reshape(len(ids), self.bands, self.rows)
        keys = np.zeros((len(ids), self.bands), dtype=np.uint64)
        for r in range(self.rows):
            keys = _avalanche(keys * _M1 ^ cube[:, :, r] * _M2)
        band_idx = np.tile(np.arange(self.bands, dtype=np.int32), len(ids))
        return pa.table({
            "band": pa.array(band_idx),
            "band_hash": pa.array(keys.reshape(-1), type=pa.uint64()),
            "doc_id": pa.array(np.repeat(np.asarray(ids, dtype=np.int64),
                                         self.bands), type=pa.int64()),
        })


def _band_pairs(g: pd.DataFrame) -> pd.DataFrame:
    """Candidate pairs for one group of banded rows: numpy bucket scan
    (lexsort → run boundaries → vectorized pairing; only the rare
    >2-doc buckets loop).  The group is one whole band on small
    corpora, or one (band, hash-prefix) slice at scale — the kernel
    only touches band_hash/doc_id, so it is identical in both tiers
    (see :func:`candidate_pairs_minhash` for the tier dispatch)."""
    h = g["band_hash"].to_numpy(dtype=np.uint64)
    d = g["doc_id"].to_numpy(dtype=np.int64)
    if not len(h):
        return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                             "b": pd.Series([], dtype="int64")})
    order = np.lexsort((d, h))
    h, d = h[order], d[order]
    keep = np.ones(len(h), dtype=bool)
    keep[1:] = (h[1:] != h[:-1]) | (d[1:] != d[:-1])
    h, d = h[keep], d[keep]
    starts = np.flatnonzero(np.r_[True, h[1:] != h[:-1]])
    ends = np.r_[starts[1:], len(h)]
    sizes = ends - starts
    out_a = []
    out_b = []
    s2 = starts[sizes == 2]
    out_a.append(d[s2])
    out_b.append(d[s2 + 1])
    for s0, e0 in zip(starts[sizes > 2], ends[sizes > 2]):
        ids = d[s0:e0]  # already ascending → a < b preserved
        for i in range(len(ids) - 1):
            out_a.append(np.repeat(ids[i], len(ids) - 1 - i))
            out_b.append(ids[i + 1:])
    a = np.concatenate(out_a) if out_a else np.array([], dtype=np.int64)
    b = np.concatenate(out_b) if out_b else np.array([], dtype=np.int64)
    return pd.DataFrame({"a": pd.Series(a, dtype="int64"),
                         "b": pd.Series(b, dtype="int64")})


# --------------------------------------------------------------------------
# distributed Jaccard verify (hash join on doc_id — no driver text)
# --------------------------------------------------------------------------

class ShingleLister:
    """documents → (doc_id, sh: binary) rows — ``sh`` is the sorted
    uint64 shingle-hash array as raw little-endian bytes (Acero hash
    joins pass binary payloads but not list columns).  Only these
    compact blobs — never the text — enter the signature stage and the
    verify joins."""

    def __init__(self):
        self.shingler = Shingler()

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        blobs = [self.shingler.shingle_hashes(t).astype("<u8").tobytes()
                 for t in batch["text"].to_pylist()]
        return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                         "sh": pa.array(blobs, type=pa.binary())})


def shingle_dataset(sf_dir: str):
    """The per-corpus (doc_id, sh) dataset, shingled ONCE and pinned in
    the (distributed, spillable) object store for reuse by the minhash
    signature stage and both sides of the verify joins — the text
    column is read exactly once per dedup run and never again."""
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        ShingleLister(), batch_format="pyarrow",
        batch_size=2048).materialize()


def _row_lists(col) -> list[np.ndarray]:
    """Per-row sorted-uint64 views of a binary column of packed hashes."""
    return [np.frombuffer(b or b"", dtype="<u8") for b in col.to_pylist()]


def _jaccard_sorted(x: np.ndarray, y: np.ndarray) -> float:
    inter = len(np.intersect1d(x, y, assume_unique=True))
    union = len(x) + len(y) - inter
    return round(inter / union, 6) if union else 0.0


def _jaccard_join_batch(batch: pa.Table) -> pa.Table:
    a_sets = _row_lists(batch["sh_a"])
    b_sets = _row_lists(batch["sh_b"])
    jac = [_jaccard_sorted(x, y) for x, y in zip(a_sets, b_sets)]
    return pa.table({"a": batch["a"], "b": batch["b"],
                     "jaccard": pa.array(jac, type=pa.float64())})


def _verify_pairs_jaccard(pairs, sh, num_partitions: int = JOIN_PARTITIONS,
                          kernel=None):
    """(a, b) pairs → (a, b, jaccard) via two distributed hash joins
    against the materialized shingle dataset ``sh``.  Only (pair,
    hash-list) rows move through the shuffle; the documents table is
    never collected and the text is never re-read.  ``kernel``
    (default :func:`_jaccard_join_batch`) maps the joined
    (a, b, sh_a, sh_b) batches to the verified metric rows —
    :func:`run_ngram_containment` passes the containment kernel."""
    if kernel is None:
        kernel = _jaccard_join_batch
    # zero-CPU aggregators: the join's shuffle actors must always be
    # schedulable alongside the upstream map stages — with the
    # default 1-CPU request the streaming DAG deadlocks on small CPU
    # budgets (maps hold every slot while the aggregators that must
    # drain them stay pending).  The aggregator work is tiny
    # (hash-bucket append + one acero join per partition).
    agg_args = {"num_cpus": 0}

    # Sequence the two joins: lazily chained they form one streaming DAG
    # with three input branches and two join operators live at once,
    # whose summed minimum resource floor can exceed a small cluster and
    # live-lock the executor.  The materialized intermediates are
    # pair-scoped (candidate pairs × shingle blob), bounded by the
    # near-dup candidate count — orders of magnitude below corpus size —
    # and spill to the object store if large.
    pairs = pairs.materialize()
    # partition count scales with the pair count (it is the number of
    # shuffle blocks AND of aggregator actors — a 25-pair verify does
    # not need 8 cold-started aggregators per side)
    # 1 partition for tiny pair sets: a hash partition that receives
    # zero rows materializes as a SCHEMA-LESS empty table and Acero
    # rejects the join key (seen with a single candidate pair)
    num_partitions = max(1, min(num_partitions, pairs.count() // 512 + 1))
    j = pairs.join(sh, "inner", num_partitions,
                   on=("a",), right_on=("doc_id",),
                   aggregator_ray_remote_args=agg_args)
    j = j.map_batches(
        lambda t: pa.table({"a": t["a"], "b": t["b"], "sh_a": t["sh"]}),
        batch_format="pyarrow").materialize()
    j = j.join(sh, "inner", num_partitions,
               on=("b",), right_on=("doc_id",),
               aggregator_ray_remote_args=agg_args)
    j = j.map_batches(
        lambda t: pa.table({"a": t["a"], "b": t["b"],
                            "sh_a": t["sh_a"], "sh_b": t["sh"]}),
        batch_format="pyarrow")
    return j.map_batches(kernel, batch_format="pyarrow",
                         batch_size=4096)


def _distinct_pairs(pairs, target_rows_per_group: int = 65536,
                    small_tier_max_rows: int = 100_000):
    """Exact distinct on (a, b) — a pair found in several bands must
    dedup before the (expensive) verify.  Per-block C++ Arrow distinct
    first (removes the within-band duplicate mass for free), then two
    tiers keyed on the MEASURED surviving row count (the
    pagerank/dup_clusters tiering idiom):

    * ``≤ small_tier_max_rows`` (≤ ~1.6 MB of int64 pairs) — one-block
      Arrow distinct; a bounded, documented materialization, NOT the
      old unconditional ``repartition(1)``.
    * above — the shared data-scaled hash-grouped reduce: bucket on a
      deterministic hash of the WHOLE pair (identical pairs always
      land in one group, so per-group ``drop_duplicates`` is globally
      exact) with no task holding more than ~``target_rows_per_group``
      rows.  On a dup-heavy corpus at web scale the candidate set can
      reach billions of rows — this is the path that carries there.

    Tier equivalence + width independence are pytest-parametrized."""

    def distinct(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["a", "b"]).aggregate([])
        return g.select(["a", "b"])

    lvl1 = pairs.map_batches(distinct, batch_format="pyarrow",
                             batch_size=None).materialize()
    n = lvl1.count()
    if n == 0:
        return lvl1
    if n <= small_tier_max_rows:
        return lvl1.repartition(1).map_batches(
            distinct, batch_format="pyarrow", batch_size=None)

    return hash_grouped_reduce(lvl1, ["a", "b"],
                               lambda t: group_agg(t, ["a", "b"]), n,
                               target_rows_per_group,
                               out_cols=("a", "b"))


def candidate_pairs_minhash(sh, target_rows_per_group: int = 65536,
                            small_tier_max_rows: int = 100_000,
                            band_rows_per_group: int = 2_000_000,
                            prefix_bits: int | None = None):
    """shingle dataset → banded minhash rows → bucket groupby →
    unique candidate pairs.

    Grouping is TIERED on the measured per-band row count (the
    _distinct_pairs / pagerank idiom; VERDICT_r04 #2): at or below
    ``band_rows_per_group`` rows per band the groupby key is the band
    alone (BANDS groups — one vectorized bucket scan each, no
    per-bucket dispatch cost); above it, each band splits by the top
    ``prefix_bits`` of band_hash into ``(band, prefix)`` groups.  Every
    LSH bucket shares one band_hash — hence one prefix — so buckets
    never straddle groups and the candidate set is IDENTICAL across
    tiers (pytest-asserted equivalence), while per-group memory drops
    from n/BANDS to ~n/(BANDS·2^bits): parallelism is no longer capped
    at BANDS and no task's group grows with corpus size.  At 10^10
    docs (1.6e11 banded rows) this picks 13 bits → ~131k groups of
    ~1.2M rows (~20 MB) each."""
    ds = sh.map_batches(MinHasher(), batch_format="pyarrow", batch_size=2048)
    if prefix_bits is None:
        # sh is materialized → count() is block-metadata, not a scan
        per_band = sh.count()
        prefix_bits = max(0, min(20, int(np.ceil(np.log2(
            max(1.0, per_band / band_rows_per_group))))))
    if prefix_bits == 0:
        pairs = ds.groupby("band").map_groups(_band_pairs,
                                              batch_format="pandas")
    else:
        bits = prefix_bits

        def _gkey(batch: pa.Table) -> pa.Table:
            # shift amount as a uint64 scalar: a bare python int would
            # be int64 and the uint64/int64 common-type cast overflows
            prefix = pc.cast(pc.shift_right(batch["band_hash"],
                                            pa.scalar(64 - bits, pa.uint64())),
                             pa.int64())
            gkey = pc.add(pc.multiply(pc.cast(batch["band"], pa.int64()),
                                      1 << bits), prefix)
            return batch.append_column("gkey", gkey)

        pairs = (ds.map_batches(_gkey, batch_format="pyarrow")
                 .groupby("gkey").map_groups(_band_pairs,
                                             batch_format="pandas"))
    return _distinct_pairs(pairs, target_rows_per_group,
                           small_tier_max_rows)


def run_minhash_dedup(sf_dir: str, threshold: float = 0.8,
                      target_rows_per_group: int = 65536,
                      small_tier_max_rows: int = 100_000,
                      band_rows_per_group: int = 2_000_000,
                      prefix_bits: int | None = None):
    """Verified near-duplicate pairs (jaccard >= threshold)."""
    sh = shingle_dataset(sf_dir)
    pairs = candidate_pairs_minhash(sh, target_rows_per_group,
                                    small_tier_max_rows,
                                    band_rows_per_group, prefix_bits)
    verified = _verify_pairs_jaccard(pairs, sh)
    return verified.map_batches(
        lambda t: t.filter(pc.greater_equal(t["jaccard"], threshold)),
        batch_format="pyarrow")


def _containment_join_batch(batch: pa.Table) -> pa.Table:
    """(a, b, sh_a, sh_b) → (a, b, n_a, n_b, n_inter, containment)
    with containment = |A∩B| / min(|A|, |B|) — the asymmetric-overlap
    metric that catches subset duplication (one doc quoted whole
    inside a larger one) that Jaccard dilutes below threshold."""
    a_sets = _row_lists(batch["sh_a"])
    b_sets = _row_lists(batch["sh_b"])
    na, nb, ni, cont = [], [], [], []
    for x, y in zip(a_sets, b_sets):
        inter = len(np.intersect1d(x, y, assume_unique=True))
        m = min(len(x), len(y))
        na.append(len(x))
        nb.append(len(y))
        ni.append(inter)
        cont.append(round(inter / m, 6) if m else 0.0)
    return pa.table({
        "a": batch["a"], "b": batch["b"],
        "n_a": pa.array(na, type=pa.int64()),
        "n_b": pa.array(nb, type=pa.int64()),
        "n_inter": pa.array(ni, type=pa.int64()),
        "containment": pa.array(cont, type=pa.float64()),
    })


def run_ngram_containment(sf_dir: str):
    """Exact n-gram CONTAINMENT for every LSH candidate pair —
    |A∩B| / min(|A|, |B|) over the distinct word-3-gram hash sets,
    with the exact set sizes alongside.  Same candidate generation
    and two-join verify dataflow as :func:`run_ngram_jaccard`
    (shingle once, join twice, never collect text); only the verify
    kernel differs.  Containment ≥ Jaccard always, so this surfaces
    the near-subset pairs a Jaccard threshold silently drops."""
    sh = shingle_dataset(sf_dir)
    pairs = candidate_pairs_minhash(sh)
    return _verify_pairs_jaccard(pairs, sh,
                                 kernel=_containment_join_batch)


def run_ngram_jaccard(sf_dir: str):
    """Exact n-gram Jaccard for every LSH candidate pair (the verify
    stage exposed as its own operator).  Recall is banding-bounded —
    :func:`run_jaccard_join` is the EXACT-recall sibling (prefix
    filtering instead of LSH candidates)."""
    sh = shingle_dataset(sf_dir)
    pairs = candidate_pairs_minhash(sh)
    return _verify_pairs_jaccard(pairs, sh)


# --------------------------------------------------------------------------
# SimHash
# --------------------------------------------------------------------------

class SimHasher:
    """64-bit SimHash per doc + 4×16-bit band keys.  The bit-accumulate
    kernel is vectorized (np.unpackbits over the token-hash bytes, one
    count-weighted matmul per doc); token hashes are memoized per task
    copy because web-corpus vocabularies repeat heavily.  Token hash = top 8
    bytes of md5 — chosen over sha1 so the DuckDB oracle (which has
    md5 but no sha1) reproduces the signatures exactly."""

    def __init__(self):
        self._tok_cache: dict[str, int] = {}

    def _tok_hash(self, tok: str) -> int:
        h = self._tok_cache.get(tok)
        if h is None:
            h = int.from_bytes(hashlib.md5(tok.encode()).digest()[:8], "big")
            if len(self._tok_cache) < 1_000_000:
                self._tok_cache[tok] = h
        return h

    def simhash(self, text: str) -> int:
        toks = (text or "").lower().split()
        if not toks:
            return 0
        uniq, counts = np.unique(np.asarray(toks, dtype=object),
                                 return_counts=True)
        hs = np.fromiter((self._tok_hash(t) for t in uniq),
                         dtype=np.uint64, count=len(uniq))
        # bits[i, k] = (hs[i] >> k) & 1 — little-endian byte view +
        # LSB-first unpack reproduces the per-bit loop exactly
        bits = np.unpackbits(
            hs.view(np.uint8).reshape(len(hs), 8), axis=1,
            bitorder="little").astype(np.int64)
        acc = 2 * (counts @ bits) - counts.sum()
        sig_bits = (acc > 0).astype(np.uint8)
        return int.from_bytes(
            np.packbits(sig_bits, bitorder="little").tobytes(), "little")

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_doc, out_band, out_key, out_sig = [], [], [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            sig = self.simhash(text)
            for band in range(4):
                out_doc.append(doc_id)
                out_band.append(band)
                out_key.append((sig >> (band * 16)) & 0xFFFF)
                out_sig.append(sig)
        return pa.table({
            "doc_id": pa.array(out_doc, type=pa.int64()),
            "band": pa.array(out_band, type=pa.int32()),
            "key": pa.array(out_key, type=pa.int64()),
            "sig": pa.array(out_sig, type=pa.uint64()),
        })


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array."""
    if not len(x):
        return np.array([], dtype=np.int64)
    return np.unpackbits(x.view(np.uint8).reshape(len(x), 8),
                         axis=1).sum(axis=1).astype(np.int64)


def run_simhash_dedup(sf_dir: str, max_hamming: int = 3):
    ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        SimHasher(), batch_format="pyarrow", batch_size=2048)
    from dude_ray.pipelines.relational import tree_combine

    def _band_simhash_pairs(g: pd.DataFrame) -> pd.DataFrame:
        """One numpy bucket scan per band (same run-boundary shape as
        ``_band_pairs``): 2-doc buckets pair vectorized, larger buckets
        do a vectorized one-vs-rest XOR/popcount per doc."""
        key = g["key"].to_numpy(dtype=np.int64)
        d = g["doc_id"].to_numpy(dtype=np.int64)
        sig = g["sig"].to_numpy(dtype=np.uint64)
        empty = pd.DataFrame({"a": pd.Series([], dtype="int64"),
                              "b": pd.Series([], dtype="int64"),
                              "hamming": pd.Series([], dtype="int64")})
        if not len(key):
            return empty
        order = np.lexsort((d, key))
        key, d, sig = key[order], d[order], sig[order]
        keep = np.ones(len(key), dtype=bool)
        keep[1:] = (key[1:] != key[:-1]) | (d[1:] != d[:-1])
        key, d, sig = key[keep], d[keep], sig[keep]
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        ends = np.r_[starts[1:], len(key)]
        sizes = ends - starts
        out_a, out_b, out_h = [], [], []
        s2 = starts[sizes == 2]
        if len(s2):
            ham = _popcount64(sig[s2] ^ sig[s2 + 1])
            ok = ham <= max_hamming
            out_a.append(d[s2][ok])
            out_b.append(d[s2 + 1][ok])
            out_h.append(ham[ok])
        for s0, e0 in zip(starts[sizes > 2], ends[sizes > 2]):
            ids, sg = d[s0:e0], sig[s0:e0]
            for i in range(len(ids) - 1):
                ham = _popcount64(sg[i] ^ sg[i + 1:])
                ok = ham <= max_hamming
                if ok.any():
                    out_a.append(np.repeat(ids[i], int(ok.sum())))
                    out_b.append(ids[i + 1:][ok])
                    out_h.append(ham[ok])
        if not out_a:
            return empty
        return pd.DataFrame({
            "a": pd.Series(np.concatenate(out_a), dtype="int64"),
            "b": pd.Series(np.concatenate(out_b), dtype="int64"),
            "hamming": pd.Series(np.concatenate(out_h), dtype="int64")})

    pairs = ds.groupby("band").map_groups(_band_simhash_pairs,
                                          batch_format="pandas")
    return tree_combine(pairs, ["a", "b"], mins=("hamming",))


# --------------------------------------------------------------------------
# embedding-cosine near-dup
# --------------------------------------------------------------------------

class HyperplaneLSH:
    """Random-hyperplane signatures over the embedding column.  Fewer
    bits → larger buckets → higher recall at lower similarity (the
    operator's recall/cost knob).  Emits the L2-normalized vector along
    with the bucket key so the verify groupby carries its own data —
    no driver-side matrix, no closure capture.  Planes are built lazily
    from the first batch's dimensionality (seeded → identical across
    tasks).  Keys use similarity.quantized_signature's integer-exact
    scheme, so the bucket partition is bit-reproducible by the
    embedding_neardup SQL oracle."""

    def __init__(self, n_bits: int = 16, seed: int = 42):
        self.n_bits = n_bits
        self.seed = seed
        self.planes: np.ndarray | None = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        from dude_ray.pipelines.similarity import (lsh_planes,
                                                   quantized_signature)

        emb = np.stack(batch["embedding"].to_pylist()).astype(np.float64)
        if self.planes is None:
            self.planes = lsh_planes(emb.shape[1], self.n_bits, self.seed)
        norm = emb / np.maximum(np.linalg.norm(emb, axis=1, keepdims=True), 1e-12)
        keys = quantized_signature(emb, self.planes)
        return pa.table({
            "vec_id": batch["vec_id"],
            "key": pa.array(keys, type=pa.int64()),
            "nemb": pa.array(list(norm), type=pa.list_(pa.float64())),
        })


def run_embedding_neardup(sf_dir: str, threshold: float = 0.95,
                          n_bits: int = 16, n_groups: int | None = None,
                          target_rows_per_group: int = 20_000):
    """Cosine near-dup pairs: hyperplane-LSH bucket → exact cosine
    verify inside each bucket.  The normalized embeddings travel inside
    the keyed dataset through the bucket groupby, so each verify task
    works from its own group's vectors only (scale-safe: the shuffle
    moves each vector exactly once; nothing is materialized globally).

    Dispatch granularity is DATA-SCALED: LSH buckets are coarsened to
    ``n_groups`` map_groups tasks (low bits of the bucket key, so a
    bucket always lands whole in one group), with ``n_groups`` derived
    from the input row count so a task holds ~``target_rows_per_group``
    vectors (20k × d=128 f64 ≈ 20 MB) — a fixed mask would concentrate
    a constant fraction of ALL vectors per task at any scale.  Verify
    semantics are mask-width-independent (pairs only form inside a full
    bucket key); asserted by the parametrized width test."""
    import ray.data as rd

    from dude_ray.io import read_parquet_clean
    from dude_ray.partitioning import estimate_rows, scaled_group_count

    path = f"{sf_dir}/embeddings.parquet"
    if n_groups is None:
        n_groups = scaled_group_count(
            estimate_rows(path), target_rows_per_group, hi=1 << n_bits)
    kmask = n_groups - 1

    ds = read_parquet_clean(path, columns=["vec_id", "embedding"])
    keyed = ds.map_batches(HyperplaneLSH(n_bits), batch_format="pyarrow",
                           batch_size=4096)

    def bucket_verify(vids: np.ndarray, vecs: np.ndarray):
        order = np.argsort(vids)
        vids, vecs = vids[order], vecs[order]
        # threshold compare on the ROUNDED sim (the 6-dp output value):
        # the cross-engine contract the SQL oracle shares — a raw
        # compare could flip on a last-ulp cosine difference
        sims = np.round(vecs @ vecs.T, 6)
        iu, ju = np.triu_indices(len(vids), k=1)
        keep = sims[iu, ju] >= threshold
        return (vids[iu[keep]], vids[ju[keep]], sims[iu[keep], ju[keep]])

    def _coarse(batch):
        import pyarrow.compute as _pc

        return batch.append_column(
            "kgroup",
            _pc.cast(_pc.bit_wise_and(batch["key"], kmask), pa.int64()))

    def _group_verify(g: pd.DataFrame) -> pa.Table:
        """Run-boundary bucket scan (sort by key, slice runs ≥ 2) —
        no per-bucket pandas groupby dispatch; each multi-doc bucket
        verifies with one dense matmul."""
        key = g["key"].to_numpy(dtype=np.int64)
        vid = g["vec_id"].to_numpy(dtype=np.int64)
        out_a, out_b, out_s = [], [], []
        if len(key):
            order = np.lexsort((vid, key))
            key, vid = key[order], vid[order]
            vecs = np.stack(g["nemb"].to_numpy()[order])
            keep = np.ones(len(key), dtype=bool)
            keep[1:] = (key[1:] != key[:-1]) | (vid[1:] != vid[:-1])
            key, vid, vecs = key[keep], vid[keep], vecs[keep]
            starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
            ends = np.r_[starts[1:], len(key)]
            for s0, e0 in zip(starts[ends - starts >= 2],
                              ends[ends - starts >= 2]):
                a, b, s = bucket_verify(vid[s0:e0], vecs[s0:e0])
                out_a.append(a)
                out_b.append(b)
                out_s.append(s)
        a = np.concatenate(out_a) if out_a else np.array([], dtype=np.int64)
        b = np.concatenate(out_b) if out_b else np.array([], dtype=np.int64)
        s = np.concatenate(out_s) if out_s else np.array([], dtype=np.float64)
        # arrow output keeps every block schema identical to the pinned
        # empty table unioned below (mixed pandas/arrow blocks trip the
        # executor's schema-consistency warning)
        return pa.table({"a": pa.array(a, type=pa.int64()),
                         "b": pa.array(b, type=pa.int64()),
                         "cosine": pa.array(s, type=pa.float64())})

    from dude_ray.pipelines.relational import tree_combine

    pairs = keyed.map_batches(_coarse, batch_format="pyarrow").groupby(
        "kgroup").map_groups(_group_verify, batch_format="pandas")
    out = tree_combine(pairs, ["a", "b"], mins=("cosine",))
    # pin the schema even when no pair clears the threshold (an empty
    # aggregate otherwise yields a schemaless dataset)
    empty = rd.from_arrow(pa.table({
        "a": pa.array([], type=pa.int64()),
        "b": pa.array([], type=pa.int64()),
        "cosine": pa.array([], type=pa.float64()),
    }))
    return empty.union(out)


def embedding_neardup_oracle_sql(threshold: float = 0.95,
                                 n_bits: int = 16, seed: int = 42) -> str:
    """DuckDB oracle for :func:`run_embedding_neardup` — the APPROXIMATE
    pipeline recomputed independently: the integer-exact hyperplane
    bucket keys (bit-identical, see similarity.quantized_signature),
    the same-bucket self-join, and the 6-dp-rounded cosine threshold
    contract the verify kernel shares."""
    from dude_ray.pipelines.similarity import quantize_sql, signature_sql

    cos = ("round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), "
           "CAST(b.embedding AS DOUBLE[])), 6)")
    return f"""
        WITH sig AS (
            SELECT vec_id, embedding,
                   {signature_sql(n_bits, seed=seed)} AS key
            FROM (SELECT vec_id, embedding,
                         {quantize_sql()} AS q
                  FROM embeddings)
        )
        SELECT a.vec_id AS a, b.vec_id AS b, {cos} AS cosine
        FROM sig a JOIN sig b
          ON a.key = b.key AND a.vec_id < b.vec_id
        WHERE {cos} >= {threshold}
    """


class _BlockPairJoin:
    """Pair-join stage for the exact all-pairs cosine scan: an LRU of
    L2-normalized float64 block matrices keyed by (file, row-group),
    loaded straight from parquet row groups (never via the driver);
    each pair row triggers one dense A @ B.T.  Passed as an instance,
    so the LRU lives in each task's copy: an actor pool that kept it
    across tasks was slower (6.66 → 6.51 s warm at 48 row groups, 3.15
    → 2.39 s at 16, 2,000 vectors, 4-CPU session)."""

    CACHE = 16  # blocks × (4096 rows × d=128 × 8 B) ≈ 64 MB ceiling

    def __init__(self, threshold: float):
        self.threshold = threshold
        self._cache: dict = {}

    def _block(self, path: str, rg: int):
        import pyarrow.parquet as pq

        key = (path, rg)
        hit = self._cache.pop(key, None)
        if hit is None:
            t = pq.ParquetFile(path).read_row_group(
                rg, columns=["vec_id", "embedding"])
            vid = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            emb = np.stack(t["embedding"].to_pylist()).astype(np.float64)
            emb /= np.maximum(np.linalg.norm(emb, axis=1, keepdims=True),
                              1e-12)
            hit = (vid, emb)
            if len(self._cache) >= self.CACHE:
                self._cache.pop(next(iter(self._cache)))
        self._cache[key] = hit  # re-insert = LRU touch
        return hit

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_a, out_b, out_s = [], [], []
        for row in batch.to_pylist():
            avid, amat = self._block(row["a_file"], row["a_rg"])
            bvid, bmat = self._block(row["b_file"], row["b_rg"])
            sims = amat @ bmat.T
            if row["same"]:
                ii, jj = np.triu_indices(len(avid), k=1)
            else:
                ii, jj = np.unravel_index(np.arange(sims.size), sims.shape)
            s = np.round(sims[ii, jj], 4)
            keep = s >= self.threshold
            a, b = avid[ii[keep]], bvid[jj[keep]]
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            out_a.append(lo)
            out_b.append(hi)
            out_s.append(s[keep])
        cat = lambda xs, dt: (np.concatenate(xs) if xs
                              else np.array([], dtype=dt))
        return pa.table({
            "a": pa.array(cat(out_a, np.int64), type=pa.int64()),
            "b": pa.array(cat(out_b, np.int64), type=pa.int64()),
            "cosine": pa.array(cat(out_s, np.float64), type=pa.float64()),
        })


def run_embedding_neardup_exact(sf_dir: str, threshold: float = 0.35):
    """EXACT all-pairs cosine near-dup — the recall-1 counterpart to the
    LSH-bucketed ``run_embedding_neardup``, built as a blocked pair
    join: parquet row groups are the blocks, a driver-side enumeration
    of the B·(B+1)/2 block pairs (metadata only — O(B²) ints, no
    vectors) fans out to a task stage that streams the two blocks
    from storage and runs one dense matmul per pair.  Work is
    inherently O(n²) — that is the operator's contract (use the LSH
    variant when approximate recall is acceptable); what scales is the
    layout: no task ever holds more than two blocks, nothing transits
    the driver, and the pair list is embarrassingly parallel."""
    import ray.data as rd

    from dude_ray.partitioning import parquet_row_groups

    blocks = parquet_row_groups(f"{sf_dir}/embeddings.parquet")
    items = []
    for i, (fa, ra, _na) in enumerate(blocks):
        for fb, rb, _nb in blocks[i:]:
            items.append({"a_file": fa, "a_rg": ra, "b_file": fb,
                          "b_rg": rb, "same": (fa, ra) == (fb, rb)})
    pairs = rd.from_items(items).map_batches(
        _BlockPairJoin(threshold), batch_format="pyarrow", batch_size=4)
    empty = rd.from_arrow(pa.table({
        "a": pa.array([], type=pa.int64()),
        "b": pa.array([], type=pa.int64()),
        "cosine": pa.array([], type=pa.float64()),
    }))
    return empty.union(pairs)


# --------------------------------------------------------------------------
# consecutive-pair n-gram Jaccard (SQL-checkable variant)
# --------------------------------------------------------------------------

class GramHasher:
    """documents → (pair, side, g: sorted list<uint64>) rows matching
    the DuckDB oracle's gram semantics: split on single spaces,
    lowercase, distinct word-3-grams; docs under 3 words → empty set.
    Doc d feeds pair d (left side) and pair d-1 (right side)."""

    def __init__(self, limit: int):
        self.limit = limit

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_pair, out_side, lists = [], [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(),
                                batch["text"].to_pylist()):
            w = [x.lower() for x in (text or "").split(" ")]
            grams = {" ".join(w[i:i + 3]) for i in range(len(w) - 2)}
            arr = np.fromiter(
                (int.from_bytes(hashlib.sha1(g.encode()).digest()[:8], "big")
                 for g in grams), dtype=np.uint64, count=len(grams))
            arr.sort()
            if doc_id < self.limit:
                out_pair.append(doc_id)
                out_side.append(0)
                lists.append(arr)
            if 0 <= doc_id - 1 < self.limit:
                out_pair.append(doc_id - 1)
                out_side.append(1)
                lists.append(arr)
        offsets = np.zeros(len(lists) + 1, dtype=np.int64)
        if lists:
            offsets[1:] = np.cumsum([len(v) for v in lists])
        values = (np.concatenate(lists) if lists and offsets[-1]
                  else np.array([], dtype=np.uint64))
        g = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int64()),
                                     pa.array(values, type=pa.uint64()))
        return pa.table({"pair": pa.array(out_pair, type=pa.int64()),
                         "side": pa.array(out_side, type=pa.int32()),
                         "g": g})


def run_ngram_jaccard_pairs(sf_dir: str, limit: int = 100):
    """Exact word-3-gram Jaccard for the deterministic consecutive-id
    pair set (doc i vs doc i+1, i < limit) — a real Ray pipeline: each
    doc emits its gram-hash set keyed to the pair(s) it belongs to, a
    groupby on the pair id co-locates the two sides, and the Jaccard is
    computed per group.  Only (pair, hash-list) rows shuffle; no text
    or corpus ever reaches the driver.  Gram hashing is 64-bit sha1 —
    collision-free at any realistic gram count, so values equal the
    string-set oracle."""
    ds = _docs(sf_dir, ["doc_id", "text"]).filter(
        expr=f"doc_id <= {limit}")
    rows = ds.map_batches(GramHasher(limit), batch_format="pyarrow",
                          batch_size=2048)

    def pair_jaccard(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:  # partner doc missing → pair undefined (oracle inner join)
            return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                 "b": pd.Series([], dtype="int64"),
                                 "jaccard": pd.Series([], dtype="float64")})
        g = g.sort_values("side")
        ga = np.asarray(g.iloc[0]["g"], dtype=np.uint64)
        gb = np.asarray(g.iloc[1]["g"], dtype=np.uint64)
        p = int(g.iloc[0]["pair"])
        return pd.DataFrame({"a": pd.Series([p], dtype="int64"),
                             "b": pd.Series([p + 1], dtype="int64"),
                             "jaccard": pd.Series([_jaccard_sorted(ga, gb)],
                                                  dtype="float64")})

    return rows.groupby("pair").map_groups(pair_jaccard, batch_format="pandas")


# --------------------------------------------------------------------------
# incremental dedup vs a prior corpus snapshot (Bloom + exact confirm)
# --------------------------------------------------------------------------

def run_dedup_incremental(sf_dir: str, cutoff: int | None = None,
                          bits_per_key: int = 10):
    """New-content detection against an already-ingested snapshot: emit
    the current batch's docs whose content hash does NOT appear in the
    prior corpus.  Here "prior" = doc_id < cutoff (default: half the
    table) so the DuckDB oracle can reproduce the split; in production
    the prior side is the previous crawl's hash table.

    Scale shape (the production incremental-crawl dedup):
      1. prior side → per-block partial Bloom filters (fixed-size bit
         arrays, the same mergeable shape as the HLL partials),
         OR-merged and broadcast via ``ray.put`` — at 10^10 docs this
         filter shards by hash range across an actor pool exactly like
         the frontier seen-set (state/bloom.py design notes);
      2. current side streams once: md5 per batch, probe the broadcast
         filter — Bloom-NEGATIVES are definitely new and short-circuit
         past the join (the overwhelming majority when overlap is low);
      3. only Bloom-POSITIVES (possible dups: true dups + ~0.8% false
         positives at 10 bits/key) enter a distributed ``left_anti``
         join against the prior hash set for the exact verdict.
    The corpus text is read once per side; only (doc_id, 16-byte hash)
    rows ever shuffle, and the join side is overlap-sized, not
    corpus-sized."""
    import ray

    from dude_ray.state.bloom import BloomFilter

    import pyarrow.parquet as pq

    full = _docs(sf_dir, ["doc_id", "text"])
    if cutoff is None:
        # parquet metadata row count — no dataset execution
        cutoff = pq.ParquetFile(
            f"{sf_dir}/documents.parquet").metadata.num_rows // 2

    def _split(keep_prior: bool):
        def f(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            mask = ids < cutoff if keep_prior else ids >= cutoff
            return batch.filter(pa.array(mask))
        return f

    # materialized once: feeds the Bloom build AND the confirm join
    prior_hashes = full.map_batches(_split(True), batch_format="pyarrow",
                                    batch_size=8192).map_batches(
        _digest_batch, batch_format="pyarrow",
        batch_size=4096).materialize()

    # 1. distributed partial Blooms (one fixed-size blob per block)
    cap = max(64, cutoff)

    def _partial_bloom(batch: pa.Table) -> pa.Table:
        bf = BloomFilter(cap, bits_per_key=bits_per_key)
        bf.add_many([d for d in batch["d"].to_pylist()])
        return pa.table({"bits": pa.array([bf.bits.tobytes()],
                                          type=pa.binary())})

    merged = BloomFilter(cap, bits_per_key=bits_per_key)
    for row in prior_hashes.map_batches(
            _partial_bloom, batch_format="pyarrow",
            batch_size=None).take_all():
        np.bitwise_or(merged.bits,
                      np.frombuffer(row["bits"], dtype=np.uint8),
                      out=merged.bits)
    bloom_ref = ray.put(merged)

    # 2. probe stage — each batch reads the broadcast filter
    def probe(batch: pa.Table) -> pa.Table:
        hit = ray.get(bloom_ref).contains_many(batch["d"].to_pylist())
        return batch.append_column(
            "maybe_dup", pa.array(hit, type=pa.bool_()))

    current = full.map_batches(_split(False), batch_format="pyarrow",
                               batch_size=8192).map_batches(
        _digest_batch, batch_format="pyarrow", batch_size=4096)
    probed = current.map_batches(probe, batch_format="pyarrow",
                                 batch_size=4096).materialize()

    definite_new = probed.filter(
        expr="maybe_dup == False").select_columns(["doc_id", "h"])
    positives = probed.filter(
        expr="maybe_dup == True").select_columns(["doc_id", "h"])

    # 3. exact confirm: anti-join the (few) positives against prior
    confirmed_new = positives.join(
        prior_hashes.select_columns(["h"]), "left_anti", 4,
        on=("h",), aggregator_ray_remote_args={"num_cpus": 0})
    return definite_new.union(
        confirmed_new.select_columns(["doc_id", "h"]))


def _digest_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, text) → (doc_id, h hex, d raw-digest) rows."""
    digests = [hashlib.md5((t or "").encode()).digest() + b"\x00" * 4
               for t in batch["text"].to_pylist()]
    return pa.table({
        "doc_id": batch["doc_id"],
        "h": pa.array([d[:16].hex() for d in digests], type=pa.string()),
        "d": pa.array(digests, type=pa.binary()),
    })


# --------------------------------------------------------------------------
# near-dup connected components (dup clusters)
# --------------------------------------------------------------------------

def run_dup_clusters(sf_dir: str, threshold: float = 0.35,
                     max_iters: int = 32, num_partitions: int = 4,
                     cc_local_threshold: int = 2_000_000):
    """Group near-duplicate pairs into CLUSTERS (connected components)
    and name each by its minimum member — the step between pair
    detection and "keep one doc per duplicate set" in a real dedup
    pipeline (pairwise keeps can drop both ends of a chain).

    Pairs come from the exact cosine scan (``run_embedding_neardup_
    exact``) so the graph — and the DuckDB recursive-CTE oracle — is
    deterministic.  Components are computed by distributed min-label
    propagation with pointer jumping: label(u) starts at
    min(u, neighbors); each round takes the min over the 1-hop
    neighborhood (edge ⋈ labels) AND over label-of-label (labels ⋈
    labels) — the jump shortcuts chains so convergence is
    O(log diameter) rounds, not O(diameter).  Convergence is detected
    by the monotone label-sum fixpoint (labels only ever decrease, so
    an unchanged sum is an unchanged labeling; one scalar aggregate
    per round, no extra diff join).  All shuffle traffic is
    (node, label) int64 pairs partitioned by node hash; at toy scale
    wall time is dominated by per-round join-aggregator startup, which
    amortizes as the edge list grows.

    Output: (vec_id, component) for every node in ≥1 near-dup pair;
    component == min vec_id of the cluster (the canonical keeper)."""
    import ray.data  # noqa: F401  (Dataset.join registration)

    pairs = run_embedding_neardup_exact(
        sf_dir, threshold=threshold).select_columns(["a", "b"])

    def undirect(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "u": pa.array(np.concatenate([a, b]), type=pa.int64()),
            "v": pa.array(np.concatenate([b, a]), type=pa.int64()),
        })

    edges = pairs.map_batches(undirect, batch_format="pyarrow",
                              batch_size=8192).materialize()
    agg_args = {"num_cpus": 0}
    n_edges = edges.count()
    if n_edges == 0:
        return pairs.map_batches(
            lambda t: pa.table({
                "vec_id": pa.array([], type=pa.int64()),
                "component": pa.array([], type=pa.int64())}),
            batch_format="pyarrow")
    num_partitions = max(1, min(num_partitions, n_edges // 2048 + 1))

    if n_edges <= cc_local_threshold:
        # small-graph tier (the planner choice the pagerank kernel
        # also makes): the undirected edge list fits on the driver
        # (≤ 32 MB of int64 pairs) — union-find beats paying per-round
        # join fixed costs for a handful of label-prop rounds.  The
        # distributed min-label propagation below is the scale path.
        edf = edges.to_pandas()
        u = edf["u"].to_numpy(dtype=np.int64)
        v = edf["v"].to_numpy(dtype=np.int64)
        nodes = np.unique(u)  # undirect emitted both directions
        idx = {int(n): i for i, n in enumerate(nodes)}
        parent = np.arange(len(nodes))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for a, b in zip(u, v):
            ra, rb = find(idx[int(a)]), find(idx[int(b)])
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        comp = np.array([nodes[find(i)] for i in range(len(nodes))],
                        dtype=np.int64)
        # component id = min vec_id of the cluster: nodes is sorted
        # ascending, and union always parents the larger root to the
        # smaller, so root index == index of the minimum member
        import ray

        return ray.data.from_arrow(pa.table({
            "vec_id": pa.array(nodes, type=pa.int64()),
            "component": pa.array(comp, type=pa.int64())}))

    # vectorized grouped-min via the shared data-scaled hash-group
    # reduce (partitioning.hash_grouped_reduce) — Ray's groupby().min()
    # combine measures ~20k rows/s, which would dominate every round
    def grouped_min(ds):
        return hash_grouped_reduce(ds, "node",
                                   lambda t: group_agg(
                                       t, "node",
                                       {"label": ("label", "min")}),
                                   3 * n_edges,
                                   out_cols=("node", "label"))

    init = edges.map_batches(
        lambda t: pa.table({"node": t["u"], "label": t["v"]}),
        batch_format="pyarrow")
    self_rows = edges.map_batches(
        lambda t: pa.table({"node": t["u"], "label": t["u"]}),
        batch_format="pyarrow")
    labels = grouped_min(init.union(self_rows)).materialize()
    prev_sum = labels.sum("label")

    # static probe rows for the edge side: candidate label for u comes
    # via v.  The pointer-jump probe (candidate for node via its own
    # label — label(label(u)), which shortcuts chains to O(log
    # diameter) rounds) is rebuilt from labels each round and UNIONED
    # here so each round runs ONE join, not two (join-aggregator
    # startup is the round's fixed cost).  label(label(u)) ≤ label(u),
    # so the jump rows also subsume the old labels in the min — no
    # extra union needed for monotonicity.
    edge_probe = edges.map_batches(
        lambda t: pa.table({"dst": t["u"], "via": t["v"]}),
        batch_format="pyarrow").materialize()

    for _ in range(max_iters):
        jump_probe = labels.map_batches(
            lambda t: pa.table({"dst": t["node"], "via": t["label"]}),
            batch_format="pyarrow")
        jlabels = labels.map_batches(
            lambda t: pa.table({"jnode": t["node"], "jlabel": t["label"]}),
            batch_format="pyarrow")
        prop = edge_probe.union(jump_probe).join(
            jlabels, "inner", num_partitions,
            on=("via",), right_on=("jnode",),
            aggregator_ray_remote_args=agg_args)
        cand = prop.map_batches(
            lambda t: pa.table({"node": t["dst"], "label": t["jlabel"]}),
            batch_format="pyarrow")
        labels = grouped_min(cand).materialize()
        cur_sum = labels.sum("label")
        if cur_sum == prev_sum:
            break
        prev_sum = cur_sum

    return labels.map_batches(
        lambda t: pa.table({"vec_id": t["node"], "component": t["label"]}),
        batch_format="pyarrow")


# --------------------------------------------------------------------------
# exact-substring duplicate candidates (winnowing fingerprints)
# --------------------------------------------------------------------------

class _WinnowHashes:
    """documents → (h, doc_id) rows: the SET of winnowed k-gram hashes
    per doc (the raw samples the digest-producing Fingerprinter
    collapses).  K/WINDOW are larger than the fingerprint defaults so
    the winnowing guarantee — any shared substring of length ≥
    WINDOW + K - 1 (= 63 bytes here) shares ≥1 sampled hash — targets
    sentence-scale boilerplate rather than single words."""

    K = 16
    WINDOW = 48

    def __init__(self):
        from dude_ray.pipelines.textops import winnow_weights

        self.w = winnow_weights(self.K)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from dude_ray.pipelines.textops import kgram_hashes, winnow_samples

        out_h, out_d = [], []
        for doc_id, t in zip(batch["doc_id"].to_pylist(),
                             batch["text"].to_pylist()):
            uniq = winnow_samples(kgram_hashes(t or "", self.K, self.w),
                                  self.WINDOW)
            if not len(uniq):
                continue
            out_h.append(uniq)
            out_d.append(np.full(len(uniq), doc_id, dtype=np.int64))
        if not out_h:
            return pa.table({"h": pa.array([], type=pa.uint64()),
                             "doc_id": pa.array([], type=pa.int64())})
        return pa.table({
            "h": pa.array(np.concatenate(out_h), type=pa.uint64()),
            "doc_id": pa.array(np.concatenate(out_d), type=pa.int64()),
        })


_SUBSTR_BUCKET_CAP = 64  # docs per winnowed hash; beyond this the hash
# is boilerplate (stopword-like) and pairing it is O(cap²) noise


def _hash_bucket_pairs(t: pa.Table) -> pa.Table:
    """One coarse group of (h, doc_id) rows → candidate pairs per
    exact-hash run (the _band_pairs scan, plus the bucket cap)."""
    g = t.to_pandas()
    h = g["h"].to_numpy(dtype=np.uint64)
    d = g["doc_id"].to_numpy(dtype=np.int64)
    empty = pa.table({"a": pa.array([], pa.int64()),
                      "b": pa.array([], pa.int64())})
    if not len(h):
        return empty
    order = np.lexsort((d, h))
    h, d = h[order], d[order]
    starts = np.flatnonzero(np.r_[True, h[1:] != h[:-1]])
    ends = np.r_[starts[1:], len(h)]
    sizes = ends - starts
    out_a, out_b = [], []
    s2 = starts[sizes == 2]
    out_a.append(d[s2])
    out_b.append(d[s2 + 1])
    for s0, e0 in zip(starts[(sizes > 2) & (sizes <= _SUBSTR_BUCKET_CAP)],
                      ends[(sizes > 2) & (sizes <= _SUBSTR_BUCKET_CAP)]):
        mem = d[s0:e0]
        ii, jj = np.triu_indices(len(mem), k=1)
        out_a.append(mem[ii])
        out_b.append(mem[jj])
    a = np.concatenate(out_a) if out_a else np.array([], dtype=np.int64)
    b = np.concatenate(out_b) if out_b else np.array([], dtype=np.int64)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return pa.table({"a": lo.astype(np.int64), "b": hi.astype(np.int64)})


def run_substring_dup(sf_dir: str, min_shared: int = 2,
                      target_rows_per_group: int = 65536):
    """Exact-substring duplicate candidates (the substring-level dedup
    of Lee et al., via Schleimer-winnowing sampling): doc pairs sharing
    ≥ ``min_shared`` winnowed k-gram hashes, i.e. pairs that share
    sentence-scale verbatim runs (any common substring ≥ 63 bytes is
    guaranteed to contribute ≥1 shared sample; longer overlaps
    contribute proportionally more, so ``n_shared`` ranks overlap).

    Scale shape: one text scan emits (h, doc_id) sample rows; a coarse
    groupby on a data-scaled hash prefix (scaled_group_count — no fixed
    key width) runs the run-boundary pair scan per group, with an
    O(cap²) bucket cap that drops boilerplate hashes shared by > 64
    docs (logged semantics, standard stopword-hash treatment); shared
    counts come from a second data-scaled hash-group over the pair key
    with a VECTORIZED per-group count — NOT Ray's
    ``groupby([a,b]).count()``, whose Python-per-row combine measured
    ~330 rows/s (271 s for 90k pairs at sf0.1; this shape runs in
    ~1 s).  Only fixed-width int rows ever shuffle — text never leaves
    stage 1."""
    from dude_ray.io import read_parquet_clean

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "text"])
    hrows = docs.map_batches(_WinnowHashes(), batch_format="pyarrow",
                             batch_size=2048).materialize()

    pairs = hash_grouped_reduce(
        hrows, "h", _hash_bucket_pairs, hrows.count(),
        target_rows_per_group, out_cols=("a", "b")).materialize()

    def count_group(t: pa.Table) -> pa.Table:
        return group_agg(t, ["a", "b"], {"n_shared": ([], "count_all")}
                         ).filter(pc.field("n_shared") >= min_shared)

    return hash_grouped_reduce(pairs, ["a", "b"], count_group,
                               pairs.count(), target_rows_per_group,
                               out_cols=("a", "b", "n_shared"))


# --------------------------------------------------------------------------
# exact set-similarity self-join (prefix filter, PPJoin family)
# --------------------------------------------------------------------------

class SqlGramSetLister:
    """documents → (doc_id, sh: binary, n: int32) rows with the
    SQL-checkable gram semantics of ``GramHasher`` (split on single
    spaces, lowercase, DISTINCT word-3-grams; docs under 3 tokens →
    empty set).  Hash VALUES are internal — the oracle compares gram
    STRINGS, only set identity matters — so the kernel is the fast
    Shingler shape: token sha1 memoized per task copy (web vocabularies
    repeat heavily), every 3-gram hash one vectorized numpy mix over
    the token-hash array, collision-free in practice.  ``sh`` is the
    sorted uint64 gram-hash array as little-endian bytes, ``n`` its
    length."""

    def __init__(self):
        self._cache: dict[str, int] = {}

    def _tok_hashes(self, toks: list[str]) -> np.ndarray:
        c = self._cache
        out = np.empty(len(toks), dtype=np.uint64)
        for i, t in enumerate(toks):
            h = c.get(t)
            if h is None:
                h = int.from_bytes(hashlib.sha1(t.encode()).digest()[:8], "big")
                if len(c) < 1_000_000:
                    c[t] = h
            out[i] = h
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        blobs, ns = [], []
        for text in batch["text"].to_pylist():
            toks = [x.lower() for x in (text or "").split(" ")]
            if len(toks) < 3:
                blobs.append(b"")
                ns.append(0)
                continue
            th = self._tok_hashes(toks)
            arr = np.unique(_avalanche(
                th[:-2] * _M1 ^ th[1:-1] * _M2 ^ th[2:] * _M3))
            blobs.append(arr.astype("<u8").tobytes())
            ns.append(len(arr))
        return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                         "sh": pa.array(blobs, type=pa.binary()),
                         "n": pa.array(ns, type=pa.int32())})


def _heavy_grams(grams, counters: int = 4096, top: int = 512) -> np.ndarray:
    """Approximate globally-common gram hashes via mergeable Misra-Gries
    partials (≤ ``counters`` rows per block regardless of vocabulary),
    merged by groupby-sum; the driver receives only the fixed-size
    top-``top`` result.  Used purely as a shared prefix ORDERING hint —
    any globally-consistent set yields a correct join, a good one keeps
    high-df grams out of prefixes (smaller candidate buckets)."""
    import ray

    def _partial(batch: pa.Table) -> pa.Table:
        blobs = [np.frombuffer(b or b"", dtype="<u8")
                 for b in batch["sh"].to_pylist()]
        if not blobs:
            return pa.table({"g": pa.array([], type=pa.int64()),
                             "cnt": pa.array([], type=pa.int64())})
        allg = np.concatenate(blobs)
        uniq, cnt = np.unique(allg, return_counts=True)
        if len(uniq) > counters:
            kth = np.partition(cnt, len(cnt) - counters)[len(cnt) - counters]
            keep = cnt >= kth
            uniq, cnt = uniq[keep], cnt[keep] - (kth - 1)
            keep = cnt > 0
            uniq, cnt = uniq[keep], cnt[keep]
        return pa.table({"g": pa.array(uniq.view(np.int64)),
                         "cnt": pa.array(cnt.astype(np.int64))})

    partials = grams.map_batches(_partial, batch_format="pyarrow",
                                 batch_size=4096).materialize()
    merged = hash_grouped_reduce(partials, "g",
                                 lambda t: group_agg(
                                     t, "g", {"cnt": ("cnt", "sum")}),
                                 partials.count(), out_cols=("g", "cnt"))

    def _local_top(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        idx = pc.select_k_unstable(
            batch, k=min(top, len(batch)),
            sort_keys=[("cnt", "descending"), ("g", "ascending")])
        return batch.take(idx)

    merged = (merged.map_batches(_local_top, batch_format="pyarrow",
                                 batch_size=None)
              .sort(["cnt", "g"], descending=[True, False]).limit(top))
    tbl = merged.to_arrow_refs()
    heavy = np.concatenate(
        [ray.get(r)["g"].to_numpy(zero_copy_only=False) for r in tbl]
        or [np.array([], dtype=np.int64)])
    heavy = heavy.astype(np.int64).view(np.uint64)
    heavy.sort()
    return heavy


def _prefix_grams(g: np.ndarray, n: int, t_eff: float,
                  heavy: np.ndarray) -> np.ndarray:
    """The doc's prefix under the global (is-heavy, hash) total order:
    its first ``n - ceil(t_eff*n) + 1`` grams, rare grams first.  Pure
    — the recall theorem over this exact implementation is fuzzed in
    tests/test_fuzz.py.  ``g`` sorted-unique uint64, ``heavy`` sorted
    uint64."""
    p = n - int(np.ceil(t_eff * n)) + 1
    if p <= 0:
        return g[:0]
    pos = np.searchsorted(heavy, g)
    pos = np.minimum(pos, max(len(heavy) - 1, 0))
    is_heavy = (heavy[pos] == g) if len(heavy) else \
        np.zeros(len(g), dtype=bool)
    order = np.lexsort((g, is_heavy))
    return g[order[:p]]


def run_jaccard_join(sf_dir: str, threshold: float = 0.8):
    """EXACT set-similarity self-join: every document pair whose
    word-3-gram Jaccard ≥ ``threshold`` — not LSH-approximate like
    ``run_minhash_dedup``.  Prefix filtering (Chaudhuri et al. 2006 /
    Bayardo et al. WWW'07 "Scaling Up All Pairs Similarity Search"):
    under any global total order on grams, a doc only needs to index its
    first ``n - ceil(t*n) + 1`` grams — any qualifying pair provably
    shares a prefix gram — so the inverted-index shuffle carries a small
    slice of each doc, not its full gram set.  The global order is
    (is-common, hash): a Misra-Gries pass demotes globally-common grams
    to prefix-last, keeping candidate buckets rare-gram-sized (the df
    ordering of the paper, approximated with bounded state).  Candidates
    then pass the size-ratio filter (J ≥ t ⇒ min/max ≥ t), dedup, and
    the same distributed verify joins as minhash_dedup.  Recall is exact
    by the prefix theorem (computed at t−1e-6 to cover the rounded
    output filter); precision is exact by verification.

    EXACTNESS CAVEAT: both candidate generation and the verify stage
    compare 64-bit gram HASHES where the oracle compares gram strings —
    "exact" means exact-modulo-64-bit-hash-collisions.  A collision
    merges two distinct grams and can flip a borderline pair's Jaccard
    across the threshold; expected collisions are ~V²/2^65 for V
    distinct grams (≈3·10⁻⁸ at V=10⁶; at web-scale V≈10⁹ expect ~10⁴
    merged gram pairs, which perturbs a pair's Jaccard only when the
    merged grams co-occur in it).  Verify borderline pairs on gram
    strings if true string-exactness is required."""
    import ray
    import pyarrow.compute as pc

    t_eff = threshold - 1e-6
    grams = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        SqlGramSetLister(), batch_format="pyarrow",
        batch_size=2048).materialize()

    heavy_ref = ray.put(_heavy_grams(grams))

    def _prefix(batch: pa.Table) -> pa.Table:
        heavy = ray.get(heavy_ref)
        out_g, out_doc, out_n = [], [], []
        for doc_id, blob, n in zip(batch["doc_id"].to_pylist(),
                                   batch["sh"].to_pylist(),
                                   batch["n"].to_pylist()):
            if not n:
                continue
            g = np.frombuffer(blob, dtype="<u8")
            pref = _prefix_grams(g, n, t_eff, heavy)
            if not len(pref):
                continue
            out_g.append(pref.view(np.int64))
            out_doc.append(np.full(len(pref), doc_id, dtype=np.int64))
            out_n.append(np.full(len(pref), n, dtype=np.int64))
        if not out_g:
            return pa.table({"g": pa.array([], type=pa.int64()),
                             "doc_id": pa.array([], type=pa.int64()),
                             "n": pa.array([], type=pa.int64())})
        return pa.table({"g": pa.array(np.concatenate(out_g)),
                         "doc_id": pa.array(np.concatenate(out_doc)),
                         "n": pa.array(np.concatenate(out_n))})

    idx = grams.map_batches(_prefix, batch_format="pyarrow",
                            batch_size=2048).materialize()

    def _bucket_pairs(t: pa.Table) -> pa.Table:
        """One coarse hash-group of (g, doc_id, n) prefix rows →
        candidate pairs per exact-gram run (the _hash_bucket_pairs
        run-boundary scan, NO bucket cap — exactness — plus the
        size-ratio prune).  Large buckets (a high-df gram that escaped
        the heavy-demotion top list) generate their O(b²) pairs in
        bounded CHUNKS with the size-ratio filter applied per chunk —
        peak memory stays ~2M pair rows however skewed the bucket —
        and log a watermark line so a silent blowup is visible."""
        g = t.to_pandas()
        h = g["g"].to_numpy(dtype=np.int64)
        d = g["doc_id"].to_numpy(dtype=np.int64)
        n = g["n"].to_numpy(dtype=np.int64)
        empty = pa.table({"a": pa.array([], pa.int64()),
                          "b": pa.array([], pa.int64())})
        if not len(h):
            return empty
        order = np.lexsort((d, h))
        h, d, n = h[order], d[order], n[order]
        starts = np.flatnonzero(np.r_[True, h[1:] != h[:-1]])
        ends = np.r_[starts[1:], len(h)]
        sizes = ends - starts
        out_a, out_b = [], []
        s2 = starts[sizes == 2]
        if len(s2):
            lo = np.minimum(n[s2], n[s2 + 1])
            hi = np.maximum(n[s2], n[s2 + 1])
            ok = lo.astype(np.float64) >= t_eff * hi
            out_a.append(np.minimum(d[s2], d[s2 + 1])[ok])
            out_b.append(np.maximum(d[s2], d[s2 + 1])[ok])

        def emit(ids, ns, ii, jj):
            lo = np.minimum(ns[ii], ns[jj])
            hi = np.maximum(ns[ii], ns[jj])
            ok = (lo.astype(np.float64) >= t_eff * hi) & (ids[ii] != ids[jj])
            out_a.append(np.minimum(ids[ii], ids[jj])[ok])
            out_b.append(np.maximum(ids[ii], ids[jj])[ok])

        for s0, e0 in zip(starts[sizes > 2], ends[sizes > 2]):
            ids, ns = d[s0:e0], n[s0:e0]
            b = len(ids)
            if b <= _PAIR_CHUNK_LIMIT:
                i, j = np.triu_indices(b, 1)
                emit(ids, ns, i, j)
                continue
            import sys as _sys
            _sys.stderr.write(
                f"jaccard_join: prefix bucket of {b} docs "
                f"(~{b * (b - 1) // 2} candidate pairs) — chunked "
                f"generation engaged\n")
            step = max(1, (1 << 21) // b)  # ~2M pair rows per chunk
            for i0 in range(0, b - 1, step):
                rows = np.arange(i0, min(i0 + step, b - 1))
                counts = b - 1 - rows
                ii = np.repeat(rows, counts)
                jj = np.concatenate(
                    [np.arange(r + 1, b) for r in rows])
                emit(ids, ns, ii, jj)
        if not out_a:
            return empty
        return pa.table({"a": pa.array(np.concatenate(out_a), pa.int64()),
                         "b": pa.array(np.concatenate(out_b), pa.int64())})

    pairs = hash_grouped_reduce(idx, "g", _bucket_pairs, idx.count(),
                                out_cols=("a", "b"))
    pairs = _distinct_pairs(pairs)
    verified = _verify_pairs_jaccard(
        pairs, grams.select_columns(["doc_id", "sh"]))
    return verified.map_batches(
        lambda t: t.filter(pc.greater_equal(t["jaccard"], threshold)),
        batch_format="pyarrow")


def substring_dup_oracle_sql(min_shared: int = 2) -> str:
    """DuckDB oracle for :func:`run_substring_dup` — the winnowed
    sample hashes are reproduced bit-for-bit (textops.winnow_mins_sql,
    overflow-free arithmetic), then the pipeline's exact pair
    semantics: per-hash buckets over each doc's DISTINCT samples,
    buckets larger than _SUBSTR_BUCKET_CAP dropped as boilerplate,
    pair counts thresholded at ``min_shared``."""
    from dude_ray.pipelines.textops import winnow_mins_sql

    chain = winnow_mins_sql(_WinnowHashes.K, _WinnowHashes.WINDOW)
    return f"""
        WITH {chain},
        s AS (SELECT doc_id, unnest(list_distinct(m)) AS h
              FROM mins WHERE n_grams > 0),
        keep AS (SELECT h FROM s GROUP BY h
                 HAVING count(*) BETWEEN 2 AND {_SUBSTR_BUCKET_CAP}),
        pairs AS (
          SELECT x.doc_id AS a, y.doc_id AS b
          FROM s x JOIN s y ON x.h = y.h AND x.doc_id < y.doc_id
          WHERE x.h IN (SELECT h FROM keep)
        )
        SELECT a, b, count(*) AS n_shared
        FROM pairs GROUP BY a, b
        HAVING count(*) >= {min_shared}
    """


def _sql_mulmod64(h: str, m: int) -> str:
    """SQL expression for ``(h * m) mod 2^64`` over a UBIGINT expression
    ``h`` and a 64-bit constant ``m`` — the 32-bit-split schoolbook
    product keeps every HUGEINT intermediate < 2^65, so DuckDB's checked
    arithmetic never overflows while reproducing numpy's uint64
    wraparound multiply bit-for-bit."""
    mhi, mlo = (m >> 32) & 0xFFFFFFFF, m & 0xFFFFFFFF
    return (f"CAST(((CAST(({h}) & 4294967295 AS HUGEINT) * {mlo}) + "
            f"((((CAST(({h}) >> 32 AS HUGEINT) * {mlo}) + "
            f"(CAST(({h}) & 4294967295 AS HUGEINT) * {mhi})) % 4294967296) "
            f"* 4294967296)) % 18446744073709551616 AS UBIGINT)")


def _sql_addmod64(a: str, b: str) -> str:
    return (f"CAST(((CAST(({a}) AS HUGEINT)) + (CAST(({b}) AS HUGEINT)))"
            f" % 18446744073709551616 AS UBIGINT)")


def minhash_oracle_sql(threshold: float | None = 0.8,
                       final_sql: str | None = None) -> str:
    """DuckDB oracle for :func:`run_minhash_dedup` (and, with
    ``threshold=None``, :func:`run_ngram_jaccard`) — the ENTIRE banded
    minhash-LSH pipeline reproduced in SQL, bit-for-bit:

    * Shingler's word-3-gram hash chain: md5-top-8 token hashes (hex
      fold), the ``th0*M1 ^ th1*M2 ^ th2*M3`` wraparound combine (the
      1-/2-token fold for short docs), and the murmur-fmix avalanche —
      every uint64 wraparound multiply emulated via :func:`_sql_mulmod64`;
    * MinHasher's 128 universal-hash permutations ``(a·x+b) mod 2^31-1``
      (the (a, b) params from ``_perm_params(seed=42)`` inlined as a
      VALUES list — products < 2^62 stay inside checked UBIGINT);
    * LSH banding as 16 band TUPLE equalities (``list(s ORDER BY pi)``)
      — tuple equality ⟺ the engine's avalanche band-key equality
      except for ~2^-64 key collisions, which the jaccard filter removes;
    * the verify stage's exact Jaccard over the DISTINCT gram-hash sets.

    Docs with zero tokens are correctly absent: their engine signature
    is the constant p = 2^31-1 in every slot, which no non-empty doc can
    produce (signatures are < p), and empty-empty pairs have jaccard 0."""
    a, b = _perm_params()
    perms = ",".join(f"({i},{int(a[i])},{int(b[i])})"
                     for i in range(NUM_PERM))
    rows = NUM_PERM // BANDS
    h16 = ("CAST(list_sum([CAST(strpos('0123456789abcdef', m[i]) - 1 AS UBIGINT)"
           " * (CAST(1 AS UBIGINT) << CAST(4*(16 - i) AS INTEGER))"
           " for i in generate_series(1, 16)]) AS UBIGINT)")
    mm = _sql_mulmod64
    xorsh = lambda x: f"xor(({x}), ({x}) >> 33)"  # noqa: E731
    filt = (f"WHERE jaccard >= {threshold}" if threshold is not None else "")
    if final_sql is None:
        final_sql = f"SELECT a, b, jaccard FROM jac {filt}"
    return f"""
        WITH perms(pi, pa, pb) AS (VALUES {perms}),
        toks AS (
          SELECT doc_id, list_filter(
                   regexp_split_to_array(lower(coalesce(text, '')), '\\s+'),
                   x -> x <> '') AS w
          FROM documents
        ), tokrows AS (
          SELECT doc_id, unnest([{{'i': i, 't': w[i]}} for i in
                                 generate_series(1, len(w))]) AS tr,
                 len(w) AS nw
          FROM toks
        ), th AS (
          SELECT doc_id, tr['i'] AS i,
                 (SELECT {h16} FROM
                  (SELECT string_split(substr(md5(tr['t']), 1, 16), '') AS m)) AS h,
                 nw
          FROM tokrows
        ), raw3 AS (
          SELECT a.doc_id,
                 xor(xor({mm('a.h', int(_M1))}, {mm('b.h', int(_M2))}),
                     {mm('c.h', int(_M3))}) AS x
          FROM th a
          JOIN th b ON b.doc_id = a.doc_id AND b.i = a.i + 1
          JOIN th c ON c.doc_id = a.doc_id AND c.i = a.i + 2
          WHERE a.nw >= 3
        ), raw1 AS (
          SELECT doc_id, {mm('h', int(_M3))} AS x FROM th WHERE nw = 1
        ), fold2a AS (
          SELECT a.doc_id, {mm(mm('a.h', int(_M3)), int(_M1))} AS xa,
                 {mm('b.h', int(_M2))} AS xb
          FROM th a JOIN th b ON b.doc_id = a.doc_id AND b.i = 2
          WHERE a.nw = 2 AND a.i = 1
        ), raw2 AS (
          SELECT doc_id, {_sql_addmod64('xa', 'xb')} AS x FROM fold2a
        ), rawall AS (
          SELECT * FROM raw3 UNION ALL SELECT * FROM raw1
          UNION ALL SELECT * FROM raw2
        ), av1 AS (
          SELECT doc_id, {xorsh('x')} AS x1 FROM rawall
        ), av2 AS (
          SELECT doc_id, {mm('x1', int(_MIXC))} AS x2 FROM av1
        ), gdist AS (
          SELECT DISTINCT doc_id, {xorsh('x2')} AS g FROM av2
        ), sigs AS (
          SELECT doc_id, pi,
                 min((pa * (g % 2147483647) + pb) % 2147483647) AS s
          FROM gdist CROSS JOIN perms GROUP BY doc_id, pi
        ), bands AS (
          SELECT doc_id, pi // {rows} AS band, list(s ORDER BY pi) AS tup
          FROM sigs GROUP BY doc_id, pi // {rows}
        ), cand AS (
          SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
          FROM bands x JOIN bands y
            ON y.band = x.band AND y.tup = x.tup AND x.doc_id < y.doc_id
        ), sizes AS (
          SELECT doc_id, count(*) AS n FROM gdist GROUP BY doc_id
        ), inter AS (
          SELECT c.a, c.b, count(*) AS i
          FROM cand c JOIN gdist ga ON ga.doc_id = c.a
          JOIN gdist gb ON gb.doc_id = c.b AND gb.g = ga.g
          GROUP BY c.a, c.b
        ), jac AS (
          SELECT c.a, c.b,
                 round(CAST(coalesce(i.i, 0) AS DOUBLE)
                       / (sa.n + sb.n - coalesce(i.i, 0)), 6) AS jaccard
          FROM cand c LEFT JOIN inter i ON i.a = c.a AND i.b = c.b
          JOIN sizes sa ON sa.doc_id = c.a
          JOIN sizes sb ON sb.doc_id = c.b
        )
        {final_sql}
    """


def ngram_containment_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_ngram_containment`: the full
    minhash-LSH candidate chain of :func:`minhash_oracle_sql`, with
    the final metric swapped to exact set sizes + containment
    ``i / least(n_a, n_b)`` over the same DISTINCT gram-hash sets."""
    return minhash_oracle_sql(threshold=None, final_sql="""
        SELECT c.a, c.b, sa.n AS n_a, sb.n AS n_b,
               CAST(coalesce(i.i, 0) AS BIGINT) AS n_inter,
               round(CAST(coalesce(i.i, 0) AS DOUBLE)
                     / least(sa.n, sb.n), 6) AS containment
        FROM cand c LEFT JOIN inter i ON i.a = c.a AND i.b = c.b
        JOIN sizes sa ON sa.doc_id = c.a
        JOIN sizes sb ON sb.doc_id = c.b
    """)


def simhash_oracle_sql(max_hamming: int = 3) -> str:
    """DuckDB oracle for :func:`run_simhash_dedup`.  The 64-bit SimHash
    is reproduced exactly (md5-top-8 token hashes via a hex-digit fold,
    per-bit count accumulation over a 64-row series, strict-positive
    sign rule); the pair set is brute-force hamming ≤ ``max_hamming``
    over all doc pairs — equal to the engine's banded-LSH output by
    pigeonhole: with 4 bands of 16 bits, any pair within hamming 3 has
    at least one identical band, so banding at this threshold is EXACT,
    not approximate."""
    h16 = ("CAST(list_sum([CAST(strpos('0123456789abcdef', m[i]) - 1 AS UBIGINT)"
           " * (CAST(1 AS UBIGINT) << CAST(4*(16 - i) AS INTEGER))"
           " for i in generate_series(1, 16)]) AS UBIGINT)")
    return f"""
        WITH toks AS (
          SELECT doc_id, unnest(list_filter(
                   regexp_split_to_array(lower(coalesce(text, '')), '\\s+'),
                   x -> x <> '')) AS tok
          FROM documents
        ), tc AS (
          SELECT doc_id, tok, count(*) AS c FROM toks GROUP BY doc_id, tok
        ), th AS (
          SELECT doc_id, c,
                 (SELECT {h16} FROM
                  (SELECT string_split(substr(md5(tok), 1, 16), '') AS m)) AS h
          FROM tc
        ), bits AS (
          SELECT doc_id, k,
                 sum(CASE WHEN (h >> k) & 1 = 1 THEN c ELSE -c END) AS acc
          FROM th, generate_series(0, 63) AS g(k)
          GROUP BY doc_id, k
        ), sig0 AS (
          SELECT doc_id,
                 CAST(sum(CASE WHEN acc > 0
                               THEN (CAST(1 AS UBIGINT) << CAST(k AS INTEGER))
                               ELSE CAST(0 AS UBIGINT) END) AS UBIGINT) AS sig
          FROM bits GROUP BY doc_id
        ), sigs AS (
          SELECT d.doc_id, coalesce(s.sig, 0) AS sig
          FROM documents d LEFT JOIN sig0 s ON s.doc_id = d.doc_id
        )
        SELECT a.doc_id AS a, b.doc_id AS b,
               CAST(bit_count(xor(a.sig, b.sig)) AS BIGINT) AS hamming
        FROM sigs a JOIN sigs b ON a.doc_id < b.doc_id
        WHERE bit_count(xor(a.sig, b.sig)) <= {max_hamming}
    """


# --------------------------------------------------------------------------
# substring-level redaction (duplicated-run REMOVAL, Lee et al. 2022)
# --------------------------------------------------------------------------

def _pair_shared_runs(ta: str, tb: str, k: int, weights,
                      min_run: int) -> list[tuple[int, int]]:
    """Maximal shared character runs of ``tb`` vs ``ta`` (≥ min_run),
    found by expanding around shared k-gram hash anchors and VERIFYING
    characters (hash collisions expand to nothing and are dropped).
    Returns non-overlapping (start, end) intervals in ``tb``."""
    from dude_ray.pipelines.textops import kgram_hashes

    ha = kgram_hashes(ta, k, weights)
    hb = kgram_hashes(tb, k, weights)
    if not len(ha) or not len(hb) or len(ta) < k or len(tb) < k:
        return []
    shared = np.intersect1d(ha, hb)
    if not len(shared):
        return []
    # first position of each hash value on both sides
    oa, ob = np.argsort(ha, kind="stable"), np.argsort(hb, kind="stable")
    sa, sb = ha[oa], hb[ob]
    pa_ = oa[np.searchsorted(sa, shared)]
    pb_ = ob[np.searchsorted(sb, shared)]
    order = np.argsort(pb_, kind="stable")
    out: list[tuple[int, int]] = []
    last_end = -1
    for pa0, pb0 in zip(pa_[order], pb_[order]):
        if pb0 < last_end:
            continue
        pa0, pb0 = int(pa0), int(pb0)
        if ta[pa0:pa0 + k] != tb[pb0:pb0 + k]:
            continue  # 64-bit hash collision
        la, lb = pa0, pb0
        while la > 0 and lb > 0 and ta[la - 1] == tb[lb - 1]:
            la -= 1
            lb -= 1
        ra, rb = pa0 + k, pb0 + k
        while ra < len(ta) and rb < len(tb) and ta[ra] == tb[rb]:
            ra += 1
            rb += 1
        if rb - lb >= min_run:
            out.append((lb, rb))
            last_end = rb
    return out


def run_substring_redact(sf_dir: str, min_shared: int = 2,
                         min_run: int = 63,
                         small_tier_max_docs: int = 100_000):
    """Substring-level dedup with actual REMOVAL (Lee et al. 2022,
    "Deduplicating Training Data Makes Language Models Better"): for
    every candidate pair from the winnow-sharing stage the
    higher-doc_id side excises each maximal shared run ≥ ``min_run``
    chars; the lower-doc_id side keeps its text.  Output rows only for
    MODIFIED docs: (doc_id, n_runs, n_redacted_chars, text).

    Scale shape: candidate pairs come from :func:`run_substring_dup`
    (only fixed-width rows shuffle there); full texts ship ONLY for
    candidate pairs, via the same pair-scoped hash joins as the Jaccard
    verify; run expansion verifies characters so hash collisions cannot
    redact unrelated text.  The per-doc interval sets (bounded by the
    duplicated-content volume) are merged with a data-scaled
    hash-group reduce into one packed row per affected doc, and the
    final application is TIERED on the MEASURED affected-doc count
    (the _distinct_pairs/pagerank idiom; tier equivalence is
    pytest-parametrized on the planted corpus):

    * ``≤ small_tier_max_docs`` — broadcast the packed interval rows
      into one corpus map (bounded, documented materialization);
    * above — Bloom-prefiltered hash join: a FIXED-SIZE broadcast
      Bloom over affected doc_ids short-circuits the untouched corpus
      majority past the join (same partial-bitmap build as
      ``run_dedup_incremental``), so only Bloom-positive docs —
      affected docs plus ~0.8% false positives, dropped by the inner
      join — enter the interval join.  No unbounded driver state (the
      pre-r4 unconditional ``take_all`` broadcast grew with the
      duplicated-content volume) and the documents table itself never
      enters a full shuffle.

    No SQL oracle (character-level run expansion), so the registry
    checks rows only; test_substring_redact_removes_planted_paragraph
    asserts the removal, keeper and untouched-doc semantics."""
    import ray

    from dude_ray.pipelines.textops import winnow_weights

    k = _WinnowHashes.K
    weights = winnow_weights(k)
    pairs = run_substring_dup(sf_dir, min_shared=min_shared).materialize()
    docs = _docs(sf_dir, ["doc_id", "text"])

    agg_args = {"num_cpus": 0}
    num_partitions = max(1, min(JOIN_PARTITIONS,
                                pairs.count() // 512 + 1))
    j = pairs.join(docs, "inner", num_partitions,
                   on=("a",), right_on=("doc_id",),
                   aggregator_ray_remote_args=agg_args)
    j = j.map_batches(
        lambda t: pa.table({"a": t["a"], "b": t["b"], "text_a": t["text"]}),
        batch_format="pyarrow").materialize()
    j = j.join(docs, "inner", num_partitions,
               on=("b",), right_on=("doc_id",),
               aggregator_ray_remote_args=agg_args)

    def pair_intervals(batch: pa.Table) -> pa.Table:
        out_d, out_s, out_e = [], [], []
        for b, ta, tb in zip(batch["b"].to_pylist(),
                             batch["text_a"].to_pylist(),
                             batch["text"].to_pylist()):
            for s, e in _pair_shared_runs(ta or "", tb or "", k, weights,
                                          min_run):
                out_d.append(b)
                out_s.append(s)
                out_e.append(e)
        return pa.table({"doc_id": pa.array(out_d, type=pa.int64()),
                         "start": pa.array(out_s, type=pa.int64()),
                         "end": pa.array(out_e, type=pa.int64())})

    ivals = j.map_batches(pair_intervals, batch_format="pyarrow",
                          batch_size=256).materialize()
    if not ivals.count():
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([], type=pa.int64()),
            "n_runs": pa.array([], type=pa.int64()),
            "n_redacted_chars": pa.array([], type=pa.int64()),
            "text": pa.array([], type=pa.string())}))

    def merge_ivals(t: pa.Table) -> pa.Table:
        """Hash group → ONE packed row per affected doc: (doc_id, iv)
        with iv = the merged (start, end) pairs as an int64 blob.  A
        doc's intervals always land whole in one hash group, so the
        per-group merge is globally exact."""
        docs_, blobs = [], []
        for d, g in t.to_pandas().groupby("doc_id", sort=False):
            iv = sorted(zip(g["start"], g["end"]))
            merged = [list(iv[0])]
            for s, e in iv[1:]:
                if s <= merged[-1][1]:
                    merged[-1][1] = max(merged[-1][1], e)
                else:
                    merged.append([s, e])
            docs_.append(d)
            blobs.append(np.asarray(merged, dtype=np.int64).tobytes())
        return pa.table({"doc_id": pa.array(docs_, pa.int64()),
                         "iv": pa.array(blobs, pa.binary())})

    merged = hash_grouped_reduce(ivals, "doc_id", merge_ivals,
                                 ivals.count(),
                                 out_cols=("doc_id", "iv")).materialize()
    n_affected = merged.count()

    if n_affected <= small_tier_max_docs:
        # small tier (MEASURED bound, the _distinct_pairs/pagerank
        # tiering idiom): the packed interval rows fit comfortably in a
        # broadcast — one corpus map, no join, no Bloom build
        plan = {int(r["doc_id"]): np.frombuffer(r["iv"], dtype=np.int64)
                                    .reshape(-1, 2)
                for r in merged.take_all()}
        plan_ref = ray.put(plan)

        def apply_small(batch: pa.Table) -> pa.Table:
            p = ray.get(plan_ref)
            out_d, out_n, out_c, out_t = [], [], [], []
            for doc_id, text in zip(batch["doc_id"].to_pylist(),
                                    batch["text"].to_pylist()):
                iv = p.get(doc_id)
                if iv is None:
                    continue
                t = text or ""
                kept, pos = [], 0
                for s, e in iv.tolist():
                    kept.append(t[pos:s])
                    pos = e
                kept.append(t[pos:])
                out_d.append(doc_id)
                out_n.append(len(iv))
                out_c.append(int((iv[:, 1] - iv[:, 0]).sum()))
                out_t.append("".join(kept))
            return pa.table({
                "doc_id": pa.array(out_d, type=pa.int64()),
                "n_runs": pa.array(out_n, type=pa.int64()),
                "n_redacted_chars": pa.array(out_c, type=pa.int64()),
                "text": pa.array(out_t, type=pa.string())})

        return docs.map_batches(apply_small, batch_format="pyarrow",
                                batch_size=2048)

    # large tier: fixed-size broadcast Bloom over affected doc ids
    # (partial-bitmap build, the run_dedup_incremental shape) keeps the
    # untouched corpus majority out of the join without any unbounded
    # driver state
    from dude_ray.state.bloom import BloomFilter

    def _key(i: int) -> bytes:
        return hashlib.blake2b(i.to_bytes(8, "little", signed=True),
                               digest_size=16).digest()

    cap = max(64, n_affected)

    def _partial_bloom(batch: pa.Table) -> pa.Table:
        bf = BloomFilter(cap, bits_per_key=10)
        bf.add_many([_key(int(i)) for i in batch["doc_id"].to_pylist()])
        return pa.table({"bits": pa.array([bf.bits.tobytes()],
                                          type=pa.binary())})

    bloom = BloomFilter(cap, bits_per_key=10)
    for row in merged.map_batches(_partial_bloom, batch_format="pyarrow",
                                  batch_size=None).take_all():
        np.bitwise_or(bloom.bits,
                      np.frombuffer(row["bits"], dtype=np.uint8),
                      out=bloom.bits)
    bloom_ref = ray.put(bloom)

    def maybe_affected(batch: pa.Table) -> pa.Table:
        hit = ray.get(bloom_ref).contains_many(
            [_key(int(i)) for i in batch["doc_id"].to_pylist()])
        return batch.filter(pa.array(hit))

    candidates = docs.map_batches(maybe_affected, batch_format="pyarrow",
                                  batch_size=2048)

    # pair-scoped inner join: Bloom false positives have no interval
    # row and drop out here
    num_partitions = max(1, min(JOIN_PARTITIONS, n_affected // 512 + 1))
    joined = candidates.join(merged, "inner", num_partitions,
                             on=("doc_id",),
                             aggregator_ray_remote_args=agg_args)

    def apply_redaction(batch: pa.Table) -> pa.Table:
        out_d, out_n, out_c, out_t = [], [], [], []
        for doc_id, text, blob in zip(batch["doc_id"].to_pylist(),
                                      batch["text"].to_pylist(),
                                      batch["iv"].to_pylist()):
            iv = np.frombuffer(blob, dtype=np.int64).reshape(-1, 2)
            t = text or ""
            kept, pos = [], 0
            for s, e in iv.tolist():
                kept.append(t[pos:s])
                pos = e
            kept.append(t[pos:])
            out_d.append(doc_id)
            out_n.append(len(iv))
            out_c.append(int((iv[:, 1] - iv[:, 0]).sum()))
            out_t.append("".join(kept))
        return pa.table({"doc_id": pa.array(out_d, type=pa.int64()),
                         "n_runs": pa.array(out_n, type=pa.int64()),
                         "n_redacted_chars": pa.array(out_c, type=pa.int64()),
                         "text": pa.array(out_t, type=pa.string())})

    return joined.map_batches(apply_redaction, batch_format="pyarrow",
                              batch_size=2048)


# --------------------------------------------------------------------------
# chunk-level exact dedup (C4-style paragraph dedup over token windows)
# --------------------------------------------------------------------------

def run_chunk_dedup(sf_dir: str, target_rows_per_group: int = 65536):
    """Exact dedup at CHUNK granularity — the C4/line-level flavor of
    exact dedup (whole-doc md5 misses boilerplate shared across
    otherwise-distinct pages; chunk-level catches it).  Composes
    :func:`sampling.run_text_chunk`'s sliding windows with the same
    data-scaled hash-grouped reduce as :func:`run_exact_dedup`:
    keeper = lexicographically smallest (doc_id, chunk_id) per chunk
    md5, packed as doc_id·2³² + chunk_id so the arg-min is one
    vectorized int64 min (chunk ordinals are < 2³² by construction —
    a doc would need 2⁵² tokens to overflow).  Only (h, packed) rows
    shuffle; chunk text never leaves its batch."""
    from dude_ray.partitioning import parquet_row_groups
    from dude_ray.pipelines.sampling import CHUNK_STRIDE, run_text_chunk

    chunks = run_text_chunk(sf_dir)

    def h_batch(batch: pa.Table) -> pa.Table:
        hs = [hashlib.md5((t or "").encode()).hexdigest()
              for t in batch["chunk_text"].to_pylist()]
        packed = (batch["doc_id"].to_numpy(zero_copy_only=False)
                  .astype(np.int64) << 32) | \
            batch["chunk_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "h": pa.array(hs, type=pa.string()),
            "packed": pa.array(packed, type=pa.int64()),
        })

    hashed = chunks.map_batches(h_batch, batch_format="pyarrow",
                                batch_size=4096)
    n_docs = sum(n for _f, _rg, n in
                 parquet_row_groups(f"{sf_dir}/documents.parquet"))
    # chunks per doc ≈ tokens/stride; the corpus profile averages well
    # under 1k tokens/doc, so 1024/stride bounds the multiplier
    n_chunks_est = max(n_docs, 1) * max(1024 // CHUNK_STRIDE, 1)

    def _keepers(t: pa.Table) -> pa.Table:
        g = group_agg(t, "h", {"mn": ("packed", "min"),
                               "dup_count": ([], "count_all")})
        mn = g["mn"].to_numpy()
        return g.append_column("keeper_doc_id", pa.array(mn >> 32)) \
            .append_column("keeper_chunk_id", pa.array(mn & 0xFFFFFFFF))

    return hash_grouped_reduce(
        hashed, "h", _keepers, n_chunks_est, target_rows_per_group,
        out_cols=("h", "keeper_doc_id", "keeper_chunk_id", "dup_count"))


# --------------------------------------------------------------------------
# per-source duplication rate (corpus health report)
# --------------------------------------------------------------------------

def run_dup_rate_by_source(sf_dir: str, target_rows_per_group: int = 65536):
    """Per-source exact-duplication report: how many of a source's
    documents share their md5 text hash with ANY other document in the
    corpus (cross-source included) — the corpus-health number a dedup
    run is judged by ("source X is 40% boilerplate").

    Scale shape: md5 per batch, then ONE data-scaled hash-grouped
    reduce keyed on the md5 (colocating every copy of a text so the
    global per-hash count is group-local); the reduce emits one row
    per (hash, source) — bounded by distinct-content volume, not
    corpus size — and the final per-source rollup groups that already
    small table.  Corpus text never shuffles (only 32-char hashes +
    source move), and all outputs are exact BIGINTs."""
    from dude_ray.partitioning import parquet_row_groups

    docs = _docs(sf_dir, ["source", "text"]).map_batches(
        lambda t: pa.table({
            "source": t["source"],
            "h": pa.array([hashlib.md5((x or "").encode()).hexdigest()
                           for x in t["text"].to_pylist()],
                          type=pa.string()),
        }), batch_format="pyarrow", batch_size=4096)
    n_rows = sum(n for _f, _rg, n in
                 parquet_row_groups(f"{sf_dir}/documents.parquet"))

    def _per_hash(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        tot = df.groupby("h", sort=False)["source"].transform("size")
        g = (df.assign(docs=np.int64(1),
                       dups=(tot > 1).to_numpy().astype(np.int64))
             .groupby(["h", "source"], sort=False)
             .agg(docs=("docs", "sum"), dups=("dups", "sum"))
             .reset_index())
        return pa.Table.from_pandas(g, preserve_index=False)

    per_hash = hash_grouped_reduce(
        docs, "h", _per_hash, n_rows,
        target_rows_per_group=target_rows_per_group,
        out_cols=("source", "docs", "dups"))

    def _rollup(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "source": [g["source"].iloc[0]],
            "n_docs": pd.Series([int(g["docs"].sum())], dtype="int64"),
            "n_dup_docs": pd.Series([int(g["dups"].sum())], dtype="int64"),
        })

    return per_hash.groupby("source").map_groups(
        _rollup, batch_format="pandas")


def dup_rate_by_source_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_dup_rate_by_source`."""
    return """
        WITH h AS (
            SELECT source, md5(coalesce(text, '')) AS h FROM documents
        ), c AS (
            SELECT h, count(*) AS tot FROM h GROUP BY h
        )
        SELECT source,
               CAST(count(*) AS BIGINT) AS n_docs,
               CAST(sum(CASE WHEN tot > 1 THEN 1 ELSE 0 END) AS BIGINT)
                   AS n_dup_docs
        FROM h JOIN c USING (h)
        GROUP BY source
    """


# --------------------------------------------------------------------------
# edit-distance near-dup (SymSpell deletion-neighborhood, k = 1)
# --------------------------------------------------------------------------

EDIT_PREFIX_CHARS = 32


def _lev_le1_bytes(x: bytes, y: bytes):
    """Exact Levenshtein-≤1 test over BYTES (DuckDB's levenshtein is
    byte-based — 'café'→'cafe' is 2): returns 0, 1 or None.  Linear
    scan, no DP — distance ≤1 admits only equal / one-substitution /
    one-indel shapes."""
    if x == y:
        return 0
    lx, ly = len(x), len(y)
    if lx == ly:
        diff = i = 0
        while i < lx:
            if x[i] != y[i]:
                diff += 1
                if diff > 1:
                    return None
            i += 1
        return 1
    if abs(lx - ly) != 1:
        return None
    if lx > ly:
        x, y, lx = y, x, ly
    i = 0
    while i < lx and x[i] == y[i]:
        i += 1
    return 1 if x[i:] == y[i + 1:] else None


def run_editdist_neardup(sf_dir: str, prefix_chars: int = EDIT_PREFIX_CHARS,
                         target_rows_per_group: int = 65536):
    """Fuzzy near-dup pairs on the document's head: every (a, b, dist)
    with byte-Levenshtein(prefix_a, prefix_b) ≤ 1 over the first
    ``prefix_chars`` code points — the title/boilerplate fuzzy-match a
    dedup pass runs where minhash (set semantics) misses single-typo
    clones.

    EXACT by the SymSpell k=1 theorem: two byte strings within
    distance 1 are equal, differ by one substitution, or one is a
    1-deletion of the other — in every case they share a key in
    K(s) = {s} ∪ del1(s), so bucketing on K and verifying inside the
    bucket loses no pair; the verify (:func:`_lev_le1_bytes`) removes
    the false candidates (e.g. 'ab'/'ba' share key 'a' at distance 2).

    Scale shape: ≤ (prefix_bytes+1) key rows per doc (within-doc
    deduped), ONE data-scaled hash-grouped reduce on the raw key bytes
    colocates each neighborhood; equal-prefix (dist-0) pairs are
    emitted only under their identity key — kind-1 rows with equal
    prefixes skip — so the quadratic exact-dup mass is not multiplied
    by the deletion-alphabet; candidate (a, b) then dedups through the
    same measured two-tier distinct as minhash.  Only ≤33 short byte
    keys per doc ever shuffle, never text."""
    from dude_ray.partitioning import parquet_row_groups

    def _keys(t: pa.Table) -> pa.Table:
        kb, ids, pres, kinds = [], [], [], []
        for doc_id, text in zip(t["doc_id"].to_pylist(),
                                t["text"].to_pylist()):
            pre = ((text or "")[:prefix_chars]).encode()
            ks = {pre: 0}
            for i in range(len(pre)):
                ks.setdefault(pre[:i] + pre[i + 1:], 1)
            for k, kind in ks.items():
                kb.append(k)
                ids.append(doc_id)
                pres.append(pre)
                kinds.append(kind)
        return pa.table({
            "key": pa.array(kb, type=pa.binary()),
            "doc_id": pa.array(ids, type=pa.int64()),
            "pre": pa.array(pres, type=pa.binary()),
            "kind": pa.array(kinds, type=pa.int8()),
        })

    keyed = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        _keys, batch_format="pyarrow", batch_size=4096)
    n_docs = sum(n for _f, _rg, n in
                 parquet_row_groups(f"{sf_dir}/documents.parquet"))

    def _bucket(t: pa.Table) -> pa.Table:
        a_out, b_out, d_out = [], [], []
        for _k, g in t.to_pandas().groupby("key", sort=False):
            if len(g) < 2:
                continue
            ids = g["doc_id"].to_numpy()
            pres = g["pre"].to_numpy()
            kinds = g["kind"].to_numpy()
            order = np.argsort(ids, kind="stable")
            ids, pres, kinds = ids[order], pres[order], kinds[order]
            for i in range(len(ids) - 1):
                for j in range(i + 1, len(ids)):
                    if (pres[i] == pres[j]
                            and (kinds[i] or kinds[j])):
                        continue  # dist-0 pair owned by its identity key
                    d = _lev_le1_bytes(pres[i], pres[j])
                    if d is not None:
                        a_out.append(ids[i])
                        b_out.append(ids[j])
                        d_out.append(d)
        return pa.table({"a": pa.array(a_out, pa.int64()),
                         "b": pa.array(b_out, pa.int64()),
                         "dist": pa.array(d_out, pa.int64())})

    cand = hash_grouped_reduce(
        keyed, "key", _bucket, n_docs * (prefix_chars + 1),
        target_rows_per_group=target_rows_per_group,
        out_cols=("a", "b", "dist"))

    # measured two-tier distinct, the _distinct_pairs idiom with the
    # dist column carried (dist is a function of (a, b), so any copy
    # of a duplicated candidate row is the right one)
    def _dd(batch: pa.Table) -> pa.Table:
        return (batch.group_by(["a", "b", "dist"]).aggregate([])
                .select(["a", "b", "dist"]))

    lvl1 = cand.map_batches(_dd, batch_format="pyarrow",
                            batch_size=None).materialize()
    n = lvl1.count()
    if n == 0 or n <= 100_000:
        return lvl1.repartition(1).map_batches(
            _dd, batch_format="pyarrow", batch_size=None)
    return hash_grouped_reduce(
        lvl1, ["a", "b"],
        lambda t: group_agg(t, ["a", "b"], {"dist": ("dist", "first")}),
        n, target_rows_per_group, out_cols=("a", "b", "dist"))


def editdist_neardup_oracle_sql(prefix_chars: int = EDIT_PREFIX_CHARS) -> str:
    """DuckDB oracle for :func:`run_editdist_neardup` — brute-force
    all-pairs with the byte-based ``levenshtein`` ≤ 1 predicate over
    the same code-point prefix."""
    return f"""
        WITH p AS (
            SELECT doc_id, substr(coalesce(text, ''), 1, {prefix_chars})
                       AS pre
            FROM documents
        )
        SELECT a.doc_id AS a, b.doc_id AS b,
               CAST(levenshtein(a.pre, b.pre) AS BIGINT) AS dist
        FROM p a JOIN p b ON a.doc_id < b.doc_id
        WHERE levenshtein(a.pre, b.pre) <= 1
    """


# --------------------------------------------------------------------------
# dedup recall/precision eval (minhash-LSH candidates vs exact join)
# --------------------------------------------------------------------------

JACCARD_JOIN_ORACLE_SQL = """
    WITH grams AS (
        SELECT doc_id,
               list_distinct([lower(w[i]) || ' ' || lower(w[i+1])
                              || ' ' || lower(w[i+2])
                              for i in generate_series(
                                  1, greatest(len(w) - 2, 0))]) AS g
        FROM (SELECT doc_id, string_split(text, ' ') AS w
              FROM documents)
    )
    SELECT a.doc_id AS a, b.doc_id AS b
    FROM grams a JOIN grams b ON a.doc_id < b.doc_id
    WHERE round(CAST(len(list_intersect(a.g, b.g)) AS DOUBLE)
                / greatest(len(list_distinct(a.g || b.g)), 1), 6)
          >= {threshold}
"""


def run_dedup_recall(sf_dir: str, threshold: float = 0.8,
                     target_rows_per_group: int = 65536):
    """Recall AND precision of the banded minhash-LSH dedup against
    the exact prefix-filter join at the same threshold — the
    candidate-quality eval every production dedup runs before trusting
    its banding parameters (recall < 1 ⇒ bands missed true pairs;
    precision < 1 ⇒ the two gram definitions disagree at the
    boundary).

    Plan (the 100 TB shape): both inputs are the already-distributed
    pair pipelines; their (a, b) streams tag-union into ONE
    data-scaled hash reduce keyed on the pair, each group emitting a
    single (n_exact, n_approx, n_both) counter row, so the final
    merge is constant-size no matter how many duplicate pairs the
    corpus holds — the pair sets never centralize.

    Float contract: recall/precision are single IEEE divisions of
    exact int64 counts."""
    from dude_ray.pipelines.relational import tree_combine

    def _tag(side: int):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({
                "a": pc.cast(t["a"], pa.int64()),
                "b": pc.cast(t["b"], pa.int64()),
                "side": pa.array(np.full(len(t), side, dtype=np.int8)),
            })
        return fn

    exact = run_jaccard_join(sf_dir, threshold=threshold).map_batches(
        _tag(0), batch_format="pyarrow")
    approx = run_minhash_dedup(sf_dir, threshold=threshold).map_batches(
        _tag(1), batch_format="pyarrow")

    def _count(t: pa.Table) -> pa.Table:
        g = group_agg(t, ["a", "b"], {"lo": ("side", "min"),
                                      "hi": ("side", "max")})
        lo, hi = g["lo"].to_numpy(), g["hi"].to_numpy()
        return pa.table({"k": [0], "n_exact": [int((lo == 0).sum())],
                         "n_approx": [int((hi == 1).sum())],
                         "n_both": [int((lo != hi).sum())]})

    union = exact.union(approx)
    partials = hash_grouped_reduce(
        union, ["a", "b"], _count, max(union.count(), 1),
        target_rows_per_group=target_rows_per_group,
        out_cols=("k", "n_exact", "n_approx", "n_both"))
    out = tree_combine(partials, ["k"],
                       sums=("n_exact", "n_approx", "n_both"))

    def finalize(batch: pa.Table) -> pa.Table:
        ne = batch["n_exact"].to_numpy(zero_copy_only=False)
        na = batch["n_approx"].to_numpy(zero_copy_only=False)
        nb = batch["n_both"].to_numpy(zero_copy_only=False)
        return pa.table({
            "n_exact": pa.array(ne, type=pa.int64()),
            "n_approx": pa.array(na, type=pa.int64()),
            "n_both": pa.array(nb, type=pa.int64()),
            "recall": pa.array(nb / np.maximum(ne, 1), type=pa.float64()),
            "precision": pa.array(nb / np.maximum(na, 1),
                                  type=pa.float64()),
        })

    return out.map_batches(finalize, batch_format="pyarrow")


def dedup_recall_oracle_sql(threshold: float = 0.8) -> str:
    """DuckDB oracle for :func:`run_dedup_recall` — the exact join and
    the full banded-minhash pipeline recomputed independently as
    derived tables, then intersected."""
    exact = JACCARD_JOIN_ORACLE_SQL.format(threshold=threshold)
    approx = minhash_oracle_sql(threshold=threshold)
    return f"""
        WITH exact AS ({exact}),
        approx AS (SELECT a, b FROM ({approx})),
        m AS (
            SELECT coalesce(e.cnt, 0) AS n_exact,
                   coalesce(ap.cnt, 0) AS n_approx,
                   coalesce(b.cnt, 0) AS n_both
            FROM (SELECT count(*) AS cnt FROM exact) e,
                 (SELECT count(*) AS cnt FROM approx) ap,
                 (SELECT count(*) AS cnt FROM exact
                  JOIN approx USING (a, b)) b
        )
        SELECT CAST(n_exact AS BIGINT) AS n_exact,
               CAST(n_approx AS BIGINT) AS n_approx,
               CAST(n_both AS BIGINT) AS n_both,
               CAST(n_both AS DOUBLE) / greatest(n_exact, 1) AS recall,
               CAST(n_both AS DOUBLE) / greatest(n_approx, 1)
                   AS precision
        FROM m
    """


def run_dup_cluster_sizes(sf_dir: str, threshold: float = 0.35):
    """Histogram of near-duplicate cluster sizes — (cluster_size,
    n_clusters, n_docs) — the dedup diagnostic read between pair
    detection and keep-one-per-cluster (a fat tail here means chained
    near-dups that pairwise keeps would over-delete).

    Scale shape: the component labels stream through a per-batch
    (component, c) pre-count, one tree_combine to exact per-component
    sizes, a per-block size histogram partial and a second tiny
    tree_combine — never one row per document in a single task."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from dude_ray.pipelines.relational import tree_combine

    comp = run_dup_clusters(sf_dir, threshold=threshold)

    def _pre(batch: pa.Table) -> pa.Table:
        g = batch.select(["component"]).group_by(
            ["component"]).aggregate([([], "count_all")])
        return pa.table({"component": g["component"],
                         "c": pc.cast(g["count_all"], pa.int64())})

    sizes = tree_combine(
        comp.map_batches(_pre, batch_format="pyarrow",
                         batch_size=65536),
        ["component"], sums=("c",))

    def _hist(batch: pa.Table) -> pa.Table:
        g = batch.select(["c"]).group_by(["c"]).aggregate(
            [([], "count_all")])
        n_clusters = pc.cast(g["count_all"], pa.int64())
        return pa.table({
            "cluster_size": pc.cast(g["c"], pa.int64()),
            "n_clusters": n_clusters,
            "n_docs": pc.multiply(pc.cast(g["c"], pa.int64()),
                                  n_clusters),
        })

    hist = sizes.map_batches(_hist, batch_format="pyarrow",
                             batch_size=None)
    return tree_combine(hist, ["cluster_size"],
                        sums=("n_clusters", "n_docs")).sort("cluster_size")


def run_dedup_threshold_sweep(sf_dir: str, step: int = 5):
    """The near-dup THRESHOLD CURVE: verified LSH candidate pairs
    bucketed by exact-Jaccard floor (buckets of ``step``/100), with
    the descending cumulative pair count — "how many pairs would a
    dedup at threshold t remove" from ONE shingle + verify pass, the
    sweep an operator team runs before committing to a threshold.

    Plan: the shared candidate/verify dataflow of
    :func:`run_ngram_jaccard` (shingle once, join twice); the bucket
    histogram is a fixed-≤(100/step+1)-row partial per batch,
    tree-merged, with the cumulative sum over that constant-size
    table in the final task.  Bucketing floors the ROUNDED 6-dp
    jaccard (the verify kernel's established contract) scaled by
    100/step — exact on both engines."""
    from dude_ray.pipelines.relational import tree_combine

    sh = shingle_dataset(sf_dir)
    pairs = candidate_pairs_minhash(sh)
    verified = _verify_pairs_jaccard(pairs, sh)

    def _bucket(t: pa.Table) -> pa.Table:
        j = t["jaccard"].to_numpy(zero_copy_only=False)
        b = np.floor(j * (100.0 / step)).astype(np.int64) * step
        b = np.minimum(b, 100)
        tt = pa.table({"bucket": pa.array(b),
                       "n": pa.array(np.ones(len(b), dtype=np.int64))})
        g = tt.group_by(["bucket"]).aggregate([("n", "sum")])
        return pa.table({"bucket": g["bucket"], "n": g["n_sum"]})

    merged = tree_combine(
        verified.map_batches(_bucket, batch_format="pyarrow",
                             batch_size=65536),
        ["bucket"], sums=("n",))

    def _cum(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values("bucket").reset_index(drop=True)
        n = df["n"].to_numpy(dtype=np.int64)
        cum = n[::-1].cumsum()[::-1]
        return pa.table({
            "bucket": pa.array(df["bucket"].to_numpy(dtype=np.int64)),
            "n_pairs": pa.array(n),
            "n_pairs_at_or_above": pa.array(cum),
        })

    return merged.repartition(1).map_batches(
        _cum, batch_format="pyarrow", batch_size=None)


def dedup_threshold_sweep_oracle_sql(step: int = 5) -> str:
    """DuckDB oracle for :func:`run_dedup_threshold_sweep`: the full
    LSH-chain jaccard table bucketed and window-cumulated with the
    identical floor arithmetic."""
    return minhash_oracle_sql(threshold=None, final_sql=f"""
        SELECT bucket, CAST(count(*) AS BIGINT) AS n_pairs,
               CAST(sum(count(*)) OVER (
                   ORDER BY bucket DESC
                   ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
                   AS BIGINT) AS n_pairs_at_or_above
        FROM (
            SELECT least(CAST(floor(jaccard * {100.0 / step!r})
                              AS BIGINT) * {step}, 100) AS bucket
            FROM jac
        )
        GROUP BY bucket
        ORDER BY bucket
    """)


def run_shingle_novelty(sf_dir: str, target_rows_per_group: int = 65536):
    """Per-document shingle NOVELTY: a shingle "belongs" to the
    document with the globally smallest doc_id containing it, and
    ``novelty = n_novel / n_shingles`` — the order-free analog of
    "how much new content does each document add" (1.0 = all fresh,
    → 0 = assembled from seen text; the profiling twin of
    :func:`run_dedup_incremental`).  Documents with zero shingles
    (empty text) are excluded on both engines.

    Plan (the 100 TB shape): the shared shingle dataset explodes to
    (hash, doc_id) rows — token-scale but fixed-width — and ONE
    data-scaled hash reduce keyed on the HASH takes the min doc_id;
    a second reduce keyed on doc_id merges the novel counts with the
    per-doc totals (emitted locally from the blob lengths, no extra
    scan).  Nothing wider than a hash bucket ever co-locates.

    Float contract: novelty is one IEEE division of exact int64
    counts, rounded 6 dp."""

    sh = shingle_dataset(sf_dir)

    def _explode(t: pa.Table) -> pa.Table:
        hs, ids = [], []
        for did, blob in zip(t["doc_id"].to_pylist(),
                             t["sh"].to_pylist()):
            arr = np.frombuffer(blob or b"", dtype="<u8")
            if not len(arr):
                continue
            hs.append(arr.view(np.int64))
            ids.append(np.full(len(arr), did, dtype=np.int64))
        if not hs:
            return pa.table({"h": pa.array([], pa.int64()),
                             "doc_id": pa.array([], pa.int64())})
        return pa.table({"h": pa.array(np.concatenate(hs)),
                         "doc_id": pa.array(np.concatenate(ids))})

    exploded = sh.map_batches(_explode, batch_format="pyarrow",
                              batch_size=2048).materialize()
    n_rows = max(exploded.count(), 1)

    firsts = hash_grouped_reduce(exploded, "h",
                                 lambda t: group_agg(
                                     t, "h", {"doc_id": ("doc_id", "min")}),
                                 n_rows,
                                 target_rows_per_group,
                                 out_cols=("h", "doc_id"))

    def _novel_part(t: pa.Table) -> pa.Table:
        g = (pa.table({"doc_id": t["doc_id"]})
             .group_by(["doc_id"]).aggregate([([], "count_all")]))
        n = len(g)
        return pa.table({
            "doc_id": g["doc_id"],
            "n_shingles": pa.array(np.zeros(n, dtype=np.int64)),
            "n_novel": pc.cast(g["count_all"], pa.int64())})

    def _total_part(t: pa.Table) -> pa.Table:
        tot = np.asarray([len(b or b"") // 8
                          for b in t["sh"].to_pylist()], dtype=np.int64)
        keep = tot > 0
        return pa.table({
            "doc_id": pa.array(np.asarray(
                t["doc_id"].to_pylist(), dtype=np.int64)[keep]),
            "n_shingles": pa.array(tot[keep]),
            "n_novel": pa.array(np.zeros(int(keep.sum()),
                                         dtype=np.int64))})

    marks = (firsts.map_batches(_novel_part, batch_format="pyarrow")
             .union(sh.map_batches(_total_part,
                                   batch_format="pyarrow")))

    def _merge(t: pa.Table) -> pa.Table:
        out = group_agg(t, "doc_id", {"n_shingles": ("n_shingles", "sum"),
                                      "n_novel": ("n_novel", "sum")})
        ratio = out["n_novel"].to_numpy() / out["n_shingles"].to_numpy()
        return out.append_column("novelty",
                                 pa.array([round(v, 6) for v in ratio.tolist()]))

    return hash_grouped_reduce(
        marks, "doc_id", _merge, n_rows, target_rows_per_group,
        out_cols=("doc_id", "n_shingles", "n_novel",
                  "novelty")).sort("doc_id")


def shingle_novelty_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_shingle_novelty`: the LSH chain's
    DISTINCT gram-hash CTE (``gdist``), min-doc_id ownership, and the
    same count ratio."""
    return minhash_oracle_sql(threshold=None, final_sql="""
        SELECT t.doc_id,
               CAST(t.n_shingles AS BIGINT) AS n_shingles,
               CAST(coalesce(v.n_novel, 0) AS BIGINT) AS n_novel,
               round(coalesce(v.n_novel, 0) * 1.0 / t.n_shingles, 6)
                   AS novelty
        FROM (SELECT doc_id, count(*) AS n_shingles
              FROM gdist GROUP BY doc_id) t
        LEFT JOIN (
            SELECT d AS doc_id, count(*) AS n_novel
            FROM (SELECT g, min(doc_id) AS d FROM gdist GROUP BY g)
            GROUP BY d) v ON v.doc_id = t.doc_id
        ORDER BY t.doc_id
    """)


def run_dup_source_matrix(sf_dir: str, threshold: float = 0.8,
                          num_partitions: int = JOIN_PARTITIONS):
    """CROSS-SOURCE near-duplicate structure: verified pairs
    (jaccard ≥ ``threshold``) attributed to their documents' sources
    and counted per unordered source pair — (source_a ≤ source_b,
    n_pairs) — the "which feed is mirroring which" matrix that
    decides whether dedup should run within or across sources (the
    pair-grain sibling of :func:`run_dup_rate_by_source`).

    Plan: the shared minhash verify chain, then two distributed hash
    joins against the column-pruned (doc_id, source) projection —
    only (pair, source) rows shuffle — and a fixed-|sources|² tree
    merge.  All integer counts."""
    from dude_ray.io import read_parquet_clean
    from dude_ray.pipelines.relational import tree_combine

    agg_args = {"num_cpus": 0}
    pairs = run_minhash_dedup(sf_dir, threshold=threshold).materialize()
    src = read_parquet_clean(f"{sf_dir}/documents.parquet",
                             columns=["doc_id", "source"])
    sa = src.map_batches(
        lambda t: pa.table({"a_id": t["doc_id"], "src_a": t["source"]}),
        batch_format="pyarrow").materialize()
    sb = src.map_batches(
        lambda t: pa.table({"b_id": t["doc_id"], "src_b": t["source"]}),
        batch_format="pyarrow").materialize()
    n_parts = max(1, min(num_partitions, pairs.count() // 512 + 1))
    j = pairs.join(sa, "inner", n_parts, on=("a",), right_on=("a_id",),
                   aggregator_ray_remote_args=agg_args).materialize()
    j = j.join(sb, "inner", n_parts, on=("b",), right_on=("b_id",),
               aggregator_ray_remote_args=agg_args)

    def _partial(t: pa.Table) -> pa.Table:
        x = t["src_a"].combine_chunks() if isinstance(
            t["src_a"], pa.ChunkedArray) else t["src_a"]
        y = t["src_b"].combine_chunks() if isinstance(
            t["src_b"], pa.ChunkedArray) else t["src_b"]
        lo = pc.min_element_wise(x, y)
        hi = pc.max_element_wise(x, y)
        tt = pa.table({"source_a": lo, "source_b": hi,
                       "n": pa.array(np.ones(len(t), dtype=np.int64))})
        g = tt.group_by(["source_a", "source_b"]).aggregate([("n",
                                                              "sum")])
        return pa.table({"source_a": g["source_a"],
                         "source_b": g["source_b"],
                         "n_pairs": g["n_sum"]})

    return tree_combine(
        j.map_batches(_partial, batch_format="pyarrow",
                      batch_size=65536),
        ["source_a", "source_b"],
        sums=("n_pairs",)).sort(["source_a", "source_b"])


def dup_source_matrix_oracle_sql(threshold: float = 0.8) -> str:
    """DuckDB oracle for :func:`run_dup_source_matrix`: the full LSH
    chain's thresholded jaccard pairs joined to their sources with
    the same least/greatest pair normalization."""
    return minhash_oracle_sql(threshold=None, final_sql=f"""
        SELECT least(da.source, db.source) AS source_a,
               greatest(da.source, db.source) AS source_b,
               CAST(count(*) AS BIGINT) AS n_pairs
        FROM jac
        JOIN documents da ON da.doc_id = jac.a
        JOIN documents db ON db.doc_id = jac.b
        WHERE jaccard >= {threshold}
        GROUP BY 1, 2
        ORDER BY source_a, source_b
    """)
