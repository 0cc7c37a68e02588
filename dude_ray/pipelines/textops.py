"""Text-analysis operators over the ``documents`` table — the ops a
large-scale training-data pipeline needs on top of the reference's
crawl/extract surface: token counting, quality scoring, language ID,
document fingerprinting.

All stages are stateless ``map_batches`` with vectorized kernels
(pyarrow.compute regex counters / numpy); regex programs and language
profiles compile once per worker (callable classes where state
exists).  Reads are column-pruned.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from dude_ray.partitioning import group_agg, hash_grouped_reduce

TOKEN_RE = r"[A-Za-z0-9_]+"
STOPWORDS = ("the", "and", "of", "a", "to", "in", "is", "it", "that")
STOP_RE = r"\b(?:" + "|".join(STOPWORDS) + r")\b"
PUNCT_RE = r"[.,;:!?'\"()\[\]{}<>-]"


def _docs(sf_dir: str, columns):
    from dude_ray.io import read_parquet_clean

    return read_parquet_clean(f"{sf_dir}/documents.parquet", columns=columns)


# --------------------------------------------------------------------------
# token counting (whitespace-ish + BPE-ish regex)
# --------------------------------------------------------------------------

def token_count_batch(batch: pa.Table) -> pa.Table:
    """Vectorized token counts — `[A-Za-z0-9_]+` word tokens plus a
    BPE-ish sub-word estimate (ceil(chars/4), the common ~4-chars/token
    rule of thumb for byte-pair vocabularies)."""
    text = batch["text"]
    n_tokens = pc.count_substring_regex(text, TOKEN_RE)
    n_chars = pc.utf8_length(text)
    bpe_est = pc.cast(pc.ceil(pc.divide(pc.cast(n_chars, pa.float64()), 4.0)), pa.int64())
    return pa.table({
        "doc_id": batch["doc_id"],
        "n_tokens": pc.cast(n_tokens, pa.int64()),
        "n_chars": pc.cast(n_chars, pa.int64()),
        "bpe_tokens_est": bpe_est,
    })


def run_token_count(sf_dir: str):
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        token_count_batch, batch_format="pyarrow", batch_size=4096)


# --------------------------------------------------------------------------
# quality scoring (length / punctuation / stopword ratios)
# --------------------------------------------------------------------------

def quality_batch(batch: pa.Table) -> pa.Table:
    text = batch["text"]
    n_chars = pc.cast(pc.utf8_length(text), pa.float64())
    n_words = pc.cast(pc.count_substring_regex(text, TOKEN_RE), pa.float64())
    n_stop = pc.cast(pc.count_substring_regex(text, STOP_RE), pa.float64())
    n_punct = pc.cast(pc.count_substring_regex(text, PUNCT_RE), pa.float64())
    safe_words = pc.max_element_wise(n_words, 1.0)
    safe_chars = pc.max_element_wise(n_chars, 1.0)
    stop_ratio = pc.round(pc.divide(n_stop, safe_words), 6)
    punct_ratio = pc.round(pc.divide(n_punct, safe_chars), 6)
    # mean alpha word length = (chars in tokens) / tokens
    return pa.table({
        "doc_id": batch["doc_id"],
        "n_chars": pc.cast(n_chars, pa.int64()),
        "n_words": pc.cast(n_words, pa.int64()),
        "stop_ratio": stop_ratio,
        "punct_ratio": punct_ratio,
    })


def run_quality(sf_dir: str):
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        quality_batch, batch_format="pyarrow", batch_size=4096)


# --------------------------------------------------------------------------
# language ID (character/stopword n-gram heuristic)
# --------------------------------------------------------------------------

# DuckDB oracle reproducing LangId exactly (marker-word counts,
# first-max-wins over languages in sorted order de,en,es,fr, 'und' when
# nothing matches) — shared by the lang_id gate entry and the
# ccnet_buckets composition.
LANG_ID_ORACLE_SQL = r"""
    WITH scored AS (
        SELECT doc_id,
               len(regexp_extract_all(text, '\b(?:der|die|und|ist|nicht|ein)\b')) AS de,
               len(regexp_extract_all(text, '\b(?:the|and|of|is|with|for)\b')) AS en,
               len(regexp_extract_all(text, '\b(?:el|la|y|es|los|una)\b')) AS es,
               len(regexp_extract_all(text, '\b(?:le|la|et|est|les|des)\b')) AS fr,
               greatest(1, len(regexp_extract_all(text, '\S+'))) AS n_words
        FROM documents
    )
    SELECT doc_id,
           CASE WHEN greatest(de, en, es, fr) = 0 THEN 'und'
                WHEN de >= en AND de >= es AND de >= fr THEN 'de'
                WHEN en >= es AND en >= fr THEN 'en'
                WHEN es >= fr THEN 'es'
                ELSE 'fr' END AS pred_lang,
           round(CAST(greatest(de, en, es, fr) AS DOUBLE) / n_words, 6)
               AS lang_score
    FROM scored
"""


class LangId:
    """Tiny deterministic language-ID: per-language marker-word profiles
    scored per document.  The compiled regexes are cheap config, so
    :func:`run_lang_id` passes an instance and runs a task stage."""

    PROFILES = {
        "en": ("the", "and", "of", "is", "with", "for"),
        "de": ("der", "die", "und", "ist", "nicht", "ein"),
        "fr": ("le", "la", "et", "est", "les", "des"),
        "es": ("el", "la", "y", "es", "los", "una"),
    }

    def __init__(self):
        self.patterns = {
            lang: re.compile(r"\b(?:" + "|".join(words) + r")\b")
            for lang, words in self.PROFILES.items()
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        langs, scores = [], []
        for t in texts:
            t = t or ""
            best_lang, best = "und", 0
            for lang in sorted(self.patterns):  # deterministic tie-break
                n = len(self.patterns[lang].findall(t))
                if n > best:
                    best, best_lang = n, lang
            langs.append(best_lang)
            n_words = max(1, len(t.split()))
            scores.append(round(best / n_words, 6))
        return pa.table({
            "doc_id": batch["doc_id"],
            "pred_lang": pa.array(langs, type=pa.string()),
            "lang_score": pa.array(scores, type=pa.float64()),
        })


def run_lang_id(sf_dir: str):
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        LangId(), batch_format="pyarrow", batch_size=4096)


# --------------------------------------------------------------------------
# document fingerprinting (rolling hash, winnowing)
# --------------------------------------------------------------------------

def winnow_weights(k: int) -> np.ndarray:
    """TWO rows of deterministic odd weights < 2^19 for the k-gram
    hash (shared by the digest fingerprinter and the substring-dup
    sampler).  The small range keeps each component inside
    checked-64-bit arithmetic: code point < 2^21, weight < 2^19, so a
    K≤16 weighted sum < 2^44 and the < 2^19 mix multiply lands < 2^63
    — NO wraparound anywhere, which lets a SQL engine with
    overflow-checked UBIGINTs (DuckDB) reproduce the hash
    bit-for-bit.  A SINGLE such sum only spans ~2^44 distinct values
    (birthday collisions at web-scale gram counts — ~10^9 distinct
    grams ⇒ ~N²/2^45 spurious equalities); XOR-combining two
    independently-weighted, independently-mixed sums (kgram_hashes)
    restores an effectively 64-bit key while keeping every
    intermediate overflow-free."""
    rng = np.random.RandomState(7)
    return rng.randint(1, 1 << 19, size=(2, k)).astype(np.uint64) | np.uint64(1)


_KGRAM_MIX = np.uint64(0x6F4A7)    # odd, < 2^19 (see winnow_weights note)
_KGRAM_MIX2 = np.uint64(0x2E8B5)   # odd, < 2^19 — second component
# (shift1, multiplier, shift2) per component: distinct constants make
# the two bijective mixes independent before the XOR combine
_KGRAM_MIXES = ((17, _KGRAM_MIX, 31), (16, _KGRAM_MIX2, 29))


def _kgram_mix(h: np.ndarray, c: int) -> np.ndarray:
    s1, mult, s2 = _KGRAM_MIXES[c]
    h = h ^ (h >> np.uint64(s1))
    h = h * mult
    return h ^ (h >> np.uint64(s2))


def kgram_hashes(text: str, k: int, weights: np.ndarray) -> np.ndarray:
    """uint64 hash per overlapping k-CODE-POINT gram of ``text`` — two
    independent weighted code-point sums, each xorshift-multiply
    mixed, XOR-combined into one 64-bit key; fully vectorized (2k
    shifted vector ops, no per-character loop).  Equal substrings hash
    equal (position-independent), which is all winnowing requires;
    each mix is a bijection of its sum and the two sums use
    independent weights, so the combined key behaves as a ~64-bit hash
    (collisions ≈ N²/2^65) instead of the single sum's ~2^44 range.
    Texts shorter than ``k`` hash their full code-point sequence with
    the same weights (one gram).  Every intermediate stays < 2^63 for
    k ≤ 16 — the SQL-oracle no-overflow contract (winnow_weights)."""
    cp = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
    if not len(cp):
        return np.array([], dtype=np.uint64)
    w1, w2 = weights[0], weights[1]
    if len(cp) < k:
        s1 = (cp * w1[:len(cp)]).sum(keepdims=True)
        s2 = (cp * w2[:len(cp)]).sum(keepdims=True)
    else:
        n = len(cp) - k + 1
        s1 = np.zeros(n, dtype=np.uint64)
        s2 = np.zeros(n, dtype=np.uint64)
        for j in range(k):
            seg = cp[j:j + n]
            s1 += seg * w1[j]
            s2 += seg * w2[j]
    return _kgram_mix(s1, 0) ^ _kgram_mix(s2, 1)


def winnow_samples(grams: np.ndarray, window: int) -> np.ndarray:
    """Unique window-minimum samples of a gram-hash stream (the
    winnowing selection, Schleimer et al.)."""
    if not len(grams):
        return grams
    if len(grams) <= window:
        return np.unique(grams.min(keepdims=True))
    return np.unique(np.lib.stride_tricks.sliding_window_view(
        grams, window).min(axis=1))


class Fingerprinter:
    """Winnowed fingerprint (Schleimer et al. winnowing): hashed
    character k-grams, min-sampled per window; the fingerprint is the
    hex digest of the sorted sampled hashes.  Two documents sharing
    long substrings share sampled hashes.

    Fully vectorized: the k-gram hash is a weighted byte sum with
    wraparound uint64 arithmetic + a murmur-style finalizer (K shifted
    vector ops per doc instead of a per-character Python loop), and the
    window minima come from one ``sliding_window_view(...).min(axis=1)``
    — the property that equal substrings hash equal (position-
    independent) is all winnowing requires."""

    K = 8          # gram size
    WINDOW = 16    # winnow window

    def __init__(self):
        self.w = winnow_weights(self.K)

    def _grams(self, t: str) -> np.ndarray:
        return kgram_hashes(t, self.K, self.w)

    def __call__(self, batch: pa.Table) -> pa.Table:
        fps, n_grams = [], []
        for t in batch["text"].to_pylist():
            grams = self._grams(t or "")
            n_grams.append(len(grams))
            if not len(grams):
                fps.append("")
                continue
            uniq = winnow_samples(grams, self.WINDOW)
            # canonical digest form: md5 over the 16-hex-digit concat of
            # the sorted sampled hashes — reproducible from SQL
            # (lpad(hex(h)) + string_agg + md5)
            hexcat = "".join(f"{h:016x}" for h in uniq.tolist())
            fps.append(hashlib.md5(hexcat.encode()).hexdigest())
        return pa.table({
            "doc_id": batch["doc_id"],
            "fingerprint": pa.array(fps, type=pa.string()),
            "n_grams": pa.array(n_grams, type=pa.int64()),
        })


def hash_bytes(b: bytes) -> int:
    return int.from_bytes(hashlib.sha1(b).digest()[:8], "big")


def run_fingerprint(sf_dir: str):
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        Fingerprinter(), batch_format="pyarrow", batch_size=2048)


def winnow_mins_sql(k: int, window: int) -> str:
    """Shared CTE chain reproducing ``kgram_hashes`` + ``winnow_samples``
    BIT-FOR-BIT in DuckDB (overflow-free 64-bit arithmetic — see
    winnow_weights; both weighted sums and both mixes are expressed,
    XOR-combined exactly like the numpy kernel): yields CTEs
    ``cp → g → h → mins`` where ``mins`` has (doc_id, n_grams, m: the
    window-minimum hash list, NOT yet distinct)."""
    ws = winnow_weights(k)

    def sum_exprs(c: int) -> tuple[str, str]:
        w = [int(x) for x in ws[c]]
        wsum = " + ".join(f"p[i+{j}]*CAST({w[j]} AS UBIGINT)"
                          for j in range(k))
        wlist = ",".join(str(x) for x in w)
        return wsum, wlist

    def mix_expr(var: str, c: int) -> str:
        s1, mult, s2 = _KGRAM_MIXES[c]
        return (f"list_transform(list_transform({var}, "
                f"x -> xor(x, x >> {s1}) * CAST({int(mult)} AS UBIGINT)), "
                f"x -> xor(x, x >> {s2}))")

    wsum1, wlist1 = sum_exprs(0)
    wsum2, wlist2 = sum_exprs(1)
    return f"""
        cp AS (
          SELECT doc_id,
            CASE WHEN text IS NULL OR text = '' THEN CAST([] AS UBIGINT[])
                 ELSE [CAST(unicode(c) AS UBIGINT) for c in string_split(text, '')]
            END AS p
          FROM documents
        ), g AS (
          SELECT doc_id,
            CASE WHEN len(p) = 0 THEN CAST([] AS UBIGINT[])
                 WHEN len(p) < {k} THEN
                   [list_sum([p[j]*CAST([{wlist1}][j] AS UBIGINT)
                              for j in generate_series(1, len(p))])]
                 ELSE [{wsum1} for i in generate_series(1, len(p) - {k - 1})]
            END AS s1,
            CASE WHEN len(p) = 0 THEN CAST([] AS UBIGINT[])
                 WHEN len(p) < {k} THEN
                   [list_sum([p[j]*CAST([{wlist2}][j] AS UBIGINT)
                              for j in generate_series(1, len(p))])]
                 ELSE [{wsum2} for i in generate_series(1, len(p) - {k - 1})]
            END AS s2
          FROM cp
        ), hx AS (
          SELECT doc_id,
            {mix_expr('s1', 0)} AS a,
            {mix_expr('s2', 1)} AS b
          FROM g
        ), h AS (
          SELECT doc_id,
            [xor(a[i], b[i]) for i in generate_series(1, len(a))] AS h
          FROM hx
        ), mins AS (
          SELECT doc_id, len(h) AS n_grams,
            CASE WHEN len(h) = 0 THEN CAST([] AS UBIGINT[])
                 WHEN len(h) <= {window} THEN [list_min(h)]
                 ELSE [list_min(h[i:i+{window - 1}])
                       for i in generate_series(1, len(h) - {window - 1})]
            END AS m
          FROM h
        )"""


def fingerprint_oracle_sql() -> str:
    """DuckDB SQL reproducing the winnowed fingerprint BIT-FOR-BIT:
    the k-gram hash is overflow-free 64-bit arithmetic (winnow_weights
    note), so checked UBIGINT math + list comprehensions express the
    exact chain — weighted code-point sums, xorshift-multiply mix,
    16-window minima, sorted-unique hex concat, md5."""
    chain = winnow_mins_sql(Fingerprinter.K, Fingerprinter.WINDOW)
    return f"""
        WITH {chain}
        SELECT doc_id,
          CASE WHEN n_grams = 0 THEN ''
               ELSE md5(list_aggregate(
                      list_transform(list_sort(list_distinct(m)),
                                     x -> lpad(lower(hex(x)), 16, '0')),
                      'string_agg', '')) END AS fingerprint,
          CAST(n_grams AS BIGINT) AS n_grams
        FROM mins
    """


# --------------------------------------------------------------------------
# corpus prep — the composed flagship LLM-training-data pipeline
# --------------------------------------------------------------------------

class CorpusPrep:
    """Fused single-pass corpus-preparation stage: one text scan emits
    content hash + language + token count + quality gate, so the full
    filter→dedup→stats chain reads the corpus exactly once (at 100 TB,
    chaining run_quality → run_lang_id → md5_batch would scan the text
    column three times).

    Vectorized gates (pyarrow.compute regex counters) run FIRST and
    shrink the batch before the per-row work (md5, language profile
    scoring), so rejected documents never reach a Python loop.  Passed
    as an instance: the gates and language patterns are cheap config."""

    def __init__(self, min_tokens: int = 30, min_stop_ratio: float = 0.05):
        self.min_tokens = min_tokens
        self.min_stop_ratio = min_stop_ratio
        self.patterns = {
            lang: re.compile(r"\b(?:" + "|".join(words) + r")\b")
            for lang, words in LangId.PROFILES.items()
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch["text"]
        n_tokens = pc.cast(pc.count_substring_regex(text, TOKEN_RE), pa.int64())
        n_stop = pc.cast(pc.count_substring_regex(text, STOP_RE), pa.float64())
        safe = pc.cast(pc.max_element_wise(n_tokens, 1), pa.float64())
        stop_ratio = pc.round(pc.divide(n_stop, safe), 6)
        keep = pc.and_(pc.greater_equal(n_tokens, self.min_tokens),
                       pc.greater_equal(stop_ratio, self.min_stop_ratio))
        kept = pa.table({"text": text, "n_tokens": n_tokens}).filter(keep)

        hs, langs = [], []
        for t in kept["text"].to_pylist():
            t = t or ""
            hs.append(hashlib.md5(t.encode()).hexdigest())
            best_lang, best = "und", 0
            for lang in sorted(self.patterns):  # deterministic tie-break
                n = len(self.patterns[lang].findall(t))
                if n > best:
                    best, best_lang = n, lang
            langs.append(best_lang)
        return pa.table({
            "h": pa.array(hs, type=pa.string()),
            "pred_lang": pa.array(langs, type=pa.string()),
            "n_tokens": kept["n_tokens"],
        })


def run_corpus_prep(sf_dir: str, min_tokens: int = 30,
                    min_stop_ratio: float = 0.05):
    """Quality filter → exact dedup → per-language token stats, as one
    streaming chain.  Only (h, pred_lang, n_tokens) rows (~50 B each)
    reach the dedup shuffle — the text column never leaves the fused
    first stage.  Duplicate documents have identical text, hence
    identical pred_lang/n_tokens, so grouping by all three keys equals
    grouping by ``h`` while carrying the stats columns for free.  The
    per-language rollup is a bounded-key partial combine (≤5 languages),
    Arrow tree merge — no second all-to-all."""
    from dude_ray.partitioning import parquet_row_groups
    from dude_ray.pipelines.relational import tree_combine

    ds = _docs(sf_dir, ["text"]).map_batches(
        CorpusPrep(min_tokens, min_stop_ratio), batch_format="pyarrow",
        batch_size=4096)
    # distinct-by-h via the shared data-scaled hash-group reduce —
    # Ray's multi-key groupby().aggregate() combine is Python-per-row
    # (~20k rows/s measured; 25 s at sf0.1).  Grouping by h alone is
    # equivalent since duplicates share pred_lang/n_tokens; group count
    # is sized from parquet metadata (kept rows ≤ corpus rows)
    n_rows = sum(n for _f, _rg, n in
                 parquet_row_groups(f"{sf_dir}/documents.parquet"))

    distinct = hash_grouped_reduce(
        ds, "h", lambda t: group_agg(t, ["h", "pred_lang", "n_tokens"]),
        n_rows,
        out_cols=("h", "pred_lang", "n_tokens"))

    def _lang_partials(batch: pa.Table) -> pa.Table:
        g = batch.group_by("pred_lang").aggregate(
            [("h", "count"), ("n_tokens", "sum")])
        return pa.table({
            "pred_lang": g["pred_lang"],
            "kept_docs": pc.cast(g["h_count"], pa.int64()),
            "total_tokens": pc.cast(g["n_tokens_sum"], pa.int64()),
        })

    partials = distinct.map_batches(_lang_partials, batch_format="pyarrow",
                                    batch_size=8192)
    return tree_combine(partials, ["pred_lang"],
                        sums=("kept_docs", "total_tokens")).sort("pred_lang")


# --------------------------------------------------------------------------
# BPE pair counting (tokenizer-training step 1)
# --------------------------------------------------------------------------

def run_bpe_pair_counts(sf_dir: str, batch_size: int = 4096):
    """Corpus-wide adjacent-character-pair counts over lowercased
    TOKEN_RE words — the inner statistic of a BPE tokenizer-training
    merge round (the highest-count pair is the next merge).  One
    streaming pass: each batch collapses to ≤ 37² fixed-width partial
    rows (the token alphabet is [a-z0-9_]), so the merge is the tiny
    tree_combine — corpus size only changes the count magnitudes,
    never the shuffle volume.

    Vectorization: all of a batch's words join into one byte buffer
    ('\\n'-separated — tokens are ASCII by construction), adjacent
    pairs become one uint16 code array (hi<<8|lo), and np.bincount
    counts every pair at memory bandwidth; no per-word Python."""
    from dude_ray.pipelines.relational import tree_combine

    pat = re.compile(TOKEN_RE)

    def pairs(batch: pa.Table) -> pa.Table:
        # extract ASCII tokens FIRST, lowercase after: lower() on a
        # pure-[A-Za-z0-9_] token is identical in Python and DuckDB,
        # whereas lowering the whole text first diverges on Unicode
        # special-casing codepoints (e.g. U+0130 → 'i̇' in Python
        # but 'i' in DuckDB), which would shift token boundaries
        words = []
        for t in batch["text"].to_pylist():
            words.extend(w.lower() for w in pat.findall(t or ""))
        if not words:
            return pa.table({"left_ch": pa.array([], type=pa.string()),
                             "right_ch": pa.array([], type=pa.string()),
                             "n": pa.array([], type=pa.int64())})
        buf = np.frombuffer("\n".join(words).encode("ascii"),
                            dtype=np.uint8)
        code = (buf[:-1].astype(np.uint32) << 8) | buf[1:]
        sep = np.uint32(ord("\n"))
        keep = (buf[:-1] != sep) & (buf[1:] != sep)
        counts = np.bincount(code[keep], minlength=1 << 16)
        nz = np.flatnonzero(counts)
        return pa.table({
            "left_ch": pa.array([chr(c >> 8) for c in nz],
                                type=pa.string()),
            "right_ch": pa.array([chr(c & 0xFF) for c in nz],
                                 type=pa.string()),
            "n": pa.array(counts[nz], type=pa.int64()),
        })

    partials = _docs(sf_dir, ["text"]).map_batches(
        pairs, batch_format="pyarrow", batch_size=batch_size)
    return tree_combine(partials, keys=("left_ch", "right_ch"),
                        sums=("n",))


# --------------------------------------------------------------------------
# character-entropy quality signal
# --------------------------------------------------------------------------

def run_char_entropy(sf_dir: str, batch_size: int = 4096):
    """Per-document Shannon entropy of the character distribution plus
    the distinct-character count — the cheap compression-ratio-style
    quality signal (machine-generated/repetitive text scores low,
    natural text high).  Stateless streaming map; entropy is computed
    as log2(N) - Σ c·log2(c) / N over per-char counts and rounded to
    6 dp (the cross-engine float summation-order contract used by the
    other rounded oracles)."""

    def ent(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        out_e = np.zeros(len(ids), dtype=np.float64)
        out_d = np.zeros(len(ids), dtype=np.int64)
        for i, t in enumerate(batch["text"].to_pylist()):
            if not t:
                continue
            cp = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32)
            _u, c = np.unique(cp, return_counts=True)
            n = float(len(cp))
            cf = c.astype(np.float64)
            out_e[i] = np.log2(n) - float(np.dot(cf, np.log2(cf))) / n
            out_d[i] = len(c)
        return pa.table({
            "doc_id": pc.cast(batch["doc_id"], pa.int64()),
            "n_distinct_chars": pa.array(out_d, type=pa.int64()),
            # Python round (correctly-rounded decimal, == DuckDB round)
            # rather than np.round's scale-multiply, per _py_round's
            # rationale — one small final column, not a hot loop
            "char_entropy": pa.array([round(v, 6) for v in out_e],
                                     type=pa.float64()),
        })

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        ent, batch_format="pyarrow", batch_size=batch_size)


# --------------------------------------------------------------------------
# word n-gram count tables (LM / infini-gram style corpus statistics)
# --------------------------------------------------------------------------

def run_ngram_counts(sf_dir: str, n_max: int = 3, min_count: int = 5,
                     top_per_n: int = 100, batch_size: int = 4096):
    """Global word n-gram count table (n = 1..``n_max``) over the
    lowered corpus, reported as the top ``top_per_n`` grams per n with
    ``cnt >= min_count`` — the corpus statistic behind n-gram LMs and
    infini-gram-style lookup indexes.

    Scale shape: per-batch value_counts pre-aggregation (one (n, gram,
    c) row per DISTINCT gram per batch), then the data-scaled
    hash-grouped reduce — the only shuffle moves pre-counted partials,
    never one row per token occurrence.  The final per-n top-k sorts
    only grams that survived ``min_count``."""
    import pandas as pd

    tok_re = re.compile(TOKEN_RE)

    def _partial(batch: pa.Table) -> pa.Table:
        ns, grams, cs = [], [], []
        cnt: dict = {}
        for text in batch["text"].to_pylist():
            toks = tok_re.findall((text or "").lower())
            for n in range(1, n_max + 1):
                if len(toks) < n:
                    continue
                if n == 1:
                    it = toks
                else:
                    it = [" ".join(toks[i:i + n])
                          for i in range(len(toks) - n + 1)]
                for g in it:
                    k = (n, g)
                    cnt[k] = cnt.get(k, 0) + 1
        for (n, g), c in cnt.items():
            ns.append(n)
            grams.append(g)
            cs.append(c)
        return pa.table({
            "n": pa.array(ns, type=pa.int64()),
            "gram": pa.array(grams, type=pa.string()),
            "c": pa.array(cs, type=pa.int64()),
        })

    def _reduce(t: pa.Table) -> pa.Table:
        return group_agg(t, ["n", "gram"], {"c": ("c", "sum")}).filter(
            pc.field("c") >= min_count)

    ds = _docs(sf_dir, ["text"])
    partials = ds.map_batches(_partial, batch_format="pyarrow",
                              batch_size=batch_size)
    merged = hash_grouped_reduce(partials, ["n", "gram"], _reduce,
                                 partials.count(),
                                 out_cols=("n", "gram", "c"))

    def _top(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.sort_values(["c", "gram"], ascending=[False, True])
              .head(top_per_n).reset_index(drop=True))
        return pd.DataFrame({
            "n": g["n"].astype("int64"),
            "gram": g["gram"],
            "cnt": g["c"].astype("int64"),
            "rank": pd.Series(range(1, len(g) + 1), dtype="int64"),
        })

    return merged.groupby("n").map_groups(_top, batch_format="pandas")


def ngram_counts_oracle_sql(n_max: int = 3, min_count: int = 5,
                            top_per_n: int = 100) -> str:
    """DuckDB oracle for :func:`run_ngram_counts` — independent
    n-gram explode + count + per-n ranking."""
    gs = []
    for n in range(1, n_max + 1):
        if n == 1:
            gs.append("SELECT 1 AS n, unnest(w) AS gram FROM toks")
        else:
            expr = " || ' ' || ".join(f"w[i + {j}]" for j in range(n))
            gs.append(
                f"SELECT {n} AS n, unnest([{expr} "
                f"for i in generate_series(1, len(w) - {n - 1})]) AS gram "
                f"FROM toks WHERE len(w) >= {n}")
    union = " UNION ALL ".join(gs)
    return f"""
        WITH toks AS (
            SELECT regexp_extract_all(lower(coalesce(text, '')),
                                      '{TOKEN_RE}') AS w
            FROM documents
        ), cnt AS (
            SELECT n, gram, count(*) AS cnt
            FROM ({union}) GROUP BY 1, 2
        )
        SELECT CAST(n AS BIGINT) AS n, gram, CAST(cnt AS BIGINT) AS cnt,
               CAST(row_number() OVER (
                   PARTITION BY n
                   ORDER BY cnt DESC, gram ASC) AS BIGINT) AS rank
        FROM cnt WHERE cnt >= {min_count}
        QUALIFY rank <= {top_per_n}
    """


# --------------------------------------------------------------------------
# PMI collocations (association-ranked bigrams)
# --------------------------------------------------------------------------

def run_pmi_collocations(sf_dir: str, min_count: int = 5,
                         top_k: int = 100, batch_size: int = 4096):
    """Top-``top_k`` bigram collocations by pointwise mutual
    information over the lowered word stream — the classic phrase /
    multi-word-expression statistic (PMI = ln(lift); we report
    ``lift = p(xy) / (p(x)·p(y))`` itself, which is order-equivalent
    and needs no libm to match across engines).

    Cross-engine exactness: every count is an exact int64; the score
    is computed with the SAME float64 expression tree on both sides —
    ``((c·N)·N) / ((M·cx)·cy)`` with left-associated multiplies — so
    IEEE determinism makes the doubles (and hence the ranking)
    bit-identical with no rounding contract.

    Scale shape: ONE corpus scan emits per-batch (n, gram, c) partials
    (pre-counted — one row per distinct uni/bigram per batch); totals
    N, M are a 2-row groupby over those partials; exact counts come
    from the data-scaled hash-grouped reduce; the surviving bigrams
    join their word marginals through the tfidf-style tiered join
    (broadcast ≤ 2M vocab rows, distributed hash join above); the
    global top-k reduces per-block local-k partials, so the driver
    only ever sees ≤ top_k · blocks candidate rows."""
    import ray

    tok_re = re.compile(TOKEN_RE)

    def _partial(batch: pa.Table) -> pa.Table:
        cnt: dict = {}
        for text in batch["text"].to_pylist():
            toks = tok_re.findall((text or "").lower())
            for g in toks:
                k = (1, g)
                cnt[k] = cnt.get(k, 0) + 1
            for i in range(len(toks) - 1):
                k = (2, toks[i] + " " + toks[i + 1])
                cnt[k] = cnt.get(k, 0) + 1
        ks = list(cnt.keys())
        return pa.table({
            "n": pa.array([k[0] for k in ks], type=pa.int64()),
            "gram": pa.array([k[1] for k in ks], type=pa.string()),
            "c": pa.array([cnt[k] for k in ks], type=pa.int64()),
        })

    partials = _docs(sf_dir, ["text"]).map_batches(
        _partial, batch_format="pyarrow",
        batch_size=batch_size).materialize()
    totals = {int(r["n"]): int(r["sum(c)"])
              for r in partials.groupby("n").sum("c").take_all()}
    n_uni = float(totals.get(1, 0))
    n_bi = float(totals.get(2, 0))

    def _reduce(t: pa.Table) -> pa.Table:
        # safe for the marginals too: c_x >= c_xy, so no surviving
        # bigram ever loses a word marginal to this filter
        return group_agg(t, ["n", "gram"], {"c": ("c", "sum")}).filter(
            pc.field("c") >= min_count)

    merged = hash_grouped_reduce(partials, ["n", "gram"], _reduce,
                                 partials.count(),
                                 out_cols=("n", "gram", "c")).materialize()
    uni = merged.filter(expr="n == 1").map_batches(
        lambda t: pa.table({"w": t["gram"], "wc": t["c"]}),
        batch_format="pyarrow")
    bi = merged.filter(expr="n == 2")

    def _split(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t["gram"], " ")
        return pa.table({
            "x": pc.list_element(parts, 0),
            "y": pc.list_element(parts, 1),
            "pair_count": t["c"],
        })

    bi = bi.map_batches(_split, batch_format="pyarrow")
    if uni.count() <= 2_000_000:
        uref = ray.put(uni.to_pandas())

        def bjoin(df: pd.DataFrame) -> pd.DataFrame:
            u = ray.get(uref)
            df = df.merge(u.rename(columns={"w": "x", "wc": "cx"}), on="x")
            return df.merge(u.rename(columns={"w": "y", "wc": "cy"}), on="y")

        joined = bi.map_batches(bjoin, batch_format="pandas",
                                batch_size=65536)
    else:
        joined = bi.join(uni, "inner", 64, on=("x",), right_on=("w",)) \
                   .map_batches(lambda d: d.rename(columns={"wc": "cx"}),
                                batch_format="pandas") \
                   .join(uni, "inner", 64, on=("y",), right_on=("w",)) \
                   .map_batches(lambda d: d.rename(columns={"wc": "cy"}),
                                batch_format="pandas")

    def _score_localk(df: pd.DataFrame) -> pd.DataFrame:
        c = df["pair_count"].to_numpy(dtype=np.float64)
        cx = df["cx"].to_numpy(dtype=np.float64)
        cy = df["cy"].to_numpy(dtype=np.float64)
        lift = ((c * n_uni) * n_uni) / ((n_bi * cx) * cy)
        out = pd.DataFrame({"x": df["x"], "y": df["y"],
                            "pair_count": df["pair_count"].astype("int64"),
                            "lift": lift})
        return (out.sort_values(["lift", "x", "y"],
                                ascending=[False, True, True],
                                kind="mergesort").head(top_k))

    local = joined.map_batches(_score_localk, batch_format="pandas",
                               batch_size=65536)
    rows = local.sort(["lift", "x", "y"],
                      descending=[True, False, False]) \
                .limit(top_k).take_all()
    return pa.table({
        "x": pa.array([r["x"] for r in rows], type=pa.string()),
        "y": pa.array([r["y"] for r in rows], type=pa.string()),
        "pair_count": pa.array([r["pair_count"] for r in rows],
                               type=pa.int64()),
        "lift": pa.array([r["lift"] for r in rows], type=pa.float64()),
        "rank": pa.array(range(1, len(rows) + 1), type=pa.int64()),
    })


def pmi_collocations_oracle_sql(min_count: int = 5,
                                top_k: int = 100) -> str:
    """DuckDB oracle for :func:`run_pmi_collocations` — independent
    recount with the identical left-associated float64 score tree."""
    return f"""
        WITH toks AS (
            SELECT regexp_extract_all(lower(coalesce(text, '')),
                                      '{TOKEN_RE}') AS w
            FROM documents
        ), uni AS (
            SELECT unnest(w) AS g FROM toks
        ), big AS (
            SELECT unnest([w[i] || ' ' || w[i + 1]
                           for i in generate_series(1, len(w) - 1)]) AS g
            FROM toks WHERE len(w) >= 2
        ), ucnt AS (
            SELECT g, count(*) AS c FROM uni GROUP BY g
        ), bcnt AS (
            SELECT g, count(*) AS c FROM big GROUP BY g
            HAVING count(*) >= {min_count}
        ), nn AS (SELECT CAST(count(*) AS DOUBLE) AS v FROM uni),
           mm AS (SELECT CAST(count(*) AS DOUBLE) AS v FROM big),
        sc AS (
            SELECT string_split(b.g, ' ')[1] AS x,
                   string_split(b.g, ' ')[2] AS y,
                   b.c AS pair_count,
                   ((CAST(b.c AS DOUBLE) * (SELECT v FROM nn))
                        * (SELECT v FROM nn))
                   / (((SELECT v FROM mm) * CAST(ux.c AS DOUBLE))
                        * CAST(uy.c AS DOUBLE)) AS lift
            FROM bcnt b
            JOIN ucnt ux ON string_split(b.g, ' ')[1] = ux.g
            JOIN ucnt uy ON string_split(b.g, ' ')[2] = uy.g
        )
        SELECT x, y, pair_count, lift,
               CAST(row_number() OVER (
                   ORDER BY lift DESC, x ASC, y ASC) AS BIGINT) AS rank
        FROM sc
        QUALIFY rank <= {top_k}
    """


# --------------------------------------------------------------------------
# per-source corpus report card
# --------------------------------------------------------------------------

def run_source_stats(sf_dir: str, batch_size: int = 4096):
    """Per-source corpus report card: document count, word-token
    total, character total and distinct-language count — the rollup a
    corpus build prints per domain / crawl slice before making mixing
    decisions (what dude's per-run log lines would aggregate to,
    /root/reference/dude/base.py:366,370).

    Scale shape: per-batch (source, lang) partials — one row per
    source×lang per batch, bounded by slice cardinality, never corpus
    size — merge through the data-scaled hash-grouped reduce; the
    final per-source rollup groups the tiny merged table.  Corpus
    text never shuffles, and every output is an exact int64, so the
    SQL oracle hash-matches with no rounding contract."""
    from dude_ray.partitioning import parquet_row_groups

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = (df["text"].fillna("").str.findall(TOKEN_RE)
                .str.len().astype("int64"))
        g = (pd.DataFrame({"source": df["source"], "lang": df["lang"],
                           "docs": np.ones(len(df), dtype=np.int64),
                           "toks": toks,
                           "chars": df["n_chars"].astype("int64")})
             .groupby(["source", "lang"], sort=False)
             .sum().reset_index())
        return g

    partials = _docs(sf_dir, ["source", "lang", "text", "n_chars"]).map_batches(
        _partial, batch_format="pandas", batch_size=batch_size)
    n_rows = sum(n for _f, _rg, n in
                 parquet_row_groups(f"{sf_dir}/documents.parquet"))

    merged = hash_grouped_reduce(
        partials, ["source", "lang"],
        lambda t: group_agg(t, ["source", "lang"],
                            {c: (c, "sum") for c in ("docs", "toks",
                                                     "chars")}),
        n_rows,
        out_cols=("source", "lang", "docs", "toks", "chars"))

    def _rollup(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "source": [g["source"].iloc[0]],
            "n_docs": pd.Series([int(g["docs"].sum())], dtype="int64"),
            "n_tokens": pd.Series([int(g["toks"].sum())], dtype="int64"),
            "n_chars": pd.Series([int(g["chars"].sum())], dtype="int64"),
            "n_langs": pd.Series([g["lang"].nunique()], dtype="int64"),
        })

    return merged.groupby("source").map_groups(_rollup, batch_format="pandas")


def source_stats_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_source_stats`."""
    return f"""
        SELECT source,
               CAST(count(*) AS BIGINT) AS n_docs,
               CAST(sum(len(regexp_extract_all(coalesce(text, ''),
                                               '{TOKEN_RE}'))) AS BIGINT)
                   AS n_tokens,
               CAST(sum(n_chars) AS BIGINT) AS n_chars,
               CAST(count(DISTINCT lang) AS BIGINT) AS n_langs
        FROM documents GROUP BY source
    """


# --------------------------------------------------------------------------
# readability (Flesch reading ease, deterministic syllable heuristic)
# --------------------------------------------------------------------------

VOWEL_RE = r"[aeiouy]+"
SENT_RE = r"[.!?]+"


def run_readability(sf_dir: str, batch_size: int = 4096):
    """Flesch reading ease per document with a deterministic
    vowel-group syllable heuristic: a word's syllable count is
    max(#[aeiouy]+ runs, 1) and sentences are max(#[.!?]+ runs, 1) —
    the classic quality/complexity signal corpus filters bucket on.

    Cross-engine exactness: the three counts are exact int64; the
    score is computed with the SAME float64 expression tree on both
    engines — ``206.835 - 1.015·(words/sentences) -
    84.6·(syllables/max(words,1))``, left-associated — so IEEE
    determinism makes the doubles bit-identical with no rounding
    contract (the pmi_collocations / priority_sample precedent).
    One corpus scan, no shuffle."""
    tok_re = re.compile(TOKEN_RE)
    vow_re = re.compile(VOWEL_RE)
    sent_re = re.compile(SENT_RE)

    def _batch(batch: pa.Table) -> pa.Table:
        nw_out, ns_out, sy_out, fl_out = [], [], [], []
        for text in batch["text"].to_pylist():
            t = (text or "").lower()
            words = tok_re.findall(t)
            nw = len(words)
            ns = max(len(sent_re.findall(t)), 1)
            sy = 0
            for wd in words:
                sy += max(len(vow_re.findall(wd)), 1)
            fl = 206.835 - 1.015 * (nw / ns) - 84.6 * (sy / max(nw, 1))
            nw_out.append(nw)
            ns_out.append(ns)
            sy_out.append(sy)
            fl_out.append(fl)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_words": pa.array(nw_out, type=pa.int64()),
            "n_sentences": pa.array(ns_out, type=pa.int64()),
            "n_syllables": pa.array(sy_out, type=pa.int64()),
            "flesch": pa.array(fl_out, type=pa.float64()),
        })

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        _batch, batch_format="pyarrow", batch_size=batch_size)


def readability_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_readability` — independent
    tokenize + the identical left-associated float64 expression."""
    return f"""
        WITH c AS (
            SELECT doc_id,
                   regexp_extract_all(lower(coalesce(text, '')),
                                      '{TOKEN_RE}') AS w,
                   greatest(len(regexp_extract_all(
                       lower(coalesce(text, '')), '{SENT_RE}')), 1) AS ns
            FROM documents
        ), k AS (
            SELECT doc_id,
                   CAST(len(w) AS BIGINT) AS n_words,
                   CAST(ns AS BIGINT) AS n_sentences,
                   CAST(list_sum(list_transform(w, x ->
                       greatest(len(regexp_extract_all(x, '{VOWEL_RE}')),
                                1))) AS BIGINT) AS n_syllables
            FROM c
        )
        SELECT doc_id, n_words, n_sentences,
               coalesce(n_syllables, 0) AS n_syllables,
               206.835
                   - 1.015 * (CAST(n_words AS DOUBLE) / n_sentences)
                   - 84.6 * (CAST(coalesce(n_syllables, 0) AS DOUBLE)
                             / greatest(n_words, 1)) AS flesch
        FROM k
    """


# --------------------------------------------------------------------------
# exact phrase search
# --------------------------------------------------------------------------

def run_phrase_search(sf_dir: str, phrase: tuple = ("table", "hash"),
                      batch_size: int = 4096):
    """Exact consecutive-token phrase occurrence counts: every
    document containing the phrase, with its match count — the batch
    side of a phrase query.

    Scale shape: phrase adjacency is a PER-DOCUMENT property, so the
    corpus scans once with zero shuffle (numpy shifted-equality over
    the token array — no Python position loop).  The interactive
    variant composes term_postings (probe the positional index, join
    term_i postings on doc_id and pos+i); batch-over-corpus is
    strictly cheaper as a single scan.  Integer output → the SQL
    oracle hash-matches with no rounding contract."""
    tok_re = re.compile(TOKEN_RE)
    ph = tuple(w.lower() for w in phrase)

    def _batch(batch: pa.Table) -> pa.Table:
        ids, ns = [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(),
                                batch["text"].to_pylist()):
            toks = np.asarray(tok_re.findall((text or "").lower()),
                              dtype=object)
            k = len(ph)
            if len(toks) < k:
                continue
            mask = toks[: len(toks) - k + 1] == ph[0]
            for i in range(1, k):
                mask = mask & (toks[i: len(toks) - k + 1 + i] == ph[i])
            n = int(mask.sum())
            if n:
                ids.append(doc_id)
                ns.append(n)
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "n_matches": pa.array(ns, type=pa.int64()),
        })

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        _batch, batch_format="pyarrow", batch_size=batch_size)


def phrase_search_oracle_sql(phrase: tuple = ("table", "hash")) -> str:
    """DuckDB oracle for :func:`run_phrase_search` — k-gram list
    construction + equality count."""
    ph = [w.lower() for w in phrase]
    k = len(ph)
    gram = " || ' ' || ".join(f"w[i+{j}]" for j in range(k))
    target = " ".join(ph)
    return f"""
        WITH toks AS (
            SELECT doc_id,
                   regexp_extract_all(lower(coalesce(text, '')),
                                      '{TOKEN_RE}') AS w
            FROM documents
        ), g AS (
            SELECT doc_id,
                   [{gram} for i in
                    generate_series(1, greatest(len(w) - {k - 1}, 0))] AS gs
            FROM toks
        )
        SELECT doc_id,
               CAST(len(list_filter(gs, x -> x = '{target}')) AS BIGINT)
                   AS n_matches
        FROM g
        WHERE len(list_filter(gs, x -> x = '{target}')) > 0
    """


# --------------------------------------------------------------------------
# n-gram containment decontamination (GPT-3 appendix C / PaLM style)
# --------------------------------------------------------------------------

CONTAM_MOD = 97
CONTAM_N = 5


def _benchmark_grams(sf_dir: str) -> list:
    """Distinct word-5-grams of the deterministic stand-in benchmark
    slice (doc_id % CONTAM_MOD == 0).  In production the benchmark is
    a FIXED eval corpus (megabytes, independent of corpus size) so the
    driver-side set is bounded; here it derives from the input table
    so the oracle reproduces it in SQL.  Only distinct gram strings of
    the matching slice reach the driver — the filter and gram
    extraction run distributed."""

    def grams(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch["doc_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        kept = batch.filter(pa.array(ids % CONTAM_MOD == 0))
        tok_re = re.compile(TOKEN_RE)
        out = set()
        for text in kept["text"].to_pylist():
            w = tok_re.findall((text or "").lower())
            out.update(" ".join(w[i:i + CONTAM_N])
                       for i in range(len(w) - CONTAM_N + 1))
        return pa.table({"g": pa.array(sorted(out), type=pa.string())})

    rows = (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(grams, batch_format="pyarrow", batch_size=8192)
            .take_all())
    return sorted({r["g"] for r in rows})


def run_contamination_overlap(sf_dir: str):
    """Per-document n-gram containment against a benchmark gram set —
    the GPT-3 appendix-C / PaLM decontamination statistic (fraction of
    a document's distinct word n-grams that appear in any eval
    benchmark; docs above the overlap threshold are dropped from
    training).  Output: (doc_id, n_grams, hit_grams, contaminated =
    hit_grams·8 ≥ n_grams ∧ n_grams > 0) — the 1/8 threshold kept as
    an exact integer cross-multiply so no float enters the contract.

    Complements `decontaminate` (verbatim-substring semi-join): the
    gram-containment form catches paraphrased / partially-copied eval
    leakage that exact substring match misses.

    Scale shape: the benchmark gram set broadcasts once via ray.put
    (eval corpora are MBs); ONE corpus scan probes it per batch in a
    task stage — no shuffle anywhere."""
    import ray

    ref = ray.put(frozenset(_benchmark_grams(sf_dir)))
    tok_re = re.compile(TOKEN_RE)

    def score(batch: pa.Table) -> pa.Table:
        bench = ray.get(ref)
        n_out, h_out, c_out = [], [], []
        for text in batch["text"].to_pylist():
            w = tok_re.findall((text or "").lower())
            gs = {" ".join(w[i:i + CONTAM_N])
                  for i in range(len(w) - CONTAM_N + 1)}
            n = len(gs)
            hits = sum(1 for g in gs if g in bench)
            n_out.append(n)
            h_out.append(hits)
            c_out.append(hits * 8 >= n and n > 0)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_grams": pa.array(n_out, type=pa.int64()),
            "hit_grams": pa.array(h_out, type=pa.int64()),
            "contaminated": pa.array(c_out, type=pa.bool_()),
        })

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow", batch_size=4096)


def contamination_overlap_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_contamination_overlap` —
    independent gram lists + list_intersect against the same slice."""
    return f"""
        WITH toks AS (
            SELECT doc_id,
                   regexp_extract_all(lower(coalesce(text, '')),
                                      '{TOKEN_RE}') AS w
            FROM documents
        ), g AS (
            SELECT doc_id,
                   list_distinct([array_to_string(w[i:i+{CONTAM_N - 1}], ' ')
                                  for i in generate_series(
                                      1, greatest(len(w) - {CONTAM_N - 1},
                                                  0))]) AS gs
            FROM toks
        ), bench AS (
            SELECT list(DISTINCT bg) AS bl
            FROM (SELECT unnest(gs) AS bg FROM g
                  WHERE doc_id % {CONTAM_MOD} = 0)
        )
        SELECT doc_id,
               CAST(len(gs) AS BIGINT) AS n_grams,
               CAST(len(list_intersect(gs, bl)) AS BIGINT) AS hit_grams,
               len(list_intersect(gs, bl)) * 8 >= len(gs) AND len(gs) > 0
                   AS contaminated
        FROM g CROSS JOIN bench
    """


# --------------------------------------------------------------------------
# hashing-trick feature vectors (the sparse text-featurization primitive)
# --------------------------------------------------------------------------

HASH_FEATURE_DIMS = 256


class HashFeaturizer:
    """Hashing-trick featurizer: every whitespace token of the
    lowercased text maps to feature ``md5_top8(token) % dims`` and the
    doc's sparse vector is the per-feature token count — the
    vocabulary-free featurization a linear quality model or LSH
    front-end consumes (Weinberger et al. 2009 feature hashing).

    Memo exactly like dedup's Shingler, per task copy (it is passed as
    an instance): web vocabularies repeat heavily, so md5 runs only on
    cache miss; the
    per-doc count is one vectorized ``np.bincount`` over the hash
    array.  md5-top-8 keeps the DuckDB oracle able to reproduce every
    feature id bit-for-bit (the minhash_oracle_sql hex-fold)."""

    def __init__(self, dims: int = HASH_FEATURE_DIMS):
        self.dims = dims
        self._cache: dict[str, int] = {}

    def _tok_hashes(self, toks: list[str]) -> np.ndarray:
        c = self._cache
        out = np.empty(len(toks), dtype=np.uint64)
        for i, t in enumerate(toks):
            h = c.get(t)
            if h is None:
                h = int.from_bytes(
                    hashlib.md5(t.encode()).digest()[:8], "big")
                if len(c) < 1_000_000:
                    c[t] = h
            out[i] = h
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, feats, counts = [], [], []
        for did, t in zip(batch["doc_id"].to_pylist(),
                          batch["text"].to_pylist()):
            toks = (t or "").lower().split()
            if not toks:
                continue
            f = (self._tok_hashes(toks) % np.uint64(self.dims)).astype(
                np.int64)
            cnt = np.bincount(f, minlength=self.dims)
            nz = np.nonzero(cnt)[0]
            ids.append(np.full(len(nz), did, dtype=np.int64))
            feats.append(nz.astype(np.int64))
            counts.append(cnt[nz].astype(np.int64))
        if not ids:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "feature_idx": pa.array([], type=pa.int64()),
                             "n_tokens": pa.array([], type=pa.int64())})
        return pa.table({
            "doc_id": pa.array(np.concatenate(ids)),
            "feature_idx": pa.array(np.concatenate(feats)),
            "n_tokens": pa.array(np.concatenate(counts)),
        })


def run_hash_features(sf_dir: str, dims: int = HASH_FEATURE_DIMS):
    """documents → sparse hashed feature triples
    (doc_id, feature_idx, n_tokens), sorted.  One corpus scan; output
    is ≤ min(dims, doc_tokens) rows per doc."""
    return (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(HashFeaturizer(dims), batch_format="pyarrow",
                         batch_size=2048)
            .sort(["doc_id", "feature_idx"]))


def hash_features_oracle_sql(dims: int = HASH_FEATURE_DIMS) -> str:
    """DuckDB oracle for :func:`run_hash_features` — the
    minhash_oracle_sql md5 hex-fold reproduces every token hash
    bit-for-bit; feature id is the UBIGINT modulo."""
    h16 = ("CAST(list_sum([CAST(strpos('0123456789abcdef', m[i]) - 1 "
           "AS UBIGINT) * (CAST(1 AS UBIGINT) << CAST(4*(16 - i) "
           "AS INTEGER)) for i in generate_series(1, 16)]) AS UBIGINT)")
    return f"""
        WITH toks AS (
          SELECT doc_id, list_filter(
                   regexp_split_to_array(lower(coalesce(text, '')),
                                         '\\s+'),
                   x -> x <> '') AS w
          FROM documents
        ), tokrows AS (
          SELECT doc_id, unnest(w) AS t FROM toks
        ), th AS (
          SELECT doc_id,
                 (SELECT {h16} FROM
                  (SELECT string_split(substr(md5(t), 1, 16), '') AS m))
                     AS h
          FROM tokrows
        )
        SELECT doc_id,
               CAST(h % {dims} AS BIGINT) AS feature_idx,
               count(*) AS n_tokens
        FROM th
        GROUP BY doc_id, feature_idx
        ORDER BY doc_id, feature_idx
    """


# --------------------------------------------------------------------------
# vocabulary coverage / OOV rate per document
# --------------------------------------------------------------------------

def run_vocab_coverage(sf_dir: str, min_count: int = 5,
                       batch_size: int = 4096):
    """Per-document out-of-vocabulary rate against a corpus-derived
    vocabulary (tokens with global count ≥ ``min_count``) — the
    tokenizer-fit statistic used to spot domain shift before training.

    Plan (the 100 TB shape): scan 1 emits pre-counted (token, c)
    partials into the data-scaled hash reduce; the surviving vocab
    broadcasts as ONE sorted array (`ray.put`, read per batch — the
    tfidf tiered-join precedent applies past ~2M entries).  Scan 2 is
    fully vectorized: each batch flattens its tokens into one array
    with doc offsets, membership is a single searchsorted against the
    broadcast vocab, and per-doc OOV counts fall out of one
    ``np.add.reduceat`` — no per-token Python.  Zero-token documents
    are excluded (both engines).

    Float contract: ``oov_rate = n_oov / n_tokens`` is one IEEE
    division of exact int64 counts — bit-identical, no rounding."""
    import ray

    tok_re = re.compile(TOKEN_RE)

    def _counts(batch: pa.Table) -> pa.Table:
        cnt: dict = {}
        for text in batch["text"].to_pylist():
            for t in tok_re.findall((text or "").lower()):
                cnt[t] = cnt.get(t, 0) + 1
        return pa.table({
            "t": pa.array(list(cnt.keys()), type=pa.string()),
            "c": pa.array(list(cnt.values()), type=pa.int64()),
        })

    def _reduce(t: pa.Table) -> pa.Table:
        return group_agg(t, "t", {"c": ("c", "sum")}).filter(
            pc.field("c") >= min_count)

    ds = _docs(sf_dir, ["doc_id", "text"])
    partials = ds.map_batches(_counts, batch_format="pyarrow",
                              batch_size=batch_size)
    vocab_tbl = hash_grouped_reduce(
        partials, "t", _reduce, partials.count(),
        out_cols=("t", "c")).to_pandas()
    vocab_ref = ray.put(np.sort(vocab_tbl["t"].to_numpy(dtype=object)
                                .astype(str)))

    def coverage(batch: pa.Table) -> pa.Table:
        vocab = ray.get(vocab_ref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        texts = batch["text"].to_pylist()
        toks_per_doc = [tok_re.findall((t or "").lower())
                        for t in texts]
        lens = np.array([len(t) for t in toks_per_doc],
                        dtype=np.int64)
        keep = lens > 0
        flat = np.array([t for toks in toks_per_doc for t in toks],
                        dtype=object).astype(str) \
            if lens.sum() else np.empty(0, dtype=str)
        if len(vocab):
            pos = np.minimum(np.searchsorted(vocab, flat),
                             len(vocab) - 1)
            oov_flags = (vocab[pos] != flat).astype(np.int64)
        else:
            oov_flags = np.ones(len(flat), dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
        n_oov = (np.add.reduceat(oov_flags, offsets[keep])
                 if keep.any() else np.empty(0, dtype=np.int64))
        n_tok = lens[keep]
        return pa.table({
            "doc_id": pa.array(ids[keep], type=pa.int64()),
            "n_tokens": pa.array(n_tok, type=pa.int64()),
            "n_oov": pa.array(n_oov, type=pa.int64()),
            "oov_rate": pa.array(n_oov / n_tok, type=pa.float64()),
        })

    return ds.map_batches(coverage, batch_format="pyarrow",
                          batch_size=batch_size)


def vocab_coverage_oracle_sql(min_count: int = 5) -> str:
    """DuckDB oracle for :func:`run_vocab_coverage` (explode + HAVING
    vocab + LEFT JOIN membership; same TOKEN_RE contract as
    :func:`ngram_counts_oracle_sql`)."""
    return f"""
        WITH toks AS (
            SELECT doc_id,
                   regexp_extract_all(lower(coalesce(text, '')),
                                      '{TOKEN_RE}') AS w
            FROM documents
        ), tok AS (
            SELECT doc_id, unnest(w) AS t FROM toks
        ), vocab AS (
            SELECT t FROM tok GROUP BY t
            HAVING count(*) >= {min_count}
        )
        SELECT tok.doc_id, count(*) AS n_tokens,
               CAST(sum(CASE WHEN v.t IS NULL THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_oov,
               CAST(sum(CASE WHEN v.t IS NULL THEN 1 ELSE 0 END)
                    AS DOUBLE) / count(*) AS oov_rate
        FROM tok LEFT JOIN vocab v ON tok.t = v.t
        GROUP BY tok.doc_id
    """


# --------------------------------------------------------------------------
# vocabulary coverage curve (corpus share of the top-k vocab)
# --------------------------------------------------------------------------

def run_coverage_curve(sf_dir: str, ks=(100, 1000, 10000),
                       batch_size: int = 4096):
    """For each vocabulary budget k: how much of the corpus token
    stream the top-k tokens cover — the Zipf curve that sizes a
    tokenizer's vocab before training one.

    Plan (the 100 TB shape): ONE scan emits pre-counted (token, c)
    partials into the data-scaled hash reduce (the
    :func:`run_vocab_coverage` stage 1); the total token count is an
    exact int64 tree-sum of the same partials; the count table then
    sorts ONCE distributed (desc count, asc token — deterministic
    ties) and each budget is a ``limit(k)`` stream over the sorted
    prefix, never a full-vocab collect.

    Float contract: ``share = covered / total`` is one IEEE division
    of exact int64 sums."""

    tok_re = re.compile(TOKEN_RE)

    def _counts(batch: pa.Table) -> pa.Table:
        cnt: dict = {}
        for text in batch["text"].to_pylist():
            for t in tok_re.findall((text or "").lower()):
                cnt[t] = cnt.get(t, 0) + 1
        return pa.table({
            "t": pa.array(list(cnt.keys()), type=pa.string()),
            "c": pa.array(list(cnt.values()), type=pa.int64()),
        })

    ds = _docs(sf_dir, ["text"])
    partials = ds.map_batches(_counts, batch_format="pyarrow",
                              batch_size=batch_size)
    vocab = hash_grouped_reduce(partials, "t",
                                lambda t: group_agg(t, "t",
                                                    {"c": ("c", "sum")}),
                                partials.count(),
                                out_cols=("t", "c")).materialize()
    total = int(vocab.map_batches(
        lambda t: pa.table({"s": pa.array(
            [pc.sum(t["c"]).as_py() or 0], type=pa.int64())}),
        batch_format="pyarrow").sum("s"))
    ranked = vocab.sort(["c", "t"], descending=[True, False])

    rows = []
    for k in sorted(ks):
        covered = int(ranked.limit(k).sum("c") or 0)
        rows.append((int(k), covered))
    return pa.table({
        "k": pa.array([r[0] for r in rows], type=pa.int64()),
        "covered": pa.array([r[1] for r in rows], type=pa.int64()),
        "total": pa.array([total] * len(rows), type=pa.int64()),
        "share": pa.array([r[1] / total for r in rows],
                          type=pa.float64()),
    })


def coverage_curve_oracle_sql(ks=(100, 1000, 10000)) -> str:
    """DuckDB oracle for :func:`run_coverage_curve` (explode + count +
    per-budget ranked prefix sums; same TOKEN_RE contract)."""
    ks_sql = ", ".join(str(int(k)) for k in sorted(ks))
    return f"""
        WITH toks AS (
            SELECT regexp_extract_all(lower(coalesce(text, '')),
                                      '{TOKEN_RE}') AS w
            FROM documents
        ), tok AS (
            SELECT unnest(w) AS t FROM toks
        ), cnt AS (
            SELECT t, count(*) AS c,
                   row_number() OVER (ORDER BY count(*) DESC, t ASC)
                       AS rnk
            FROM tok GROUP BY t
        ), tot AS (SELECT count(*) AS total FROM tok)
        SELECT k, CAST(covered AS BIGINT) AS covered,
               CAST(total AS BIGINT) AS total,
               CAST(covered AS DOUBLE) / total AS share
        FROM (
            SELECT k.k, sum(CASE WHEN cnt.rnk <= k.k THEN cnt.c
                                 ELSE 0 END) AS covered
            FROM (SELECT unnest([{ks_sql}]) AS k) k, cnt
            GROUP BY k.k
        ) s, tot
        ORDER BY k
    """


# --------------------------------------------------------------------------
# source similarity (pairwise cosine of per-source term-count vectors)
# --------------------------------------------------------------------------

def run_source_similarity(sf_dir: str,
                          target_rows_per_group: int = 65536):
    """Pairwise cosine similarity between every two sources' unigram
    count vectors — the corpus-drift / source-overlap matrix a data
    curator reads before mixing sources into a training run.

    Plan (the 100 TB shape): per-batch (source, term, c) count
    partials feed ONE data-scaled hash reduce keyed on ``term`` (all
    counts for a term co-locate); inside each group the cross products
    ``c_a * c_b`` for co-occurring source pairs and the ``c²`` norm
    partials are emitted as constant-width int64 rows, so the final
    tree_combine sees only #pairs × #groups rows — never one row per
    token and never an n²-documents comparison.  With k sources the
    result is k·(k−1)/2 rows regardless of corpus size.

    Float contract: ``dot`` and the norms are exact int64 sums (token
    counts fit: c ≤ 2³¹ per (source, term) keeps every product < 2⁶²);
    cosine derives via the SAME float64 expression tree on both
    engines — ``(dot * 1.0) / sqrt((n2_a * 1.0) * n2_b)`` — so the
    doubles are bit-identical with no rounding contract."""
    from dude_ray.pipelines.relational import tree_combine

    tok_re = re.compile(TOKEN_RE)

    def _partial(batch: pa.Table) -> pa.Table:
        cnt: dict = {}
        srcs = batch["source"].to_pylist()
        for src, text in zip(srcs, batch["text"].to_pylist()):
            for t in tok_re.findall((text or "").lower()):
                k = (src, t)
                cnt[k] = cnt.get(k, 0) + 1
        ss, ts, cs = [], [], []
        for (src, t), c in cnt.items():
            ss.append(src)
            ts.append(t)
            cs.append(c)
        return pa.table({
            "source": pa.array(ss, type=pa.string()),
            "term": pa.array(ts, type=pa.string()),
            "c": pa.array(cs, type=pa.int64()),
        })

    def _cross(t: pa.Table) -> pa.Table:
        cnt = group_agg(t, ["term", "source"],
                        {"c": ("c", "sum")}).to_pandas()
        # norm partials ride along as diagonal (src, src) rows
        norm = (cnt.assign(v=cnt["c"].to_numpy() ** 2)
                .groupby("source", sort=False)["v"].sum().reset_index())
        norm["src_a"] = norm["source"]
        norm["src_b"] = norm["source"]
        m = cnt.merge(cnt, on="term")
        m = m[m["source_x"] < m["source_y"]]
        dots = (m.assign(v=m["c_x"].to_numpy() * m["c_y"].to_numpy())
                .groupby(["source_x", "source_y"], sort=False)["v"]
                .sum().reset_index()
                .rename(columns={"source_x": "src_a",
                                 "source_y": "src_b"}))
        out = pd.concat([dots[["src_a", "src_b", "v"]],
                         norm[["src_a", "src_b", "v"]]],
                        ignore_index=True)
        return pa.Table.from_pandas(out.astype({"v": "int64"}),
                                    preserve_index=False)

    ds = _docs(sf_dir, ["source", "text"])
    partials = ds.map_batches(_partial, batch_format="pyarrow",
                              batch_size=1024)
    pairs = hash_grouped_reduce(
        partials, "term", _cross, partials.count(),
        target_rows_per_group=target_rows_per_group,
        out_cols=("src_a", "src_b", "v"))
    out = tree_combine(pairs, ["src_a", "src_b"], sums=("v",))

    def finalize(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        diag = df["src_a"] == df["src_b"]
        n2 = dict(zip(df.loc[diag, "src_a"], df.loc[diag, "v"]))
        od = df.loc[~diag].sort_values(
            ["src_a", "src_b"], kind="mergesort")
        dot = od["v"].to_numpy(dtype=np.int64)
        n2a = od["src_a"].map(n2).to_numpy(dtype=np.int64)
        n2b = od["src_b"].map(n2).to_numpy(dtype=np.int64)
        cos = (dot * 1.0) / np.sqrt((n2a * 1.0) * n2b)
        return pa.table({
            "src_a": pa.array(od["src_a"], type=pa.string()),
            "src_b": pa.array(od["src_b"], type=pa.string()),
            "dot": pa.array(dot, type=pa.int64()),
            "cosine": pa.array(cos, type=pa.float64()),
        })

    # k·(k−1)/2 + k rows total — one block by construction
    return (out.repartition(1)
            .map_batches(finalize, batch_format="pyarrow",
                         batch_size=None)
            .sort(["src_a", "src_b"]))


def source_similarity_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_source_similarity` (same TOKEN_RE
    contract; exact int64 dot/norms, identical float64 cosine tree)."""
    return f"""
        WITH tok AS (
            SELECT source,
                   unnest(regexp_extract_all(lower(coalesce(text, '')),
                                             '{TOKEN_RE}')) AS term
            FROM documents
        ), cnt AS (
            SELECT source, term, count(*) AS c FROM tok GROUP BY 1, 2
        ), norm AS (
            SELECT source, CAST(sum(c * c) AS BIGINT) AS n2
            FROM cnt GROUP BY 1
        ), dots AS (
            SELECT a.source AS src_a, b.source AS src_b,
                   CAST(sum(a.c * b.c) AS BIGINT) AS dot
            FROM cnt a JOIN cnt b
              ON a.term = b.term AND a.source < b.source
            GROUP BY 1, 2
        )
        SELECT d.src_a, d.src_b, d.dot,
               (d.dot * 1.0) / sqrt((na.n2 * 1.0) * nb.n2) AS cosine
        FROM dots d
        JOIN norm na ON na.source = d.src_a
        JOIN norm nb ON nb.source = d.src_b
        ORDER BY d.src_a, d.src_b
    """


# --------------------------------------------------------------------------
# skip-gram pair counts (word2vec-style window co-occurrence)
# --------------------------------------------------------------------------

def run_skipgram_counts(sf_dir: str, window: int = 3,
                        min_count: int = 5, top_per_d: int = 100,
                        batch_size: int = 4096):
    """Ordered (left, right) token-pair counts at each distance
    d = 1..``window`` over the lowered corpus — the co-occurrence
    statistic behind word2vec/GloVe-style embedding training — as the
    top ``top_per_d`` pairs per distance with ``cnt >= min_count``.

    Scale shape mirrors :func:`run_ngram_counts`: per-batch dict
    pre-aggregation emits one (d, pair, c) row per DISTINCT pair per
    batch, the data-scaled hash reduce co-locates a pair's partials
    (so the min_count gate is exact), and the final per-d top-k sorts
    only survivors.  All counts int64 — no float contract."""

    tok_re = re.compile(TOKEN_RE)

    def _partial(batch: pa.Table) -> pa.Table:
        cnt: dict = {}
        for text in batch["text"].to_pylist():
            toks = tok_re.findall((text or "").lower())
            for d in range(1, window + 1):
                for i in range(len(toks) - d):
                    k = (d, toks[i] + " " + toks[i + d])
                    cnt[k] = cnt.get(k, 0) + 1
        ds_, ps, cs = [], [], []
        for (d, p), c in cnt.items():
            ds_.append(d)
            ps.append(p)
            cs.append(c)
        return pa.table({
            "d": pa.array(ds_, type=pa.int64()),
            "pair": pa.array(ps, type=pa.string()),
            "c": pa.array(cs, type=pa.int64()),
        })

    def _reduce(t: pa.Table) -> pa.Table:
        return group_agg(t, ["d", "pair"], {"c": ("c", "sum")}).filter(
            pc.field("c") >= min_count)

    ds = _docs(sf_dir, ["text"])
    partials = ds.map_batches(_partial, batch_format="pyarrow",
                              batch_size=batch_size)
    merged = hash_grouped_reduce(partials, ["d", "pair"], _reduce,
                                 partials.count(),
                                 out_cols=("d", "pair", "c"))

    def _top(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.sort_values(["c", "pair"], ascending=[False, True])
             .head(top_per_d).reset_index(drop=True))
        return pd.DataFrame({
            "d": g["d"].astype("int64"),
            "pair": g["pair"],
            "cnt": g["c"].astype("int64"),
            "rank": pd.Series(range(1, len(g) + 1), dtype="int64"),
        })

    return merged.groupby("d").map_groups(_top, batch_format="pandas")


def skipgram_counts_oracle_sql(window: int = 3, min_count: int = 5,
                               top_per_d: int = 100) -> str:
    """DuckDB oracle for :func:`run_skipgram_counts` — independent
    distance-d pair explode + count + per-d ranking (same TOKEN_RE
    contract as the n-gram oracle)."""
    gs = []
    for d in range(1, window + 1):
        gs.append(
            f"SELECT {d} AS d, unnest([w[i] || ' ' || w[i + {d}] "
            f"for i in generate_series(1, len(w) - {d})]) AS pair "
            f"FROM toks WHERE len(w) > {d}")
    union = " UNION ALL ".join(gs)
    return f"""
        WITH toks AS (
            SELECT regexp_extract_all(lower(coalesce(text, '')),
                                      '{TOKEN_RE}') AS w
            FROM documents
        ), cnt AS (
            SELECT d, pair, count(*) AS cnt
            FROM ({union}) GROUP BY 1, 2
        )
        SELECT CAST(d AS BIGINT) AS d, pair,
               CAST(cnt AS BIGINT) AS cnt,
               CAST(row_number() OVER (
                   PARTITION BY d
                   ORDER BY cnt DESC, pair ASC) AS BIGINT) AS rank
        FROM cnt WHERE cnt >= {min_count}
        QUALIFY rank <= {top_per_d}
    """


# --------------------------------------------------------------------------
# language-ID confusion matrix (labeled lang vs predicted lang)
# --------------------------------------------------------------------------

def run_lang_confusion(sf_dir: str):
    """Confusion matrix of the corpus's labeled ``lang`` column vs the
    marker-word language-ID prediction — (lang, pred_lang, n_docs) —
    the eval table a curator reads before trusting the classifier to
    gate a training mix.

    Scale shape: the LangId kernel scores each batch, a
    per-batch group_by pre-counts the (label, prediction) cells, and
    tree_combine merges the ≤ |langs|² cell partials — no per-doc row
    leaves the scoring stage.  All counts int64."""
    from dude_ray.pipelines.relational import tree_combine

    scorer = LangId()

    def _cells(batch: pa.Table) -> pa.Table:
        pred = scorer(batch.select(["doc_id", "text"]))
        t = pa.table({
            "lang": batch["lang"],
            "pred_lang": pred["pred_lang"],
        })
        g = t.group_by(["lang", "pred_lang"]).aggregate(
            [([], "count_all")])
        return pa.table({
            "lang": g["lang"],
            "pred_lang": g["pred_lang"],
            "n_docs": pc.cast(g["count_all"], pa.int64()),
        })

    partials = _docs(sf_dir, ["doc_id", "text", "lang"]).map_batches(
        _cells, batch_format="pyarrow", batch_size=4096)
    return (tree_combine(partials, ["lang", "pred_lang"],
                         sums=("n_docs",))
            .sort(["lang", "pred_lang"]))


def lang_confusion_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_lang_confusion` (the LANG_ID
    marker-regex prediction joined against the labeled column)."""
    return f"""
        WITH pred AS ({LANG_ID_ORACLE_SQL})
        SELECT d.lang, p.pred_lang,
               CAST(count(*) AS BIGINT) AS n_docs
        FROM documents d JOIN pred p ON p.doc_id = d.doc_id
        GROUP BY 1, 2 ORDER BY 1, 2
    """


# --------------------------------------------------------------------------
# Zipf's-law fit (log-count vs log-rank OLS over the term table)
# --------------------------------------------------------------------------

def run_zipf_fit(sf_dir: str, top_k: int = 500, min_count: int = 2,
                 batch_size: int = 4096):
    """Zipf's-law fit of the corpus unigram distribution: OLS of
    ``ln(count)`` on ``ln(rank)`` over the ``top_k`` most frequent
    terms — one row (n_terms, slope, intercept, r2).  A natural
    corpus is near ``slope = −1``; a strongly deviating slope or a
    low r² flags template/boilerplate-dominated or synthetic text —
    a cheap corpus-health gate before training.

    Plan (the 100 TB shape): per-batch pre-counted (term, c) partials
    feed the data-scaled hash-grouped reduce (one row per DISTINCT
    term per batch shuffles, never one per occurrence); each reduced
    block then emits only its local top-``top_k`` rows, so the final
    single task sees ≤ blocks·top_k candidates — the global term
    table never converges on one process.  Ranks are assigned there
    by (count DESC, term ASC), deterministic under ties.

    Float contract: x = ln(rank), y = ln(count) on exact int64
    inputs; the five OLS sums run over ≤ ``top_k`` O(10)-magnitude
    doubles, so cross-engine reassociation drift is ≲1e-10 — well
    below the 6-dp rounding quantum (the same drift argument as
    ``components.run_host_rank``); slope/intercept/r² share one IEEE
    expression tree with the oracle."""

    tok_re = re.compile(TOKEN_RE)

    def _counts(batch: pa.Table) -> pa.Table:
        cnt: dict = {}
        for text in batch["text"].to_pylist():
            for t in tok_re.findall((text or "").lower()):
                cnt[t] = cnt.get(t, 0) + 1
        return pa.table({
            "t": pa.array(list(cnt.keys()), type=pa.string()),
            "c": pa.array(list(cnt.values()), type=pa.int64()),
        })

    def _reduce(t: pa.Table) -> pa.Table:
        return group_agg(t, "t", {"c": ("c", "sum")}).filter(
            pc.field("c") >= min_count)

    ds = _docs(sf_dir, ["doc_id", "text"])
    partials = ds.map_batches(_counts, batch_format="pyarrow",
                              batch_size=batch_size)
    vocab = hash_grouped_reduce(partials, "t", _reduce,
                                partials.count(), out_cols=("t", "c"))

    def _local_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["c", "t"],
                              ascending=[False, True]).head(top_k)

    cand = vocab.map_batches(_local_topk, batch_format="pandas",
                             batch_size=None)

    def _fit(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["c", "t"],
                            ascending=[False, True]).head(top_k)
        c = df["c"].to_numpy(dtype=np.float64)
        k = float(len(df))
        x = np.log(np.arange(1, len(df) + 1, dtype=np.float64))
        y = np.log(c)
        sx = float(np.sum(x))
        sy = float(np.sum(y))
        sxy = float(np.sum(x * y))
        sxx = float(np.sum(x * x))
        syy = float(np.sum(y * y))
        num = k * sxy - sx * sy
        den = k * sxx - sx * sx
        slope = num / den
        intercept = (sy - slope * sx) / k
        r2 = (num * num) / (den * (k * syy - sy * sy))
        return pd.DataFrame({
            "n_terms": pd.Series([int(len(df))], dtype="int64"),
            "slope": [round(slope, 6)],
            "intercept": [round(intercept, 6)],
            "r2": [round(r2, 6)],
        })

    return cand.repartition(1).map_batches(_fit, batch_format="pandas",
                                           batch_size=None)


def zipf_fit_oracle_sql(top_k: int = 500, min_count: int = 2) -> str:
    """DuckDB oracle for :func:`run_zipf_fit` — unigram explode +
    count, (count DESC, term ASC) ranking, and the identical OLS
    expression tree over ln(rank)/ln(count)."""
    return f"""
        WITH cnt AS (
            SELECT t, count(*) AS c
            FROM (
                SELECT unnest(regexp_extract_all(
                    lower(coalesce(text, '')), '{TOKEN_RE}')) AS t
                FROM documents
            ) GROUP BY t HAVING count(*) >= {min_count}
        ),
        top AS (
            SELECT c, row_number() OVER (ORDER BY c DESC, t ASC) AS r
            FROM cnt QUALIFY r <= {top_k}
        ),
        pts AS (
            SELECT ln(CAST(r AS DOUBLE)) AS x,
                   ln(CAST(c AS DOUBLE)) AS y
            FROM top
        ),
        s AS (
            SELECT CAST(count(*) AS DOUBLE) AS k,
                   sum(x) AS sx, sum(y) AS sy, sum(x * y) AS sxy,
                   sum(x * x) AS sxx, sum(y * y) AS syy
            FROM pts
        )
        SELECT CAST(k AS BIGINT) AS n_terms,
               round((k * sxy - sx * sy) / (k * sxx - sx * sx), 6)
                   AS slope,
               round((sy - ((k * sxy - sx * sy) / (k * sxx - sx * sx))
                      * sx) / k, 6) AS intercept,
               round(((k * sxy - sx * sy) * (k * sxy - sx * sy)) /
                     ((k * sxx - sx * sx) * (k * syy - sy * sy)), 6)
                   AS r2
        FROM s
    """


# --------------------------------------------------------------------------
# Burrows' Delta (stylometric distance between sources)
# --------------------------------------------------------------------------

def run_burrows_delta(sf_dir: str, top_f: int = 50,
                      batch_size: int = 4096):
    """Burrows' Delta between every source pair: z-score each
    source's relative frequency of the ``top_f`` most frequent corpus
    words (the function words fall out of frequency alone), then
    ``delta = mean_w |z_a − z_b|`` — the classic stylometric
    authorship / register distance (Burrows 2002), here the "did two
    feeds copy the same template" drift signal.

    Plan (the 100 TB shape): per-batch (source, term, c) pre-counts;
    global term totals via the data-scaled hash reduce + local-top-k
    per block, so only ≤ blocks·top_f candidate rows reach the final
    top-k; the per-(source, term) exact counts are tree-merged ONLY
    for the ``top_f`` surviving words (≤ sources·top_f rows), and the
    per-source token totals are a fixed-|sources| merge.  The S×F
    z-matrix and its S² pair sweep run in one constant-size final
    task.

    Float contract: f = c/n is one exact-int IEEE division; mean and
    population-std chains run over ≤ |sources| O(1e-2) doubles and
    the pair sum over ``top_f`` terms — reassociation drift ≲1e-14,
    absorbed by the 6-dp round (the ``run_zipf_fit`` argument); the
    ``sd == 0`` guard compares a bit-identical quantity on both
    engines."""
    from dude_ray.pipelines.relational import tree_combine

    tok_re = re.compile(TOKEN_RE)

    def _counts(batch: pa.Table) -> pa.Table:
        cnt: dict = {}
        srcs = batch["source"].to_pylist()
        for src, text in zip(srcs, batch["text"].to_pylist()):
            for t in tok_re.findall((text or "").lower()):
                k = (src, t)
                cnt[k] = cnt.get(k, 0) + 1
        keys = list(cnt.keys())
        return pa.table({
            "source": pa.array([k[0] for k in keys], type=pa.string()),
            "t": pa.array([k[1] for k in keys], type=pa.string()),
            "c": pa.array(list(cnt.values()), type=pa.int64()),
        })

    ds = _docs(sf_dir, ["source", "text"])
    partials = ds.map_batches(_counts, batch_format="pyarrow",
                              batch_size=batch_size).materialize()
    n_partial = partials.count()

    glob = hash_grouped_reduce(partials, "t",
                               lambda t: group_agg(t, "t",
                                                   {"c": ("c", "sum")}),
                               n_partial,
                               out_cols=("t", "c"))

    def _local_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["c", "t"],
                              ascending=[False, True]).head(top_f)

    terms = sorted(
        glob.map_batches(_local_topk, batch_format="pandas",
                         batch_size=None)
        .repartition(1)
        .map_batches(_local_topk, batch_format="pandas",
                     batch_size=None)
        .to_pandas()["t"].tolist())
    term_set = pa.array(terms, type=pa.string())

    tot = tree_combine(
        partials.map_batches(
            lambda t: pa.table({"source": t["source"], "c": t["c"]}),
            batch_format="pyarrow"),
        ["source"], sums=("c",))
    markers = tot.map_batches(
        lambda t: pa.table({"source": t["source"],
                            "t": pa.array([""] * len(t),
                                          type=pa.string()),
                            "c": t["c"]}),
        batch_format="pyarrow")

    filt = tree_combine(
        partials.map_batches(
            lambda t: t.filter(pc.is_in(t["t"], value_set=term_set)),
            batch_format="pyarrow"),
        ["source", "t"], sums=("c",))

    def _delta(df: pd.DataFrame) -> pd.DataFrame:
        totals = (df[df["t"] == ""].set_index("source")["c"]
                  .astype("int64").to_dict())
        rows = df[df["t"] != ""]
        srcs = sorted(totals)
        s_idx = {s: i for i, s in enumerate(srcs)}
        t_idx = {t: i for i, t in enumerate(terms)}
        f = np.zeros((len(srcs), len(terms)), dtype=np.float64)
        for s, t, c in zip(rows["source"], rows["t"], rows["c"]):
            f[s_idx[s], t_idx[t]] = float(c) / float(totals[s])
        mu = f.mean(axis=0)
        sd = np.sqrt(((f - mu) ** 2).mean(axis=0))
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(sd == 0.0, 0.0, (f - mu) / sd)
        sa, sb, dl = [], [], []
        for i in range(len(srcs)):
            for j in range(i + 1, len(srcs)):
                sa.append(srcs[i])
                sb.append(srcs[j])
                dl.append(round(float(np.abs(z[i] - z[j]).sum())
                                / top_f, 6))
        return pd.DataFrame({
            "source_a": pd.Series(sa, dtype=object),
            "source_b": pd.Series(sb, dtype=object),
            "delta": pd.Series(dl, dtype="float64"),
        })

    return (filt.union(markers).repartition(1)
            .map_batches(_delta, batch_format="pandas",
                         batch_size=None)
            .sort(["source_a", "source_b"]))


def burrows_delta_oracle_sql(top_f: int = 50) -> str:
    """DuckDB oracle for :func:`run_burrows_delta` — unigram explode,
    (count DESC, term ASC) top-``top_f``, dense source×term relative
    frequencies (missing = 0), window mean / population std, the same
    sd=0 guard and |Δz| pair mean."""
    return f"""
        WITH tok AS (
            SELECT source, unnest(regexp_extract_all(
                lower(coalesce(text, '')), '{TOKEN_RE}')) AS t
            FROM documents
        ),
        cnt AS (SELECT source, t, count(*) AS c FROM tok GROUP BY 1, 2),
        gcnt AS (SELECT t, sum(c) AS g FROM cnt GROUP BY t),
        topf AS (
            SELECT t, row_number() OVER (ORDER BY g DESC, t ASC) AS r
            FROM gcnt QUALIFY r <= {top_f}
        ),
        tot AS (SELECT source, sum(c) AS n FROM cnt GROUP BY source),
        f AS (
            SELECT tot.source, topf.t,
                   CAST(coalesce(c.c, 0) AS DOUBLE) / tot.n AS f
            FROM tot CROSS JOIN topf
            LEFT JOIN cnt c ON c.source = tot.source AND c.t = topf.t
        ),
        m AS (
            SELECT source, t, f, avg(f) OVER (PARTITION BY t) AS mu
            FROM f
        ),
        sdev AS (
            SELECT source, t, f, mu,
                   sqrt(avg((f - mu) * (f - mu))
                        OVER (PARTITION BY t)) AS sd
            FROM m
        ),
        z AS (
            SELECT source, t,
                   CASE WHEN sd = 0 THEN 0.0
                        ELSE (f - mu) / sd END AS z
            FROM sdev
        )
        SELECT a.source AS source_a, b.source AS source_b,
               round(sum(abs(a.z - b.z)) / {top_f}, 6) AS delta
        FROM z a JOIN z b ON a.t = b.t AND a.source < b.source
        GROUP BY 1, 2
        ORDER BY source_a, source_b
    """


# --------------------------------------------------------------------------
# Dunning log-likelihood keyness (source vs rest-of-corpus terms)
# --------------------------------------------------------------------------

def run_keyness_llr(sf_dir: str, top_k: int = 10, min_count: int = 5,
                    batch_size: int = 4096,
                    target_rows_per_group: int = 65536):
    """Top-``top_k`` KEY terms per source by Dunning's log-likelihood
    ratio G² (Dunning 1993) against the rest of the corpus —
    ``G² = 2·(a·ln(aN/(n_A·g)) + b·ln(bN/(n_B·g)))`` with a = term
    count in the source, b = g − a elsewhere, n_A/n_B the token
    totals, restricted to OVERUSED terms (a·N > n_A·g, an exact-int
    comparison) with a ≥ ``min_count`` — the corpus-linguistics
    "what is this feed about" keyword profile (a χ²-family sibling
    of tf-idf that is count-calibrated rather than frequency-ranked).

    Plan (the 100 TB shape): per-batch (source, term, c) pre-counts;
    ONE data-scaled hash reduce keyed on the TERM colocates every
    source's counts for that term, so g, a, b and G² all compute
    inside the group with only the fixed |sources| token-total dict
    broadcast; a second bounded reduce keyed on the source takes the
    per-source top-k.  No stage ever sees more than its hash bucket.

    Float contract: both ln arguments are single IEEE divisions of
    exact-int64 products (< 2^53 at every test scale — the
    ``run_type_day_mi`` argument), the two-term sum is fixed-length,
    and ranking sorts the 6-dp-ROUNDED G² so rank order is
    drift-proof."""
    from dude_ray.pipelines.relational import tree_combine

    tok_re = re.compile(TOKEN_RE)

    def _counts(batch: pa.Table) -> pa.Table:
        cnt: dict = {}
        srcs = batch["source"].to_pylist()
        for src, text in zip(srcs, batch["text"].to_pylist()):
            for t in tok_re.findall((text or "").lower()):
                k = (src, t)
                cnt[k] = cnt.get(k, 0) + 1
        keys = list(cnt.keys())
        return pa.table({
            "source": pa.array([k[0] for k in keys], type=pa.string()),
            "t": pa.array([k[1] for k in keys], type=pa.string()),
            "c": pa.array(list(cnt.values()), type=pa.int64()),
        })

    ds = _docs(sf_dir, ["source", "text"])
    partials = ds.map_batches(_counts, batch_format="pyarrow",
                              batch_size=batch_size).materialize()
    n_partial = partials.count()

    totals = dict(tree_combine(
        partials.map_batches(
            lambda t: pa.table({"source": t["source"], "c": t["c"]}),
            batch_format="pyarrow"),
        ["source"], sums=("c",)).to_pandas().itertuples(index=False))
    big_n = int(sum(totals.values()))

    def _g2(t: pa.Table) -> pa.Table:
        out = []
        agg = group_agg(t, ["t", "source"], {"c": ("c", "sum")}).to_pandas()
        for t, grp in agg.groupby("t", sort=False):
            g = int(grp["c"].sum())
            for src, a in zip(grp["source"], grp["c"]):
                a = int(a)
                na = int(totals[src])
                if a < min_count or a * big_n <= na * g:
                    continue
                b = g - a
                nb = big_n - na
                s = a * np.log((a * 1.0 * big_n) / (na * 1.0 * g))
                if b > 0:
                    s += b * np.log((b * 1.0 * big_n) / (nb * 1.0 * g))
                out.append((src, t, a, round(2.0 * float(s), 6)))
        return pa.Table.from_pandas(
            pd.DataFrame(out, columns=["source", "term", "n_occ",
                                       "keyness"]), preserve_index=False)

    scored = hash_grouped_reduce(
        partials, "t", _g2, n_partial,
        target_rows_per_group=target_rows_per_group,
        out_cols=("source", "term", "n_occ", "keyness"))

    def _topk(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        outs = []
        for src, grp in df.groupby("source", sort=False):
            grp = (grp.sort_values(["keyness", "term"],
                                   ascending=[False, True])
                   .head(top_k).reset_index(drop=True))
            grp["rank"] = np.arange(1, len(grp) + 1, dtype=np.int64)
            outs.append(grp)
        return pa.Table.from_pandas(pd.concat(outs) if outs else df.assign(
            rank=pd.Series(dtype="int64")), preserve_index=False)

    return hash_grouped_reduce(
        scored, "source", _topk, scored.count(),
        out_cols=("source", "term", "n_occ", "keyness",
                  "rank")).sort(["source", "rank"])


def keyness_llr_oracle_sql(top_k: int = 10, min_count: int = 5) -> str:
    """DuckDB oracle for :func:`run_keyness_llr` — the same exact-int
    contingency products inside both ln arguments, the same overuse
    filter, per-source rank over the rounded G²."""
    return f"""
        WITH tok AS (
            SELECT source, unnest(regexp_extract_all(
                lower(coalesce(text, '')), '{TOKEN_RE}')) AS t
            FROM documents
        ),
        cnt AS (SELECT source, t, count(*) AS c FROM tok GROUP BY 1, 2),
        gcnt AS (SELECT t, sum(c) AS g FROM cnt GROUP BY t),
        tot AS (SELECT source, sum(c) AS n FROM cnt GROUP BY source),
        nn AS (SELECT sum(n) AS nn FROM tot),
        scored AS (
            SELECT c.source, c.t AS term, c.c AS a,
                   round(2.0 * (
                       c.c * ln((c.c * 1.0 * nn.nn)
                                / (tot.n * 1.0 * g.g))
                       + CASE WHEN g.g - c.c > 0
                         THEN (g.g - c.c)
                              * ln(((g.g - c.c) * 1.0 * nn.nn)
                                   / ((nn.nn - tot.n) * 1.0 * g.g))
                         ELSE 0.0 END), 6) AS keyness
            FROM cnt c
            JOIN gcnt g ON g.t = c.t
            JOIN tot ON tot.source = c.source
            CROSS JOIN nn
            WHERE c.c >= {min_count} AND c.c * nn.nn > tot.n * g.g
        )
        SELECT source, term, CAST(a AS BIGINT) AS n_occ, keyness,
               CAST(row_number() OVER (
                   PARTITION BY source
                   ORDER BY keyness DESC, term ASC) AS BIGINT) AS rank
        FROM scored
        QUALIFY rank <= {top_k}
        ORDER BY source, rank
    """
