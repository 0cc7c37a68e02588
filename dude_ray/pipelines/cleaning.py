"""Corpus-cleaning operators for LLM training-data prep: PII
redaction, text normalization, repetition (Gopher-style) quality
stats, and benchmark decontamination.

These extend the reference's extraction surface (dude stops at
selector extraction — ``/root/reference/dude/base.py:610-622`` emits
raw handler rows) with the post-extraction hygiene passes a 100 TB
pipeline runs before training.  All stages are ``map_batches`` over
Arrow batches with vectorized kernels (pyarrow.compute RE2 regex /
pandas explode-groupby) in task stages; the blocklist broadcasts once
via ``ray.put`` and each batch reads it from the object store.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from dude_ray.partitioning import group_agg, hash_grouped_reduce
from dude_ray.pipelines.textops import TOKEN_RE


def _docs(sf_dir: str, columns):
    from dude_ray.io import read_parquet_clean

    return read_parquet_clean(f"{sf_dir}/documents.parquet", columns=columns)


# --------------------------------------------------------------------------
# PII redaction
# --------------------------------------------------------------------------

# RE2-compatible (both pyarrow.compute and DuckDB use RE2), applied in
# this fixed order so Ray and the SQL oracle transform identically.
PII_PATTERNS = (
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("phone", r"\b\d{3}[-.]\d{3}[-.]\d{4}\b", "<PHONE>"),
    ("ipv4", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
)


def pii_redact_batch(batch: pa.Table) -> pa.Table:
    """Vectorized multi-pattern scrub: per pattern, one RE2 count and
    one RE2 global replace over the whole batch column (no Python
    per-row loop).  Counts are taken BEFORE each replace so overlapping
    classes (none among the defaults) count against the original text
    of their pass."""
    text = batch["text"]
    out = {"doc_id": batch["doc_id"]}
    for name, pat, repl in PII_PATTERNS:
        out[f"n_{name}"] = pc.cast(
            pc.count_substring_regex(text, pat), pa.int64())
        text = pc.replace_substring_regex(text, pattern=pat, replacement=repl)
    out["clean_text"] = text
    return pa.table(out)


def run_pii_redact(sf_dir: str):
    """PII scrub over ``documents``: emails → <EMAIL>, NNN[-.]NNN[-.]NNNN
    phones → <PHONE>, dotted-quad IPs → <IP>, plus per-class counts.
    Stateless map_batches, column-pruned read; at 100 TB this is a pure
    streaming pass (no shuffle, no state)."""
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        pii_redact_batch, batch_format="pyarrow", batch_size=4096)


# --------------------------------------------------------------------------
# text normalization
# --------------------------------------------------------------------------

def normalize_batch(batch: pa.Table) -> pa.Table:
    """Unicode NFC → lowercase → collapse whitespace runs → trim.

    Lower/collapse/trim are single Arrow C++ kernels.  NFC composition
    cannot use ``pc.utf8_normalize`` — pyarrow 16.1's kernel returns
    decomposed output for every ``form`` (verified: composed U+00E9 in,
    U+0065 U+0301 out even with form='NFC'), which would diverge from
    DuckDB/Python NFC.  Instead: a vectorized non-ASCII mask picks the
    rows that can differ under NFC (ASCII is NFC-invariant), and only
    those go through ``unicodedata.normalize`` — on web text the slow
    path touches a minority of rows and the scan stays a streaming
    map_batches either way."""
    import unicodedata

    t = batch["text"]
    non_ascii = pc.match_substring_regex(t, r"[^\x00-\x7F]")
    if pc.any(non_ascii).as_py():
        mask = non_ascii.to_numpy(zero_copy_only=False)
        vals = t.to_pylist()
        for i in np.flatnonzero(mask):
            if vals[i] is not None:
                vals[i] = unicodedata.normalize("NFC", vals[i])
        t = pa.array(vals, type=pa.string())
    t = pc.utf8_lower(t)
    t = pc.replace_substring_regex(t, pattern=r"\s+", replacement=" ")
    t = pc.utf8_trim_whitespace(t)
    return pa.table({
        "doc_id": batch["doc_id"],
        "norm_text": t,
        "n_chars_norm": pc.cast(pc.utf8_length(t), pa.int64()),
    })


def run_text_normalize(sf_dir: str):
    """Canonical text-normalization pass (NFC + casefold + whitespace
    collapse) — the standard pre-dedup transform so byte-level dedup
    keys are insensitive to encoding/casing/whitespace noise."""
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        normalize_batch, batch_format="pyarrow", batch_size=4096)


# --------------------------------------------------------------------------
# repetition quality (Gopher-style duplicate-word stats)
# --------------------------------------------------------------------------

def repetition_batch(df: pd.DataFrame) -> pd.DataFrame:
    """Per-doc duplicate-word statistics, vectorized across the whole
    batch: one ``str.findall`` → one explode → one (doc, word) groupby.
    No per-document Python loop."""
    words = df["text"].str.findall(TOKEN_RE)
    n_words = words.str.len().astype("int64")
    ex = words.explode().dropna().to_frame("w")
    counts = ex.groupby([ex.index, "w"]).size()
    if len(counts):
        per_doc = counts.groupby(level=0)
        distinct = per_doc.size()
        top = per_doc.max()
    else:
        distinct = pd.Series(dtype="int64")
        top = pd.Series(dtype="int64")
    n_distinct = distinct.reindex(df.index, fill_value=0).astype("int64")
    top_n = top.reindex(df.index, fill_value=0).astype("float64")
    safe = n_words.clip(lower=1).astype("float64")
    dup_frac = (1.0 - n_distinct / safe).where(n_words > 0, 0.0).round(6)
    top_frac = (top_n / safe).round(6)
    return pd.DataFrame({
        "doc_id": df["doc_id"],
        "n_words": n_words,
        "n_distinct": n_distinct,
        "dup_word_frac": dup_frac,
        "top_word_frac": top_frac,
    })


def run_repetition_quality(sf_dir: str):
    """Gopher-style repetition filters (Rae et al. 2021, §A1.1):
    fraction of words that are repeats and the most-frequent-word mass
    per document.  High values flag boilerplate/spam for removal before
    training.  Stateless streaming pass; the explode is batch-local so
    nothing shuffles."""
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        repetition_batch, batch_format="pandas", batch_size=2048)


# --------------------------------------------------------------------------
# benchmark decontamination
# --------------------------------------------------------------------------

SNIPPET_LEN = 40
SNIPPET_MOD = 97  # test scaffolding: every 97th doc's prefix is "benchmark"


def _blocklist_snippets(sf_dir: str) -> list[str]:
    """Derive the deterministic stand-in benchmark blocklist: the first
    SNIPPET_LEN chars of every doc with doc_id % SNIPPET_MOD == 0.

    In production the blocklist is a FIXED benchmark corpus (MMLU/GSM8K
    etc. — megabytes, independent of corpus size), so driver-side
    collection is bounded.  Here it is derived from the input table so
    the oracle can reproduce it in SQL; only the 40-char prefixes of the
    matching rows ever reach the driver (the filter and substring run
    distributed)."""

    def prefixes(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch["doc_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        keep = pa.array(ids % SNIPPET_MOD == 0)
        kept = batch.filter(keep)
        return pa.table(
            {"snip": pc.utf8_slice_codeunits(kept["text"], 0, SNIPPET_LEN)})

    rows = (_docs(sf_dir, ["doc_id", "text"])
            .map_batches(prefixes, batch_format="pyarrow", batch_size=8192)
            .take_all())
    return sorted({r["snip"] for r in rows if r["snip"]})


def run_decontaminate(sf_dir: str):
    """Benchmark-overlap decontamination: broadcast the (small)
    blocklist of benchmark snippets, flag every corpus document that
    contains one verbatim.  Broadcast-side semi-join — no shuffle of
    the big side.  The blocklist ships once via ``ray.put`` and each
    batch ``ray.get``s it; matching is one vectorized
    ``match_substring`` per snippet OR-folded over the batch (the
    blocklist is benchmark-sized — tens of thousands of snippets at
    most — so the per-snippet loop is over the SMALL side; the 100 TB
    side stays a single streaming column scan).  For much larger
    blocklists the same seam takes an Aho-Corasick automaton or an
    n-gram Bloom filter."""
    import ray

    ref = ray.put(_blocklist_snippets(sf_dir))

    def flag(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        hit = np.zeros(len(batch), dtype=bool)
        for s in ray.get(ref):
            hit |= pc.match_substring(text, s).to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": batch["doc_id"],
            "contaminated": pa.array(hit.astype(np.int32), type=pa.int32()),
        })

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        flag, batch_format="pyarrow", batch_size=4096)


# --------------------------------------------------------------------------
# top terms per source (distributed term-frequency rollup)
# --------------------------------------------------------------------------

def _term_partials(df: pd.DataFrame) -> pd.DataFrame:
    """Batch-local (source, term) counts — shrinks each batch to its
    vocabulary before anything shuffles."""
    words = df["text"].str.findall(TOKEN_RE)
    ex = pd.DataFrame({
        "source": df["source"].repeat(words.str.len().fillna(0).astype(int)),
        "term": np.concatenate([np.asarray(w, dtype=object)
                                for w in words]) if len(df) else [],
    })
    g = ex.groupby(["source", "term"], sort=False).size().reset_index(name="n")
    g["n"] = g["n"].astype("int64")
    return g


def run_top_terms_per_source(sf_dir: str, k: int = 5):
    """Top-k terms per ``source`` by corpus frequency with deterministic
    (count desc, term asc) tie-break.

    Shuffle-minimizing shape: batch-local partial counts (corpus text
    never shuffles, only (source, term, n) rows bounded by vocabulary),
    one hash groupby to merge partials, then a per-source ``map_groups``
    top-k.  Source cardinality is small (per-domain / per-crawl-slice),
    term cardinality is vocabulary-bounded — both orders of magnitude
    below corpus size, so every post-scan stage is cheap at 100 TB."""
    from dude_ray.partitioning import parquet_row_groups

    partials = _docs(sf_dir, ["source", "text"]).map_batches(
        _term_partials, batch_format="pandas", batch_size=4096)
    # partial rows ≤ blocks × vocabulary; the shared vectorized reduce
    # replaces Ray's Python-per-row aggregate combine (real web
    # vocabularies are millions of terms, not this corpus's 31)
    n_rows = sum(n for _f, _rg, n in
                 parquet_row_groups(f"{sf_dir}/documents.parquet"))

    merged = hash_grouped_reduce(partials, ["source", "term"],
                                 lambda t: group_agg(t, ["source", "term"],
                                                     {"n": ("n", "sum")}),
                                 n_rows, out_cols=("source", "term", "n"))

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n", "term"], ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        g["n"] = g["n"].astype("int64")
        return g[["source", "term", "n", "rank"]]

    return merged.groupby("source").map_groups(topk, batch_format="pandas")


def run_curate_keep_best(sf_dir: str, threshold: float = 0.35,
                         num_partitions: int = 4):
    """End-to-end curation keeper selection: group documents by
    near-dup CLUSTER (connected components over the exact cosine pair
    graph; doc_id ≡ vec_id in this corpus) and keep the best-quality
    member per cluster — highest stopword ratio, ties to the lowest
    doc_id; documents in no cluster keep themselves.  This is the
    composition layer: pair detection (dedup), component grouping
    (dup_clusters) and quality scoring (textops) chained into the
    "which rows survive" decision a real corpus build runs.

    Scale shape: quality rows (fixed-width) LEFT-join the (small)
    component map by doc-id hash; keeper choice is one groupby over
    (component) of 16-byte rows.  Text is read once, inside the
    quality scan."""
    from dude_ray.pipelines.dedup import run_dup_clusters
    from dude_ray.pipelines.textops import run_quality

    comps = run_dup_clusters(sf_dir, threshold=threshold)
    quality = run_quality(sf_dir).map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"],
                            "stop_ratio": t["stop_ratio"]}),
        batch_format="pyarrow")
    joined = quality.join(comps, "left_outer", num_partitions,
                          on=("doc_id",), right_on=("vec_id",),
                          aggregator_ray_remote_args={"num_cpus": 0})

    def fill(t: pa.Table) -> pa.Table:
        comp = pc.coalesce(pc.cast(t["component"], pa.int64()),
                           pc.cast(t["doc_id"], pa.int64()))
        return pa.table({"doc_id": t["doc_id"], "component": comp,
                         "stop_ratio": t["stop_ratio"]})

    def keeper(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["stop_ratio", "doc_id"],
                          ascending=[False, True]).head(1)
        return g[["component", "doc_id", "stop_ratio"]]

    return (joined.map_batches(fill, batch_format="pyarrow")
            .groupby("component")
            .map_groups(keeper, batch_format="pandas"))


# --------------------------------------------------------------------------
# Gopher-style document filter (Rae et al. 2021, arXiv:2112.11446 §A1.1)
# --------------------------------------------------------------------------

GOPHER_MIN_TOKENS = 50
GOPHER_MAX_TOKENS = 100_000
GOPHER_MEAN_LEN = (3.0, 10.0)
GOPHER_MIN_STOP_FRAC = 0.06
GOPHER_MIN_ALPHA_FRAC = 0.80


def run_gopher_filter(sf_dir: str, batch_size: int = 4096):
    """Per-document keep/drop decision from the SQL-expressible subset
    of the Gopher quality rules: token count in [50, 100k], mean token
    length in [3, 10], stopword fraction ≥ 0.06 (the repetition rules
    live in ``run_repetition_quality``), alpha-token fraction ≥ 0.8.

    Output: (doc_id, n_tokens, mean_tok_len, stop_frac, alpha_frac,
    keep) for every document with ≥ 1 token (the dsir empty-doc
    convention).  All rule comparisons run on the RAW single-division
    doubles — exact integer numerators/denominators make the division
    bit-identical across engines — with 6-dp rounding only on the
    reported columns."""
    import re as _re

    from dude_ray.pipelines.textops import STOPWORDS

    tok = _re.compile(TOKEN_RE)
    stops = frozenset(STOPWORDS)

    def _batch(batch: pa.Table) -> pa.Table:
        ids, nt, ml, sf, af, keep = [], [], [], [], [], []
        for did, text in zip(batch["doc_id"].to_pylist(),
                             batch["text"].to_pylist()):
            toks = tok.findall((text or "").lower())
            n = len(toks)
            if not n:
                continue
            sum_len = sum(len(t) for t in toks)
            n_stop = sum(1 for t in toks if t in stops)
            n_alpha = sum(1 for t in toks
                          if any("a" <= c <= "z" for c in t))
            mean_len = sum_len / n
            stop_frac = n_stop / n
            alpha_frac = n_alpha / n
            ok = (GOPHER_MIN_TOKENS <= n <= GOPHER_MAX_TOKENS
                  and GOPHER_MEAN_LEN[0] <= mean_len <= GOPHER_MEAN_LEN[1]
                  and stop_frac >= GOPHER_MIN_STOP_FRAC
                  and alpha_frac >= GOPHER_MIN_ALPHA_FRAC)
            ids.append(did)
            nt.append(n)
            ml.append(round(mean_len, 6))
            sf.append(round(stop_frac, 6))
            af.append(round(alpha_frac, 6))
            keep.append(1 if ok else 0)
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "n_tokens": pa.array(nt, type=pa.int64()),
            "mean_tok_len": pa.array(ml, type=pa.float64()),
            "stop_frac": pa.array(sf, type=pa.float64()),
            "alpha_frac": pa.array(af, type=pa.float64()),
            "keep": pa.array(keep, type=pa.int64()),
        })

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        _batch, batch_format="pyarrow", batch_size=batch_size)


def gopher_filter_oracle_sql() -> str:
    """DuckDB oracle for :func:`run_gopher_filter` — independent token
    explode + per-doc aggregates + the same raw-division rule
    comparisons."""
    from dude_ray.pipelines.textops import STOPWORDS

    stop_list = ", ".join(f"'{w}'" for w in STOPWORDS)
    return f"""
        WITH toks AS (
            SELECT doc_id,
                   regexp_extract_all(lower(coalesce(text, '')),
                                      '{TOKEN_RE}') AS w
            FROM documents
        ), t AS (
            SELECT doc_id, unnest(w) AS tok FROM toks WHERE len(w) > 0
        ), agg AS (
            SELECT doc_id,
                   count(*) AS n,
                   sum(length(tok)) AS sum_len,
                   count(*) FILTER (WHERE tok IN ({stop_list})) AS n_stop,
                   count(*) FILTER (WHERE regexp_matches(tok, '[a-z]'))
                       AS n_alpha
            FROM t GROUP BY doc_id
        )
        SELECT doc_id,
               CAST(n AS BIGINT) AS n_tokens,
               round(sum_len / CAST(n AS DOUBLE), 6) AS mean_tok_len,
               round(n_stop / CAST(n AS DOUBLE), 6) AS stop_frac,
               round(n_alpha / CAST(n AS DOUBLE), 6) AS alpha_frac,
               CAST(CASE WHEN n BETWEEN {GOPHER_MIN_TOKENS}
                                    AND {GOPHER_MAX_TOKENS}
                          AND sum_len / CAST(n AS DOUBLE)
                              BETWEEN {GOPHER_MEAN_LEN[0]}
                                  AND {GOPHER_MEAN_LEN[1]}
                          AND n_stop / CAST(n AS DOUBLE)
                              >= {GOPHER_MIN_STOP_FRAC}
                          AND n_alpha / CAST(n AS DOUBLE)
                              >= {GOPHER_MIN_ALPHA_FRAC}
                    THEN 1 ELSE 0 END AS BIGINT) AS keep
        FROM agg
    """


# --------------------------------------------------------------------------
# wordlist blocklist filter (C4-style "bad words" keep/drop)
# --------------------------------------------------------------------------

# Placeholder blocklist: in production this is the deployment's content
# blocklist (C4 shipped one of ~400 terms); the mechanism — broadcast
# wordlist, whole-token lowercase match, count + keep flag — is what
# the operator implements.  Words chosen to actually occur in the
# synthetic corpus so the filter exercises both branches.
BLOCKLIST_WORDS = ("slow", "error", "noise", "spam")


def run_blocklist_filter(sf_dir: str, words=BLOCKLIST_WORDS,
                         batch_size: int = 4096):
    """C4-style wordlist filter: flag every document containing a
    blocklisted token (whole-token, lowercase).  Output per document:
    (doc_id, bad_hits = total blocked-token occurrences, keep =
    bad_hits == 0).

    Scale shape: the wordlist is a constant compiled into the batch
    closure (even C4's full list is a few KB — broadcast-trivial);
    one corpus scan, no shuffle, integer output → the SQL oracle
    hash-matches with no rounding contract."""
    import re as _re

    tok = _re.compile(TOKEN_RE)
    blocked = frozenset(words)

    def _batch(batch: pa.Table) -> pa.Table:
        hits = [sum(1 for t in tok.findall((x or "").lower())
                    if t in blocked)
                for x in batch["text"].to_pylist()]
        return pa.table({
            "doc_id": batch["doc_id"],
            "bad_hits": pa.array(hits, type=pa.int64()),
            "keep": pa.array([h == 0 for h in hits], type=pa.bool_()),
        })

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        _batch, batch_format="pyarrow", batch_size=batch_size)


def blocklist_filter_oracle_sql(words=BLOCKLIST_WORDS) -> str:
    """DuckDB oracle for :func:`run_blocklist_filter` — independent
    tokenize + list membership count."""
    wl = ", ".join("'%s'" % w for w in words)
    return f"""
        WITH toks AS (
            SELECT doc_id,
                   regexp_extract_all(lower(coalesce(text, '')),
                                      '{TOKEN_RE}') AS w
            FROM documents
        )
        SELECT doc_id,
               CAST(len(list_filter(w, t -> list_contains([{wl}], t)))
                    AS BIGINT) AS bad_hits,
               len(list_filter(w, t -> list_contains([{wl}], t))) = 0
                   AS keep
        FROM toks
    """
