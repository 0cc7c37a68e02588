"""Distributed BPE merge-learning (tokenizer training) over the
``documents`` table — the Sennrich et al. 2016 (arXiv:1508.07909)
greedy byte-pair-encoding trajectory, learned exactly and
reproducibly on Ray Data.

The reference engine (roniemartinez/dude) stops at selector
extraction; training a tokenizer on the crawled corpus is the natural
next stage of a web-scale training-data pipeline, and the merge
TABLE (step, left, right, count) is the artifact every BPE tokenizer
ships.  ``bpe_pair_counts`` (textops.py) computes the step-0 pair
statistic; this operator runs the full greedy loop.

Representation trick that makes the trajectory SQL-oracle-able: each
word is kept as a *spaced string* ``" c1  c2  ...  cn "`` (symbols
separated by TWO spaces, one space padding each end).  Merging the
best pair (l, r) is then EXACTLY ``s.replace(" l  r ", " lr ")`` —
and Python ``str.replace``, ``pyarrow.compute.replace_substring`` and
DuckDB ``replace()`` all share left-to-right non-overlapping
semantics (verified in tests), so the engine and the oracle walk
bit-identical trajectories.  Symbols are drawn from ``TOKEN_RE``
(``[A-Za-z0-9_]+`` — no spaces), so the delimiter is unambiguous.

Tie-break contract: highest pair count, then lexicographically
smallest (left, right) — ASCII symbols make Python string order and
DuckDB's binary varchar collation identical.

Scale shape (the part that must survive 100 TB):

- The corpus is scanned ONCE — per-batch word-count partials (one row
  per DISTINCT word per batch) into the data-scaled hash-grouped
  reduce.  Nothing doc-keyed ever shuffles again.
- The merge loop runs over the VOCABULARY table (distinct words),
  which is orders of magnitude smaller than the corpus and stays
  distributed across blocks.  Each step moves only pre-counted
  (l, r, c) pair partials — one row per distinct pair per block —
  through the hash-grouped reduce, whose reduce keeps only the
  bucket-local best row, so the driver sees at most
  ``n_groups`` candidate rows per step.
- The replace map is a zero-copy Arrow kernel
  (``pc.replace_substring``) over the vocab blocks; the vocab is
  re-materialized per step so the loop's lineage stays one stage
  deep (documented, vocabulary-sized — not a corpus
  materialization).
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc

from dude_ray.partitioning import group_agg, hash_grouped_reduce
from dude_ray.pipelines.textops import TOKEN_RE, _docs

N_MERGES = 8


def _word_partial(batch: pa.Table) -> pa.Table:
    """Per-batch word-count partial: one (word, c) row per distinct
    word in the batch."""
    tok = re.compile(TOKEN_RE)
    cnt: dict = {}
    for text in batch["text"].to_pylist():
        for w in tok.findall((text or "").lower()):
            cnt[w] = cnt.get(w, 0) + 1
    words = list(cnt.keys())
    return pa.table({
        "word": pa.array(words, type=pa.string()),
        "c": pa.array([cnt[w] for w in words], type=pa.int64()),
    })


def _to_spaced(batch: pa.Table) -> pa.Table:
    """word → spaced-symbol string: ' c1  c2  ...  cn ' (char-level
    initial vocabulary)."""
    words = batch["word"].to_pylist()
    spaced = [" " + "  ".join(w) + " " for w in words]
    return pa.table({
        "s": pa.array(spaced, type=pa.string()),
        "cnt": batch["cnt"],
    })


def _pair_partial(batch: pa.Table) -> pa.Table:
    """Per-block pair-count partial: one (l, r, c) row per distinct
    adjacent symbol pair in the block, weighted by word count."""
    cnt: dict = {}
    ss = batch["s"].to_pylist()
    cs = batch["cnt"].to_numpy(zero_copy_only=False)
    for s, c in zip(ss, cs):
        syms = s.strip().split("  ")
        for i in range(len(syms) - 1):
            k = (syms[i], syms[i + 1])
            cnt[k] = cnt.get(k, 0) + int(c)
    keys = list(cnt.keys())
    return pa.table({
        "l": pa.array([k[0] for k in keys], type=pa.string()),
        "r": pa.array([k[1] for k in keys], type=pa.string()),
        "c": pa.array([cnt[k] for k in keys], type=pa.int64()),
    })


def _best_per_bucket(t: pa.Table) -> pa.Table:
    """Sum pair partials within the hash bucket, keep only the
    bucket-local best (c DESC, l ASC, r ASC) — every (l, r) key lives
    entirely in one bucket, so the global best is among the bucket
    bests."""
    g = group_agg(t, ["l", "r"], {"c": ("c", "sum")})
    return g.sort_by([("c", "descending"), ("l", "ascending"),
                      ("r", "ascending")]).slice(0, 1)


def run_bpe_train(sf_dir: str, n_merges: int = N_MERGES,
                  batch_size: int = 4096):
    """Learn the first ``n_merges`` BPE merges over the lowered
    ``TOKEN_RE`` word stream of the corpus.

    Returns the merge trajectory table:
    (step, left_sym, right_sym, pair_count) — step 1..n_merges in
    training order.
    """

    docs = _docs(sf_dir, ["text"])
    partials = docs.map_batches(_word_partial, batch_format="pyarrow",
                                batch_size=batch_size)

    vocab = hash_grouped_reduce(partials, "word",
                                lambda t: group_agg(t, "word",
                                                    {"cnt": ("c", "sum")}),
                                partials.count(),
                                out_cols=("word", "cnt"))
    vocab = vocab.map_batches(_to_spaced,
                              batch_format="pyarrow").materialize()
    n_vocab = max(vocab.count(), 1)

    merges: list[tuple[int, str, str, int]] = []
    for step in range(1, n_merges + 1):
        pair_partials = vocab.map_batches(_pair_partial,
                                          batch_format="pyarrow")
        # n_rows only sizes the hash-group width — the ~8 avg
        # symbols/word estimate avoids an extra counting pass.
        cands = hash_grouped_reduce(pair_partials, ["l", "r"],
                                    _best_per_bucket, n_vocab * 8,
                                    out_cols=("l", "r", "c")).take_all()
        if not cands:
            break
        best = min(cands, key=lambda row: (-row["c"], row["l"], row["r"]))
        l, r, c = best["l"], best["r"], int(best["c"])
        merges.append((step, l, r, c))
        pat, rep = f" {l}  {r} ", f" {l}{r} "

        def _apply(batch: pa.Table, pat=pat, rep=rep) -> pa.Table:
            return pa.table({
                "s": pc.replace_substring(batch["s"], pattern=pat,
                                          replacement=rep),
                "cnt": batch["cnt"],
            })

        vocab = vocab.map_batches(_apply,
                                  batch_format="pyarrow").materialize()

    return pa.table({
        "step": pa.array([m[0] for m in merges], type=pa.int64()),
        "left_sym": pa.array([m[1] for m in merges], type=pa.string()),
        "right_sym": pa.array([m[2] for m in merges], type=pa.string()),
        "pair_count": pa.array([m[3] for m in merges], type=pa.int64()),
    })


def bpe_train_reference(texts, n_merges: int = N_MERGES):
    """Single-process reference trajectory (pytest oracle) — the
    classic dict-of-spaced-words greedy loop."""
    tok = re.compile(TOKEN_RE)
    wc: dict = {}
    for t in texts:
        for w in tok.findall((t or "").lower()):
            wc[w] = wc.get(w, 0) + 1
    words = {" " + "  ".join(w) + " ": c for w, c in wc.items()}
    merges = []
    for step in range(1, n_merges + 1):
        pc_: dict = {}
        for s, c in words.items():
            syms = s.strip().split("  ")
            for i in range(len(syms) - 1):
                k = (syms[i], syms[i + 1])
                pc_[k] = pc_.get(k, 0) + c
        if not pc_:
            break
        bc = max(pc_.values())
        l, r = sorted(p for p, c in pc_.items() if c == bc)[0]
        merges.append((step, l, r, bc))
        pat, rep = f" {l}  {r} ", f" {l}{r} "
        nxt: dict = {}
        for s, c in words.items():
            k = s.replace(pat, rep)
            nxt[k] = nxt.get(k, 0) + c
        words = nxt
    return merges


def bpe_train_oracle_sql(n_merges: int = N_MERGES) -> str:
    """DuckDB oracle: the SAME greedy trajectory as a MATERIALIZED CTE
    chain (w0 → s0 → {p_i pair counts → b_i best → s_i replace} …).
    MATERIALIZED is load-bearing: each s_i is referenced twice, so the
    default inlining would re-expand the base scan 2^n times."""
    ctes = [f"""w0 AS MATERIALIZED (
  SELECT word, count(*) AS cnt FROM (
    SELECT unnest(regexp_extract_all(lower(coalesce(text, '')),
                                     '{TOKEN_RE}')) AS word
    FROM documents) GROUP BY word
), s0 AS MATERIALIZED (
  SELECT ' ' || array_to_string(string_split(word, ''), '  ') || ' ' AS s,
         cnt
  FROM w0
)"""]
    sels = []
    for i in range(1, n_merges + 1):
        p = i - 1
        ctes.append(f"""p{i} AS MATERIALIZED (
  SELECT l, r, sum(cnt) AS c FROM (
    SELECT syms[j] AS l, syms[j + 1] AS r, cnt
    FROM (SELECT string_split(trim(s), '  ') AS syms, cnt FROM s{p}),
         LATERAL (SELECT unnest(generate_series(1, len(syms) - 1)) AS j)
    WHERE len(syms) >= 2) GROUP BY l, r
), b{i} AS MATERIALIZED (
  SELECT l, r, CAST(c AS BIGINT) AS c FROM p{i} ORDER BY c DESC, l, r LIMIT 1
), s{i} AS MATERIALIZED (
  SELECT replace(s, ' ' || (SELECT l FROM b{i}) || '  ' ||
                    (SELECT r FROM b{i}) || ' ',
                    ' ' || (SELECT l FROM b{i}) ||
                    (SELECT r FROM b{i}) || ' ') AS s, cnt
  FROM s{p}
)""")
        sels.append(f"SELECT {i} AS step, l AS left_sym, r AS right_sym, "
                    f"c AS pair_count FROM b{i}")
    return ("WITH " + ",\n".join(ctes) + "\n"
            + " UNION ALL ".join(
                f"SELECT CAST(step AS BIGINT) AS step, left_sym, right_sym, "
                f"CAST(pair_count AS BIGINT) AS pair_count FROM ({s})"
                for s in sels)
            + " ORDER BY step")


# --------------------------------------------------------------------------
# tokenizer APPLICATION: encode the corpus with the learned merges
# --------------------------------------------------------------------------

class BpeEncoder:
    """Per-batch BPE encoding against the broadcast merge table — the
    tokenizer-application stage every training pipeline runs after
    merge learning.  Passed as an instance, so it runs as a task stage;
    word → token-count results are memoized per task copy (web text
    reuses a small hot vocabulary), bounded to keep the cache from
    growing with corpus size."""

    CACHE_MAX = 1 << 20

    def __init__(self, merges: list[tuple[str, str]]):
        self.merges = [(f" {l}  {r} ", f" {l}{r} ") for l, r in merges]
        self.tok = re.compile(TOKEN_RE)
        self._cache: dict[str, int] = {}

    def _ntok(self, w: str) -> int:
        n = self._cache.get(w)
        if n is None:
            s = " " + "  ".join(w) + " "
            for pat, rep in self.merges:
                s = s.replace(pat, rep)
            n = len(s.strip().split("  "))
            if len(self._cache) >= self.CACHE_MAX:
                self._cache.clear()
            self._cache[w] = n
        return n

    def __call__(self, batch: pa.Table) -> pa.Table:
        counts = [sum(self._ntok(w) for w in
                      self.tok.findall((t or "").lower()))
                  for t in batch["text"].to_pylist()]
        return pa.table({
            "doc_id": batch["doc_id"],
            "bpe_tokens": pa.array(counts, type=pa.int64()),
        })


def run_bpe_encode(sf_dir: str, n_merges: int = N_MERGES):
    """Per-document BPE token count under the first ``n_merges``
    learned merges: ONE additional corpus scan after merge learning,
    with the (tiny — vocab-sized even at 32k merges) merge list riding
    in a :class:`BpeEncoder` instance.  No shuffle at all — the
    per-doc result is computed where the text lives.  Integer output →
    the SQL oracle hash-matches with no rounding contract."""
    mt = run_bpe_train(sf_dir, n_merges=n_merges)
    merges = list(zip(mt["left_sym"].to_pylist(),
                      mt["right_sym"].to_pylist()))
    docs = _docs(sf_dir, ["doc_id", "text"])
    return docs.map_batches(BpeEncoder(merges), batch_format="pyarrow",
                            batch_size=4096)


def bpe_encode_oracle_sql(n_merges: int = N_MERGES) -> str:
    """DuckDB oracle: re-learn the merge chain (the bpe_train CTEs,
    here carrying ``word`` through the replace chain), then join every
    document word against the merged vocabulary and sum symbol
    counts.  Pure-integer output."""
    ctes = [f"""w0 AS MATERIALIZED (
  SELECT word, count(*) AS cnt FROM (
    SELECT unnest(regexp_extract_all(lower(coalesce(text, '')),
                                     '{TOKEN_RE}')) AS word
    FROM documents) GROUP BY word
), v0 AS MATERIALIZED (
  SELECT word,
         ' ' || array_to_string(string_split(word, ''), '  ') || ' ' AS s,
         cnt
  FROM w0
)"""]
    for i in range(1, n_merges + 1):
        p = i - 1
        ctes.append(f"""p{i} AS MATERIALIZED (
  SELECT l, r, sum(cnt) AS c FROM (
    SELECT syms[j] AS l, syms[j + 1] AS r, cnt
    FROM (SELECT string_split(trim(s), '  ') AS syms, cnt FROM v{p}),
         LATERAL (SELECT unnest(generate_series(1, len(syms) - 1)) AS j)
    WHERE len(syms) >= 2) GROUP BY l, r
), b{i} AS MATERIALIZED (
  SELECT l, r FROM p{i} ORDER BY c DESC, l, r LIMIT 1
), v{i} AS MATERIALIZED (
  SELECT word,
         replace(s, ' ' || (SELECT l FROM b{i}) || '  ' ||
                    (SELECT r FROM b{i}) || ' ',
                    ' ' || (SELECT l FROM b{i}) ||
                    (SELECT r FROM b{i}) || ' ') AS s, cnt
  FROM v{p}
)""")
    return ("WITH " + ",\n".join(ctes) + f""",
enc AS (
  SELECT word, len(string_split(trim(s), '  ')) AS ntok FROM v{n_merges}
), dw AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(coalesce(text, '')),
                                   '{TOKEN_RE}')) AS word
  FROM documents
), agg AS (
  SELECT dw.doc_id, sum(e.ntok) AS t
  FROM dw JOIN enc e ON dw.word = e.word GROUP BY dw.doc_id
)
SELECT d.doc_id, CAST(coalesce(a.t, 0) AS BIGINT) AS bpe_tokens
FROM documents d LEFT JOIN agg a ON d.doc_id = a.doc_id""")
