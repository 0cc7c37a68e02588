"""Flagship rule program + extraction pipeline over the synthetic web.

The rule program re-encodes the reference's canonical fixture rules
(title/url/description over ``.custom-group`` —
/root/reference/tests/conftest.py:105-135) and extends them with the
interleaved-media kinds of the ``input_hint`` span vocabulary
(link / image / next / text).

``run_extract`` is the headline non-crawl pipeline: read corpus →
stateless ``map_batches(SpanExtractor(...))`` task stage → span table.
The crawl variant (frontier + politeness) lives in dude_ray.crawl.
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa

from ..partitioning import group_agg, hash_grouped_reduce
from ..rule import Rule, Selector


def _title(el):
    return {"title": el.text_content()}


def _url(el):
    return {"url": (el.text_content(), el.attrs["href"])}


def _description(el):
    return {"description": el.text_content()}


def _image(el):
    return {"image": ("", el.attrs["src"])}


def _link(el):
    return {"link": (el.text_content(), el.attrs["href"])}


def _next_page(el):
    return {"next": (el.text_content(), el.attrs["href"])}


def _para(el):
    return {"text": el.text_content()}


def flagship_rules() -> list[Rule]:
    g_group = Selector(css=".custom-group")
    return [
        Rule(group=g_group, selector=Selector(css=".title"), url_matcher="*",
             handler=_title, priority=10),
        Rule(group=g_group, selector=Selector(css="a.url"), url_matcher="*",
             handler=_url, priority=20),
        Rule(group=g_group, selector=Selector(css=".description"), url_matcher="*",
             handler=_description, priority=30),
        Rule(group=g_group, selector=Selector(css="img.thumb"), url_matcher="*",
             handler=_image, priority=40),
        Rule(group=Selector(selector=":root"), selector=Selector(css="a.nav"),
             url_matcher="*", handler=_link, priority=50),
        Rule(group=Selector(css=".pagination"), selector=Selector(css="a.next"),
             url_matcher="*", handler=_next_page, priority=60),
        Rule(group=Selector(css="div.content"), selector=Selector(css="p.para"),
             url_matcher="*", handler=_para, priority=70),
    ]


def read_corpus(corpus_dir: str, columns: Optional[list[str]] = None):
    """Column-pruned read of the corpus web table."""
    from dude_ray.io import read_parquet_clean

    return read_parquet_clean(f"{corpus_dir}/web", columns=columns)


def run_extract(sf_dir: str, batch_size: int = 256, corpus_scale: int = 1,
                seed_every: int = 2, num_parts: Optional[int] = None):
    """Headline extraction pipeline: corpus html → span sequences.

    A task stage: ``map_batches`` gets a ``SpanExtractor`` instance,
    which each task unpickles and whose selectors compile lazily on
    first use, so no worker process is started or kept for it.
    pyarrow batches end-to-end; reads only (doc_id, html).
    ``corpus_scale`` selects the corpus profile (bench uses the same
    scaled corpus as the crawl so "whole-corpus extraction" measures the
    full page set)."""
    from ..sources.corpus import DEFAULT_NUM_PARTS, ensure_corpus
    from ..stages.extract import SpanExtractor

    corpus_dir = ensure_corpus(sf_dir, scale=corpus_scale,
                               seed_every=seed_every,
                               num_parts=num_parts or DEFAULT_NUM_PARTS)
    ds = read_corpus(corpus_dir, columns=["doc_id", "html"])
    return ds.map_batches(SpanExtractor(flagship_rules()),
                          batch_format="pyarrow", batch_size=batch_size)


def export_spans(sf_dir: str, dest: str, **extract_kwargs) -> str:
    """Extract and persist the interleaved (doc_id, spans) table in the
    north rule's storage format — Lance when pylance is importable,
    parquet with the identical schema otherwise (see
    dude_ray.io.write_interleaved).  Returns the format written."""
    from dude_ray.io import write_interleaved

    return write_interleaved(run_extract(sf_dir, **extract_kwargs), dest)


def run_anchor_texts(sf_dir: str, target_rows_per_group: int = 65536,
                     **extract_kwargs):
    """Incoming-anchor-text aggregation — the classic web-graph signal
    (anchor text describes the TARGET page better than its own body;
    search/quality pipelines aggregate it per target URL).  Built on
    the span corpus: link spans (kind='link') resolve media_ref
    against the source page with the same RFC 3986 LinkCanonicalizer
    the crawl uses, then one data-scaled hash-grouped reduce on the
    target URL produces per-target (n_incoming, n_distinct_anchors,
    top_anchor) — top anchor by count, lexicographic tie-break.

    Scale shape: extract is the stateless span-extraction task stage,
    fused with the explode, which emits pre-counted (target, anchor, n)
    partials per batch, so the single shuffle carries one row per
    (target, anchor) per batch — bounded by distinct anchor phrasings,
    not by link volume.  Non-SQL-expressible end-to-end (the spans come
    from the HTML parse), so correctness is pytest: a serial recompute
    over the same extractor output (see tests/test_pipelines.py)."""
    from ..canonical import LinkCanonicalizer

    spans = run_extract(sf_dir, **extract_kwargs)

    def explode_links(batch: pa.Table) -> pa.Table:
        tg, an, ct = [], [], []
        for did, sp in zip(batch["doc_id"].to_pylist(),
                           batch["spans"].to_pylist()):
            canon = LinkCanonicalizer(did)
            local: dict[tuple[str, str], int] = {}
            for s in sp:
                if s["kind"] != "link" or not s["media_ref"]:
                    continue
                k = (canon(s["media_ref"]), s["text"] or "")
                local[k] = local.get(k, 0) + 1
            for (t, a), n in local.items():
                tg.append(t)
                an.append(a)
                ct.append(n)
        return pa.table({
            "target": pa.array(tg, type=pa.string()),
            "anchor": pa.array(an, type=pa.string()),
            "n": pa.array(ct, type=pa.int64()),
        })

    pairs = spans.map_batches(explode_links, batch_format="pyarrow",
                              batch_size=512)
    from ..partitioning import parquet_row_groups
    from ..sources.corpus import DEFAULT_NUM_PARTS, ensure_corpus

    # size the reduce from the SAME corpus variant run_extract reads
    # (forwarded kwargs may select a scaled profile)
    corpus_dir = ensure_corpus(
        sf_dir, scale=extract_kwargs.get("corpus_scale", 1),
        seed_every=extract_kwargs.get("seed_every", 2),
        num_parts=extract_kwargs.get("num_parts") or DEFAULT_NUM_PARTS)
    n_pages = sum(n for _f, _rg, n in parquet_row_groups(corpus_dir))

    def reduce_targets(t: pa.Table) -> pa.Table:
        g = group_agg(t, ["target", "anchor"], {"n": ("n", "sum")})
        # top anchor per target: max count, then lexicographically
        # smallest anchor — one sort, then each target's first row
        g = g.sort_by([("target", "ascending"), ("n", "descending"),
                       ("anchor", "ascending")])
        return group_agg(g, "target", {
            "n_incoming": ("n", "sum"),
            "n_distinct_anchors": ([], "count_all"),
            "top_anchor": ("anchor", "first")})

    # key cardinality ≈ pages (every target is a page); ~8 nav/content
    # links per page in the corpus profile sizes the pre-reduce stream
    return hash_grouped_reduce(
        pairs, "target", reduce_targets, n_rows=max(n_pages, 1) * 8,
        target_rows_per_group=target_rows_per_group,
        out_cols=("target", "n_incoming", "n_distinct_anchors",
                  "top_anchor"))


# --------------------------------------------------------------------------
# extract-spans oracle (upgrades extract_spans from rows-only to SQL-checked)
# --------------------------------------------------------------------------

def corpus_span_skeleton_py(n_docs: int):
    """The flagship extractor's span SKELETON as a pure function of
    ``n_docs``: every span's (doc, offset, kind, media_ref) plus either
    its literal text (titles/nav/next/image — rng-determined, never
    text-dependent) or the (group-index, window-length) parameters of
    a text-derived span (description = 16 words from offset (g·7) mod
    len(words), paragraph = 24 words from (p·13) mod len(words) — see
    sources.corpus._build_struct).  The rng draws that shape the page
    never consume document text, so the skeleton is exact at any text;
    emission order mirrors sources.corpus._golden_spans (group 0, next,
    paragraphs, remaining groups), which the engine's real HTML parse
    is already golden-tested against.  Returns (host_bounds, rows) with
    rows = [(doc_id, offset, kind, media_ref, lit|None, gp|None,
    wlen|None)]."""
    from ..sources.corpus import _build_struct, host_boundaries

    bounds = host_boundaries(n_docs)
    rows: list[tuple] = []
    for i in range(n_docs):
        s = _build_struct(i, "", n_docs, bounds)
        off = 0

        def add(kind, lit, ref="", gp=None, wlen=None):
            nonlocal off
            rows.append((i, off, kind, ref, lit, gp, wlen))
            off += 1

        def add_group(gi, g):
            add("title", g["title"])
            add("url", g["title"], g["url_href"])
            if g["description"] is not None:
                add("description", None, "", gp=gi, wlen=16)
            if g["image"] is not None:
                add("image", "", g["image"])

        for text, href in s.nav_links:
            add("link", text, href)
        if s.groups:
            add_group(0, s.groups[0])
        if s.next_href is not None:
            add("next", "Next Page", s.next_href)
        for p in range(len(s.paras)):
            add("text", None, "", gp=p, wlen=24)
        for gi, g in enumerate(s.groups[1:], start=1):
            add_group(gi, g)
    return bounds, rows


def extract_spans_oracle_sql(sf_dir: str | None = None) -> str:
    """DuckDB oracle for the exploded flagship extraction
    (``extract_spans``): the rng-determined span skeleton is inlined
    as VALUES and the text-derived spans (descriptions, paragraphs)
    are REBUILT IN SQL from the documents table's own text via the
    same word-window arithmetic the corpus generator uses — so the
    oracle checks the whole chain (render → parse → extract → explode)
    against an independent recomputation over the real input data."""
    import os

    import pyarrow.parquet as pq

    sf_dir = sf_dir or os.environ.get("GRAFT_ORACLE_SF",
                                      "/root/testdata/sf0.01")
    n_docs = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    bounds, rows = corpus_span_skeleton_py(n_docs)
    if not rows:
        raise ValueError("empty span skeleton")

    def q(s: str) -> str:
        return "'" + s.replace("'", "''") + "'"

    b_vals = ",".join(f"({h}, {bounds[h]}, {bounds[h + 1]})"
                      for h in range(len(bounds) - 1))
    sk_vals = ",".join(
        f"({d},{o},{q(k)},{q(r)},"
        f"{q(lit) if lit is not None else 'NULL'},"
        f"{gp if gp is not None else 'NULL'},"
        f"{wl if wl is not None else 'NULL'})"
        for d, o, k, r, lit, gp, wl in rows)
    return f"""
        WITH bounds(h, lo, hi) AS (VALUES {b_vals}),
        nodes AS (
            SELECT d.doc_id AS id,
                   'https://h' || lpad(CAST(b.h AS VARCHAR), 4, '0')
                       || '.test/docs/' || CAST(d.doc_id AS VARCHAR)
                       || '.html' AS node,
                   CASE WHEN len(regexp_extract_all(
                                 coalesce(d.text, ''), '\\S+')) = 0
                        THEN ['empty']
                        ELSE regexp_extract_all(coalesce(d.text, ''),
                                                '\\S+')
                   END AS w
            FROM documents d JOIN bounds b
              ON d.doc_id >= b.lo AND d.doc_id < b.hi
        ), sk(did, off, kind, media_ref, lit, gp, wlen)
            AS (VALUES {sk_vals})
        SELECT n.node AS doc_id, sk.kind,
               CASE WHEN sk.lit IS NOT NULL THEN sk.lit
                    ELSE array_to_string(n.w[
                        (sk.gp * CASE WHEN sk.wlen = 16 THEN 7
                                      ELSE 13 END) % len(n.w) + 1 :
                        (sk.gp * CASE WHEN sk.wlen = 16 THEN 7
                                      ELSE 13 END) % len(n.w)
                            + sk.wlen], ' ')
               END AS text,
               sk.media_ref, CAST(sk.off AS BIGINT) AS offset
        FROM sk JOIN nodes n ON n.id = sk.did
    """
