"""Extraction-semantics tests — the reference's per-backend full-flow
suites (/root/reference/tests/test_bs4.py, test_lxml.py, test_parsel.py)
re-encoded against the single Arrow extractor."""

import itertools

from dude_ray.htmlparser import Element, parse_html
from dude_ray.rule import Rule, Selector, rule_filter, rule_grouper, rule_sorter
from dude_ray.scraped import ScrapedData
from dude_ray.stages.extract import (
    _CompiledRules,
    extract_all,
    extract_page_flat,
    flatten,
    rows_to_spans,
)


def compiled_for(app):
    return _CompiledRules(list(app.build_spec().scraping_rules()))


def make_css_rules(app):
    @app.group(css=".custom-group")
    @app.select(css=".title")
    def title(el):
        return {"title": el.text_content()}

    @app.select(css="a.url", group_css=".custom-group")
    def url(el):
        return {"url": el.attrs["href"]}


def test_full_flow_css(app, dude_html, base_url, expected_data):
    """(/root/reference/tests/test_bs4.py:171-189 golden)"""
    make_css_rules(app)
    rows = extract_page_flat(compiled_for(app), dude_html, base_url)
    assert rows == expected_data


def test_full_flow_xpath(app, dude_html, base_url, expected_data):
    """(/root/reference/tests/test_lxml.py:55-63,178): xpath selectors
    with /text() and /@href terminal steps."""

    @app.select(xpath='.//p[contains(@class, "title")]/text()',
                group_xpath='.//div[contains(@class, "custom-group")]')
    def title(el):
        return {"title": el}

    @app.select(xpath='.//a[contains(@class, "url")]/@href',
                group_xpath='.//div[contains(@class, "custom-group")]')
    def url(el):
        return {"url": el}

    rows = extract_page_flat(compiled_for(app), dude_html, base_url)
    assert rows == expected_data


def test_full_flow_parsel_pseudo(app, dude_html, base_url, expected_data):
    """parsel ::text / ::attr() pseudo-elements
    (/root/reference/tests/test_parsel.py:30-40)."""

    @app.select(css=".title::text", group_css=".custom-group")
    def title(el):
        return {"title": el}

    @app.select(css="a.url::attr(href)", group_css=".custom-group")
    def url(el):
        return {"url": el}

    rows = extract_page_flat(compiled_for(app), dude_html, base_url)
    assert rows == expected_data


def test_text_selector(app, dude_html, base_url):
    """text= selects elements whose direct text contains the needle
    (/root/reference/tests/test_lxml.py:178-226 family)."""

    @app.select(text="Title", group_css=".custom-group")
    def title(el):
        return {"title": el.text_content()}

    rows = extract_page_flat(compiled_for(app), dude_html, base_url)
    assert [r["title"] for r in rows] == ["Title 1", "Title 2", "Title 3"]


def test_regex_selector(app, dude_html, base_url):
    @app.select(regex=r"title\s\d", group_css=".custom-group")  # case-insensitive
    def title(el):
        return {"title": el.text_content()}

    rows = extract_page_flat(compiled_for(app), dude_html, base_url)
    assert [r["title"] for r in rows] == ["Title 1", "Title 2", "Title 3"]


def test_generator_handler(app, dude_html, base_url):
    """Generator handlers fan out with re-assigned element_index
    (/root/reference/dude/base.py:541-551; golden
    /root/reference/tests/conftest.py:139-169)."""

    @app.select(css="body")  # one element; handler yields 3 dicts
    def generator(el):
        for grp in el.iter():
            if "custom-group" not in grp.classes:
                continue
            url = next(e.attrs["href"] for e in grp.iter() if e.tag == "a")
            title = next(e.text_content() for e in grp.iter()
                         if e.tag == "p" and "title" in e.classes)
            yield {"url": url, "title": title}

    rows = extract_page_flat(compiled_for(app), dude_html, base_url)
    assert rows == [
        {"_page_number": 1, "_page_url": base_url, "_group_id": 0,
         "_group_index": 0, "_element_index": i,
         "url": f"url-{i + 1}.html", "title": f"Title {i + 1}"}
        for i in range(3)
    ]


def test_empty_dict_handler_filtered(app, dude_html, base_url):
    """Falsy handler results contribute nothing
    (/root/reference/dude/base.py:553-554; /root/reference/tests/test_bs4.py:31-33)."""

    @app.select(css=".title", group_css=".custom-group")
    def empty(el):
        return {}

    assert extract_page_flat(compiled_for(app), dude_html, base_url) == []


def test_url_match_filters_rules(app, dude_html, base_url):
    """url_match glob gates which rules fire
    (/root/reference/dude/rule.py:78-86)."""

    @app.select(css=".title", group_css=".custom-group", url_match="https://other.example/*")
    def title(el):
        return {"title": el.text_content()}

    @app.select(css="a.url", group_css=".custom-group", url_match="https://dwmc.ron.sh*")
    def url(el):
        return {"url": el.attrs["href"]}

    rows = extract_page_flat(compiled_for(app), dude_html, base_url)
    assert all("title" not in r for r in rows)
    assert [r["url"] for r in rows] == ["url-1.html", "url-2.html", "url-3.html"]


def test_priority_orders_handler_merge(app, dude_html, base_url):
    """Within a group, rules run in priority order (lowest first —
    /root/reference/dude/base.py:168); later handlers win key collisions
    (last-writer-wins dict.update, /root/reference/dude/base.py:617)."""

    @app.select(css=".title", group_css=".custom-group", priority=200)
    def low(el):
        return {"who": "low"}

    @app.select(css=".title", group_css=".custom-group", priority=1)
    def high(el):
        return {"who": "high"}

    rows = extract_page_flat(compiled_for(app), dude_html, base_url)
    assert all(r["who"] == "low" for r in rows)


def test_missing_description_group(app, dude_html, base_url):
    """Group 2 of the fixture has no .description — its row simply lacks
    the key (CSV header union handles it downstream)."""

    @app.select(css=".title", group_css=".custom-group")
    def title(el):
        return {"title": el.text_content()}

    @app.select(css=".description", group_css=".custom-group")
    def description(el):
        return {"description": el.text_content()}

    rows = extract_page_flat(compiled_for(app), dude_html, base_url)
    assert "description" in rows[0] and "description" in rows[2]
    assert "description" not in rows[1]


def test_multiple_group_selectors_do_not_merge(app, base_url):
    """Two group selectors with equal group_index must not merge — the
    deterministic group ordinal replaces the reference's id(group)
    (/root/reference/dude/scraped_data.py:18-19)."""
    html = '<div class="g1"><p class="a">A</p></div><div class="g2"><p class="b">B</p></div>'

    @app.select(css=".a", group_css=".g1")
    def a(el):
        return {"a": el.text_content()}

    @app.select(css=".b", group_css=".g2")
    def b(el):
        return {"b": el.text_content()}

    rows = extract_page_flat(compiled_for(app), html, base_url)
    assert len(rows) == 2
    assert {"a"} <= set(rows[0]) or {"a"} <= set(rows[1])
    assert not any("a" in r and "b" in r for r in rows)


def test_spans_output(app, dude_html, base_url):
    """Span-sequence contract: (kind, text, media_ref, offset) in
    deterministic (group_index, element_index) order."""

    @app.select(css=".title", group_css=".custom-group")
    def title(el):
        return {"title": el.text_content()}

    @app.select(css="a.url", group_css=".custom-group")
    def url(el):
        return {"url": (el.text_content(), el.attrs["href"])}

    dom = parse_html(dude_html)
    rows = list(extract_all(compiled_for(app), dom, base_url))
    spans = rows_to_spans(rows)
    assert spans == [
        {"kind": "title", "text": "Title 1", "media_ref": "", "offset": 0},
        {"kind": "url", "text": "Title 1", "media_ref": "url-1.html", "offset": 1},
        {"kind": "title", "text": "Title 2", "media_ref": "", "offset": 2},
        {"kind": "url", "text": "Title 2", "media_ref": "url-2.html", "offset": 3},
        {"kind": "title", "text": "Title 3", "media_ref": "", "offset": 4},
        {"kind": "url", "text": "Title 3", "media_ref": "url-3.html", "offset": 5},
    ]


def _describe(x):
    return {"v": (x.tag, x._order) if isinstance(x, Element) else x}


def _reference_extract(rules, dom, url):
    """``extract_all`` for plain handlers as a per-scope loop: every
    group element calls ``matcher(selector)`` on its own subtree — the
    spec that the set-at-a-time path must reproduce."""
    spec = _CompiledRules(rules)
    gids = {g: i for i, g in enumerate(
        sorted({r.group.to_str(with_type=True) for r in rules}))}
    kept = sorted(filter(rule_filter(url), rules), key=rule_sorter)
    rows = []
    for group, g in itertools.groupby(kept, key=rule_grouper):
        by_priority = sorted(g, key=lambda r: r.priority)
        gid = gids[group.to_str(with_type=True)]
        for gi, gel in enumerate(spec.matcher(group)(dom)):
            if not isinstance(gel, Element):
                continue
            for r in by_priority:
                for ei, el in enumerate(spec.matcher(r.selector)(gel)):
                    data = r.handler(el)
                    if data:
                        rows.append(ScrapedData(1, url, gid, gi, ei, data))
    return rows


def _differential_rules(url_matcher="*"):
    groups = [Selector(css=".custom-group"), Selector(selector=":root"),
              Selector(css="div"), Selector(css="body > *"),
              Selector(css="ul, div#y"), Selector(css="p + p"),
              Selector(css="*"), Selector(css=".title::text"),
              Selector(xpath=".//div")]
    selectors = [
        Selector(css=".title"), Selector(css="a.url"), Selector(css="p"),
        Selector(css="*"), Selector(css=":root"), Selector(css=":root, p"),
        Selector(css="p ~ p"), Selector(css="li + li"),
        Selector(css="span.m"), Selector(css=".a .a"),
        Selector(css="div > p:last-of-type"), Selector(css="[data-x]"),
        Selector(css="li:nth-child(odd)"), Selector(css="li:not(.a)"),
        Selector(css="p:first-child"), Selector(css=".title::text"),
        Selector(css="a::attr(href)"), Selector(css="a.nav, p.para"),
        Selector(selector="img.thumb"), Selector(xpath=".//a/@href"),
        Selector(xpath=".//p/text()"), Selector(text="Title"),
        Selector(regex=r"t\w+"),
    ]
    return [Rule(group=g, selector=s, url_matcher=url_matcher,
                 handler=_describe, priority=(7 * i + 3 * j) % 11)
            for i, g in enumerate(groups) for j, s in enumerate(selectors)]


def test_set_at_a_time_extract_matches_per_scope_loop(dude_html, base_url):
    """Set-at-a-time ``extract_all`` (each CSS selector once per page,
    sliced per group element) yields exactly the per-scope loop's rows,
    over the selector fixtures and the sf0.001 corpus, with the
    URL-independent plan and with per-URL rule filtering."""
    import pyarrow.dataset as pads
    from test_crawl import SF
    from test_htmlparser import (CSSX_HTML, HTML, XEXPR_HTML, XGRAM_HTML,
                                 XHTML)

    from dude_ray.sources.corpus import ensure_corpus

    cd = ensure_corpus(SF, scale=1, seed_every=2)
    t = pads.dataset(f"{cd}/web", partitioning="hive").to_table(
        columns=["doc_id", "html"])
    pages = [(base_url, h) for h in (dude_html, HTML, XHTML, XGRAM_HTML,
                                     CSSX_HTML, XEXPR_HTML, "")]
    pages += list(zip(t["doc_id"].to_pylist()[:150],
                      t["html"].to_pylist()[:150]))
    star = _differential_rules()
    # a glob matcher and a predicate: the plan is filtered per URL
    mixed = (_differential_rules(url_matcher="*/docs/1*")[::2]
             + _differential_rules(url_matcher=lambda u: u.endswith("5.html"))[1::2])
    assert _CompiledRules(star)._static_plan is not None
    assert _CompiledRules(mixed)._static_plan is None
    n_rows = n_mixed = 0
    for rules in (star, mixed):
        compiled = _CompiledRules(rules)
        for url, html in pages:
            got = list(extract_all(compiled, parse_html(html), url))
            assert got == _reference_extract(rules, parse_html(html), url), url
            n_rows += len(got)
            n_mixed += len(got) * (rules is mixed)
    assert n_rows > 100_000 and n_mixed > 1000
