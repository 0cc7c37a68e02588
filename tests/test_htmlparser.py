"""DOM + selector-engine unit tests (the stdlib-only replacement for the
reference's bs4/lxml/parsel backends)."""

from dude_ray.htmlparser import (
    compile_css,
    compile_xpath,
    css_select,
    parse_html,
    regex_select,
    text_select,
    xpath_select,
)

HTML = """
<html><body>
<div id="main" class="wrap outer">
  <p class="a b">one</p>
  <span class="a">two</span>
  <div class="inner"><p class="a">three</p></div>
</div>
<ul>
  <li data-x="1">L1</li>
  <li data-x="2" class="sel">L2</li>
</ul>
</body></html>
"""


def sel(css, scope=None):
    dom = scope or parse_html(HTML)
    return css_select(dom, compile_css(css))


def texts(els):
    return [e.text_content() for e in els]


def test_tag_and_class():
    assert texts(sel("p")) == ["one", "three"]
    assert texts(sel(".a")) == ["one", "two", "three"]
    assert texts(sel("p.a")) == ["one", "three"]
    assert texts(sel("span.a")) == ["two"]


def test_multi_class_and_id():
    assert texts(sel(".a.b")) == ["one"]
    assert len(sel("#main")) == 1
    assert sel("#main")[0].tag == "div"


def test_descendant_and_child_combinators():
    assert texts(sel(".inner p")) == ["three"]
    assert texts(sel("#main > p")) == ["one"]
    assert texts(sel("ul > li")) == ["L1", "L2"]


def test_attr_selectors():
    assert texts(sel("li[data-x]")) == ["L1", "L2"]
    assert texts(sel('li[data-x="2"]')) == ["L2"]


def test_selector_list_document_order():
    assert texts(sel("span.a, p.a")) == ["one", "two", "three"]


def test_root_selector():
    dom = parse_html(HTML)
    els = sel(":root", dom)
    assert [e.tag for e in els] == ["html"]


def test_pseudo_text_and_attr():
    dom = parse_html(HTML)
    c = compile_css("li.sel::text")
    assert c.extract == "text"
    c2 = compile_css("li[data-x]::attr(data-x)")
    assert c2.extract == ("attr", "data-x")


def test_xpath_steps_and_predicates():
    dom = parse_html(HTML)
    els = xpath_select(dom, compile_xpath('.//p[contains(@class, "a")]'))
    assert texts(els) == ["one", "three"]
    els = xpath_select(dom, compile_xpath('.//li[@data-x="2"]'))
    assert texts(els) == ["L2"]
    els = xpath_select(dom, compile_xpath('.//ul/li'))
    assert texts(els) == ["L1", "L2"]
    els = xpath_select(dom, compile_xpath('.//p[contains(text(), "thr")]'))
    assert texts(els) == ["three"]


XHTML = """
<html><body>
<div id="x" class="hd">H</div>
<p>p1</p>
<p>p2</p>
<p>p3</p>
<div id="y">
  <span>s1</span><span class="m">s2</span><span class="m">s3</span>
</div>
<div><span>d1</span></div>
</body></html>
"""


def test_xpath_axes_and_indexing():
    """The broadened location-path grammar: attribute predicates +
    positional indexing + explicit axes (the
    /root/reference/tests/test_lxml.py:178-226-family forms a real dude
    user writes, e.g. //div[@id='x']/following-sibling::p[2])."""
    dom = parse_html(XHTML)
    x = lambda e: xpath_select(dom, compile_xpath(e))
    # attribute predicate + indexing
    assert texts(x("//div[@id='x']")) == ["H"]
    assert texts(x("//p[2]")) == ["p2"]
    assert texts(x("//p[last()]")) == ["p3"]
    assert texts(x("//p[position()=3]")) == ["p3"]
    # following-sibling with index
    assert texts(x("//div[@id='x']/following-sibling::p[2]")) == ["p2"]
    assert [t.strip() for t in
            texts(x("//div[@id='x']/following-sibling::div[1]"))] == ["s1s2s3"]
    # preceding-sibling counts nearest-first
    assert texts(x("//div[@id='y']/preceding-sibling::p[1]")) == ["p3"]
    # child:: axis and chained ordered predicates
    assert texts(x("//div[@id='y']/child::span[2]")) == ["s2"]
    assert texts(x("//div[@id='y']/span[@class='m'][2]")) == ["s3"]
    assert texts(x("//div[@id='y']/span[2][@class='m']")) == ["s2"]
    # abbreviated //tag[n] counts per parent (spec expansion)
    assert texts(x("//span[1]")) == ["s1", "d1"]
    # explicit descendant:: counts over the whole subtree
    assert texts(x("descendant::span[4]")) == ["d1"]
    # parent:: / self:: / .. steps
    assert [e.attrs.get("id") for e in x("//span[@class='m']/..")] == ["y"]
    assert texts(x("//p[2]/self::p")) == ["p2"]
    # text()= equality
    assert texts(x("//span[text()='s3']")) == ["s3"]


def test_xpath_reference_fixture_forms(dude_html):
    """The exact reference-test xpaths (test_lxml.py:57-63) over the
    dude.html fixture: group + value extraction shapes."""
    dom = parse_html(dude_html)
    groups = xpath_select(
        dom, compile_xpath('.//div[contains(@class, "custom-group")]'))
    assert len(groups) == 3
    c = compile_xpath('.//p[contains(@class, "title")]/text()')
    assert c.extract == "text"
    titles = [el.text for g in groups for el in xpath_select(g, c)]
    assert titles == ["Title 1", "Title 2", "Title 3"]
    c2 = compile_xpath('.//a[contains(@class, "url")]/@href')
    assert c2.extract == ("attr", "href")
    hrefs = [el.attrs["href"] for g in groups for el in xpath_select(g, c2)]
    assert hrefs == ["url-1.html", "url-2.html", "url-3.html"]


def test_xpath_extractors():
    x = compile_xpath('.//li/@data-x')
    assert x.extract == ("attr", "data-x")
    x2 = compile_xpath('.//p[contains(@class, "a")]/text()')
    assert x2.extract == "text"


def test_text_and_regex_select_direct_text_only():
    dom = parse_html("<div>outer<p>match inner</p></div>")
    # 'match' is direct text of <p>, not of <div>
    assert [e.tag for e in text_select(dom, "match")] == ["p"]
    assert [e.tag for e in regex_select(dom, r"MATCH\s")] == ["p"]  # case-insensitive


def test_malformed_html_recovers():
    dom = parse_html("<div class='g'><p class='t'>Ok<div><span>tail")
    assert texts(sel(".t", dom)) == ["Oktail"] or texts(sel(".t", dom))[0].startswith("Ok")


def test_entity_decoding():
    dom = parse_html('<p class="t">A &amp; B &lt;ok&gt;</p>')
    assert texts(sel(".t", dom)) == ["A & B <ok>"]


def test_void_elements_do_not_nest():
    dom = parse_html('<div><img src="x.png"><p class="t">after</p></div>')
    img = sel("img", dom)[0]
    assert img.children == []
    assert texts(sel(".t", dom)) == ["after"]


def test_index_consistency_after_reuse():
    dom = parse_html(HTML)
    a1 = texts(sel(".a", dom))
    a2 = texts(sel(".a", dom))  # cached index path
    assert a1 == a2 == ["one", "two", "three"]


def test_fast_parser_matches_strict(dude_html):
    """The fast tokenizer must build the identical tree (modulo adjacent
    text-node merging, which stdlib splits arbitrarily) to the stdlib
    html.parser reference over every fixture and tricky shapes."""
    from dude_ray.htmlparser import parse_html_strict

    def norm(el):
        kids, buf = [], []
        for c in el.children:
            if isinstance(c, str):
                buf.append(c)
            else:
                if buf:
                    kids.append("".join(buf))
                    buf = []
                kids.append(norm(c))
        if buf:
            kids.append("".join(buf))
        return (el.tag, dict(el.attrs), kids)

    cases = [
        dude_html,
        HTML,
        '<ul><li>a<li>b</ul>',
        '<a href=foo>x</a><a href>y</a><a href="a&amp;b">z</a>',
        '<script>if (a<b) { x(); }</script><p>after</p>',
        '<style>p{color:red}</style>text',
        '<!-- c --><!DOCTYPE html><p>x</p>',
        '<div><span>unclosed<p>para</div>tail',
        '<p>5 < 6 and & more</p>',
        '<A HREF="X">UP</A>',
        '<div data-x="1" data-x="2">dup</div>',
        '<div/>selfclosed<p>q</p>',
        '<em>stray</b></em>done',
        '<td rowspan=2 nowrap>cell',
        "<p title='sin&#39;gle'>q</p>",
        '<x:ns attr:b="1">ns</x:ns>',
        '<br><img src=x.png><hr/>',
        '<a href=http://e.com/a/b/>link</a>',   # unquoted value eats '/'
        '<a href=foo/>bar</a>',                  # ditto: href == 'foo/'
        '<a href=foo />bar</a>',                 # space: real self-close
        '<input disabled/>',                     # bare attr + self-close
        '<x a=b c/>',                            # valueless attr then '/'
        '<input value=/>',                       # value is literally '/'
    ]
    for h in cases:
        assert norm(parse_html(h)) == norm(parse_html_strict(h)), h


def test_fast_parser_matches_strict_on_corpus():
    """Whole-corpus tree equivalence (sf0.001 generated pages)."""
    from dude_ray.htmlparser import parse_html_strict
    from dude_ray.sources.corpus import ensure_corpus, load_manifest
    from dude_ray.stages.fetch import CorpusFetcher

    def norm(el):
        kids, buf = [], []
        for c in el.children:
            if isinstance(c, str):
                buf.append(c)
            else:
                if buf:
                    kids.append("".join(buf))
                    buf = []
                kids.append(norm(c))
        if buf:
            kids.append("".join(buf))
        return (el.tag, dict(el.attrs), kids)

    cd = ensure_corpus("/root/testdata/sf0.001", scale=1, seed_every=2)
    f = CorpusFetcher(cd, load_manifest(cd)["num_parts"])
    import pyarrow.dataset as pads

    urls = pads.dataset(f"{cd}/web", partitioning="hive").to_table(
        columns=["doc_id"])["doc_id"].to_pylist()
    for h in f.lookup(urls):
        assert norm(parse_html(h)) == norm(parse_html_strict(h))


def test_root_candidates_match_walk(dude_html):
    """``:root`` selects from the document's top-level elements instead
    of walking the tree; bare, with pseudos, in a selector list and
    from inner scopes it equals the subtree walk, over every selector
    fixture here and the sf0.001 corpus."""
    from dude_ray.htmlparser import _match_sequence
    from dude_ray.sources.corpus import ensure_corpus, load_manifest
    from dude_ray.stages.fetch import CorpusFetcher

    selectors = [compile_css(c) for c in (
        ":root", ":root:first-child", ":root:not(p)", ":root:only-child",
        ":root, p", ":root > body")]

    def walk(scope, compiled):
        return [el for el in scope.iter()
                if any(_match_sequence(el, alt)
                       for alt in compiled.alternatives)]

    cd = ensure_corpus("/root/testdata/sf0.001", scale=1, seed_every=2)
    f = CorpusFetcher(cd, load_manifest(cd)["num_parts"])
    import pyarrow.dataset as pads

    urls = pads.dataset(f"{cd}/web", partitioning="hive").to_table(
        columns=["doc_id"])["doc_id"].to_pylist()
    pages = [dude_html, HTML, XHTML, XGRAM_HTML, CSSX_HTML, XEXPR_HTML,
             "<p>a</p><p>b</p>text<div><p>c</p></div>", ""]
    pages += f.lookup(urls)
    n_root = 0
    for h in pages:
        dom = parse_html(h)
        scopes = [dom] + list(dom.iter())[:3]
        for scope in scopes:
            for compiled in selectors:
                got = css_select(scope, compiled)
                assert got == walk(scope, compiled), (h[:60], scope)
        n_root += len(css_select(dom, selectors[0]))
    assert n_root >= len(pages) - 1  # every non-empty page has a root

# --------------------------------------------------------------------------
# extended XPath grammar (round 3): boolean predicates, new axes,
# unions, predicate sub-paths
# --------------------------------------------------------------------------

XGRAM_HTML = """<html><body>
<div id="x"><span class="a b">one</span></div>
<p class="p1">alpha</p>
<p class="p2">beta</p>
<p class="p3">gamma</p>
<ul><li data-x="1">L1</li><li data-x="2">L2</li><li>L3</li></ul>
<div class="wrap"><a href="u1">A1</a><img src="i1"/><a href="u2">A2</a></div>
<div class="wrap2"><a href="u2">A2b</a></div>
</body></html>"""


def _xg(expr):
    from dude_ray.htmlparser import compile_xpath, parse_html, xpath_eval

    dom = parse_html(XGRAM_HTML)
    return [(x.tag, x.text) if hasattr(x, "tag") else x
            for x in xpath_eval(dom, compile_xpath(expr))]


def test_xpath_boolean_predicates():
    assert _xg("//p[@class='p1' or @class='p3']") == [
        ("p", "alpha"), ("p", "gamma")]
    assert _xg("//li[@data-x and position()<3]") == [
        ("li", "L1"), ("li", "L2")]
    assert _xg("//li[not(@data-x)]") == [("li", "L3")]
    assert _xg("//p[position()>1 and position()<=3]") == [
        ("p", "beta"), ("p", "gamma")]
    assert _xg("//li[(@data-x='1' or @data-x='2') and not(position()=1)]") == [
        ("li", "L2")]


def test_xpath_string_functions():
    assert _xg("//p[starts-with(@class,'p')][last()]") == [("p", "gamma")]
    assert _xg("//p[normalize-space()='beta']") == [("p", "beta")]
    assert _xg("//span[contains(.,'one')]") == [("span", "one")]
    assert _xg("//li[@data-x!='1']") == [("li", "L2")]  # absent attr → false


def test_xpath_new_axes():
    assert _xg("//span/ancestor::div") == [("div", "")]
    assert _xg("//span/ancestor-or-self::span") == [("span", "one")]
    assert _xg("//li[1]/following::a") == [
        ("a", "A1"), ("a", "A2"), ("a", "A2b")]
    # reverse axis: [1] = nearest preceding in reverse document order
    assert _xg("//a[@href='u1']/preceding::li[1]") == [("li", "L3")]
    assert _xg("/descendant-or-self::p[1]") == [("p", "alpha")]


def test_xpath_union():
    # element union: merged, document order, deduped
    assert _xg("//p[@class='p3'] | //p[@class='p1'] | //p[@class='p1']") == [
        ("p", "alpha"), ("p", "gamma")]
    # value union: per-branch extraction
    assert _xg("//a/@href | //img/@src") == ["u1", "u2", "u2", "i1"]


def test_xpath_predicate_subpaths():
    assert _xg("//div[.//a[@href='u2']][1]") == [("div", "")]
    assert _xg("//div[img/@src]")[0][0] == "div"
    assert _xg("//div[a and not(img)]") == [("div", "")]
    assert _xg("//li[not(span)]") == [
        ("li", "L1"), ("li", "L2"), ("li", "L3")]
    from dude_ray.htmlparser import compile_xpath, parse_html, xpath_eval

    dom = parse_html(XGRAM_HTML)
    wrap2 = xpath_eval(dom, compile_xpath("//div[a/text()='A2b']"))
    assert [e.attrs.get("class") for e in wrap2] == ["wrap2"]


# --------------------------------------------------------------------------
# extended CSS grammar (round 3): attribute operators, sibling
# combinators, structural pseudo-classes
# --------------------------------------------------------------------------

CSSX_HTML = """<html><body>
<ul><li class="a">1</li><li>2</li><li class="a">3</li><li>4</li><li>5</li></ul>
<div id="d"><p lang="en-US">x</p><p>y</p><span></span></div>
<a href="file.pdf">p</a><a href="http://x/page.html">h</a>
<h2>T</h2><p class="lead">L</p><p>M</p>
</body></html>"""


def _cs(expr):
    from dude_ray.htmlparser import compile_css, css_select, parse_html

    dom = parse_html(CSSX_HTML)
    return [(e.tag, e.text) for e in css_select(dom, compile_css(expr))]


def test_css_attribute_operators():
    assert _cs("a[href$='.pdf']") == [("a", "p")]
    assert _cs("a[href^='http']") == [("a", "h")]
    assert _cs("a[href*='page']") == [("a", "h")]
    assert _cs("p[lang|='en']") == [("p", "x")]
    assert _cs("p[lang~='en-US']") == [("p", "x")]


def test_css_structural_pseudos():
    assert _cs("li:nth-child(odd)") == [("li", "1"), ("li", "3"), ("li", "5")]
    assert _cs("li:nth-child(2n)") == [("li", "2"), ("li", "4")]
    assert _cs("li:nth-child(-n+2)") == [("li", "1"), ("li", "2")]
    assert _cs("li:first-child") == [("li", "1")]
    assert _cs("li:last-child") == [("li", "5")]
    assert _cs("li:not(.a)") == [("li", "2"), ("li", "4"), ("li", "5")]
    assert _cs("div > span:empty") == [("span", "")]


def test_css_sibling_combinators():
    assert _cs("h2 + p") == [("p", "L")]
    assert _cs("h2 ~ p") == [("p", "L"), ("p", "M")]
    assert _cs("ul > li.a + li") == [("li", "2"), ("li", "4")]


def test_css_last_family_pseudos():
    """:nth-last-child / :only-* / :first-of-type / :last-of-type —
    the residue vs parsel's cssselect noted in round 3's verdict."""
    assert _cs("li:nth-last-child(1)") == [("li", "5")]
    assert _cs("li:nth-last-child(2)") == [("li", "4")]
    assert _cs("li:nth-last-child(odd)") == \
        [("li", "1"), ("li", "3"), ("li", "5")]
    assert _cs("div > span:only-of-type") == [("span", "")]
    assert _cs("div > p:first-of-type") == [("p", "x")]
    assert _cs("div > p:last-of-type") == [("p", "y")]
    assert _cs("li:only-child") == []
    assert _cs("h2:only-of-type") == [("h2", "T")]


XEXPR_HTML = """<html><body>
<ul><li>one</li><li>two</li><li>three</li><li>four</li><li>five</li></ul>
<p id="a-1" data-n="2" a="x" b="y">hello</p>
<p id="bcdef" data-n="9" v="2.7">hi</p>
<div id="x"><a href="u1">A</a><a href="u2">B</a></div>
<div id="y"><a href="u3">C</a></div>
<span>  solo  </span>
</body></html>"""


def _xe(expr):
    from dude_ray.htmlparser import compile_xpath, parse_html, xpath_eval

    dom = parse_html(XEXPR_HTML)
    return [e.text_content() if hasattr(e, "text_content") else e
            for e in xpath_eval(dom, compile_xpath(expr))]


def test_xpath_expression_functions():
    """XPath 1.0 number/string functions + arithmetic in predicates —
    lxml/parsel accept arbitrary XPath (/root/reference/dude/optional/
    lxml_scraper.py:184-185); round 3's verdict flagged these as the
    remaining grammar residue."""
    assert _xe('//p[string-length(text()) > 3]') == ["hello"]
    assert _xe('//li[position() mod 2 = 1]') == ["one", "three", "five"]
    assert _xe('//p[number(@data-n) + 1 > 3]') == ["hi"]
    assert _xe("//p[concat(@a, '-', @b) = 'x-y']") == ["hello"]
    assert _xe("//p[substring(@id, 2, 3) = 'cde']") == ["hi"]
    assert _xe("//li[last() - 1]") == ["four"]
    assert _xe("//p[substring-before(@id, '-') = 'a']") == ["hello"]
    assert _xe("//p[substring-after(@id, '-') = '1']") == ["hello"]
    assert _xe("//p[translate(@a, 'x', 'z') = 'z']") == ["hello"]
    assert _xe("//p[floor(number(@v)) = 2]") == ["hi"]
    assert _xe("//p[round(number(@v)) = 3]") == ["hi"]
    assert _xe("//p[ceiling(number(@v)) = 3]") == ["hi"]
    assert _xe("//li[3 - 1]") == ["two"]
    assert _xe("//li[-(-2)]") == ["two"]
    assert _xe("//*[name() = 'span']") == ["  solo  "]
    assert _xe("//li[string(.) = 'two' or string(.) = 'five']") == \
        ["two", "five"]
    # count() over a relative node-set; the outer div holds 3 <a>
    from dude_ray.htmlparser import compile_xpath, parse_html, xpath_eval
    dom = parse_html(XEXPR_HTML)
    ids = [e.attrs.get("id") for e in
           xpath_eval(dom, compile_xpath('//div[count(.//a) >= 2]'))]
    assert ids == ["x"]
    assert _xe('//*[count(.//a) = 3]')  # the body-level container


def test_xpath_value_expressions():
    """Top-level value XPath (string()/concat()/count()) returns
    scalars, as lxml's xpath() does."""
    assert _xe("string(//p)") == ["hello"]
    assert _xe("concat('a', 'b', 'c')") == ["abc"]
    assert _xe("count(//a)") == [3.0]
    assert _xe("normalize-space(//span)") == ["solo"]
    assert _xe("string-length(string(//p))") == [5.0]
    assert _xe("substring('12345', 2, 3)") == ["234"]
    # XPath rounding semantics of substring positions
    assert _xe("substring('12345', 1.5, 2.6)") == ["234"]
    assert _xe("translate('bar', 'abc', 'ABC')") == ["BAr"]
    assert _xe("translate('--aaa--', 'a-', 'A')") == ["AAA"]


def test_xpath_expression_coercions():
    """Nodeset→string/number coercions and existential comparisons."""
    assert _xe("//p[@data-n = 2]") == ["hello"]        # string attr vs num
    assert _xe("//p[@data-n > 5]") == ["hi"]
    assert _xe("//div[a/@href = 'u3']") == ["C"]       # child:: default
    assert _xe("//div[.//a/@href = 'u2']") == ["AB"]   # existential =
    assert _xe("//p[number(@missing) != number(@missing)]") == \
        ["hello", "hi"]                                 # NaN != NaN
    assert _xe("//li[not(position() < 5)]") == ["five"]


def test_xpath_expression_spec_edges():
    """XPath 1.0 spec edges caught in round-4 review: Infinity
    stringification, the nodeset-vs-boolean comparison rule, plain
    decimal number→string form, the strict number() grammar, and
    top-level boolean/rounding value expressions."""
    assert _xe("string(1 div 0)") == ["Infinity"]
    assert _xe("string(-1 div 0)") == ["-Infinity"]
    assert _xe("concat(1 div 0, '!')") == ["Infinity!"]
    assert _xe("string(0.0000001)") == ["0.0000001"]
    assert _xe("string(1 div 4)") == ["0.25"]
    # boolean rule: boolean(empty nodeset) = false, so [q = false()]
    # must select every p with no <q> child
    assert _xe("//p[q = false()]") == ["hello", "hi"]
    assert _xe("//p[a = true()]") == []     # no <a> children under <p>
    assert _xe("//div[a = true()]") == ["AB", "C"]
    # strict Number grammar: exponent / inf forms are NaN
    assert _xe("//p[number('1e2') = 100]") == []
    assert _xe("number('1e2') != number('1e2')") == [True]  # NaN
    assert _xe("number('inf') != number('inf')") == [True]
    assert _xe("number('-.5') = -0.5") == [True]
    assert _xe("number('+5') != number('+5')") == [True]
    # top-level boolean / rounding calls compile as value expressions
    assert _xe("contains('abc', 'b')") == [True]
    assert _xe("starts-with('abc', 'a')") == [True]
    assert _xe("not(false())") == [True]
    assert _xe("round(2.5)") == [3.0]
    assert _xe("floor(2.9)") == [2.0]


# the tricky shapes of test_fast_parser_matches_strict
PARSER_CASES = [
    '<ul><li>a<li>b</ul>',
    '<a href=foo>x</a><a href>y</a><a href="a&amp;b">z</a>',
    '<script>if (a<b) { x(); }</script><p>after</p>',
    '<style>p{color:red}</style>text',
    '<!-- c --><!DOCTYPE html><p>x</p>',
    '<div><span>unclosed<p>para</div>tail',
    '<p>5 < 6 and & more</p>',
    '<A HREF="X">UP</A>',
    '<div data-x="1" data-x="2">dup</div>',
    '<div/>selfclosed<p>q</p>',
    '<em>stray</b></em>done',
    '<td rowspan=2 nowrap>cell',
    "<p title='sin&#39;gle'>q</p>",
    '<x:ns attr:b="1">ns</x:ns>',
    '<br><img src=x.png><hr/>',
    '<a href=http://e.com/a/b/>link</a>',
    '<a href=foo/>bar</a>',
    '<a href=foo />bar</a>',
    '<input disabled/>',
    '<x a=b c/>',
    '<input value=/>',
]


def test_parser_index_matches_lazy_walk(dude_html):
    """The index and ``[_order, _end]`` intervals that ``parse_html``
    builds while parsing equal those that ``Element.index()`` walks on
    the ``parse_html_strict`` tree of the same page, over every parser
    and selector fixture and the sf0.001 corpus."""
    from test_crawl import SF

    from dude_ray.htmlparser import parse_html_strict
    from dude_ray.sources.corpus import ensure_corpus, load_manifest
    from dude_ray.stages.fetch import CorpusFetcher

    def summary(root, index):
        keys = {k: [el._order for el in els] for k, els in index.items()}
        spans = [(root._order, root._end)]
        spans += [(el._order, el._end) for el in root.iter()]
        return keys, spans

    cd = ensure_corpus(SF, scale=1, seed_every=2)
    f = CorpusFetcher(cd, load_manifest(cd)["num_parts"])
    import pyarrow.dataset as pads

    urls = pads.dataset(f"{cd}/web", partitioning="hive").to_table(
        columns=["doc_id"])["doc_id"].to_pylist()
    pages = [dude_html, HTML, XHTML, XGRAM_HTML, CSSX_HTML, XEXPR_HTML,
             '<p class="a a\tb">dup class</p>', ""] + PARSER_CASES
    pages += f.lookup(urls)
    for h in pages:
        fast = parse_html(h)
        assert fast._index is not None  # stored, not walked
        strict = parse_html_strict(h)
        assert strict._index is None
        assert summary(fast, fast.index()) == summary(strict, strict.index()), h


def test_decompose_frees_page_without_cyclic_gc(dude_html):
    """A parsed page is cyclic until ``decompose()``; after it, dropping
    the page leaves the cyclic GC nothing to find."""
    import gc

    gc.collect()
    gc.disable()
    try:
        dom = parse_html(dude_html)
        del dom
        assert gc.collect() > 0
        dom = parse_html(dude_html)
        dom.decompose()
        del dom
        assert gc.collect() == 0
    finally:
        gc.enable()
