"""Selector extraction — dude's crawl-loop extraction re-expressed as a
stateless Ray Data ``map_batches`` stage over zero-copy Arrow batches.

Pure-function layer (unit-testable without Ray):

* ``compile_selector``   — Selector → matcher closure (compiled once).
* ``collect_elements``   — group × rule × element enumeration, exactly
  /root/reference/dude/optional/beautifulsoup_scraper.py:158-172 /
  lxml_scraper.py:162-176: rules sorted by (group, selector) then
  grouped by group selector; within a group, rules by priority;
  elements enumerated in document order.  Each CSS selector runs once
  per page (``_CompiledRules.page_selector``).
* ``extract_all``        — handler application with generator fan-out
  (re-indexed element_index) and falsy-result filtering
  (/root/reference/dude/base.py:532-563).
* ``flatten``            — sort by (page_number, group_index, group_id,
  element_index), group by the merge key, merge handler dicts with
  underscore-prefixed metadata (/root/reference/dude/base.py:610-622).
  Handler keys overwrite each other last-writer-wins (the reference's
  ``dict.update`` FIXME at /root/reference/dude/base.py:617).
* ``flat_to_spans``      — flattened rows → the span-sequence output
  contract (kind, text, media_ref, offset) of ``input_hint``.

Ray layer: ``SpanExtractor`` — a callable instance for
``ds.map_batches(SpanExtractor(rules), batch_format="pyarrow")``, which
Ray Data runs as a task stage (no actor pool: the rules are cheap,
immutable config, not state that must live across batches).  Each task
unpickles the ~1 KB instance and compiles the selectors it meets on
first use; per batch it parses each document's HTML and emits one
span-list row per doc.
"""

from __future__ import annotations

import asyncio
import bisect
import inspect
import itertools
import re
from types import GeneratorType
from typing import Any, Callable, Iterable, List, Optional, Tuple, Union

import pyarrow as pa

from ..htmlparser import (
    CompiledCSS,
    Element,
    compile_css,
    compile_xpath,
    css_select,
    parse_html,
    regex_select,
    text_select,
    xpath_eval,
)
from ..rule import Rule, Selector, SelectorType, rule_filter, rule_sorter
from ..scraped import ScrapedData, scraped_data_grouper, scraped_data_sorter

SPAN_TYPE = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
    ]
)
SPANS_TYPE = pa.list_(SPAN_TYPE)


def compile_selector(sel: Selector) -> Callable[[Element], List[Union[Element, str]]]:
    """Compile a Selector into a matcher closure.  ANY is treated as CSS,
    as every non-Playwright backend does
    (/root/reference/dude/optional/lxml_scraper.py:182-183)."""
    stype = sel.selector_type()
    s = sel.to_str()
    if stype in (SelectorType.CSS, SelectorType.ANY):
        compiled = compile_css(s)

        def css_fn(scope: Element) -> List[Union[Element, str]]:
            els = css_select(scope, compiled)
            if compiled.extract == "text":
                return [e.text_content() for e in els]
            if isinstance(compiled.extract, tuple):
                name = compiled.extract[1]
                return [e.attrs[name] for e in els if name in e.attrs]
            return list(els)

        return css_fn
    if stype == SelectorType.XPATH:
        compiled_x = compile_xpath(s)

        def xpath_fn(scope: Element) -> List[Union[Element, str]]:
            return xpath_eval(scope, compiled_x)

        return xpath_fn
    if stype == SelectorType.TEXT:
        return lambda scope: list(text_select(scope, s))
    rx = re.compile(s, re.IGNORECASE)
    return lambda scope: list(regex_select(scope, rx))


class _CompiledRules:
    """Compiled form of a rule list: the rule plan :func:`collect_elements`
    walks, plus one compiled program per distinct selector, keyed by
    ``to_str(with_type=True)`` and compiled on first use.  CSS programs
    run set-at-a-time (:meth:`page_selector`); XPath, TEXT and REGEX
    selectors, and :meth:`matcher`'s callers, use the per-scope
    :func:`compile_selector` closure, which is also the spec the CSS
    path is tested against."""

    def __init__(self, rules: List[Rule]):
        self.rules = rules
        self._cache: dict[str, Callable] = {}
        self._css: dict[str, Optional[CompiledCSS]] = {}
        self._selector: dict[str, Selector] = {}
        # deterministic ordinal per distinct group selector (replaces
        # the reference's nondeterministic id(group) — see scraped.py)
        distinct_groups = sorted({self._key(r.group) for r in rules})
        self.group_ordinal = {g: i for i, g in enumerate(distinct_groups)}
        # (group, selector) order is URL-independent — sort ONCE per
        # rule list; each rule's plan entry is (selector key, handler,
        # is-async-generator), computed once here
        self._sorted = [(r, (self._key(r.selector), r.handler,
                             inspect.isasyncgenfunction(r.handler)))
                        for r in sorted(rules, key=rule_sorter)]
        # a "*" matcher passes every URL, so when no rule has another
        # matcher the plan is the same for every URL and built once
        self._static_plan = (
            self._plan("") if all(r.url_matcher == "*" for r in rules)
            else None)

    def _key(self, sel: Selector) -> str:
        key = sel.to_str(with_type=True)
        self._selector[key] = sel
        return key

    def plan(self, url: str) -> list:
        """``[(group key, group id, ((selector key, handler,
        is_asyncgen), ...)), ...]`` for the rules that apply to ``url``:
        groups in (group, selector) order, each group's rules by
        priority."""
        if self._static_plan is not None:
            return self._static_plan
        return self._plan(url)

    def _plan(self, url: str) -> list:
        keep = rule_filter(url)
        out = []
        for group, g in itertools.groupby(
                (p for p in self._sorted if keep(p[0])),
                key=lambda p: p[0].group):
            gkey = group.to_str(with_type=True)
            entries = tuple(e for _, e in sorted(g, key=lambda p: p[0].priority))
            out.append((gkey, self.group_ordinal[gkey], entries))
        return out

    def matcher(self, sel: Selector) -> Callable:
        return self._matcher(sel.to_str(with_type=True), sel)

    def _matcher(self, key: str, sel: Selector) -> Callable:
        fn = self._cache.get(key)
        if fn is None:
            fn = self._cache[key] = compile_selector(sel)
        return fn

    def _css_program(self, key: str) -> Optional[CompiledCSS]:
        """Selector ``key``'s CSS program, or None if it is not CSS."""
        try:
            return self._css[key]
        except KeyError:
            sel = self._selector[key]
            css = (compile_css(sel.to_str())
                   if sel.selector_type() in (SelectorType.CSS, SelectorType.ANY)
                   else None)
            self._css[key] = css
            return css

    def page_selector(self, dom: Element) -> Callable[[str, Element], list]:
        """``select(key, scope)`` for one page: the same list as
        ``self.matcher(selector)(scope)``, set at a time for CSS.  Each
        CSS selector runs once per page, against the root; a scope gets
        the slice of those matches inside its subtree interval
        ``(_order, _end]``.  That is exact: :func:`css_select` itself
        takes the root index's candidates in that interval and matches
        them right to left with unbounded ancestors, so the matches
        under a scope are the root's matches in its interval (``:root``,
        selector lists and sibling combinators included)."""
        memo: dict[str, tuple] = {}
        bisect_right = bisect.bisect_right

        def select(key: str, scope: Element) -> list:
            hit = memo.get(key)
            if hit is None:
                css = self._css_program(key)
                if css is None:  # XPath / TEXT / REGEX: per scope
                    return self._matcher(key, self._selector[key])(scope)
                els = css_select(dom, css)
                hit = memo[key] = (els, [e._order for e in els], css.extract)
            els, orders, extract = hit
            if scope is not dom:
                els = els[bisect_right(orders, scope._order):
                          bisect_right(orders, scope._end)]
            if extract is None:
                return els
            if extract == "text":
                return [e.text_content() for e in els]
            name = extract[1]
            return [e.attrs[name] for e in els if name in e.attrs]

        return select


def collect_elements(
    compiled: _CompiledRules, dom: Element, url: str
) -> Iterable[Tuple[str, int, int, int, Any, Callable, bool]]:
    """Yield (url, group_index, group_id, element_index, element, handler,
    handler_is_asyncgen) in the reference's enumeration order
    (/root/reference/dude/optional/beautifulsoup_scraper.py:158-172)."""
    select = compiled.page_selector(dom)
    for gkey, gid, rules in compiled.plan(url):
        for group_index, group_el in enumerate(select(gkey, dom)):
            if not isinstance(group_el, Element):
                continue  # ::text / @attr group selections have no subtree
            for key, handler, is_agen in rules:
                for element_index, element in enumerate(select(key, group_el)):
                    yield (url, group_index, gid, element_index, element,
                           handler, is_agen)


_LOOP: Optional[asyncio.AbstractEventLoop] = None


def _event_loop() -> asyncio.AbstractEventLoop:
    """One event loop per worker process for coroutine handlers (the
    reference runs the whole crawl under one loop when any handler is
    async, /root/reference/dude/base.py:110-126; here only the handler
    dispatch needs it, so a lazily-created per-worker loop suffices)."""
    global _LOOP
    if _LOOP is None or _LOOP.is_closed():
        _LOOP = asyncio.new_event_loop()
    return _LOOP


def _drain_async_gen(agen) -> List[Any]:
    out: List[Any] = []

    async def _collect():
        async for d in agen:
            out.append(d)

    _event_loop().run_until_complete(_collect())
    return out


def extract_all(
    compiled: _CompiledRules, dom: Element, url: str, page_number: int = 1
) -> Iterable[ScrapedData]:
    """Handler application (/root/reference/dude/base.py:532-563, async
    variant 565-599): generator and async-generator handlers fan out
    with re-assigned element_index; coroutine handlers are awaited;
    falsy non-generator results are dropped."""
    for (page_url, group_index, group_id, element_index, element, handler,
         is_agen) in collect_elements(compiled, dom, url):
        if is_agen:
            for index, d in enumerate(_drain_async_gen(handler(element))):
                yield ScrapedData(page_number, page_url, group_id, group_index, index, d)
            continue
        data = handler(element)
        if inspect.iscoroutine(data):
            data = _event_loop().run_until_complete(data)
        if isinstance(data, GeneratorType):
            for index, d in enumerate(data):
                yield ScrapedData(page_number, page_url, group_id, group_index, index, d)
            continue
        if not data:
            continue
        yield ScrapedData(page_number, page_url, group_id, group_index, element_index, data)


def flatten(collected: Iterable[ScrapedData]) -> List[dict]:
    """Flatten/merge (/root/reference/dude/base.py:610-622): one dict per
    merge key; metadata fields underscore-prefixed and first-wins;
    handler dicts merged last-writer-wins."""
    items: List[dict] = []
    for _, grp in itertools.groupby(sorted(collected, key=scraped_data_sorter), key=scraped_data_grouper):
        item: dict = {}
        for d in grp:
            meta = {
                "page_number": d.page_number,
                "page_url": d.page_url,
                "group_id": d.group_id,
                "group_index": d.group_index,
                "element_index": d.element_index,
            }
            for k, v in meta.items():
                if k not in item:
                    item[f"_{k}"] = v
            item.update(**d.data)
        items.append(item)
    return items


def extract_page_flat(
    compiled: _CompiledRules, html: str, url: str, page_number: int = 1
) -> List[dict]:
    dom = parse_html(html)
    return flatten(extract_all(compiled, dom, url, page_number))


def accumulate_spans(rows: Iterable[ScrapedData], kinds: List[str],
                     texts: List[str], refs: List[str],
                     offs: List[int]) -> int:
    """Append one doc's spans straight onto flat column accumulators
    (no per-span dict allocation — this is the crawl's span hot loop);
    returns the span count.  Semantics identical to
    :func:`rows_to_spans`."""
    offset = 0
    for d in sorted(rows, key=scraped_data_sorter):
        data = d.data
        for k in data:
            v = data[k]
            if isinstance(v, tuple) and len(v) == 2:
                text, ref = v
            else:
                text, ref = v, ""
            kinds.append(k)
            texts.append("" if text is None else str(text))
            refs.append("" if ref is None else str(ref))
            offs.append(offset)
            offset += 1
    return offset


def rows_to_spans(rows: Iterable[ScrapedData]) -> List[dict]:
    """Span-sequence output (the ``input_hint`` contract): one span per
    (handler key, value) in deterministic ScrapedData order.  ``kind``
    is the handler dict key; values that are (text, ref) pairs carry a
    media_ref, plain strings carry text only."""
    kinds: List[str] = []
    texts: List[str] = []
    refs: List[str] = []
    offs: List[int] = []
    accumulate_spans(rows, kinds, texts, refs, offs)
    return [{"kind": k, "text": t, "media_ref": r, "offset": o}
            for k, t, r, o in zip(kinds, texts, refs, offs)]


def spans_column(kinds: List[str], texts: List[str], refs: List[str],
                 offs: List[int], offsets: List[int]) -> pa.Array:
    """list<struct> spans column straight from flat accumulators."""
    values = pa.StructArray.from_arrays(
        [pa.array(kinds, type=pa.string()),
         pa.array(texts, type=pa.string()),
         pa.array(refs, type=pa.string()),
         pa.array(offs, type=pa.int32())],
        fields=list(SPAN_TYPE))
    return pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), values)


def spans_to_arrow(span_lists: List[List[dict]]) -> pa.Array:
    """Build the list<struct> spans column from per-doc span rows in one
    vectorized pass (pa.array over nested python dicts is several times
    slower than flat columns + ListArray.from_arrays)."""
    kinds: List[str] = []
    texts: List[str] = []
    refs: List[str] = []
    offs: List[int] = []
    offsets = [0]
    for spans in span_lists:
        for s in spans:
            kinds.append(s["kind"])
            texts.append(s["text"])
            refs.append(s["media_ref"])
            offs.append(s["offset"])
        offsets.append(len(kinds))
    values = pa.StructArray.from_arrays(
        [pa.array(kinds, type=pa.string()),
         pa.array(texts, type=pa.string()),
         pa.array(refs, type=pa.string()),
         pa.array(offs, type=pa.int32())],
        fields=list(SPAN_TYPE))
    return pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), values)


# --------------------------------------------------------------------------
# Ray Data stage
# --------------------------------------------------------------------------

class SpanExtractor:
    """``map_batches`` callable: html docs in → span sequences out.

    Stateless across batches (the rules are immutable config), so it is
    passed as an *instance* and runs as a task stage: each task gets a
    pickled copy whose selectors compile on first use (~0.3 ms for the
    flagship rules, against ~1 ms per page).  Input batch columns:
    ``doc_id`` (canonical URL), ``html``; passthrough columns preserved
    via ``keep``.
    """

    def __init__(self, rules: List[Rule], keep: Tuple[str, ...] = ()):
        self.compiled = _CompiledRules(rules)
        self.keep = keep

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch["doc_id"].to_pylist()
        htmls = batch["html"].to_pylist()
        kinds: List[str] = []
        texts: List[str] = []
        refs: List[str] = []
        offs: List[int] = []
        offsets = [0]
        for url, html in zip(doc_ids, htmls):
            dom = parse_html(html)
            accumulate_spans(extract_all(self.compiled, dom, url,
                                         page_number=1),
                             kinds, texts, refs, offs)
            dom.decompose()  # its spans are strings by now
            offsets.append(len(kinds))
        cols: dict[str, pa.Array] = {"doc_id": batch["doc_id"]}
        cols["spans"] = spans_column(kinds, texts, refs, offs, offsets)
        for name in self.keep:
            cols[name] = batch[name]
        return pa.table(cols)
