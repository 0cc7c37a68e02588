"""Self-contained HTML DOM + selector engine (stdlib only).

The reference delegates selection to five parser backends (bs4 ``soup
.select`` — /root/reference/dude/optional/beautifulsoup_scraper.py:177,
lxml ``cssselect``/``xpath`` — /root/reference/dude/optional/
lxml_scraper.py:182-193, parsel, Playwright, Selenium).  None of those
libraries exist in this environment, and the reference corpus only
exercises a small selector surface, so this module implements exactly
that surface on ``html.parser``:

* CSS: ``tag``, ``.class``, ``#id``, compound (``a.url``), descendant
  (space) / child (``>``) / adjacent-sibling (``+``) / general-sibling
  (``~``) combinators, attribute selectors ``[attr]`` and
  ``[attr OP val]`` for ``=``, ``~=``, ``^=``, ``$=``, ``*=``, ``|=``,
  structural pseudo-classes ``:nth-child(An+B|odd|even|k)``,
  ``:nth-of-type(...)``, ``:nth-last-child(...)``,
  ``:nth-last-of-type(...)``, ``:first-child``, ``:last-child``,
  ``:first-of-type``, ``:last-of-type``, ``:only-child``,
  ``:only-of-type``, ``:empty``, ``:not(<simple>)``, ``:root``,
  comma-separated selector lists, and the parsel pseudo-elements
  ``::text`` / ``::attr(name)``.
* XPath: location paths of ``.//tag`` / ``//tag`` / ``/tag`` /
  ``.//*`` steps plus the explicit axes ``child::``, ``descendant::``,
  ``descendant-or-self::``, ``following-sibling::``,
  ``preceding-sibling::``, ``following::``, ``preceding::``,
  ``ancestor::``, ``ancestor-or-self::``, ``self::``, ``parent::``
  (and ``.`` / ``..``); full boolean predicate expressions with
  ``and`` / ``or`` / ``not(...)`` / parentheses over the leaves
  ``contains(...)`` / ``starts-with(...)`` (on ``@attr``, ``text()``
  or ``.``), ``normalize-space() = "x"``, ``text()="x"`` / ``.="x"``
  (and ``!=``), ``[@attr="x"]`` / ``[@attr!="x"]`` / ``[@attr]``,
  positional ``[n]`` / ``[last()]`` / ``[position() <op> n]``,
  and location-path predicates (``[a]``, ``[img/@src]``,
  ``[.//a[@href='x']]``, ``[span/text()='v']``); beyond the fast
  leaves, FULL XPath 1.0 expressions via the generic engine —
  arithmetic (``+ - * div mod``, unary minus), numeric/string/boolean
  functions (``count``, ``string``, ``concat``, ``substring[-before/
  -after]``, ``translate``, ``string-length``, ``number``, ``floor``,
  ``ceiling``, ``round``, ``boolean``, ``true``, ``false``, ``name``),
  computed comparisons with the spec's nodeset/number/string coercion
  rules, and top-level VALUE expressions (``string(.)``,
  ``concat(@a, '-', text())``, ``count(.//li)``) — XPath variables
  excluded (no binding context on the selector surface); top-level unions
  ``a | b`` with per-branch value extraction; ordered-predicate
  semantics (``[2][@a]`` ≠ ``[@a][2]``; abbreviated ``//tag[n]``
  counts per parent, per the spec's
  ``descendant-or-self::node()/child::`` expansion); terminal
  ``/text()`` or ``/@attr`` value steps (covers the reference test
  xpaths, e.g. ``.//p[contains(@class, "title")]/text()`` —
  /root/reference/tests/test_lxml.py:57-63 — and the
  ``//div[@id='x']/following-sibling::p[2]`` family).
* TEXT selector: elements whose *direct* text contains the needle —
  lxml semantics ``.//*[contains(text(), sel)]``
  (/root/reference/dude/optional/lxml_scraper.py:186-188).
* REGEX selector: elements whose direct text matches, case-insensitive
  (EXSLT ``re:test(text(), sel, 'i')`` —
  /root/reference/dude/optional/lxml_scraper.py:189-193).

Results are always in document order.  Parsing is per-document Python
work executed *inside* vectorized ``map_batches`` stages; the compiled
selector programs are built once per actor/worker, never per row.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass, field
from html import unescape as _unescape
from html.parser import HTMLParser
from typing import Iterator, Optional, Union

_VOID_TAGS = {
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
}


class Element:
    """A DOM element node."""

    __slots__ = ("tag", "attrs", "children", "parent", "_order", "_index",
                 "_end")

    def __init__(self, tag: str, attrs: dict[str, str], parent: Optional["Element"], order: int):
        self.tag = tag
        self.attrs = attrs
        self.children: list[Union["Element", str]] = []
        self.parent = parent
        self._order = order  # document order for stable sorts
        self._index: Optional[dict] = None  # set on the root (see index())
        self._end = order  # max descendant order (see index())

    def root(self) -> "Element":
        el = self
        while el.parent is not None:
            el = el.parent
        return el

    def index(self) -> dict:
        """Subtree index: ``("t", tag)`` / ``("c", class)`` → elements in
        document order.  One index serves every selector evaluation
        anywhere in the tree: each element also carries its subtree
        interval ``[_order, _end]``, so a scoped selection is a
        binary-searched slice of the root's candidate list instead of a
        per-scope subtree walk/index.  :func:`parse_html` stores both on
        the tree it builds; for any other tree (``parse_html_strict``)
        the first call walks the subtree once to build them."""
        idx = self._index
        if idx is None:
            by_key: dict = {}

            def walk(el: "Element") -> int:
                end = el._order
                for c in el.children:
                    if isinstance(c, Element):
                        by_key.setdefault(("t", c.tag), []).append(c)
                        cls = c.attrs.get("class")
                        if cls:
                            for cl in cls.split():
                                by_key.setdefault(("c", cl), []).append(c)
                        end = max(end, walk(c))
                el._end = end
                return end

            walk(self)
            idx = self._index = by_key
        return idx

    def decompose(self) -> None:
        """Break the parent links of this subtree, so that reference
        counting frees it as soon as it is dropped.  A parsed page is
        cyclic (parent ↔ children), so otherwise only the cyclic GC
        frees it, after scanning it along with everything else
        allocated since its last run.  The subtree's elements must not
        be used afterwards."""
        for (kind, _), els in self.index().items():
            if kind == "t":  # every element once
                for el in els:
                    el.parent = None

    # ---- text accessors (mirror lxml/bs4 semantics used by handlers) ----
    @property
    def text(self) -> str:
        """Direct text: concatenation of immediate text-node children
        (lxml ``.text`` is only the first text node; handlers in the
        reference tests read fully-textual leaves, where these agree)."""
        return "".join(c for c in self.children if isinstance(c, str))

    def text_content(self) -> str:
        """All descendant text, document order (lxml ``text_content()``,
        bs4 ``get_text()``, playwright ``textContent``)."""
        out: list[str] = []
        stack: list[Union[Element, str]] = list(reversed(self.children))
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                out.append(node)
            else:
                stack.extend(reversed(node.children))
        return "".join(out)

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self.attrs.get(name, default)

    def __getitem__(self, name: str) -> str:
        return self.attrs[name]

    @property
    def classes(self) -> list[str]:
        return self.attrs.get("class", "").split()

    def iter(self) -> Iterator["Element"]:
        """All element descendants (not self), document order."""
        for c in self.children:
            if isinstance(c, Element):
                yield c
                yield from c.iter()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Element {self.tag} {self.attrs}>"


class _TreeBuilder(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self._counter = 0
        self.root = Element(":document", {}, None, self._counter)
        self._stack = [self.root]

    def _new(self, tag: str, attrs: list[tuple[str, Optional[str]]]) -> Element:
        self._counter += 1
        el = Element(tag.lower(), {k: (v or "") for k, v in attrs}, self._stack[-1], self._counter)
        self._stack[-1].children.append(el)
        return el

    def handle_starttag(self, tag: str, attrs: list[tuple[str, Optional[str]]]) -> None:
        el = self._new(tag, attrs)
        if tag.lower() not in _VOID_TAGS:
            self._stack.append(el)

    def handle_startendtag(self, tag: str, attrs: list[tuple[str, Optional[str]]]) -> None:
        self._new(tag, attrs)

    def handle_endtag(self, tag: str) -> None:
        tag = tag.lower()
        for i in range(len(self._stack) - 1, 0, -1):
            if self._stack[i].tag == tag:
                del self._stack[i:]
                return
        # stray end tag: ignore

    def handle_data(self, data: str) -> None:
        if data:
            self._stack[-1].children.append(data)


def parse_html_strict(html: str) -> Element:
    """Reference parse via stdlib ``html.parser`` (the behavioral spec
    for :func:`parse_html`'s fast tokenizer)."""
    b = _TreeBuilder()
    b.feed(html)
    b.close()
    return b.root


# Fast anchored-regex tokenizer.  parse is ~39% of crawl-worker busy
# time (METRICS.json ``worker_layers_s`` of a crawl_bulk crawl: parse
# 1.22 s, extract 0.96 s, links 0.41 s, fetch 0.28 s and route 0.22 s
# of 3.1 s), and stdlib html.parser spends most of it in per-token Python
# method dispatch (goahead/parse_starttag/check_for_whole_start_tag);
# one anchored alternation regex + a tight position-driven loop builds
# the identical tree substantially faster.  Equivalence with
# parse_html_strict is asserted over the whole synthetic corpus and
# every parser fixture by
# tests/test_htmlparser.py::test_fast_parser_matches_strict.
_TAG = re.compile(
    r"<(?:"
    r"!--.*?(?:-->|$)"                          # comment
    r"|!\[CDATA\[.*?(?:\]\]>|$)"                # CDATA (ignored, as stdlib)
    r"|![^>]*(?:>|$)"                           # doctype / declaration
    r"|\?[^>]*(?:>|$)"                          # processing instruction
    r"|/\s*([a-zA-Z][a-zA-Z0-9:._-]*)[^>]*(?:>|$)"  # 1: end tag
    r"|([a-zA-Z][^\t\n\r\f />]*)"                   # 2: start tag name
                                                    # (tagfind_tolerant)
    r"((?:\"[^\"]*\"|'[^']*'|[^>\"']+|[\"'])*)"     # 3: attr blob
    r"(?:>|$)"
    r")",
    re.S)

_ATTR = re.compile(
    r"([^\s/=>]+)(\s*=\s*(\"[^\"]*\"|'[^']*'|[^\s>]*))?")

_RAW_CLOSE = {
    "script": re.compile(r"</\s*script", re.I),
    "style": re.compile(r"</\s*style", re.I),
}


def parse_html(html: str) -> Element:
    """Parse HTML into a DOM; returns the synthetic ``:document`` root.

    Tree-identical to :func:`parse_html_strict` (stdlib html.parser,
    convert_charrefs=True): lowercased tag/attr names, entity-unescaped
    text and attribute values (last duplicate attribute wins), void
    elements unpushed, stray end tags ignored, raw text inside
    <script>/<style>.

    The same loop builds the selector index (``Element.index``): every
    element joins its tag's and classes' lists as it is created, and
    gets ``_end`` (its last descendant's order) when it is closed."""
    root = Element(":document", {}, None, 0)
    stack = [root]
    cur, kids = root, root.children  # top of the stack, its children
    by_tag: dict[str, list[Element]] = {}
    by_class: dict[str, list[Element]] = {}
    counter = 0
    unescape = _unescape
    find = html.find
    tag_match = _TAG.match
    pos = 0
    n = len(html)
    while pos < n:
        lt = find("<", pos)
        if lt == -1:
            text = html[pos:]
            kids.append(unescape(text) if "&" in text else text)
            break
        if lt > pos:
            text = html[pos:lt]
            kids.append(unescape(text) if "&" in text else text)
        m = tag_match(html, lt)
        if m is None:
            # '<' not opening any construct → literal text char
            kids.append("<")
            pos = lt + 1
            continue
        pos = m.end()
        end_tag, tag, blob = m.group(1, 2, 3)
        if tag is not None:
            tag = tag.lower()
            # A trailing '/' marks a self-closing tag ONLY if it is not
            # consumed by an unquoted attribute value (stdlib html.parser
            # semantics: the unquoted-value regex [^>\s]* eats the '/',
            # so '<a href=http://e.com/a/b/>' is a normal open tag with
            # href 'http://e.com/a/b/').  Parse attrs first, then decide.
            selfclose = blob.endswith("/")
            attrs: dict[str, str] = {}
            if blob:
                blob_end = len(blob)
                for am in _ATTR.finditer(blob):
                    val = am.group(3)
                    if val is None:
                        val = ""
                    elif val[:1] in "\"'" and val[:1] == val[-1:]:
                        val = val[1:-1]
                    elif selfclose and am.end() == blob_end:
                        # unquoted value consumed the trailing '/'
                        selfclose = False
                    attrs[am.group(1).lower()] = (
                        unescape(val) if "&" in val else val)
            counter += 1
            el = Element(tag, attrs, cur, counter)
            kids.append(el)
            lst = by_tag.get(tag)
            if lst is None:
                by_tag[tag] = [el]
            else:
                lst.append(el)
            cls = attrs.get("class")
            if cls:
                for cl in cls.split():
                    lst = by_class.get(cl)
                    if lst is None:
                        by_class[cl] = [el]
                    else:
                        lst.append(el)
            if selfclose or tag in _VOID_TAGS:
                continue
            raw = _RAW_CLOSE.get(tag)
            if raw is None:
                stack.append(el)
                cur, kids = el, el.children
                continue
            # raw-text element: literal content up to its close tag
            rm = raw.search(html, pos)
            cut = rm.start() if rm else n
            if cut > pos:
                el.children.append(html[pos:cut])
            if rm:
                gt = find(">", rm.end())
                pos = (gt + 1) if gt != -1 else n
            else:
                pos = n
        elif end_tag is not None:
            t = end_tag.lower()
            if cur.tag == t:  # never the root: ':document' is no tag name
                cur._end = counter
                stack.pop()
            else:
                for i in range(len(stack) - 1, 0, -1):
                    if stack[i].tag == t:
                        for el in stack[i:]:
                            el._end = counter
                        del stack[i:]
                        break
                else:
                    continue  # stray end tag: ignored
            cur = stack[-1]
            kids = cur.children
        # comments/doctype/PI: ignored
    for el in stack:  # still open at EOF
        el._end = counter
    index = {("t", t): lst for t, lst in by_tag.items()}
    index.update((("c", c), lst) for c, lst in by_class.items())
    root._index = index
    return root


# --------------------------------------------------------------------------
# CSS selector subset
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Simple:
    tag: Optional[str] = None
    id: Optional[str] = None
    classes: tuple[str, ...] = ()
    # (name, op, value): op None = existence, else one of = ~= ^= $= *= |=
    attrs: tuple[tuple[str, Optional[str], Optional[str]], ...] = ()
    is_root: bool = False
    # structural pseudo-classes: ("nth-child", a, b) | ("nth-of-type",
    # a, b) | ("first-child",) | ("last-child",) | ("empty",) |
    # ("not", _Simple)
    pseudos: tuple[tuple, ...] = ()

    def matches(self, el: Element) -> bool:
        if self.is_root:
            # ":root" = the document element (html); we accept the top
            # element of the parsed fragment (works for fragments too)
            return el.parent is not None and el.parent.parent is None
        if self.tag and el.tag != self.tag:
            return False
        if self.id and el.attrs.get("id") != self.id:
            return False
        if self.classes:
            have = set(el.classes)
            if not all(c in have for c in self.classes):
                return False
        for name, op, value in self.attrs:
            if name not in el.attrs:
                return False
            if op is None:
                continue
            have = el.attrs[name]
            if op == "=":
                ok = have == value
            elif op == "~=":
                ok = value in have.split()
            elif op == "^=":
                ok = bool(value) and have.startswith(value)
            elif op == "$=":
                ok = bool(value) and have.endswith(value)
            elif op == "*=":
                ok = bool(value) and value in have
            else:  # |=
                ok = have == value or have.startswith(value + "-")
            if not ok:
                return False
        for p in self.pseudos:
            if not self._pseudo_matches(el, p):
                return False
        return True

    @staticmethod
    def _pseudo_matches(el: Element, p: tuple) -> bool:
        kind = p[0]
        if kind == "not":
            return not p[1].matches(el)
        if kind == "empty":
            return not any(
                isinstance(c, Element) or (isinstance(c, str) and c)
                for c in el.children)
        if el.parent is None:
            return False
        sibs = [c for c in el.parent.children if isinstance(c, Element)]
        if kind.endswith("of-type"):
            sibs = [s for s in sibs if s.tag == el.tag]
        if kind in ("only-child", "only-of-type"):
            return len(sibs) == 1
        if kind in ("first-child", "first-of-type"):
            return sibs[0] is el
        if kind in ("last-child", "last-of-type"):
            return sibs[-1] is el
        i = next(j for j, s in enumerate(sibs, 1) if s is el)
        if kind.startswith("nth-last"):
            i = len(sibs) - i + 1  # count from the end
        a, b = p[1], p[2]
        if a == 0:
            return i == b
        return (i - b) % a == 0 and (i - b) // a >= 0


@dataclass(frozen=True)
class CompiledCSS:
    # Each alternative: sequence of (combinator, simple) — combinator
    # " " descendant or ">" child; first entry combinator is " ".
    alternatives: tuple[tuple[tuple[str, _Simple], ...], ...] = ()
    # parsel pseudo-element: None | "text" | ("attr", name)
    extract: Optional[object] = None


_SIMPLE_RE = re.compile(
    r"(?P<tag>[a-zA-Z][\w-]*|\*)?"
    r"(?P<rest>(?:[#.][\w-]+|\[[^\]]+\]|:[\w-]+(?:\([^)]*\))?)*)"
)
_PART_RE = re.compile(r"([#.][\w-]+|\[[^\]]+\]|:[\w-]+(?:\([^)]*\))?)")
_ATTR_RE = re.compile(r"^([\w-]+)\s*(?:([~^$*|]?=)\s*(.*))?$")
_NTH_RE = re.compile(r"^(?:([+-]?\d*)n)?\s*([+-]\s*\d+|[+-]?\d+)?$")


def _parse_nth(src: str) -> tuple[int, int]:
    """CSS An+B micro-syntax → (a, b)."""
    src = src.strip().lower()
    if src == "odd":
        return (2, 1)
    if src == "even":
        return (2, 0)
    m = _NTH_RE.match(src.replace(" ", ""))
    if not m or (m.group(1) is None and m.group(2) is None):
        raise ValueError(f"Unsupported :nth- argument: {src!r}")
    if m.group(1) is None:  # bare integer
        return (0, int(m.group(2)))
    a_src = m.group(1)
    a = int(a_src) if a_src not in ("", "+", "-") else (-1 if a_src == "-" else 1)
    b = int(m.group(2)) if m.group(2) else 0
    return (a, b)


def _parse_simple(tok: str) -> _Simple:
    m = _SIMPLE_RE.match(tok)
    if not m or (m.end() != len(tok)):
        raise ValueError(f"Unsupported CSS selector token: {tok!r}")
    tag = m.group("tag")
    if tag == "*":
        tag = None
    id_, classes, attrs, is_root = None, [], [], False
    pseudos: list[tuple] = []
    for part in _PART_RE.findall(m.group("rest") or ""):
        if part.startswith("."):
            classes.append(part[1:])
        elif part.startswith("#"):
            id_ = part[1:]
        elif part == ":root":
            is_root = True
        elif part.startswith(":"):
            name, _, arg = part[1:].partition("(")
            arg = arg[:-1] if arg.endswith(")") else arg
            if name == "not":
                pseudos.append(("not", _parse_simple(arg.strip())))
            elif name in ("nth-child", "nth-of-type",
                          "nth-last-child", "nth-last-of-type"):
                a, b = _parse_nth(arg)
                pseudos.append((name, a, b))
            elif name in ("first-child", "last-child", "empty",
                          "only-child", "only-of-type",
                          "first-of-type", "last-of-type"):
                pseudos.append((name,))
            else:
                raise ValueError(f"Unsupported CSS pseudo-class: :{name}")
        elif part.startswith("["):
            am = _ATTR_RE.match(part[1:-1].strip())
            if not am:
                raise ValueError(f"Unsupported CSS attribute: {part!r}")
            value = am.group(3)
            attrs.append((am.group(1), am.group(2),
                          value.strip().strip("\"'") if value is not None
                          else None))
    return _Simple(tag=tag.lower() if tag else None, id=id_,
                   classes=tuple(classes), attrs=tuple(attrs),
                   is_root=is_root, pseudos=tuple(pseudos))


def compile_css(selector: str) -> CompiledCSS:
    selector = selector.strip()
    extract: Optional[object] = None
    # parsel pseudo-elements apply to the last compound
    m = re.search(r"::text$", selector)
    if m:
        extract = "text"
        selector = selector[: m.start()]
    else:
        m = re.search(r"::attr\(([\w-]+)\)$", selector)
        if m:
            extract = ("attr", m.group(1))
            selector = selector[: m.start()]
    alternatives = []
    for alt in selector.split(","):
        alt = alt.strip()
        if not alt:
            continue
        # tokenize on combinators (descendant, child, adjacent, general)
        # at paren/bracket depth 0 — '+' inside :nth-child(-n+2) and
        # '~' inside [attr~=v] are NOT combinators
        toks: list[str] = []
        depth, start, i = 0, 0, 0
        while i < len(alt):
            c = alt[i]
            if c in "([":
                depth += 1
            elif c in ")]":
                depth -= 1
            elif depth == 0 and (c.isspace() or c in ">+~"):
                if alt[start:i]:
                    toks.append(alt[start:i])
                if c in ">+~":
                    toks.append(c)
                start = i + 1
            i += 1
        if alt[start:]:
            toks.append(alt[start:])
        seq: list[tuple[str, _Simple]] = []
        comb = " "
        for tok in toks:
            if tok in (">", "+", "~"):
                comb = tok
                continue
            seq.append((comb, _parse_simple(tok)))
            comb = " "
        if seq:
            alternatives.append(tuple(seq))
    return CompiledCSS(alternatives=tuple(alternatives), extract=extract)


def _match_sequence(el: Element, seq: tuple[tuple[str, _Simple], ...]) -> bool:
    """Right-to-left match of a compound sequence ending at ``el``."""
    comb, simple = seq[-1]
    if not simple.matches(el):
        return False
    if len(seq) == 1:
        return True
    rest = seq[:-1]
    if comb in ("+", "~"):
        if el.parent is None:
            return False
        sibs = [c for c in el.parent.children if isinstance(c, Element)]
        i = next(j for j, s in enumerate(sibs) if s is el)
        if comb == "+":
            return i > 0 and _match_sequence(sibs[i - 1], rest)
        return any(_match_sequence(s, rest) for s in sibs[:i])
    parent = el.parent
    if comb == ">":
        return parent is not None and _match_sequence(parent, rest)
    while parent is not None:
        if _match_sequence(parent, rest):
            return True
        parent = parent.parent
    return False


def _candidates_for(scope: Element, simple: _Simple):
    """Narrow candidates via the ROOT index keyed on the rightmost
    simple selector (class preferred — most selective), sliced to the
    scope's subtree interval by binary search — no per-scope index is
    ever built.  A bare ``:root`` narrows to the document's top-level
    elements, which are descendants only of the document itself.
    Falls back to a subtree walk only for bare ``*``/attr selectors."""
    root = scope.root()
    idx = root.index()  # also ensures every element's _end is set
    if simple.classes:
        lst = idx.get(("c", simple.classes[0]), [])
    elif simple.tag:
        lst = idx.get(("t", simple.tag), [])
    elif simple.is_root:
        return ([c for c in root.children if isinstance(c, Element)]
                if scope is root else [])
    else:
        return None
    if scope is root or not lst:
        return lst
    lo = bisect.bisect_right(lst, scope._order, key=lambda e: e._order)
    hi = bisect.bisect_right(lst, scope._end, key=lambda e: e._order)
    return lst[lo:hi]


def css_select(scope: Element, compiled: CompiledCSS) -> list[Element]:
    """All descendant elements of ``scope`` matching the selector, in
    document order (scope itself is included only for ``:root``)."""
    out: list[Element] = []
    if len(compiled.alternatives) == 1:
        alt = compiled.alternatives[0]
        cands = _candidates_for(scope, alt[-1][1])
        if cands is not None:
            return [el for el in cands if _match_sequence(el, alt)]
    seen: set[int] = set()
    for alt in compiled.alternatives:
        cands = _candidates_for(scope, alt[-1][1])
        if cands is None:
            cands = list(scope.iter())
        for el in cands:
            if id(el) not in seen and _match_sequence(el, alt):
                seen.add(id(el))
                out.append(el)
    out.sort(key=lambda e: e._order)
    return out


# --------------------------------------------------------------------------
# XPath subset
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _XStep:
    # "child" | "descendant" (abbreviated //) | "descendant-explicit"
    # (descendant::) | "following-sibling" | "preceding-sibling" |
    # "self" | "parent"
    axis: str
    tag: Optional[str]   # None = "*"
    # Ordered predicate list — order matters in XPath ([2][@a] ≠
    # [@a][2]).  Boolean predicates filter; ("pos", k) selects the k-th
    # (1-based, -1 = last()) of the CURRENT candidate list per context.
    predicates: tuple[tuple, ...] = ()


@dataclass(frozen=True)
class CompiledXPath:
    steps: tuple[_XStep, ...]
    extract: Optional[object] = None  # None | "text" | ("attr", name)
    # non-empty → this is a union expression ("a | b"); ``steps`` is
    # empty and each alternative is a full CompiledXPath of its own
    alts: tuple["CompiledXPath", ...] = ()
    # non-None → a VALUE expression at the top level ("string(.)",
    # "concat(@a, '-', @b)", "count(.//li)"): evaluated by the generic
    # XPath-1.0 expression engine, one value per context node
    expr: Optional[tuple] = None


_XP_AXES = ("child", "descendant", "descendant-or-self",
            "following-sibling", "preceding-sibling", "following",
            "preceding", "ancestor", "ancestor-or-self", "self", "parent")


# ---- predicate expression parser --------------------------------------
#
# Full boolean grammar:  or_expr := and_expr ('or' and_expr)*
#                        and_expr := unary ('and' unary)*
#                        unary := 'not(' expr ')' | '(' expr ')' | leaf
# Leaves cover the selector surface lxml users actually write:
# contains/starts-with over @attr, text() (direct text) and '.'
# (string-value), =/!= string tests, @attr existence, position()
# comparisons, last(), and bare integers.  Evaluation context is
# (element, 1-based position, candidate-list size) so positional terms
# compose with boolean ones ("[position()>1 and @a]").

_XP_LEAF = re.compile(
    r"^(?:"
    r"(contains|starts-with)\(\s*(@[\w-]+|text\(\)|\.)\s*,\s*"
    r"(['\"])(.*?)\3\s*\)"                                        # 1,2,4
    r"|normalize-space\(\s*(?:text\(\)|\.)?\s*\)\s*(=|!=)\s*"
    r"(['\"])(.*?)\6"                                             # 5,7
    r"|(text\(\)|\.)\s*(=|!=)\s*(['\"])(.*?)\10"                  # 8,9,11
    r"|@([\w-]+)\s*(=|!=)\s*(['\"])(.*?)\14"                      # 12,13,15
    r"|@([\w-]+)"                                                 # 16
    r"|position\(\)\s*(=|!=|<=|>=|<|>)\s*(?:(\d+)|last\(\))"      # 17,18
    r"|last\(\)"
    r"|(\d+)"                                                     # 19
    r")$")


def _split_top(src: str, word: str, *, word_op: bool = False) -> list[str]:
    """Split on an operator at paren/bracket/quote depth 0.  With
    ``word_op`` the operator is a keyword (and/or) and must be bounded
    by characters that cannot belong to a name."""
    def _bound(c: str) -> bool:
        return not (c.isalnum() or c in "-_@")

    parts, depth, i, start, q = [], 0, 0, 0, None
    n, w = len(src), len(word)
    while i < n:
        c = src[i]
        if q:
            if c == q:
                q = None
        elif c in "'\"":
            q = c
        elif c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif (depth == 0 and src.startswith(word, i)
              and (not word_op or ((i == 0 or _bound(src[i - 1]))
                                   and (i + w == n or _bound(src[i + w]))))):
            parts.append(src[start:i])
            start = i + w
            i += w
            continue
        i += 1
    parts.append(src[start:])
    return parts


def _parse_pred(src: str) -> tuple:
    src = src.strip()
    ors = _split_top(src, "or", word_op=True)
    if len(ors) > 1:
        return ("or", tuple(_parse_pred(p) for p in ors))
    ands = _split_top(src, "and", word_op=True)
    if len(ands) > 1:
        return ("and", tuple(_parse_pred(p) for p in ands))
    if src.startswith("not(") and src.endswith(")"):
        return ("not", _parse_pred(src[4:-1]))
    if src.startswith("(") and src.endswith(")"):
        inner = src[1:-1]
        # only strip if the parens actually match each other
        depth = 0
        for j, c in enumerate(inner):
            depth += (c == "(") - (c == ")")
            if depth < 0:
                break
        else:
            if depth == 0:
                return _parse_pred(inner)
    m = _XP_LEAF.match(src)
    if not m:
        # location-path predicates: existence ("[.//a]", "[img/@src]")
        # and path = value comparisons ("[span/text()='v']").  A bare
        # relative step inside a predicate is child::, not descendant.
        cm = re.match(r"^(.*?)\s*(!?=)\s*(['\"])(.*)\3$", src)
        if cm:
            try:
                sub = _compile_pred_path(cm.group(1).strip())
            except ValueError:
                sub = None
            if sub is not None:
                return ("path_cmp", sub, cm.group(2), cm.group(4))
        try:
            return ("path", _compile_pred_path(src))
        except ValueError:
            pass
        # full XPath 1.0 expression (arithmetic, number/string
        # functions, computed comparisons) — the generic engine
        try:
            return ("expr", _xe_parse(src))
        except ValueError:
            pass
        raise ValueError(f"Unsupported XPath predicate: [{src}]")
    if m.group(1) is not None:  # contains / starts-with
        return ("strfn", m.group(1), m.group(2), m.group(4))
    if m.group(5) is not None:  # normalize-space(...) = / !=
        return ("normspace", m.group(5), m.group(7))
    if m.group(8) is not None:  # text() / . string test
        return ("streq", m.group(8), m.group(9), m.group(11))
    if m.group(12) is not None:  # @attr = / !=
        return ("attr_cmp", m.group(12), m.group(13), m.group(15))
    if m.group(16) is not None:  # @attr existence
        return ("has_attr", m.group(16))
    if m.group(17) is not None:  # position() cmp
        return ("pos_cmp", m.group(17),
                int(m.group(18)) if m.group(18) is not None else -1)
    if m.group(19) is not None:  # bare integer
        return ("pos_cmp", "=", int(m.group(19)))
    return ("pos_cmp", "=", -1)  # last()


def _compile_pred_path(src: str) -> CompiledXPath:
    """Compile a predicate-relative location path (child:: default).
    Bare ``@attr`` / ``text()`` operands compile as value steps on the
    context node (the expression engine's nodeset leaves)."""
    if src.startswith("@") or src == "text()":
        return compile_xpath("./" + src)
    if src.startswith("/"):
        return compile_xpath(src)
    if not (src.startswith(".") or re.match(r"[\w*-]|[a-z-]+::", src)):
        raise ValueError(src)
    return compile_xpath(src if src.startswith(".") else "./" + src)


# ---- generic XPath 1.0 expression engine -------------------------------
#
# The leaf grammar above covers the hot selector surface with zero
# allocation; everything else — arithmetic, number/string functions,
# count(), concat(), substring(), translate(), comparisons between
# computed values — parses here into a small AST and evaluates with the
# XPath 1.0 coercion rules (nodeset→string = first node's string-value;
# existential comparisons; NaN-propagating number casts).  XPath
# VARIABLES ($x) are deliberately absent: the selector surface never
# provides a binding context (same stance as the reference's parsel
# usage).  Parity target: /root/reference/dude/optional/
# lxml_scraper.py:184-185 / parsel_scraper.py (arbitrary XPath strings
# handed to lxml.etree.xpath / parsel.Selector.xpath).

_XE_FUNCS = ("string", "concat", "contains", "starts-with",
             "normalize-space", "string-length", "substring",
             "substring-before", "substring-after", "translate",
             "count", "not", "true", "false", "boolean", "number",
             "floor", "ceiling", "round", "position", "last",
             "name", "local-name")
_XE_NAME = re.compile(r"[\w-]+")


class _XEParser:
    """Recursive-descent parser for XPath 1.0 expressions (no
    variables).  Location-path operands are delegated to
    _compile_pred_path and appear as ("ns", CompiledXPath) leaves."""

    def __init__(self, src: str):
        self.s = src
        self.i = 0

    # -- cursor helpers ---------------------------------------------------
    def _ws(self) -> None:
        while self.i < len(self.s) and self.s[self.i].isspace():
            self.i += 1

    def _peek(self) -> str:
        self._ws()
        return self.s[self.i] if self.i < len(self.s) else ""

    def _lit(self, tok: str) -> bool:
        self._ws()
        if self.s.startswith(tok, self.i):
            self.i += len(tok)
            return True
        return False

    def _word(self, w: str) -> bool:
        """Match a keyword operator bounded by non-name chars."""
        self._ws()
        j = self.i
        if not self.s.startswith(w, j):
            return False
        k = j + len(w)
        before_ok = j == 0 or not (self.s[j - 1].isalnum()
                                   or self.s[j - 1] in "-_@")
        after_ok = k >= len(self.s) or not (self.s[k].isalnum()
                                            or self.s[k] in "-_(@")
        if before_ok and after_ok:
            self.i = k
            return True
        return False

    # -- grammar ----------------------------------------------------------
    def parse(self) -> tuple:
        node = self.or_expr()
        self._ws()
        if self.i != len(self.s):
            raise ValueError(f"trailing XPath expression: "
                             f"{self.s[self.i:]!r}")
        return node

    def or_expr(self) -> tuple:
        node = self.and_expr()
        while self._word("or"):
            node = ("xor_", node, self.and_expr())
        return node

    def and_expr(self) -> tuple:
        node = self.eq_expr()
        while self._word("and"):
            node = ("xand", node, self.eq_expr())
        return node

    def eq_expr(self) -> tuple:
        node = self.rel_expr()
        while True:
            if self._lit("!="):
                node = ("cmp", "!=", node, self.rel_expr())
            elif self._lit("="):
                node = ("cmp", "=", node, self.rel_expr())
            else:
                return node

    def rel_expr(self) -> tuple:
        node = self.add_expr()
        while True:
            for op in ("<=", ">=", "<", ">"):
                if self._lit(op):
                    node = ("cmp", op, node, self.add_expr())
                    break
            else:
                return node

    def add_expr(self) -> tuple:
        node = self.mul_expr()
        while True:
            self._ws()
            c = self.s[self.i] if self.i < len(self.s) else ""
            if c == "+":
                self.i += 1
                node = ("arith", "+", node, self.mul_expr())
            elif c == "-":
                self.i += 1
                node = ("arith", "-", node, self.mul_expr())
            else:
                return node

    def mul_expr(self) -> tuple:
        node = self.unary_expr()
        while True:
            if self._word("div"):
                node = ("arith", "div", node, self.unary_expr())
            elif self._word("mod"):
                node = ("arith", "mod", node, self.unary_expr())
            else:
                self._ws()
                if self.i < len(self.s) and self.s[self.i] == "*":
                    self.i += 1
                    node = ("arith", "*", node, self.unary_expr())
                else:
                    return node

    def unary_expr(self) -> tuple:
        neg = False
        while self._peek() == "-":
            self.i += 1
            neg = not neg
            self._ws()
        node = self.primary()
        return ("neg", node) if neg else node

    def primary(self) -> tuple:
        c = self._peek()
        if c == "(":
            self.i += 1
            node = self.or_expr()
            if not self._lit(")"):
                raise ValueError("unbalanced paren in XPath expression")
            return node
        if c in "'\"":
            j = self.s.index(c, self.i + 1)
            lit = self.s[self.i + 1:j]
            self.i = j + 1
            return ("str", lit)
        if c.isdigit() or (c == "." and self.i + 1 < len(self.s)
                           and self.s[self.i + 1].isdigit()):
            m = re.match(r"\d+(?:\.\d+)?|\.\d+", self.s[self.i:])
            self.i += m.end()
            return ("num", float(m.group(0)))
        # function call?
        m = _XE_NAME.match(self.s, self.i)
        if m and m.group(0) in _XE_FUNCS:
            k = m.end()
            while k < len(self.s) and self.s[k].isspace():
                k += 1
            if k < len(self.s) and self.s[k] == "(":
                name = m.group(0)
                # text()/node() are node tests, not in _XE_FUNCS; but a
                # path may START with a function-named element tag
                # ("count/a") — only treat as a call when '(' follows
                self.i = k + 1
                args = []
                if self._peek() != ")":
                    args.append(self.or_expr())
                    while self._lit(","):
                        args.append(self.or_expr())
                if not self._lit(")"):
                    raise ValueError(f"unbalanced args in {name}()")
                return ("call", name, tuple(args))
        # location path operand
        return ("ns", _compile_pred_path(self._scan_path()))

    def _scan_path(self) -> str:
        """Consume a maximal location-path substring.  '*' is a path
        char only right after '/', '::' or '@' or at the path start;
        '-' only as a name char (no whitespace before it); whitespace
        ends the path unless the next non-space char opens a
        predicate."""
        self._ws()
        start = self.i
        depth = 0
        s, n = self.s, len(self.s)
        while self.i < n:
            c = s[self.i]
            if c in "(['":
                if c == "'":
                    self.i = s.index("'", self.i + 1) + 1
                    continue
                depth += 1
            elif c == '"':
                self.i = s.index('"', self.i + 1) + 1
                continue
            elif c in ")]":
                if depth == 0:
                    break
                depth -= 1
            elif depth == 0:
                if c in "=!<>,+|":
                    break
                if c == "*":
                    prev = s[start:self.i].rstrip()
                    if not (not prev or prev.endswith("/")
                            or prev.endswith(":") or prev.endswith("@")):
                        break
                elif c == "-":
                    if self.i == start or not (s[self.i - 1].isalnum()
                                               or s[self.i - 1] in "-_"):
                        break
                elif c.isspace():
                    j = self.i
                    while j < n and s[j].isspace():
                        j += 1
                    if j < n and s[j] == "[":
                        self.i = j
                        continue
                    break
            self.i += 1
        path = s[start:self.i].strip()
        if not path:
            raise ValueError(f"expected XPath operand at "
                             f"{s[start:start + 20]!r}")
        return path


def _xe_parse(src: str) -> tuple:
    return _XEParser(src).parse()


def _xe_str(v) -> str:
    """XPath string() coercion (spec number→string: no exponent form,
    'Infinity'/'-Infinity'/'NaN' spelled out)."""
    if isinstance(v, list):
        if not v:
            return ""
        first = v[0]
        return first.text_content() if isinstance(first, Element) else str(first)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if v != v:
            return "NaN"
        if v == float("inf"):
            return "Infinity"
        if v == float("-inf"):
            return "-Infinity"
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        import numpy as _np
        return _np.format_float_positional(v, trim="-")
    return v


_XE_NUMBER = re.compile(r"^\s*-?(\d+(\.\d*)?|\.\d+)\s*$")


def _xe_num(v) -> float:
    """XPath number() coercion: the spec's Number grammar only
    (optional '-', digits, optional fraction) — '1e2', 'inf', '+5'
    are NaN, unlike Python's float()."""
    if isinstance(v, bool):
        return 1.0 if v else 0.0
    if isinstance(v, float):
        return v
    s = _xe_str(v)
    if not _XE_NUMBER.match(s):
        return float("nan")
    return float(s)


def _xe_bool(v) -> bool:
    """XPath boolean() coercion."""
    if isinstance(v, list):
        return bool(v)
    if isinstance(v, bool):
        return v
    if isinstance(v, float):
        return v == v and v != 0.0
    return len(v) > 0


def _xe_items(v) -> list:
    """Scalar item list of a value for existential comparison."""
    if isinstance(v, list):
        return [x.text_content() if isinstance(x, Element) else x
                for x in v]
    return [v]


def _xe_cmp(op: str, a, b) -> bool:
    """XPath 1.0 comparison: existential over nodesets; <,>,<=,>= as
    numbers; =,!= as booleans/numbers/strings by operand types.  The
    spec's boolean rule comes FIRST: if either operand is a boolean,
    =/!= compares boolean(other) with it — boolean(nodeset) is
    non-emptiness, NOT the string-value of its nodes."""
    if op in ("=", "!=") and (isinstance(a, bool) or isinstance(b, bool)):
        eq = _xe_bool(a) == _xe_bool(b)
        return eq if op == "=" else not eq
    a_set, b_set = isinstance(a, list), isinstance(b, list)
    for x in _xe_items(a):
        for y in _xe_items(b):
            if op in ("<", "<=", ">", ">="):
                nx, ny = _xe_num(x), _xe_num(y)
                ok = {"<": nx < ny, "<=": nx <= ny,
                      ">": nx > ny, ">=": nx >= ny}[op]
            else:
                if isinstance(x, bool) or isinstance(y, bool):
                    eq = _xe_bool(x) == _xe_bool(y)
                elif isinstance(x, float) or isinstance(y, float):
                    # a nodeset item compared to a number casts to number
                    eq = _xe_num(x) == _xe_num(y)
                else:
                    eq = _xe_str(x) == _xe_str(y)
                ok = eq if op == "=" else not eq
            if ok:
                return True
            if not a_set and not b_set:
                return ok  # scalar-scalar: single verdict
    return False


def _xe_round(x: float) -> float:
    """XPath round(): half-up (not banker's), NaN/inf pass through."""
    import math
    if x != x or math.isinf(x):
        return x
    return float(math.floor(x + 0.5))


def _xe_eval(ast: tuple, el: Element, pos: int, size: int):
    kind = ast[0]
    if kind == "str":
        return ast[1]
    if kind == "num":
        return ast[1]
    if kind == "ns":
        return xpath_eval(el, ast[1])
    if kind == "neg":
        return -_xe_num(_xe_eval(ast[1], el, pos, size))
    if kind == "xand":
        return (_xe_bool(_xe_eval(ast[1], el, pos, size))
                and _xe_bool(_xe_eval(ast[2], el, pos, size)))
    if kind == "xor_":
        return (_xe_bool(_xe_eval(ast[1], el, pos, size))
                or _xe_bool(_xe_eval(ast[2], el, pos, size)))
    if kind == "cmp":
        return _xe_cmp(ast[1], _xe_eval(ast[2], el, pos, size),
                       _xe_eval(ast[3], el, pos, size))
    if kind == "arith":
        x = _xe_num(_xe_eval(ast[2], el, pos, size))
        y = _xe_num(_xe_eval(ast[3], el, pos, size))
        op = ast[1]
        try:
            if op == "+":
                return x + y
            if op == "-":
                return x - y
            if op == "*":
                return x * y
            if op == "div":
                return x / y if y != 0 else (
                    float("nan") if x != x or x == 0
                    else float("inf") if x > 0 else float("-inf"))
            # XPath mod keeps the dividend's sign (fmod, not %)
            import math
            return math.fmod(x, y) if y != 0 else float("nan")
        except (OverflowError, ZeroDivisionError):
            return float("nan")
    assert kind == "call", ast
    name, args = ast[1], ast[2]
    ev = [(lambda a=a: _xe_eval(a, el, pos, size)) for a in args]
    if name == "position":
        return float(pos)
    if name == "last":
        return float(size)
    if name == "true":
        return True
    if name == "false":
        return False
    if name == "count":
        v = ev[0]()
        if not isinstance(v, list):
            raise ValueError("count() needs a node-set")
        return float(len(v))
    if name == "not":
        return not _xe_bool(ev[0]())
    if name == "boolean":
        return _xe_bool(ev[0]())
    if name == "number":
        return _xe_num(ev[0]()) if args else _xe_num(el.text_content())
    if name == "string":
        return _xe_str(ev[0]()) if args else el.text_content()
    if name == "concat":
        return "".join(_xe_str(f()) for f in ev)
    if name == "contains":
        return _xe_str(ev[1]()) in _xe_str(ev[0]())
    if name == "starts-with":
        return _xe_str(ev[0]()).startswith(_xe_str(ev[1]()))
    if name == "normalize-space":
        s = _xe_str(ev[0]()) if args else el.text_content()
        return _WS_RUN.sub(" ", s).strip()
    if name == "string-length":
        return float(len(_xe_str(ev[0]()) if args else el.text_content()))
    if name == "substring":
        s = _xe_str(ev[0]())
        start = _xe_round(_xe_num(ev[1]()))
        if start != start:
            return ""
        if len(args) > 2:
            length = _xe_round(_xe_num(ev[2]()))
            if length != length:
                return ""
            end = start + length
        else:
            end = float("inf")
        # XPath 1-based char positions: keep chars with
        # start <= position < end
        return "".join(ch for i, ch in enumerate(s, 1)
                       if start <= i < end)
    if name == "substring-before":
        s, t = _xe_str(ev[0]()), _xe_str(ev[1]())
        i = s.find(t)
        return s[:i] if i >= 0 else ""
    if name == "substring-after":
        s, t = _xe_str(ev[0]()), _xe_str(ev[1]())
        i = s.find(t)
        return s[i + len(t):] if i >= 0 else ""
    if name == "translate":
        s, frm, to = (_xe_str(ev[0]()), _xe_str(ev[1]()),
                      _xe_str(ev[2]()))
        table = {}
        for i, ch in enumerate(frm):
            if ch not in table:
                table[ch] = to[i] if i < len(to) else None
        return "".join(table.get(ch, ch) for ch in s
                       if table.get(ch, ch) is not None)
    if name == "floor":
        import math
        x = _xe_num(ev[0]())
        return x if x != x else float(math.floor(x))
    if name == "ceiling":
        import math
        x = _xe_num(ev[0]())
        return x if x != x else float(math.ceil(x))
    if name == "round":
        return _xe_round(_xe_num(ev[0]()))
    if name in ("name", "local-name"):
        if args:
            v = ev[0]()
            if isinstance(v, list) and v and isinstance(v[0], Element):
                return v[0].tag
            return ""
        return el.tag
    raise AssertionError(name)


def compile_xpath(expr: str) -> CompiledXPath:
    expr = expr.strip()
    parts = _split_top(expr, "|")
    if len(parts) > 1:
        return CompiledXPath(
            steps=(), extract=None,
            alts=tuple(compile_xpath(p) for p in parts))
    # top-level VALUE expression ("string(.)", "concat(@a,'-',text())",
    # "count(.//li)") — lxml/parsel accept arbitrary XPath returning
    # strings/numbers (/root/reference/dude/optional/lxml_scraper.py:184)
    m = re.match(r"(string|concat|normalize-space|substring(?:-before"
                 r"|-after)?|translate|count|string-length|number|name"
                 r"|local-name|contains|starts-with|not|boolean|true"
                 r"|false|floor|ceiling|round)\s*\(", expr)
    if m:
        return CompiledXPath(steps=(), extract=None,
                             expr=_xe_parse(expr))
    extract: Optional[object] = None
    if expr.endswith("/text()"):
        extract = "text"
        expr = expr[: -len("/text()")]
    else:
        m = re.search(r"/@([\w-]+)$", expr)
        if m:
            extract = ("attr", m.group(1))
            expr = expr[: m.start()]
    if expr.startswith("./"):
        expr = expr[1:]
    elif expr == ".":
        expr = "self::*"
    steps: list[_XStep] = []
    # split into steps: "//" → descendant, "/" → child, axis::name
    i = 0
    while i < len(expr):
        if expr.startswith("//", i):
            axis, i = "descendant", i + 2
        elif expr.startswith("/", i):
            axis, i = "child", i + 1
        else:
            # bare relative path ("p[...]"): kept as descendant — the
            # historical behavior of this engine's selector surface
            axis = "descendant"
        j = i
        depth = 0
        while j < len(expr):
            if expr[j] == "[":
                depth += 1
            elif expr[j] == "]":
                depth -= 1
            elif expr[j] == "/" and depth == 0:
                break
            j += 1
        step_src = expr[i:j]
        i = j
        if step_src == "..":
            steps.append(_XStep(axis="parent", tag=None))
            continue
        if step_src == ".":
            steps.append(_XStep(axis="self", tag=None))
            continue
        am = re.match(r"([a-z-]+)::", step_src)
        if am:
            ax = am.group(1)
            if ax not in _XP_AXES:
                raise ValueError(f"Unsupported XPath axis: {ax}::")
            # an explicit descendant:: counts positions over the whole
            # subtree, unlike abbreviated // (per-parent groups)
            axis = "descendant-explicit" if ax == "descendant" else ax
            step_src = step_src[am.end():]
        m2 = re.match(r"([\w-]+|\*)", step_src)
        if not m2:
            raise ValueError(f"Unsupported XPath step: {step_src!r}")
        tag = None if m2.group(1) == "*" else m2.group(1).lower()
        rest = step_src[m2.end():].strip()
        preds: list[tuple] = []
        k = 0
        while k < len(rest):
            if rest[k] != "[":
                raise ValueError(f"Unsupported XPath step: {step_src!r}")
            depth, k2 = 1, k + 1
            while k2 < len(rest) and depth:
                if rest[k2] == "[":
                    depth += 1
                elif rest[k2] == "]":
                    depth -= 1
                k2 += 1
            preds.append(_parse_pred(rest[k + 1:k2 - 1]))
            k = k2
        steps.append(_XStep(axis=axis, tag=tag, predicates=tuple(preds)))
    return CompiledXPath(steps=tuple(steps), extract=extract)


_WS_RUN = re.compile(r"\s+")


def _xstrval(el: Element, which: str) -> str:
    """'@name' → attribute value, 'text()' → direct text, '.' →
    string-value (all descendant text, lxml text_content)."""
    if which.startswith("@"):
        return el.attrs.get(which[1:], "")
    if which == "text()":
        return el.text
    return el.text_content()


def _xeval(el: Element, p: tuple, pos: int, size: int) -> bool:
    kind = p[0]
    if kind == "and":
        return all(_xeval(el, q, pos, size) for q in p[1])
    if kind == "or":
        return any(_xeval(el, q, pos, size) for q in p[1])
    if kind == "not":
        return not _xeval(el, p[1], pos, size)
    if kind == "strfn":
        hay = _xstrval(el, p[2])
        return hay.startswith(p[3]) if p[1] == "starts-with" else p[3] in hay
    if kind == "normspace":
        v = _WS_RUN.sub(" ", el.text_content()).strip()
        return (v == p[2]) if p[1] == "=" else (v != p[2])
    if kind == "streq":
        v = _xstrval(el, p[1])
        return (v == p[3]) if p[2] == "=" else (v != p[3])
    if kind == "attr_cmp":
        v = el.attrs.get(p[1])
        if p[2] == "=":
            return v == p[3]
        return v is not None and v != p[3]  # XPath: absent attr → false
    if kind == "has_attr":
        return p[1] in el.attrs
    if kind == "path":
        return bool(xpath_eval(el, p[1]))
    if kind == "path_cmp":
        vals = [v.text if isinstance(v, Element) else v
                for v in xpath_eval(el, p[1])]
        if p[2] == "=":
            return any(v == p[3] for v in vals)
        return any(v != p[3] for v in vals)
    if kind == "pos_cmp":
        op, k = p[1], p[2]
        if k == -1:
            k = size  # last()
        return {"=": pos == k, "!=": pos != k, "<": pos < k,
                ">": pos > k, "<=": pos <= k, ">=": pos >= k}[op]
    if kind == "expr":
        v = _xe_eval(p[1], el, pos, size)
        if isinstance(v, float):
            return pos == v  # numeric predicate = position test
        return _xe_bool(v)
    raise AssertionError(p)


def _elem_children(node: Element) -> list[Element]:
    return [c for c in node.children if isinstance(c, Element)]


def _axis_groups(node: Element, axis: str):
    """Ordered candidate groups for one step from one context node.
    Positional predicates count WITHIN a group — abbreviated ``//tag[n]``
    means "n-th matching child of its parent" (XPath: ``//`` expands to
    ``/descendant-or-self::node()/child::``), so the descendant axis
    yields one child group per descendant-or-self node; the explicit
    axes yield a single group."""
    if axis == "child":
        yield _elem_children(node)
    elif axis == "descendant":
        yield _elem_children(node)
        for d in node.iter():
            yield _elem_children(d)
    elif axis == "descendant-explicit":
        yield list(node.iter())
    elif axis == "following-sibling":
        if node.parent is not None:
            sibs = _elem_children(node.parent)
            yield sibs[sibs.index(node) + 1:]
    elif axis == "preceding-sibling":
        if node.parent is not None:
            sibs = _elem_children(node.parent)
            # reverse document order: [1] is the NEAREST preceding
            yield sibs[:sibs.index(node)][::-1]
    elif axis == "self":
        yield [node]
    elif axis == "parent":
        if node.parent is not None and node.parent.tag != ":document":
            yield [node.parent]
    elif axis == "descendant-or-self":
        yield [node] + list(node.iter())
    elif axis == "ancestor":
        yield list(_ancestors(node))  # reverse axis: [1] = nearest
    elif axis == "ancestor-or-self":
        yield [node] + list(_ancestors(node))
    elif axis == "following":
        root = _doc_root(node)
        sub = {id(d) for d in node.iter()}
        yield [el for el in root.iter()
               if el._order > node._order and id(el) not in sub]
    elif axis == "preceding":
        root = _doc_root(node)
        anc = {id(a) for a in _ancestors(node)}
        # reverse axis: nearest (largest _order) first
        yield [el for el in root.iter()
               if el._order < node._order and id(el) not in anc][::-1]
    else:  # pragma: no cover
        raise AssertionError(axis)


def _ancestors(node: Element):
    p = node.parent
    while p is not None and p.tag != ":document":
        yield p
        p = p.parent


def _doc_root(node: Element) -> Element:
    while node.parent is not None:
        node = node.parent
    return node


def xpath_select(scope: Element, compiled: CompiledXPath) -> list[Element]:
    """Evaluate the compiled location path; node-set in document order.
    For unions, the branches' node-sets are merged and deduped (XPath
    ``|`` set semantics)."""
    if compiled.alts:
        out, seen = [], set()
        for alt in compiled.alts:
            for el in xpath_select(scope, alt):
                if id(el) not in seen:
                    seen.add(id(el))
                    out.append(el)
        out.sort(key=lambda e: e._order)
        return out
    if compiled.expr is not None:
        return []  # value expressions have no node-set
    current = [scope]
    for step in compiled.steps:
        nxt: list[Element] = []
        seen_ids = set()
        for node in current:
            for group in _axis_groups(node, step.axis):
                if step.tag is not None:
                    cands = [el for el in group if el.tag == step.tag]
                else:
                    cands = list(group)
                # each predicate filters, then positions recount over
                # the SURVIVORS for the next predicate ([2][@a] ≠ [@a][2])
                for p in step.predicates:
                    if not cands:
                        break
                    size = len(cands)
                    cands = [el for i, el in enumerate(cands, 1)
                             if _xeval(el, p, i, size)]
                for el in cands:
                    if id(el) not in seen_ids:
                        seen_ids.add(id(el))
                        nxt.append(el)
        nxt.sort(key=lambda e: e._order)
        current = nxt
    return current


def xpath_eval(scope: Element, compiled: CompiledXPath) -> list:
    """Evaluate including the trailing ``/text()`` / ``/@attr``
    extraction — elements for node paths, strings for value paths.
    Union branches extract independently, concatenated in branch order
    (lxml interleaves by document position; for the element-only case
    we match it via xpath_select, mixed string unions keep branch
    order — documented deviation)."""
    if compiled.alts:
        if all(a.extract is None and a.expr is None
               for a in compiled.alts):
            return xpath_select(scope, compiled)
        out = []
        for alt in compiled.alts:
            out.extend(xpath_eval(scope, alt))
        return out
    if compiled.expr is not None:
        # value expression: ONE value per context node (string/float),
        # matching lxml's scalar xpath() returns
        return [_xe_eval(compiled.expr, scope, 1, 1)]
    els = xpath_select(scope, compiled)
    if compiled.extract == "text":
        return [e.text for e in els]
    if isinstance(compiled.extract, tuple):
        name = compiled.extract[1]
        return [e.attrs[name] for e in els if name in e.attrs]
    return list(els)


# --------------------------------------------------------------------------
# TEXT / REGEX selectors (lxml-equivalent semantics)
# --------------------------------------------------------------------------

def text_select(scope: Element, needle: str) -> list[Element]:
    """``.//*[contains(text(), needle)]`` — direct-text contains."""
    return [el for el in scope.iter() if needle in el.text]


def regex_select(scope: Element, pattern: Union[str, re.Pattern]) -> list[Element]:
    """``.//*[re:test(text(), pattern, 'i')]`` — direct-text regex search,
    case-insensitive (EXSLT re:test semantics = search, not fullmatch)."""
    rx = re.compile(pattern, re.IGNORECASE) if isinstance(pattern, str) else pattern
    return [el for el in scope.iter() if el.text and rx.search(el.text)]
