"""Link extraction + URL edge routing (the crawl's wide step).

``collect_links`` mirrors the reference's ``follow_urls`` pass: every
``<a href>`` in document order, absolutized with ``urljoin``, skipping
only links equal to the current page modulo a trailing slash
(/root/reference/dude/optional/beautifulsoup_scraper.py:81-85,
playwright_scraper.py:182-186).  On top of that (north rule) each edge
is RFC 3986-canonicalized before it is hashed into the seen set.

Routing is an explicit hash-partitioned exchange: edges are grouped by
``host_shard(host)`` inside the extract task, and the buckets go to the
frontier actor in one offer RPC per chunk, each to its owning logical
shard — the shuffle never transits the driver.
"""

from __future__ import annotations

from ..canonical import LinkCanonicalizer, canonical_url_host
from ..htmlparser import Element


def collect_links(dom: Element, page_url: str) -> list[str]:
    """All <a href> absolutized, self-links dropped, canonicalized,
    order-preserving de-dup within the page (first occurrence wins —
    harmless strengthening of the reference, which appends dups that
    its missing seen-set would re-fetch).  The page URL is parsed once;
    simple hrefs canonicalize by string concatenation
    (``LinkCanonicalizer``) — this loop is the crawl's hottest edge."""
    out: list[str] = []
    seen: set[str] = set()
    page_norm = page_url.rstrip("/")
    canon_of = LinkCanonicalizer(page_url)
    for el in dom.index().get(("t", "a"), ()):
        href = el.attrs.get("href")
        if not href:
            continue
        canon = canon_of(href)
        if canon.rstrip("/") == page_norm:
            continue
        if canon not in seen:
            seen.add(canon)
            out.append(canon)
    return out


def route_edges(urls: list[str], depths: list[int], keys: list[tuple],
                frontier, num_shards: int) -> list:
    """Partition edges by host-hash over ``num_shards`` logical shards
    and offer them, with their deterministic enqueue keys (see
    dude_ray.state.frontier), to the ``frontier`` actor in one RPC.
    Host strings and SHA-1 digests are computed here — in the parallel
    workers — so the single-threaded frontier only does set/dict work.
    Returns the in-flight offer ObjectRef in a list, empty when there
    are no edges (caller barriers)."""
    import hashlib

    sha1 = hashlib.sha1
    host_buckets: dict[str, int] = {}
    buckets: dict[int, tuple[list, list, list, list, list]] = {}
    for url, depth, key in zip(urls, depths, keys):
        host = canonical_url_host(url)  # edges are canonical by here
        digest = sha1(url.encode("utf-8")).digest()
        b = host_buckets.get(host)
        if b is None:
            b = host_buckets[host] = int.from_bytes(
                sha1(host.encode()).digest()[:8], "big") % num_shards
        entry = buckets.get(b)
        if entry is None:
            entry = buckets[b] = ([], [], [], [], [])
        entry[0].append(url)
        entry[1].append(depth)
        entry[2].append(key)
        entry[3].append(host)
        entry[4].append(digest)
    return [frontier.offer.remote(buckets)] if buckets else []
