"""Fetch stage — URL → document lookup into the corpus (J1).

The reference's fetch is ``page.goto(url)`` / ``httpx`` GET with
error→skip (/root/reference/dude/playwright_scraper.py:169-203,
/root/reference/dude/optional/utils.py:11-28).  In corpus-replay mode
a fetch is a key lookup into the partitioned corpus parquet: partition
``part = host_shard(host, P)`` is the same hash family the frontier
uses, so one released batch clusters into few partitions and a worker
only reads the row groups of the partitions it actually serves.

Stateful → actor pool: the partition cache lives in the actor across
batches (LRU-bounded for the 100 TB case where one worker cannot hold
the corpus; at test scale everything fits)."""

from __future__ import annotations

import collections
from typing import Optional

import pyarrow.dataset as pads

from ..canonical import host_shard, url_host


def shape_proxy(server: Optional[str], user: Optional[str] = None,
                password: Optional[str] = None) -> Optional[str]:
    """Reference proxy shaping for HTTP-client backends
    (/root/reference/dude/__init__.py:229-235): ``http://`` +
    optional ``user:pass@`` + server."""
    if not server:
        return None
    user_info = f"{user}:{password}@" if user and password else ""
    return f"http://{user_info}{server}"


class HttpFetcher:
    """Real-network fetch stage behind the same seam as
    :class:`CorpusFetcher` — the semantics of the reference's
    ``http_get`` (/root/reference/dude/optional/utils.py:11-28):
    success → ``(response text, final URL after redirects)``; HTTP
    status error or transport error → ``(None, requested URL)`` and
    the page is skipped.  Built on stdlib urllib (httpx is not in this
    container); requests fan out over a per-process thread pool, so one
    fetching process keeps ``max_workers`` connections in flight — the
    latency-hiding the 100 TB crawl needs, where fetch is network-bound
    while extract is CPU-bound.

    The opener (proxy config, redirect handling) and thread pool are
    built lazily, on first use in each copy, so the configured instance
    stays picklable inside a task stage (``scraper.PageWorker``)."""

    def __init__(self, proxy: Optional[str] = None, timeout: float = 10.0,
                 max_workers: int = 16, user_agent: str = "dude-ray/0.1"):
        self.proxy = proxy
        self.timeout = timeout
        self.max_workers = max_workers
        self.user_agent = user_agent
        self._opener = None
        self._pool = None

    def _ensure(self):
        import urllib.request
        from concurrent.futures import ThreadPoolExecutor

        if self._opener is None:
            handlers = []
            if self.proxy:
                handlers.append(urllib.request.ProxyHandler(
                    {"http": self.proxy, "https": self.proxy}))
            self._opener = urllib.request.build_opener(*handlers)
        if self._pool is None:
            self._pool = ThreadPoolExecutor(self.max_workers)

    def fetch_one(self, url: str, method: str = "GET",
                  body: Optional[str] = None,
                  headers: Optional[dict] = None) -> tuple[Optional[str], str]:
        """One request → (text | None, final-or-requested URL)."""
        import urllib.error
        import urllib.request

        self._ensure()
        data = body.encode() if isinstance(body, str) else body
        req = urllib.request.Request(url, data=data, method=method)
        req.add_header("User-Agent", self.user_agent)
        for k, v in (headers or {}).items():
            req.add_header(k, v)
        try:
            with self._opener.open(req, timeout=self.timeout) as resp:
                charset = resp.headers.get_content_charset() or "utf-8"
                return resp.read().decode(charset, "replace"), resp.geturl()
        except (urllib.error.URLError, TimeoutError, OSError, ValueError):
            # urllib.error.HTTPError (raise_for_status analog) is an
            # OSError subclass — status errors and transport errors
            # both collapse to the reference's (None, url) skip
            return None, url

    def fetch(self, requests) -> list[tuple[Optional[str], str]]:
        """Batch fan-out; each item is a URL or (url, method, body)."""
        self._ensure()
        futs = [self._pool.submit(self.fetch_one,
                                  *((r,) if isinstance(r, str) else tuple(r)))
                for r in requests]
        return [f.result() for f in futs]

    def lookup(self, urls: list[str]) -> list[Optional[str]]:
        """CorpusFetcher-seam compatibility: texts only."""
        return [text for text, _ in self.fetch(urls)]


class CorpusFetcher:
    """Holds the partitioned corpus; ``lookup`` resolves canonical URLs
    to (html, found) pairs."""

    def __init__(self, corpus_dir: str, num_parts: int, cache_parts: int = 64):
        self._dataset = pads.dataset(f"{corpus_dir}/web", partitioning="hive")
        self.num_parts = num_parts
        self._cache: "collections.OrderedDict[int, dict[str, str]]" = collections.OrderedDict()
        self._cache_parts = cache_parts

    def _part_index(self, part: int) -> dict[str, str]:
        idx = self._cache.get(part)
        if idx is None:
            t = self._dataset.to_table(columns=["doc_id", "html"],
                                       filter=pads.field("part") == part)
            idx = dict(zip(t["doc_id"].to_pylist(), t["html"].to_pylist()))
            self._cache[part] = idx
            if len(self._cache) > self._cache_parts:
                self._cache.popitem(last=False)
        else:
            self._cache.move_to_end(part)
        return idx

    def lookup(self, urls: list[str]) -> list[Optional[str]]:
        out: list[Optional[str]] = []
        for url in urls:
            part = host_shard(url_host(url), self.num_parts)
            out.append(self._part_index(part).get(url))
        return out
