"""Tracing for the benchmark's traced runs.

* :class:`Tracer` records spans (name, start, end, parent) in memory and
  writes them out once, after the run.
* :func:`replay_layers` drives the engine's per-page layers in-process,
  one public call at a time, over a workload's corpus: a single
  actor-free ``FrontierShardLocalArrow`` releases URLs, which go through
  ``CorpusFetcher.lookup``, ``parse_html``, ``extract_all`` +
  ``accumulate_spans`` + ``spans_column``, ``collect_links``, and
  ``canonical_url_host`` + ``url_sha1`` before being offered back.  The
  counts it reports are a pure function of the corpus and the frontier
  configuration, so they repeat exactly.
* :func:`dataset_layers`, :func:`flagship_layers` and :func:`crawl_layers` turn
  ``Dataset.stats()`` text and the crawl's ``CRAWL_PROFILE`` line plus
  ``METRICS.json`` into per-layer numbers.
"""

from __future__ import annotations

import json
import re
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        if attrs:
            rec["attrs"] = attrs
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and s["end"] is not None)

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, **extra}, f)


# run_crawl's defaults: ticks per round, worker batch size, and one of
# its 4 shards' share of the 2M-URL seen-set capacity
TICKS_PER_ROUND = 8
BATCH_SIZE = 128
SHARD_CAPACITY = 2_000_000 // 4 + 1


def replay_layers(corpus_dir: str, tracer: Tracer, *, exact_confirm: bool,
                  politeness_burst: int) -> dict:
    """Sequential in-process crawl of ``corpus_dir`` through the engine's
    layers, with a snapshot after every round as both benchmark crawl
    configurations checkpoint every round; returns the per-layer
    metrics."""
    from dude_ray.canonical import canonical_url_host, canonicalize_url, url_host, url_sha1
    from dude_ray.htmlparser import parse_html
    from dude_ray.pipelines.flagship import flagship_rules
    from dude_ray.sources.corpus import load_manifest, load_robots, load_seeds
    from dude_ray.stages.extract import SpanExtractor, accumulate_spans, extract_all, spans_column
    from dude_ray.stages.fetch import CorpusFetcher
    from dude_ray.stages.links import collect_links
    from dude_ray.state.bloom import BloomFilter
    from dude_ray.state.frontier import FrontierShardLocalArrow

    robots = load_robots(corpus_dir)
    seeds = [canonicalize_url(s["url"]) for s in load_seeds(corpus_dir)]
    fetcher = CorpusFetcher(corpus_dir, load_manifest(corpus_dir)["num_parts"])
    compiled = SpanExtractor(flagship_rules()).compiled
    shard = FrontierShardLocalArrow(
        0, robots, {url_host(u) for u in seeds}, capacity=SHARD_CAPACITY,
        exact_confirm=exact_confirm, politeness=True)
    shard.offer(seeds, [0] * len(seeds), [(-1, i, 0) for i in range(len(seeds))],
                [canonical_url_host(u) for u in seeds], [url_sha1(u) for u in seeds])

    released = ok = n_spans = n_edges = 0
    snapshot_bytes = 0
    all_digests: list[bytes] = []
    rnd = 0
    with tracer.span("replay"):
        while True:
            with tracer.span("frontier.release", round=rnd):
                tbl = shard.release_many_table(TICKS_PER_ROUND, 1_000_000,
                                               politeness_burst)
            if tbl.num_rows == 0:
                if shard.pending() == 0:
                    break
                rnd += 1
                continue
            # global enqueue-key order, as the crawl driver assigns it
            order = np.lexsort((tbl["ek_link"].to_numpy(), tbl["ek_parent"].to_numpy(),
                                tbl["ek_round"].to_numpy()))
            urls = tbl["url"].take(order).to_pylist()
            depths = tbl["depth"].take(order).to_pylist()
            released += len(urls)
            for b in range(0, len(urls), BATCH_SIZE):
                b_urls = urls[b:b + BATCH_SIZE]
                with tracer.span("fetch.lookup", n=len(b_urls)):
                    htmls = fetcher.lookup(b_urls)
                pages = [(b + i, u, h) for i, (u, h) in enumerate(zip(b_urls, htmls))
                         if h is not None]
                ok += len(pages)
                with tracer.span("parse", n=len(pages)):
                    doms = [parse_html(h) for _, _, h in pages]
                with tracer.span("extract", n=len(pages)):
                    kinds, texts, refs, offs, offsets = [], [], [], [], [0]
                    for (_, u, _), dom in zip(pages, doms):
                        accumulate_spans(extract_all(compiled, dom, u),
                                         kinds, texts, refs, offs)
                        offsets.append(len(kinds))
                    spans_column(kinds, texts, refs, offs, offsets)
                n_spans += len(kinds)
                with tracer.span("links", n=len(pages)):
                    links = [collect_links(dom, u) for (_, u, _), dom in zip(pages, doms)]
                e_urls, e_depths, e_keys = [], [], []
                for (i, _, _), ls in zip(pages, links):
                    e_urls += ls
                    e_depths += [depths[i] + 1] * len(ls)
                    e_keys += [(rnd, i, j) for j in range(len(ls))]
                n_edges += len(e_urls)
                with tracer.span("route", n=len(e_urls)):
                    hosts = [canonical_url_host(u) for u in e_urls]
                    digests = [url_sha1(u) for u in e_urls]
                all_digests += digests
                with tracer.span("frontier.offer", n=len(e_urls)):
                    shard.offer(e_urls, e_depths, e_keys, hosts, digests)
            with tracer.span("frontier.snapshot"):
                snapshot_bytes = len(shard.snapshot())
            rnd += 1

    keys = list(dict.fromkeys(all_digests))
    bloom = BloomFilter(capacity=SHARD_CAPACITY)
    with tracer.span("bloom.add_many", n=len(keys)):
        bloom.add_many(keys)
    st = shard.get_stats()
    offered = st.get("offered", 0)
    us = 1e6
    return {
        "fetch.lookup_us_per_url": tracer.total("fetch.lookup") * us / max(released, 1),
        "fetch.hit_ratio": ok / max(released, 1),
        "parse.us_per_page": tracer.total("parse") * us / max(ok, 1),
        "extract.us_per_page": tracer.total("extract") * us / max(ok, 1),
        "extract.spans_per_page": n_spans / max(ok, 1),
        "links.us_per_page": tracer.total("links") * us / max(ok, 1),
        "links.edges_per_page": n_edges / max(ok, 1),
        "route.us_per_edge": tracer.total("route") * us / max(n_edges, 1),
        "frontier.offered": offered,
        "frontier.enqueued": st.get("enqueued", 0),
        "frontier.released": released,
        "frontier.dup_ratio": st.get("duplicate", 0) / max(offered, 1),
        "frontier.skipped.robots_disallowed": st.get("robots_disallowed", 0),
        "frontier.skipped.not_allowed_domain": st.get("not_allowed_domain", 0),
        "frontier.offer_us_per_edge": tracer.total("frontier.offer") * us / max(n_edges, 1),
        "frontier.release_us_per_url": tracer.total("frontier.release") * us / max(released, 1),
        "frontier.snapshot_kb": snapshot_bytes / 1024.0,
        "bloom.add_us_per_key": tracer.total("bloom.add_many") * us / max(len(keys), 1),
        "bloom.fill": float(np.unpackbits(shard.bloom.bits).mean()),
    }


_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
_OP = re.compile(r"^Operator \d+ (.+?):")
_TASK = re.compile(r"Remote (wall|cpu) time: .*?, ([\d.]+)(us|ms|s) total")
_SHUFFLE = ("Sort", "Aggregate", "Repartition", "Shuffle", "Join", "GroupBy")


def operator_seconds(stats: str) -> dict:
    """Task seconds (summed remote wall) and task CPU seconds per
    operator name, ``{name: {"s": .., "cpu_s": ..}}``, from
    ``Dataset.stats()`` text.  Sub-operators (e.g. SortMap and
    SortReduce) count towards their operator."""
    out: dict = {}
    cur = None
    for line in stats.splitlines():
        m = _OP.match(line)
        if m:
            cur = out.setdefault(m.group(1), {"s": 0.0, "cpu_s": 0.0})
            continue
        t = _TASK.search(line)
        if t and cur is not None:
            cur["s" if t.group(1) == "wall" else "cpu_s"] += float(t.group(2)) * _UNIT[t.group(3)]
    return out


def dataset_layers(stats: str) -> dict:
    """Task seconds and task CPU seconds per operator class — read, map,
    shuffle.  Operators overlap in streaming execution, so their own
    wall times do not add up; task seconds do."""
    out = {f"{c}_{k}": 0.0 for c in ("read", "map", "shuffle") for k in ("s", "cpu_s")}
    for name, t in operator_seconds(stats).items():
        cls = ("read" if name.startswith("Read") else
               "shuffle" if any(k in name for k in _SHUFFLE) else "map")
        out[f"{cls}_s"] += t["s"]
        out[f"{cls}_cpu_s"] += t["cpu_s"]
    return out


def flagship_layers(stats: str) -> dict:
    """``flagship.*``: the corpus read and the ``SpanExtractor`` map of a
    Dataset built on ``run_extract``, from its ``Dataset.stats()``."""
    ops = operator_seconds(stats)
    read = [t for n, t in ops.items() if n.startswith("Read")]
    ext = [t for n, t in ops.items() if "SpanExtractor" in n]
    return {"flagship.read_s": sum(t["s"] for t in read),
            "flagship.map_s": sum(t["s"] for t in ext),
            "flagship.map_cpu_s": sum(t["cpu_s"] for t in ext)}


def crawl_layers(profile_line: str, metrics: dict, call_wall_s: float) -> dict:
    """``crawl.*`` driver-loop phases from ``CRAWL_PROFILE`` + METRICS.json."""
    prof = json.loads(profile_line.split(" ", 1)[1])
    loop = metrics["loop_sec"]
    busy = metrics["worker_busy_s"]
    phases = {"release_wait_s": prof["release"], "build_s": prof["build"],
              "dispatch_s": prof["dispatch"], "write_s": prof["write"],
              "ckpt_s": prof["ckpt"]}
    out = {f"crawl.{k}": v for k, v in phases.items()}
    out.update({
        "crawl.startup_s": call_wall_s - loop,
        "crawl.loop_s": loop,
        "crawl.rounds": metrics["rounds"],
        "crawl.worker_busy_s": busy,
        "crawl.worker_util": busy / max(loop * metrics["n_workers"], 1e-9),
        "crawl.phase_cover": sum(phases.values()) / max(loop, 1e-9),
    })
    return out
