"""Frontier shard unit tests (actor-free, via FrontierShardLocal)."""

from dude_ray.canonical import url_sha1
from dude_ray.state.frontier import FrontierShardLocal

ROBOTS = {
    "a.test": "",
    "slow.test": "User-agent: *\nDisallow: /private/\nCrawl-delay: 2\n",
    "blocked.test": "User-agent: *\nDisallow: /\n",
}
ALLOWED = {"a.test", "slow.test", "blocked.test"}


def mk(politeness=True):
    return FrontierShardLocal(0, ROBOTS, ALLOWED, capacity=10_000,
                              politeness=politeness)


def key(i):
    return (0, i, 0)


def test_offer_release_fifo():
    f = mk()
    urls = [f"https://a.test/{i}" for i in range(5)]
    f.offer(urls, [0] * 5, [key(i) for i in range(5)])
    out = f.release()
    assert [u for _, u, _ in out] == urls


def test_release_is_global_key_order():
    f = mk()
    f.offer(["https://a.test/z"], [0], [(1, 5, 0)])
    f.offer(["https://a.test/a"], [0], [(0, 2, 1)])
    f.offer(["https://a.test/m"], [0], [(0, 2, 0)])
    out = f.release()
    assert [u for _, u, _ in out] == ["https://a.test/m", "https://a.test/a", "https://a.test/z"]


def test_dedup_first_offer_wins():
    f = mk()
    f.offer(["https://a.test/x", "https://a.test/x"], [0, 1], [key(0), key(1)])
    out = f.release()
    assert len(out) == 1 and out[0][2] == 0  # depth of the first offer
    f.offer(["https://a.test/x"], [5], [key(9)])
    assert f.release() == []
    assert f.stats["duplicate"] == 2


def test_domain_filter():
    f = mk()
    f.offer(["https://other.test/x"], [0], [key(0)])
    assert f.release() == []
    assert f.stats["not_allowed_domain"] == 1
    assert not f.has_seen("https://other.test/x")  # domain-blocked never enters seen


def test_robots_disallow_and_seen():
    f = mk()
    f.offer(["https://blocked.test/x", "https://slow.test/private/y"],
            [0, 0], [key(0), key(1)])
    assert f.release() == []
    assert f.stats["robots_disallowed"] == 2
    # robots-blocked URLs ARE marked seen (dedup before robots gate)
    assert f.has_seen("https://blocked.test/x")


def test_politeness_one_per_delay_window():
    f = mk()
    urls = [f"https://slow.test/{i}" for i in range(4)]
    f.offer(urls, [0] * 4, [key(i) for i in range(4)])
    got = []
    for _ in range(8):  # delay=2 → one URL every 2 ticks
        got.append(len(f.release()))
    assert sum(got) == 4
    assert max(got) == 1
    assert got[:2] == [1, 0]  # throttled tick between releases
    assert [h["released"] for h in f.host_accounting()] == [4]


def test_politeness_off_releases_all():
    f = mk(politeness=False)
    urls = [f"https://slow.test/{i}" for i in range(4)]
    f.offer(urls, [0] * 4, [key(i) for i in range(4)])
    assert len(f.release()) == 4


def test_snapshot_restore_roundtrip():
    f = mk()
    f.offer([f"https://a.test/{i}" for i in range(10)], [0] * 10,
            [key(i) for i in range(10)])
    f.release(max_urls=3)
    raw = f.snapshot()
    g = FrontierShardLocal(9, {}, set())
    g.restore(raw)
    assert g.pending() == f.pending() == 7
    assert g.seen_count() == 10
    assert [u for _, u, _ in g.release()] == [f"https://a.test/{i}" for i in range(3, 10)]
    assert g.stats == f.stats or g.stats["released"] >= f.stats["released"]


def test_mixed_hosts_interleave_by_key():
    f = mk()
    f.offer(["https://a.test/1", "https://slow.test/1", "https://a.test/2"],
            [0, 0, 0], [(0, 0, 0), (0, 1, 0), (0, 2, 0)])
    out = f.release()
    # heads pop in key order; the delay-0 host drains contiguously, the
    # delayed host releases one.  The crawl driver re-sorts the round by
    # key, so only per-host order and the released SET are contractual.
    assert [u for _, u, _ in out] == ["https://a.test/1", "https://a.test/2",
                                     "https://slow.test/1"]
    assert sorted(k for k, _, _ in out) == [(0, 0, 0), (0, 1, 0), (0, 2, 0)]
    assert f.release() == []  # nothing left
