"""Process-tree accounting from /proc (Linux): CPU seconds, anonymous
resident memory, and finding or stopping the processes of one Ray
session."""

from __future__ import annotations

import os
import signal
import time

TICK = os.sysconf("SC_CLK_TCK")


def _stat(pid: int):
    """(ppid, session id, utime+stime ticks) or None."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            raw = f.read()
    except OSError:
        return None
    fields = raw[raw.rfind(b")") + 2:].split()
    # fields[0] is field 3 (state): ppid=4, session=6, utime=14, stime=15
    return int(fields[1]), int(fields[3]), int(fields[11]) + int(fields[12])


def _all_stats() -> dict:
    out = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat(int(name))
            if st is not None:
                out[int(name)] = st
    return out


def _comm(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/comm") as f:
            return f.read().strip()
    except OSError:
        return "?"


def tree(root: int, stats: dict | None = None) -> list[int]:
    """``root``, every live process below it, and every process of the
    session ``root`` leads (orphans re-parented to init stay counted)."""
    stats = _all_stats() if stats is None else stats
    children: dict[int, list[int]] = {}
    for pid, (ppid, _sid, _cpu) in stats.items():
        children.setdefault(ppid, []).append(pid)
    out = {pid for pid, (_p, sid, _c) in stats.items() if sid == root}
    todo = [root]
    while todo:
        pid = todo.pop()
        if pid in stats:
            out.add(pid)
        todo.extend(children.get(pid, ()))
    return sorted(out)


class CpuMeter:
    """CPU seconds used by a process tree over an interval, sampled.

    Per-process user+system ticks are sampled; a process's contribution
    is its last sample minus its value at the interval start (0 if it
    started later).  Reaped children's times (cutime) are not used: they
    reach the parent only if it waits for the child, and the CPU of the
    workers Ray kills at the end of a crawl was found missing from them.
    Work a process does after its last sample before exiting is missed,
    so sample at a short period."""

    def __init__(self, root: int):
        self.root = root
        self.base: dict[int, int] = {}
        self.seen: dict[int, int] = {}
        self.names: dict[int, str] = {}

    def sample(self) -> list[int]:
        """Samples the tree's CPU; returns the tree's pids."""
        stats = _all_stats()
        pids = tree(self.root, stats)
        for pid in pids:
            self.seen[pid] = stats[pid][2]
            self.names[pid] = _comm(pid)  # Ray renames workers once they are assigned
        return pids

    def start(self) -> None:
        self.seen, self.names = {}, {}
        self.sample()
        self.base = dict(self.seen)

    def stop(self) -> tuple[float, dict[str, float]]:
        """(CPU seconds since ``start``, the same split by process name)."""
        self.sample()
        by: dict[str, float] = {}
        for p, t in self.seen.items():
            d = (t - self.base.get(p, 0)) / TICK
            if d:
                by[self.names[p]] = by.get(self.names[p], 0.0) + d
        return sum(by.values()), by


def anon_rss_mb(pids) -> float:
    """Sum of RssAnon (private resident memory, so shared libraries and
    the shared-memory object store are not counted once per process)."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("RssAnon:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def host_ticks() -> tuple[int, int]:
    """Whole-machine (busy, steal) clock ticks from /proc/stat: busy is
    user + nice + system + irq + softirq over all CPUs, of every process
    on the host, not only this benchmark's."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:9]]
    return v[0] + v[1] + v[2] + v[5] + v[6], v[7]


def session_pids(session_id: int | None, ray_tmp: str | None) -> list[int]:
    """Processes in session ``session_id``, or belonging to a Ray session
    under ``ray_tmp``: every Ray daemon and worker carries a
    ``<ray_tmp>/session_...`` path (socket, log or session dir) on its
    command line.  This process and its ancestors are never included."""
    stats = _all_stats()
    mine, pid = set(), os.getpid()
    while pid in stats and pid not in mine:
        mine.add(pid)
        pid = stats[pid][0]
    marker = os.path.join(ray_tmp, "session_").encode() if ray_tmp else None
    out = []
    for pid, (_ppid, sid, _cpu) in stats.items():
        if pid in mine:
            continue
        if session_id is not None and sid == session_id:
            out.append(pid)
            continue
        if marker:
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as f:
                    if marker in f.read():
                        out.append(pid)
            except OSError:
                pass
    return out


def stop(pids: list[int], grace_s: float = 3.0, wait_s: float = 10.0) -> list[int]:
    """SIGTERM, then SIGKILL after ``grace_s``; wait until all are gone.
    Returns the pids still present after ``wait_s`` (zombies excluded)."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in pids:
            try:
                os.kill(pid, sig)
            except OSError:
                pass
        deadline = time.monotonic() + (grace_s if sig == signal.SIGTERM else wait_s)
        while time.monotonic() < deadline:
            pids = [p for p in pids if _alive(p)]
            if not pids:
                return []
            time.sleep(0.1)
    return pids


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            raw = f.read()
    except OSError:
        return False
    return raw[raw.rfind(b")") + 2:raw.rfind(b")") + 3] != b"Z"
