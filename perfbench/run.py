"""dude_ray benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload crawl_bulk --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --smoke        # every workload and check, small inputs

Run from the root of a dude_ray checkout.  This process only supervises:
it stops Ray processes left behind by an earlier run in this checkout,
starts ``child.py`` (which owns the Ray session) in a new session,
enforces a per-operation and a per-run timeout, samples the CPU and
memory of the child's process tree, stops every process of the session
at the end, and prints the aggregated result as the last line of standard
output.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import queue
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import proctree  # noqa: E402

WORK = os.path.join(HERE, "work")
OP_TIMEOUT_S = 75.0      # one engine call; the slowest takes ~7 s
RUN_DEADLINE_S = 160.0   # leaves time to stop the session within 180 s
SAMPLE_PERIOD_S = 0.1  # sampling period of CPU and memory during an operation
WORKLOADS = ("crawl_bulk", "query_mix")
# Engine defects that the smoke inputs show: operation -> the start of
# the problem its check reports.  The smoke run lists them and does not
# count them as failures; any other problem still fails it.
KNOWN_FAILURES = {
    # where no row qualifies (the smoke star tables at seed 1 have no
    # supplier in either nation), the engine returns a frame without
    # columns; DuckDB returns the 4 columns and 0 rows
    "volume_shipping": "volume_shipping: columns [] != ",
}
PER_LAYER = {  # name -> unit; every workload's traced run reports all of them
    "fetch.lookup_us_per_url": "us", "fetch.hit_ratio": "ratio",
    "parse.us_per_page": "us", "extract.us_per_page": "us",
    "extract.spans_per_page": "count", "links.us_per_page": "us",
    "links.edges_per_page": "count", "route.us_per_edge": "us",
    "frontier.offered": "count", "frontier.enqueued": "count",
    "frontier.released": "count", "frontier.dup_ratio": "ratio",
    "frontier.skipped.robots_disallowed": "count",
    "frontier.skipped.not_allowed_domain": "count",
    "frontier.offer_us_per_edge": "us", "frontier.release_us_per_url": "us",
    "frontier.snapshot_kb": "KiB", "bloom.add_us_per_key": "us",
    "bloom.fill": "ratio", "trace.overhead": "ratio",
}


def ray_tmp_dir() -> str:
    """Ray's session dir holds unix sockets, whose paths are limited to
    107 bytes and add up to 64 to this dir's; inside the checkout when
    the path is short enough."""
    d = os.path.join(WORK, "ray")
    if len(d) <= 40:
        return d
    tag = hashlib.sha1(ROOT.encode()).hexdigest()[:10]
    return os.path.join(tempfile.gettempdir(), f"perfbench-{tag}")


class Child:
    """The child process, its event stream and its memory samples."""

    def __init__(self, argv: list[str], log_path: str, ray_tmp: str):
        self.ray_tmp = ray_tmp
        env = dict(os.environ)
        env["PYTHONPATH"] = ROOT + os.pathsep + env.get("PYTHONPATH", "")
        env["RAY_USAGE_STATS_ENABLED"] = "0"
        self.log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), *argv],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self.log,
            text=True, start_new_session=True)
        self.events: "queue.Queue[dict]" = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            if line.startswith("@@PB "):
                self.events.put(json.loads(line[5:]))
            else:
                self.log.write(line)

    def supervise(self, t0: float) -> tuple[list[dict], str | None]:
        """Collect events until the child exits; kill it on a timeout.
        Each ``op_stop`` event gets the CPU the process tree used since
        its ``op_start`` and the tree's peak anonymous RSS in MB while
        the operation ran; answer checks run after ``op_stop``, so their
        memory is not counted.  Returns (events, timeout reason or None)."""
        events, why = [], None
        op_since, peak = None, 0.0
        cpu = proctree.CpuMeter(self.proc.pid)
        while True:
            try:
                ev = self.events.get(timeout=SAMPLE_PERIOD_S)
            except queue.Empty:
                ev = None
            if ev is not None:
                kind = ev["ev"]
                if kind == "op_start":
                    cpu.start()
                    op_since, peak = time.monotonic(), 0.0
                elif kind == "op_stop":
                    ev["cpu"], ev["cpu_by"] = cpu.stop()
                    ev["rss_mb"] = peak
                    op_since = None
                ev["t"] = time.monotonic() - t0
                if kind in ("measure_start", "measure_end"):
                    ev["host_ticks"] = proctree.host_ticks()
                events.append(ev)
                continue
            now = time.monotonic()
            if op_since is not None:
                peak = max(peak, proctree.anon_rss_mb(cpu.sample()))
            if self.proc.poll() is not None and not self.reader.is_alive():
                break
            if op_since is not None and now - op_since > OP_TIMEOUT_S:
                why = f"operation exceeded {OP_TIMEOUT_S:.0f} s"
            elif now - t0 > RUN_DEADLINE_S:
                why = f"run exceeded {RUN_DEADLINE_S:.0f} s"
            if why:
                break
        self.stop()
        return events, why

    def stop(self) -> None:
        """Stop the child and every process of its Ray session."""
        if self.proc.poll() is None:
            proctree.stop([self.proc.pid])
        self.proc.wait()
        # the session's state is thrown away, so its processes get little
        # time for a graceful exit
        left = proctree.stop(proctree.session_pids(self.proc.pid, self.ray_tmp), grace_s=0.5)
        if left:
            print(f"perfbench: processes still present: {left}", file=sys.stderr)
        self.reader.join(timeout=5)
        self.log.close()


def stop_stale(ray_tmp: str) -> None:
    """Stop the Ray processes of earlier runs in this checkout and delete
    their session dirs (logs and spilled objects)."""
    stale = proctree.session_pids(None, ray_tmp)
    if stale:
        print(f"perfbench: stopping {len(stale)} stale Ray processes", file=sys.stderr)
        proctree.stop(stale)
    shutil.rmtree(ray_tmp, ignore_errors=True)


def aggregate(events: list[dict], why: str | None, trace: bool):
    """(result dict or None, info lines)."""
    starts = [e for e in events if e["ev"] == "op_start"]
    ends = [e for e in events if e["ev"] == "op_end"]
    for end, stop in zip(ends, [e for e in events if e["ev"] == "op_stop"]):
        end["cpu"], end["cpu_by"], end["rss_mb"] = stop["cpu"], stop["cpu_by"], stop["rss_mb"]
    attempted = len(starts)
    failed = sum(1 for e in ends if not e["ok"]) + (attempted - len(ends))
    info = [f"# {e['ev']}: " + json.dumps({k: v for k, v in e.items() if k != 'ev'})
            for e in events if e["ev"] in ("ray", "setup")]
    for e in ends:
        if not e["ok"]:
            info.append(f"# FAILED {e['name']} pass {e['pass_no']}: "
                        + " | ".join(e["problems"])[:2000])
    if why:
        info.append(f"# TIMEOUT: {why}")
    setup = [e for e in events if e["ev"] == "setup"]
    layer_ev = [e for e in events if e["ev"] == "layers"]
    passes: dict[int, list[dict]] = {}
    for e in ends:
        if not e["traced"] and e["pass_no"] > 0:  # pass 0 is the warm-up
            passes.setdefault(e["pass_no"], []).append(e)
    good = [p for p in passes.values() if all(e["ok"] for e in p)]
    if not attempted or not setup or not good or (trace and not layer_ev):
        return None, info
    walls = [sum(e["wall"] for e in p) for p in good]
    items = [sum(e["items"] for e in p) for p in good]
    cpus = [sum(e["cpu"] for e in p) for p in good]
    rss = [max(e["rss_mb"] for e in p) for p in good]
    cpu_by: dict[str, float] = {}
    for e in (e for p in good for e in p):
        for name, c in e["cpu_by"].items():
            cpu_by[name] = cpu_by.get(name, 0.0) + c / len(good)
    window = [e for e in events if e["ev"] in ("measure_start", "measure_end")]
    if len(window) == 2:
        (t0, (b0, s0)), (t1, (b1, s1)) = [(e["t"], e["host_ticks"]) for e in window]
        info.append("# host: " + json.dumps({
            "busy_cores": round((b1 - b0) / proctree.TICK / (t1 - t0), 2),
            "steal_cores": round((s1 - s0) / proctree.TICK / (t1 - t0), 2),
            "ops_cpu_cores": round(sum(e["cpu"] for e in ends
                                       if "cpu" in e and e["pass_no"] > 0) / (t1 - t0), 2)}))
    marks = ("ray", "setup", "measure_start", "measure_end", "layers")
    info.append("# timeline_s: " + json.dumps(
        {e["ev"]: round(e["t"], 1) for e in events if e["ev"] in marks}))
    info.append("# passes: " + json.dumps({
        "n": len(good), "wall_s": [round(w, 3) for w in walls],
        "items": items, "cpu_s": [round(c, 3) for c in cpus],
        "peak_rss_mb": [round(r, 1) for r in rss],
        "cpu_s_per_pass_by_process": {k: round(v, 2) for k, v in sorted(
            cpu_by.items(), key=lambda kv: -kv[1])}}))
    correct = failed == 0 and why is None
    if trace:
        layer = layer_ev[0]
        metrics = {k: {"value": layer["per_layer"][k], "unit": unit}
                   for k, unit in PER_LAYER.items()}
        info.append("# layers: " + json.dumps(layer["extra"]))
    else:
        # each operation's median over the measured passes, then summed
        # over the pass's operations: one slow call of one query moves
        # its own median only
        names = [e["name"] for e in good[0]]
        med = {k: sum(statistics.median(e[k] for p in good for e in p if e["name"] == n)
                      for n in names)
               for k in ("wall", "items", "cpu")}
        metrics = {
            "items_per_s": {"value": med["items"] / med["wall"], "unit": "1/s"},
            "cpu_us_per_item": {"value": med["cpu"] * 1e6 / med["items"], "unit": "us"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
            "setup_s": {"value": setup[0]["setup_s"], "unit": "s"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, info


def checkout_ok() -> bool:
    return all(os.path.exists(os.path.join(ROOT, p))
               for p in ("dude_ray/__init__.py", "dude_ray/crawl.py", "__ray_entry__.py"))


def main() -> int:
    t0 = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload once on small inputs, traced")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required")
    if not checkout_ok():
        print("perfbench: run from the root of a dude_ray checkout "
              "(dude_ray/ and __ray_entry__.py not found)", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    ray_tmp = ray_tmp_dir()
    stop_stale(ray_tmp)
    # write back earlier runs' files now, not during this run's set-up
    os.sync()
    if args.smoke:
        argv = ["--workload", "all", "--smoke", "--seed", str(args.seed),
                "--seconds", "0", "--trace", "1"]
        tag = "smoke"
    else:
        argv = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    argv += ["--work", WORK, "--ray-tmp", ray_tmp]
    child = Child(argv, os.path.join(WORK, f"child-{tag}.log"), ray_tmp)
    events, why = child.supervise(t0)
    if not ray_tmp.startswith(WORK):
        shutil.rmtree(ray_tmp, ignore_errors=True)  # leave nothing outside the checkout

    if args.smoke:
        return smoke_report(events, why, time.monotonic() - t0)
    result, info = aggregate(events, why, bool(args.trace))
    info.append(f"# run_wall_s: {time.monotonic() - t0:.1f}")
    for line in info:
        print(line)
    if result is None:
        print(f"perfbench: no complete measurement; see {child.log.name}",
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


def known_failure(e: dict) -> bool:
    sig = KNOWN_FAILURES.get(e["name"])
    return sig is not None and all(p.startswith(sig) for p in e["problems"])


def smoke_report(events: list[dict], why: str | None, elapsed: float) -> int:
    ends = [e for e in events if e["ev"] == "op_end"]
    known = [e for e in ends if not e["ok"] and known_failure(e)]
    bad = [e for e in ends if not e["ok"] and not known_failure(e)]
    seen = [e["name"] for e in events if e["ev"] == "workload"]
    layered = sum(1 for e in events if e["ev"] == "layers")
    for e in known:
        print(f"KNOWN FAILURE {e['name']} pass {e['pass_no']}: {e['problems'][0][:300]}")
    for e in bad:
        print(f"FAILED {e['name']}: {' | '.join(e['problems'])[:2000]}")
    ok = (not bad and not why and seen == list(WORKLOADS) and layered == len(WORKLOADS)
          and any(e["ev"] == "done" for e in events))
    print(f"smoke: {'ok' if ok else 'FAILED'} — {len(ends)} operations, "
          f"{len(bad)} failed, {len(known)} known failures, workloads {seen}, {elapsed:.1f} s"
          + (f", {why}" if why else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
