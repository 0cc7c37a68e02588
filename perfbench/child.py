"""Runs workloads inside one local Ray session and reports each step as
an event line (``@@PB {json}``) on standard output.  Started by
``run.py``, which enforces the timeouts, samples memory, stops every
process afterwards and aggregates the events into the result line.

    python3 perfbench/child.py --workload crawl_bulk --seed 1 \
        --seconds 36 --trace 0 --work perfbench/work
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import ray  # noqa: E402

import __ray_entry__  # noqa: E402
from dude_ray.crawl import crawl_metrics, run_crawl  # noqa: E402
from dude_ray.sources import corpus as corpus_mod  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
import datagen  # noqa: E402
import layers  # noqa: E402

IMPORT_S = time.perf_counter() - T_START
RAY_CPUS = 4          # run_crawl deadlocks below 2 and run_extract below 3
WARM_BUILDS = 3       # corpus builds after the first, whose median is in setup_s
NUM_PARTS = 16

# n_docs: generated documents; the corpus has one page per document.
WORKLOADS = {
    "crawl_bulk": {"kind": "crawl", "n_docs": 4000, "seed_every": 1,
                   "crawl": {"pipelined": True, "exact_confirm": False,
                             "politeness_burst": 100_000}},
    "query_mix": {"kind": "query", "n_docs": 500, "seed_every": 2,
                  "star": {"n_orders": 15000, "n_customers": 1500, "n_suppliers": 100,
                           "n_events": 10000, "n_users": 150}},
}
# frontier configuration of query_mix's layer replay: the strict one
# (exact seen-set, one release per host and tick), which no timed
# workload runs, so that its release and snapshot costs are still traced
STRICT_FRONTIER = {"exact_confirm": True, "politeness_burst": 1}
SMOKE_DOCS = 500
SMOKE_STAR = {"n_orders": 3000, "n_customers": 300, "n_suppliers": 10,
              "n_events": 2000, "n_users": 30}


def emit(ev: str, **fields) -> None:
    sys.__stdout__.write("@@PB " + json.dumps({"ev": ev, **fields}) + "\n")
    sys.__stdout__.flush()


def rmtree(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


class Workload:
    """Inputs, oracle and timed operation of one workload."""

    def __init__(self, name: str, seed: int, work: str, smoke: bool):
        self.name = name
        self.spec = dict(WORKLOADS[name])
        if smoke:
            self.spec["n_docs"] = SMOKE_DOCS
            if "star" in self.spec:
                self.spec["star"] = SMOKE_STAR
        self.kind = self.spec["kind"]
        self.work = work
        # a distinct basename per (workload, seed, sizes): the engine keys its
        # corpus cache on the basename of the data dir alone
        sizes = json.dumps([self.spec["n_docs"], self.spec.get("star")], sort_keys=True)
        self.data_dir = os.path.join(
            work, "data", f"{name}-s{seed}-{hashlib.sha1(sizes.encode()).hexdigest()[:8]}")
        self.seed = seed
        self.crawl_out = os.path.join(work, "crawl-out")

    # ---- inputs -------------------------------------------------------
    def generate(self) -> None:
        rmtree(self.data_dir)
        if self.kind == "query":
            datagen.write_star(self.data_dir, self.seed, n_docs=self.spec["n_docs"],
                               **self.spec["star"])
        else:
            datagen.write_documents(self.data_dir, self.seed, self.spec["n_docs"])

    def cleanup(self) -> None:
        rmtree(self.corpus_dir())
        rmtree(self.data_dir)

    def corpus_dir(self) -> str:
        return corpus_mod.corpus_dir_for(self.data_dir, seed_every=self.spec["seed_every"],
                                         num_parts=NUM_PARTS)

    def build_corpus(self, out_dir: str) -> float:
        """Cold build of the workload's corpus into ``out_dir``; seconds."""
        rmtree(out_dir)
        t0 = time.perf_counter()
        corpus_mod.ensure_corpus(self.data_dir, out_dir=out_dir, num_parts=NUM_PARTS,
                                 seed_every=self.spec["seed_every"])
        return time.perf_counter() - t0

    # ---- oracle (outside every timed region) ---------------------------
    def prepare_oracle(self) -> None:
        cdir = self.corpus_dir()
        if self.kind == "query":
            self.want = checks.query_answers(self.data_dir)
            return
        seeds = [s["url"] for s in corpus_mod.load_seeds(cdir)]
        self.oracle = checks.crawl_oracle(checks.load_corpus(cdir),
                                          corpus_mod.load_robots(cdir), seeds)

    # ---- one pass: [(name, thunk)]; a thunk makes the timed call and
    # returns finish() -> (items, problems, info), run after the clock stops
    def pass_ops(self, traced: bool):
        if self.kind == "crawl":
            return [(self.name, lambda: self._crawl(traced))]
        qs = __ray_entry__.queries()
        return [(q, lambda q=q: self._query(q, qs[q], traced)) for q in checks.QUERY_NAMES]

    def _crawl(self, traced: bool):
        buf = io.StringIO()
        os.environ["DUDE_RAY_PROFILE"] = "1" if traced else "0"
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            run_crawl(self.data_dir, out_dir=self.crawl_out, num_parts_hint=NUM_PARTS,
                      seed_every=self.spec["seed_every"], **self.spec["crawl"])
        wall = time.perf_counter() - t0

        def finish():
            m = crawl_metrics(self.crawl_out)
            rows = checks.read_crawl_rows(self.crawl_out)
            problems = checks.check_crawl(rows, m, self.oracle)
            info = {}
            if traced:
                prof = [ln for ln in buf.getvalue().splitlines()
                        if ln.startswith("CRAWL_PROFILE ")]
                info = layers.crawl_layers(prof[-1], m, wall)
                if not 0.9 <= info["crawl.phase_cover"] <= 1.1:
                    problems.append(f"crawl.* phases cover {info['crawl.phase_cover']:.3f} "
                                    "of crawl.loop_s, not within 10%")
            rmtree(self.crawl_out)
            return m["released_total"], problems, info
        return finish

    def _query(self, name: str, fn, traced: bool):
        res = fn(self.data_dir)
        df = res.to_pandas()

        def finish():
            info = {}
            if traced and isinstance(res, ray.data.Dataset):
                stats = res.stats()
                d = layers.dataset_layers(stats)
                info = {f"query.{name}.shuffle_s": d["shuffle_s"],
                        f"query.{name}.map_s": d["map_s"]}
                if name == "anchor_texts":  # reads and extracts via run_extract
                    info.update(layers.flagship_layers(stats))
            return 1, checks.check_query(name, df, self.want[name]), info
        return finish


def timed_op(wl: Workload, name: str, thunk, pass_no: int, traced: bool,
             tracer: layers.Tracer) -> dict:
    """Times ``thunk`` (the call into the engine and the consumption of
    its result) from outside; its returned ``finish`` checks the answer
    after the clock has stopped.  ``run.py`` measures the process tree's
    CPU between the ``op_start`` and ``op_stop`` events."""
    rec = {"name": name, "pass_no": pass_no, "traced": traced}
    try:
        with tracer.span(f"op.{name}", traced=traced):
            emit("op_start", name=name, pass_no=pass_no)
            t0 = time.perf_counter()
            try:
                finish = thunk()
            finally:
                rec["wall"] = time.perf_counter() - t0
                emit("op_stop")
        with tracer.span(f"check.{name}"):
            rec["items"], rec["problems"], info = finish()
        rec["ok"] = not rec["problems"]
        rec["info"] = info
    except Exception:  # a raising op counts as failed; the run goes on
        rec.update(ok=False, problems=[traceback.format_exc(limit=4)])
    emit("op_end", **rec)
    return rec


def run_workload(wl: Workload, seconds: float, trace: bool, ray_start_s: float,
                 min_passes: int = 3) -> None:
    tracer = layers.Tracer()
    with tracer.span("setup.generate"):
        wl.generate()
    # set-up: one cold corpus build, which lands where the engine looks
    # for it, then WARM_BUILDS builds into a throw-away dir; setup_s takes
    # their median, because the cold build's first-call costs in each
    # worker vary with the host
    with tracer.span("setup.corpus_build", rep=0):
        cold = wl.build_corpus(wl.corpus_dir())
    warm = []
    target = os.path.join(wl.work, "setup-rep")
    for r in range(1, WARM_BUILDS + 1):
        with tracer.span("setup.corpus_build", rep=r):
            warm.append(wl.build_corpus(target))
    rmtree(target)
    emit("setup", import_s=IMPORT_S, ray_start_s=ray_start_s, cold_build_s=cold,
         warm_build_s=warm, setup_s=IMPORT_S + ray_start_s + statistics.median(warm))
    with tracer.span("oracle"):
        wl.prepare_oracle()

    # closed loop: one operation at a time.  Pass 0 warms the session up
    # (its first calls are slower) and run.py leaves it out of the
    # medians; the measured passes follow until ``seconds`` have passed
    # and at least ``min_passes`` passes are done in all.  A traced run
    # alternates untraced (even) and traced (odd) passes.
    recs = []
    pass_no = 0
    while True:
        if pass_no == 1:
            t_begin = time.perf_counter()
            emit("measure_start")
        traced = trace and pass_no % 2 == 1
        for name, thunk in wl.pass_ops(traced):
            recs.append(timed_op(wl, name, thunk, pass_no, traced, tracer))
        pass_no += 1
        if pass_no >= min_passes and time.perf_counter() - t_begin >= seconds:
            break
    emit("measure_end")
    if trace:
        per_layer, extra = trace_layers(wl, recs, tracer)
        emit("layers", per_layer=per_layer, extra=extra)
        tracer.write(os.path.join(wl.work, f"trace-{wl.name}-s{wl.seed}.json"),
                     {"workload": wl.name, "seed": wl.seed, **host_info(),
                      "per_layer": per_layer, "extra": extra})
    wl.cleanup()


def trace_layers(wl: Workload, recs: list, tracer: layers.Tracer):
    def pass_walls(traced, first):
        walls = {}
        for r in recs:
            if r["traced"] == traced and r["pass_no"] >= first and "wall" in r:
                walls[r["pass_no"]] = walls.get(r["pass_no"], 0.0) + r["wall"]
        return list(walls.values())

    traced = pass_walls(True, 0)
    untraced = pass_walls(False, 1) or pass_walls(False, 0)
    spec = wl.spec.get("crawl", STRICT_FRONTIER)
    per_layer = layers.replay_layers(
        wl.corpus_dir(), tracer, exact_confirm=spec["exact_confirm"],
        politeness_burst=spec["politeness_burst"])
    per_layer["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)
    extra = {"trace.overhead_base": "median wall of this run's untraced passes, "
                                    "the warm-up pass 0 left out when another exists (s)",
             "trace.untraced_pass_s": statistics.median(untraced)}
    infos = [r["info"] for r in recs if r.get("traced") and r.get("info")]
    for info in infos:
        for k, v in info.items():
            extra.setdefault(k, []).append(v)
    for r in recs:
        if r.get("traced") and "wall" in r and wl.kind == "query":
            extra.setdefault(f"query.{r['name']}_s", []).append(r["wall"])
    extra = {k: statistics.median(v) if isinstance(v, list) else v
             for k, v in extra.items()}
    return per_layer, extra


def host_info() -> dict:
    """CPUs this process may run on (``nproc`` without the
    OMP_NUM_THREADS cap), that cap, and Ray's logical CPU count."""
    return {"nproc": len(os.sched_getaffinity(0)),
            "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
            "ray_cpus": RAY_CPUS}


@ray.remote
def _start_worker() -> None:
    import dude_ray.sources.corpus  # noqa: F401

    time.sleep(0.3)  # hold the worker, so that each task starts its own


def start_ray(ray_tmp: str) -> float:
    """Starts the session and its RAY_CPUS task workers (else the first
    corpus builds after the cold one start the rest); seconds."""
    t0 = time.perf_counter()
    ray.init(address="local", num_cpus=RAY_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False, _temp_dir=ray_tmp,
             object_store_memory=300 * 2**20)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    ray.get([_start_worker.remote() for _ in range(RAY_CPUS)])
    return time.perf_counter() - t0


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--ray-tmp", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    # keep the engine's corpus cache inside the work dir
    defaults = corpus_mod.corpus_dir_for.__defaults__
    corpus_mod.corpus_dir_for.__defaults__ = (os.path.join(args.work, "corpus"),) + defaults[1:]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ray_start_s = start_ray(args.ray_tmp)
    emit("ray", **host_info(), ray_start_s=ray_start_s)
    for name in names:
        emit("workload", name=name)
        run_workload(Workload(name, args.seed, args.work, args.smoke),
                     args.seconds, bool(args.trace), ray_start_s,
                     min_passes=2 if args.smoke else 3)
    emit("done")
    # run.py stops the Ray session's processes (SIGTERM, then SIGKILL) once
    # this process has exited; a graceful ray.shutdown() only adds seconds
    sys.stdout.flush()
    os._exit(0)


if __name__ == "__main__":
    main()
