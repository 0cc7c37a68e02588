"""Production crawl entrypoint for ``ray job submit``.

On a real cluster:

    ray job submit --address http://<head>:8265 \
        --working-dir . -- python tools/crawl_job.py \
        --sf-dir /data/corpus --out /data/crawl_out \
        --corpus-scale 70 --shards 64

The driver attaches to the running cluster (``address="auto"``); the
logical frontier shard count (all shards live in one frontier process)
and the worker pool size default to the cluster's CPU count so the same
invocation scales from N to 4N nodes without retuning — the basis of
the scaling measurement in BASELINE.md (in the sandbox,
``bench.py --scaling`` substitutes two fresh local sessions at N and
4N CPUs).  Output is round-partitioned parquet with frontier snapshots,
so a failed job resumes from its checkpoint by re-submitting with the
same ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sf-dir", required=True,
                    help="directory with documents.parquet (corpus source)")
    ap.add_argument("--out", required=True,
                    help="output/checkpoint directory (resumable)")
    ap.add_argument("--corpus-scale", type=int, default=1)
    ap.add_argument("--shards", type=int, default=0,
                    help="frontier shards (0 = cluster_cpus // 4)")
    ap.add_argument("--batch-size", type=int, default=2048,
                    help="most rows in one worker chunk task; each round "
                         "goes out as about two chunks per worker, so this "
                         "only binds on large rounds (a memory bound)")
    ap.add_argument("--checkpoint-every", type=int, default=8)
    ap.add_argument("--politeness-burst", type=int, default=100_000)
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():
        # inside `ray job submit` this attaches to the cluster; standalone
        # it starts a local session
        ray.init(address="auto", ignore_reinit_error=True,
                 logging_level="ERROR")

    ncpu = int(ray.cluster_resources().get("CPU", 4))
    from dude_ray.crawl import crawl_metrics, run_crawl

    ds = run_crawl(args.sf_dir, out_dir=args.out,
                   num_shards=args.shards or max(4, ncpu // 4),
                   batch_size=args.batch_size,
                   checkpoint_every=args.checkpoint_every,
                   corpus_scale=args.corpus_scale, seed_every=1,
                   politeness_burst=args.politeness_burst,
                   exact_confirm=False, pipelined=True)
    n = ds.count()
    m = crawl_metrics(args.out)
    print(json.dumps({"visits": n, **{k: m[k] for k in
                                      ("released_total", "loop_sec",
                                       "worker_busy_s", "n_workers")
                                      if k in m}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
