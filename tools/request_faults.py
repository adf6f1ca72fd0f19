#!/usr/bin/env python3
"""Count the minor page faults and the time of each benchmark request on two trees.

    python3 tools/request_faults.py --other PATH --workload NAME --seeds N [N ...]
                                    [--seconds S]

For each seed, runs one benchmark workload (perfbench/workloads.py) on this
checkout and on the checkout at PATH, each in its own subprocess that imports
alignrec and the workloads from that tree; the order of the two trees
alternates from seed to seed. The worker wraps `workloads.Requests._serve`
from here, so no benchmark file changes: each request's call is timed and
bracketed by the process's `getrusage` minor page-fault count. The
correctness checks and the warm-up stay outside the bracket.

Prints one line per seed and tree: the median minor faults and the median
milliseconds of the adapted and of the frozen requests, how many of each
ran, and the run's peak resident set size in MB, the `ru_maxrss` that
perfbench reports as `peak_rss_mb`. A request that faults pages has asked the kernel for memory: a heap that
returned its top pages to the system, or a large allocation mapped afresh.
Exit 0 when every operation of every run succeeded, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("train-shift", "adapt-long", "adapt-catalog")
KINDS = ("adapted", "frozen")


def _minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def worker(tree, workload, seed, seconds):
    """Run the workload with alignrec and the workloads imported from `tree`;
    print the per-request (seconds, minor faults) of each kind and the run's
    peak RSS as JSON."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    import alignrec
    import workloads
    if not os.path.abspath(alignrec.__file__).startswith(os.path.abspath(tree) + os.sep):
        raise SystemExit(f"alignrec imported from {alignrec.__file__}, not {tree}")

    record = {kind: [] for kind in KINDS}
    serve = workloads.Requests._serve

    def counted(self, kind, i, fn):
        def request(batch):
            f0, t0 = _minflt(), time.perf_counter()
            out = fn(batch)
            record[kind].append((time.perf_counter() - t0, _minflt() - f0))
            return out
        return serve(self, kind, i, request)

    workloads.Requests._serve = counted
    with tempfile.TemporaryDirectory() as work:
        if workload == "train-shift":
            out, ops = workloads.run_train_shift(seed, seconds, work)
        else:
            out, ops = workloads.run_adapt(workload, seed, seconds, work)
    print(json.dumps({"requests": record, "peak_rss_mb": out["peak_rss_mb"],
                      "failed": ops.failed, "errors": ops.errors}))


def _run_tree(tree, workload, seed, seconds):
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", tree,
           "--workload", workload, "--seeds", str(seed), "--seconds", str(seconds)]
    res = subprocess.run(cmd, capture_output=True, text=True)
    if res.returncode != 0:
        raise SystemExit(f"request_faults: run on {tree} failed:\n{res.stderr}")
    return json.loads(res.stdout.splitlines()[-1])


def summary(requests):
    """'<median ms> ms <median faults> faults (n=<count>)' of one kind."""
    if not requests:
        return "no requests"
    ms = statistics.median(1e3 * s for s, _ in requests)
    faults = statistics.median(f for _, f in requests)
    return f"{ms:7.2f} ms {faults:7.0f} faults (n={len(requests)})"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--other", help="root of the checkout to compare against")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, default=8.0,
                   help="request loop length of each run (default 8)")
    p.add_argument("--worker", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        worker(args.worker, args.workload, args.seeds[0], args.seconds)
        return 0
    if not args.other:
        p.error("--other is required")

    trees = {"this": ROOT, "other": os.path.abspath(args.other)}
    failed = 0
    for n, seed in enumerate(args.seeds):
        order = list(trees) if n % 2 == 0 else list(trees)[::-1]
        results = {name: _run_tree(trees[name], args.workload, seed, args.seconds)
                   for name in order}
        for name in trees:
            res = results[name]
            cols = "  ".join(f"{kind} {summary(res['requests'][kind])}" for kind in KINDS)
            print(f"{args.workload} seed {seed} {name:5s}  {cols}  "
                  f"peak {res['peak_rss_mb']:6.1f} MB", flush=True)
            failed += res["failed"]
            for e in res["errors"]:
                print(f"  failed: {e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
