"""One fresh-interpreter pass of a workload; prints one JSON line.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Everything before the first item is set-up: the imports, the
workload's catalogue or grid, its runner and store.  ``--setup-only``
stops there and reports when set-up ended, on the system-wide monotonic
clock, so the parent can time set-up from before it started this
interpreter.

    python3 recbench/one_pass.py --workload catalogue --seed 1 --workdir DIR
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time


def _cpu_seconds() -> float:
    """CPU time of this process and of every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """The largest peak RSS of this process or any reaped child (MiB)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--order", type=int, default=0,
                        help="which of the seed's item orders this pass runs")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--limit", type=int, default=None,
                        help="run only N items, the same in every order (self-tests)")
    parser.add_argument("--trace", action="store_true",
                        help="wrap the layers and report per-layer metrics")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import layers
    import workloads
    from benchstats import Calibrator
    from repro.obs import trace as obs_trace

    if args.trace:
        layers.install()
    workload = workloads.WORKLOADS[args.workload](
        f"{args.seed}.{args.order}", limit=args.limit, workdir=args.workdir)
    ready = time.monotonic()
    calibrator = Calibrator(clock=time.thread_time if workload.POOLED else time.perf_counter)
    if args.setup_only:
        calibrator.between_items(force=8)
        print(json.dumps({"ready": ready,
                          "calibrations": [chunk for _, chunk in calibrator.samples]}))
        return

    # A traced pass samples the host before and after, so that no span of
    # the pass covers calibration work.
    sampler = workloads.NO_CALIBRATION if args.trace else calibrator
    if args.trace:
        calibrator.between_items(force=8)
    obs_trace.drain()  # set-up spans are not part of the pass
    cpu_before = _cpu_seconds()
    spent_before = calibrator.spent_s
    started = time.perf_counter_ns()
    timings = workload.run(sampler)
    ended = time.perf_counter_ns()
    in_pass_s = calibrator.spent_s - spent_before
    cpu_s = _cpu_seconds() - cpu_before - in_pass_s
    if args.trace:
        calibrator.between_items(force=8)
    report = {
        "ready": ready,
        "wall_s": (ended - started) / 1e9 - in_pass_s,
        "cpu_s": cpu_s,
        "speed": calibrator.speed(),
        "calibrations": [chunk for _, chunk in calibrator.samples],
        "peak_rss_mb": _peak_rss_mb(),
        "attempted": len(workload.items),
        "latencies": [latency for _, latency in timings],
        # Each item's latency at the reference speed, calibrated by the
        # samples taken while it waited.
        "calibrated": [latency / calibrator.speed(start, start + latency)
                       for start, latency in timings],
    }
    if args.trace:
        report["layers"] = layers.summarize(
            obs_trace.drain(), os.getpid(), started, ended)
    report["problems"] = workload.check()
    print(json.dumps(report))


if __name__ == "__main__":
    main()
