"""The benchmark of record: one command per workload, every metric named.

    python3 recbench/run.py --workload catalogue --seed 1 --seconds 30 --trace 0

Runs fresh-interpreter passes of one workload (``one_pass.py``) for about
``--seconds`` seconds, checks every verdict, and prints each metric with its
unit and sample count; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, measured untraced: set-up
time (median of several fresh interpreters), and per pass the throughput,
the median and tail item latency, CPU seconds of the pass and its workers,
and peak RSS, each taken as the median over the passes.  Times and rates
are calibrated to a reference host speed (``benchstats.Calibrator``); the
raw figures are printed beside them.  ``--trace 1`` runs one untraced pass
and then traced passes, and reports the per-layer metrics of ``layers.py``
plus the tracing overhead.

Exit codes: 0 when every verdict is right, 1 when a verdict is wrong (the
result is still printed) or a pass failed (no result), 2 when the
benchmark refuses to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from benchstats import REFERENCE_S, latency_summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".recbench_work"   # stores of the passes; bytecode cache
WORKLOADS = ("catalogue", "soundness", "store-resume")

END_TO_END = {
    "setup_s": "s",
    "scenarios_per_s": "1/s",
    "scenario_p50_s": "s",
    "scenario_tail_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "sweep.checkpoint_s": "s", "sweep.checkpoints": "count",
    "sweep.checkpoint_mb": "MB", "sweep.load_s": "s", "sweep.hits": "count",
    "sweep.pool_wall_s": "s", "sweep.worker_busy_ratio": "ratio",
    "sweep.retries": "count", "sweep.quarantined": "count", "sweep.self_s": "s",
    "casestudy.build_s": "s", "casestudy.builds": "count",
    "lang.compile_s": "s", "transform.pipeline_s": "s", "casestudy.self_s": "s",
    "analysis.analyze_s": "s", "analysis.steps": "count",
    "analysis.ns_per_step": "ns", "analysis.merges": "count",
    "analysis.peak_heap": "count", "analysis.spec_step_ratio": "ratio",
    "analysis.decode_hit_ratio": "ratio", "analysis.projection_hit_ratio": "ratio",
    "analysis.self_s": "s",
    "core.lifts": "count", "core.lift_memo_hit_ratio": "ratio",
    "core.valuesets": "count", "core.vs_intern_hit_ratio": "ratio",
    "core.symbols": "count", "core.sym_intern_hit_ratio": "ratio",
    "core.vec_ops": "count",
    "vm.replay_s": "s", "vm.runs": "count", "vm.steps": "count",
    "vm.us_per_step": "us", "vm.kernel_s": "s", "vm.cache.evictions": "count",
    "vm.cache.back_invalidations": "count", "vm.self_s": "s",
    "obs.trace_overhead_ratio": "ratio", "bench.self_s": "s",
    "sweep.share": "ratio", "casestudy.share": "ratio", "analysis.share": "ratio",
    "vm.share": "ratio", "bench.share": "ratio",
}
# The counts that must repeat exactly from one traced pass to the next.
DETERMINISTIC = ("vm.runs", "vm.steps", "analysis.steps",
                 "sweep.checkpoints", "sweep.hits")
TRACED_PASSES = 2       # at least, so the repeat of DETERMINISTIC is checked

SETUP_SAMPLES = 7       # fresh interpreters timed per run for setup_s
HARD_LIMIT_S = 170.0    # a run must end well inside the 180 s limit


class PassFailed(Exception):
    """A pass interpreter failed; the run reports no result."""


def _child_environment() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    # Set-up time must not include compiling the program's source, whether
    # or not this environment lets Python write bytecode; the cache lives
    # in the work directory, so the source tree is left as it was.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK_ROOT / "pycache")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _numpy_version() -> str:
    try:
        import numpy
    except ImportError:
        return "absent"
    return numpy.__version__


class Session:
    """Starts pass interpreters for one workload and seed, within a deadline."""

    def __init__(self, workload: str, seed: int, workdir: str,
                 limit: int | None = None):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.limit = limit
        self.env = _child_environment()
        self.started = time.monotonic()
        self.children = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def child(self, *extra: str) -> dict:
        """Run ``one_pass.py`` once; its report, with ``setup_s`` added.

        Each interpreter of a run takes the next of the seed's item orders,
        so the median over a run's passes is not one order's.
        """
        self.children += 1
        command = [sys.executable, str(HERE / "one_pass.py"),
                   "--workload", self.workload, "--seed", str(self.seed),
                   "--order", str(self.children), "--workdir", self.workdir, *extra]
        if self.limit is not None:
            command += ["--limit", str(self.limit)]
        spawned = time.monotonic()
        process = subprocess.Popen(command, cwd=ROOT, env=self.env,
                                   stdout=subprocess.PIPE, start_new_session=True)
        try:
            output, _ = process.communicate(
                timeout=max(1.0, HARD_LIMIT_S - self.elapsed()))
        except BaseException:
            _kill_group(process)
            raise
        finally:
            _kill_group(process, only_strays=True)
        if process.returncode != 0:
            raise PassFailed(f"{self.workload} pass exited with {process.returncode}")
        lines = output.decode().strip().splitlines()
        if not lines:
            raise PassFailed(f"{self.workload} pass printed nothing")
        report = json.loads(lines[-1])
        report["setup_s"] = report["ready"] - spawned
        report["total_s"] = time.monotonic() - spawned
        return report

    def setup_probe(self) -> dict:
        return self.child("--setup-only")


def _kill_group(process: subprocess.Popen, only_strays: bool = False) -> None:
    """Kill the pass interpreter's process group and reap the interpreter.

    After a normal exit only stray pool workers could remain in the group;
    the pass joins its workers, so there are usually none.
    """
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if not only_strays or process.returncode is None:
        process.wait()


def measure(session: Session, seconds: float) -> tuple[list, list]:
    """Untraced passes for about ``seconds`` and the set-up samples.

    Set-up probes are interleaved with the passes so the samples spread
    over the run instead of sharing one burst of host noise.
    """
    session.setup_probe()  # warm the bytecode cache; not a sample
    measuring = time.monotonic()
    passes, setups = [], []
    while True:
        setups.append(session.setup_probe())
        report = session.child()
        passes.append(report)
        setups.append(report)
        spent = time.monotonic() - measuring
        if spent + report["total_s"] > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(session.setup_probe())
    return passes, setups


def run_speed(reports: list) -> float:
    """Mean slowness of every calibration sample the reports carry."""
    return statistics.fmean(chunk for report in reports
                            for chunk in report["calibrations"]) / REFERENCE_S


def end_to_end(passes: list, setups: list,
               calibrated: bool = True) -> dict[str, tuple[float, int]]:
    """Each end-to-end metric as ``(median, sample count)``.

    Calibrated times are divided by the speed the interpreter that measured
    them sampled (``benchstats.Calibrator``), and rates multiplied by it,
    giving seconds at the reference speed.  Peak RSS does not depend on
    speed.
    """
    def speed(report) -> float:
        return report["speed"] if calibrated else 1.0

    per_pass: dict[str, list] = {name: [] for name in END_TO_END if name != "setup_s"}
    items = 0
    for report in passes:
        median, tail, _percentile = latency_summary(
            report["calibrated" if calibrated else "latencies"])
        per_pass["scenarios_per_s"].append(
            report["attempted"] / report["wall_s"] * speed(report))
        per_pass["scenario_p50_s"].append(median)
        per_pass["scenario_tail_s"].append(tail)
        per_pass["cpu_s"].append(report["cpu_s"] / speed(report))
        per_pass["peak_rss_mb"].append(report["peak_rss_mb"])
        items += len(report["latencies"])
    # A set-up probe is too short to sample the host well: set-up times are
    # calibrated by the speed of the whole run instead.
    metrics = {"setup_s": (statistics.median(report["setup_s"] for report in setups)
                           / (run_speed(setups) if calibrated else 1.0),
                           len(setups))}
    for name, values in per_pass.items():
        count = items if name.startswith("scenario_") and name != "scenarios_per_s" \
            else len(values)
        metrics[name] = (statistics.median(values), count)
    return metrics


def traced(session: Session, seconds: float) -> tuple[list, dict, list[str]]:
    """One untraced pass, then traced passes; the per-layer metrics.

    At least ``TRACED_PASSES`` traced passes run, beyond ``seconds`` if
    need be, so that the deterministic counts are compared between two of
    them.  A pass that would not end within ``HARD_LIMIT_S`` is not
    started; if that leaves fewer passes, the run is not correct.
    """
    measuring = time.monotonic()
    untraced = session.child()
    passes = [untraced]
    traced_passes = []
    problems = []
    while True:
        report = session.child("--trace")
        traced_passes.append(report)
        spent = time.monotonic() - measuring
        if len(traced_passes) >= TRACED_PASSES and spent + report["total_s"] > seconds:
            break
        if session.elapsed() + report["total_s"] > HARD_LIMIT_S:
            if len(traced_passes) < TRACED_PASSES:
                problems.append(f"only {len(traced_passes)} traced pass fits in "
                                f"{HARD_LIMIT_S:.0f} s: the counts were not compared")
            break
    passes += traced_passes
    layers = {name: statistics.median(report["layers"][name] for report in traced_passes)
              for name in PER_LAYER if name != "obs.trace_overhead_ratio"}
    # Raw walls: a traced pass samples the host only around itself, so its
    # calibration would not match the untraced pass's.
    layers["obs.trace_overhead_ratio"] = statistics.median(
        report["wall_s"] for report in traced_passes) / untraced["wall_s"]
    problems += [f"{name} differs between traced passes"
                 for name in DETERMINISTIC
                 if len({report["layers"][name] for report in traced_passes}) > 1]
    return passes, layers, problems


def failed_items(passes: list) -> int:
    """Items with a wrong verdict, each counted once per pass it failed in.

    A problem of the whole run (no item named) makes the run incorrect but
    fails no item.
    """
    return sum(len({item for item, _message in report["problems"] if item is not None})
               for report in passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=None,
                        help="items per pass (self-tests; not for measuring)")
    args = parser.parse_args(argv)

    switches = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if switches:
        print(f"refusing to measure: {', '.join(switches)} set, and each "
              "changes the program under test", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"refusing to measure: no program at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    session = Session(args.workload, args.seed, workdir, args.limit)
    try:
        if args.trace:
            passes, layers, problems = traced(session, args.seconds)
        else:
            passes, setups = measure(session, args.seconds)
            problems = []
    except PassFailed as failure:
        print(f"no result: {failure}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(report["attempted"] for report in passes)
    wrong = [message for report in passes for _item, message in report["problems"]]
    failed = failed_items(passes)
    correct = not wrong and not problems
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of "
          f"{passes[0]['attempted']} items, closed loop, one caller"
          f"{', traced' if args.trace else ''}")
    print(f"environment: {os.cpu_count()} CPUs, Python {platform.python_version()}, "
          f"numpy {_numpy_version()}, PYTHONHASHSEED=0")
    for problem in (wrong + problems)[:20]:
        print(f"WRONG: {problem}")

    if args.trace:
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        for name, unit in PER_LAYER.items():
            print(f"  {name:30s} {layers[name]:14.6g} {unit}")
    else:
        summary = end_to_end(passes, setups)
        raw = end_to_end(passes, setups, calibrated=False)
        metrics = {name: {"value": summary[name][0], "unit": unit}
                   for name, unit in END_TO_END.items()}
        print(f"host slowness: {run_speed(setups):.3f} x reference "
              f"over the run; passes "
              + ", ".join(f"{report['speed']:.3f}" for report in passes))
        for name, unit in END_TO_END.items():
            value, count = summary[name]
            print(f"  {name:18s} {value:12.6g} {unit:4s} n={count:<5d} "
                  f"raw {raw[name][0]:.6g}")
    print(f"  {'failed_ratio':18s} {failed / attempted:12.6g} {'':4s} "
          f"n={attempted} ({failed} failed)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
