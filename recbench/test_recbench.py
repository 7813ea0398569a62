"""Fast self-tests of the benchmark's helpers and of tiny passes.

    PYTHONPATH=src python -m pytest recbench -q
"""

from __future__ import annotations

import ast
import gc
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import workloads
from benchstats import (REFERENCE_S, Calibrator, calibration_chunk,
                        latency_summary, nearest_rank, tail_percentile)
from repro.casestudy.scenarios import all_scenarios
from repro.sweep.runner import execute_scenario

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class TestOrderStatistics:
    @pytest.mark.parametrize("count, percentile", [
        (87, 88), (67, 85), (432, 97), (20, 50), (11, 50), (1, 50)])
    def test_tail_percentile_leaves_ten_samples_beyond(self, count, percentile):
        assert tail_percentile(count) == percentile

    def test_tail_rank_for_87_items(self):
        values = list(range(1, 88))
        assert nearest_rank(values, 88) == 77  # ten samples above it
        median, tail, percentile = latency_summary(values)
        assert (median, tail, percentile) == (44, 77, 88)

    def test_nearest_rank_is_order_free(self):
        assert nearest_rank([5, 1, 4, 2, 3], 50) == 3
        assert nearest_rank([5, 1, 4, 2, 3], 100) == 5


def test_calibrator_speed_follows_the_samples_near_an_item():
    calibrator = Calibrator()
    calibrator.samples = [(10.0, REFERENCE_S), (11.0, 2 * REFERENCE_S)]
    assert calibrator.speed() == pytest.approx(1.5)
    assert calibrator.speed(10.0, 10.1) == pytest.approx(1.0)
    assert calibrator.speed(10.4, 10.6) == pytest.approx(1.5)
    assert calibrator.speed(20.0, 20.1) == pytest.approx(2.0)  # nearest sample
    calibrator.between_items(force=2)
    assert len(calibrator.samples) == 4 and calibrator.spent_s > 0


class TestCalibrationChunk:
    """The chunk must not time the program's heap through the collector."""

    @pytest.mark.parametrize("collecting", [True, False])
    def test_collector_is_off_while_timed_and_restored(self, collecting):
        seen = []

        def clock():
            seen.append(gc.isenabled())
            return 0.0

        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            calibration_chunk(clock)
            assert seen == [False, False] and gc.isenabled() == collecting
        finally:
            (gc.enable if was else gc.disable)()

    def test_chunk_time_ignores_a_large_young_heap(self):
        """As after an analysis, which allocates with the collector off:
        the next collection walks the whole heap, and not inside the chunk.
        A collection there made the chunk about 15 times slower; the heap's
        pressure on the CPU caches alone makes it up to twice as slow."""
        calibration_chunk()  # build the inputs outside the comparison
        alone = sorted(calibration_chunk() for _ in range(9))[4]
        beside_heap = []
        for _ in range(3):
            gc.disable()
            heap = [[index] for index in range(300_000)]
            gc.enable()
            beside_heap.append(calibration_chunk())
            del heap
        assert min(beside_heap) < 5 * alone


def test_store_latencies_leave_out_calibration(tmp_path):
    store = workloads._RecordingStore(str(tmp_path / "store.json"),
                                      workloads.NO_CALIBRATION)
    store.recorded = [(10.0, 0.25), (11.0, 0.75)]
    assert store.latencies(9.0, 0.25) == [(9.0, 1.0), (9.0, 1.5)]


def test_failed_items_count_each_item_once_per_pass():
    passes = [{"problems": [["a", "a: one"], ["a", "a: two"], ["b", "b: one"],
                            [None, "store hits 1 != first-half count 2"]]},
              {"problems": [["a", "a: one"]]}]
    assert run.failed_items(passes) == 3


def _span(name, pid, start, end, **args):
    return {"name": "bench/" + name, "ph": "X", "pid": pid,
            "ts": start * 10**6, "dur": (end - start) * 10**6, "args": args}


class TestSelfTimes:
    """A pool pass: the parent waits while two workers run; a checkpoint
    overlaps them.  Every instant of the pass goes to exactly one layer."""

    EVENTS = [
        _span("sweep/run", 1, 0, 100, hits=3),
        _span("sweep/pool", 1, 10, 90, processes=2),
        _span("sweep/checkpoint", 1, 40, 50, bytes=2_000_000),
        _span("sweep/execute", 2, 20, 60),
        _span("analysis/analyze", 2, 30, 60, steps=500),
        _span("sweep/execute", 3, 25, 70),
        {"name": "engine.run", "ph": "X", "pid": 2, "ts": 0, "dur": 1},
    ]

    def test_self_times_partition_the_pass(self):
        spans = layers._spans(self.EVENTS)
        own = layers.self_times(spans, 1, 0, 110 * 10**6)
        assert own["sweep"] == pytest.approx((80 + 20 / 3) / 1000)
        assert own["analysis"] == pytest.approx((10 + 10 / 3) / 1000)
        assert own["bench"] == pytest.approx(10 / 1000)
        assert sum(own.values()) == pytest.approx(0.110)

    def test_summary_counts_and_ratios(self):
        metrics = layers.summarize(self.EVENTS, 1, 0, 110 * 10**6)
        assert metrics["sweep.hits"] == 3
        assert metrics["sweep.checkpoints"] == 1
        assert metrics["sweep.checkpoint_mb"] == 2.0
        assert metrics["sweep.worker_busy_ratio"] == pytest.approx(85 / 160)
        assert metrics["analysis.steps"] == 500
        assert metrics["core.vec_ops"] == 0  # absent counters read as 0
        shares = sum(metrics[f"{layer}.share"] for layer in layers.LAYERS + ("bench",))
        assert shares == pytest.approx(1.0)
        assert set(metrics) | {"obs.trace_overhead_ratio"} == set(run.PER_LAYER)


class TestReferenceCheck:
    @pytest.fixture(scope="class")
    def references(self):
        golden = json.loads(workloads.GOLDEN_PATH.read_text())
        llc = json.loads(workloads.LLC_REFERENCE_PATH.read_text())
        return golden, llc

    @pytest.fixture(scope="class")
    def results(self):
        catalogue = all_scenarios()
        return [execute_scenario(catalogue[name])
                for name in ("lookup-O2-64B", "lookup-O2-64B-llc-incl-lru")]

    def test_references_cover_the_catalogue(self, references):
        golden, llc = references
        assert set(golden) | set(llc) == set(all_scenarios())
        assert len(llc) == 8

    def test_matching_results_pass(self, references, results):
        assert workloads.reference_problems(results, *references) == []

    def test_wrong_bound_is_caught(self, references, results):
        tampered = results[0].__class__.from_payload(results[0].to_payload())
        tampered.rows = tampered.rows[:-1]
        problems = workloads.reference_problems([tampered], *references)
        assert problems == [("lookup-O2-64B", "lookup-O2-64B: differs from the golden")]

    def test_unknown_and_failed_results_are_caught(self, references, results):
        renamed = results[1].__class__.from_payload(results[1].to_payload())
        renamed.scenario = "not-in-any-reference"
        failed = results[0].__class__.from_payload(results[0].to_payload())
        failed.status = "error"
        problems = workloads.reference_problems([renamed, failed], *references)
        assert problems == [
            ("not-in-any-reference", "not-in-any-reference: no reference"),
            ("lookup-O2-64B", "lookup-O2-64B: status error")]

    def test_mode_sensitive_set_matches_the_golden_test(self):
        """The hash must drop what the golden's own test drops."""
        source = (ROOT / "tests" / "sweep" / "test_catalogue_golden.py").read_text()
        (owned,) = [node.value for node in ast.parse(source).body
                    if isinstance(node, ast.Assign)
                    and [target.id for target in node.targets
                         if isinstance(target, ast.Name)] == ["MODE_SENSITIVE_METRICS"]]
        assert frozenset(ast.literal_eval(owned.args[0])) \
            == workloads.MODE_SENSITIVE_METRICS


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_pass_is_correct(name, tmp_path):
    workload = workloads.WORKLOADS[name](7, limit=4, workdir=str(tmp_path))
    timings = workload.run(Calibrator())
    assert len(timings) == 4
    assert all(latency > 0 for _start, latency in timings)
    assert workload.check() == []


def test_store_resume_detects_a_corrupted_store(tmp_path):
    workload = workloads.StoreResume(7, limit=4, workdir=str(tmp_path))
    workload.run()
    store = json.loads(Path(workload.path).read_text())
    first = sorted(store["results"])[0]
    store["results"][first]["rows"] = []
    Path(workload.path).write_text(json.dumps(store))
    assert any("store payload differs" in message for _item, message in workload.check())


def _clean_environment() -> dict:
    """This environment without the ``REPRO_*`` switches the benchmark refuses."""
    return {key: value for key, value in os.environ.items()
            if not key.startswith("REPRO_")}


def _bench(*args, env=None, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          env=_clean_environment() if env is None else env,
                          capture_output=True, text=True, timeout=170)


def test_cli_prints_every_end_to_end_metric():
    done = _bench("--workload", "catalogue", "--seed", "3", "--seconds", "1",
                  "--trace", "0", "--limit", "3")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"].keys() == run.END_TO_END.keys()
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert "failed_ratio" in done.stdout and "n=" in done.stdout


def test_cli_traced_pool_pass_accounts_for_the_pass_time():
    done = _bench("--workload", "store-resume", "--seed", "3", "--seconds", "1",
                  "--trace", "1", "--limit", "6")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert metrics.keys() == run.PER_LAYER.keys()
    assert "3 passes" in done.stdout  # one untraced, two traced
    assert metrics["sweep.hits"] == 3
    assert metrics["sweep.checkpoints"] == 6
    assert metrics["analysis.steps"] > 0
    assert sum(metrics[f"{layer}.share"] for layer in layers.LAYERS + ("bench",)) \
        == pytest.approx(1.0)


class _StubSession:
    """Passes that each take ``total_s``, on a clock that only they move."""

    def __init__(self, total_s):
        self.total_s = total_s
        self.started = 0

    def child(self, *extra):
        self.started += 1
        return {"total_s": self.total_s, "wall_s": 1.0,
                "layers": dict.fromkeys(run.PER_LAYER, 1)}

    def elapsed(self):
        return self.started * self.total_s


def test_traced_run_compares_two_traced_passes():
    session = _StubSession(20.0)
    passes, _layers, problems = run.traced(session, seconds=0)
    assert len(passes) == 1 + run.TRACED_PASSES and problems == []


def test_traced_run_is_not_correct_when_two_passes_do_not_fit():
    session = _StubSession(100.0)
    passes, _layers, problems = run.traced(session, seconds=30)
    assert len(passes) == 2
    assert problems == [f"only 1 traced pass fits in {run.HARD_LIMIT_S:.0f} s: "
                        "the counts were not compared"]


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [workload["name"] for workload in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_pass_interpreters_cache_bytecode_in_the_work_directory(monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    env = run._child_environment()
    assert "PYTHONDONTWRITEBYTECODE" not in env
    assert env["PYTHONPYCACHEPREFIX"] == str(run.WORK_ROOT / "pycache")
    assert env["PYTHONHASHSEED"] == "0"


def test_refuses_to_measure_with_a_repro_switch():
    env = dict(_clean_environment(), REPRO_NO_SPECIALIZE="1")
    done = _bench("--workload", "catalogue", "--seed", "1", "--seconds", "1",
                  "--trace", "0", env=env)
    assert done.returncode == 2
    assert "REPRO_NO_SPECIALIZE" in done.stderr and done.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {key: value for key, value in _clean_environment().items()
           if key != "PYTHONPATH"}
    done = _bench("--workload", "catalogue", "--seed", "1", "--seconds", "1",
                  "--trace", "0", env=env, cwd=tmp_path,
                  script=tmp_path / HERE.name / "run.py")
    assert done.returncode != 0
    assert done.stdout == "" and "no program" in done.stderr
