"""The three workloads of the benchmark of record, and their verdict checks.

Each workload is a closed-loop batch job with one caller.  Constructing a
workload object is its set-up (imports, catalogue or grid, store); ``run``
is the timed pass and returns ``(start, latency)`` per item, on the
``time.perf_counter`` clock; ``check`` runs after
the timed pass and returns ``(item, message)`` per wrong verdict, where
``item`` names the scenario, or is ``None`` for a problem of the whole run.
``run`` gives its calibrator (``benchstats.Calibrator``) a chance to sample
the host's speed between items; no item's time includes a sample.

- ``catalogue``: every ``all_scenarios()`` entry in seeded order through
  one inline ``SweepRunner`` without a store — what ``sweep --all`` does.
- ``soundness``: Theorem 1 over the leakage catalogue — build, analyze,
  then replay every secret on the concrete VM (``ConcreteValidator.check``
  and ``check_adversaries``) over the target's default layouts.
- ``store-resume``: a seeded shuffle of a 432-point variant grid; the
  first half is swept into a fresh store by a 2-process runner, then a
  second runner reopens the store and sweeps the whole grid.

The layers are reached through module attributes and class methods
(``analyzer.analyze``, ``ConcreteValidator.check``, ...), so the traced
run's wrappers (``layers.install``) see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import time
from pathlib import Path

from repro.analysis import analyzer
from repro.analysis.validation import ConcreteValidator
from repro.casestudy import scenarios as catalogue_module
from repro.casestudy.targets import default_layouts
from repro.sweep.results import ResultStore
from repro.sweep.runner import SweepRunner, _overridden_config
from repro.sweep.scenario import LEAKAGE

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE.parent / "tests" / "data" / "catalogue_golden.json"
LLC_REFERENCE_PATH = HERE / "llc_reference.json"

# Engine counters whose values depend on which acceleration tiers ran; the
# catalogue verdict hash leaves them out.  This is the set of
# tests/sweep/test_catalogue_golden.py, which owns the golden (a self-test
# keeps the two equal).  A key missing from a payload is not there to drop.
MODE_SENSITIVE_METRICS = frozenset((
    "spec_blocks", "spec_block_runs", "spec_steps", "interp_steps",
    "cache_evictions",
    "decode_hits", "decode_misses",
    "projection_hits", "projection_misses",
    "lift_memo_hits", "lift_memo_misses", "lift_memo_evictions",
    "vs_intern_hits", "vs_intern_misses",
    "sym_intern_hits", "sym_intern_misses",
    "vec_ops", "vec_pairs", "vec_scalar_pairs",
))


# Each AES preload scenario is a ~25 s, 512-secret replay: one would be
# most of a soundness pass, so the soundness workload leaves them out.
def _is_aes_preload(name: str) -> bool:
    return name.startswith("aes-") and "preload" in name


def _seeded(items: list, seed, limit: int | None) -> list:
    """``items`` in the seed's order; with a ``limit``, the first ``limit``
    items, so every order of a run holds the same items."""
    ordered = list(items if limit is None else items[:limit])
    random.Random(seed).shuffle(ordered)
    return ordered


def result_hash(result) -> str:
    """sha256 of a result payload without the mode-sensitive counters,
    computed as the catalogue golden computes its ``result_sha256``."""
    payload = result.to_payload()
    payload["metrics"] = {key: value for key, value in payload["metrics"].items()
                          if key not in MODE_SENSITIVE_METRICS}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def reference_problems(results, golden: dict, llc_reference: dict) -> list[tuple]:
    """Compare catalogue results with the golden and the LLC reference.

    Every result must be ``ok`` and match one of the two references by
    name; a result that neither covers is itself a problem.
    """
    problems = []
    for result in results:
        name = result.scenario
        if not result.ok:
            problems.append((name, f"{name}: status {result.status}"))
        elif name in golden:
            if result_hash(result) != golden[name]["result_sha256"]:
                problems.append((name, f"{name}: differs from the golden"))
        elif name in llc_reference:
            if result_hash(result) != llc_reference[name]:
                problems.append((name, f"{name}: differs from llc_reference.json"))
        else:
            problems.append((name, f"{name}: no reference"))
    return problems


class _NoCalibration:
    """Stands in for a calibrator where nothing samples the host."""

    spent_s = 0.0

    def between_items(self, force: int = 0) -> None:
        pass


NO_CALIBRATION = _NoCalibration()


class Catalogue:
    """All catalogue scenarios through one inline runner, no store."""

    POOLED = False

    def __init__(self, seed, limit: int | None = None, workdir=None):
        catalogue = catalogue_module.all_scenarios()
        self.items = _seeded([catalogue[name] for name in sorted(catalogue)],
                             seed, limit)
        self.runner = SweepRunner(processes=1)
        self.results = []

    def run(self, calibrator=NO_CALIBRATION) -> list[tuple]:
        timings = []
        for scenario in self.items:
            calibrator.between_items()
            started = time.perf_counter()
            (result,) = self.runner.run([scenario])
            timings.append((started, time.perf_counter() - started))
            self.results.append(result)
        return timings

    def check(self) -> list[tuple]:
        golden = json.loads(GOLDEN_PATH.read_text())
        llc_reference = json.loads(LLC_REFERENCE_PATH.read_text())
        return reference_problems(self.results, golden, llc_reference)


class Soundness:
    """Theorem 1 replayed concretely over the leakage catalogue."""

    POOLED = False

    def __init__(self, seed, limit: int | None = None, workdir=None):
        catalogue = catalogue_module.all_scenarios()
        names = sorted(name for name, scenario in catalogue.items()
                       if scenario.kind == LEAKAGE and not _is_aes_preload(name))
        self.items = _seeded([catalogue[name] for name in names], seed, limit)
        self.problems: list[tuple] = []

    def _validate(self, scenario) -> None:
        target = scenario.build_target()
        config = _overridden_config(target.config, scenario)
        analysis = analyzer.analyze(target.image, target.spec, config)
        layouts = default_layouts(target.name)
        validator = ConcreteValidator(target.image, target.spec)
        views = validator.check(analysis, layouts)
        adversaries = validator.check_adversaries(analysis, layouts)
        name = scenario.name
        if not views.checked:
            self.problems.append((name, f"{name}: no bound checked"))
        for report in (views, adversaries):
            self.problems.extend((name, f"{name}: {violation}")
                                 for violation in report.violations)

    def run(self, calibrator=NO_CALIBRATION) -> list[tuple]:
        timings = []
        for scenario in self.items:
            calibrator.between_items()
            started = time.perf_counter()
            try:
                self._validate(scenario)
            except Exception as problem:  # one failed item must not end the pass
                self.problems.append((scenario.name, f"{scenario.name}: "
                                      f"{type(problem).__name__}: {problem}"))
            timings.append((started, time.perf_counter() - started))
        return timings

    def check(self) -> list[tuple]:
        return list(self.problems)


def store_grid() -> list[tuple[object, str, int | None]]:
    """The 432-point variant grid as ``(scenario, base name, cap)``.

    36 bases (sqm/sqam/lookup x O0-O2 x 32/64/128 B lines, and
    gather/scatter/naive x 8/16/32 B) x lru/fifo/plru x ``value_set_cap``
    in {target default, 64, 256, 1024}; every fingerprint is distinct.
    """
    bases = []
    for builder in (catalogue_module.sqm_scenario, catalogue_module.sqam_scenario,
                    catalogue_module.lookup_scenario):
        for opt_level in (0, 1, 2):
            for line_bytes in (32, 64, 128):
                bases.append(builder(opt_level=opt_level, line_bytes=line_bytes))
    for builder in (catalogue_module.gather_scenario, catalogue_module.scatter_scenario,
                    catalogue_module.naive_gather_scenario):
        for nbytes in (8, 16, 32):
            bases.append(builder(nbytes=nbytes))
    grid = []
    for base in bases:
        for policy in ("lru", "fifo", "plru"):
            for cap in (None, 64, 256, 1024):
                variant = dataclasses.replace(
                    base, name=f"{base.name}-{policy}-cap{cap or 'default'}",
                    cache_policy=policy, value_set_cap=cap)
                grid.append((variant, base.name, cap))
    return grid


class _RecordingStore(ResultStore):
    """A result store that notes when each result reaches it.

    It is also where the pooled pass samples the host's speed: the parent
    process is busy checkpointing while the workers run, and a sample taken
    between two results is taken while the pass runs.  A sample delays the
    results that land after it, so each landing also notes the calibrator's
    time spent so far, which ``latencies`` takes back out.
    """

    def __init__(self, path, calibrator):
        super().__init__(path)
        self.calibrator = calibrator
        self.recorded: list[tuple[float, float]] = []   # (landed, spent_s)

    def put(self, result) -> None:
        super().put(result)
        self.recorded.append((time.perf_counter(), self.calibrator.spent_s))
        self.calibrator.between_items()

    def latencies(self, submitted: float, spent_s: float) -> list[tuple]:
        """``(start, latency)`` of each landing since ``submitted``."""
        return [(submitted, landed - submitted - (spent - spent_s))
                for landed, spent in self.recorded]


class StoreResume:
    """Sweep half the grid into a fresh store, then resume the whole grid.

    An item's latency is the time from its batch's submission to its
    result reaching the store, which includes the checkpoints of the items
    that landed before it.  Store hits are answered from the store and are
    not timed.
    """

    POOLED = True
    PROCESSES = 2

    def __init__(self, seed, limit: int | None = None, workdir=None):
        grid = _seeded(store_grid(), seed, limit)
        self.items = [scenario for scenario, _base, _cap in grid]
        self.group = {scenario.name: (base, cap) for scenario, base, cap in grid}
        self.half = len(self.items) // 2
        self.path = os.path.join(workdir, "store.json")
        if os.path.exists(self.path):
            os.remove(self.path)
        self.first_store = _RecordingStore(self.path, NO_CALIBRATION)
        self.first_runner = SweepRunner(processes=self.PROCESSES, store=self.first_store)
        self.first: list = []
        self.second: list = []

    def run(self, calibrator=NO_CALIBRATION) -> list[tuple]:
        self.first_store.calibrator = calibrator
        submitted, spent_s = time.perf_counter(), calibrator.spent_s
        self.first = self.first_runner.run(self.items[:self.half])
        timings = self.first_store.latencies(submitted, spent_s)
        submitted, spent_s = time.perf_counter(), calibrator.spent_s
        resumed = _RecordingStore(self.path, calibrator)
        self.second = SweepRunner(processes=self.PROCESSES, store=resumed).run(self.items)
        return timings + resumed.latencies(submitted, spent_s)

    def check(self) -> list[tuple]:
        """Item problems by scenario; the hit count and the agreement of a
        policy group's bound rows are problems of the whole run."""
        problems = [(result.scenario, f"{result.scenario}: status {result.status}")
                    for result in self.first + self.second if not result.ok]
        hits = sum(result.cached for result in self.second)
        if hits != self.half:
            problems.append((None, f"store hits {hits} != first-half count {self.half}"))

        def canonical(result) -> str:
            return json.dumps(result.to_payload(), sort_keys=True)

        computed = {result.fingerprint: result for result in self.first}
        computed.update((result.fingerprint, result)
                        for result in self.second[self.half:])
        reopened = ResultStore(self.path)
        for fingerprint, result in computed.items():
            stored = reopened.get(fingerprint)
            if stored is None or canonical(stored) != canonical(result):
                problems.append((result.scenario,
                                 f"{result.scenario}: store payload differs"))
        for result in self.second[:self.half]:
            original = computed.get(result.fingerprint)
            if original is None or canonical(result) != canonical(original):
                problems.append((result.scenario,
                                 f"{result.scenario}: resumed payload differs"))

        rows: dict[tuple, set] = {}
        for result in self.first + self.second:
            rows.setdefault(self.group[result.scenario], set()).add(result.rows)
        problems.extend((None, f"{base} cap={cap}: bound rows differ across policies")
                        for (base, cap), variants in rows.items()
                        if len(variants) > 1)
        return problems


WORKLOADS = {
    "catalogue": Catalogue,
    "soundness": Soundness,
    "store-resume": StoreResume,
}
