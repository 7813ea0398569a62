"""Per-layer accounting for the traced run, from the benchmark's own files.

``install`` wraps each layer's public entry points in ``repro.obs.trace``
spans named ``bench/<layer>/<key>``; nothing under ``src/`` changes.  Pool
workers fork after the wrappers are installed, so their spans ride back to
the parent inside the result payloads like every other trace event.
Counts are attached to the spans as arguments: deltas of the
``repro.obs.metrics`` registry (``engine.*``, published after every engine
run) around each analysis, instruction-counter deltas around each
``CPU.run``, and the VM cache counters around each replay or kernel.

``summarize`` turns one pass's events into the per-layer metrics.  A
layer's self time is the time its spans are the innermost open span of
their process.  While pool workers run, the parent's waiting pool span
yields to them, and concurrent innermost spans split each instant evenly,
so the self times (plus ``bench``, the time no span is open) add up to the
pass time exactly.
"""

from __future__ import annotations

import functools
import os
import sys

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

PREFIX = "bench/"
LAYERS = ("sweep", "casestudy", "analysis", "vm")

# Engine counters read around each analysis.  A counter a later version
# removes reads as 0.
ENGINE_COUNTERS = (
    "spec_steps", "decode_hits", "decode_misses",
    "projection_hits", "projection_misses", "lift_memo_hits", "lift_memo_misses",
    "vs_intern_hits", "vs_intern_misses", "sym_intern_hits", "sym_intern_misses",
    "vec_ops", "peak_heap_size",
)
VM_CACHE_COUNTERS = ("evictions", "back_invalidations")


def _engine_counts(before, after, _call, result) -> dict:
    delta = obs_metrics.delta(after, before)
    counts = {name: delta.get(f"engine.{name}", 0) for name in ENGINE_COUNTERS}
    engine_result = result.engine_result
    counts["steps"] = engine_result.steps
    counts["merges"] = engine_result.merges
    return counts


def _registry_snapshot(_call) -> dict:
    return obs_metrics.REGISTRY.snapshot()


def _cache_snapshot(_call) -> dict:
    from repro.vm.cache import cache_counters
    return cache_counters()


def _cache_counts(before, after, _call, _result) -> dict:
    return {name: after.get(name, 0) - before.get(name, 0)
            for name in VM_CACHE_COUNTERS}


def _instructions(call) -> int:
    return call[0].instructions_executed


def _cpu_counts(before, _after, call, _result) -> dict:
    return {"steps": call[0].instructions_executed - before}


def _sweep_counts(before, after, _call, results) -> dict:
    delta = obs_metrics.delta(after, before)
    return {"hits": sum(result.cached for result in results),
            "retries": delta.get("sweep.retries", 0),
            "quarantined": delta.get("sweep.quarantined", 0)}


def _store_size(_before, _after, call, _result) -> dict:
    return {"bytes": os.path.getsize(call[0].path)}


def _pool_size(_before, _after, call, _result) -> dict:
    return {"processes": call[0].processes}


def _wrap(name: str, function, snapshot=None, counts=None):
    """``function`` inside a span; ``counts`` adds arguments on return."""
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        before = snapshot(args) if snapshot else None
        with obs_trace.span(name) as span:
            result = function(*args, **kwargs)
            if counts is not None:
                after = snapshot(args) if snapshot else None
                span.args.update(counts(before, after, args, result))
        return result
    wrapper.__wrapped_by_bench__ = True
    return wrapper


def _patch_function(module, attribute: str, name: str, **hooks) -> None:
    """Replace a function in every ``repro`` module that imported it."""
    original = getattr(module, attribute)
    wrapped = _wrap(name, original, **hooks)
    for loaded_name, loaded in list(sys.modules.items()):
        if loaded_name.startswith("repro") and loaded is not None:
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)


def _patch_method(cls, attribute: str, name: str, **hooks) -> None:
    setattr(cls, attribute, _wrap(name, getattr(cls, attribute), **hooks))


def install() -> None:
    """Wrap every layer's entry points and switch tracing on."""
    from repro.analysis import analyzer
    from repro.analysis.validation import ConcreteValidator
    from repro.casestudy import performance, targets
    from repro.lang import driver
    from repro.sweep import runner, supervisor
    from repro.sweep.results import ResultStore
    from repro.sweep.scenario import Scenario
    from repro.transform import pipeline
    from repro.vm.cpu import CPU

    if getattr(CPU.run, "__wrapped_by_bench__", False):
        raise RuntimeError("layer wrappers are already installed")
    del targets  # imported so every module that holds a patched name is loaded

    _patch_method(runner.SweepRunner, "run", PREFIX + "sweep/run",
                  snapshot=_registry_snapshot, counts=_sweep_counts)
    _patch_function(runner, "execute_scenario_safe", PREFIX + "sweep/execute")
    _patch_method(supervisor.SupervisedPool, "run", PREFIX + "sweep/pool",
                  counts=_pool_size)
    _patch_method(ResultStore, "__init__", PREFIX + "sweep/load")
    _patch_method(ResultStore, "save", PREFIX + "sweep/checkpoint",
                  counts=_store_size)

    _patch_method(Scenario, "build_target", PREFIX + "casestudy/build")
    _patch_function(driver, "compile_program", PREFIX + "casestudy/compile")
    _patch_function(pipeline, "transformed_image", PREFIX + "casestudy/transform")

    _patch_function(analyzer, "analyze", PREFIX + "analysis/analyze",
                    snapshot=_registry_snapshot, counts=_engine_counts)

    for method in ("check", "check_adversaries"):
        _patch_method(ConcreteValidator, method, PREFIX + "vm/replay",
                      snapshot=_cache_snapshot, counts=_cache_counts)
    for kernel in ("measure_kernel", "measure_aes"):
        _patch_function(performance, kernel, PREFIX + "vm/kernel",
                        snapshot=_cache_snapshot, counts=_cache_counts)
    _patch_method(CPU, "run", PREFIX + "vm/run",
                  snapshot=_instructions, counts=_cpu_counts)
    obs_trace.start()


# ----------------------------------------------------------------------
# From events to metrics
# ----------------------------------------------------------------------

def _spans(events) -> list[dict]:
    """The benchmark's complete spans, with ``layer`` and ``key`` split out."""
    spans = []
    for event in events:
        if event.get("ph") == "X" and event["name"].startswith(PREFIX):
            layer, key = event["name"][len(PREFIX):].split("/", 1)
            spans.append({"layer": layer, "key": key, "pid": event["pid"],
                          "start": event["ts"], "end": event["ts"] + event["dur"],
                          "args": event.get("args", {})})
    return spans


def _mark_outermost(spans) -> None:
    """Flag spans not nested inside a span of the same key and process.

    Sums of durations and counts use outermost spans only, so a nested call
    of the same entry point is not counted twice.
    """
    by_pid: dict[int, list] = {}
    for span in spans:
        by_pid.setdefault(span["pid"], []).append(span)
    for own in by_pid.values():
        own.sort(key=lambda span: (span["start"], -span["end"]))
        stack: list[dict] = []
        for span in own:
            while stack and stack[-1]["end"] <= span["start"]:
                stack.pop()
            span["outermost"] = all(open_span["key"] != span["key"]
                                    or open_span["layer"] != span["layer"]
                                    for open_span in stack)
            stack.append(span)


def self_times(spans, parent_pid: int, start: int, end: int) -> dict[str, float]:
    """Attribute every nanosecond of ``[start, end)`` to one layer (seconds).

    At each instant the innermost open span of each process is a leaf; the
    parent's pool span is not a leaf while any worker span is open, because
    the parent is only waiting for them.  Leaves share the instant evenly;
    an instant with no leaf belongs to ``bench``.
    """
    boundaries = []
    for index, span in enumerate(spans):
        opens, closes = max(span["start"], start), min(span["end"], end)
        if closes > opens:
            # At one instant closes come first, then opens outermost first.
            boundaries.append((opens, 1, -closes, index))
            boundaries.append((closes, 0, 0, index))
    boundaries.sort()
    totals = dict.fromkeys(LAYERS + ("bench",), 0.0)
    stacks: dict[int, list] = {}
    previous = start
    for moment, opening, _order, index in boundaries:
        if moment > previous:
            _attribute(totals, stacks, spans, parent_pid, moment - previous)
            previous = moment
        span = spans[index]
        stack = stacks.setdefault(span["pid"], [])
        if opening:
            stack.append(index)
        elif index in stack:
            stack.remove(index)
    if end > previous:
        _attribute(totals, stacks, spans, parent_pid, end - previous)
    return {layer: nanos / 1e9 for layer, nanos in totals.items()}


def _attribute(totals, stacks, spans, parent_pid, nanos) -> None:
    leaves = []
    workers_busy = False
    for pid, stack in stacks.items():
        if stack:
            leaves.append(spans[stack[-1]])
            workers_busy = workers_busy or pid != parent_pid
    if workers_busy:
        leaves = [span for span in leaves
                  if not (span["pid"] == parent_pid and span["key"] == "pool")]
    if not leaves:
        totals["bench"] += nanos
        return
    share = nanos / len(leaves)
    for span in leaves:
        totals[span["layer"]] += share


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def summarize(events, parent_pid: int, start: int, end: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``start``/``end`` in ns)."""
    spans = [span for span in _spans(events)
             if span["end"] > start and span["start"] < end]
    _mark_outermost(spans)

    def outer(layer, key):
        return [span for span in spans if span["layer"] == layer
                and span["key"] == key and span["outermost"]]

    def seconds(layer, key):
        return sum(span["end"] - span["start"] for span in outer(layer, key)) / 1e9

    def total(layer, key, arg):
        return sum(span["args"].get(arg, 0) for span in outer(layer, key))

    pass_s = (end - start) / 1e9
    own = self_times(spans, parent_pid, start, end)
    metrics: dict[str, float] = {}

    pool_capacity = sum((span["end"] - span["start"]) * span["args"].get("processes", 1)
                        for span in outer("sweep", "pool"))
    worker_busy = sum(span["end"] - span["start"] for span in outer("sweep", "execute")
                      if span["pid"] != parent_pid)
    metrics.update({
        "sweep.checkpoint_s": seconds("sweep", "checkpoint"),
        "sweep.checkpoints": len(outer("sweep", "checkpoint")),
        "sweep.checkpoint_mb": total("sweep", "checkpoint", "bytes") / 1e6,
        "sweep.load_s": seconds("sweep", "load"),
        "sweep.hits": total("sweep", "run", "hits"),
        "sweep.pool_wall_s": seconds("sweep", "pool"),
        "sweep.worker_busy_ratio": _ratio(worker_busy, pool_capacity),
        "sweep.retries": total("sweep", "run", "retries"),
        "sweep.quarantined": total("sweep", "run", "quarantined"),
        "sweep.self_s": own["sweep"],
    })
    metrics.update({
        "casestudy.build_s": seconds("casestudy", "build"),
        "casestudy.builds": len(outer("casestudy", "build")),
        "lang.compile_s": seconds("casestudy", "compile"),
        "transform.pipeline_s": seconds("casestudy", "transform"),
        "casestudy.self_s": own["casestudy"],
    })

    def engine(counter):
        return total("analysis", "analyze", counter)

    steps = engine("steps")
    analyze_s = seconds("analysis", "analyze")
    peak_heap = max((span["args"].get("peak_heap_size", 0)
                     for span in outer("analysis", "analyze")), default=0)
    metrics.update({
        "analysis.analyze_s": analyze_s,
        "analysis.steps": steps,
        "analysis.ns_per_step": _ratio(analyze_s * 1e9, steps),
        "analysis.merges": engine("merges"),
        "analysis.peak_heap": peak_heap,
        "analysis.spec_step_ratio": _ratio(engine("spec_steps"), steps),
        "analysis.decode_hit_ratio": _ratio(
            engine("decode_hits"), engine("decode_hits") + engine("decode_misses")),
        "analysis.projection_hit_ratio": _ratio(
            engine("projection_hits"),
            engine("projection_hits") + engine("projection_misses")),
        "analysis.self_s": own["analysis"],
    })

    lifts = engine("lift_memo_hits") + engine("lift_memo_misses")
    valuesets = engine("vs_intern_hits") + engine("vs_intern_misses")
    symbols = engine("sym_intern_hits") + engine("sym_intern_misses")
    metrics.update({
        "core.lifts": lifts,
        "core.lift_memo_hit_ratio": _ratio(engine("lift_memo_hits"), lifts),
        "core.valuesets": valuesets,
        "core.vs_intern_hit_ratio": _ratio(engine("vs_intern_hits"), valuesets),
        "core.symbols": symbols,
        "core.sym_intern_hit_ratio": _ratio(engine("sym_intern_hits"), symbols),
        "core.vec_ops": engine("vec_ops"),
    })

    vm_steps = total("vm", "run", "steps")
    cache_spans = outer("vm", "replay") + outer("vm", "kernel")
    metrics.update({
        "vm.replay_s": seconds("vm", "replay"),
        "vm.runs": len(outer("vm", "run")),
        "vm.steps": vm_steps,
        "vm.us_per_step": _ratio(seconds("vm", "run") * 1e6, vm_steps),
        "vm.kernel_s": seconds("vm", "kernel"),
        "vm.cache.evictions": sum(span["args"].get("evictions", 0)
                                  for span in cache_spans),
        "vm.cache.back_invalidations": sum(span["args"].get("back_invalidations", 0)
                                           for span in cache_spans),
        "vm.self_s": own["vm"],
    })

    metrics["bench.self_s"] = own["bench"]
    for layer in LAYERS + ("bench",):
        metrics[f"{layer}.share"] = _ratio(own[layer], pass_s)
    return metrics
