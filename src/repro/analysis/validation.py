"""Concrete validation of static leakage bounds (Theorem 1, executable).

The paper's central soundness claim is that for every low input λ (heap
layout), the number of distinct adversary views over all secrets is bounded
by the count computed on the abstract trace DAG.  For small secrets this is
directly checkable: enumerate every secret valuation, run the concrete VM,
collect each observer's view of the trace, and compare ``|views|`` against
the static bound.

This harness is used throughout the test suite (including property-based
tests that randomize the heap layout λ) and by the examples; a bound
violation would falsify the implementation, so these tests double as the
reproduction's soundness regression suite.

:meth:`ConcreteValidator.check_adversaries` extends the same executable
argument to the derived trace-/time-based adversaries: every concrete trace
is replayed through a replacement-policy cache simulator and the number of
distinct hit/miss traces (resp. total (hits, misses) pairs) is compared
against the bounds of :mod:`repro.core.adversary`.  Because those bounds
are policy-independent, the check can be run for every registered policy.

:meth:`ConcreteValidator.check_equivalence` is the correctness side of the
countermeasure transformation subsystem (:mod:`repro.transform`): a
transformed image is semantically equivalent to its original when, for
every layout and every secret valuation, both executions return the same
value and leave the same bytes at every (non-stack) address the original
wrote.  Transformed code may touch *additional* scratch memory — that is
what countermeasures like scatter/gather do — but must reproduce the
original's observable outputs exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.analysis.analyzer import AnalysisResult
from repro.analysis.config import AnalysisError, InputSpec
from repro.core.adversary import PROBE, spy_probe_view
from repro.core.observers import AccessKind
from repro.isa.image import Image
from repro.isa.registers import EAX
from repro.obs import trace as obs_trace
from repro.vm.cache import (
    CacheConfig,
    CacheHierarchy,
    HierarchySpec,
    SetAssociativeCache,
    default_hierarchy_spec,
)
from repro.vm.cpu import CPU
from repro.vm.memory import DEFAULT_STACK_TOP, FlatMemory
from repro.vm.tracer import WRITE, Trace

__all__ = ["ConcreteValidator", "ValidationReport", "DEFAULT_FILL"]

# Writes above this address are call-frame traffic (locals, spills, pushed
# arguments); equivalence compares only program-visible memory below it —
# two compilations of one kernel lay out their frames differently.
_STACK_WINDOW = 1 << 20

# The standard non-trivial table payload for equivalence replay ``fills``:
# every byte distinct from its neighbors and from zero-fill, shared by the
# CLI, the examples, and the hardening tests so all three exercise the same
# oracle data.
DEFAULT_FILL = bytes((offset * 7 + 1) & 0xFF for offset in range(4096))

_KIND_CODES = {
    AccessKind.INSTRUCTION: "I",
    AccessKind.DATA: "D",
    AccessKind.SHARED: "shared",
}


@dataclass(slots=True)
class ValidationReport:
    """Outcome of validating one report against concrete executions."""

    checked: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


class ConcreteValidator:
    """Enumerates secrets and layouts; compares views with static bounds."""

    def __init__(self, image: Image, spec: InputSpec, fuel: int = 1_000_000):
        self.image = image
        self.spec = spec
        self.fuel = fuel
        # Sorted layout items -> one trace per secret valuation.  Sound for
        # the validator's lifetime: the image and the spec never change.
        self._traces: dict[tuple, tuple[Trace, ...]] = {}

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------
    def _secret_choices(self) -> list[list[tuple]]:
        """Each secret input contributes a list of ('reg'/'mem'/'arg', where, value)."""
        choices = []
        for reg_init in self.spec.registers:
            if reg_init.high_values is not None:
                choices.append([
                    ("reg", reg_init.reg, value) for value in reg_init.high_values
                ])
        for index, arg in enumerate(self.spec.args):
            if arg.high_values is not None:
                choices.append([
                    ("arg", index, value) for value in arg.high_values
                ])
        for mem_init in self.spec.memory:
            if mem_init.high_values is not None:
                choices.append([
                    ("mem", mem_init, value) for value in mem_init.high_values
                ])
        return choices

    def _resolve_at(self, at, lam: dict[str, int]) -> int:
        if isinstance(at, int):
            return at
        if isinstance(at, str):
            return lam[at]
        name, offset = at
        return lam[name] + offset

    def _run_once(self, lam: dict[str, int], secret_combo,
                  fills=None) -> tuple[Trace, CPU]:
        memory = FlatMemory()
        trace = Trace()
        cpu = CPU(self.image, memory=memory, trace=trace)
        for symbol, payload in (fills or {}).items():
            if symbol not in lam:
                raise AnalysisError(
                    f"equivalence fill for unknown symbol {symbol!r}")
            memory.write_block(lam[symbol], payload)

        for reg_init in self.spec.registers:
            if reg_init.constant is not None:
                cpu.set_reg(reg_init.reg, reg_init.constant)
            elif reg_init.symbol is not None:
                if reg_init.symbol not in lam:
                    raise AnalysisError(
                        f"validation λ missing symbol {reg_init.symbol!r}")
                cpu.set_reg(reg_init.reg, lam[reg_init.symbol])
        for mem_init in self.spec.memory:
            addr = self._resolve_at(mem_init.at, lam)
            if mem_init.constant is not None:
                memory.write(addr, mem_init.constant, mem_init.size)
            elif mem_init.symbol is not None:
                memory.write(addr, lam[mem_init.symbol], mem_init.size)
        arg_values: list[int] = []
        for arg in self.spec.args:
            if arg.constant is not None:
                arg_values.append(arg.constant)
            elif arg.symbol is not None:
                arg_values.append(lam[arg.symbol])
            else:
                arg_values.append(0)  # placeholder, filled by the combo below
        for kind, where, value in secret_combo:
            if kind == "reg":
                cpu.set_reg(where, value)
            elif kind == "arg":
                arg_values[where] = value
            else:
                memory.write(self._resolve_at(where.at, lam), value, where.size)

        for value in reversed(arg_values):
            cpu.push(value)
        cpu.run(self.spec.entry, fuel=self.fuel)
        return trace, cpu

    def traces(self, lam: dict[str, int]) -> tuple[Trace, ...]:
        """One concrete trace per secret valuation (the expensive VM part).

        Every view — observer projection, hit/miss replay, timing, probe
        replay — is a cheap function of these traces, so the enumeration
        runs once per layout for the validator's lifetime and every later
        call with an equal layout returns the same traces.  Callers must not
        mutate them.
        """
        key = tuple(sorted(lam.items()))
        traces = self._traces.get(key)
        if traces is None:
            traces = tuple(self._run_once(lam, combo)[0]
                           for combo in self._secret_combos())
            self._traces[key] = traces
        return traces

    def _secret_combos(self):
        """Every secret valuation, as a tuple of (kind, where, value)."""
        choice_lists = self._secret_choices() or [[()]]
        for combo in itertools.product(*choice_lists):
            yield tuple(c for c in combo if c)

    def views(self, lam: dict[str, int], cache_kind: str, offset_bits: int,
              stuttering: bool = False) -> set[tuple]:
        """All distinct adversary views over the full secret enumeration."""
        return {trace.view(cache_kind, offset_bits, stuttering)
                for trace in self.traces(lam)}

    @staticmethod
    def _adversary_views(traces: tuple[Trace, ...], cache_kind: str,
                         model: str, cache_factory) -> set:
        collected = set()
        for trace in traces:
            cache = cache_factory()
            if model == "trace":
                collected.add(trace.hit_miss_view(cache_kind, cache))
            elif model == "time":
                collected.add(trace.time_view(cache_kind, cache))
            else:
                raise AnalysisError(f"unknown adversary model {model!r}")
        return collected

    def adversary_views(self, lam: dict[str, int], cache_kind: str,
                        model: str, cache_factory) -> set:
        """Distinct trace-/time-adversary observations over all secrets.

        ``cache_factory`` builds a fresh cache (of any replacement policy)
        per execution; ``model`` selects the hit/miss-sequence view
        (``"trace"``) or the total (hits, misses) view (``"time"``).
        """
        return self._adversary_views(
            self.traces(lam), cache_kind, model, cache_factory)

    # ------------------------------------------------------------------
    # Checking against a report
    # ------------------------------------------------------------------
    def check(self, result: AnalysisResult,
              layouts: list[dict[str, int]]) -> ValidationReport:
        """Check every recorded bound against every provided layout λ."""
        report = ValidationReport()
        observer_bits = {
            observer.name: observer.offset_bits
            for observer in result.context.config.observers()
        }
        kind_codes = _KIND_CODES
        with obs_trace.span("validate.views", layouts=len(layouts)) as vspan:
            for lam in layouts:
                traces = self.traces(lam)
                for (kind, observer_name), bound in result.report.bounds.items():
                    offset_bits = observer_bits[observer_name]
                    for stuttering, limit in (
                        (False, bound.count), (True, bound.stuttering_count),
                    ):
                        observed = {
                            trace.view(kind_codes[kind], offset_bits, stuttering)
                            for trace in traces}
                        report.checked += 1
                        if len(observed) > limit:
                            report.violations.append(
                                f"{kind.value}/{observer_name}"
                                f"{'/stutter' if stuttering else ''}: "
                                f"observed {len(observed)} views > bound {limit} "
                                f"for λ={lam}"
                            )
            vspan.arg("checked", report.checked)
        return report

    def check_adversaries(self, result: AnalysisResult,
                          layouts: list[dict[str, int]],
                          policies: tuple[str, ...] | None = None,
                          cache_config: CacheConfig | None = None,
                          models: tuple[str, ...] | None = None,
                          hierarchy: HierarchySpec | None = None,
                          ) -> ValidationReport:
        """Check the derived trace-/time-adversary bounds concretely.

        For every layout λ and every registered adversary bound, replays the
        full secret enumeration through a fresh replacement-policy cache and
        compares the number of distinct hit/miss (resp. timing) views
        against the static bound.  ``policies`` defaults to the analysis
        config's ``cache_policy``; pass several names to exercise the
        policy-independence of the bounds.  The cache's line size follows
        the analysis geometry so block granularity matches.

        A ``probe`` bound (active LLC prime+probe spy) is checked by an
        *interleaved* replay instead: for every secret, a fresh
        :class:`~repro.vm.cache.CacheHierarchy` (the config's ``hierarchy``
        shape, or the default two-core one, re-policied per sweep entry) is
        primed by a :class:`~repro.core.adversary.PrimeProbeSpy`, the
        victim's full instruction+data stream runs on core 0, and the spy's
        probe vector is collected; the number of distinct vectors must stay
        within the SHARED block-DAG bound.

        ``models`` restricts which recorded bounds are replayed (``None``
        replays them all) — the expensive secret enumeration runs once per
        layout either way, shared with :meth:`check` through
        :meth:`traces`.  ``hierarchy`` overrides the replay
        shape, letting one analysis (the static bounds are
        hierarchy-independent) validate against several hierarchy modes.
        """
        report = ValidationReport()
        config = result.context.config
        if policies is None:
            policies = (config.cache_policy,)
        if cache_config is None:
            # Banks are irrelevant to hit/miss replay; clamp them so small
            # analysis line sizes still produce a valid cache geometry.
            line_bytes = config.geometry.line_bytes
            cache_config = CacheConfig(line_bytes=line_bytes,
                                       banks=min(16, line_bytes))
        hierarchy_spec = hierarchy or config.hierarchy or \
            default_hierarchy_spec(line_bytes=config.geometry.line_bytes)
        with obs_trace.span("validate.adversaries",
                            layouts=len(layouts),
                            policies=",".join(policies)) as vspan:
            for lam in layouts:
                # The concrete traces are policy- and model-independent:
                # replay them through a fresh cache per (policy, bound).
                traces = self.traces(lam)
                for policy in policies:
                    def factory(policy=policy):
                        return SetAssociativeCache(cache_config, policy=policy)
                    for (kind, model), bound in result.report.adversaries.items():
                        if models is not None and model not in models:
                            continue
                        if model == PROBE:
                            spec = hierarchy_spec.with_policy(policy)
                            observed = {
                                spy_probe_view(trace.stream(_KIND_CODES[kind]),
                                               CacheHierarchy(spec))
                                for trace in traces}
                        else:
                            observed = self._adversary_views(
                                traces, _KIND_CODES[kind], model, factory)
                        report.checked += 1
                        if len(observed) > bound.count:
                            report.violations.append(
                                f"{kind.value}/{model}/{policy}: observed "
                                f"{len(observed)} views > bound {bound.count} "
                                f"for λ={lam}"
                            )
            vspan.arg("checked", report.checked)
        return report

    # ------------------------------------------------------------------
    # Semantic equivalence of transformed images
    # ------------------------------------------------------------------
    def check_equivalence(self, transformed: Image,
                          layouts: list[dict[str, int]],
                          fills: dict[str, bytes] | None = None,
                          ) -> ValidationReport:
        """Replay original vs. transformed images over all secrets.

        Both images are executed from this validator's input spec for every
        layout λ and every secret valuation; each pair of runs must agree on

        - the return value (EAX at the final RET), and
        - the final contents of every non-stack byte the *original* wrote.

        The transformed image may write additional memory (countermeasure
        scratch buffers, preloaded copies); stack traffic is excluded
        because register allocation legitimately differs between the two
        compilations.  ``fills`` seeds the heap region behind a layout
        symbol with a byte pattern before each run — identically for both
        images — so table-retrieval kernels are compared on non-trivial
        data rather than all-zero memory.
        """
        report = ValidationReport()
        other = ConcreteValidator(transformed, self.spec, fuel=self.fuel)
        stack_floor = DEFAULT_STACK_TOP - _STACK_WINDOW
        with obs_trace.span("validate.equivalence",
                            layouts=len(layouts)) as vspan:
            for lam in layouts:
                for combo in self._secret_combos():
                    trace_a, cpu_a = self._run_once(lam, combo, fills=fills)
                    _trace_b, cpu_b = other._run_once(lam, combo, fills=fills)
                    report.checked += 1
                    label = f"λ={lam}, secrets={[c[2] for c in combo]}"
                    if cpu_a.get_reg(EAX) != cpu_b.get_reg(EAX):
                        report.violations.append(
                            f"return value {cpu_a.get_reg(EAX):#x} != "
                            f"{cpu_b.get_reg(EAX):#x} for {label}")
                        continue
                    written = sorted({
                        addr + offset
                        for kind, addr, size in zip(
                            trace_a.kinds, trace_a.addrs, trace_a.sizes)
                        if kind == WRITE and addr < stack_floor
                        for offset in range(size)
                    })
                    differing = [
                        addr for addr in written
                        if cpu_a.memory.read_byte(addr)
                        != cpu_b.memory.read_byte(addr)
                    ]
                    if differing:
                        report.violations.append(
                            f"{len(differing)} byte(s) differ (first at "
                            f"{differing[0]:#x}) for {label}")
            vspan.arg("checked", report.checked)
        return report
