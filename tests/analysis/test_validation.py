"""Tests for the concrete validation harness itself."""

import pytest

from repro.analysis.analyzer import analyze
from repro.analysis.config import AnalysisConfig, AnalysisError, ArgInit, InputSpec, MemInit
from repro.analysis.validation import ConcreteValidator
from repro.core.leakage import ObservationBound
from repro.core.observers import AccessKind
from repro.isa.asmparse import parse_asm
from repro.isa.registers import EAX, ESI
from repro.vm.cpu import CPU

CONFIG = AnalysisConfig(observer_names=("address", "block"))


def build(text):
    return parse_asm(text).assemble()


SECRET_BRANCH = """
.text
main:
    test eax, eax
    je .skip
    add esi, 64
.skip:
    mov ebx, [esi]
    ret
"""


class TestViews:
    def test_view_count_matches_secret_structure(self):
        image = build(SECRET_BRANCH)
        spec = InputSpec(entry="main",
                         registers=(InputSpec.reg_high(EAX, [0, 1]),
                                    InputSpec.reg_symbol(ESI, "p")))
        validator = ConcreteValidator(image, spec)
        views = validator.views({"p": 0x9000000}, "D", offset_bits=0)
        assert len(views) == 2  # one per secret

    def test_views_identical_for_branchless(self):
        image = build("""
        .text
        main:
            add eax, 1
            mov ebx, [esi]
            ret
        """)
        spec = InputSpec(entry="main",
                         registers=(InputSpec.reg_high(EAX, [0, 1, 2, 3]),
                                    InputSpec.reg_symbol(ESI, "p")))
        validator = ConcreteValidator(image, spec)
        assert len(validator.views({"p": 0x9000000}, "D", 0)) == 1
        assert len(validator.views({"p": 0x9000000}, "I", 0)) == 1

    def test_stuttering_views(self):
        image = build("""
        .text
        main:
            mov ebx, [esi]
            mov ecx, [esi+4]
            ret
        """)
        spec = InputSpec(entry="main",
                         registers=(InputSpec.reg_symbol(ESI, "p"),))
        validator = ConcreteValidator(image, spec)
        exact = next(iter(validator.views({"p": 0x9000000}, "D", 6)))
        collapsed = next(iter(validator.views({"p": 0x9000000}, "D", 6, True)))
        assert len(collapsed) <= len(exact)

    def test_missing_lambda_raises(self):
        image = build(SECRET_BRANCH)
        spec = InputSpec(entry="main",
                         registers=(InputSpec.reg_symbol(ESI, "p"),))
        validator = ConcreteValidator(image, spec)
        with pytest.raises(AnalysisError):
            validator.views({}, "D", 0)

    def test_memory_secrets_enumerated(self):
        image = build("""
        .text
        main:
            mov eax, [esi]
            lea edx, [eax*4]
            mov ebx, [esi+edx]
            ret
        """)
        spec = InputSpec(
            entry="main",
            registers=(InputSpec.reg_symbol(ESI, "p"),),
            memory=(MemInit(at="p", high_values=(1, 2, 3)),),
        )
        validator = ConcreteValidator(image, spec)
        views = validator.views({"p": 0x9000000}, "D", 0)
        assert len(views) == 3

    def test_arg_secrets_enumerated(self):
        image = build("""
        .text
        main:
            mov eax, [esp+4]
            lea edx, [eax*4]
            mov ebx, [esi+edx]
            ret
        """)
        spec = InputSpec(
            entry="main",
            registers=(InputSpec.reg_symbol(ESI, "p"),),
            args=(ArgInit.high([0, 1, 2]),),
        )
        validator = ConcreteValidator(image, spec)
        views = validator.views({"p": 0x9000000}, "D", 0)
        assert len(views) == 3


class TestCheck:
    def _result(self):
        image = build(SECRET_BRANCH)
        spec = InputSpec(entry="main",
                         registers=(InputSpec.reg_high(EAX, [0, 1]),
                                    InputSpec.reg_symbol(ESI, "p")))
        return image, spec, analyze(image, spec, CONFIG)

    def test_valid_bounds_pass(self):
        image, spec, result = self._result()
        outcome = ConcreteValidator(image, spec).check(
            result, layouts=[{"p": 0x9000000}, {"p": 0x9000404}])
        assert outcome.ok
        assert outcome.checked == 2 * 2 * 2 * 2  # layouts x kinds x obs x stutter

    def test_violation_detected(self):
        """Corrupting a bound must be caught (the validator actually bites)."""
        image, spec, result = self._result()
        bad = ObservationBound(kind=AccessKind.DATA, observer="address",
                               count=1, stuttering_count=1)
        result.report.record(bad)
        outcome = ConcreteValidator(image, spec).check(
            result, layouts=[{"p": 0x9000000}])
        assert not outcome.ok
        assert any("D-Cache/address" in v for v in outcome.violations)


class TestTraceReuse:
    """Each (layout, secret) runs on the VM once per validator, however many
    checks and views are derived from its trace."""

    LAYOUTS = [{"p": 0x9000000}, {"p": 0x9000404}]

    def _result(self):
        image = build(SECRET_BRANCH)
        spec = InputSpec(entry="main",
                         registers=(InputSpec.reg_high(EAX, [0, 1, 2]),
                                    InputSpec.reg_symbol(ESI, "p")))
        return image, spec, analyze(image, spec, CONFIG)

    def _count_runs(self, monkeypatch):
        runs = []
        original = CPU.run

        def counted(cpu, *args, **kwargs):
            runs.append(cpu)
            return original(cpu, *args, **kwargs)
        monkeypatch.setattr(CPU, "run", counted)
        return runs

    def test_check_then_adversaries_run_each_secret_once(self, monkeypatch):
        image, spec, result = self._result()
        assert result.report.adversaries
        separate = (ConcreteValidator(image, spec).check(result, self.LAYOUTS),
                    ConcreteValidator(image, spec).check_adversaries(
                        result, self.LAYOUTS, policies=("lru", "fifo", "plru")))
        runs = self._count_runs(monkeypatch)
        validator = ConcreteValidator(image, spec)
        shared = (validator.check(result, self.LAYOUTS),
                  validator.check_adversaries(result, self.LAYOUTS,
                                              policies=("lru", "fifo", "plru")))
        assert len(runs) == len(self.LAYOUTS) * 3
        validator.views(self.LAYOUTS[0], "D", 0)
        assert validator.traces(dict(self.LAYOUTS[1])) is validator.traces(self.LAYOUTS[1])
        first, second = (validator.traces(lam) for lam in self.LAYOUTS)
        assert [trace.addrs for trace in first] != [trace.addrs for trace in second]
        assert len(runs) == len(self.LAYOUTS) * 3
        for mine, fresh in zip(shared, separate):
            assert (mine.checked, mine.violations) == (fresh.checked, fresh.violations)
        assert all(report.checked and report.ok for report in shared)
