"""Differential tests: the VM against the reference VM it replaced.

``reference_vm.py`` keeps the mnemonic-dispatch interpreter, byte-at-a-time
memory and one-object-per-access trace verbatim.  The production VM must
record the same (kind, addr, size) access stream, leave the same registers,
flags and memory bytes, count the same instructions and charge the same
performance counters on every workload the project runs on it: the
catalogue's targets over their full secret enumeration, the Figure 16b
kernels under every replacement policy and the AES timing experiment, and
every operation over edge-value operands.  The programs of ``test_cpu.py``
are checked the same way by its ``run_program``, including the exception
type and instruction count at fuel exhaustion and division by zero.
"""

import itertools

import pytest
import reference_vm

from repro.casestudy import performance
from repro.casestudy import scenarios as catalogue
from repro.casestudy.targets import default_layouts
from repro.isa.asmparse import parse_asm
from repro.isa.instructions import CONDITIONS, Instruction
from repro.isa.registers import EDI
from repro.sweep.scenario import LEAKAGE
from repro.vm.cpu import CPU, CPUError
from repro.vm.memory import FlatMemory
from repro.vm.perf import CostModel
from repro.vm.tracer import Trace


def _secret_valuations(spec):
    """Every secret valuation of an input spec, as (kind, where, value)s."""
    choices = [[("reg", init.reg, value) for value in init.high_values]
               for init in spec.registers if init.high_values is not None]
    choices += [[("arg", index, value) for value in init.high_values]
                for index, init in enumerate(spec.args)
                if init.high_values is not None]
    choices += [[("mem", init, value) for value in init.high_values]
                for init in spec.memory if init.high_values is not None]
    return itertools.product(*choices)


def _boot(cpu_class, memory_class, trace_class, target, lam, valuation):
    """A CPU of one VM in the target's initial state for ``lam``."""
    memory = memory_class()
    cpu = cpu_class(target.image, memory=memory, trace=trace_class())
    spec = target.spec

    def public(init):
        if init.constant is not None:
            return init.constant
        return lam[init.symbol] if init.symbol is not None else None

    def address(at):
        if isinstance(at, int):
            return at
        if isinstance(at, str):
            return lam[at]
        return lam[at[0]] + at[1]

    for init in spec.registers:
        if public(init) is not None:
            cpu.set_reg(init.reg, public(init))
    for init in spec.memory:
        if public(init) is not None:
            memory.write(address(init.at), public(init), init.size)
    args = [public(init) or 0 for init in spec.args]
    for kind, where, value in valuation:
        if kind == "reg":
            cpu.set_reg(where, value)
        elif kind == "arg":
            args[where] = value
        else:
            memory.write(address(where.at), value, where.size)
    for value in reversed(args):
        cpu.push(value)
    return cpu


def _catalogue_targets():
    """One target per distinct (image, input spec) among the leakage
    scenarios.

    The AES preload variants are left out: each is a ~1M-instruction
    enumeration, about 10 s on the reference VM, and the preload pass's
    warming loop is covered by ``lookup-O2-64B-preload``.
    """
    seen, found = set(), []
    for name, scenario in sorted(catalogue.all_scenarios().items()):
        if scenario.kind != LEAKAGE or (name.startswith("aes")
                                        and "preload" in name):
            continue
        target = scenario.build_target()
        key = (target.image.fingerprint, target.spec)
        if key not in seen:
            seen.add(key)
            found.append((name, target))
    return found


def test_catalogue_targets_match_the_reference():
    targets = _catalogue_targets()
    assert {target.name for _name, target in targets} == {
        "sqm_152", "sqam_153", "lookup_161", "secure_163", "scatter_102f",
        "scatter_store_102f", "defensive_102g", "naive_gather", "aes_ttable"}
    runs = 0
    for name, target in targets:
        for lam in default_layouts(target.name):
            for valuation in _secret_valuations(target.spec):
                cpu = _boot(CPU, FlatMemory, Trace, target, lam, valuation)
                reference = _boot(reference_vm.CPU, reference_vm.FlatMemory,
                                  reference_vm.Trace, target, lam, valuation)
                try:
                    reference_vm.assert_same_run(
                        cpu, reference, target.spec.entry, fuel=1_000_000)
                except AssertionError as difference:
                    raise AssertionError(f"{name}, λ={lam}, secrets="
                                         f"{valuation}: {difference}") from None
                runs += 1
    assert runs > len(targets)


def _on_both_vms(monkeypatch, measure):
    """``measure()`` with ``repro.casestudy.performance`` building its CPUs
    and memories from the reference VM, then from the VM: each run's result
    and the final state of every CPU it built."""
    outcomes = []
    for cpu_class, memory_class in ((reference_vm.CPU, reference_vm.FlatMemory),
                                    (CPU, FlatMemory)):
        built = []

        class Recorded(cpu_class):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(performance, "CPU", Recorded)
        monkeypatch.setattr(performance, "FlatMemory", memory_class)
        result = measure()
        outcomes.append((result, [reference_vm.machine_state(cpu) for cpu in built]))
    return outcomes


@pytest.mark.parametrize("policy", ["lru", "fifo", "plru"])
@pytest.mark.parametrize("variant", performance.KERNEL_VARIANTS)
def test_kernels_match_the_reference(variant, policy, monkeypatch):
    expected, (result, states) = _on_both_vms(
        monkeypatch, lambda: performance.measure_kernel(variant, 32, policy=policy))
    assert (result, states) == expected
    assert len(states) == 1 and states[0]["perf"].instructions > 0


def test_aes_timing_point_matches_the_reference(monkeypatch):
    expected, (result, states) = _on_both_vms(
        monkeypatch, lambda: performance.measure_aes(
            entries=16, line_bytes=32, num_sets=2, policy="plru"))
    assert (result, states) == expected
    # Two CPUs per key pair share one memory and one cost model.
    assert len(states) == 32


EDGE_VALUES = (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0x12345678)

# One operation under test per entry: the lines that apply it to eax (x)
# and ebx/ecx (y); esi points at a scratch word holding x.
OPERATIONS = {
    **{f"{op}-{form}": lines
       for op in ("add", "sub", "cmp", "and", "or", "xor")
       for form, lines in (
           ("rr", lambda op, y: [f"{op} eax, ebx"]),
           ("ri", lambda op, y: [f"{op} eax, {y:#x}"]),
           ("rm", lambda op, y: [f"{op} eax, [esi]"]),
           ("mr", lambda op, y: [f"{op} [esi], ebx", "mov eax, [esi]"]),
           ("mi", lambda op, y: [f"{op} [esi], {y:#x}", "mov eax, [esi]"]))},
    "test-rr": lambda op, y: ["test eax, ebx"],
    "test-ri": lambda op, y: [f"test eax, {y:#x}"],
    **{f"{op}-{form}": lines
       for op in ("inc", "dec", "neg", "not")
       for form, lines in (
           ("r", lambda op, y: [f"{op} eax"]),
           ("m", lambda op, y: [f"{op} [esi]", "mov eax, [esi]"]))},
    **{f"{op}-{form}": lines
       for op in ("shl", "shr", "sar")
       for form, lines in (
           ("cl", lambda op, y: [f"{op} eax, cl"]),
           ("imm", lambda op, y: [f"{op} eax, {y & 31}"]))},
    "imul-rr": lambda op, y: ["imul eax, ebx"],
    "imul-rri": lambda op, y: [f"imul eax, ebx, {y:#x}"],
    "mul": lambda op, y: ["mul ebx"],
    "div": lambda op, y: ["mov edx, 0", "div ebx"] if y else [],
    "movzx": lambda op, y: ["movzx eax, byte [esi+1]", "movzx ebx, cl"],
    "movb-push-pop": lambda op, y: ["movb [esi+2], cl", "push [esi]", "pop eax",
                                    "push ebx", "pop edx"],
}


def _edge_sweep(name: str) -> str:
    """Apply one operation to every pair of edge values; after each, store
    every condition code, eax and edx to memory for the comparison."""
    op = name.split("-")[0]
    lines = [".text", "main:", "mov edi, 0x9000100", "mov esi, 0x9000000"]
    for x, y in itertools.product(EDGE_VALUES, repeat=2):
        lines += [f"mov eax, {x:#x}", f"mov ebx, {y:#x}", f"mov ecx, {y:#x}",
                  f"mov edx, {y:#x}", "mov [esi], eax", *OPERATIONS[name](op, y)]
        for offset, condition in enumerate(CONDITIONS):
            lines += [f"set{condition} cl", f"movb [edi+{offset}], cl"]
        lines += ["mov [edi+12], eax", "mov [edi+16], edx", "lea edi, [edi+20]"]
    return "\n".join(lines + ["ret"])


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_flags_and_results_match_the_reference(name):
    image = parse_asm(_edge_sweep(name)).assemble()
    cpu = CPU(image, trace=Trace(), perf=CostModel())
    reference = reference_vm.CPU(image, trace=reference_vm.Trace(), perf=CostModel())
    reference_vm.assert_same_run(cpu, reference, "main")
    assert cpu.get_reg(EDI) == 0x9000100 + 20 * len(EDGE_VALUES) ** 2


def test_unimplemented_mnemonic_fails_like_the_reference():
    image = parse_asm("""
    .text
    main:
        mov eax, 1
        nop
        ret
    """).assemble()
    # Plant an instruction the decoder cannot produce, for both VMs.
    main = image.symbol("main")
    nop = image.decode_at(main + image.decode_at(main).encoded_size)
    assert nop.mnemonic == "nop"
    image._decode_cache[nop.addr] = Instruction(
        "bogus", (), addr=nop.addr, encoded_size=nop.encoded_size)
    cpu = CPU(image, trace=Trace())
    reference = reference_vm.CPU(image, trace=reference_vm.Trace())
    with pytest.raises(CPUError, match="unimplemented instruction bogus"):
        reference_vm.assert_same_run(cpu, reference, "main")
    assert cpu.instructions_executed == 2

