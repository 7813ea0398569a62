"""Concrete CPU interpreter for the x86-subset ISA.

Executes assembled images instruction by instruction with exact flag
semantics, recording the fetch and data access streams.  The VM serves three
roles in the reproduction:

1. **Validation**: for small secrets the test suite enumerates all secret
   values, collects the concrete adversary views, and checks that the number
   of distinct views never exceeds the static bound (Theorem 1, executable).
2. **Performance study** (paper Figure 16): instruction and cycle counts via
   :mod:`repro.vm.perf`.
3. **Correctness of the workloads**: the mini-C compiled crypto kernels are
   compared against their Python reference implementations.

Dispatch is predecoded: the first time a program address executes, its
instruction is decoded once and turned into an *executor*, a closure
specialized on the mnemonic and on the shape of every operand (register,
byte register, immediate, or one memory addressing form).  Executors are
held per image — images are immutable after assembly — so every later step
at that address, on any CPU running the image, skips the decode lookup, the
mnemonic dispatch and the operand type tests.  An executor performs exactly
the operand reads, writes and recorded accesses of the instruction, in
program order.

Extern calls can be hooked with Python callbacks (``ExternHook``); this is the
hybrid-simulation mechanism used to charge multi-precision arithmetic calls
without simulating every limb operation (documented in DESIGN.md §2).
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass
from typing import Callable

from repro.core.bitvec import to_signed
from repro.isa.image import Image
from repro.isa.instructions import Imm, Instruction, Mem, Reg, condition_holds
from repro.isa.registers import EAX, EDX, ESP, Reg8
from repro.vm.memory import DEFAULT_STACK_TOP, FlatMemory
from repro.vm.tracer import FETCH, READ, WRITE, Trace

__all__ = ["CPU", "CPUError", "ExternHook", "StepLimitExceeded"]

WIDTH = 32
MASK = 0xFFFF_FFFF
SIGN = 0x8000_0000

# Return address pushed by ``run``; returning to it stops the machine.
SENTINEL = 0xFFFF_FFF0


class CPUError(Exception):
    """Raised on invalid executions (bad opcode usage, division by zero...)."""


class StepLimitExceeded(CPUError):
    """Raised when an execution exceeds its fuel budget."""


ExternHook = Callable[["CPU"], None]

# Performs one instruction on a CPU and returns the next eip.
Executor = Callable[["CPU"], int]


@dataclass(slots=True)
class Flags:
    """Concrete flag register."""

    zf: int = 0
    cf: int = 0
    sf: int = 0
    of: int = 0


# Per image: address -> (instruction, encoded size, executor), filled as
# addresses first execute and dropped with the image.
_PROGRAMS: weakref.WeakKeyDictionary[
    Image, dict[int, tuple[Instruction, int, Executor]]] = (
    weakref.WeakKeyDictionary())


class CPU:
    """A single-core concrete machine executing one image."""

    def __init__(
        self,
        image: Image,
        memory: FlatMemory | None = None,
        trace: Trace | None = None,
        perf=None,
        stack_top: int = DEFAULT_STACK_TOP,
    ) -> None:
        self.image = image
        self.memory = memory or FlatMemory()
        self.memory.load_image(image)
        self.trace = trace
        self.perf = perf
        self.regs = [0] * 8
        self.regs[ESP] = stack_top
        self.flags = Flags()
        self.eip = 0
        self.halted = False
        self.instructions_executed = 0
        self.hooks: dict[int, ExternHook] = {}
        self._program = _PROGRAMS.setdefault(image, {})

    # ------------------------------------------------------------------
    # Register and memory helpers
    # ------------------------------------------------------------------
    def get_reg(self, reg: int) -> int:
        """Read a 32-bit register."""
        return self.regs[reg]

    def set_reg(self, reg: int, value: int) -> None:
        """Write a 32-bit register."""
        self.regs[reg] = value & MASK

    def get_reg8(self, reg: int) -> int:
        """Read the low byte of a register."""
        return self.regs[reg] & 0xFF

    def set_reg8(self, reg: int, value: int) -> None:
        """Write the low byte of a register, preserving the upper bits."""
        self.regs[reg] = (self.regs[reg] & 0xFFFFFF00) | (value & 0xFF)

    def push(self, value: int) -> None:
        """Push a 32-bit value (records the stack write)."""
        esp = (self.regs[ESP] - 4) & MASK
        self.regs[ESP] = esp
        self._record(WRITE, esp, 4)
        self.memory.write(esp, value, 4)

    def pop(self) -> int:
        """Pop a 32-bit value (records the stack read)."""
        esp = self.regs[ESP]
        self._record(READ, esp, 4)
        value = self.memory.read(esp, 4)
        self.regs[ESP] = (esp + 4) & MASK
        return value

    def _record(self, kind: str, addr: int, size: int) -> None:
        if self.trace is not None:
            self.trace.record(kind, addr, size)
        if self.perf is not None:
            self.perf.memory_access(kind, addr, size)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, entry: int | str, fuel: int = 5_000_000) -> None:
        """Run from ``entry`` until HLT or a RET with an empty call stack.

        The entry is called like a function: a sentinel return address is
        pushed, and executing RET to the sentinel stops the machine.
        """
        if isinstance(entry, str):
            entry = self.image.symbol(entry)
        self.push(SENTINEL)
        self.eip = entry
        self.halted = False
        while not self.halted:
            if self.instructions_executed >= fuel:
                raise StepLimitExceeded(f"exceeded {fuel} instructions")
            self.step()
            if self.eip == SENTINEL:
                self.halted = True

    def step(self) -> None:
        """Execute exactly one instruction."""
        eip = self.eip
        decoded = self._program.get(eip)
        if decoded is None:
            decoded = self._predecode(eip)
        instruction, size, execute = decoded
        self._record(FETCH, eip, size)
        if self.perf is not None:
            self.perf.instruction(instruction)
        self.instructions_executed += 1
        self.eip = execute(self)

    def _predecode(self, eip: int) -> tuple[Instruction, int, Executor]:
        instruction = self.image.decode_at(eip)
        size = instruction.encoded_size
        decoded = (instruction, size, _executor(instruction, eip + size))
        self._program[eip] = decoded
        return decoded


# ----------------------------------------------------------------------
# Operand access, specialized on the operand's shape
# ----------------------------------------------------------------------

def _address(mem: Mem) -> Callable[[CPU], int]:
    """``base + index*scale + disp``, truncated to 32 bits."""
    base, index, scale, disp = mem.base, mem.index, mem.scale, mem.disp
    if index is None:
        if base is None:
            constant = disp & MASK
            return lambda cpu: constant
        return lambda cpu: (cpu.regs[base] + disp) & MASK
    if base is None:
        return lambda cpu: (cpu.regs[index] * scale + disp) & MASK
    return lambda cpu: (cpu.regs[base] + cpu.regs[index] * scale + disp) & MASK


def _load(mem: Mem) -> Callable[[CPU], int]:
    """Read through a memory operand, recording the access."""
    address, size = _address(mem), mem.size

    def load(cpu: CPU) -> int:
        addr = address(cpu)
        cpu._record(READ, addr, size)
        return cpu.memory.read(addr, size)
    return load


def _store(mem: Mem) -> Callable[[CPU, int], None]:
    """Write through a memory operand, recording the access."""
    address, size = _address(mem), mem.size

    def store(cpu: CPU, value: int) -> None:
        addr = address(cpu)
        cpu._record(WRITE, addr, size)
        cpu.memory.write(addr, value, size)
    return store


def _reader(op) -> Callable[[CPU], int]:
    if isinstance(op, Reg):
        reg = op.reg
        return lambda cpu: cpu.regs[reg]
    if isinstance(op, Reg8):
        reg = op.reg
        return lambda cpu: cpu.regs[reg] & 0xFF
    if isinstance(op, Imm):
        value = op.value
        return lambda cpu: value
    if isinstance(op, Mem):
        return _load(op)

    def unreadable(cpu: CPU) -> int:
        raise CPUError(f"cannot read operand {op!r}")
    return unreadable


def _writer(op) -> Callable[[CPU, int], None]:
    if isinstance(op, Reg):
        reg = op.reg

        def write_reg(cpu: CPU, value: int) -> None:
            cpu.regs[reg] = value & MASK
        return write_reg
    if isinstance(op, Reg8):
        return lambda cpu, value: cpu.set_reg8(op.reg, value)
    if isinstance(op, Mem):
        return _store(op)

    def unwritable(cpu: CPU, value: int) -> None:
        raise CPUError(f"cannot write operand {op!r}")
    return unwritable


# ----------------------------------------------------------------------
# Instruction semantics, one executor builder per mnemonic family
# ----------------------------------------------------------------------

def _mov(instruction: Instruction, ops: tuple, next_eip: int) -> Executor:
    read, write = _reader(ops[1]), _writer(ops[0])

    def execute(cpu: CPU) -> int:
        write(cpu, read(cpu))
        return next_eip
    return execute


def _movzx(instruction: Instruction, ops: tuple, next_eip: int) -> Executor:
    read, write = _reader(ops[1]), _writer(ops[0])  # byte load or byte register

    def execute(cpu: CPU) -> int:
        write(cpu, read(cpu) & 0xFF)
        return next_eip
    return execute


def _movb(instruction: Instruction, ops: tuple, next_eip: int) -> Executor:
    mem = ops[0]
    if mem.size != 1:  # defensive: movb always stores one byte
        mem = Mem(mem.base, mem.index, mem.scale, mem.disp, 1)
    store, reg = _store(mem), ops[1].reg

    def execute(cpu: CPU) -> int:
        store(cpu, cpu.regs[reg] & 0xFF)
        return next_eip
    return execute


def _lea(instruction: Instruction, ops: tuple, next_eip: int) -> Executor:
    address, reg = _address(ops[1]), ops[0].reg

    def execute(cpu: CPU) -> int:
        cpu.regs[reg] = address(cpu)
        return next_eip
    return execute


def _add_sub_cmp(instruction: Instruction, ops: tuple, next_eip: int) -> Executor:
    mnemonic = instruction.mnemonic
    read_x, read_y = _reader(ops[0]), _reader(ops[1])
    write = None if mnemonic == "cmp" else _writer(ops[0])
    add = mnemonic == "add"

    def execute(cpu: CPU) -> int:
        x = read_x(cpu) & MASK
        y = read_y(cpu) & MASK
        if add:
            raw = x + y
            result = raw & MASK
            carry = raw >> WIDTH
            overflow = 1 if ~(x ^ y) & (x ^ result) & SIGN else 0
        else:
            raw = x - y
            result = raw & MASK
            carry = 1 if raw < 0 else 0
            overflow = 1 if (x ^ y) & (x ^ result) & SIGN else 0
        flags = cpu.flags
        flags.zf = 1 if result == 0 else 0
        flags.sf = result >> 31
        flags.cf = carry
        flags.of = overflow
        if write is not None:
            write(cpu, result)
        return next_eip
    return execute


_LOGIC = {"and": operator.and_, "test": operator.and_,
          "or": operator.or_, "xor": operator.xor}


def _logic(instruction: Instruction, ops: tuple, next_eip: int) -> Executor:
    mnemonic = instruction.mnemonic
    read_x, read_y = _reader(ops[0]), _reader(ops[1])
    write = None if mnemonic == "test" else _writer(ops[0])
    combine = _LOGIC[mnemonic]

    def execute(cpu: CPU) -> int:
        result = combine(read_x(cpu), read_y(cpu))
        flags = cpu.flags
        flags.zf = 1 if result & MASK == 0 else 0
        flags.sf = (result >> 31) & 1
        flags.cf = 0
        flags.of = 0
        if write is not None:
            write(cpu, result)
        return next_eip
    return execute


def _inc_dec(instruction: Instruction, ops: tuple, next_eip: int) -> Executor:
    mnemonic = instruction.mnemonic
    read, write = _reader(ops[0]), _writer(ops[0])
    delta, overflow_at = (1, 0x80000000) if mnemonic == "inc" else (-1, 0x7FFFFFFF)

    def execute(cpu: CPU) -> int:
        result = (read(cpu) + delta) & MASK
        # x86: INC/DEC preserve CF.
        flags = cpu.flags
        flags.zf = 1 if result == 0 else 0
        flags.sf = result >> 31
        flags.of = 1 if result == overflow_at else 0
        write(cpu, result)
        return next_eip
    return execute


def _neg(instruction: Instruction, ops: tuple, next_eip: int) -> Executor:
    read, write = _reader(ops[0]), _writer(ops[0])

    def execute(cpu: CPU) -> int:
        x = read(cpu)
        result = -(x & MASK) & MASK
        flags = cpu.flags
        flags.zf = 1 if result == 0 else 0
        flags.sf = result >> 31
        flags.cf = 0 if x == 0 else 1
        flags.of = 1 if x & result & SIGN else 0
        write(cpu, result)
        return next_eip
    return execute


def _not(instruction: Instruction, ops: tuple, next_eip: int) -> Executor:
    read, write = _reader(ops[0]), _writer(ops[0])

    def execute(cpu: CPU) -> int:
        write(cpu, ~read(cpu) & MASK)
        return next_eip
    return execute


def _shift(instruction: Instruction, ops: tuple, next_eip: int) -> Executor:
    mnemonic = instruction.mnemonic
    read_x, read_count, write = _reader(ops[0]), _reader(ops[1]), _writer(ops[0])

    def execute(cpu: CPU) -> int:
        x = read_x(cpu)
        count = read_count(cpu) & 31
        if count == 0:
            write(cpu, x)
            return next_eip
        flags = cpu.flags
        if mnemonic == "shl":
            result = (x << count) & MASK
            flags.cf = (x >> (WIDTH - count)) & 1
        elif mnemonic == "shr":
            result = x >> count
            flags.cf = (x >> (count - 1)) & 1
        else:
            result = (to_signed(x, WIDTH) >> count) & MASK
            flags.cf = (x >> (count - 1)) & 1
        flags.zf = 1 if result == 0 else 0
        flags.sf = (result >> 31) & 1
        flags.of = 0
        write(cpu, result)
        return next_eip
    return execute


def _imul(instruction: Instruction, ops: tuple, next_eip: int) -> Executor:
    sources = ops if len(ops) == 2 else ops[1:]
    read_x, read_y, write = _reader(sources[0]), _reader(sources[1]), _writer(ops[0])

    def execute(cpu: CPU) -> int:
        x = read_x(cpu)
        y = read_y(cpu)
        full = to_signed(x, WIDTH) * to_signed(y, WIDTH)
        result = full & MASK
        flags = cpu.flags
        flags.cf = flags.of = 0 if to_signed(result, WIDTH) == full else 1
        flags.zf = 1 if result == 0 else 0
        flags.sf = result >> 31
        write(cpu, result)
        return next_eip
    return execute


def _mul(instruction: Instruction, ops: tuple, next_eip: int) -> Executor:
    read = _reader(ops[0])

    def execute(cpu: CPU) -> int:
        regs = cpu.regs
        x = regs[EAX]
        full = x * read(cpu)
        regs[EAX] = full & MASK
        regs[EDX] = (full >> WIDTH) & MASK
        cpu.flags.cf = cpu.flags.of = 1 if full >> WIDTH else 0
        return next_eip
    return execute


def _div(instruction: Instruction, ops: tuple, next_eip: int) -> Executor:
    addr = instruction.addr
    read = _reader(ops[0])

    def execute(cpu: CPU) -> int:
        divisor = read(cpu)
        if divisor == 0:
            raise CPUError(f"division by zero at {addr:#x}")
        regs = cpu.regs
        quotient, remainder = divmod((regs[EDX] << WIDTH) | regs[EAX], divisor)
        if quotient >> WIDTH:
            raise CPUError(f"division overflow at {addr:#x}")
        regs[EAX] = quotient & MASK
        regs[EDX] = remainder & MASK
        return next_eip
    return execute


def _push(instruction: Instruction, ops: tuple, next_eip: int) -> Executor:
    read = _reader(ops[0])

    def execute(cpu: CPU) -> int:
        cpu.push(read(cpu))
        return next_eip
    return execute


def _pop(instruction: Instruction, ops: tuple, next_eip: int) -> Executor:
    reg = ops[0].reg

    def execute(cpu: CPU) -> int:
        cpu.regs[reg] = cpu.pop() & MASK
        return next_eip
    return execute


def _jmp(instruction: Instruction, ops: tuple, next_eip: int) -> Executor:
    target = ops[0]
    return lambda cpu: target


def _call(instruction: Instruction, ops: tuple, next_eip: int) -> Executor:
    target = ops[0]

    def execute(cpu: CPU) -> int:
        hook = cpu.hooks.get(target)
        if hook is not None:
            hook(cpu)
            return next_eip
        cpu.push(next_eip)
        return target
    return execute


def _ret(instruction: Instruction, ops: tuple, next_eip: int) -> Executor:
    return lambda cpu: cpu.pop()


def _nop(instruction: Instruction, ops: tuple, next_eip: int) -> Executor:
    return lambda cpu: next_eip


def _hlt(instruction: Instruction, ops: tuple, next_eip: int) -> Executor:
    def execute(cpu: CPU) -> int:
        cpu.halted = True
        return next_eip
    return execute


def _setcc(instruction: Instruction, ops: tuple, next_eip: int) -> Executor:
    condition = instruction.mnemonic[3:]
    reg = ops[0].reg

    def execute(cpu: CPU) -> int:
        flags = cpu.flags
        value = 1 if condition_holds(condition, flags.zf, flags.cf,
                                     flags.sf, flags.of) else 0
        cpu.regs[reg] = (cpu.regs[reg] & 0xFFFFFF00) | value
        return next_eip
    return execute


def _jcc(instruction: Instruction, ops: tuple, next_eip: int) -> Executor:
    condition = instruction.mnemonic[1:]
    target = ops[0]

    def execute(cpu: CPU) -> int:
        flags = cpu.flags
        if condition_holds(condition, flags.zf, flags.cf, flags.sf, flags.of):
            return target
        return next_eip
    return execute


_BUILDERS = {
    "mov": _mov, "movzx": _movzx, "movb": _movb, "lea": _lea,
    "add": _add_sub_cmp, "sub": _add_sub_cmp, "cmp": _add_sub_cmp,
    "and": _logic, "or": _logic, "xor": _logic, "test": _logic,
    "inc": _inc_dec, "dec": _inc_dec, "neg": _neg, "not": _not,
    "shl": _shift, "shr": _shift, "sar": _shift,
    "imul": _imul, "mul": _mul, "div": _div,
    "push": _push, "pop": _pop,
    "jmp": _jmp, "call": _call, "ret": _ret, "nop": _nop, "hlt": _hlt,
}


def _executor(instruction: Instruction, next_eip: int) -> Executor:
    """The executor of one decoded instruction at its address."""
    mnemonic = instruction.mnemonic
    build = _BUILDERS.get(mnemonic)
    if build is None:
        if mnemonic.startswith("set"):
            build = _setcc
        elif mnemonic.startswith("j"):
            build = _jcc
        else:
            def unimplemented(cpu: CPU) -> int:
                raise CPUError(f"unimplemented instruction {mnemonic}")
            return unimplemented
    return build(instruction, instruction.operands, next_eip)
