"""The concrete VM as it was before predecoded dispatch: a test-only reference.

``FlatMemory``, ``Trace`` and ``CPU`` below are the byte-at-a-time memory,
the one-object-per-access trace and the mnemonic-dispatch interpreter that
``repro.vm`` replaced, kept verbatim (only their module headers merged, and the two
exception classes shared with ``repro.vm.cpu``) so
``tests/vm/test_reference_vm.py`` can check that the production VM records
the same accesses, leaves the same machine state and counts the same
instructions and performance counters on every workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.bitvec import (
    add_with_carry,
    sign_bit,
    sub_with_borrow,
    to_signed,
    truncate,
)
from repro.isa.image import Image
from repro.isa.instructions import Imm, Instruction, Mem, Reg, condition_holds
from repro.isa.registers import ESP, Reg8
from repro.vm.cpu import CPUError, StepLimitExceeded

# ----------------------------------------------------------------------
# memory.py
# ----------------------------------------------------------------------

DEFAULT_HEAP_BASE = 0x0900_0000
DEFAULT_STACK_TOP = 0x0BFF_F000


class MemoryError_(Exception):
    """Raised on invalid memory accesses (kept distinct from builtins)."""


class FlatMemory:
    """Sparse byte-addressable memory with a bump-allocating heap."""

    def __init__(
        self,
        heap_base: int = DEFAULT_HEAP_BASE,
        aslr_offset: int = 0,
        heap_align: int = 16,
    ) -> None:
        self._bytes: dict[int, int] = {}
        self._heap_next = heap_base + aslr_offset
        self._heap_align = heap_align
        self.allocations: list[tuple[int, int]] = []  # (address, size)

    # ------------------------------------------------------------------
    # Image loading
    # ------------------------------------------------------------------
    def load_image(self, image: Image) -> None:
        """Copy every section of an assembled image into memory."""
        for section in image.sections:
            for offset, value in enumerate(section.data):
                self._bytes[section.base + offset] = value

    # ------------------------------------------------------------------
    # Byte/word access
    # ------------------------------------------------------------------
    def read_byte(self, addr: int) -> int:
        """Read one byte (uninitialized memory reads as 0)."""
        return self._bytes.get(truncate(addr, 32), 0)

    def write_byte(self, addr: int, value: int) -> None:
        """Write one byte."""
        self._bytes[truncate(addr, 32)] = value & 0xFF

    def read(self, addr: int, size: int) -> int:
        """Little-endian read of ``size`` bytes."""
        value = 0
        for offset in range(size):
            value |= self.read_byte(addr + offset) << (8 * offset)
        return value

    def write(self, addr: int, value: int, size: int) -> None:
        """Little-endian write of ``size`` bytes."""
        for offset in range(size):
            self.write_byte(addr + offset, (value >> (8 * offset)) & 0xFF)

    def read_block(self, addr: int, size: int) -> bytes:
        """Read a contiguous range as bytes."""
        return bytes(self.read_byte(addr + offset) for offset in range(size))

    def write_block(self, addr: int, payload: bytes) -> None:
        """Write a contiguous byte string."""
        for offset, value in enumerate(payload):
            self.write_byte(addr + offset, value)

    # ------------------------------------------------------------------
    # Heap
    # ------------------------------------------------------------------
    def malloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the (low, secret-independent)
        address chosen by the bump allocator."""
        if size <= 0:
            raise MemoryError_(f"malloc of non-positive size {size}")
        align = self._heap_align
        addr = (self._heap_next + align - 1) // align * align
        self._heap_next = addr + size
        self.allocations.append((addr, size))
        return addr

# ----------------------------------------------------------------------
# tracer.py
# ----------------------------------------------------------------------

FETCH = "I"
READ = "R"
WRITE = "W"


@dataclass(frozen=True, slots=True)
class Access:
    """One memory access: kind (fetch/read/write), address, size in bytes."""

    kind: str
    addr: int
    size: int


@dataclass(slots=True)
class Trace:
    """An ordered record of the accesses of one concrete execution."""

    accesses: list[Access] = field(default_factory=list)

    def record(self, kind: str, addr: int, size: int) -> None:
        """Append one access."""
        self.accesses.append(Access(kind, addr, size))

    def fetches(self) -> list[int]:
        """Addresses of all instruction fetches."""
        return [a.addr for a in self.accesses if a.kind == FETCH]

    def data_accesses(self) -> list[int]:
        """Addresses of all data reads and writes."""
        return [a.addr for a in self.accesses if a.kind != FETCH]

    def view(self, cache_kind: str, offset_bits: int, stuttering: bool = False) -> tuple:
        """The adversary's view of this trace (paper §3.2).

        ``cache_kind`` is "I" (instruction stream), "D" (data stream) or
        "shared" (both, interleaved).  ``offset_bits`` selects the observer
        granularity; ``stuttering=True`` collapses maximal runs of equal
        observations.
        """
        observations = [addr >> offset_bits for addr in self._stream(cache_kind)]
        if not stuttering:
            return tuple(observations)
        collapsed: list[int] = []
        for observation in observations:
            if not collapsed or collapsed[-1] != observation:
                collapsed.append(observation)
        return tuple(collapsed)

    def _stream(self, cache_kind: str) -> list[int]:
        """The addresses of one cache's access stream."""
        if cache_kind == "I":
            return self.fetches()
        if cache_kind == "D":
            return self.data_accesses()
        if cache_kind == "shared":
            return [a.addr for a in self.accesses]
        raise ValueError(f"unknown cache kind {cache_kind!r}")

    def hit_miss_view(self, cache_kind: str, cache) -> tuple[bool, ...]:
        """The trace-based adversary's view: the hit/miss sequence.

        Replays this trace's ``cache_kind`` stream through ``cache`` (a fresh
        :class:`~repro.vm.cache.SetAssociativeCache` of any policy).  The
        result is a deterministic function of the block view, so its number
        of distinct values over all secrets is bounded by the block-trace
        count (see :mod:`repro.core.adversary`).
        """
        return tuple(cache.access(addr) for addr in self._stream(cache_kind))

    def time_view(self, cache_kind: str, cache) -> tuple[int, int]:
        """The time-based adversary's view: total (hits, misses).

        On an in-order cost model the execution time is an affine function
        of these two counters, so distinguishing timings is exactly
        distinguishing (hits, misses) pairs.
        """
        sequence = self.hit_miss_view(cache_kind, cache)
        hits = sum(sequence)
        return hits, len(sequence) - hits

    def __len__(self) -> int:
        return len(self.accesses)

# ----------------------------------------------------------------------
# cpu.py
# ----------------------------------------------------------------------

WIDTH = 32

# CPUError and StepLimitExceeded are imported from repro.vm.cpu above, so
# both VMs raise the very same exception types.

ExternHook = Callable[["CPU"], None]


@dataclass
class Flags:
    """Concrete flag register."""

    zf: int = 0
    cf: int = 0
    sf: int = 0
    of: int = 0


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

    # ------------------------------------------------------------------
    # Register and memory helpers
    # ------------------------------------------------------------------
    def get_reg(self, reg: int) -> int:
        """Read a 32-bit register."""
        return self.regs[reg]

    def set_reg(self, reg: int, value: int) -> None:
        """Write a 32-bit register."""
        self.regs[reg] = truncate(value, WIDTH)

    def get_reg8(self, reg: int) -> int:
        """Read the low byte of a register."""
        return self.regs[reg] & 0xFF

    def set_reg8(self, reg: int, value: int) -> None:
        """Write the low byte of a register, preserving the upper bits."""
        self.regs[reg] = (self.regs[reg] & 0xFFFFFF00) | (value & 0xFF)

    def effective_address(self, mem: Mem) -> int:
        """Evaluate ``base + index*scale + disp``."""
        addr = mem.disp
        if mem.base is not None:
            addr += self.regs[mem.base]
        if mem.index is not None:
            addr += self.regs[mem.index] * mem.scale
        return truncate(addr, WIDTH)

    def load(self, mem: Mem) -> int:
        """Read through a memory operand, recording the access."""
        addr = self.effective_address(mem)
        self._record(READ, addr, mem.size)
        return self.memory.read(addr, mem.size)

    def store(self, mem: Mem, value: int) -> None:
        """Write through a memory operand, recording the access."""
        addr = self.effective_address(mem)
        self._record(WRITE, addr, mem.size)
        self.memory.write(addr, value, mem.size)

    def push(self, value: int) -> None:
        """Push a 32-bit value (records the stack write)."""
        self.set_reg(ESP, self.regs[ESP] - 4)
        self._record(WRITE, self.regs[ESP], 4)
        self.memory.write(self.regs[ESP], value, 4)

    def pop(self) -> int:
        """Pop a 32-bit value (records the stack read)."""
        self._record(READ, self.regs[ESP], 4)
        value = self.memory.read(self.regs[ESP], 4)
        self.set_reg(ESP, self.regs[ESP] + 4)
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
        sentinel = 0xFFFF_FFF0
        self.push(sentinel)
        self.eip = entry
        self.halted = False
        while not self.halted:
            if self.instructions_executed >= fuel:
                raise StepLimitExceeded(f"exceeded {fuel} instructions")
            self.step()
            if self.eip == sentinel:
                self.halted = True

    def step(self) -> None:
        """Execute exactly one instruction."""
        instruction = self.image.decode_at(self.eip)
        self._record(FETCH, self.eip, instruction.encoded_size)
        if self.perf is not None:
            self.perf.instruction(instruction)
        self.instructions_executed += 1
        next_eip = self.eip + instruction.encoded_size
        self.eip = self._execute(instruction, next_eip)

    # ------------------------------------------------------------------
    # Instruction semantics
    # ------------------------------------------------------------------
    def _read_operand(self, op) -> int:
        if isinstance(op, Reg):
            return self.get_reg(op.reg)
        if isinstance(op, Reg8):
            return self.get_reg8(op.reg)
        if isinstance(op, Imm):
            return op.value
        if isinstance(op, Mem):
            return self.load(op)
        raise CPUError(f"cannot read operand {op!r}")

    def _write_operand(self, op, value: int) -> None:
        if isinstance(op, Reg):
            self.set_reg(op.reg, value)
        elif isinstance(op, Reg8):
            self.set_reg8(op.reg, value)
        elif isinstance(op, Mem):
            self.store(op, value)
        else:
            raise CPUError(f"cannot write operand {op!r}")

    def _set_logic_flags(self, result: int) -> None:
        self.flags.zf = 1 if truncate(result, WIDTH) == 0 else 0
        self.flags.sf = sign_bit(result, WIDTH)
        self.flags.cf = 0
        self.flags.of = 0

    def _execute(self, instr: Instruction, next_eip: int) -> int:
        mnemonic = instr.mnemonic
        ops = instr.operands

        if mnemonic == "mov":
            self._write_operand(ops[0], self._read_operand(ops[1]))
        elif mnemonic == "movzx":
            source = ops[1]
            if isinstance(source, Mem):
                value = self.load(source)  # size-1 load, zero-extended
            else:
                value = self.get_reg8(source.reg)
            self._write_operand(ops[0], value & 0xFF)
        elif mnemonic == "movb":
            mem = ops[0]
            if mem.size != 1:  # defensive: movb always stores one byte
                mem = Mem(mem.base, mem.index, mem.scale, mem.disp, 1)
            self.store(mem, self.get_reg8(ops[1].reg))
        elif mnemonic == "lea":
            self.set_reg(ops[0].reg, self.effective_address(ops[1]))
        elif mnemonic in ("add", "sub", "cmp"):
            x = self._read_operand(ops[0])
            y = self._read_operand(ops[1])
            if mnemonic == "add":
                result, carry, overflow = add_with_carry(x, y, 0, WIDTH)
            else:
                result, carry, overflow = sub_with_borrow(x, y, 0, WIDTH)
            self.flags.zf = 1 if result == 0 else 0
            self.flags.sf = sign_bit(result, WIDTH)
            self.flags.cf = carry
            self.flags.of = overflow
            if mnemonic != "cmp":
                self._write_operand(ops[0], result)
        elif mnemonic in ("and", "or", "xor", "test"):
            x = self._read_operand(ops[0])
            y = self._read_operand(ops[1])
            result = {"and": x & y, "test": x & y, "or": x | y, "xor": x ^ y}[mnemonic]
            self._set_logic_flags(result)
            if mnemonic != "test":
                self._write_operand(ops[0], result)
        elif mnemonic in ("inc", "dec"):
            x = self._read_operand(ops[0])
            delta = 1 if mnemonic == "inc" else -1
            result = truncate(x + delta, WIDTH)
            # x86: INC/DEC preserve CF.
            self.flags.zf = 1 if result == 0 else 0
            self.flags.sf = sign_bit(result, WIDTH)
            self.flags.of = 1 if (mnemonic == "inc" and result == 0x80000000) or \
                                 (mnemonic == "dec" and result == 0x7FFFFFFF) else 0
            self._write_operand(ops[0], result)
        elif mnemonic == "neg":
            x = self._read_operand(ops[0])
            result, _, overflow = sub_with_borrow(0, x, 0, WIDTH)
            self.flags.zf = 1 if result == 0 else 0
            self.flags.sf = sign_bit(result, WIDTH)
            self.flags.cf = 0 if x == 0 else 1
            self.flags.of = overflow
            self._write_operand(ops[0], result)
        elif mnemonic == "not":
            self._write_operand(ops[0], truncate(~self._read_operand(ops[0]), WIDTH))
        elif mnemonic in ("shl", "shr", "sar"):
            x = self._read_operand(ops[0])
            count = self._read_operand(ops[1]) & 31
            if count == 0:
                result = x
            elif mnemonic == "shl":
                result = truncate(x << count, WIDTH)
                self.flags.cf = (x >> (WIDTH - count)) & 1
            elif mnemonic == "shr":
                result = x >> count
                self.flags.cf = (x >> (count - 1)) & 1
            else:
                result = truncate(to_signed(x, WIDTH) >> count, WIDTH)
                self.flags.cf = (x >> (count - 1)) & 1
            if count:
                self.flags.zf = 1 if result == 0 else 0
                self.flags.sf = sign_bit(result, WIDTH)
                self.flags.of = 0
            self._write_operand(ops[0], result)
        elif mnemonic == "imul":
            if len(ops) == 2:
                x = self._read_operand(ops[0])
                y = self._read_operand(ops[1])
            else:
                x = self._read_operand(ops[1])
                y = self._read_operand(ops[2])
            full = to_signed(x, WIDTH) * to_signed(y, WIDTH)
            result = truncate(full, WIDTH)
            self.flags.cf = self.flags.of = 0 if to_signed(result, WIDTH) == full else 1
            self.flags.zf = 1 if result == 0 else 0
            self.flags.sf = sign_bit(result, WIDTH)
            self._write_operand(ops[0], result)
        elif mnemonic == "mul":
            x = self.get_reg(0)  # EAX
            y = self._read_operand(ops[0])
            full = x * y
            self.set_reg(0, truncate(full, WIDTH))
            self.set_reg(2, truncate(full >> WIDTH, WIDTH))  # EDX
            self.flags.cf = self.flags.of = 1 if full >> WIDTH else 0
        elif mnemonic == "div":
            divisor = self._read_operand(ops[0])
            if divisor == 0:
                raise CPUError(f"division by zero at {instr.addr:#x}")
            dividend = (self.get_reg(2) << WIDTH) | self.get_reg(0)
            quotient, remainder = divmod(dividend, divisor)
            if quotient >> WIDTH:
                raise CPUError(f"division overflow at {instr.addr:#x}")
            self.set_reg(0, quotient)
            self.set_reg(2, remainder)
        elif mnemonic == "push":
            self.push(self._read_operand(ops[0]))
        elif mnemonic == "pop":
            self.set_reg(ops[0].reg, self.pop())
        elif mnemonic == "jmp":
            return ops[0]
        elif mnemonic == "call":
            target = ops[0]
            hook = self.hooks.get(target)
            if hook is not None:
                hook(self)
                return next_eip
            self.push(next_eip)
            return target
        elif mnemonic == "ret":
            return self.pop()
        elif mnemonic.startswith("set"):
            condition = mnemonic[3:]
            value = 1 if condition_holds(condition, self.flags.zf, self.flags.cf,
                                         self.flags.sf, self.flags.of) else 0
            self.set_reg8(ops[0].reg, value)
        elif mnemonic.startswith("j"):
            condition = mnemonic[1:]
            if condition_holds(condition, self.flags.zf, self.flags.cf,
                               self.flags.sf, self.flags.of):
                return ops[0]
        elif mnemonic == "nop":
            pass
        elif mnemonic == "hlt":
            self.halted = True
        else:
            raise CPUError(f"unimplemented instruction {mnemonic}")
        return next_eip


# ----------------------------------------------------------------------
# Differential helpers (not part of the old VM)
# ----------------------------------------------------------------------

def machine_state(cpu) -> dict:
    """Everything a run leaves behind, comparable across the two VMs:
    the (kind, addr, size) access stream, registers, flags, eip, every
    memory byte, the instruction count and the performance counters."""
    trace = cpu.trace
    if trace is None:
        accesses = None
    elif isinstance(trace, Trace):
        accesses = [(access.kind, access.addr, access.size)
                    for access in trace.accesses]
    else:
        accesses = list(zip(trace.kinds, trace.addrs, trace.sizes))
    flags = cpu.flags
    return {
        "accesses": accesses,
        "regs": list(cpu.regs),
        "flags": (flags.zf, flags.cf, flags.sf, flags.of),
        "eip": cpu.eip,
        "halted": cpu.halted,
        "memory": dict(cpu.memory._bytes),
        "instructions": cpu.instructions_executed,
        "perf": None if cpu.perf is None else cpu.perf.counters,
    }


def outcome(cpu, entry, fuel: int = 5_000_000):
    """Run ``cpu`` from ``entry``: its final state and what it raised."""
    try:
        cpu.run(entry, fuel=fuel)
    except Exception as error:  # compared, then re-raised by the caller
        return machine_state(cpu), error
    return machine_state(cpu), None


def assert_same_run(cpu, reference, entry, fuel: int = 5_000_000) -> None:
    """Run ``cpu`` and the reference VM ``reference`` (set up alike) from
    ``entry``; both must leave the same state and raise the same exception
    type with the same message, which is then re-raised."""
    state, error = outcome(cpu, entry, fuel)
    expected_state, expected_error = outcome(reference, entry, fuel)
    assert type(error) is type(expected_error), (error, expected_error)
    assert str(error) == str(expected_error)
    for key, expected in expected_state.items():
        assert state[key] == expected, f"{key} differs from the reference VM"
    if error is not None:
        raise error
