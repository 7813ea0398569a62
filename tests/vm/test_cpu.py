"""Concrete CPU tests: instruction semantics, calls, tracing, hooks.

Every program run through ``run_program`` also runs on the reference VM
(``reference_vm.py``), which must agree on the whole outcome.
"""

import pytest
import reference_vm

from repro.isa.asmparse import parse_asm
from repro.vm.cpu import CPU, CPUError, StepLimitExceeded
from repro.vm.memory import FlatMemory
from repro.vm.tracer import Trace


def run_program(text, entry="main", fuel=100_000):
    image = parse_asm(text).assemble()
    cpu = CPU(image, trace=Trace())
    reference = reference_vm.CPU(image, trace=reference_vm.Trace())
    reference_vm.assert_same_run(cpu, reference, entry, fuel)
    return cpu


class TestArithmetic:
    def test_mov_and_add(self):
        cpu = run_program("""
        .text
        main:
            mov eax, 40
            mov ebx, 2
            add eax, ebx
            ret
        """)
        assert cpu.get_reg(0) == 42

    def test_sub_sets_flags(self):
        cpu = run_program("""
        .text
        main:
            mov eax, 5
            sub eax, 5
            ret
        """)
        assert cpu.get_reg(0) == 0
        assert cpu.flags.zf == 1
        assert cpu.flags.cf == 0

    def test_sub_borrow(self):
        cpu = run_program("""
        .text
        main:
            mov eax, 3
            sub eax, 5
            ret
        """)
        assert cpu.get_reg(0) == 0xFFFFFFFE
        assert cpu.flags.cf == 1
        assert cpu.flags.sf == 1

    def test_logic_ops(self):
        cpu = run_program("""
        .text
        main:
            mov eax, 0xF0
            mov ebx, 0x3C
            and eax, ebx
            mov ecx, 0xF0
            or  ecx, 0x0F
            mov edx, 0xFF
            xor edx, 0xF0
            ret
        """)
        assert cpu.get_reg(0) == 0x30
        assert cpu.get_reg(1) == 0xFF
        assert cpu.get_reg(2) == 0x0F

    def test_align_idiom(self):
        """The paper's Example 5: AND/ADD alignment of a pointer."""
        cpu = run_program("""
        .text
        main:
            mov eax, 0x1234567
            and eax, 0xFFFFFFC0
            add eax, 0x40
            ret
        """)
        assert cpu.get_reg(0) == (0x1234567 & ~0x3F) + 0x40
        assert cpu.get_reg(0) % 64 == 0

    def test_shifts(self):
        cpu = run_program("""
        .text
        main:
            mov eax, 1
            shl eax, 6
            mov ebx, 0x80
            shr ebx, 4
            mov ecx, 0x80000000
            sar ecx, 31
            ret
        """)
        assert cpu.get_reg(0) == 64
        assert cpu.get_reg(3) == 8
        assert cpu.get_reg(1) == 0xFFFFFFFF

    def test_shl_by_cl(self):
        cpu = run_program("""
        .text
        main:
            mov eax, 3
            mov ecx, 4
            shl eax, cl
            ret
        """)
        assert cpu.get_reg(0) == 48

    def test_imul(self):
        cpu = run_program("""
        .text
        main:
            mov eax, 7
            mov ebx, 6
            imul eax, ebx
            imul ecx, eax, 100
            ret
        """)
        assert cpu.get_reg(0) == 42
        assert cpu.get_reg(1) == 4200

    def test_mul_div_wide(self):
        cpu = run_program("""
        .text
        main:
            mov eax, 0x10000000
            mov ebx, 0x30
            mul ebx
            mov ecx, 0x10
            div ecx
            ret
        """)
        # 0x10000000 * 0x30 = 0x3_0000_0000; / 0x10 = 0x3000_0000
        assert cpu.get_reg(0) == 0x30000000
        assert cpu.get_reg(2) == 0

    def test_div_by_zero_raises(self):
        with pytest.raises(CPUError, match="division by zero"):
            run_program("""
            .text
            main:
                mov eax, 1
                mov edx, 0
                mov ebx, 0
                div ebx
                ret
            """)

    def test_inc_dec_preserve_cf(self):
        cpu = run_program("""
        .text
        main:
            mov eax, 0
            sub eax, 1        ; sets CF
            inc eax
            ret
        """)
        assert cpu.flags.cf == 1  # preserved by inc
        assert cpu.get_reg(0) == 0
        assert cpu.flags.zf == 1

    def test_neg_not(self):
        cpu = run_program("""
        .text
        main:
            mov eax, 5
            neg eax
            mov ebx, 0
            not ebx
            ret
        """)
        assert cpu.get_reg(0) == 0xFFFFFFFB
        assert cpu.get_reg(3) == 0xFFFFFFFF


class TestControlFlow:
    def test_conditional_branch(self):
        cpu = run_program("""
        .text
        main:
            mov eax, 1
            test eax, eax
            jne .taken
            mov ebx, 111
            jmp .done
        .taken:
            mov ebx, 222
        .done:
            ret
        """)
        assert cpu.get_reg(3) == 222

    def test_loop(self):
        cpu = run_program("""
        .text
        main:
            mov eax, 0
            mov ecx, 10
        .loop:
            add eax, ecx
            dec ecx
            jne .loop
            ret
        """)
        assert cpu.get_reg(0) == 55

    def test_call_and_ret(self):
        cpu = run_program("""
        .text
        main:
            mov eax, 1
            call helper
            add eax, 1
            ret
        helper:
            add eax, 10
            ret
        """)
        assert cpu.get_reg(0) == 12

    def test_signed_vs_unsigned_branches(self):
        cpu = run_program("""
        .text
        main:
            mov eax, 0xFFFFFFFF   ; -1 signed, huge unsigned
            cmp eax, 1
            setl bl               ; signed: -1 < 1
            seta cl               ; unsigned: 0xFFFFFFFF > 1
            ret
        """)
        assert cpu.get_reg8(3) == 1
        assert cpu.get_reg8(1) == 1

    def test_fuel_limit(self):
        with pytest.raises(StepLimitExceeded):
            run_program("""
            .text
            main:
            .forever:
                jmp .forever
            """, fuel=100)

    def test_hlt_stops(self):
        cpu = run_program("""
        .text
        main:
            mov eax, 7
            hlt
        """)
        assert cpu.get_reg(0) == 7


class TestMemory:
    def test_load_store(self):
        cpu = run_program("""
        .text
        main:
            mov ebx, 0x9000000
            mov [ebx], 0x1234
            mov eax, [ebx]
            mov [ebx+4], eax
            mov ecx, [ebx+4]
            ret
        """)
        assert cpu.get_reg(1) == 0x1234

    def test_byte_access(self):
        cpu = run_program("""
        .text
        main:
            mov ebx, 0x9000000
            mov [ebx], 0x11223344
            movzx eax, byte [ebx+1]
            mov ecx, 0xAB
            movb [ebx], cl
            mov edx, [ebx]
            ret
        """)
        assert cpu.get_reg(0) == 0x33
        assert cpu.get_reg(2) == 0x112233AB

    def test_scaled_index(self):
        cpu = run_program("""
        .text
        main:
            mov esi, table
            mov ecx, 2
            mov eax, [esi+ecx*4]
            ret
        .data
        table: .word 10, 20, 30, 40
        """)
        assert cpu.get_reg(0) == 30

    def test_push_pop(self):
        cpu = run_program("""
        .text
        main:
            mov eax, 0xAA
            push eax
            mov eax, 0
            pop ebx
            ret
        """)
        assert cpu.get_reg(3) == 0xAA

    def test_lea_records_no_access(self):
        cpu = run_program("""
        .text
        main:
            mov ebx, 0x9000000
            lea eax, [ebx+8]
            ret
        """)
        data = cpu.trace.data_accesses()
        # Only the run() sentinel push and the final ret pop touch memory.
        assert len(data) == 2
        assert cpu.get_reg(0) == 0x9000008

    def test_word_access_wraps_at_the_top_of_the_address_space(self):
        memory = FlatMemory()
        memory.write(0xFFFFFFFE, 0x44332211, 4)
        assert [memory.read_byte(addr) for addr in (0xFFFFFFFE, 0xFFFFFFFF, 0, 1)] \
            == [0x11, 0x22, 0x33, 0x44]
        assert memory.read(0xFFFFFFFE, 4) == 0x44332211
        assert memory.read(0xFFFFFFFD, 4) == 0x33221100
        assert memory.read(0xFFFFFFFF, 4) == 0x00443322
        memory.write(0xFFFFFFFC, 0xDDCCBBAA, 4)  # the last word that does not wrap
        assert memory.read(0xFFFFFFFC, 4) == 0xDDCCBBAA
        assert memory.read(0, 4) == 0x4433
        memory.write(0xFFFFFFFF, 0x01020304, 4)
        assert [memory.read_byte(addr) for addr in (0xFFFFFFFF, 0, 1, 2)] == [4, 3, 2, 1]

    def test_malloc_model(self):
        memory = FlatMemory(heap_base=0x9000000)
        first = memory.malloc(100)
        second = memory.malloc(100)
        assert first >= 0x9000000
        assert second >= first + 100

    def test_aslr_offset_shifts_heap(self):
        low = FlatMemory(heap_base=0x9000000, aslr_offset=0).malloc(16)
        high = FlatMemory(heap_base=0x9000000, aslr_offset=0x1000).malloc(16)
        assert high - low == 0x1000


class TestTracing:
    def test_fetch_trace_matches_instructions(self):
        cpu = run_program("""
        .text
        main:
            nop
            nop
            ret
        """)
        assert len(cpu.trace.fetches()) == cpu.instructions_executed

    def test_views_at_granularities(self):
        cpu = run_program("""
        .text
        main:
            mov ebx, 0x9000040
            mov eax, [ebx]
            mov eax, [ebx+4]
            mov eax, [ebx+0x40]
            ret
        """)
        data_view = cpu.trace.view("D", offset_bits=6)
        loads = [v for v in data_view if v in (0x9000040 >> 6, 0x9000080 >> 6)]
        assert loads == [0x240001, 0x240001, 0x240002]

    def test_stuttering_view_collapses(self):
        cpu = run_program("""
        .text
        main:
            mov ebx, 0x9000000
            mov eax, [ebx]
            mov eax, [ebx+4]
            mov eax, [ebx+8]
            ret
        """)
        exact = cpu.trace.view("D", offset_bits=6)
        collapsed = cpu.trace.view("D", offset_bits=6, stuttering=True)
        assert len(collapsed) < len(exact)

    def test_extern_hook(self):
        image = parse_asm("""
        .text
        main:
            call helper
            ret
        helper:
            ret
        """).assemble()
        cpu = CPU(image, trace=Trace())
        calls = []
        cpu.hooks[image.symbol("helper")] = lambda c: calls.append(c.eip)
        cpu.run("main")
        assert len(calls) == 1
