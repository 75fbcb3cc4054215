"""Two-pass assembler tests: directives, labels, layout, expressions, errors."""

import tracemalloc

import pytest

from repro.asm.parser import Assembler, assemble
from repro.errors import AsmSyntaxError
from repro.memory.layout import MemoryLocation
from repro.memory.main_memory import MAX_CAPACITY
from tests.conftest import run_asm


class TestBasicParsing:
    def test_simple_program(self):
        program = assemble("add x1, x2, x3\nsub x4, x5, x6")
        assert len(program.instructions) == 2
        assert program.instructions[0].mnemonic == "add"
        assert program.instructions[0].operands == \
            {"rd": "x1", "rs1": "x2", "rs2": "x3"}
        assert program.instructions[1].pc == 4

    def test_register_aliases_canonicalized(self):
        program = assemble("add a0, sp, ra")
        assert program.instructions[0].operands == \
            {"rd": "x10", "rs1": "x2", "rs2": "x1"}

    def test_memory_operand_form(self):
        program = assemble("lw a0, 8(sp)")
        assert program.instructions[0].operands == \
            {"rd": "x10", "imm": 8, "rs1": "x2"}

    def test_bare_paren_memory_operand(self):
        program = assemble("lw a0, (sp)")
        assert program.instructions[0].operands["imm"] == 0

    def test_store_operand_order(self):
        program = assemble("sw a0, 12(sp)")
        assert program.instructions[0].operands == \
            {"rs2": "x10", "imm": 12, "rs1": "x2"}

    def test_label_resolution_forward_and_back(self):
        program = assemble("""
start:
    beq x1, x2, end
    jal x0, start
end:
    nop
""")
        beq, jal, _ = program.instructions
        assert beq.operands["imm"] == 8        # end(8) - pc(0)
        assert jal.operands["imm"] == -4       # start(0) - pc(4)

    def test_multiple_labels_same_address(self):
        program = assemble("a:\nb:\n    nop")
        assert program.labels["a"] == program.labels["b"] == 0

    def test_entry_point_label(self):
        program = assemble("one:\n    nop\ntwo:\n    nop", entry="two")
        assert program.entry_pc == 4

    def test_entry_point_address(self):
        program = assemble("nop\nnop\nnop", entry=8)
        assert program.entry_pc == 8

    def test_unknown_entry_raises(self):
        with pytest.raises(AsmSyntaxError):
            assemble("nop", entry="nowhere")

    def test_misaligned_entry_raises(self):
        with pytest.raises(AsmSyntaxError):
            assemble("nop\nnop", entry=2)


class TestDirectives:
    def test_word_data(self):
        program = assemble("""
    .data
vals: .word 1, 2, 3
    .text
    nop
""")
        base = program.labels["vals"]
        off = base - program.data_base
        assert program.data[off:off + 12] == \
            b"\x01\x00\x00\x00\x02\x00\x00\x00\x03\x00\x00\x00"

    def test_byte_and_hword(self):
        program = assemble("b: .byte 1, -1\nh: .hword 0x1234")
        off = program.labels["b"] - program.data_base
        assert program.data[off:off + 2] == b"\x01\xff"
        off = program.labels["h"] - program.data_base
        assert program.data[off:off + 2] == b"\x34\x12"

    def test_align_paper_example(self):
        """Listing 2: .align 4 gives 16-byte alignment."""
        program = assemble("""
x:
    .word 5
    .align 4
arr:
    .zero 64
""")
        assert program.labels["arr"] % 16 == 0
        assert program.labels["arr"] - program.labels["x"] == 16

    def test_asciiz_null_terminated(self):
        program = assemble('hello:\n    .asciiz "Hello World"')
        off = program.labels["hello"] - program.data_base
        assert program.data[off:off + 12] == b"Hello World\x00"

    def test_ascii_not_terminated(self):
        program = assemble('s: .ascii "ab"\ne: .byte 7')
        assert program.labels["e"] - program.labels["s"] == 2

    def test_string_same_as_asciiz(self):
        p1 = assemble('s: .string "xy"')
        p2 = assemble('s: .asciiz "xy"')
        assert p1.data == p2.data

    def test_skip_and_zero(self):
        program = assemble("a: .skip 10\nb: .zero 6\nc: .byte 1")
        assert program.labels["b"] - program.labels["a"] == 10
        assert program.labels["c"] - program.labels["b"] == 6

    def test_float_directive(self):
        import struct
        program = assemble("f: .float 1.5")
        off = program.labels["f"] - program.data_base
        assert struct.unpack("<f", bytes(program.data[off:off + 4]))[0] == 1.5

    def test_equ(self):
        program = assemble("""
    .equ SIZE, 16
    li a0, SIZE
""")
        # li expands to lui+addi when the operand is symbolic
        assert program.labels["SIZE"] == 16

    def test_word_with_label_reference(self):
        """Data words referencing code labels (vtables, Sec. IV dispatch)."""
        program = assemble("""
    .data
table: .word func, func+4
    .text
func:
    nop
    nop
""")
        off = program.labels["table"] - program.data_base
        first = int.from_bytes(program.data[off:off + 4], "little")
        second = int.from_bytes(program.data[off + 4:off + 8], "little")
        assert first == program.labels["func"] == 0
        assert second == 4

    def test_administrative_directives_ignored(self):
        program = assemble("""
    .globl main
    .type main, @function
    .size main, 8
main:
    nop
""")
        assert len(program.instructions) == 1

    def test_unknown_directive_raises(self):
        with pytest.raises(AsmSyntaxError):
            assemble(".bogus 1")

    def test_duplicate_label_raises(self):
        with pytest.raises(AsmSyntaxError):
            assemble("a:\n    nop\na:\n    nop")


class TestOperandExpressions:
    def test_label_arithmetic_paper_example(self):
        """Sec. III-C: 'lla x4, arr+64'."""
        sim = run_asm("""
    .data
    .align 4
arr: .zero 128
    .text
    lla x4, arr+64
    ebreak
""")
        assert sim.register_value("x4") == \
            sim.symbol_address("arr") + 64

    def test_expression_with_multiplication(self):
        program = assemble("""
    .equ N, 8
    addi a0, x0, N*4+2
""")
        # the addi instruction carries the evaluated immediate
        addi = program.instructions[-1]
        assert addi.operands["imm"] == 34

    def test_hi_lo_in_operand(self):
        sim = run_asm("""
    .data
    .align 4
arr: .word 42
    .text
    lui  a0, %hi(arr)
    lw   a1, %lo(arr)(a0)
    ebreak
""")
        assert sim.register_value("a1") == 42

    def test_undefined_label_raises(self):
        with pytest.raises(AsmSyntaxError) as info:
            assemble("lw a0, nowhere")
        assert "nowhere" in str(info.value)


class TestMemoryLayout:
    def test_stack_comes_first(self):
        program = assemble("d: .word 1", stack_size=512)
        assert program.stack_pointer == 512
        assert program.labels["d"] >= 512

    def test_memory_locations_before_program_data(self):
        loc = MemoryLocation(name="user_arr", dtype="word", alignment=8,
                             values=[1, 2, 3])
        program = assemble("d: .word 9", memory_locations=[loc],
                           stack_size=256)
        assert program.labels["user_arr"] >= 256
        assert program.labels["user_arr"] % 8 == 0
        assert program.labels["d"] >= program.labels["user_arr"] + 12

    def test_memory_location_symbols_recorded(self):
        loc = MemoryLocation(name="blob", dtype="byte", alignment=1,
                             repeat_value=0, count=5)
        program = assemble("nop", memory_locations=[loc])
        sym = program.find_symbol("blob")
        assert sym is not None and sym.size == 5

    def test_initial_memory_image(self):
        program = assemble("d: .word 0x11223344")
        image = program.initial_memory_image(4096)
        addr = program.labels["d"]
        assert image[addr:addr + 4] == b"\x44\x33\x22\x11"

    def test_image_overflow_raises(self):
        program = assemble("d: .zero 600")
        with pytest.raises(ValueError):
            program.initial_memory_image(512)


class TestErrors:
    def test_unknown_instruction_has_position(self):
        with pytest.raises(AsmSyntaxError) as info:
            assemble("nop\n    frobnicate x1, x2")
        assert info.value.line == 2

    def test_wrong_operand_count(self):
        with pytest.raises(AsmSyntaxError):
            assemble("add x1, x2")

    def test_fp_register_where_int_expected(self):
        with pytest.raises(AsmSyntaxError):
            assemble("add x1, f2, x3")

    def test_int_register_where_fp_expected(self):
        with pytest.raises(AsmSyntaxError):
            assemble("fadd.s f1, x2, f3")

    def test_imm12_range_checked(self):
        with pytest.raises(AsmSyntaxError):
            assemble("addi x1, x0, 5000")

    def test_shift_range_checked(self):
        with pytest.raises(AsmSyntaxError):
            assemble("slli x1, x1, 32")

    def test_stray_comma(self):
        with pytest.raises(AsmSyntaxError):
            assemble("add x1, , x3")

    def test_error_payload_for_editor(self):
        """Fig. 7: errors carry line/column for highlighting."""
        try:
            assemble("nop\nbad_instr x0")
        except AsmSyntaxError as exc:
            payload = exc.to_json()
            assert payload["line"] == 2
            assert "bad_instr" in payload["message"]
        else:
            pytest.fail("expected AsmSyntaxError")


class TestSourcePositions:
    """Errors carry the source's line and column, also in operands that a
    pseudo-instruction moved or wrapped and after a block comment."""

    @pytest.mark.parametrize("source,column", [
        ("    add x1, x2, 5", 17),
        ("    lw x1, 4(q9)", 13),
        ("    li x5, bogus+", 12),
        ("/* c */ addi a0, x0, q", 22),
        ("    bgt a0, q9, out\nout: nop", 13),   # swapped by the expansion
        ("    la a0, nowhere+4", 12),              # inside %hi(...)
        ("    add x1,, x3", 12),                   # the stray comma
    ])
    def test_error_column(self, source, column):
        with pytest.raises(AsmSyntaxError) as info:
            assemble(source)
        assert (info.value.line, info.value.column) == (1, column)


class TestDataSegmentBound:
    """No data directive grows the data segment past MAX_CAPACITY; the
    refusal comes before the bytes are allocated."""

    @pytest.mark.parametrize("source", [
        ".byte 1\n.skip 4000000000", ".byte 1\n.zero 4000000000",
        ".byte 1\n.space 4000000000", ".byte 1\n.align 32",
        ".byte 1\n.p2align 2048", ".byte 1\n.balign 4000000000",
    ], ids=lambda source: source.split()[2])
    def test_refused_before_allocating(self, source):
        tracemalloc.start()
        try:
            with pytest.raises(AsmSyntaxError, match="data segment") as info:
                assemble(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.line == 2
        assert peak < 1 << 20

    def test_up_to_the_bound_is_allowed(self):
        program = assemble(f".byte 1\n.skip {MAX_CAPACITY - 1}")
        assert len(program.data) >= MAX_CAPACITY
        with pytest.raises(AsmSyntaxError):
            assemble(f".byte 1\n.skip {MAX_CAPACITY}")

    def test_alignment_of_an_empty_segment_is_free(self):
        assert len(assemble(".p2align 2048\n.align 64").data) == 0

    def test_negative_alignment_raises(self):
        with pytest.raises(AsmSyntaxError, match="negative alignment"):
            assemble(".align -1")


class TestRobustOperands:
    """Values no encoding can hold are syntax errors, not crashes."""

    @pytest.mark.parametrize("source", [
        ".float 1.0e300", ".float " + "9" * 400, ".word 1.0e300*1.0e300",
        "addi a0, x0, 1.0e300*1.0e300", '.ascii "\u20ac"'])
    def test_out_of_range_value(self, source):
        with pytest.raises(AsmSyntaxError) as info:
            assemble(source)
        assert info.value.line == 1

    def test_float_infinity_still_assembles(self):
        program = assemble(".float 1.0e400")
        assert bytes(program.data[-4:]) == b"\x00\x00\x80\x7f"


class TestLexOnceChanges:
    """The two deliberate differences from re-lexing operand strings."""

    @pytest.mark.parametrize("operand", ["1_000", "0o17", "0x_1F"])
    def test_li_operand_only_python_int_accepted(self, operand):
        # once read by int(); as tokens it is a number followed by a symbol
        with pytest.raises(AsmSyntaxError):
            assemble(f"li a0, {operand}")

    def test_inline_comment_keeps_its_width_in_source_text(self):
        program = assemble("addi a0, /* c */ x0, 1")
        assert program.instructions[0].source_text == \
            "addi a0,         x0, 1"


class TestStaticMix:
    def test_counts_by_type(self):
        program = assemble("""
    add x1, x2, x3
    lw  a0, 0(sp)
    beq x1, x2, out
out:
    fadd.s f1, f2, f3
""")
        mix = program.static_mix()
        assert mix["kIntArithmetic"] == 1
        assert mix["kLoadstore"] == 1
        assert mix["kJumpbranch"] == 1
        assert mix["kFloatArithmetic"] == 1
