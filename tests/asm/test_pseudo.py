"""Pseudo-instruction expansion tests."""

import pytest

from repro.asm.parser import assemble
from repro.asm.pseudo import hi_lo
from repro.errors import AsmSyntaxError
from tests.conftest import run_asm


class TestHiLo:
    def test_simple(self):
        hi, lo = hi_lo(0x12345678)
        assert ((hi << 12) + lo) & 0xFFFFFFFF == 0x12345678

    def test_carry_case(self):
        # low half >= 0x800 forces a +1 carry into the high half
        hi, lo = hi_lo(0x12345FFF)
        assert lo == 0xFFF - 0x1000
        assert ((hi << 12) + lo) & 0xFFFFFFFF == 0x12345FFF

    @pytest.mark.parametrize("value", [0, 1, -1, 0x800, 0x7FF, 0xFFFFF800,
                                       0x80000000, 0xFFFFFFFF, 0xDEADBEEF])
    def test_reconstruction(self, value):
        hi, lo = hi_lo(value)
        assert ((hi << 12) + lo) & 0xFFFFFFFF == value & 0xFFFFFFFF
        assert -2048 <= lo <= 2047
        assert 0 <= hi <= 0xFFFFF


class TestExpansionShapes:
    """Each pseudo assembles to its base instructions: source operands
    reordered, constants added (checked on the assembled program)."""

    @staticmethod
    def rendered(source):
        return [ins.render() for ins in assemble(source).instructions]

    def test_nop(self):
        assert self.rendered("nop") == ["addi x0, x0, 0"]

    def test_li_small(self):
        assert self.rendered("li a0, 42") == ["addi x10, x0, 42"]

    def test_li_negative_small(self):
        assert self.rendered("li a0, -2048") == ["addi x10, x0, -2048"]

    def test_li_large_uses_lui_addi(self):
        assert self.rendered("li a0, 0x12345678") == \
            ["lui x10, 74565", "addi x10, x10, 1656"]   # 0x12345, 0x678

    def test_li_label_deferred_to_pass2(self):
        hi, lo = hi_lo(0x12345FFF)
        assert self.rendered("li a0, some_label\n"
                             ".equ some_label, 0x12345FFF") == \
            [f"lui x10, {hi}", f"addi x10, x10, {lo}"]

    def test_la(self):
        program = assemble("la a0, arr\narr: .word 1")
        hi, lo = hi_lo(program.labels["arr"])
        assert [ins.render() for ins in program.instructions] == \
            [f"lui x10, {hi}", f"addi x10, x10, {lo}"]

    def test_branch_swaps(self):
        assert self.rendered("L: bgt a0, a1, L\nbleu a0, a1, L") == \
            ["blt x11, x10, 0", "bgeu x11, x10, -4"]

    def test_ret(self):
        assert self.rendered("ret") == ["jalr x0, x1, 0"]

    def test_real_instructions_pass_through(self):
        assert self.rendered("add x1, x2, x3") == ["add x1, x2, x3"]

    def test_wrong_operand_count_raises(self):
        with pytest.raises(AsmSyntaxError, match="'mv' expects 2"):
            assemble("mv a0")
        with pytest.raises(AsmSyntaxError, match="'ret' expects 0"):
            assemble("ret a0")


class TestExpansionSemantics:
    """End-to-end checks that expansions do what the pseudo means."""

    def run_expect(self, body, reg, expected):
        sim = run_asm(body + "\n    ebreak")
        assert sim.register_value(reg) == expected

    def test_li_values(self):
        for value in (0, 1, -1, 2047, -2048, 2048, 0x12345678, -2**31,
                      2**31 - 1):
            self.run_expect(f"    li a0, {value}", "a0",
                            value if value < 2**31 else value - 2**32)

    def test_mv(self):
        self.run_expect("    li a0, 7\n    mv a1, a0", "a1", 7)

    def test_not(self):
        self.run_expect("    li a0, 5\n    not a1, a0", "a1", ~5)

    def test_neg(self):
        self.run_expect("    li a0, 5\n    neg a1, a0", "a1", -5)

    def test_seqz_snez(self):
        self.run_expect("    li a0, 0\n    seqz a1, a0", "a1", 1)
        self.run_expect("    li a0, 3\n    snez a1, a0", "a1", 1)

    def test_sltz_sgtz(self):
        self.run_expect("    li a0, -3\n    sltz a1, a0", "a1", 1)
        self.run_expect("    li a0, 3\n    sgtz a1, a0", "a1", 1)

    @pytest.mark.parametrize("pseudo,value,taken", [
        ("beqz", 0, True), ("beqz", 1, False),
        ("bnez", 1, True), ("bnez", 0, False),
        ("blez", 0, True), ("blez", 1, False),
        ("bgez", 0, True), ("bgez", -1, False),
        ("bltz", -1, True), ("bltz", 0, False),
        ("bgtz", 1, True), ("bgtz", 0, False),
    ])
    def test_zero_branches(self, pseudo, value, taken):
        sim = run_asm(f"""
    li a0, {value}
    {pseudo} a0, yes
    li a1, 100
    ebreak
yes:
    li a1, 200
    ebreak
""")
        assert sim.register_value("a1") == (200 if taken else 100)

    def test_j_and_call_and_ret(self):
        sim = run_asm("""
main:
    li  a0, 1
    call addfive
    j   done
    li  a0, 99
done:
    ebreak
addfive:
    addi a0, a0, 5
    ret
""", entry="main")
        assert sim.register_value("a0") == 6

    def test_fp_pseudos(self):
        sim = run_asm("""
    .data
v: .float -3.5
    .text
    la t0, v
    flw fa0, 0(t0)
    fmv.s  fa1, fa0
    fabs.s fa2, fa0
    fneg.s fa3, fa0
    ebreak
""")
        assert sim.register_value("fa1") == -3.5
        assert sim.register_value("fa2") == 3.5
        assert sim.register_value("fa3") == 3.5
