"""Unit + property tests for the postfix expression interpreter."""

import math
import struct

import pytest
from hypothesis import given, strategies as st

from repro.errors import DivisionByZeroError, ExpressionError
from repro.isa.bits import to_int32, to_uint32
from repro.isa.expression import EvalContext, Expression
from repro.isa.instruction import ArgType
from repro.isa.isa import default_instruction_set


def ev(source, **values):
    ctx = EvalContext(values)
    return Expression.compile(source).evaluate(ctx), ctx


class TestBasics:
    def test_paper_example_add(self):
        # Listing 1: "\rs1 \rs2 + \rd ="
        result, ctx = ev("\\rs1 \\rs2 + \\rd =", rs1=3, rs2=4, rd=0)
        assert ctx.values["rd"] == 7
        assert ctx.assignments == [("rd", 7)]

    def test_stack_output_without_assignment(self):
        result, _ = ev("\\a \\b +", a=2, b=5)
        assert result == 7

    def test_literals(self):
        result, _ = ev("3 4 *")
        assert result == 12

    def test_hex_literals(self):
        result, _ = ev("0x10 2 *")
        assert result == 32

    def test_pc_reference(self):
        ctx = EvalContext({"imm": 8}, pc=100)
        assert Expression.compile("\\pc \\imm +").evaluate(ctx) == 108

    def test_compile_is_memoized(self):
        assert Expression.compile("\\a \\b +") is Expression.compile("\\a \\b +")

    def test_references(self):
        expr = Expression.compile("\\pc \\imm 12 << + \\rd =")
        assert expr.references() == ["imm", "rd"]


class TestIntOps:
    @pytest.mark.parametrize("op,a,b,expected", [
        ("+", 2, 3, 5),
        ("+", 0x7FFFFFFF, 1, -0x80000000),   # wraps
        ("-", 3, 5, -2),
        ("*", 100000, 100000, to_int32(10_000_000_000)),
        ("&", 0b1100, 0b1010, 0b1000),
        ("|", 0b1100, 0b1010, 0b1110),
        ("^", 0b1100, 0b1010, 0b0110),
        ("<<", 1, 5, 32),
        ("<<", 1, 37, 32),                    # shift masked to 5 bits
        (">>", -8, 1, -4),                    # arithmetic
        (">>u", -8, 1, 0x7FFFFFFC),           # logical
        ("==", 5, 5, 1),
        ("!=", 5, 5, 0),
        ("<", -1, 0, 1),
        ("u<", -1, 0, 0),                     # -1 is UINT_MAX unsigned
        (">=", 7, 7, 1),
        ("u>=", -1, 1, 1),
        ("mulh", 0x40000000, 4, 1),
        ("mulhu", -1, -1, to_int32(0xFFFFFFFE)),
    ])
    def test_binary(self, op, a, b, expected):
        result, _ = ev(f"\\a \\b {op}", a=a, b=b)
        assert result == expected

    def test_division_semantics(self):
        assert ev("\\a \\b /", a=7, b=2)[0] == 3
        assert ev("\\a \\b /", a=-7, b=2)[0] == -3  # trunc toward zero
        assert ev("\\a \\b %", a=-7, b=2)[0] == -1
        assert ev("\\a \\b u/", a=-2, b=3)[0] == to_int32((2**32 - 2) // 3)

    def test_division_overflow_case(self):
        assert ev("\\a \\b /", a=-2**31, b=-1)[0] == -2**31
        assert ev("\\a \\b %", a=-2**31, b=-1)[0] == 0

    def test_div_by_zero_records_exception(self):
        result, ctx = ev("\\a \\b /", a=5, b=0)
        assert result == -1                       # RISC-V defined result
        assert isinstance(ctx.exception, DivisionByZeroError)

    def test_rem_by_zero(self):
        result, ctx = ev("\\a \\b %", a=5, b=0)
        assert result == 5
        assert ctx.exception is not None

    def test_unary(self):
        assert ev("\\a ~", a=0)[0] == -1
        assert ev("\\a neg", a=5)[0] == -5


class TestFloatOps:
    def test_arith(self):
        assert ev("\\a \\b f+", a=1.5, b=2.25)[0] == 3.75
        assert ev("\\a \\b f*", a=2.0, b=3.0)[0] == 6.0
        assert ev("\\a \\b f/", a=1.0, b=4.0)[0] == 0.25

    def test_single_precision_rounding(self):
        result, _ = ev("\\a \\b f+", a=1.0, b=1e-10)
        assert result == 1.0  # swallowed at binary32 precision

    def test_fdiv_by_zero_is_inf(self):
        assert ev("\\a \\b f/", a=1.0, b=0.0)[0] == float("inf")
        assert ev("\\a \\b f/", a=-1.0, b=0.0)[0] == float("-inf")
        assert math.isnan(ev("\\a \\b f/", a=0.0, b=0.0)[0])

    def test_fsqrt(self):
        assert ev("\\a fsqrt", a=9.0)[0] == 3.0
        assert math.isnan(ev("\\a fsqrt", a=-1.0)[0])

    def test_fmin_fmax_nan_handling(self):
        assert ev("\\a \\b fmin", a=float("nan"), b=2.0)[0] == 2.0
        assert ev("\\a \\b fmax", a=1.0, b=float("nan"))[0] == 1.0

    def test_comparisons(self):
        assert ev("\\a \\b f<", a=1.0, b=2.0)[0] == 1
        assert ev("\\a \\b f==", a=2.0, b=2.0)[0] == 1
        assert ev("\\a \\b f<=", a=3.0, b=2.0)[0] == 0

    def test_conversions(self):
        assert ev("\\a f2i", a=-2.9)[0] == -2
        assert ev("\\a i2f", a=7)[0] == 7.0
        # binary32 cannot represent 2^32-1 exactly; it rounds to 2^32
        assert ev("\\a u2f", a=-1)[0] == 4294967296.0

    def test_bit_moves(self):
        bits_val, _ = ev("\\a fbits", a=1.0)
        assert to_uint32(bits_val) == 0x3F800000
        assert ev("\\a bitsf", a=0x3F800000)[0] == 1.0


class TestErrors:
    def test_unknown_token(self):
        with pytest.raises(ExpressionError):
            Expression("\\a \\b bogus")

    def test_unbound_reference(self):
        with pytest.raises(ExpressionError):
            ev("\\missing 1 +")

    def test_assign_needs_reference_target(self):
        with pytest.raises(ExpressionError):
            ev("1 2 =")

    def test_assign_needs_two_items(self):
        with pytest.raises(ExpressionError):
            Expression.compile("\\rd =").evaluate(EvalContext({"rd": 0}))

    @pytest.mark.parametrize("source", [
        "+",        # int binary, empty stack
        "1 +",      # int binary, one operand
        "~",        # int unary, empty stack
        "f+",       # float binary, empty stack
        "1.0 f+",   # float binary, one operand
        "fsqrt",    # float unary, empty stack
    ])
    def test_underfull_stack_raises_expression_error(self, source):
        """Malformed postfix must fail with ExpressionError, not IndexError."""
        with pytest.raises(ExpressionError):
            Expression.compile(source).evaluate(EvalContext())


class TestProperties:
    @given(st.integers(-2**31, 2**31 - 1), st.integers(-2**31, 2**31 - 1))
    def test_add_matches_python_semantics(self, a, b):
        assert ev("\\a \\b +", a=a, b=b)[0] == to_int32(a + b)

    @given(st.integers(-2**31, 2**31 - 1), st.integers(-2**31, 2**31 - 1))
    def test_comparisons_consistent(self, a, b):
        lt = ev("\\a \\b <", a=a, b=b)[0]
        ge = ev("\\a \\b >=", a=a, b=b)[0]
        assert lt != ge  # exactly one holds

    @given(st.integers(-2**31, 2**31 - 1),
           st.integers(-2**31, 2**31 - 1).filter(lambda v: v != 0))
    def test_div_rem_invariant(self, a, b):
        q = ev("\\a \\b /", a=a, b=b)[0]
        r = ev("\\a \\b %", a=a, b=b)[0]
        assert to_int32(q * b + r) == to_int32(a)

    @given(st.integers(-2**31, 2**31 - 1), st.integers(0, 31))
    def test_shift_pair(self, a, s):
        left = ev("\\a \\s <<", a=a, s=s)[0]
        assert left == to_int32(to_uint32(a) << s)


def _isa_expressions():
    """``(instruction, source, float operand names)`` of every
    ``interpretableAs`` and ``target`` expression of the default
    instruction set, one entry per distinct source."""
    seen = {}
    for definition in default_instruction_set().all():
        floats = frozenset(arg.name for arg in definition.arguments
                           if arg.type is ArgType.FLOAT)
        for source in (definition.interpretable_as, definition.target):
            if source and source not in seen:
                seen[source] = (definition.name, source, floats)
    return sorted(seen.values())


def _same(a, b) -> bool:
    """Equal values of the same type: floats bit for bit, any NaN equal
    to any NaN."""
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) \
            or struct.pack("<d", a) == struct.pack("<d", b)
    return type(a) is type(b) and a == b


def _outcome(run) -> tuple:
    """``(result, assignments, exception)`` of *run*, or what it raised,
    with exceptions reduced to comparable ``(type, message, pc)``."""
    def error(exc):
        return exc if exc is None \
            else (type(exc), str(exc), getattr(exc, "pc", None))
    try:
        result, assignments, exception = run()
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        return ("raised", error(exc))
    return result, list(assignments), error(exception)


class TestFusedMatchesInterpreter:
    """``eval_fast`` (the generated code the pipeline runs) against the
    stack machine ``evaluate`` runs, on every expression of the ISA."""

    @pytest.mark.parametrize("case", _isa_expressions(),
                             ids=lambda case: case[0])
    @given(data=st.data())
    def test_eval_fast_equals_interpret(self, case, data):
        _name, source, floats = case
        expr = Expression.compile(source)
        values = {name: data.draw(st.floats(width=32) if name in floats
                                  else st.integers(-2**31, 2**31 - 1),
                                  label=name)
                  for name in expr.references()}
        pc = data.draw(st.integers(0, 2**32 - 4), label="pc")

        def interpret():
            ctx = EvalContext(values, pc=pc)
            return expr._interpret(ctx), ctx.assignments, ctx.exception

        fast = _outcome(lambda: expr.eval_fast(values, pc))
        slow = _outcome(interpret)
        assert len(fast) == len(slow)
        if fast[0] == "raised" or slow[0] == "raised":
            assert fast == slow
            return
        assert _same(fast[0], slow[0])
        assert len(fast[1]) == len(slow[1])
        for (name, value), (want_name, want) in zip(fast[1], slow[1]):
            assert name == want_name and _same(value, want)
        assert fast[2] == slow[2]
