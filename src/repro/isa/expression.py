"""Stack-based postfix interpreter for ``interpretableAs`` expressions.

Sec. III-B of the paper: *"The execution of an instruction is managed by the
Expression class, which implements a simple stack-based interpreter using
postfix notation ... The output of an expression may be twofold: the first
possible output is the value that remains on the stack after the
interpretation is executed, a mechanism used by expressions to calculate jump
addresses or conditions.  The second possible output is the assignment to a
variable within the expression.  The binary operator ``=`` in the expression
has a side effect, writing the value into the register."*

Tokens are space separated.  ``\\name`` refers to an instruction argument
(register value or immediate), ``\\pc`` to the program counter of the
executing instruction.  Integer operators work on 32-bit two's-complement
values; operators prefixed with ``u`` are unsigned variants; operators
prefixed with ``f`` operate on binary32 floats.  Exceptions raised by the
semantics (division by zero) are *recorded* on the evaluation context and
only surface when the instruction commits.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Union

from repro.errors import DivisionByZeroError, ExpressionError
from repro.isa import bits
from repro.isa.bits import (
    MASK32,
    to_int32,
    to_uint32,
    float32_round,
)

Number = Union[int, float]


class EvalContext:
    """Binding of argument names to values for one instruction execution.

    Parameters
    ----------
    values:
        Mapping of argument name to its current (source) value.
    pc:
        Byte address of the executing instruction.
    """

    __slots__ = ("values", "pc", "assignments", "exception")

    def __init__(self, values: Optional[Dict[str, Number]] = None, pc: int = 0):
        self.values: Dict[str, Number] = dict(values or {})
        self.pc = pc
        #: name -> value pairs produced by ``=`` operators, in order.
        self.assignments: List[tuple] = []
        #: recorded architectural exception (checked at commit time)
        self.exception = None

    def get(self, name: str) -> Number:
        if name == "pc":
            return self.pc
        try:
            return self.values[name]
        except KeyError:
            raise ExpressionError(f"unbound expression argument '\\{name}'") from None

    def set(self, name: str, value: Number) -> None:
        self.values[name] = value
        self.assignments.append((name, value))


class _Ref:
    """A reference to a context variable, as pushed by ``\\name`` tokens."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"\\{self.name}"


class _ExcCell:
    """Minimal operator context for the fused fast path.

    Operators only ever touch ``ctx.pc`` (exception metadata) and
    ``ctx.exception`` (deferred architectural exceptions); the fused
    generated code allocates this two-slot cell — and only when the
    expression contains an exception-capable operator — instead of a full
    :class:`EvalContext` with its argument-dict copy.
    """

    __slots__ = ("pc", "exception")

    def __init__(self, pc: int):
        self.pc = pc
        self.exception = None


def _fast_get(values: Dict[str, Number], name: str) -> Number:
    """Argument lookup for the fused fast path (same error contract as
    :meth:`EvalContext.get`)."""
    try:
        return values[name]
    except KeyError:
        raise ExpressionError(f"unbound expression argument '\\{name}'") from None


def _div(ctx: EvalContext, a: int, b: int) -> int:
    if b == 0:
        ctx.exception = DivisionByZeroError("integer division by zero", pc=ctx.pc)
        return -1  # RISC-V defined result: all ones
    if a == bits.INT32_MIN and b == -1:
        return bits.INT32_MIN  # overflow case
    return to_int32(int(math.trunc(a / b)))


def _rem(ctx: EvalContext, a: int, b: int) -> int:
    if b == 0:
        ctx.exception = DivisionByZeroError("integer remainder by zero", pc=ctx.pc)
        return to_int32(a)
    if a == bits.INT32_MIN and b == -1:
        return 0
    return to_int32(a - int(math.trunc(a / b)) * b)


def _divu(ctx: EvalContext, a: int, b: int) -> int:
    ua, ub = to_uint32(a), to_uint32(b)
    if ub == 0:
        ctx.exception = DivisionByZeroError("unsigned division by zero", pc=ctx.pc)
        return to_int32(MASK32)
    return to_int32(ua // ub)


def _remu(ctx: EvalContext, a: int, b: int) -> int:
    ua, ub = to_uint32(a), to_uint32(b)
    if ub == 0:
        ctx.exception = DivisionByZeroError("unsigned remainder by zero", pc=ctx.pc)
        return to_int32(ua)
    return to_int32(ua % ub)


# Binary integer operators: (ctx, a, b) -> int  (a below b on the stack)
_INT_BINARY: Dict[str, Callable] = {
    "+": lambda c, a, b: to_int32(a + b),
    "-": lambda c, a, b: to_int32(a - b),
    "*": lambda c, a, b: to_int32(a * b),
    "&": lambda c, a, b: to_int32(a & b),
    "|": lambda c, a, b: to_int32(a | b),
    "^": lambda c, a, b: to_int32(a ^ b),
    "<<": lambda c, a, b: to_int32(to_uint32(a) << (b & 31)),
    ">>": lambda c, a, b: to_int32(to_int32(a) >> (b & 31)),
    ">>u": lambda c, a, b: to_int32(to_uint32(a) >> (b & 31)),
    "==": lambda c, a, b: int(to_int32(a) == to_int32(b)),
    "!=": lambda c, a, b: int(to_int32(a) != to_int32(b)),
    "<": lambda c, a, b: int(to_int32(a) < to_int32(b)),
    "<=": lambda c, a, b: int(to_int32(a) <= to_int32(b)),
    ">": lambda c, a, b: int(to_int32(a) > to_int32(b)),
    ">=": lambda c, a, b: int(to_int32(a) >= to_int32(b)),
    "u<": lambda c, a, b: int(to_uint32(a) < to_uint32(b)),
    "u<=": lambda c, a, b: int(to_uint32(a) <= to_uint32(b)),
    "u>": lambda c, a, b: int(to_uint32(a) > to_uint32(b)),
    "u>=": lambda c, a, b: int(to_uint32(a) >= to_uint32(b)),
    "/": _div,
    "%": _rem,
    "u/": _divu,
    "u%": _remu,
    "mulh": lambda c, a, b: to_int32((to_int32(a) * to_int32(b)) >> 32),
    "mulhu": lambda c, a, b: to_int32((to_uint32(a) * to_uint32(b)) >> 32),
    "mulhsu": lambda c, a, b: to_int32((to_int32(a) * to_uint32(b)) >> 32),
}

#: operators that actually *use* their context (to record a deferred
#: exception); every other operator ignores the first argument, so the
#: fused fast path passes None and skips the context allocation entirely
_CTX_USERS = frozenset((_div, _rem, _divu, _remu))

# Unary integer operators
_INT_UNARY: Dict[str, Callable] = {
    "~": lambda c, a: to_int32(~a),
    "neg": lambda c, a: to_int32(-a),
}


def _fmin(c, a: float, b: float) -> float:
    if math.isnan(a):
        return b
    if math.isnan(b):
        return a
    if a == 0.0 and b == 0.0:  # -0.0 < +0.0 for fmin
        return a if math.copysign(1.0, a) < 0 else b
    return min(a, b)


def _fmax(c, a: float, b: float) -> float:
    if math.isnan(a):
        return b
    if math.isnan(b):
        return a
    if a == 0.0 and b == 0.0:
        return a if math.copysign(1.0, a) > 0 else b
    return max(a, b)


def _fdiv(c, a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return float("nan")
        return math.copysign(float("inf"), a) * math.copysign(1.0, b)
    return float32_round(a / b)


def _fsqrt(c, a: float) -> float:
    if a < 0.0:
        return float("nan")
    return float32_round(math.sqrt(a))


# Binary float operators (operate on binary32-rounded Python floats)
_FLOAT_BINARY: Dict[str, Callable] = {
    "f+": lambda c, a, b: float32_round(a + b),
    "f-": lambda c, a, b: float32_round(a - b),
    "f*": lambda c, a, b: float32_round(a * b),
    "f/": _fdiv,
    "fmin": _fmin,
    "fmax": _fmax,
    "f==": lambda c, a, b: int(a == b),
    "f<": lambda c, a, b: int(a < b),
    "f<=": lambda c, a, b: int(a <= b),
    "fsgnj": lambda c, a, b: bits.copy_sign_bits(a, b),
    "fsgnjn": lambda c, a, b: bits.copy_sign_bits(a, b, flip=True),
    "fsgnjx": lambda c, a, b: bits.copy_sign_bits(a, b, xor=True),
}

_FLOAT_UNARY: Dict[str, Callable] = {
    "fsqrt": _fsqrt,
    "fabs": lambda c, a: abs(a),
    "fneg": lambda c, a: -a,
    "fclass": lambda c, a: bits.fclass(a),
    # conversions
    "f2i": lambda c, a: bits.fcvt_w_s(a),
    "f2u": lambda c, a: to_int32(bits.fcvt_wu_s(a)),
    "i2f": lambda c, a: float32_round(float(to_int32(int(a)))),
    "u2f": lambda c, a: float32_round(float(to_uint32(int(a)))),
    # raw bit moves (fmv.x.w / fmv.w.x)
    "fbits": lambda c, a: to_int32(bits.float_to_bits(a)),
    "bitsf": lambda c, a: bits.bits_to_float(to_uint32(int(a))),
}


# ----------------------------------------------------------------------
# Source-level operator inlining for the fused fast path.
#
# The simple wrap-and-compare operators compile to straight-line
# arithmetic inside the generated function instead of a Python call into
# the lambda tables above (each of which costs a call frame plus one or
# two ``to_int32`` calls).  The templates reproduce the table semantics
# token for token — ``to_int32`` becomes the mask-and-bias pair,
# comparisons produce plain ints — so results are bit-identical.  Maps
# are keyed by the operator *callables*, so the token stream is
# unchanged and any operator not listed keeps the call form (division,
# conversions, sign-injection).

def _i32_wrap(var: str) -> List[str]:
    """In-place two's-complement wrap of local *var* (= ``to_int32``)."""
    return [f"{var} &= 4294967295",
            f"if {var} >= 2147483648:",
            f"    {var} -= 4294967296"]


_ARITH_OPS = {"+": "+", "-": "-", "*": "*", "&": "&", "|": "|", "^": "^"}
_CMP_OPS = {"==": "==", "!=": "!=", "<": "<", "<=": "<=",
            ">": ">", ">=": ">="}
_UCMP_OPS = {"u<": "<", "u<=": "<=", "u>": ">", "u>=": ">="}
_FARITH_OPS = {"f+": "+", "f-": "-", "f*": "*"}
_FCMP_OPS = {"f==": "==", "f<": "<", "f<=": "<="}


def _inline_binary_lines(opname: str, name: str,
                         a: str, b: str) -> List[str]:
    """Lines computing binary *opname* of *a*, *b* into local *name*."""
    sym = _ARITH_OPS.get(opname)
    if sym is not None:
        return [f"{name} = int({a}) {sym} int({b})"] + _i32_wrap(name)
    sym = _CMP_OPS.get(opname)
    if sym is not None:
        nb = f"{name}_r"
        return ([f"{name} = int({a})"] + _i32_wrap(name)
                + [f"{nb} = int({b})"] + _i32_wrap(nb)
                + [f"{name} = 1 if {name} {sym} {nb} else 0"])
    sym = _UCMP_OPS.get(opname)
    if sym is not None:
        return [f"{name} = 1 if int({a}) & 4294967295 {sym} "
                f"int({b}) & 4294967295 else 0"]
    if opname == "<<":
        return ([f"{name} = (int({a}) & 4294967295) << (int({b}) & 31)"]
                + _i32_wrap(name))
    if opname == ">>":
        return ([f"{name} = int({a})"] + _i32_wrap(name)
                + [f"{name} >>= int({b}) & 31"] + _i32_wrap(name))
    if opname == ">>u":
        return ([f"{name} = (int({a}) & 4294967295) >> (int({b}) & 31)"]
                + _i32_wrap(name))
    sym = _FARITH_OPS.get(opname)
    if sym is not None:
        return [f"{name} = _f32r(float({a}) {sym} float({b}))"]
    sym = _FCMP_OPS.get(opname)
    if sym is not None:
        return [f"{name} = 1 if float({a}) {sym} float({b}) else 0"]
    raise AssertionError(opname)  # pragma: no cover - map mismatch


def _inline_unary_lines(opname: str, name: str, a: str) -> List[str]:
    """Lines computing unary *opname* of *a* into local *name*."""
    if opname == "~":
        return [f"{name} = ~int({a})"] + _i32_wrap(name)
    if opname == "neg":
        return [f"{name} = -int({a})"] + _i32_wrap(name)
    if opname == "fneg":
        return [f"{name} = -float({a})"]
    if opname == "fabs":
        return [f"{name} = abs(float({a}))"]
    raise AssertionError(opname)  # pragma: no cover - map mismatch


_INLINE_BINARY_NAMES: Dict[object, str] = {}
for _k in (*_ARITH_OPS, *_CMP_OPS, *_UCMP_OPS, "<<", ">>", ">>u"):
    _INLINE_BINARY_NAMES[_INT_BINARY[_k]] = _k
for _k in (*_FARITH_OPS, *_FCMP_OPS):
    _INLINE_BINARY_NAMES[_FLOAT_BINARY[_k]] = _k
del _k

_INLINE_UNARY_NAMES: Dict[object, str] = {
    _INT_UNARY["~"]: "~",
    _INT_UNARY["neg"]: "neg",
    _FLOAT_UNARY["fneg"]: "fneg",
    _FLOAT_UNARY["fabs"]: "fabs",
}


class Expression:
    """A compiled postfix expression.

    Instances are immutable and cheap to evaluate repeatedly; the simulator
    compiles each instruction definition's expression once and reuses it for
    every dynamic instance.
    """

    __slots__ = ("source", "_tokens", "_fast")

    _cache: Dict[str, "Expression"] = {}

    def __init__(self, source: str):
        self.source = source
        self._tokens = self._compile(source)
        self._fast = self._codegen_fast(source, self._tokens)

    @classmethod
    def compile(cls, source: str) -> "Expression":
        """Memoized constructor (expressions repeat across instructions)."""
        expr = cls._cache.get(source)
        if expr is None:
            expr = cls(source)
            cls._cache[source] = expr
        return expr

    @staticmethod
    def _compile(source: str) -> list:
        tokens = []
        for raw in source.split():
            if raw.startswith("\\"):
                name = raw[1:]
                if not name:
                    raise ExpressionError(f"empty reference in expression {source!r}")
                # _Ref instances are immutable: pre-create one per token so
                # evaluation pushes a shared object instead of allocating
                tokens.append(("ref", _Ref(name)))
            elif raw == "=":
                tokens.append(("assign", None))
            elif raw in _INT_BINARY:
                tokens.append(("ib", _INT_BINARY[raw]))
            elif raw in _INT_UNARY:
                tokens.append(("iu", _INT_UNARY[raw]))
            elif raw in _FLOAT_BINARY:
                tokens.append(("fb", _FLOAT_BINARY[raw]))
            elif raw in _FLOAT_UNARY:
                tokens.append(("fu", _FLOAT_UNARY[raw]))
            else:
                try:
                    tokens.append(("lit", int(raw, 0)))
                except ValueError:
                    try:
                        tokens.append(("lit", float(raw)))
                    except ValueError:
                        raise ExpressionError(
                            f"unknown token {raw!r} in expression {source!r}"
                        ) from None
        return tokens

    @staticmethod
    def _codegen_fast(source: str, tokens: list) -> Optional[Callable]:
        """Compile the postfix program to a straight-line Python function.

        Postfix expressions have a statically known stack shape, so the
        stack machine unrolls into plain assignments, with operator
        callables bound into the generated function's globals.  The
        function has signature ``(values, pc) -> (result, assignments,
        exception)`` and reads *values* without copying it (and never
        writes into it).  The per-evaluation context object the
        interpreter allocates is fused away:

        * reads of ``\\pc`` compile to the ``pc`` parameter;
        * reads of a name the expression previously assigned compile to the
          local temporary holding the assigned value (the lazy
          resolve-at-consumption semantics of the interpreter, preserved
          without mutating the caller's dict);
        * the operator context shrinks to a two-slot :class:`_ExcCell`,
          allocated only when an exception-capable operator (division /
          remainder) is present, else operators receive ``None``;
        * the assignment list is allocated only when ``=`` occurs.

        Returns ``None`` for malformed shapes; those keep falling back to
        the interpreter, which raises the matching :class:`ExpressionError`.
        """
        env: Dict[str, object] = {"_getv": _fast_get, "_Exc": _ExcCell,
                                  "_f32r": float32_round}
        lines: List[str] = []
        stack: List[Tuple[str, str]] = []
        #: name -> local temp holding its most recent assigned value
        assigned: Dict[str, str] = {}
        temp = 0
        needs_exc = any(kind in ("ib", "iu", "fb", "fu")
                        and payload in _CTX_USERS
                        for kind, payload in tokens)
        has_assign = any(kind == "assign" for kind, _ in tokens)

        def resolve(slot: Tuple[str, str]) -> str:
            kind, payload = slot
            if kind != "ref":
                return payload
            if payload == "pc":
                return "_pc"
            if payload in assigned:
                return assigned[payload]
            return f"_getv(_values, {payload!r})"

        for kind, payload in tokens:
            if kind == "ref":
                stack.append(("ref", payload.name))
            elif kind == "lit":
                const = f"_c{len(env)}"
                env[const] = payload
                stack.append(("val", const))
            elif kind == "assign":
                if len(stack) < 2 or stack[-1][0] != "ref":
                    return None
                target = stack.pop()[1]
                value = resolve(stack.pop())
                var = f"_a{temp}"
                temp += 1
                lines.append(f"{var} = {value}")
                lines.append(f"_asg.append(({target!r}, {var}))")
                if target != "pc":   # \pc reads always resolve to the pc
                    assigned[target] = var
            else:
                cast = "int" if kind in ("ib", "iu") else "float"
                name = f"_t{temp}"
                if kind in ("ib", "fb"):
                    if len(stack) < 2:
                        return None
                    b = resolve(stack.pop())
                    a = resolve(stack.pop())
                    opname = _INLINE_BINARY_NAMES.get(payload)
                    if opname is not None:
                        temp += 1
                        lines += _inline_binary_lines(opname, name, a, b)
                        stack.append(("val", name))
                        continue
                    op = f"_op{len(env)}"
                    env[op] = payload
                    ctx_arg = "_exc" if needs_exc else "None"
                    call = f"{op}({ctx_arg}, {cast}({a}), {cast}({b}))"
                else:
                    if not stack:
                        return None
                    a = resolve(stack.pop())
                    opname = _INLINE_UNARY_NAMES.get(payload)
                    if opname is not None:
                        temp += 1
                        lines += _inline_unary_lines(opname, name, a)
                        stack.append(("val", name))
                        continue
                    op = f"_op{len(env)}"
                    env[op] = payload
                    ctx_arg = "_exc" if needs_exc else "None"
                    call = f"{op}({ctx_arg}, {cast}({a}))"
                temp += 1
                lines.append(f"{name} = {call}")
                stack.append(("val", name))

        result = resolve(stack[-1]) if stack else "None"
        asg = "_asg" if has_assign else "()"
        exc = "_exc.exception" if needs_exc else "None"
        lines.append(f"return ({result}, {asg}, {exc})")
        prologue = ""
        if needs_exc:
            prologue += "    _exc = _Exc(_pc)\n"
        if has_assign:
            prologue += "    _asg = []\n"
        body = "".join(f"    {line}\n" for line in lines)
        code = "def _fused(_values, _pc):\n" + prologue + body
        exec(compile(code, f"<fused expression {source!r}>", "exec"), env)
        return env["_fused"]

    def evaluate(self, ctx: EvalContext) -> Optional[Number]:
        """Run the expression on the stack machine (the reference
        semantics, sharing no generated code with :meth:`eval_fast`);
        returns the value left on the stack (if any).

        Assignments performed by ``=`` are recorded in ``ctx.assignments``
        and stored into ``ctx.values``.
        """
        return self._interpret(ctx)

    def eval_fast(self, values: Dict[str, Number], pc: int = 0):
        """Context-free hot-loop entry: ``(result, assignments, exception)``.

        Unlike :meth:`evaluate` this neither copies nor mutates *values* —
        the per-instruction :class:`EvalContext` allocation is fused into
        the generated code (see :meth:`_codegen_fast`).  Malformed shapes
        fall back to the interpreter for its reference error behaviour.
        """
        fn = self._fast
        if fn is not None:
            return fn(values, pc)
        ctx = EvalContext(values, pc=pc)
        result = self._interpret(ctx)
        return result, ctx.assignments, ctx.exception

    def _interpret(self, ctx: EvalContext) -> Optional[Number]:
        """The stack machine: the reference semantics."""
        stack: List[object] = []
        append = stack.append
        pop = stack.pop
        get = ctx.get

        for kind, payload in self._tokens:
            if kind == "ref":
                append(payload)  # shared, immutable _Ref
            elif kind == "lit":
                append(payload)
            elif kind == "assign":
                if len(stack) < 2:
                    raise ExpressionError(f"'=' needs value and target in {self.source!r}")
                target = pop()
                if type(target) is not _Ref:
                    raise ExpressionError(f"'=' target must be a \\reference in {self.source!r}")
                value = pop()
                if type(value) is _Ref:
                    value = get(value.name)
                ctx.set(target.name, value)
            elif kind == "ib":
                if len(stack) < 2:
                    raise ExpressionError(f"operator needs 2 operands in {self.source!r}")
                b = pop()
                if type(b) is _Ref:
                    b = get(b.name)
                a = pop()
                if type(a) is _Ref:
                    a = get(a.name)
                append(payload(ctx, int(a), int(b)))
            elif kind == "iu":
                if not stack:
                    raise ExpressionError(f"operator needs 1 operand in {self.source!r}")
                a = pop()
                if type(a) is _Ref:
                    a = get(a.name)
                append(payload(ctx, int(a)))
            elif kind == "fb":
                if len(stack) < 2:
                    raise ExpressionError(f"operator needs 2 operands in {self.source!r}")
                b = pop()
                if type(b) is _Ref:
                    b = get(b.name)
                a = pop()
                if type(a) is _Ref:
                    a = get(a.name)
                append(payload(ctx, float(a), float(b)))
            else:  # "fu"
                if not stack:
                    raise ExpressionError(f"operator needs 1 operand in {self.source!r}")
                a = pop()
                if type(a) is _Ref:
                    a = get(a.name)
                append(payload(ctx, float(a)))

        if stack:
            top = stack[-1]
            if type(top) is _Ref:
                return get(top.name)
            return top
        return None

    def references(self) -> List[str]:
        """Names of all ``\\`` arguments used (excluding ``pc``)."""
        return [p.name for k, p in self._tokens if k == "ref" and p.name != "pc"]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Expression({self.source!r})"
