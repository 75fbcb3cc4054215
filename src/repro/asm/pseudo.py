"""Pseudo-instruction expansion.

The simulator "fully supports the RV32I instruction set with the M and F
extensions, including pseudo-instructions" (Sec. III-B).  Expansion happens
during pass 1 so instruction addresses are final before label resolution;
every expansion therefore has a size that does not depend on values known
only in pass 2 (``li`` with a non-literal operand always takes the two
instruction ``lui``+``addi`` form).

Expansion works on the operand tokens pass 1 lexed: it reorders them and
adds constant tokens (``x0``, ``0``, ``-1``, the ``%hi(``...``)`` wrapper),
each positioned at the mnemonic or operand it stands for, so errors point
into the source.  :data:`PSEUDOS` is the pseudo-instruction set; ``li``,
``la`` and ``lla`` are the only value-dependent rules.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

from repro.asm.lexer import Token, TokenKind
from repro.errors import AsmSyntaxError

Group = List[Token]
#: (mnemonic, operand token groups) pairs
Expansion = List[Tuple[str, List[Group]]]

#: pseudo -> (base mnemonic, operand template).  An ``int`` in the template
#: is the index of a source operand, a ``str`` a constant operand.  A pseudo
#: named like its base (``jal L``, ``jalr rs``) is the short form of a real
#: instruction: it applies only when the operand count matches.
PSEUDOS: Dict[str, Tuple[str, Tuple[Union[int, str], ...]]] = {
    "nop": ("addi", ("x0", "x0", "0")),
    "mv": ("addi", (0, 1, "0")),
    "not": ("xori", (0, 1, "-1")),
    "neg": ("sub", (0, "x0", 1)),
    "seqz": ("sltiu", (0, 1, "1")),
    "snez": ("sltu", (0, "x0", 1)),
    "sltz": ("slt", (0, 1, "x0")),
    "sgtz": ("slt", (0, "x0", 1)),
    "beqz": ("beq", (0, "x0", 1)),
    "bnez": ("bne", (0, "x0", 1)),
    "blez": ("bge", ("x0", 0, 1)),
    "bgez": ("bge", (0, "x0", 1)),
    "bltz": ("blt", (0, "x0", 1)),
    "bgtz": ("blt", ("x0", 0, 1)),
    "bgt": ("blt", (1, 0, 2)),
    "ble": ("bge", (1, 0, 2)),
    "bgtu": ("bltu", (1, 0, 2)),
    "bleu": ("bgeu", (1, 0, 2)),
    "j": ("jal", ("x0", 0)),
    "jal": ("jal", ("x1", 0)),
    "jr": ("jalr", ("x0", 0, "0")),
    "jalr": ("jalr", ("x1", 0, "0")),
    "ret": ("jalr", ("x0", "x1", "0")),
    # near call: all simulator code fits in a jal's reach
    "call": ("jal", ("x1", 0)),
    "tail": ("jal", ("x0", 0)),
    "fmv.s": ("fsgnj.s", (0, 1, 1)),
    "fabs.s": ("fsgnjx.s", (0, 1, 1)),
    "fneg.s": ("fsgnjn.s", (0, 1, 1)),
}

#: the two-instruction ``lui``+``addi`` pseudos (load a constant / address)
_LOAD_PSEUDOS = ("li", "la", "lla")

#: Mnemonics recognised as pseudo-instructions (for syntax checks / docs).
PSEUDO_MNEMONICS = frozenset(
    [name for name, (base, _) in PSEUDOS.items() if base != name]
    + list(_LOAD_PSEUDOS))


def hi_lo(value: int) -> Tuple[int, int]:
    """Split a 32-bit constant into ``lui``/``addi`` halves.

    ``lo`` is sign-extended by ``addi``, so ``hi`` must absorb the carry:
    ``value == (hi << 12) + sign_extend(lo, 12)`` (mod 2^32).
    """
    value &= 0xFFFFFFFF
    lo = value & 0xFFF
    if lo >= 0x800:
        lo -= 0x1000
    hi = ((value - lo) >> 12) & 0xFFFFF
    return hi, lo


def _constant(text: str, at: Token) -> Group:
    """A one-token operand (register or integer) positioned at *at*."""
    if text[0].isalpha():
        return [Token(TokenKind.SYMBOL, text, at.line, at.column, text)]
    return [Token(TokenKind.INTEGER, text, at.line, at.column, int(text))]


def _percent(func: str, group: Group) -> Group:
    """``%hi(group)`` / ``%lo(group)``: the wrapper sits at the operand's
    start, its closing parenthesis just past the operand's end."""
    first, last = group[0], group[-1]
    return [Token(TokenKind.PERCENT_FUNC, "%" + func, first.line,
                  first.column, func),
            Token(TokenKind.LPAREN, "(", first.line, first.column),
            *group,
            Token(TokenKind.RPAREN, ")", last.line,
                  last.column + len(last.text))]


def _integer_literal(group: Group):
    """The value of an operand that is one integer token (not a character
    literal) with at most an adjacent sign, else ``None``."""
    sign = 1
    if len(group) == 2 and group[0].kind is TokenKind.OPERATOR \
            and group[0].text in "+-" \
            and group[1].column == group[0].column + 1:
        sign = -1 if group[0].text == "-" else 1
        group = group[1:]
    if len(group) == 1 and group[0].kind is TokenKind.INTEGER \
            and group[0].text[0] != "'":
        return sign * group[0].value
    return None


def expand_pseudo(head: Token, operands: List[Group]) -> Expansion:
    """Expand the instruction *head* (its mnemonic token) with *operands*
    (comma-separated token groups) into base instructions; the identity
    for real ones."""
    mnemonic = head.value
    n = len(operands)

    def need(count: int) -> None:
        if n != count:
            raise AsmSyntaxError(
                f"'{mnemonic}' expects {count} operand(s), got {n}",
                head.line, head.column)

    if mnemonic in _LOAD_PSEUDOS:
        need(2)
        rd, source = operands
        value = _integer_literal(source) if mnemonic == "li" else None
        if value is None:  # an address: resolved via %hi/%lo in pass 2
            return [("lui", [rd, _percent("hi", source)]),
                    ("addi", [rd, rd, _percent("lo", source)])]
        if -2048 <= value <= 2047:
            return [("addi", [rd, _constant("x0", head),
                              _constant(str(value), source[0])])]
        # a fixed 2-instruction size, even when the low half is zero
        hi, lo = hi_lo(value)
        return [("lui", [rd, _constant(str(hi), source[0])]),
                ("addi", [rd, rd, _constant(str(lo), source[0])])]

    rule = PSEUDOS.get(mnemonic)
    if rule is None:
        return [(mnemonic, operands)]
    base, template = rule
    count = len({slot for slot in template if isinstance(slot, int)})
    if n != count and base == mnemonic:
        return [(mnemonic, operands)]
    need(count)
    return [(base, [operands[slot] if isinstance(slot, int)
                    else _constant(slot, head) for slot in template])]
