"""Generated-input properties of the assembler.

A hypothesis strategy writes assembly programs line by line: base
instructions of every operand shape in the ISA, every pseudo-instruction
and data directive, register / immediate / label / expression /
``%hi``/``%lo`` / ``offset(base)`` operands, character and string
literals, labels, and ``#`` and inline ``/* */`` comments.  One line of
each program is the line under test, and it may be malformed: leading-zero
or huge integers, stray commas or parentheses, wrong register classes,
undefined labels, oversized data.

* ``assemble()`` returns a ``Program`` or raises ``AsmSyntaxError`` (never
  another exception), the error is reported at the line under test, and a
  well-formed program assembles.
* Replacing one operand of a well-formed line with a known-bad token makes
  the error point at that token's line and column in the source.

Long run: ``pytest tests/asm/test_asm_properties.py --hypothesis-profile=ci``.
"""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.asm.parser import assemble
from repro.asm.pseudo import PSEUDOS
from repro.errors import AsmSyntaxError
from repro.isa.instruction import ArgType
from repro.isa.isa import default_instruction_set
from repro.isa.registers import FP_REG_ALIASES, INT_REG_ALIASES

HEADER = ["    .equ K, 7", "c0: nop"]
TRAILER = ["c1: ebreak", "    .data", "d0: .word 1, 2, c0", '    .asciiz "end"']

INT_REGS = sorted(INT_REG_ALIASES) + [f"x{i}" for i in range(32)]
FP_REGS = sorted(FP_REG_ALIASES) + [f"f{i}" for i in range(32)]


def _slot(definition, arg) -> str:
    """The operand kind of one instruction argument."""
    if arg.type is ArgType.INT:
        return "r"
    if arg.type is ArgType.FLOAT:
        return "f"
    if arg.type is ArgType.LABEL:
        return "l"
    if definition.name in ("slli", "srli", "srai"):
        return "shamt"
    return "u20" if definition.name in ("lui", "auipc") else "i"


def _shapes():
    """(mnemonic, operand kinds) of every base instruction and pseudo."""
    iset = default_instruction_set()
    shapes = []
    for d in iset.all():
        if d.mem_operand:
            shapes.append((d.name, [_slot(d, d.arguments[0]), "m"]))
        else:
            shapes.append((d.name, [_slot(d, a) for a in d.arguments]))
    for name, (base, template) in PSEUDOS.items():
        d = iset.get(base)
        kinds = {slot: _slot(d, arg) for slot, arg in zip(template, d.arguments)
                 if isinstance(slot, int)}
        shapes.append((name, [kinds[i] for i in range(len(kinds))]))
    return shapes + [("li", ["r", "v"]), ("la", ["r", "a"]), ("lla", ["r", "a"])]


SHAPES = _shapes()
DATA_VALUE_DIRECTIVES = [".byte", ".hword", ".half", ".2byte", ".word",
                         ".4byte", ".long"]


@st.composite
def literal(draw, low, high):
    """An integer in [low, high] as decimal, hex, binary or a character."""
    value = draw(st.integers(low, high))
    sign = "-" if value < 0 else ""
    forms = [str(value), f"{sign}0x{abs(value):x}", f"{sign}0b{abs(value):b}",
             f"({value}+K)-K"]
    if 32 <= value < 127 and chr(value) not in "'\\":
        forms.append(f"'{chr(value)}'")
    return draw(st.sampled_from(forms))


def operand(kind):
    """A valid operand of *kind*."""
    imm12 = literal(-2048, 2047)
    return {
        "r": st.sampled_from(INT_REGS),
        "f": st.sampled_from(FP_REGS),
        "i": st.one_of(imm12, st.sampled_from(["%lo(d0)", "K", "'\\n'"])),
        "shamt": literal(0, 31),
        "u20": st.one_of(literal(0, 0xFFFFF), st.just("%hi(d0)")),
        "l": st.sampled_from(["c0", "c1", "c1-4"]),
        "m": st.one_of(
            st.builds("{}({})".format, imm12, st.sampled_from(INT_REGS)),
            st.builds("({})".format, st.sampled_from(INT_REGS)),
            st.builds("%lo(d0)({})".format, st.sampled_from(INT_REGS))),
        "v": st.one_of(literal(-2**40, 2**40),
                       st.sampled_from(["d0", "d0+4", "K*3", "- 5", "'A'",
                                        str(10**30), "c1"])),
        "a": st.sampled_from(["d0", "d0+8", "c0", "c1"]),
        "data": st.one_of(literal(-128, 255),
                          st.sampled_from(["c0", "d0+4", "K*2"])),
    }[kind]


@st.composite
def statement(draw, index):
    """A well-formed line body: ``(mnemonic, operands, kinds)``."""
    choice = draw(st.integers(0, 9))
    if choice < 6:
        mnemonic, kinds = draw(st.sampled_from(SHAPES))
        return mnemonic, [draw(operand(k)) for k in kinds], kinds
    if choice == 6:
        name = draw(st.sampled_from(DATA_VALUE_DIRECTIVES))
        count = draw(st.integers(1, 3))
        return name, [draw(operand("data")) for _ in range(count)], \
            ["data"] * count
    if choice == 7:
        name = draw(st.sampled_from([".align", ".p2align", ".balign", ".skip",
                                     ".zero", ".space"]))
        value = draw(st.integers(0, 4)) if name != ".balign" \
            else draw(st.sampled_from([1, 2, 4, 8, 16]))
        return name, [str(value)], ["const"]
    if choice == 8:
        name = draw(st.sampled_from([".ascii", ".asciiz", ".string"]))
        pieces = st.sampled_from(["a", "Z", "0", " ", "#", ",", "(", "//",
                                  "\\n", '\\"', "\\x41", "\\\\"])
        text = "".join(draw(st.lists(pieces, max_size=6)))
        return name, [f'"{text}"'], ["string"]
    name = draw(st.sampled_from([".float", ".double", ".equ", ".set"]))
    if name in (".equ", ".set"):
        return name, [f"E{index}", draw(operand("data"))], ["name", "data"]
    return name, [draw(st.sampled_from(["1.5", "-2.25", "3.0e2", "7"]))], \
        ["float"]


@st.composite
def line(draw, index, body=None):
    """Render a statement as a source line: optional label, indentation,
    an inline ``/* */`` comment before one token, a trailing comment.
    Returns the text and the column at which each operand starts."""
    mnemonic, operands, _kinds = body or draw(statement(index))
    label = draw(st.sampled_from(["", f"L{index}: "]))
    pieces = [label + draw(st.sampled_from(["    ", "\t", " "])), mnemonic]
    comment_at = draw(st.integers(-1, len(operands)))
    columns = []
    for position, text in enumerate(operands):
        pieces.append(" " if position == 0 else ", ")
        if position == comment_at:
            pieces.append("/* c */ ")
        columns.append(sum(map(len, pieces)) + 1)
        pieces.append(text)
    if comment_at == len(operands):
        pieces.insert(1, "/* c */ ")
        columns = [c + len("/* c */ ") for c in columns]
    pieces.append(draw(st.sampled_from(["", "  # note", " // note"])))
    return "".join(pieces), columns


#: bad tokens per operand kind: each is reported at its own column
BAD_TOKENS = {
    "r": ["q9", "f3", "fa0", "5", "017", "nowhere"],
    "f": ["x3", "a0", "q9", "5", "09"],
    "data": ["nowhere", "017"],
}
for _kind in ("i", "shamt", "u20", "l", "m", "v", "a"):
    BAD_TOKENS[_kind] = ["nowhere", "017", "sp"]
#: values out of their field's range: reported at the operand, and at an
#: ``offset(base)`` operand's offset
BAD_TOKENS["i"] += ["5000", "-2049"]
BAD_TOKENS["shamt"] += ["32", "40", "-1"]
BAD_TOKENS["u20"] += ["0x100000", "-1"]
BAD_TOKENS["m"] += ["9000(x2)", "-2049(sp)"]
BAD_TOKENS["l"] += ["c0+2000000", "c1-2000000"]

#: malformed line bodies, each an error at its own line
MALFORMED = [
    "addi a0, x0, 017", ".word 09", ".skip 4000000000", ".zero 4000000000",
    ".space 4000000000", ".align 32", ".p2align 2048", ".balign 4000000000",
    ".align -1", ".skip -1", ".float 1.0e300", ".float " + "9" * 400,
    '.ascii "€"', ".word 1.0e300*1.0e300", ".word " + "1" * 5000,
    "addi a0, x0, 99999999999999999999", "li a0, 1_000", "frob a0",
    "add a0, , a1", "add a0, a1,", "lw a0, 4(sp", "add a0, a1, a2)",
    "add a0, f1, a2", "fadd.s f0, x1, f2", "beq a0, a1, nowhere",
    "jal nowhere", "la a0, nowhere", ".equ E, nowhere", "@",
    "addi a0, x0, " + "(" * 400 + "1" + ")" * 400,
    "addi a0, x0, " + "-" * 1000 + "1",
    ".word " + "%lo(" * 200 + "1" + ")" * 200,
]


@st.composite
def malformed_line(draw, index):
    """A line that is probably wrong: a known-bad body, or a well-formed
    statement with one operand replaced, dropped, doubled or unbalanced."""
    if draw(st.booleans()):
        return "    " + draw(st.sampled_from(MALFORMED))
    mnemonic, operands, kinds = draw(statement(index))
    operands = list(operands)
    mutation = draw(st.integers(0, 4))
    slot = draw(st.integers(0, max(0, len(operands) - 1)))
    if mutation == 0 and operands and kinds[slot] in BAD_TOKENS:
        operands[slot] = draw(st.sampled_from(BAD_TOKENS[kinds[slot]]))
    elif mutation == 1:
        operands.insert(slot, "")                    # a stray comma
    elif mutation == 2 and operands:
        operands[slot] = draw(st.sampled_from(["(", ")"])) + operands[slot]
    elif mutation == 3 and operands:
        del operands[slot]
    else:
        operands.append(draw(operand("r")))
    text, _columns = draw(line(index, (mnemonic, operands, kinds)))
    return text


@st.composite
def program_with_line_under_test(draw):
    """``(source, line number under test, well formed?)``."""
    count = draw(st.integers(0, 6))
    body = [draw(line(i))[0] for i in range(count)]
    at = draw(st.integers(0, count))
    well_formed = draw(st.booleans())
    test_line = draw(line(1000))[0] if well_formed \
        else draw(malformed_line(1000))
    lines = HEADER + body[:at] + [test_line] + body[at:] + TRAILER
    return "\n".join(lines), len(HEADER) + at + 1, well_formed


@given(program_with_line_under_test())
@example(("    addi a0, x0, 017", 1, False))
@example(("    .word 09", 1, False))
@example(("    .skip 4000000000", 1, False))
@example(("    .byte 1\n    .align 32", 2, False))
@example(("    .byte 1\n    .p2align 2048", 2, False))
@example(("    .float " + "9" * 400, 1, False))
def test_program_or_syntax_error_at_the_line(case):
    source, line_no, well_formed = case
    try:
        assemble(source)
    except AsmSyntaxError as exc:
        assert not well_formed, f"{exc} in\n{source}"
        assert exc.line == line_no, f"{exc} in\n{source}"


@pytest.mark.parametrize("sized,named", [(".2byte", ".half"),
                                         (".4byte", ".word")])
def test_sized_data_directives_match_their_named_twins(sized, named):
    def data(directive):
        program = assemble(f"    .data\nx: {directive} 5, -2, 0x1234, 'a'\n"
                           f"y: {directive} K+1\n    .equ K, 6")
        return bytes(program.data), program.labels

    assert data(sized) == data(named)


@pytest.mark.parametrize("body", MALFORMED)
def test_each_malformed_body_is_an_error_at_its_line(body):
    with pytest.raises(AsmSyntaxError) as info:
        assemble(f"    .byte 1\n    {body}\n    nop")
    assert info.value.line == 2


@st.composite
def line_with_bad_token(draw):
    """``(source, line number, column)`` of a well-formed line with one
    operand replaced by a token that must be reported at its column."""
    while True:
        mnemonic, operands, kinds = draw(statement(0))
        slots = [i for i, kind in enumerate(kinds) if kind in BAD_TOKENS]
        if slots:
            break
    slot = draw(st.sampled_from(slots))
    operands = list(operands)
    operands[slot] = draw(st.sampled_from(BAD_TOKENS[kinds[slot]]))
    text, columns = draw(line(0, (mnemonic, operands, kinds)))
    source = "\n".join(HEADER + [text] + TRAILER)
    return source, len(HEADER) + 1, columns[slot]


@given(line_with_bad_token())
@example(("    add x1, x2, 5", 1, 17))
@example(("    lw x1, 4(q9)", 1, 13))
@example(("    li x5, bogus+", 1, 12))
@example(("/* c */ addi a0, x0, q", 1, 22))
@example(("    addi x1, x2, 5000", 1, 18))
@example(("nop\n    beq x1, x2, far\n" + "nop\n" * 1100 + "far: nop", 2, 17))
@example(("slli x1, x2, 40", 1, 14))
@example(("lw x1, 9000(x2)", 1, 8))
@example(("jal x1, 3000000", 1, 9))
def test_bad_operand_reported_at_its_column(case):
    source, line_no, column = case
    try:
        assemble(source)
    except AsmSyntaxError as exc:
        assert (exc.line, exc.column) == (line_no, column), \
            f"{exc} in\n{source}"
    else:
        raise AssertionError(f"assembled:\n{source}")
