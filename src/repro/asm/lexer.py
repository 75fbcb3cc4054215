"""Tokenizer for RISC-V assembly source.

The paper (Sec. III-C): *"The program text is divided into language units
(tokens such as symbols, comments, or new lines)."*  The assembler and the
output filter tokenize each source line exactly once, and those tokens are
the only ones an instruction ever has: pseudo-instruction expansion
(:mod:`repro.asm.pseudo`) reorders them and adds constants, it never
re-lexes text.  Positions are the 1-based line and column in the *source*,
so the editor highlights a syntax error where it is (Fig. 7);
:func:`strip_block_comments` therefore blanks ``/* */`` comments to spaces
instead of cutting them out.
"""

from __future__ import annotations

import enum
import re
from typing import List, NamedTuple

from repro.errors import AsmSyntaxError


class TokenKind(str, enum.Enum):
    LABEL_DEF = "label"        # ``name:``
    DIRECTIVE = "directive"    # ``.word``
    SYMBOL = "symbol"          # mnemonic / register / label reference
    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"
    COMMA = "comma"
    LPAREN = "lparen"
    RPAREN = "rparen"
    OPERATOR = "operator"      # + - * / %
    PERCENT_FUNC = "percent"   # %hi / %lo


class Token(NamedTuple):
    """One lexeme at its 1-based source line and column."""

    kind: TokenKind
    text: str
    line: int
    column: int
    value: object = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind.value}({self.text!r})"


# Each match is one token and the whitespace before it.  Order matters:
# longest / most specific first; a character no token starts with is an
# error.  Lines are matched right-stripped: trailing whitespace would fail
# a match at each of its positions, which is quadratic in its length.
_TOKEN_RE = re.compile(
    r"""
    \s*(?:
    (?P<comment>(\#|//).*)
  | (?P<string>"(\\.|[^"\\])*")
  | (?P<char>'(\\.|[^'\\])')
  | (?P<percent>%(hi|lo)\b)
  | (?P<labeldef>[A-Za-z_.$][\w.$]*:)
  | (?P<directive>\.(?:[A-Za-z][\w.]*|\d+byte\b))
  | (?P<float>\d+\.\d+([eE][-+]?\d+)?)
  | (?P<integer>0[xX][0-9a-fA-F]+|0[bB][01]+|\d+)
  | (?P<symbol>@?[A-Za-z_$][\w.$]*)
  | (?P<comma>,)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<operator>[-+*/%])
  | (?P<error>\S)
    )""",
    re.VERBOSE,
)

_PUNCTUATION = {
    "comma": TokenKind.COMMA, "lparen": TokenKind.LPAREN,
    "rparen": TokenKind.RPAREN, "operator": TokenKind.OPERATOR,
}

_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
    '"': '"', "'": "'", "a": "\a", "b": "\b", "f": "\f", "v": "\v",
}


_ESCAPE_RE = re.compile(r"\\(x[0-9a-fA-F]{1,2}|[^x]|x|\Z)")


def unescape_string(literal: str, line: int = 0, column: int = 0) -> str:
    """Decode an assembly string literal (without surrounding quotes)."""
    def decode(match: "re.Match[str]") -> str:
        code = match.group(1)
        if not code:
            raise AsmSyntaxError("dangling escape in string", line, column)
        if code == "x":
            raise AsmSyntaxError("invalid \\x escape", line, column)
        return chr(int(code[1:], 16)) if code[0] == "x" \
            else _ESCAPES.get(code, code)
    return _ESCAPE_RE.sub(decode, literal)


def tokenize_line(text: str, line_no: int) -> List[Token]:
    """Tokenize one source line; comments and whitespace are discarded."""
    tokens: List[Token] = []
    for match in _TOKEN_RE.finditer(text.rstrip()):
        kind = match.lastgroup
        if kind == "comment":
            continue
        raw = match.group(kind)
        col = match.start(kind) + 1
        if kind == "symbol":
            tokens.append(Token(TokenKind.SYMBOL, raw, line_no, col, raw))
        elif kind in _PUNCTUATION:
            tokens.append(Token(_PUNCTUATION[kind], raw, line_no, col))
        elif kind == "integer":
            tokens.append(Token(TokenKind.INTEGER, raw, line_no, col,
                                _integer(raw, line_no, col)))
        elif kind == "labeldef":
            tokens.append(Token(TokenKind.LABEL_DEF, raw, line_no, col, raw[:-1]))
        elif kind == "directive":
            tokens.append(Token(TokenKind.DIRECTIVE, raw, line_no, col, raw))
        elif kind == "percent":
            tokens.append(Token(TokenKind.PERCENT_FUNC, raw, line_no, col, raw[1:]))
        elif kind == "char":
            decoded = unescape_string(raw[1:-1], line_no, col)
            tokens.append(Token(TokenKind.INTEGER, raw, line_no, col, ord(decoded)))
        elif kind == "string":
            tokens.append(Token(TokenKind.STRING, raw, line_no, col,
                                unescape_string(raw[1:-1], line_no, col)))
        elif kind == "float":
            tokens.append(Token(TokenKind.FLOAT, raw, line_no, col, float(raw)))
        else:
            raise AsmSyntaxError(f"unexpected character {raw!r}", line_no, col)
    return tokens


def _integer(raw: str, line_no: int, col: int) -> int:
    try:
        return int(raw, 0)
    except ValueError:
        # GNU as reads '017' as octal; over 4300 digits Python refuses
        problem = ("has a leading zero (octal is not supported)"
                   if raw[0] == "0" else "is too long")
        raise AsmSyntaxError(f"integer literal {raw[:24]!r} {problem}",
                             line_no, col) from None


_BLOCK_COMMENT_RE = re.compile(r"/\*.*?(?:\*/|\Z)", re.DOTALL)


def _blank(match: "re.Match[str]") -> str:
    return "\n".join(" " * len(part) for part in match.group().split("\n"))


def strip_block_comments(source: str) -> str:
    """Blank out ``/* ... */`` comments, delimiters included.

    Each comment becomes spaces and keeps its newlines, so every line and
    column after it is the source's; an unterminated comment runs to the
    end of the source."""
    return _BLOCK_COMMENT_RE.sub(_blank, source)
