"""Arithmetic expressions in instruction operands and data directives.

Sec. III-C: *"A complication, when filling in the values, is the support for
arithmetic expressions in instruction arguments (e.g., ``lla x4, arr+64``).
This feature is implemented because the compiler often generates such
expressions ... Expressions are evaluated by a simple evaluation program,
which must have access to the label values."*

Grammar (over :class:`repro.asm.lexer.Token` lists)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/'|'%') factor)*
    factor := INT | FLOAT | SYMBOL | '(' expr ')' | ('+'|'-') factor
            | %hi '(' expr ')' | %lo '(' expr ')'
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.asm.lexer import Token, TokenKind
from repro.asm.pseudo import hi_lo
from repro.errors import AsmSyntaxError

Number = Union[int, float]


class _Parser:
    def __init__(self, tokens: List[Token], labels: Optional[Dict[str, int]]):
        self.tokens = tokens
        self.pos = 0
        self.labels = labels

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            raise AsmSyntaxError(
                "unexpected end of operand expression",
                last.line if last else 0, last.column if last else 0)
        self.pos += 1
        return tok

    def expect(self, kind: TokenKind) -> Token:
        tok = self.next()
        if tok.kind is not kind:
            raise AsmSyntaxError(
                f"expected {kind.value}, found {tok.text!r}", tok.line, tok.column)
        return tok

    # -- grammar ---------------------------------------------------------
    def expr(self) -> Number:
        value = self.term()
        while True:
            tok = self.peek()
            if tok is not None and tok.kind is TokenKind.OPERATOR and tok.text in "+-":
                self.next()
                rhs = self.term()
                value = value + rhs if tok.text == "+" else value - rhs
            else:
                return value

    def term(self) -> Number:
        value = self.factor()
        while True:
            tok = self.peek()
            if tok is not None and tok.kind is TokenKind.OPERATOR and tok.text in "*/%":
                self.next()
                rhs = self.factor()
                if tok.text == "*":
                    value = value * rhs
                elif tok.text == "/":
                    if rhs == 0:
                        raise AsmSyntaxError("division by zero in operand",
                                             tok.line, tok.column)
                    value = int(value // rhs)
                else:
                    if rhs == 0:
                        raise AsmSyntaxError("modulo by zero in operand",
                                             tok.line, tok.column)
                    value = int(value % rhs)
            else:
                return value

    def factor(self) -> Number:
        tok = self.next()
        if tok.kind is TokenKind.INTEGER:
            return int(tok.value)
        if tok.kind is TokenKind.FLOAT:
            return float(tok.value)
        if tok.kind is TokenKind.OPERATOR and tok.text in "+-":
            value = self.factor()
            return -value if tok.text == "-" else value
        if tok.kind is TokenKind.LPAREN:
            value = self.expr()
            self.expect(TokenKind.RPAREN)
            return value
        if tok.kind is TokenKind.PERCENT_FUNC:
            self.expect(TokenKind.LPAREN)
            value = int(self.expr())
            self.expect(TokenKind.RPAREN)
            hi, lo = hi_lo(value)
            return hi if tok.value == "hi" else lo
        if tok.kind is TokenKind.SYMBOL or tok.kind is TokenKind.DIRECTIVE:
            # DIRECTIVE covers dot-prefixed local labels (.L3) used as
            # operands, e.g. compiler-generated branch targets.
            if self.labels is None:
                # pass-1 probe: labels not yet known
                raise _Unresolved(tok.text)
            if tok.text not in self.labels:
                raise AsmSyntaxError(f"undefined label '{tok.text}'",
                                     tok.line, tok.column)
            return self.labels[tok.text]
        raise AsmSyntaxError(f"unexpected token {tok.text!r} in operand",
                             tok.line, tok.column)


class _Unresolved(Exception):
    """Internal: expression references a label during pass 1."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


def evaluate_operand(tokens: List[Token], labels: Dict[str, int]) -> Number:
    """Evaluate an operand expression with all labels known (pass 2)."""
    parser = _Parser(tokens, labels)
    value = parser.expr()
    tok = parser.peek()
    if tok is not None:
        raise AsmSyntaxError(f"trailing junk {tok.text!r} in operand",
                             tok.line, tok.column)
    return value


def try_literal(tokens: List[Token]) -> Optional[Number]:
    """Evaluate an operand if it contains no labels; else ``None`` (pass 1)."""
    try:
        parser = _Parser(tokens, None)
        value = parser.expr()
        if parser.peek() is not None:
            return None
        return value
    except _Unresolved:
        return None
    except AsmSyntaxError:
        return None
