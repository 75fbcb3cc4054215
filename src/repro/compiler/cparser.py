"""Recursive-descent parser for the C subset."""

from __future__ import annotations

from typing import List, Optional

from repro.compiler import cast
from repro.compiler.cast import (
    Assign, Binary, Block, Break, CType, Call, Cast, Conditional, Continue,
    Expr, ExprStmt, FloatLit, For, Function, GlobalVar, Ident, If, Index,
    IntLit, Param, Return, SizeOf, Stmt, StrLit, TranslationUnit, Unary,
    VarDecl, While,
)
from repro.compiler.clexer import CToken, tokenize_c
from repro.errors import CSyntaxError

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "|=", "^="}

# binary operator precedence (higher binds tighter)
_BIN_PREC = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_TYPE_KEYWORDS = {"int", "unsigned", "char", "float", "void", "const", "static"}

#: deepest node the parser builds: its depth in the function's syntax tree,
#: counting every enclosing statement and operator and each parenthesis.
#: The parser and every later pass recurse over that tree, so a deeper
#: program is refused as a syntax error where it crosses the limit rather
#: than overflowing Python's stack further on
MAX_NESTING = 100


class CParser:
    def __init__(self, source: str):
        self.tokens = tokenize_c(source)
        self.pos = 0
        #: depth of the node being parsed (see MAX_NESTING), and the
        #: deepest depth reached by what has been parsed at that position
        self.depth = 0
        self.reach = 0

    # -- token helpers ---------------------------------------------------
    def peek(self, ahead: int = 0) -> CToken:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> CToken:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[CToken]:
        if self.at(kind, text):
            return self.next()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> CToken:
        tok = self.peek()
        if not self.at(kind, text):
            want = text or kind
            raise CSyntaxError(f"expected '{want}', found '{tok.text or 'EOF'}'",
                               tok.line, tok.column)
        return self.next()

    # -- nesting bound ------------------------------------------------------
    def _too_deep(self, tok: CToken) -> CSyntaxError:
        return CSyntaxError(f"nesting deeper than {MAX_NESTING} levels",
                            tok.line, tok.column)

    def _child(self, parse, *args):
        """``parse(*args)`` one level further down the tree."""
        outer = self.reach
        self.depth += 1
        self.reach = self.depth
        if self.depth > MAX_NESTING:
            raise self._too_deep(self.peek())
        node = parse(*args)
        self.depth -= 1
        self.reach = max(outer, self.reach)
        return node

    def _shift(self, tok: CToken) -> None:
        """A node at *tok* takes what was parsed before it at the same
        depth as its operand (``a + b``'s ``a``): all of that moves one
        level down."""
        self.reach += 1
        if self.reach > MAX_NESTING:
            raise self._too_deep(tok)

    # -- types -------------------------------------------------------------
    def _at_type(self) -> bool:
        tok = self.peek()
        return tok.kind == "kw" and tok.text in _TYPE_KEYWORDS

    def parse_type(self) -> CType:
        while self.accept("kw", "const") or self.accept("kw", "static"):
            pass
        tok = self.peek()
        if tok.kind != "kw" or tok.text not in ("int", "unsigned", "char",
                                                "float", "void"):
            raise CSyntaxError(f"expected type name, found '{tok.text}'",
                               tok.line, tok.column)
        self.next()
        base = tok.text
        if base == "unsigned":
            self.accept("kw", "int")  # 'unsigned int'
        while self.accept("kw", "const"):
            pass
        pointer = 0
        while self.accept("op", "*"):
            pointer += 1
            while self.accept("kw", "const"):
                pass
        return CType(base, pointer)

    # -- top level -----------------------------------------------------------
    def parse(self) -> TranslationUnit:
        unit = TranslationUnit()
        while not self.at("eof"):
            extern = bool(self.accept("kw", "extern"))
            start = self.peek()
            ctype = self.parse_type()
            name_tok = self.expect("ident")
            if self.at("op", "("):
                if extern:
                    raise CSyntaxError("extern functions are not supported",
                                       start.line, start.column)
                unit.functions.append(self._function(ctype, name_tok))
            else:
                unit.globals.extend(
                    self._global_decl(ctype, name_tok, extern))
        return unit

    def _function(self, return_type: CType, name_tok: CToken) -> Function:
        self.expect("op", "(")
        params: List[Param] = []
        if not self.at("op", ")"):
            if self.at("kw", "void") and self.peek(1).text == ")":
                self.next()
            else:
                while True:
                    ptype = self.parse_type()
                    ptok = self.expect("ident")
                    # array parameters decay to pointers
                    if self.accept("op", "["):
                        self.accept("int")
                        self.expect("op", "]")
                        ptype = CType(ptype.base, ptype.pointer + 1)
                    params.append(Param(ptok.text, ptype, ptok.line))
                    if not self.accept("op", ","):
                        break
        self.expect("op", ")")
        if self.accept("op", ";"):
            return Function(name_tok.text, return_type, params, None,
                            name_tok.line)
        body = self.block()
        return Function(name_tok.text, return_type, params, body,
                        name_tok.line)

    def _global_decl(self, ctype: CType, name_tok: CToken,
                     extern: bool) -> List[GlobalVar]:
        out: List[GlobalVar] = []
        tok = name_tok
        current = ctype
        while True:
            gtype = current
            if self.accept("op", "["):
                size_tok = self.accept("int")
                self.expect("op", "]")
                count = int(size_tok.value) if size_tok else 0
                gtype = CType(current.base, current.pointer, count)
            init = None
            init_list = None
            if self.accept("op", "="):
                if self.at("op", "{"):
                    init_list = self._init_list()
                    if gtype.is_array and gtype.array == 0:
                        gtype = CType(gtype.base, gtype.pointer, len(init_list))
                else:
                    init = self._child(self.assignment)
            out.append(GlobalVar(tok.text, gtype, init, init_list, extern,
                                 tok.line))
            if not self.accept("op", ","):
                break
            tok = self.expect("ident")
        self.expect("op", ";")
        return out

    def _init_list(self) -> List[Expr]:
        self.expect("op", "{")
        items: List[Expr] = []
        if not self.at("op", "}"):
            while True:
                items.append(self._child(self.assignment))
                if not self.accept("op", ","):
                    break
                if self.at("op", "}"):  # trailing comma
                    break
        self.expect("op", "}")
        return items

    # -- statements -----------------------------------------------------------
    def block(self) -> Block:
        start = self.expect("op", "{")
        body: List[Stmt] = []
        while not self.at("op", "}"):
            if self.at("eof"):
                raise CSyntaxError("unterminated block", start.line,
                                   start.column)
            body.append(self._child(self.statement))
        self.expect("op", "}")
        return Block(line=start.line, body=body)

    def statement(self) -> Stmt:
        tok = self.peek()
        if self.at("op", "{"):
            return self.block()
        if self.at("op", ";"):
            self.next()
            return ExprStmt(line=tok.line, expr=None)
        if self._at_type():
            return self._local_decl()
        if self.at("kw", "if"):
            return self._if()
        if self.at("kw", "while"):
            return self._while()
        if self.at("kw", "do"):
            return self._do_while()
        if self.at("kw", "for"):
            return self._for()
        if self.at("kw", "return"):
            self.next()
            value = None if self.at("op", ";") \
                else self._child(self.expression)
            self.expect("op", ";")
            return Return(line=tok.line, value=value)
        if self.at("kw", "break"):
            self.next()
            self.expect("op", ";")
            return Break(line=tok.line)
        if self.at("kw", "continue"):
            self.next()
            self.expect("op", ";")
            return Continue(line=tok.line)
        return self._expr_stmt()

    def _expr_stmt(self) -> Stmt:
        line = self.peek().line
        expr = self._child(self.expression)
        self.expect("op", ";")
        return ExprStmt(line=line, expr=expr)

    def _local_decl(self) -> Stmt:
        start = self.peek()
        ctype = self.parse_type()
        decls: List[Stmt] = []
        while True:
            tok = self.expect("ident")
            vtype = ctype
            if self.accept("op", "["):
                size_tok = self.accept("int")
                self.expect("op", "]")
                count = int(size_tok.value) if size_tok else 0
                vtype = CType(ctype.base, ctype.pointer, count)
            init = None
            init_list = None
            if self.accept("op", "="):
                if self.at("op", "{"):
                    init_list = self._init_list()
                    if vtype.is_array and vtype.array == 0:
                        vtype = CType(vtype.base, vtype.pointer,
                                      len(init_list))
                else:
                    init = self._child(self.assignment)
            decls.append(VarDecl(line=tok.line, name=tok.text, ctype=vtype,
                                 init=init, init_list=init_list))
            if not self.at("op", ","):
                break
            if len(decls) == 1:
                # declarators after the first: all of them sit in a Block
                self._shift(self.peek())
                self.depth += 1
            self.next()
        self.expect("op", ";")
        if len(decls) == 1:
            return decls[0]
        self.depth -= 1
        return Block(line=start.line, body=decls, transparent=True)

    def _if(self) -> Stmt:
        tok = self.expect("kw", "if")
        self.expect("op", "(")
        cond = self._child(self.expression)
        self.expect("op", ")")
        then = self._child(self.statement)
        otherwise = self._child(self.statement) \
            if self.accept("kw", "else") else None
        return If(line=tok.line, cond=cond, then=then, otherwise=otherwise)

    def _while(self) -> Stmt:
        tok = self.expect("kw", "while")
        self.expect("op", "(")
        cond = self._child(self.expression)
        self.expect("op", ")")
        body = self._child(self.statement)
        return While(line=tok.line, cond=cond, body=body)

    def _do_while(self) -> Stmt:
        tok = self.expect("kw", "do")
        body = self._child(self.statement)
        self.expect("kw", "while")
        self.expect("op", "(")
        cond = self._child(self.expression)
        self.expect("op", ")")
        self.expect("op", ";")
        return While(line=tok.line, cond=cond, body=body, do_while=True)

    def _for(self) -> Stmt:
        tok = self.expect("kw", "for")
        self.expect("op", "(")
        if self.at("op", ";"):
            self.next()
            init: Optional[Stmt] = None
        elif self._at_type():
            init = self._child(self._local_decl)
        else:
            init = self._child(self._expr_stmt)
        cond = None if self.at("op", ";") else self._child(self.expression)
        self.expect("op", ";")
        post = None if self.at("op", ")") else self._child(self.expression)
        self.expect("op", ")")
        body = self._child(self.statement)
        return For(line=tok.line, init=init, cond=cond, post=post, body=body)

    # -- expressions -------------------------------------------------------
    def expression(self) -> Expr:
        expr = self.assignment()
        while self.at("op", ","):
            self._shift(self.next())
            right = self._child(self.assignment)
            expr = Binary(line=expr.line, op=",", left=expr, right=right)
        return expr

    def assignment(self) -> Expr:
        left = self.conditional()
        tok = self.peek()
        if tok.kind == "op" and tok.text in _ASSIGN_OPS:
            self._shift(self.next())
            value = self._child(self.assignment)
            return Assign(line=tok.line, op=tok.text, target=left, value=value)
        return left

    def conditional(self) -> Expr:
        cond = self.binary(1)
        if self.at("op", "?"):
            self._shift(self.next())
            then = self._child(self.expression)
            self.expect("op", ":")
            otherwise = self._child(self.conditional)
            return Conditional(line=cond.line, cond=cond, then=then,
                               otherwise=otherwise)
        return cond

    def binary(self, min_prec: int) -> Expr:
        left = self.unary()
        while True:
            tok = self.peek()
            prec = _BIN_PREC.get(tok.text) if tok.kind == "op" else None
            if prec is None or prec < min_prec:
                return left
            self._shift(self.next())
            right = self._child(self.binary, prec + 1)
            left = Binary(line=tok.line, op=tok.text, left=left, right=right)

    def unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("-", "+", "!", "~", "*", "&"):
            self.next()
            operand = self._child(self.unary)
            if tok.text == "+":
                return operand
            return Unary(line=tok.line, op=tok.text, operand=operand)
        if tok.kind == "op" and tok.text in ("++", "--"):
            self.next()
            operand = self._child(self.unary)
            return Unary(line=tok.line, op=tok.text, operand=operand)
        if tok.kind == "kw" and tok.text == "sizeof":
            self.next()
            self.expect("op", "(")
            if self._at_type():
                target = self.parse_type()
                if self.accept("op", "["):
                    size_tok = self.expect("int")
                    self.expect("op", "]")
                    target = CType(target.base, target.pointer,
                                   int(size_tok.value))
            else:
                expr = self._child(self.expression)
                target = None
                # sizeof(expr): resolved by the type checker
                self.expect("op", ")")
                node = SizeOf(line=tok.line, target=None)
                node.operand_expr = expr  # type: ignore[attr-defined]
                return node
            self.expect("op", ")")
            return SizeOf(line=tok.line, target=target)
        # cast: '(' type ')' unary
        if tok.kind == "op" and tok.text == "(" and \
                self.peek(1).kind == "kw" and \
                self.peek(1).text in ("int", "unsigned", "char", "float", "void"):
            self.next()
            target = self.parse_type()
            self.expect("op", ")")
            operand = self._child(self.unary)
            return Cast(line=tok.line, target=target, operand=operand)
        return self.postfix()

    def postfix(self) -> Expr:
        expr = self.primary()
        while True:
            tok = self.peek()
            if self.at("op", "["):
                self._shift(self.next())
                index = self._child(self.expression)
                self.expect("op", "]")
                expr = Index(line=tok.line, base=expr, index=index)
            elif tok.kind == "op" and tok.text in ("++", "--"):
                self._shift(self.next())
                expr = Unary(line=tok.line, op=tok.text, operand=expr,
                             postfix=True)
            else:
                return expr

    def primary(self) -> Expr:
        tok = self.next()
        if tok.kind == "int" or tok.kind == "char":
            return IntLit(line=tok.line, value=int(tok.value))
        if tok.kind == "float":
            return FloatLit(line=tok.line, value=float(tok.value))
        if tok.kind == "string":
            return StrLit(line=tok.line, value=str(tok.value))
        if tok.kind == "ident":
            if self.at("op", "("):
                self.next()
                args: List[Expr] = []
                if not self.at("op", ")"):
                    while True:
                        args.append(self._child(self.assignment))
                        if not self.accept("op", ","):
                            break
                self.expect("op", ")")
                return Call(line=tok.line, name=tok.text, args=args)
            return Ident(line=tok.line, name=tok.text)
        if tok.kind == "op" and tok.text == "(":
            expr = self._child(self.expression)
            self.expect("op", ")")
            return expr
        raise CSyntaxError(f"unexpected token '{tok.text or 'EOF'}'",
                           tok.line, tok.column)


def parse_c(source: str) -> TranslationUnit:
    """Parse C source into a :class:`TranslationUnit`."""
    return CParser(source).parse()
