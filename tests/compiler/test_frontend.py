"""C lexer / parser / type-checker tests."""

import pytest

from repro.compiler.cast import (Binary, Block, CType, For, Function, If,
                                 IntLit, Return, VarDecl, While)
from repro.compiler.clexer import tokenize_c
from repro.compiler.cparser import MAX_NESTING, parse_c
from repro.compiler.driver import compile_c
from repro.compiler.sema import check
from repro.errors import CSyntaxError, CTypeError


class TestLexer:
    def test_keywords_vs_identifiers(self):
        tokens = tokenize_c("int intx; return;")
        assert tokens[0].kind == "kw"
        assert tokens[1].kind == "ident" and tokens[1].text == "intx"

    def test_number_forms(self):
        tokens = tokenize_c("10 0x1F 0b11 1.5 2e3 3.0f 7f")
        values = [t.value for t in tokens[:-1]]
        assert values == [10, 31, 3, 1.5, 2000.0, 3.0, 7.0]

    def test_char_literal(self):
        tokens = tokenize_c("'A' '\\n'")
        assert tokens[0].value == 65
        assert tokens[1].value == 10

    def test_string_with_escapes(self):
        tokens = tokenize_c('"a\\tb"')
        assert tokens[0].value == "a\tb"

    def test_comments_and_positions(self):
        tokens = tokenize_c("a // x\n/* y\nz */ b")
        assert [t.text for t in tokens[:-1]] == ["a", "b"]
        assert tokens[1].line == 3

    def test_three_char_operators(self):
        tokens = tokenize_c("a <<= 1; b >>= 2;")
        texts = [t.text for t in tokens]
        assert "<<=" in texts and ">>=" in texts

    def test_error_position(self):
        with pytest.raises(CSyntaxError) as info:
            tokenize_c("int a;\n   `")
        assert info.value.line == 2


class TestParser:
    def test_function_shape(self):
        unit = parse_c("int add(int a, int b) { return a + b; }")
        assert len(unit.functions) == 1
        func = unit.functions[0]
        assert func.name == "add"
        assert [p.name for p in func.params] == ["a", "b"]
        assert isinstance(func.body.body[0], Return)

    def test_void_param_list(self):
        unit = parse_c("int f(void) { return 0; }")
        assert unit.functions[0].params == []

    def test_pointer_and_array_types(self):
        unit = parse_c("int *p; int arr[10]; float **q;")
        types = {g.name: g.ctype for g in unit.globals}
        assert types["p"] == CType("int", 1)
        assert types["arr"] == CType("int", 0, 10)
        assert types["q"] == CType("float", 2)

    def test_array_size_inferred_from_initializer(self):
        unit = parse_c("int a[] = {1, 2, 3};")
        assert unit.globals[0].ctype.array == 3

    def test_extern_global(self):
        unit = parse_c("extern int data[8];")
        assert unit.globals[0].extern

    def test_precedence(self):
        unit = parse_c("int f(void){ return 1 + 2 * 3; }")
        ret = unit.functions[0].body.body[0]
        assert isinstance(ret.value, Binary) and ret.value.op == "+"
        assert ret.value.right.op == "*"

    def test_control_flow_statements(self):
        unit = parse_c("""
void f(int n) {
    if (n) n = 1; else n = 2;
    while (n) n--;
    do { n++; } while (n < 3);
    for (int i = 0; i < n; i++) { }
}
""")
        body = unit.functions[0].body.body
        assert isinstance(body[0], If)
        assert isinstance(body[1], While) and not body[1].do_while
        assert isinstance(body[2], While) and body[2].do_while
        assert isinstance(body[3], For)

    def test_sizeof(self):
        unit = parse_c("unsigned f(void){ return sizeof(int) + sizeof(float*); }")
        check(unit)  # types resolve

    def test_cast_expression(self):
        unit = parse_c("float f(int x){ return (float)x / 2.0f; }")
        check(unit)

    def test_missing_semicolon(self):
        with pytest.raises(CSyntaxError) as info:
            parse_c("int f(void) { return 1 }")
        assert info.value.line == 1

    def test_unterminated_block(self):
        with pytest.raises(CSyntaxError):
            parse_c("int f(void) { return 1;")

    def test_error_payload_for_editor(self):
        """Fig. 6: C errors carry line/column for the editor."""
        try:
            parse_c("int f(void) {\n  int x = ;\n}")
        except CSyntaxError as exc:
            assert exc.line == 2
            assert exc.to_json()["line"] == 2
        else:
            pytest.fail("expected CSyntaxError")


class TestTypeChecker:
    def check_src(self, source):
        return check(parse_c(source))

    def test_undeclared_identifier(self):
        with pytest.raises(CTypeError):
            self.check_src("int f(void){ return ghost; }")

    def test_undeclared_function(self):
        with pytest.raises(CTypeError):
            self.check_src("int f(void){ return g(); }")

    def test_wrong_arg_count(self):
        with pytest.raises(CTypeError):
            self.check_src("int g(int a){return a;} int f(void){ return g(); }")

    def test_void_variable(self):
        with pytest.raises(CTypeError):
            self.check_src("int f(void){ void x; return 0; }")

    def test_assign_to_rvalue(self):
        with pytest.raises(CTypeError):
            self.check_src("int f(void){ 1 = 2; return 0; }")

    def test_assign_to_array(self):
        with pytest.raises(CTypeError):
            self.check_src("int f(void){ int a[2]; int b[2]; a = b; return 0; }")

    def test_deref_non_pointer(self):
        with pytest.raises(CTypeError):
            self.check_src("int f(int x){ return *x; }")

    def test_float_modulo_rejected(self):
        with pytest.raises(CTypeError):
            self.check_src("float f(float x){ return x % 2.0f; }")

    def test_break_outside_loop(self):
        with pytest.raises(CTypeError):
            self.check_src("void f(void){ break; }")

    def test_void_return_with_value(self):
        with pytest.raises(CTypeError):
            self.check_src("void f(void){ return 1; }")

    def test_value_return_without_value(self):
        with pytest.raises(CTypeError):
            self.check_src("int f(void){ return; }")

    def test_redefinition(self):
        with pytest.raises(CTypeError):
            self.check_src("int f(void){ int x; int x; return 0; }")

    def test_shadowing_allowed_and_renamed(self):
        unit = self.check_src("""
int f(void) {
    int x = 1;
    { int x = 2; }
    return x;
}
""")
        decls = []

        def collect(stmt):
            if isinstance(stmt, Block):
                for s in stmt.body:
                    collect(s)
            elif isinstance(stmt, VarDecl):
                decls.append(stmt.unique_name)
        collect(unit.functions[0].body)
        assert len(set(decls)) == 2   # alpha-renamed

    def test_types_annotated(self):
        unit = self.check_src("float f(int a){ return a + 1.5f; }")
        ret = unit.functions[0].body.body[0]
        assert ret.value.ctype.is_float

    def test_pointer_arith_typing(self):
        unit = self.check_src("int f(int *p){ return *(p + 1); }")
        ret = unit.functions[0].body.body[0]
        assert ret.value.ctype == CType("int")

    def test_adding_two_pointers_rejected(self):
        with pytest.raises(CTypeError):
            self.check_src("int f(int *p, int *q){ return *(p + q); }")


def _nth_column(line: str, token: str, n: int) -> int:
    """1-based column of the *n*-th occurrence of *token* in *line*."""
    index = -1
    for _ in range(n):
        index = line.index(token, index + 1)
    return index + 1


#: (line 2 of a function, the token that crosses MAX_NESTING, which of its
#: occurrences that is); each nests far deeper than the limit
DEEP_PROGRAMS = {
    "parentheses": ("  return " + "(" * 140 + "1" + ")" * 140 + ";", "(",
                    MAX_NESTING),
    "operator chain": ("  return " + "+".join(["1"] * 500) + ";", "+",
                       MAX_NESTING - 1),
    "unary minus": ("  return " + "- " * 1000 + "1;", "-", MAX_NESTING),
    "blocks": ("  " + "{" * 600 + "}" * 600, "{", MAX_NESTING + 1),
    # the 100th if sits at depth 100: its condition crosses
    "nested ifs": ("  " + "if (x) " * 600 + "x = 1;", "x", MAX_NESTING),
    # the 98th if's then-branch nests ExprStmt, Assign and its target
    # below it: the assignment's '=' crosses
    "else-if chain": ("  " + "".join(f"if (x == {i}) x = 1; else "
                                     for i in range(600)) + "x = 0;",
                      "= 1;", MAX_NESTING - 2),
}


class TestNestingBound:
    @pytest.mark.parametrize("name", sorted(DEEP_PROGRAMS))
    def test_too_deep_is_a_syntax_error_at_the_crossing_token(self, name):
        line, token, occurrence = DEEP_PROGRAMS[name]
        source = "int f(int x) {\n" + line + "\n  return x;\n}"
        with pytest.raises(CSyntaxError, match="nesting deeper than") as info:
            parse_c(source)
        assert (info.value.line, info.value.column) \
            == (2, _nth_column(line, token, occurrence))
        result = compile_c(source, 2)
        assert not result.success
        assert result.errors[0]["line"] == 2

    def test_nesting_up_to_the_limit_compiles(self):
        """The deepest accepted program of each shape runs every pass."""
        depth = MAX_NESTING - 2          # function body and return
        for body in ("(" * depth + "x" + ")" * depth,
                     "+".join(["x"] * (depth + 1)),
                     "- " * depth + "x"):
            result = compile_c(f"int f(int x) {{ return {body}; }}", 2)
            assert result.success, body[:40]
