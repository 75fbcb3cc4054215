"""Assembly tokenizer tests."""

import time

import pytest

from repro.asm.lexer import (
    Token, TokenKind, strip_block_comments, tokenize_line, unescape_string,
)
from repro.errors import AsmSyntaxError


class TestTokenKinds:
    def test_instruction_line(self):
        tokens = tokenize_line("add x1, x2, x3", 1)
        kinds = [t.kind for t in tokens]
        assert kinds == [TokenKind.SYMBOL, TokenKind.SYMBOL, TokenKind.COMMA,
                         TokenKind.SYMBOL, TokenKind.COMMA, TokenKind.SYMBOL]

    def test_label_definition(self):
        tokens = tokenize_line("loop: addi x1, x1, -1", 1)
        assert tokens[0].kind is TokenKind.LABEL_DEF
        assert tokens[0].value == "loop"

    def test_dot_label_definition(self):
        tokens = tokenize_line(".L42:", 1)
        assert tokens[0].kind is TokenKind.LABEL_DEF
        assert tokens[0].value == ".L42"

    def test_directive(self):
        tokens = tokenize_line(".word 1, 2, 3", 1)
        assert tokens[0].kind is TokenKind.DIRECTIVE
        assert tokens[0].value == ".word"

    def test_memory_operand(self):
        tokens = tokenize_line("lw a0, 8(sp)", 1)
        kinds = [t.kind for t in tokens]
        assert TokenKind.LPAREN in kinds and TokenKind.RPAREN in kinds

    def test_integers(self):
        # signs are separate operator tokens (evaluated as unary minus)
        tokens = tokenize_line(".word 10, -10, 0x1F, 0b101", 1)
        values = [t.value for t in tokens if t.kind is TokenKind.INTEGER]
        assert values == [10, 10, 31, 5]
        assert any(t.kind is TokenKind.OPERATOR and t.text == "-"
                   for t in tokens)

    def test_floats(self):
        tokens = tokenize_line(".float 1.5, 2.75", 1)
        values = [t.value for t in tokens if t.kind is TokenKind.FLOAT]
        assert values == [1.5, 2.75]

    def test_char_literal_becomes_integer(self):
        tokens = tokenize_line(".byte 'A'", 1)
        assert tokens[1].kind is TokenKind.INTEGER
        assert tokens[1].value == ord("A")

    def test_string_literal(self):
        tokens = tokenize_line('.asciiz "hi\\n"', 1)
        assert tokens[1].kind is TokenKind.STRING
        assert tokens[1].value == "hi\n"

    def test_percent_functions(self):
        tokens = tokenize_line("lui a0, %hi(symbol)", 1)
        pct = [t for t in tokens if t.kind is TokenKind.PERCENT_FUNC]
        assert len(pct) == 1 and pct[0].value == "hi"

    def test_comments_stripped(self):
        assert tokenize_line("# whole line comment", 1) == []
        tokens = tokenize_line("nop # trailing", 1)
        assert len(tokens) == 1

    def test_double_slash_comment(self):
        assert tokenize_line("// c-style", 1) == []

    def test_positions_are_one_based(self):
        tokens = tokenize_line("  add x1, x2, x3", 3)
        assert tokens[0].line == 3
        assert tokens[0].column == 3

    @pytest.mark.parametrize("text,column", [
        ("addi a0, x0, 017", 14), (".word 09", 7), (".word 1, 0777", 10)])
    def test_leading_zero_integer_raises_at_the_literal(self, text, column):
        """GNU as reads '017' as octal: refuse it rather than guess."""
        with pytest.raises(AsmSyntaxError, match="leading zero") as info:
            tokenize_line(text, 4)
        assert (info.value.line, info.value.column) == (4, column)

    def test_overlong_integer_raises_at_the_literal(self):
        with pytest.raises(AsmSyntaxError, match="too long") as info:
            tokenize_line(".word " + "1" * 5000, 2)
        assert (info.value.line, info.value.column) == (2, 7)

    def test_zero_and_radix_literals_still_lex(self):
        tokens = tokenize_line(".word 0, 00, 0x0F, 0b0", 1)
        assert [t.value for t in tokens if t.kind is TokenKind.INTEGER] == \
            [0, 0, 15, 0]

    def test_long_whitespace_lexes_in_linear_time(self):
        started = time.perf_counter()
        tokens = tokenize_line("nop" + " " * 200_000, 1)
        assert len(tokens) == 1
        assert time.perf_counter() - started < 1.0

    def test_unexpected_character_raises_with_position(self):
        with pytest.raises(AsmSyntaxError) as info:
            tokenize_line("add x1, @", 7)
        assert info.value.line == 7
        assert info.value.column == 9


class TestStrings:
    def test_escapes(self):
        assert unescape_string(r"a\tb\nc\0") == "a\tb\nc\0"
        assert unescape_string(r"\x41\x42") == "AB"
        assert unescape_string(r"\\") == "\\"

    def test_dangling_escape_raises(self):
        with pytest.raises(AsmSyntaxError):
            unescape_string("abc\\")

    def test_bad_hex_escape(self):
        with pytest.raises(AsmSyntaxError):
            unescape_string(r"\xZZ")


class TestBlockComments:
    def test_strip_preserves_line_numbers(self):
        source = "a /* x\ny */ b"
        stripped = strip_block_comments(source)
        assert stripped.count("\n") == source.count("\n")
        assert "a" in stripped and "b" in stripped and "y" not in stripped

    def test_unterminated_comment_swallows_rest(self):
        assert strip_block_comments("a /* b").startswith("a ")

    def test_comments_become_spaces_so_columns_are_the_sources(self):
        source = "/* c */ addi a0, x0, 1 /* two\nlines */ # x"
        stripped = strip_block_comments(source)
        assert stripped == " " * 7 + " addi a0, x0, 1 " + " " * 6 + "\n" \
            + " " * 8 + " # x"
        assert tokenize_line(stripped.split("\n")[0], 1)[0].column == 9
