"""Assembler-output cleanup filter.

Sec. III-C: *"the assembler output may contain a large amount of information
that is redundant for the simulator and also reduces the readability of the
code.  Therefore, the compiler output is passed through a filter that
removes unnecessary directives, labels, and data."*

The filter keeps instructions, data-defining directives and any label that
is actually referenced; purely administrative directives (``.globl``,
``.type``, ``.size``, ``.file`` ...) and unreferenced local labels are
dropped.  Each line is lexed once: the same tokens find the referenced
labels and decide what to keep, and a kept line's text is sliced from the
source line at its tokens' columns (``/* */`` comments blanked to spaces).
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.asm.lexer import Token, TokenKind, strip_block_comments, tokenize_line
from repro.errors import AsmSyntaxError

_DROP_DIRECTIVES = {
    ".globl", ".global", ".local", ".type", ".size", ".file", ".ident",
    ".option", ".attribute", ".weak", ".extern", ".section", ".sdata",
}
_KEEP_DIRECTIVES = {
    ".byte", ".hword", ".half", ".2byte", ".word", ".4byte", ".long",
    ".align", ".p2align", ".balign", ".skip", ".zero", ".space",
    ".ascii", ".asciiz", ".string", ".float", ".double", ".equ", ".set",
    ".text", ".data", ".rodata", ".loc",
}


def _referenced_symbols(lexed: List[Optional[List[Token]]]) -> Set[str]:
    refs: Set[str] = set()
    for tokens in filter(None, lexed):
        started = False
        for tok in tokens:
            if tok.kind is TokenKind.LABEL_DEF:
                continue
            if not started:
                started = True  # the mnemonic / directive itself
                continue
            if tok.kind in (TokenKind.SYMBOL, TokenKind.DIRECTIVE):
                # DIRECTIVE in operand position is a dot-prefixed label ref
                refs.add(tok.value)
    return refs


def _lex(text: str, line_no: int) -> Optional[List[Token]]:
    try:
        return tokenize_line(text, line_no)
    except AsmSyntaxError:
        return None


def filter_assembly(source: str) -> str:
    """Return a cleaned-up version of compiler-emitted assembly."""
    lines = strip_block_comments(source).split("\n")
    lexed = [_lex(raw, line_no) for line_no, raw in enumerate(lines, start=1)]
    refs = _referenced_symbols(lexed)
    out: List[str] = []
    for raw, tokens in zip(lines, lexed):
        if tokens is None:
            # untokenizable operands (e.g. `.size main, .-main`): drop the
            # line when it is an administrative directive, else keep it
            first = raw.strip().split(None, 1)[0] if raw.strip() else ""
            if first not in _DROP_DIRECTIVES:
                out.append(raw)
            continue
        pos = 0
        while pos < len(tokens) and tokens[pos].kind is TokenKind.LABEL_DEF:
            pos += 1
        # Keep referenced labels and conventional function labels.
        kept = " ".join(f"{tok.value}:" for tok in tokens[:pos]
                        if tok.value in refs or not tok.value.startswith(".L"))
        head = tokens[pos] if pos < len(tokens) else None
        if head is None or (head.kind is TokenKind.DIRECTIVE
                            and head.value not in _KEEP_DIRECTIVES):
            # labels alone, or an administrative directive: keep the labels
            if kept:
                out.append(kept)
            continue
        body = raw[head.column - 1:].rstrip()
        if kept:
            out.append(kept + (" " if head.kind is TokenKind.DIRECTIVE
                               else "\n    ") + body)
        else:
            indent = "" if head.kind is TokenKind.DIRECTIVE and head.value in (
                ".text", ".data", ".rodata") else "    "
            out.append(indent + body)
    # Collapse repeated blank lines
    cleaned: List[str] = []
    for line in out:
        if line.strip() == "" and cleaned and cleaned[-1].strip() == "":
            continue
        cleaned.append(line)
    return "\n".join(cleaned).strip() + "\n"
