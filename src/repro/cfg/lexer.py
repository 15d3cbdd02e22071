"""Lexer for the mini-C subset used by the model-checking experiments."""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple


class LexError(ValueError):
    """Raised on input the lexer cannot tokenize."""


class Token(NamedTuple):
    kind: str
    value: str
    line: int


KEYWORDS = {
    "if",
    "else",
    "while",
    "for",
    "return",
    "break",
    "continue",
    "switch",
    "case",
    "default",
    "int",
    "void",
    "char",
    "long",
    "unsigned",
    "static",
    "struct",
    "const",
}

_TOKEN_SPEC = [
    ("comment", r"/\*.*?\*/|//[^\n]*"),
    ("preproc", r"\#[^\n]*"),
    ("newline", r"\n"),
    ("ws", r"[ \t\r]+"),
    ("number", r"0[xX][0-9a-fA-F]+|\d+"),
    ("string", r'"(?:\\.|[^"\\])*"'),
    ("char", r"'(?:\\.|[^'\\])'"),
    ("ident", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("op", r"->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||[-+*/%=<>!&|^~?:.,;(){}\[\]]"),
]

_MASTER_RE = re.compile(
    "|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC), re.DOTALL
)


def tokenize(source: str) -> Iterator[Token]:
    """Tokenize mini-C source, skipping comments and preprocessor lines."""
    line = 1
    pos = 0
    for match in _MASTER_RE.finditer(source):
        if match.start() != pos:
            break  # a gap: nothing matched at ``pos``
        kind = match.lastgroup
        pos = match.end()
        if kind == "ws" or kind == "preproc":
            continue
        if kind == "newline":
            line += 1
            continue
        text = match.group()
        if kind == "comment":
            line += text.count("\n")
            continue
        if kind == "ident" and text in KEYWORDS:
            kind = "kw"
        yield Token(kind, text, line)  # type: ignore[arg-type]
    if pos < len(source):
        snippet = source[pos : pos + 20]
        raise LexError(f"line {line}: cannot tokenize {snippet!r}")
