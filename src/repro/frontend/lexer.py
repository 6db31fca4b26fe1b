"""Lexer for the front-end source language.

The language is the one the paper's examples are written in (Figure 3)::

    {
        b = 15;
        a = b * a;
    }

Assignment statements over integer constants, scalar variables, the four
binary arithmetic operators, unary minus, and parentheses.  Braces around
the block are optional; ``//`` and ``/* ... */`` comments are accepted.
The bounded counting loop ``for i in 0..N { ... }`` adds the ``..`` range
token (``DOTDOT``).
"""

from __future__ import annotations

import enum
import re
from typing import List

from ..record import Record, setslot


class TokenKind(enum.Enum):
    IDENT = "identifier"
    NUMBER = "number"
    ASSIGN = "="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    SEMI = ";"
    DOTDOT = ".."
    EOF = "end of input"


class Token(Record):
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: TokenKind, text: str, line: int, column: int):
        setslot(self, "kind", kind)
        setslot(self, "text", text)
        setslot(self, "line", line)
        setslot(self, "column", column)

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})@{self.line}:{self.column}"


class LexError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


_SINGLE = {
    "=": TokenKind.ASSIGN,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    ";": TokenKind.SEMI,
}

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_NUMBER_RE = re.compile(r"\d+")


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source``; the result always ends with an EOF token."""
    tokens: List[Token] = []
    line = 1
    col = 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            end = source.find("\n", i)
            i = n if end == -1 else end
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end == -1:
                raise LexError("unterminated block comment", line, col)
            skipped = source[i : end + 2]
            newlines = skipped.count("\n")
            if newlines:
                line += newlines
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
            i = end + 2
            continue
        if source.startswith("..", i):
            tokens.append(Token(TokenKind.DOTDOT, "..", line, col))
            i += 2
            col += 2
            continue
        if ch in _SINGLE:
            tokens.append(Token(_SINGLE[ch], ch, line, col))
            i += 1
            col += 1
            continue
        m = _NUMBER_RE.match(source, i)
        if m:
            tokens.append(Token(TokenKind.NUMBER, m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        m = _IDENT_RE.match(source, i)
        if m:
            tokens.append(Token(TokenKind.IDENT, m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        raise LexError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token(TokenKind.EOF, "", line, col))
    return tokens
