"""Tokenizer for MiniOO source and for invariant predicate strings."""

from __future__ import annotations

import re

from .diagnostics import Diagnostic, ParseError
from .syntax import Frozen, set_field

KEYWORDS = frozenset(
    {
        "class",
        "interface",
        "extends",
        "implements",
        "abstract",
        "public",
        "protected",
        "private",
        "void",
        "if",
        "else",
        "while",
        "return",
        "new",
        "null",
        "true",
        "false",
        "this",
        "super",
        "driver",
        "print",
        "forall",
    }
)

# Order matters: multi-char operators before their prefixes.
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<nl>\n)
  | (?P<comment>//[^\n]*)
  | (?P<atident>@[A-Za-z_][A-Za-z0-9_]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<string>"(?:\\.|[^"\\\n])*")
  | (?P<op>==|!=|<=|>=|&&|\|\||[-+*/!<>=(){},;.:])
    """,
    re.VERBOSE,
)

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\", "r": "\r"}


class Token(Frozen):
    """`kind` is KEYWORD, IDENT, INT, STRING, OP, AT or EOF."""

    __slots__ = ("kind", "value", "line", "col", "_hash")
    def __init__(self, kind: str, value: str, line: int, col: int):
        set_field(self, "kind", kind)
        set_field(self, "value", value)
        set_field(self, "line", line)
        set_field(self, "col", col)


def _unescape(raw: str, line: int, col: int) -> str:
    out = []
    i = 1
    while i < len(raw) - 1:
        ch = raw[i]
        if ch == "\\":
            esc = raw[i + 1]
            if esc not in _ESCAPES:
                raise ParseError(
                    Diagnostic("syntax", "unknown escape sequence \\%s" % esc, line, col)
                )
            out.append(_ESCAPES[esc])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(
                Diagnostic("syntax", "unexpected character %r" % source[pos], line, col)
            )
        text = m.group(0)
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(text)
        elif kind == "ident":
            tk = "KEYWORD" if text in KEYWORDS else "IDENT"
            tokens.append(Token(tk, text, line, col))
            col += len(text)
        elif kind == "int":
            tokens.append(Token("INT", text, line, col))
            col += len(text)
        elif kind == "string":
            tokens.append(Token("STRING", _unescape(text, line, col), line, col))
            col += len(text)
        elif kind == "atident":
            tokens.append(Token("AT", text[1:], line, col))
            col += len(text)
        else:  # op
            tokens.append(Token("OP", text, line, col))
            col += len(text)
        pos = m.end()
    tokens.append(Token("EOF", "", line, col))
    return tokens
