"""Tokenizer for MiniOO source and for invariant predicate strings.

One regular-expression match per token: the whitespace, comments and line
breaks before a token are skipped inside its match, never by a pass of the
Python loop.  A token's column is its offset from the start of its line."""

from __future__ import annotations

import re

from .diagnostics import Diagnostic, ParseError
from .syntax import Record

KEYWORDS = frozenset(
    "class interface extends implements abstract public protected private void if else while return"
    " new null true false this super driver print forall".split()
)

# One match per token: the skipped text comes first, and group 1 ends at its last line break.
# Multi-character operators come before their prefixes.
_TOKEN_RE = re.compile(
    r"""
    (?:[ \t\r]+ | //[^\n]* | (\n))*+
    (?: (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<OP>==|!=|<=|>=|&&|\|\||[-+*/!<>=(){},;.:])
      | (?P<INT>[0-9]+)
      | (?P<STRING>"(?:\\.|[^"\\\n])*")
      | (?P<AT>@[A-Za-z_][A-Za-z0-9_]*)
      | (?P<EOF>\Z)
      | (?P<BAD>) )
    """,
    re.VERBOSE,
)

_KINDS = {number: kind for kind, number in _TOKEN_RE.groupindex.items()}
_KEYWORD = dict.fromkeys(KEYWORDS, "KEYWORD")  # the kind of a keyword's text, which only IDENT matches
_RARE = frozenset({"STRING", "AT", "EOF", "BAD"})  # the kinds whose text is not the token's value
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\", "r": "\r"}


class Token(Record):
    """`kind` is KEYWORD, IDENT, INT, STRING, OP, AT or EOF."""

    __slots__ = ("kind", "value", "line", "col")
    def __init__(self, kind: str, value: str, line: int, col: int):
        self.kind, self.value, self.line, self.col = kind, value, line, col


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
    line, start = 1, 0  # the current line and the offset where it starts
    for m in _TOKEN_RE.finditer(source):
        at, text = m.start(group := m.lastindex), m[group]
        kind = _KEYWORD.get(text) or _KINDS[group]
        if m.start(1) >= 0:  # line breaks were skipped
            line += source.count("\n", m.start(), at)
            start = m.end(1)
        if kind in _RARE:
            if kind == "STRING":
                text = _unescape(text, line, at - start + 1)
            elif kind == "AT":
                text = text[1:]
            elif kind == "EOF":
                break
            else:
                message = "unexpected character %r" % source[at]
                raise ParseError(Diagnostic("syntax", message, line, at - start + 1))
        tokens.append(Token(kind, text, line, at - start + 1))
    tokens.append(Token("EOF", "", line, at - start + 1))
    return tokens
