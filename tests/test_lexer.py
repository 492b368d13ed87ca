"""The tokenizer: one match per token, positions from the start of each line."""

import random

import pytest

from invweave.diagnostics import ParseError
from invweave.lexer import Token, tokenize

from helpers import CORPUS


def test_tokens_of_each_kind_with_their_positions():
    source = 'classy class\r\n  @field("a\\"b") // c\n\tx>=-12;'
    assert tokenize(source) == [
        Token("IDENT", "classy", 1, 1),
        Token("KEYWORD", "class", 1, 8),
        Token("AT", "field", 2, 3),
        Token("OP", "(", 2, 9),
        Token("STRING", 'a"b', 2, 10),
        Token("OP", ")", 2, 16),
        Token("IDENT", "x", 3, 2),
        Token("OP", ">=", 3, 3),
        Token("OP", "-", 3, 5),
        Token("INT", "12", 3, 6),
        Token("OP", ";", 3, 8),
        Token("EOF", "", 3, 9),
    ]


@pytest.mark.parametrize(
    "source, where",
    [
        ("x = 1 # 2;", "1:7: error [syntax] unexpected character '#'"),
        ("\n\n  $", "3:3: error [syntax] unexpected character '$'"),
        ("a\r\n\t@ b", "2:2: error [syntax] unexpected character '@'"),
        ("// comment é\n  é", "2:3: error [syntax] unexpected character 'é'"),
        ('print("abc);', "1:7: error [syntax] unexpected character '\"'"),
        ('print("a\\qb");', "1:7: error [syntax] unknown escape sequence \\q"),
        ('x\n  y // z\n\n "ok" &', "4:7: error [syntax] unexpected character '&'"),
        ("a | b", "1:3: error [syntax] unexpected character '|'"),
    ],
)
def test_bad_characters_are_reported_where_they_are(source, where):
    with pytest.raises(ParseError) as exc:
        tokenize(source)
    assert str(exc.value) == where


FRAGMENTS = ["{", "}", "(", ")", ";", ".", "\n", " ", "\t", "\r\n", "// note", "0", "42", "x", "if", "@field",
             '"s"', '"a\\nb"', "==", "&&", "<", "-"]


def test_every_token_sits_at_its_own_text_in_mutated_corpus_files():
    rng = random.Random(0x1E7)
    lexed = 0
    for path in sorted(CORPUS.glob("*/*.moo")):
        for _ in range(40):
            source = path.read_text()
            for _ in range(rng.randint(1, 4)):
                at = rng.randint(0, len(source))
                cut = rng.randint(0, 6) * (rng.random() < 0.5)
                source = source[:at] + rng.choice(FRAGMENTS) + source[at + cut:]
            try:
                tokens = tokenize(source)
            except ParseError:
                continue  # a cut left an unfinished string or a lone `&`
            lexed += 1
            starts = [0] + [i + 1 for i, ch in enumerate(source) if ch == "\n"]  # the offset of each line
            for t in tokens[:-1]:
                at = starts[t.line - 1] + t.col - 1
                text = {"AT": "@" + t.value, "STRING": '"'}.get(t.kind, t.value)
                assert source.startswith(text, at), (path.name, t)
            eof = tokens[-1]
            assert (eof.kind, eof.value, starts[eof.line - 1] + eof.col - 1) == ("EOF", "", len(source))
    assert lexed > 400
