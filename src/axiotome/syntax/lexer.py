"""Tokenizer for Axiotome source text.

The lexical notes of ``docs/grammar.ebnf`` are the specification: each
lexical class there is one named group of ``_TOKEN``, tried in order.  ASCII
aliases become their glyphs in token lexemes, and ``.`` inside ``$``- and
``¶``-prefixed names becomes ``°``.  Comments are trivia on the next token,
so comments at the end of input are dropped.  Newlines are tokens only at
bracket-nesting depth zero, where they can delimit statements, axioms and
proof steps; the parser treats them like ``;``.
"""

from __future__ import annotations

import re

from ..diagnostics import DiagnosticError, Span, error
from .nodes import Token, TokenKind

KEYWORDS = frozenset({
    "type", "function", "allowing", "operator", "theorem",
    "proof", "by", "cases", "of", "using", "case", "via",
})

#: Glyphs that may be declared as infix operators.
OPERATOR_GLYPHS = frozenset({"∨", "∧"})

#: ASCII spellings of glyphs; ``forall`` and ``in`` are therefore reserved.
_ALIASES = {"forall": "∀", "in": "∈", ":=": "≡", "<->": "↔", "\\/": "∨", "/\\": "∧"}

#: One group per lexical class; digraphs come before the single glyphs, and
#: ``error`` takes any character the classes before it reject.
_TOKEN = re.compile(r"""
    (?P<space>[ \t\r]+)
  | (?P<newline>\n)
  | (?P<comment>//[^\n]*|/\*(?s:.*?)\*/)
  | (?P<axiom>\$[A-Za-z][A-Za-z0-9°.]*)
  | (?P<theorem>¶[A-Za-z][A-Za-z0-9°.]*)
  | (?P<word>[A-Za-z][A-Za-z0-9°]*)
  | (?P<number>[0-9]+)
  | (?P<symbol>:=|<->|\\/|/\\|[≡↔∀∈∨∧()\[\]:;,.=^])
  | (?P<error>.)
""", re.VERBOSE)

_KINDS = {"axiom": TokenKind.AXIOM_NAME, "theorem": TokenKind.THEOREM_NAME, "number": TokenKind.NUMBER}


def _failure(source: str, offset: int, file: str, line: int, col: int) -> DiagnosticError:
    ch = source[offset]
    if source.startswith("/*", offset):
        message, length = "unterminated block comment", 2
    elif ch in "$¶":
        message, length = f"expected a name after {ch!r}", 1
    else:
        message, length = f"illegal character {ch!r}", 1
    return DiagnosticError(error("E-SYNTAX", message, Span(file, line, col, length)))


def tokenize(source: str, file: str = "<input>") -> list[Token]:
    """Tokenize ``source``; raises DiagnosticError on lexical errors."""
    tokens: list[Token] = []
    trivia: tuple[str, ...] = ()
    line, line_start, depth = 1, 0, 0
    for match in _TOKEN.finditer(source):
        group, text, start = match.lastgroup, match.group(), match.start()
        if group == "space":
            continue
        col = start - line_start + 1
        if group == "newline":
            # Collapse runs; never start the stream with a separator.
            if depth == 0 and tokens and tokens[-1].kind is not TokenKind.NEWLINE:
                tokens.append(Token(TokenKind.NEWLINE, text, Span(file, line, col, 1), trivia))
                trivia = ()
            line, line_start = line + 1, start + 1
            continue
        if group == "comment":
            trivia += (text,)
            if "\n" in text:
                line += text.count("\n")
                line_start = start + text.rindex("\n") + 1
            continue
        if group == "error":
            raise _failure(source, start, file, line, col)
        lexeme = _ALIASES.get(text, text)
        if group == "word":
            kind = (TokenKind.KEYWORD if text in KEYWORDS
                    else TokenKind.SYMBOL if text in _ALIASES else TokenKind.IDENT)
        elif group == "symbol":
            kind = TokenKind.SYMBOL
            if text in "([":
                depth += 1
            elif text in ")]":
                depth = max(0, depth - 1)
        else:
            kind, lexeme = _KINDS[group], text.replace(".", "°")
        tokens.append(Token(kind, lexeme, Span(file, line, col, len(text)), trivia))
        trivia = ()
    return tokens
