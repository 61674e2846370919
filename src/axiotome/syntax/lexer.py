"""Scanner for Axiotome source text.

The lexical notes of ``docs/grammar.ebnf`` are the specification: each
lexical class there is one alternative of ``_PIECE``, tried in order.  ASCII
aliases become their glyphs in token lexemes, and ``.`` inside ``$``- and
``¶``-prefixed names becomes ``°``.  Comments are trivia on the next token,
so comments at the end of input are dropped.  Newlines are tokens only at
bracket-nesting depth zero, where they can delimit statements, axioms and
proof steps; the parser treats them like ``;``.

``scan`` turns the source into parallel flat lists of token kinds, lexemes
and offsets, with the per-token work done by C-level ``map`` and
``accumulate`` pipelines rather than a Python loop; only newlines, comments
and illegal characters are visited one by one.  A proof step restates most
of the step before it, so a step term that is an application whose text
the file already holds earlier is not split into tokens: it becomes one
``recall`` token, which the parser looks up in its memo by its text, and
whose own tokens ``Scan.unfold`` gives on a miss.  A line/column ``Span`` is
made only on request, from a token's offset and a table of line starts, and
a term's ``Spans`` make theirs the same way when read.  ``tokenize`` builds
the public ``Token`` list from a scan that recalls nothing; the parser reads
the scan's lists directly.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate, compress, count, repeat
from operator import add, itemgetter, sub

from ..diagnostics import DiagnosticError, Span, error
from .nodes import Token, TokenKind

KEYWORDS = frozenset({
    "type", "function", "allowing", "operator", "theorem",
    "proof", "by", "cases", "of", "using", "case", "via",
})

#: Glyphs that may be declared as infix operators.
OPERATOR_GLYPHS = frozenset({"∨", "∧"})

#: ASCII spellings of glyphs; ``forall`` and ``in`` are therefore reserved.
#: ``.`` maps to itself so that only names turn it into ``°``.
ALIASES = {"forall": "∀", "in": "∈", ":=": "≡", "<->": "↔", "\\/": "∨", "/\\": "∧", ".": "."}

_BLANKS = " \t\r"

#: One alternative per lexical class, each after a run of blanks; digraphs
#: come before the single glyphs, and the last alternative takes any
#: character the classes before it reject.  Applied to the source without
#: its trailing blanks, the pieces cover it exactly.
_PIECE = re.compile(r"""[ \t\r]*(?:
    \n
  | //[^\n]* | /\*(?s:.*?)\*/
  | [$¶][A-Za-z][A-Za-z0-9°.]*
  | [A-Za-z][A-Za-z0-9°]*
  | [0-9]+
  | :=|<->|\\/|/\\|[≡↔∀∈∨∧()\[\]:;,.=^]
  | .)""", re.VERBOSE)

#: The root of a proof step's term where it is an application: a line's
#: ``<digits> .``, then ``head(``, up to the first run of closing brackets
#: on that line.  Group 1 is the blanks before the head, group 2 the run.
#: Starting at the newline, not at ``^``, lets the search skip to each one.
_STEP_ROOT = re.compile(r"\n[ \t\r]*[0-9]+[ \t\r]*\.([ \t\r]*)[A-Za-z][A-Za-z0-9°]*\([^)\]\n]*([)\]]+)")
#: A run of closing brackets.
_CLOSERS = re.compile(r"[)\]]+")

#: How far back a step term's text is looked for: this many times the sum
#: of its length and 256 characters, so that a short step finds its copy
#: in a case or a theorem before its own.
RECALL_WINDOW = 4

#: Scan kinds are the ``TokenKind`` values, plus three that never become
#: tokens.  Plain strings hash in C, which the scan's set lookups rely on.
KEYWORD, IDENT, AXIOM_NAME, THEOREM_NAME, SYMBOL, NUMBER, NEWLINE, EOF = (
    k.value for k in TokenKind)
COMMENT, ILLEGAL, RECALL = "comment", "illegal", "recall"
_TOKEN_KINDS = {k.value: k for k in TokenKind}

#: The kind of a whole piece, where that alone decides it ...
_KIND_OF = {
    **dict.fromkeys(KEYWORDS, KEYWORD),
    **dict.fromkeys(ALIASES, SYMBOL),
    **dict.fromkeys("≡↔∀∈∨∧()[]:;,=^", SYMBOL),
    "\n": NEWLINE, "$": ILLEGAL, "¶": ILLEGAL, "/": ILLEGAL,
}
#: ... and otherwise of its first character; anything else is illegal.
_KIND_OF_FIRST = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz", IDENT),
    **dict.fromkeys("0123456789", NUMBER),
    "$": AXIOM_NAME, "¶": THEOREM_NAME, "/": COMMENT,
}
_SPECIAL = frozenset({NEWLINE, COMMENT, ILLEGAL})
_DEPTH = {"(": 1, "[": 1, ")": -1, "]": -1}


class Scan:
    """The tokens of ``source`` as parallel lists, ending in an EOF entry:
    ``kinds`` (``TokenKind`` values, or ``RECALL``), ``lexemes``,
    ``starts`` (offsets into the source) and ``texts`` (the source text of
    each lexeme, before aliasing); ``trivia`` maps a token's index to the
    comments before it."""

    __slots__ = ("file", "source", "kinds", "lexemes", "starts", "texts", "trivia", "line_starts")

    def __init__(self, file: str, source: str, kinds: list[str], lexemes: list[str], starts: list[int],
                 texts: list[str], trivia: dict[int, tuple[str, ...]], line_starts: list[int]) -> None:
        self.file, self.source, self.kinds, self.lexemes, self.starts = file, source, kinds, lexemes, starts
        self.texts, self.trivia, self.line_starts = texts, trivia, line_starts

    def span(self, i: int) -> Span:
        """Line, column and source length of token ``i``."""
        return _span(self.file, self.line_starts, self.starts[i], len(self.texts[i]))

    def unfold(self, i: int) -> Scan:
        """The tokens of ``RECALL`` token ``i``'s text, as a scan of the
        same file whose offsets are the file's and whose EOF entry is at the
        text's end.  A recalled text holds no comment, and it opens and
        closes as many brackets, so it scans as it would in place."""
        start = self.starts[i]
        end = start + len(self.texts[i])
        return _scan(self.file, self.source, self.line_starts, _PIECE.findall(self.source, start, end), (),
                     start, end)


def _line_starts(source: str) -> list[int]:
    """The offset of each line's first character, then one past the end."""
    return list(accumulate(map(add, map(len, source.split("\n")), repeat(1)), initial=0))


#: A named tuple's own constructor, without its Python-level ``__new__``.
new_tuple = tuple.__new__


def _span(file: str, line_starts: list[int], start: int, length: int) -> Span:
    line = bisect_right(line_starts, start)
    return new_tuple(Span, (file, line, start - line_starts[line - 1] + 1, length))


class Spans:
    """The spans of a term's nodes in pre-order, as a read-only sequence.
    It keeps each node's source offset and length, and makes a node's
    ``Span`` only when it is read, from the file's table of line starts."""

    __slots__ = ("file", "line_starts", "offsets", "lengths")

    def __init__(self, file: str, line_starts: list[int], offsets: list[int], lengths: list[int]) -> None:
        self.file, self.line_starts, self.offsets, self.lengths = file, line_starts, offsets, lengths

    def __len__(self) -> int:
        return len(self.offsets)

    def __getitem__(self, i: int) -> Span:
        return _span(self.file, self.line_starts, self.offsets[i], self.lengths[i])


def _failure(source: str, offset: int, span: Span) -> DiagnosticError:
    ch = source[offset]
    if source.startswith("/*", offset):
        message, span = "unterminated block comment", span._replace(length=2)
    elif ch in "$¶":
        message = f"expected a name after {ch!r}"
    else:
        message = f"illegal character {ch!r}"
    return DiagnosticError(error("E-SYNTAX", message, span))


def _close(text: str, at: int, depth: int, limit: int) -> int:
    """One past the bracket that closes the last of ``depth`` brackets open
    at ``at``, ``(`` and ``[`` counted alike, or 0 if none does before
    ``limit``; a ``depth`` below 1 means the run of closing brackets just
    before ``at`` closed them with ``-depth`` to spare.  Each run of
    closing brackets is jumped to, and the opening ones before it are
    counted."""
    while depth > 0:
        run = _CLOSERS.search(text, at, limit)
        if run is None:
            return 0
        close, after = run.span()
        depth += text.count("(", at, close) + text.count("[", at, close) - (after - close)
        at = after
    return at + depth


def _step_pieces(text: str) -> tuple[list[str], list[int]]:
    """The pieces of ``text``, where each proof-step term that is an
    application written earlier in the file is one piece, and the indices
    of those pieces.

    Only the text before the first ``/`` is searched for step roots, so no
    such piece holds a comment or a ``/\\`` or ``\\/``, and the earlier copy
    is tokenized, or recalled in turn, with the same pieces as this one
    would be: a lexical error never lies first in a recalled text.  The
    copy is looked for only within ``RECALL_WINDOW`` times the text's length
    before it, and a root inside the brackets of one before it is passed
    over, so the search stays linear in the text."""
    pieces: list[str] = []
    recalls: list[int] = []
    limit = text.find("/")
    if limit < 0:
        limit = len(text)
    done = end = 0  # the end of the pieces so far, and of the last root's text
    for root in _STEP_ROOT.finditer(text, 0, limit):
        dot, head = root.span(1)
        if dot < end:
            continue
        close, after = root.span(2)
        end = _close(text, after, text.count("(", head, close) + text.count("[", head, close) - (after - close), limit)
        if not end:
            break  # the rest of the text lies inside this root's brackets
        if text[end - 1] == ")" and text.rfind(
                text[head:end], max(0, head - RECALL_WINDOW * (end - head + 256)), head) >= 0:
            pieces += _PIECE.findall(text, done, dot)
            recalls.append(len(pieces))
            pieces.append(text[dot:end])
            done = end
    pieces += _PIECE.findall(text, done)
    return pieces, recalls


def scan(source: str, file: str = "<input>") -> Scan:
    """Scan ``source``, with a ``RECALL`` token for each proof-step term
    that is an application written earlier in the file; raises
    DiagnosticError on the first lexical error."""
    pieces, recalls = _step_pieces(source.rstrip(_BLANKS))
    return _scan(file, source, _line_starts(source), pieces, recalls, 0, len(source))


def _scan(file: str, source: str, line_starts: list[int], pieces: list[str], recalls: list[int] | tuple[int, ...],
          first: int, end: int) -> Scan:
    """The scan of ``pieces``, which cover the source from offset ``first``
    and are recall pieces at the indices ``recalls``; the EOF entry is at
    ``end``.  A recall piece opens and closes as many brackets."""
    texts = list(map(str.lstrip, pieces, repeat(_BLANKS)))
    ends = accumulate(map(len, pieces), initial=first)
    next(ends)
    starts = list(map(sub, ends, map(len, texts)))
    kinds = list(map(_KIND_OF.get, texts, map(_KIND_OF_FIRST.get, map(itemgetter(0), texts), repeat(ILLEGAL))))
    for i in recalls:
        kinds[i] = RECALL
    lexemes = list(map(ALIASES.get, texts, map(str.replace, texts, repeat("."), repeat("°"))))
    depths = list(accumulate(map(_DEPTH.get, texts, repeat(0))))
    special = list(compress(count(), map(_SPECIAL.__contains__, kinds)))
    trivia: dict[int, tuple[str, ...]] = {}
    dropped = []
    if special:
        # The bracket depth, where each unmatched closer is dropped, is the
        # running sum of the brackets less its running minimum where that
        # is below zero (Lindley's recursion); so the depth is zero where
        # the sum equals that minimum.
        low = 0
        comments: tuple[str, ...] = ()
        kept = done = 0
        after_newline = True  # a newline token follows only an ordinary token
        for i in special:
            if done < i:  # the ordinary tokens since the last special piece
                low = min(low, min(depths[done:i]))
                if comments:
                    trivia[kept], comments = comments, ()
                kept += i - done
                after_newline = False
            done = i + 1
            kind = kinds[i]
            if kind is ILLEGAL:
                raise _failure(source, starts[i], _span(file, line_starts, starts[i], 1))
            if kind is NEWLINE and depths[i] == low and not after_newline:
                after_newline = True
                if comments:
                    trivia[kept], comments = comments, ()
                kept += 1
                continue
            if kind is COMMENT:
                comments += (texts[i],)
            dropped.append(i)
        if comments and done < len(kinds):
            trivia[kept] = comments
    if dropped:
        keep = [True] * len(kinds)
        for i in dropped:
            keep[i] = False
        kinds, lexemes, starts, texts = (list(compress(column, keep)) for column in (kinds, lexemes, starts, texts))
    kinds.append(EOF)
    lexemes.append("<eof>")
    starts.append(end)
    texts.append("")
    return Scan(file, source, kinds, lexemes, starts, texts, trivia, line_starts)


def tokenize(source: str, file: str = "<input>") -> list[Token]:
    """Tokenize ``source``; raises DiagnosticError on lexical errors."""
    s = _scan(file, source, _line_starts(source), _PIECE.findall(source.rstrip(_BLANKS)), (), 0, len(source))
    starts = s.starts[:-1]
    lines = list(map(bisect_right, repeat(s.line_starts), starts))
    # The offset of column 0 of each line, indexed by line number.
    column_zero = [0] + [start - 1 for start in s.line_starts]
    columns = map(sub, starts, map(column_zero.__getitem__, lines))
    spans = map(new_tuple, repeat(Span), zip(repeat(file), lines, columns, map(len, s.texts)))
    kinds = map(_TOKEN_KINDS.__getitem__, s.kinds[:-1])
    trivia = map(s.trivia.get, range(len(starts)), repeat(()))
    return list(map(new_tuple, repeat(Token), zip(kinds, s.lexemes, spans, trivia)))
