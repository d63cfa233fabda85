"""S-expression reader with source locations.

``read_many`` turns program text into a list of :class:`Syntax` objects.
Every node (atoms included) carries a line/column location so the compiler
and the contract system can point blame at precise source positions.

Supported syntax: proper and dotted lists, ``[`` ``]`` as list brackets,
integers (with sign), decimal floats, ``#t``/``#f``, strings with the usual
escapes, characters (``#\\a``, ``#\\space`` ...), line comments ``;``, block
comments ``#| ... |#``, datum comments ``#;``, and the quote family
``'``/`` ` ``/``,``/``,@``.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import List, Optional, Union

from repro.sexp.datum import (
    Char,
    Dotted,
    S_QUASIQUOTE,
    S_QUOTE,
    S_UNQUOTE,
    S_UNQUOTE_SPLICING,
    Symbol,
    intern,
)


class SrcLoc:
    """A source position: 1-based line, 0-based column."""

    __slots__ = ("line", "col", "source")

    def __init__(self, line: int, col: int, source: str = "<string>"):
        self.line = line
        self.col = col
        self.source = source

    def __repr__(self) -> str:
        return f"{self.source}:{self.line}:{self.col}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SrcLoc)
            and (other.line, other.col, other.source)
            == (self.line, self.col, self.source)
        )


class Syntax:
    """A datum annotated with its source location.

    For list syntax, ``datum`` is a Python list of child ``Syntax`` nodes;
    atoms hold the raw datum.  :meth:`strip` recursively removes locations.
    """

    __slots__ = ("datum", "loc")

    def __init__(self, datum, loc: Optional[SrcLoc]):
        self.datum = datum
        self.loc = loc

    def is_list(self) -> bool:
        return isinstance(self.datum, list)

    def strip(self):
        if isinstance(self.datum, list):
            return [child.strip() for child in self.datum]
        if isinstance(self.datum, Dotted):
            return Dotted(
                tuple(child.strip() for child in self.datum.items),
                self.datum.tail.strip(),
            )
        return self.datum

    def __repr__(self) -> str:
        return f"#<syntax {self.strip()!r} at {self.loc}>"


class ReaderError(SyntaxError):
    """Raised on malformed input, with the offending location."""

    def __init__(self, message: str, loc: Optional[SrcLoc]):
        where = f" at {loc}" if loc is not None else ""
        super().__init__(f"{message}{where}")
        self.loc = loc


_DELIMITERS = "()[]\"';` \t\n\r,"
_DELIMS = set(_DELIMITERS)

# Whitespace and ``;`` line comments, then the opening ``#|`` or ``#;``
# of a block or datum comment, if one follows (group 1): those nest or
# hold a datum, so the reader skips them itself.
_ATMOSPHERE = re.compile(r"(?:[ \t\n\r]+|;[^\n]*)*(#[|;])?")
# Symbol, number and ``#t``/``#f``/character-name text: up to a delimiter.
_SYMBOL_TEXT = re.compile(f"[^{re.escape(_DELIMITERS)}]*")
_STRING_RUN = re.compile(r'[^"\\]*')
_BLOCK_MARK = re.compile(r"#\||\|#")

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}

_QUOTE_SUGAR = {
    "'": S_QUOTE,
    "`": S_QUASIQUOTE,
    ",": S_UNQUOTE,
    ",@": S_UNQUOTE_SPLICING,
}


class _Reader:
    """Scans ``text`` by position only; :meth:`loc` derives line and
    column from ``pos`` through an index of line starts."""

    def __init__(self, text: str, source: str):
        self.text = text
        self.end = len(text)
        self.pos = 0
        self.source = source
        starts = [0]
        nl = text.find("\n")
        while nl >= 0:
            starts.append(nl + 1)
            nl = text.find("\n", nl + 1)
        self.line_starts = starts

    # -- low level ---------------------------------------------------------

    def loc(self) -> SrcLoc:
        pos = self.pos
        line = bisect_right(self.line_starts, pos)
        return SrcLoc(line, pos - self.line_starts[line - 1], self.source)

    def peek(self) -> str:
        return self.text[self.pos : self.pos + 1]

    def skip_atmosphere(self) -> None:
        """Skip whitespace and comments (line, block, and datum comments)."""
        text = self.text
        while True:
            atmosphere = _ATMOSPHERE.match(text, self.pos)
            self.pos = atmosphere.end()
            if atmosphere.lastindex is None:
                return
            if text[self.pos - 1] == "|":
                self._skip_block_comment()
            else:
                self.read()  # '#;': discard the next datum

    def _skip_block_comment(self) -> None:
        """Skip to the ``|#`` closing the ``#|`` that ends at ``pos``."""
        pos = self.pos
        depth = 1
        while depth > 0:
            mark = _BLOCK_MARK.search(self.text, pos)
            if mark is None:
                self.pos -= 2  # the opening '#|'
                raise ReaderError("unterminated block comment", self.loc())
            depth += 1 if mark.group() == "#|" else -1
            pos = mark.end()
        self.pos = pos

    # -- datums ------------------------------------------------------------

    def read(self) -> Optional[Syntax]:
        self.skip_atmosphere()
        if self.pos >= self.end:
            return None
        return self._datum()

    def _datum(self) -> Syntax:
        """The datum at ``pos``, past any atmosphere and before the end."""
        loc = self.loc()
        ch = self.text[self.pos]
        if ch in "([":
            return self._read_list(")" if ch == "(" else "]", loc)
        if ch in ")]":
            raise ReaderError(f"unexpected '{ch}'", loc)
        if ch == '"':
            return Syntax(self._read_string(loc), loc)
        if ch == "'" or ch == "`":
            self.pos += 1
            return self._sugar(_QUOTE_SUGAR[ch], loc)
        if ch == ",":
            self.pos += 1
            if self.peek() == "@":
                self.pos += 1
                return self._sugar(S_UNQUOTE_SPLICING, loc)
            return self._sugar(S_UNQUOTE, loc)
        if ch == "#":
            return self._read_hash(loc)
        return Syntax(self._read_atom(loc), loc)

    def _sugar(self, head: Symbol, loc: SrcLoc) -> Syntax:
        inner = self.read()
        if inner is None:
            raise ReaderError(f"missing datum after {head.name} sugar", loc)
        return Syntax([Syntax(head, loc), inner], loc)

    def _read_list(self, closer: str, loc: SrcLoc) -> Syntax:
        self.pos += 1
        items: List[Syntax] = []
        tail: Optional[Syntax] = None
        while True:
            self.skip_atmosphere()
            if self.pos >= self.end:
                raise ReaderError("unterminated list", loc)
            ch = self.text[self.pos]
            if ch in ")]":
                if ch != closer:
                    raise ReaderError(
                        f"mismatched bracket: expected '{closer}', got '{ch}'",
                        self.loc(),
                    )
                self.pos += 1
                break
            if ch == "." and self._dot_is_delimited():
                self.pos += 1
                tail = self.read()
                if tail is None:
                    raise ReaderError("missing datum after '.'", loc)
                self.skip_atmosphere()
                if self.peek() != closer:
                    raise ReaderError("expected close bracket after dotted tail", loc)
                self.pos += 1
                break
            items.append(self._datum())
        if tail is None:
            return Syntax(items, loc)
        if not items:
            raise ReaderError("dotted list needs at least one item", loc)
        return Syntax(Dotted(tuple(items), tail), loc)

    def _dot_is_delimited(self) -> bool:
        nxt = self.text[self.pos + 1 : self.pos + 2]
        return nxt == "" or nxt in _DELIMS

    def _read_string(self, loc: SrcLoc) -> str:
        text = self.text
        pos = self.pos + 1
        chunks: List[str] = []
        while True:
            run = _STRING_RUN.match(text, pos)
            chunks.append(run.group())
            pos = run.end()
            # A closing quote, a backslash with its escaped character, or
            # the end of the text (also right after a lone backslash).
            esc = text[pos + 1 : pos + 2]
            if pos >= self.end or (text[pos] == "\\" and not esc):
                raise ReaderError("unterminated string", loc)
            if text[pos] == '"':
                self.pos = pos + 1
                return "".join(chunks)
            chunks.append(_ESCAPES.get(esc, esc))
            pos += 2

    def _read_hash(self, loc: SrcLoc) -> Syntax:
        self.pos += 1  # '#'
        ch = self.peek()
        if ch == "t":
            self._read_symbol_text()
            return Syntax(True, loc)
        if ch == "f":
            self._read_symbol_text()
            return Syntax(False, loc)
        if ch == "\\":
            self.pos += 1
            if self.pos >= self.end:
                raise ReaderError("unterminated character literal", loc)
            first = self.text[self.pos]
            self.pos += 1
            rest = ""
            if first.isalpha():
                rest = self._read_symbol_text()
            try:
                return Syntax(Char.named(first + rest), loc)
            except ValueError as exc:
                raise ReaderError(str(exc), loc) from exc
        raise ReaderError(f"unsupported '#' syntax: #{ch}", loc)

    def _read_symbol_text(self) -> str:
        match = _SYMBOL_TEXT.match(self.text, self.pos)
        self.pos = match.end()
        return match.group()

    def _read_atom(self, loc: SrcLoc):
        match = _SYMBOL_TEXT.match(self.text, self.pos)
        self.pos = match.end()
        text = match.group()
        if not text:
            raise ReaderError("empty atom", loc)
        number = _parse_number(text)
        if number is not None:
            return number
        return intern(text)


def _parse_number(text: str) -> Optional[Union[int, float]]:
    body = text[1:] if text[0] in "+-" else text
    if not body:
        return None
    if body.isdigit():
        return int(text)
    if body.replace(".", "", 1).isdigit() and "." in body:
        return float(text)
    return None


def read_many(text: str, source: str = "<string>") -> List[Syntax]:
    """Read every datum in ``text``."""
    reader = _Reader(text, source)
    out: List[Syntax] = []
    while True:
        stx = reader.read()
        if stx is None:
            return out
        out.append(stx)


def read(text: str, source: str = "<string>") -> Syntax:
    """Read exactly one datum from ``text``."""
    forms = read_many(text, source)
    if len(forms) != 1:
        raise ReaderError(f"expected exactly one datum, got {len(forms)}", None)
    return forms[0]
