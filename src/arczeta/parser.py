"""Recursive-descent parser for the germ expression language.

The surface syntax mirrors the report notation::

    germ   := family "(+)" "Q(" int "," int ")"
    family := "A(" k ("," sign)? ")"
            | "D(" k "," sign "," sign ")"
            | "E6(" sign ")" | "E7" | "E8"
            | "CUBE" | "G" | "Q"
            | "J(" k "," i (";" name "=" value ("," name "=" value)*)? ")"
    sign   := "+" | "-"

The sign of an A-germ may be omitted for even k (where both choices
name the same class) and defaults to "+".  ``Q`` as a family token is
accepted so corank-0 germs are expressible; it renders back the same
way.  Values are integers, fractions ("3/4"), or decimals ("0.25"),
kept exact.

Errors carry a 0-based ``position`` into the source text and a
``kind`` of either "syntax" (malformed token stream) or "semantic"
(well-formed but invalid germ data, e.g. ``D(3,+,+)``).
"""

from __future__ import annotations

from fractions import Fraction

from .germs import FAMILY, GermSpec

__all__ = ["GermParseError", "parse_germ"]

#: ``str.isdigit`` also holds for "²" and "٣", which ``int`` rejects or reads.
_DIGITS = frozenset("0123456789")

#: The family key of each surface token.
_FAMILY_OF = {fam.token: family for family, fam in FAMILY.items()}


class GermParseError(ValueError):
    """Raised for any rejection of a germ expression."""

    def __init__(self, message: str, position: int, kind: str = "syntax") -> None:
        super().__init__(f"{kind} error at position {position}: {message}")
        self.position = position
        self.kind = kind


class _Scanner:
    __slots__ = ("text", "pos")

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def expect(self, literal: str) -> None:
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            raise GermParseError(f"expected {literal!r}", self.pos)
        self.pos += len(literal)

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalnum():
            self.pos += 1
        if self.pos == start:
            raise GermParseError("expected a name", start)
        return self.text[start : self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if not self._digits():
            raise GermParseError("expected an integer", start)
        return int(self.text[start : self.pos])

    def sign(self) -> int:
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            s = 1 if self.text[self.pos] == "+" else -1
            self.pos += 1
            return s
        raise GermParseError("expected '+' or '-'", self.pos)

    def value(self) -> Fraction:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits_before = self._digits()
        if self.pos < len(self.text) and self.text[self.pos] in "./":
            self.pos += 1
            if not self._digits():
                raise GermParseError("expected digits after separator", self.pos)
        if not digits_before:
            raise GermParseError("expected a number", start)
        text = self.text[start : self.pos]
        try:
            return Fraction(text)
        except ZeroDivisionError as exc:
            raise GermParseError(f"zero denominator in {text!r}", start) from exc
        except ValueError as exc:
            raise GermParseError(str(exc), start) from exc

    def _digits(self) -> bool:
        """Skip a run of ASCII digits, the grammar's ``int``; True if any."""
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        return self.pos > start

    def peek_is(self, ch: str) -> bool:
        self.skip_ws()
        return self.pos < len(self.text) and self.text[self.pos] == ch


def _parse_family(s: _Scanner) -> dict:
    """A family token and its arguments: k, then i, then signs, comma-separated."""
    s.skip_ws()
    start = s.pos
    name = s.word()
    family = _FAMILY_OF.get(name)
    if family is None:
        raise GermParseError(f"unknown family {name!r}", start)
    fam = FAMILY[family]
    jki = family == "JKI"  # J alone takes an i and coefficient parameters
    numbers = ("k", "i")[: (fam.kmin is not None) + jki]
    fields: dict = {"family": family}
    if not numbers and not fam.nsigns:
        return fields
    s.expect("(")
    args: list[int] = []
    for pos in range(len(numbers) + fam.nsigns):
        if pos:
            if family == "AK" and not s.peek_is(","):
                break  # A's sign may be omitted
            s.expect(",")
        args.append(s.integer() if pos < len(numbers) else s.sign())
    fields.update(zip(numbers, args))
    fields["signs"] = tuple(args[len(numbers) :])
    if jki:
        params: list[tuple[str, Fraction]] = []
        if s.peek_is(";"):
            s.expect(";")
            while True:
                pname = s.word()
                s.expect("=")
                params.append((pname, s.value()))
                if not s.peek_is(","):
                    break
                s.expect(",")
        fields["params"] = tuple(params)
    s.expect(")")
    if family == "AK" and not fields["signs"]:
        # below A's least k, the spec's own k check gives the reason
        if fields["k"] % 2 and fields["k"] >= fam.kmin:
            raise GermParseError(
                f"A({fields['k']}) is ambiguous for odd k: give a sign", start, "semantic"
            )
        fields["signs"] = (1,)
    return fields


def parse_germ(text: str) -> GermSpec:
    """Parse one germ expression; raise :class:`GermParseError` otherwise."""
    s = _Scanner(text)
    s.skip_ws()
    family_start = s.pos
    fields = _parse_family(s)
    s.expect("(+)")
    s.expect("Q")
    s.expect("(")
    p = s.integer()
    s.expect(",")
    q = s.integer()
    s.expect(")")
    if not s.at_end():
        raise GermParseError("unexpected trailing input", s.pos)
    try:
        return GermSpec(sig=(p, q), **fields)
    except ValueError as exc:
        raise GermParseError(str(exc), family_start, "semantic") from exc
