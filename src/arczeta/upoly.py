"""Exact arithmetic in Z[u].

Every invariant computed by this package is an integer polynomial in a
single formal variable ``u``.  The representation is a sparse mapping
``exponent -> nonzero coefficient``; Python integers are arbitrary
precision, so arithmetic can never overflow silently.

Division is deliberately not implemented: all quotient-shaped
expressions are built with :func:`geom_sum`.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Mapping

__all__ = ["UPoly", "geom_sum", "u_pow", "u_sum", "U", "U_MINUS_1", "ONE", "ZERO", "NEG_INFINITY"]

NEG_INFINITY = float("-inf")


class UPoly:
    """An immutable polynomial in u with integer coefficients.

    ``_c`` maps each exponent to its nonzero coefficient.  ``_text`` holds
    the rendering once ``str`` has been asked for it, and ``_hash`` the
    hash once ``hash`` has; until then each slot is empty, so building a
    polynomial never pays for either.  A table interns its cell values by
    hash, over and over for the same cached polynomials, so each hashes
    its coefficients once.  Pickling and copying rebuild a polynomial
    from its coefficients alone.
    """

    __slots__ = ("_c", "_text", "_hash")

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        c: dict[int, int] = {}
        for exp, coef in items:
            if exp < 0:
                raise ValueError(f"negative exponent {exp}")
            if not isinstance(exp, int) or not isinstance(coef, int):
                raise TypeError("exponents and coefficients must be int")
            if coef:
                c[exp] = c.get(exp, 0) + coef
                if not c[exp]:
                    del c[exp]
        object.__setattr__(self, "_c", c)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("UPoly is immutable")

    def __reduce__(self) -> tuple:
        return UPoly, (self._c,)

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, n: int) -> UPoly:
        if type(n) is int:
            return _raw({0: n} if n else {})
        return cls({0: n})

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int | float:
        """Largest stored exponent; −∞ for the zero polynomial."""
        return max(self._c) if self._c else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self._c

    def coeff(self, exp: int) -> int:
        return self._c.get(exp, 0)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._c.items()))

    # -- ring operations -----------------------------------------------

    def __add__(self, other: UPoly | int) -> UPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        c = dict(self._c)
        for exp, coef in other._c.items():
            s = c.get(exp, 0) + coef
            if s:
                c[exp] = s
            elif exp in c:
                del c[exp]
        return _raw(c)

    __radd__ = __add__

    def __neg__(self) -> UPoly:
        return _raw({e: -k for e, k in self._c.items()})

    def __sub__(self, other: UPoly | int) -> UPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: UPoly | int) -> UPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: UPoly | int) -> UPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        c: dict[int, int] = {}
        for e1, k1 in self._c.items():
            for e2, k2 in other._c.items():
                e = e1 + e2
                s = c.get(e, 0) + k1 * k2
                if s:
                    c[e] = s
                elif e in c:
                    del c[e]
        return _raw(c)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> UPoly:
        if n < 0:
            raise ValueError("negative power")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = UPoly.const(other)
        if not isinstance(other, UPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            # a constant hashes as its int, since it compares equal to it
            c = self._c
            if not c or (len(c) == 1 and 0 in c):
                h = hash(c.get(0, 0))
            else:
                h = hash(frozenset(c.items()))
            object.__setattr__(self, "_hash", h)
            return h

    def __bool__(self) -> bool:
        return bool(self._c)

    # -- evaluation ------------------------------------------------------

    def eval_at(self, x: int) -> int:
        """Evaluate at an integer point (a ring homomorphism Z[u] -> Z)."""
        total = 0
        for exp, coef in self._c.items():
            total += coef * x**exp
        return total

    # -- rendering / parsing ----------------------------------------------

    def __str__(self) -> str:
        try:
            return self._text
        except AttributeError:
            text = self._render()
            object.__setattr__(self, "_text", text)
            return text

    def _render(self) -> str:
        if not self._c:
            return "0"
        parts: list[str] = []
        for exp in sorted(self._c, reverse=True):
            coef = self._c[exp]
            mag = abs(coef)
            if exp == 0:
                body = str(mag)
            else:
                upart = "u" if exp == 1 else f"u^{exp}"
                body = upart if mag == 1 else f"{mag}*{upart}"
            if not parts:
                parts.append(body if coef > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if coef > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"UPoly({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> UPoly:
        """Parse the canonical rendering (and benign whitespace variants).

        Each term is a sign (optional on the first term only), then a
        magnitude, ``u`` or ``u^exponent``, or both with an optional ``*``
        between them; blanks and tabs may surround the sign, the magnitude
        and the ``*``.
        """
        s = text.strip()
        if not s:
            raise ValueError("empty polynomial text")
        coeffs: dict[int, int] = {}
        pos = 0
        while pos < len(s):
            m = _TERM.match(s, pos)
            sign, mag, star, upart, exp = m.groups()
            if not (sign or pos == 0) or not (mag or upart) or (star and not upart):
                raise ValueError(f"expected a term at position {pos} in {text!r}")
            e = (int(exp) if exp else 1) if upart else 0
            c = int(mag) if mag else 1
            coeffs[e] = coeffs.get(e, 0) + (-c if sign == "-" else c)
            pos = m.end()
        return cls(coeffs)


# one term of UPoly.parse: sign, magnitude, '*', 'u' and exponent
_TERM = re.compile(r"[ \t]*([+-]?)[ \t]*(?:(\d+)[ \t]*(\*[ \t]*)?)?(u(?:\^(\d+))?)?[ \t]*")


def _raw(c: dict[int, int]) -> UPoly:
    p = UPoly.__new__(UPoly)
    object.__setattr__(p, "_c", c)
    return p


def _coerce(x: UPoly | int) -> UPoly:
    if isinstance(x, UPoly):
        return x
    if isinstance(x, int):
        return UPoly.const(x)
    return NotImplemented  # type: ignore[return-value]


_ZERO = _raw({})
_ONE = _raw({0: 1})

ZERO = _ZERO
ONE = _ONE
U = _raw({1: 1})
#: beta of the punctured line R \ {0}
U_MINUS_1 = U - 1


def u_pow(k: int) -> UPoly:
    """The monomial u^k."""
    if not isinstance(k, int):
        raise TypeError("exponents and coefficients must be int")
    if k < 0:
        raise ValueError(f"negative exponent {k}")
    return _raw({k: 1})


def u_sum(polys: Iterable[UPoly]) -> UPoly:
    """The sum of ``polys``, added up in one coefficient map."""
    c: dict[int, int] = {}
    for p in polys:
        for exp, coef in p._c.items():
            c[exp] = c.get(exp, 0) + coef
    return _raw({e: k for e, k in c.items() if k})


def geom_sum(step: int, terms: int) -> UPoly:
    """Sum_{s=0}^{terms-1} u^{s*step}, the division-free geometric sum.

    geom_sum(0, m) is the constant m; geom_sum(k, 0) is 0.
    """
    if step < 0 or terms < 0:
        raise ValueError("step and terms must be non-negative")
    c: dict[int, int] = {}
    for s in range(terms):
        e = s * step
        c[e] = c.get(e, 0) + 1
    return UPoly(c)
