"""Sparse multivariate polynomials over the rationals.

The stratification engine manipulates constraint polynomials in arc
coefficients.  Variables are integer labels; a monomial is a sorted
tuple of (variable, exponent) pairs.  Instances are treated as
immutable: every operation returns a new polynomial.

Coefficients are Python ``int`` unless a ``Fraction`` enters through a
constructor or a scalar factor: integer germs then stay on integer
arithmetic, which is exact and much cheaper than ``Fraction``.  No
operation divides coefficients, so an ``int`` never turns into a float.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

__all__ = ["Coeff", "Monomial", "MPoly"]

Monomial = tuple[tuple[int, int], ...]
Coeff = int | Fraction

_ONE_M: Monomial = ()


def _mmul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exps: dict[int, int] = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def _coerce(c: Coeff) -> Coeff:
    return c if isinstance(c, (int, Fraction)) else Fraction(c)


class MPoly:
    __slots__ = ("_t",)

    def __init__(self, terms: dict[Monomial, Coeff] | None = None) -> None:
        self._t: dict[Monomial, Coeff] = (
            {m: c for m, c in terms.items() if c} if terms else {}
        )

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> MPoly:
        return cls()

    @classmethod
    def const(cls, c: Coeff) -> MPoly:
        return cls({_ONE_M: _coerce(c)})

    @classmethod
    def var(cls, v: int, exp: int = 1) -> MPoly:
        if exp < 1:
            raise ValueError(f"exponent must be >= 1, got {exp}")
        return cls({((v, exp),): 1})

    # -- inspection --------------------------------------------------

    def is_zero(self) -> bool:
        return not self._t

    def is_const(self) -> bool:
        return all(m == _ONE_M for m in self._t)

    def constant_term(self) -> Coeff:
        return self._t.get(_ONE_M, 0)

    def terms(self) -> Iterator[tuple[Monomial, Coeff]]:
        return iter(sorted(self._t.items()))

    def vars(self) -> frozenset[int]:
        return frozenset(v for m in self._t for v, _ in m)

    def deg_in(self, v: int) -> int:
        best = 0
        for m in self._t:
            for w, e in m:
                if w == v and e > best:
                    best = e
        return best

    def single_term(self) -> tuple[Monomial, Coeff] | None:
        if len(self._t) != 1:
            return None
        return next(iter(self._t.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self._t == other._t

    def __hash__(self) -> int:
        return hash(frozenset(self._t.items()))

    def __bool__(self) -> bool:
        return bool(self._t)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: MPoly) -> MPoly:
        out = dict(self._t)
        for m, c in other._t.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        r = MPoly.__new__(MPoly)
        r._t = out
        return r

    def __neg__(self) -> MPoly:
        r = MPoly.__new__(MPoly)
        r._t = {m: -c for m, c in self._t.items()}
        return r

    def __sub__(self, other: MPoly) -> MPoly:
        return self + (-other)

    def __mul__(self, other: MPoly | Coeff) -> MPoly:
        if isinstance(other, (Fraction, int)):
            if not other:
                return MPoly()
            c0 = _coerce(other)
            r = MPoly.__new__(MPoly)
            r._t = {m: c * c0 for m, c in self._t.items()}
            return r
        out: dict[Monomial, Coeff] = {}
        for m1, c1 in self._t.items():
            for m2, c2 in other._t.items():
                m = _mmul(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        r = MPoly.__new__(MPoly)
        r._t = out
        return r

    __rmul__ = __mul__

    def __pow__(self, k: int) -> MPoly:
        if k < 0:
            raise ValueError("negative power")
        result = MPoly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- structure queries used by the engine --------------------------

    def linear_split(self, v: int) -> tuple[MPoly, MPoly] | None:
        """Write self = A*v + B with A, B free of v; None unless deg_v = 1."""
        a: dict[Monomial, Coeff] = {}
        b: dict[Monomial, Coeff] = {}
        seen = False
        for m, c in self._t.items():
            ve = 0
            rest = []
            for w, e in m:
                if w == v:
                    ve = e
                else:
                    rest.append((w, e))
            if ve == 0:
                b[m] = c
            elif ve == 1:
                a[tuple(rest)] = c
                seen = True
            else:
                return None
        if not seen:
            return None
        return MPoly(a), MPoly(b)

    def subs_zero(self, v: int) -> MPoly:
        return MPoly({m: c for m, c in self._t.items() if all(w != v for w, _ in m)})

    def subs_clear(self, v: int, a: MPoly, b: MPoly) -> MPoly:
        """Return self * a^deg_v with v replaced by -b/a (a a monomial unit)."""
        d = self.deg_in(v)
        if d == 0:
            return self
        layers: dict[int, dict[Monomial, Coeff]] = {}
        for m, c in self._t.items():
            ve = 0
            rest = []
            for w, e in m:
                if w == v:
                    ve = e
                else:
                    rest.append((w, e))
            layers.setdefault(ve, {})[tuple(rest)] = c
        total = MPoly()
        for ve, terms in layers.items():
            total = total + MPoly(terms) * ((-b) ** ve) * (a ** (d - ve))
        return total

    def content_monomial(self) -> dict[int, int]:
        """Per-variable minimum exponent over all terms ({} if any constant term)."""
        if not self._t or _ONE_M in self._t:
            return {}
        it = iter(self._t)
        content = dict(next(it))
        for m in it:
            exps = dict(m)
            content = {
                v: min(e, exps[v]) for v, e in content.items() if v in exps
            }
            if not content:
                return {}
        return content

    def divide_by(self, mono: dict[int, int]) -> MPoly:
        out: dict[Monomial, Coeff] = {}
        for m, c in self._t.items():
            reduced = []
            for w, e in m:
                e2 = e - mono.get(w, 0)
                if e2 < 0:
                    raise ValueError("monomial does not divide every term")
                if e2:
                    reduced.append((w, e2))
            out[tuple(reduced)] = c
        return MPoly(out)

    # -- display -------------------------------------------------------

    def text(self, names: dict[int, str] | None = None) -> str:
        if not self._t:
            return "0"
        def varname(v: int) -> str:
            return names[v] if names else f"x{v}"
        parts = []
        for m, c in sorted(self._t.items(), key=lambda t: (-len(t[0]), t[0])):
            factors = [
                varname(v) + (f"^{e}" if e > 1 else "") for v, e in m
            ]
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MPoly({self.text()})"
