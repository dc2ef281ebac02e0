"""Sparse multivariate polynomials over the rationals.

The stratification engine manipulates constraint polynomials in arc
coefficients.  Variables are integer labels; a monomial is a sorted
tuple of (variable, exponent) pairs.  Instances are treated as
immutable: every operation returns a new polynomial.

Because a polynomial never changes, the structural facts the engine's
rewrite rules read off it (its variables, content monomial, pivot
candidates, isolated squares and definite shape; see :class:`Summary`)
are computed once, on first request, and kept on the instance.  The
contract that makes this safe: ``_t`` is never reassigned or mutated
after construction, so in particular never after ``summary()`` has been
read.  Code that builds a polynomial term by term does so in a fresh
dict and wraps it once (``_wrap``).

Zeroings are kept the same way: ``subs_zero_many`` stores each result on
the polynomial it came from, keyed by the zeroed variables that occur, so
the engine's strata, which zero the same shared constraint again and
again, get the identical object back, summary and all.  There is no
global cache: the results live as long as their root polynomial, which
is one of a germ's expansion coefficients (kept for the last two germs).

A signed cell's last constraint ``c - e`` is a shifted view of the
expansion coefficient ``c`` (``MPoly.shifted``): it takes its summary
from ``c``'s, and each of its zeroings is ``c``'s zeroing, kept on ``c``,
shifted by the same ``e``.  The shifted zeroings are kept on the view,
so they live as long as one cell.

Coefficients are Python ``int`` unless a ``Fraction`` enters through a
constructor or a scalar factor: integer germs then stay on integer
arithmetic, which is exact and much cheaper than ``Fraction``.  No
operation divides coefficients, so an ``int`` never turns into a float.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Collection, Iterator, Mapping

__all__ = ["Coeff", "Monomial", "MPoly", "Summary"]

Monomial = tuple[tuple[int, int], ...]
Coeff = int | Fraction

_ONE_M: Monomial = ()
_NO_VARS: frozenset[int] = frozenset()


def _mmul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exps: dict[int, int] = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def _add_product(
    out: dict[Monomial, Coeff], a: dict[Monomial, Coeff], b: dict[Monomial, Coeff]
) -> None:
    """Add the product of the term maps ``a`` and ``b`` into ``out``."""
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _mmul(m1, m2)
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)


def _coerce(c: Coeff) -> Coeff:
    return c if isinstance(c, (int, Fraction)) else Fraction(c)


class Summary:
    """The structure of one polynomial that the engine's rules match on.

    * ``vars``: the variables that occur.
    * ``content``: the per-variable minimum exponent over all terms, as a
      sorted monomial; empty if there is a constant term.
    * ``pivots``: each variable that occurs in exactly one term, with
      exponent 1, mapped to the set of that term's other variables.
    * ``squares``: each variable whose only occurrence is a bare
      ``c*v^2`` term, mapped to ``c``.
    * ``definite``: ``(sign, involved)`` when every non-constant term is
      an even power of one variable with coefficient sign ``sign``
      (0 if there is no such term), else None.

    The mappings are shared with every reader and must not be mutated.

    One pass over the terms records, per variable, the number of terms it
    occurs in, its least exponent and the first term it occurs in; the
    first four fields are read off those records.
    """

    __slots__ = ("vars", "content", "pivots", "squares", "definite")

    def __init__(self, t: dict[Monomial, Coeff]) -> None:
        # v -> [terms with v, least exponent of v, first term with v]
        seen: dict[int, list] = {}
        for m in t:
            for v, e in m:
                r = seen.get(v)
                if r is None:
                    seen[v] = [1, e, m]
                else:
                    r[0] += 1
                    if e < r[1]:
                        r[1] = e
        pivots: dict[int, frozenset[int]] = {}
        squares: dict[int, Coeff] = {}
        for v, (count, e, m) in seen.items():
            if count != 1:
                continue
            if e == 1:
                if len(m) == 1:
                    pivots[v] = _NO_VARS
                else:
                    pivots[v] = frozenset([w for w, _ in m if w != v])
            elif e == 2 and len(m) == 1:
                squares[v] = t[m]
        content = _ONE_M
        if t:
            # a variable of the content occurs in every term, the first included
            size = len(t)
            content = tuple([(v, seen[v][1]) for v, _ in next(iter(t)) if seen[v][0] == size])
        self.vars: frozenset[int] = frozenset(seen)
        self.content: Monomial = content
        self.pivots = pivots
        self.squares = squares
        self.definite = _definite_shape(t)

    def with_constant(self) -> Summary:
        """The summary of this polynomial plus a nonzero constant.

        A constant term touches only the content, which it empties:
        ``_definite_shape`` skips constant monomials.
        """
        if not self.content:
            return self
        s = Summary.__new__(Summary)
        s.vars, s.content, s.pivots = self.vars, _ONE_M, self.pivots
        s.squares, s.definite = self.squares, self.definite
        return s


def _definite_shape(t: dict[Monomial, Coeff]) -> tuple[int, frozenset[int]] | None:
    sign = 0
    for m, c in t.items():
        if not m:
            continue
        if len(m) != 1 or m[0][1] % 2:
            return None
        s = 1 if c > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return None
    return sign, frozenset(m[0][0] for m in t if m)


class MPoly:
    __slots__ = ("_t", "_s", "_z")

    def __init__(self, terms: dict[Monomial, Coeff] | None = None) -> None:
        self._t: dict[Monomial, Coeff] = (
            {m: c for m, c in terms.items() if c} if terms else {}
        )
        self._s: Summary | None = None
        self._z: dict[frozenset[int], MPoly] | None = None

    @classmethod
    def _wrap(cls, terms: dict[Monomial, Coeff]) -> MPoly:
        """Adopt ``terms`` (fresh, with no zero coefficient) without copying."""
        r = cls.__new__(cls)
        r._t = terms
        r._s = None
        r._z = None
        return r

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
        t = self._t
        return not t or (len(t) == 1 and _ONE_M in t)

    def constant_term(self) -> Coeff:
        return self._t.get(_ONE_M, 0)

    def terms(self) -> Iterator[tuple[Monomial, Coeff]]:
        return iter(sorted(self._t.items()))

    def summary(self) -> Summary:
        """The cached structural summary, computed on first request."""
        s = self._s
        if s is None:
            s = self._s = Summary(self._t)
        return s

    def vars(self) -> frozenset[int]:
        return self.summary().vars

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
        return MPoly._wrap(out)

    def __neg__(self) -> MPoly:
        return MPoly._wrap({m: -c for m, c in self._t.items()})

    def __sub__(self, other: MPoly) -> MPoly:
        return self + (-other)

    def __mul__(self, other: MPoly | Coeff) -> MPoly:
        if isinstance(other, (Fraction, int)):
            if not other:
                return MPoly()
            c0 = _coerce(other)
            return MPoly._wrap({m: c * c0 for m, c in self._t.items()})
        out: dict[Monomial, Coeff] = {}
        _add_product(out, self._t, other._t)
        return MPoly._wrap(out)

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

    def _by_degree(self, v: int) -> dict[int, dict[Monomial, Coeff]]:
        """The terms grouped by their exponent of ``v``, with ``v`` removed."""
        layers: dict[int, dict[Monomial, Coeff]] = {}
        for m, c in self._t.items():
            e = 0
            for i, (w, we) in enumerate(m):
                if w == v:
                    e, m = we, m[:i] + m[i + 1 :]
                    break
            layers.setdefault(e, {})[m] = c
        return layers

    def linear_split(self, v: int) -> tuple[MPoly, MPoly] | None:
        """Write self = A*v + B with A, B free of v; None unless deg_v = 1."""
        layers = self._by_degree(v)
        if max(layers, default=0) != 1:
            return None
        return MPoly._wrap(layers[1]), MPoly._wrap(layers.get(0, {}))

    def subs_zero(self, v: int) -> MPoly:
        return self.subs_zero_many((v,))

    def subs_zero_many(self, vs: Collection[int]) -> MPoly:
        """Set every variable in ``vs`` to zero, in one pass over the terms.

        Returns ``self`` when no variable of ``vs`` occurs.  Otherwise the
        result is kept on ``self``, keyed by the variables that occur, so
        a repeated zeroing returns the identical polynomial, with its
        summary and its own zeroings.
        """
        key = self.vars().intersection(vs)
        if not key:
            return self
        z = self._z
        if z is None:
            z = self._z = {}
        r = z.get(key)
        if r is None:
            r = z[key] = self._zeroed(key)
        return r

    def _zeroed(self, key: frozenset[int]) -> MPoly:
        """The terms free of every variable in ``key``."""
        out: dict[Monomial, Coeff] = {}
        for m, c in self._t.items():
            for w, _ in m:
                if w in key:
                    break
            else:
                out[m] = c
        return MPoly._wrap(out)

    def shifted(self, e: Coeff) -> MPoly:
        """``self - e`` for a nonzero ``e``, as a view that shares this
        polynomial's summary and zeroings (see :class:`_Shifted`).

        Raises ``ValueError`` if ``e`` is zero or ``self`` has a constant
        term.
        """
        if not e or _ONE_M in self._t:
            raise ValueError("shifted needs a nonzero e and no constant term")
        return _Shifted(self, _coerce(e))

    def subs_clear(self, v: int, a: MPoly, b: MPoly) -> MPoly:
        """Return self * a^deg_v with v replaced by -b/a (a a monomial unit)."""
        layers = self._by_degree(v)
        d = max(layers, default=0)
        if d == 0:
            return self
        total = MPoly()
        for e, terms in layers.items():
            total = total + MPoly._wrap(terms) * ((-b) ** e) * (a ** (d - e))
        return total

    def divide_by(self, mono: dict[int, int]) -> MPoly:
        """Divide every term by ``mono``; ValueError unless it divides the content."""
        content = dict(self.summary().content)
        if self._t and any(content.get(w, 0) < e for w, e in mono.items()):
            raise ValueError("monomial does not divide every term")
        out: dict[Monomial, Coeff] = {}
        for m, c in self._t.items():
            reduced = []
            for w, e in m:
                e -= mono.get(w, 0)
                if e:
                    reduced.append((w, e))
            out[tuple(reduced)] = c
        return MPoly._wrap(out)

    # -- display -------------------------------------------------------

    def text(self, names: Mapping[int, str] | None = None) -> str:
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


class _Shifted(MPoly):
    """``body - e``, which remembers ``body`` and ``e``.

    Its terms are the body's plus the constant ``-e``, so it is equal to,
    and hashes like, the plain polynomial with those terms, and
    arithmetic on it returns a plain ``MPoly``.  Its summary is the
    body's with an empty content, and each of its zeroings is the body's
    zeroing (kept on the body) shifted by ``e``, kept on the view by
    ``subs_zero_many``.
    """

    __slots__ = ("_body", "_e")

    def __init__(self, body: MPoly, e: Coeff) -> None:
        t = dict(body._t)
        t[_ONE_M] = -e
        self._t = t
        self._s = None
        self._z = None
        self._body = body
        self._e = e

    def summary(self) -> Summary:
        s = self._s
        if s is None:
            s = self._s = self._body.summary().with_constant()
        return s

    def _zeroed(self, key: frozenset[int]) -> MPoly:
        return _Shifted(self._body.subs_zero_many(key), self._e)
