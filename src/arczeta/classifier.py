"""Machine-checked classification of germ normal forms by zeta-table cells.

Every verdict produced here is a comparison of arc-space coefficients:
two germs are *distinguished* by the first table cell (scanning order
``n`` ascending, channels plus, minus, naive) where their values differ,
and consistency with equivalence means every available cell agrees.
Corank and index separation is itself an ``n = 2`` cell difference, so
no out-of-band invariants enter the reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from json.encoder import encode_basestring_ascii

from .germs import (
    CHANNELS,
    FAMILY,
    GermSpec,
    Oracle,
    _csv,
    _json,
    _table_oracle,
    canonicalize,
    oracle_cell,
    resolve_cell,
)
from .quadric import Sig
from .upoly import UPoly

__all__ = [
    "CHANNELS",
    "ClassificationReport",
    "Distinguisher",
    "NonsimpleReport",
    "PairEntry",
    "ade_table",
    "distinguish",
    "enumerate_simple",
    "nonsimple_report",
    "oracle_recheck",
]

def _cell_id(n: int, channel: str) -> str:
    return f"n={n}/{channel}"


def _failure_lines(failures: tuple[str, ...]) -> list[str]:
    """The text reports' closing block: the failure count and one line each, or none."""
    if not failures:
        return ["failures: none"]
    return [f"failures: {len(failures)}"] + [f"  {f}" for f in failures]


# ---------------------------------------------------------------------------
# Distinguishers
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Distinguisher:
    """Certificate of non-equivalence, or a bounded failure to find one.

    When ``n`` is set, ``value1 != value2`` at that cell and every cell
    earlier in scan order either agreed or is listed in ``unavailable``.
    Slotted, not frozen: the pair scan builds one per pair and nothing
    assigns to it afterwards; a frozen dataclass would pay an
    ``object.__setattr__`` per field.  So it is not hashable.
    """

    germ1: str
    germ2: str
    N: int
    source: str
    n: int | None = None
    channel: str | None = None
    value1: UPoly | None = None
    value2: UPoly | None = None
    unavailable: tuple[str, ...] = ()

    @property
    def separated(self) -> bool:
        return self.n is not None

    @property
    def verdict(self) -> str:
        if self.separated:
            return f"distinguished at n={self.n}, {self.channel}"
        return f"indistinguishable <= {self.N}"

    def to_json_dict(self) -> dict:
        out: dict = {
            "germ1": self.germ1,
            "germ2": self.germ2,
            "N": self.N,
            "source": self.source,
            "verdict": self.verdict,
            "unavailable": list(self.unavailable),
        }
        if self.separated:
            out["certificate"] = {
                "n": self.n,
                "channel": self.channel,
                "value1": str(self.value1),
                "value2": str(self.value2),
            }
        return out


def distinguish(
    g1: GermSpec, g2: GermSpec, N: int = 9, source: str = "auto"
) -> Distinguisher:
    """First differing cell of the two zeta tables, if any up to order N."""
    if g1.d != g2.d:
        raise ValueError(
            f"cannot compare germs of different ambient dimension: "
            f"{g1.d} vs {g2.d} (tables omit the u^(-n*d) normalization)"
        )
    interned: dict[UPoly, int] = {}
    oracle = _table_oracle(source)
    row1, row2 = _Row(g1, source, interned, oracle), _Row(g2, source, interned, oracle)
    return _scan(g1.render(), row1, [(g2.render(), row2)], N, source)[0]


class _Row:
    """One spec's cells in scan order, resolved as far as some scan has reached.

    ``values[pos]`` is the cell at scan position pos (see ``_positions``),
    or None if unavailable; ``ids[pos]`` is its interned id, or None.
    Only ``_scan`` extends a row, one position at a time, handing it that
    position's (n, channel) from ``_positions``.  Rows that share
    ``interned`` give equal values equal ids, whether or not they are the
    same object, so the scan compares ids and reads ``values`` only for a
    certificate.  A row calls ``resolve_cell`` as the module names it at
    the time, so a patched lookup takes effect, and passes it ``oracle``:
    the table's, bound to its budget, or None.
    """

    __slots__ = ("spec", "source", "interned", "oracle", "values", "ids")

    def __init__(
        self,
        spec: GermSpec,
        source: str,
        interned: dict[UPoly, int],
        oracle: Oracle | None = None,
    ) -> None:
        self.spec = spec
        self.source = source
        self.interned = interned
        self.oracle = oracle
        self.values: list[UPoly | None] = []
        self.ids: list[int | None] = []

    def extend(self, n: int, channel: str) -> None:
        """Resolve the cell (n, channel), which is at the next scan position."""
        value = resolve_cell(self.spec, n, channel, self.source, self.oracle).value
        self.values.append(value)
        interned = self.interned
        self.ids.append(None if value is None else interned.setdefault(value, len(interned)))


@lru_cache(maxsize=None)
def _positions(N: int) -> tuple[tuple[tuple[int, str], ...], tuple[str, ...]]:
    """The scan order up to order N: each position's (n, channel), n from 2 up
    and channels in turn, and its cell id; built once per N."""
    cells = tuple((n, channel) for n in range(2, N + 1) for channel in CHANNELS)
    return cells, tuple(_cell_id(n, channel) for n, channel in cells)


def _scan(
    germ1: str, row1: _Row, partners: list[tuple[str, _Row]], N: int, source: str
) -> list[Distinguisher]:
    """The one scan: row1 against each (name, row) partner in turn, one result each.

    A partner's result is the first position, in scan order up to N,
    where its ids and row1's differ.  Both rows are extended only as far
    as that partner's scan reaches, so cells are resolved pair by pair,
    in partner order, as one scan per pair would resolve them.  An
    unavailable cell (id None) on either side is recorded and skipped.
    N is checked once per call, even with no partners, and the positions'
    (n, channel) and cell ids come from ``_positions``.  Only this loop
    extends the rows, and no row is its own partner, so ``reach1`` and
    ``reach2`` stay ``len(ids1)`` and ``len(ids2)`` without a call.
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    cells, cell_ids = _positions(N)
    positions = range(len(cells))
    ids1, values1 = row1.ids, row1.values
    reach1 = len(ids1)
    out: list[Distinguisher] = []
    for germ2, row2 in partners:
        ids2 = row2.ids
        reach2 = len(ids2)
        unavailable: tuple[str, ...] = ()
        for pos in positions:
            if pos == reach1:
                row1.extend(*cells[pos])
                reach1 += 1
            if pos == reach2:
                row2.extend(*cells[pos])
                reach2 += 1
            a, b = ids1[pos], ids2[pos]
            if a is None or b is None:
                unavailable += (cell_ids[pos],)
            elif a != b:
                out.append(Distinguisher(
                    germ1, germ2, N, source, *cells[pos],
                    values1[pos], row2.values[pos], unavailable,
                ))
                break
        else:
            out.append(Distinguisher(germ1, germ2, N, source, unavailable=unavailable))
    return out


def oracle_recheck(pairs: list[tuple[GermSpec, GermSpec, Distinguisher]]) -> list[str]:
    """Soundness pass: certificate cells recomputed with the engine only.

    Returns diagnostics for any certificate the oracle does not
    reproduce; an empty list means every verdict survived.
    """
    problems: list[str] = []
    for g1, g2, dist in pairs:
        if not dist.separated:
            continue
        c1 = resolve_cell(g1, dist.n, dist.channel, "oracle")
        c2 = resolve_cell(g2, dist.n, dist.channel, "oracle")
        where = f"{dist.germ1} vs {dist.germ2} at {_cell_id(dist.n, dist.channel)}"
        if c1.value is None or c2.value is None:
            problems.append(f"{where}: oracle unavailable")
        elif (c1.value, c2.value) != (dist.value1, dist.value2):
            problems.append(
                f"{where}: oracle gives {c1.value} vs {c2.value}, "
                f"certificate recorded {dist.value1} vs {dist.value2}"
            )
    return problems


# ---------------------------------------------------------------------------
# The A-D-E classification table
# ---------------------------------------------------------------------------


def _sigs(total: int) -> list[tuple[int, int]]:
    return [(p, total - p) for p in range(total + 1)]


def _family_specs(family: str, sig: Sig, kmax: int) -> list[GermSpec]:
    """Every spec of one family at one signature: each k up to kmax, each sign tuple."""
    fam = FAMILY[family]
    ks = [None] if fam.kmin is None else range(fam.kmin, kmax + 1)
    return [
        GermSpec(family, sig, k=k, signs=signs)
        for k in ks
        for signs in product((1, -1), repeat=fam.nsigns)
    ]


def enumerate_simple(d: int, kmax: int = 8) -> list[GermSpec]:
    """Every simple germ spec with ambient dimension d, parameters <= kmax.

    Both members of each sign-equivalent pair are listed; canonical
    representatives are recovered with :func:`arczeta.germs.canonicalize`.
    The specs come corank by corank, signature by signature.

    Each call returns a fresh list, but of the same spec objects for a
    given (d, kmax), built once: every table then hands the cell caches
    the objects their keys already hold, so a lookup matches by identity
    and calls no ``GermSpec.__eq__``.
    """
    if d < 2:
        raise ValueError(f"ambient dimension must be >= 2, got {d}")
    return list(_simple_specs(d, kmax))


@lru_cache(maxsize=None)
def _simple_specs(d: int, kmax: int) -> tuple[GermSpec, ...]:
    """The specs of ``enumerate_simple(d, kmax)``, built once per (d, kmax)."""
    specs: list[GermSpec] = []
    for corank in sorted({fam.corank for fam in FAMILY.values() if fam.simple}):
        for sig in _sigs(d - corank):
            for family, fam in FAMILY.items():
                if fam.simple and fam.corank == corank:
                    specs += _family_specs(family, sig, kmax)
    return tuple(specs)


# The line starts of nesting depths 1, 3 and 4 in ``_json``'s two-space indents.
_DEPTH1, _DEPTH3, _DEPTH4 = "\n  ", "\n      ", "\n        "


def _json_strs(items: tuple[str, ...], indent: str) -> str:
    """A list of strings as ``_json`` writes it at nesting ``indent`` (a newline and spaces)."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(map(encode_basestring_ascii, items)) + indent + "]"


@dataclass(slots=True)
class PairEntry:
    """One pair of a classification table; slotted and written once, like :class:`Distinguisher`."""

    germ1: str
    germ2: str
    relation: str  # "equivalent" | "distinct"
    certificate: Distinguisher | None
    unavailable: tuple[str, ...]
    agreed_cells: int


class _Encoded(dict):
    """Strings to their JSON encoding; a string missing on lookup is encoded and kept."""

    def __missing__(self, text: str) -> str:
        encoded = self[text] = encode_basestring_ascii(text)
        return encoded


def _pair_pieces(e: PairEntry) -> tuple[str, ...]:
    """One pair's JSON text, led by its list separator, cut at its germ names.

    The cuts are at the certificate's germ1 and germ2, when it has a
    certificate, then at the entry's germ1 and germ2; the names are
    neither read nor encoded here, so the pieces serve every pair whose
    other fields are equal.
    """
    enc = encode_basestring_ascii
    text = ",\n    {\n      "
    if e.relation == "equivalent":
        text += f'"agreed_cells": {e.agreed_cells},\n      '
    pieces = []
    c = e.certificate
    if c is not None:
        text += f'"certificate": {{\n        "N": {c.N},\n        '
        if c.separated:
            text += (
                f'"certificate": {{\n          "channel": {enc(c.channel)},'
                f'\n          "n": {c.n},'
                f'\n          "value1": {enc(str(c.value1))},'
                f'\n          "value2": {enc(str(c.value2))}\n        }},\n        '
            )
        pieces += [text + '"germ1": ', ',\n        "germ2": ']
        text = (
            f',\n        "source": {enc(c.source)},'
            f'\n        "unavailable": {_json_strs(c.unavailable, _DEPTH4)},'
            f'\n        "verdict": {enc(c.verdict)}\n      }},\n      '
        )
    return (
        *pieces,
        text + '"germ1": ',
        ',\n      "germ2": ',
        f',\n      "relation": {enc(e.relation)},'
        f'\n      "unavailable": {_json_strs(e.unavailable, _DEPTH3)}\n    }}',
    )


@dataclass(frozen=True)
class ClassificationReport:
    d: int
    kmax: int
    N: int
    source: str
    specs: tuple[str, ...]
    classes: tuple[str, ...]
    entries: tuple[PairEntry, ...]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        """The report as ``_json`` writes it, with each distinct pair body rendered once.

        The text is byte for byte ``json.dumps(indent=2, sort_keys=True)``
        of the report's dict, but no dict is built: each key is written
        in sorted order.  A pair holds ``agreed_cells`` when equivalent and
        its ``Distinguisher`` (as ``to_json_dict`` gives it) under
        ``certificate`` when it has one.  A table's pairs share few bodies
        (203 over the 13,459 pairs of d = 2..4), so each body is rendered
        once, by :func:`_pair_pieces`, keyed on every field that reaches its
        text except the germ names, which are encoded once each and spliced
        between its pieces.  The document is joined once from one list of
        pieces, header and trailer included.
        """
        names = _Encoded()
        bodies: dict[tuple, tuple[str, ...]] = {}
        out = [
            f'{{\n  "N": {self.N},\n  "classes": {_json_strs(self.classes, _DEPTH1)},'
            f'\n  "d": {self.d},\n  "failures": {_json_strs(self.failures, _DEPTH1)},'
            f'\n  "kmax": {self.kmax},\n  "ok": {"true" if self.ok else "false"},'
            '\n  "pairs": ['
        ]
        for e in self.entries:
            c = e.certificate
            if c is None:
                key: tuple = (e.relation, e.agreed_cells, e.unavailable)
                try:
                    a, b, z = bodies[key]
                except KeyError:
                    a, b, z = bodies[key] = _pair_pieces(e)
                out += a, names[e.germ1], b, names[e.germ2], z
            else:
                key = (
                    e.relation, e.agreed_cells, e.unavailable, c.N, c.n, c.channel,
                    str(c.value1), str(c.value2), c.source, c.unavailable,
                )
                try:
                    a, b, x, y, z = bodies[key]
                except KeyError:
                    a, b, x, y, z = bodies[key] = _pair_pieces(e)
                out += (
                    a, names[c.germ1], b, names[c.germ2], x, names[e.germ1], y, names[e.germ2], z
                )
        if self.entries:
            out[1] = out[1][1:]  # the first pair has no comma before it
            out.append("\n  ]")
        else:
            out.append("]")
        out.append(
            f',\n  "source": {names[self.source]},'
            f'\n  "specs": {_json_strs(self.specs, _DEPTH1)}\n}}'
        )
        return "".join(out)

    def to_csv(self) -> str:
        rows = []
        for e in self.entries:
            c = e.certificate
            if c is not None and c.separated:
                rows.append([e.germ1, e.germ2, e.relation, c.n, c.channel, str(c.value1), str(c.value2)])
            else:
                rows.append([e.germ1, e.germ2, e.relation, "", "", "", ""])
        header = ["germ1", "germ2", "relation", "n", "channel", "value1", "value2"]
        return _csv(header, rows)

    def to_text(self) -> str:
        lines = [
            f"blow-Nash classification  d={self.d}  kmax={self.kmax}  "
            f"N={self.N}  source={self.source}",
            f"specs: {len(self.specs)}  classes: {len(self.classes)}  "
            f"pairs: {len(self.entries)}",
        ]
        lines.extend(_failure_lines(self.failures))
        cert: dict[tuple[str, str], PairEntry] = {}
        for e in self.entries:
            cert[(e.germ1, e.germ2)] = e
            cert[(e.germ2, e.germ1)] = e
        lines.append("classes:")
        for i, c in enumerate(self.classes, start=1):
            lines.append(f"  [{i}] {c}")
        cells: list[list[str]] = []
        for r in self.classes:
            row = []
            for c in self.classes:
                if r == c:
                    row.append("=")
                    continue
                e = cert[(r, c)]
                if e.certificate.separated:
                    row.append(f"{e.certificate.n}/{e.certificate.channel}")
                else:
                    row.append("!!")
            cells.append(row)
        width = max(
            [len(str(len(self.classes)))]
            + [len(x) for row in cells for x in row]
        )
        head = " " * (len(str(len(self.classes))) + 2) + " ".join(
            str(j + 1).rjust(width) for j in range(len(self.classes))
        )
        lines.append("matrix (cells: first separating n/channel, = self, !! not separated by N):")
        lines.append(head)
        for i, row in enumerate(cells):
            label = str(i + 1).rjust(len(str(len(self.classes))))
            lines.append(f"{label}  " + " ".join(x.rjust(width) for x in row))
        return "\n".join(lines) + "\n"


def ade_table(
    d: int, kmax: int = 8, N: int = 9, source: str = "auto"
) -> ClassificationReport:
    """Pairwise classification of every simple germ at ambient dimension d.

    Each spec's row is scanned once, by the scan of :func:`distinguish`,
    against the rows of every later spec, so the pairs come in
    ``combinations`` order.  A row resolves each (spec, n, channel) at
    most once per table, and only when a pair's scan reaches it.  The
    rows share one table of interned value ids, so the scan compares
    ids.  Equivalent pairs (same canonical form) must come out
    unseparated, agreeing on every available cell up to N; all other
    pairs must be separated at some n <= N.  Violations land in ``failures``; a broken equivalent pair
    is reported at its first disagreeing cell.
    """
    specs = enumerate_simple(d, kmax)
    names = [g.render() for g in specs]
    canonical = [canonicalize(g).render() for g in specs]
    interned: dict[UPoly, int] = {}
    oracle = _table_oracle(source)
    rows = [_Row(g, source, interned, oracle) for g in specs]
    entries: list[PairEntry] = []
    failures: list[str] = []
    for i, row in enumerate(rows):
        partners = list(zip(names[i + 1 :], rows[i + 1 :]))
        for j, dist in enumerate(_scan(names[i], row, partners, N, source), i + 1):
            equivalent = canonical[i] == canonical[j]
            if not equivalent:
                relation, cert, agreed = "distinct", dist, 0
                if not dist.separated:
                    failures.append(
                        f"no distinguisher at n <= {N} for {dist.germ1} vs "
                        f"{dist.germ2} (unavailable: {', '.join(dist.unavailable) or 'none'})"
                    )
            else:
                relation, cert = "equivalent", None
                # agreed cells: those compared before the scan stopped, less the unavailable
                scanned = (N - 1) * len(CHANNELS)
                if dist.separated:
                    failures.append(
                        f"equivalent pair {dist.germ1} ~ {dist.germ2} "
                        f"disagrees at {_cell_id(dist.n, dist.channel)}: "
                        f"{dist.value1} vs {dist.value2}"
                    )
                    scanned = (dist.n - 2) * len(CHANNELS) + CHANNELS.index(dist.channel)
                agreed = scanned - len(dist.unavailable)
            entries.append(
                PairEntry(dist.germ1, dist.germ2, relation, cert, dist.unavailable, agreed)
            )
    return ClassificationReport(
        d,
        kmax,
        N,
        source,
        tuple(names),
        tuple(dict.fromkeys(canonical)),
        tuple(entries),
        tuple(failures),
    )


# ---------------------------------------------------------------------------
# Nonsimple instances
# ---------------------------------------------------------------------------


def _corank2_classes(d: int, kmax: int) -> list[GermSpec]:
    out: list[GermSpec] = []
    for g in enumerate_simple(d, kmax):
        if g.corank == 2 and canonicalize(g) == g:
            out.append(g)
    return out


@dataclass(frozen=True)
class CubeCheck:
    n: int
    channel: str
    matched: bool
    instance_value: UPoly
    cube_value: UPoly


@dataclass(frozen=True)
class NonsimpleEntry:
    instance: str
    skipped: bool
    reason: str
    cube_checks: tuple[CubeCheck, ...]
    separations: tuple[Distinguisher, ...]

    def to_json_dict(self) -> dict:
        out: dict = {"instance": self.instance}
        if self.skipped:
            out["skipped"] = True
            out["reason"] = self.reason
            return out
        out["cube_checks"] = [
            {
                "n": c.n,
                "channel": c.channel,
                "matched": c.matched,
                "instance_value": str(c.instance_value),
                "cube_value": str(c.cube_value),
            }
            for c in self.cube_checks
        ]
        out["separations"] = [s.to_json_dict() for s in self.separations]
        return out


@dataclass(frozen=True)
class NonsimpleReport:
    N: int
    entries: tuple[NonsimpleEntry, ...]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        entries = [e.to_json_dict() for e in self.entries]
        return _json(dict(N=self.N, entries=entries, failures=list(self.failures), ok=self.ok))

    def to_csv(self) -> str:
        rows = []
        for e in self.entries:
            if e.skipped:
                rows.append([e.instance, "", f"skipped: {e.reason}"])
            rows.extend([e.instance, s.germ2, s.verdict] for s in e.separations)
        return _csv(["instance", "versus", "verdict"], rows)

    def to_text(self) -> str:
        lines = [f"nonsimple germ report  N={self.N}"]
        for e in self.entries:
            lines.append(f"instance {e.instance}")
            if e.skipped:
                lines.append(f"  skipped: {e.reason}")
                continue
            for c in e.cube_checks:
                mark = "ok" if c.matched else "MISMATCH"
                lines.append(
                    f"  cube-jet cell {_cell_id(c.n, c.channel)}: "
                    f"{c.instance_value} vs {c.cube_value} [{mark}]"
                )
            for s in e.separations:
                lines.append(f"  vs {s.germ2}: {s.verdict}")
        lines.extend(_failure_lines(self.failures))
        return "\n".join(lines) + "\n"


def nonsimple_report(
    instances: list[GermSpec], N: int = 5, kmax: int = 8
) -> NonsimpleReport:
    """Separate nonsimple J-family instances from every simple corank-2 class.

    Per instance: the engine confirms that its order-4 and order-5
    signed cells coincide with the pure-cube cells (the freedom that
    collapses the count), then its row is scanned once against the rows
    of every simple corank-2 class of the same ambient dimension, one
    Distinguisher each; the rows share one table of interned ids per
    instance.  An engine failure on an instance cell is reported and the
    instance skipped.
    """
    if N < 2:  # before any instance runs its engine cells
        raise ValueError(f"N must be >= 2, got {N}")
    entries: list[NonsimpleEntry] = []
    failures: list[str] = []
    for g in instances:
        if g.family != "JKI":
            raise ValueError(f"nonsimple_report expects J-family instances, got {g.family}")
        cube = GermSpec("CUBE", g.sig)
        checks: list[CubeCheck] = []
        skip_reason = ""
        for n, channel in product((4, 5), ("plus", "minus")):
            out = oracle_cell(g, n, channel)
            if not out.ok:
                skip_reason = f"engine failure at {_cell_id(n, channel)}: {out.failure}"
                break
            ref = resolve_cell(cube, n, channel, "auto")
            matched = ref.value is not None and out.value == ref.value
            checks.append(CubeCheck(n, channel, matched, out.value, ref.value))
            if not matched:
                failures.append(
                    f"{g.render()}: cell {_cell_id(n, channel)} does not match "
                    f"the cube cell ({out.value} vs {ref.value})"
                )
        if skip_reason:
            entries.append(NonsimpleEntry(g.render(), True, skip_reason, (), ()))
            failures.append(f"{g.render()}: {skip_reason}")
            continue
        interned: dict[UPoly, int] = {}
        oracle = _table_oracle("auto")
        partners = [
            (cls.render(), _Row(cls, "auto", interned, oracle))
            for cls in _corank2_classes(g.d, kmax)
        ]
        seps = _scan(g.render(), _Row(g, "auto", interned, oracle), partners, N, "auto")
        for dist in seps:
            if not dist.separated:
                failures.append(f"{dist.germ1} not separated from {dist.germ2} at n <= {N}")
        entries.append(NonsimpleEntry(g.render(), False, "", tuple(checks), tuple(seps)))
    return NonsimpleReport(N, tuple(entries), tuple(failures))
