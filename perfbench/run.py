#!/usr/bin/env python3
"""The arczeta benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table_cold --seed 1 --seconds 25 --trace 0

Workloads (single process, single thread, one client in a closed loop):

``table_cold``
    ``classifier.ade_table(d, kmax=8, N=9, source="auto")`` for d=2..3,
    each rendered with ``to_json()`` as ``arczeta table --format json``
    does, and each started from empty caches, as separate ``arczeta
    table`` calls are.
``zeta_cold``
    Single-germ requests ``zeta_table(parse_germ(text), N=9,
    source="hybrid")`` rendered with ``to_text()``, as ``arczeta zeta``
    does, with every package cache cleared before each request; the
    germs are a fixed sample of every family (see :func:`zeta_pairs`).
``table_warm``
    ``ade_table`` for d=2..4 plus ``to_json()``, repeated after set-up
    has filled the caches with one cold pass.

A run repeats passes over its workload's requests, with tracing off,
until ``--seconds`` have elapsed (at least one pass).  A fixed
reference kernel is timed while each request runs, and the end-to-end
timings are reported in units of it (``*_ref``) as well as in seconds;
see :class:`SpeedSampler` and :func:`timings`.  ``--trace 1`` then runs one more pass with every layer
wrapped and reports the per-layer metrics instead of the end-to-end
ones.
Correctness is checked outside the timed region.  The last line of
standard output is the JSON result; a fuller record, and the spans of a
traced run, go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

KMAX = 8
N = 9
CHANNELS = ("plus", "minus", "naive")
EXPECTED_CLASSES = {2: 34, 3: 58, 4: 82, 5: 106}
COLD_DIMS = (2, 3)
WARM_DIMS = (2, 3, 4)
ZETA_DIMS = (3, 4, 5)
IMPORT_REPEATS = 11
REF_REPEATS = 15
# How often the reference kernel is sampled while a request runs.
SAMPLE_INTERVAL_S = 0.02
# A typical time of :func:`reference_kernel` on the host the baseline was
# taken on (2-vCPU Linux VM, Python 3.11.7); it turns reference units
# back into seconds for ``setup_s``.
REF_SECONDS = 1.95e-4
# Per-layer metrics read off the returned reports rather than from spans.
REPORT_LAYER_METRICS = ("classifier.pairs", "classifier.cells_compared", "unavailable_cells",
                        "cli.render.bytes")
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import arczeta.cli; "
    "print(time.perf_counter() - t0)"
)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _sigs(total: int) -> list[tuple[int, int]]:
    """Every signature (p, q) with p + q = total."""
    return [(p, total - p) for p in range(total + 1)]


J_KINDS = ("J(2,0; b={s}1, c={s}1)", "J(2,1; a0={s}1, s={s}1)", "J(3,0; b={s}1, c={s}1)")
# zeta_cold requests every ZETA_STRIDE-th pair of its population.
ZETA_STRIDE = 3


def zeta_pairs(pkg: SimpleNamespace) -> list[tuple[str, str]]:
    """The germs of ``zeta_cold``, as pairs of negation duals.

    The dual of a germ f names -f up to a coordinate sign change, so its
    plus and minus cells are f's minus and plus cells and its naive
    cells are f's.  The population is every spec of
    ``enumerate_simple(d)`` for d=3..5, each with its dual (the signs
    negated and the quadric signature swapped), plus one Q, G, CUBE and
    J instance per d with the signature rotating.  Every
    ``ZETA_STRIDE``-th pair of each of these two strata is requested,
    so the mix of families, k and signatures follows the population's.
    A self-dual germ is paired with itself.
    """
    simple: list[tuple[str, str]] = []
    extra: list[tuple[str, str]] = []
    seen: set[str] = set()

    def pair(f: str, g: str, total: int, j: int) -> None:
        p, q = _sigs(total)[j % (total + 1)]
        extra.append((f"{f} (+) Q({p},{q})", f"{g} (+) Q({q},{p})"))

    for d in ZETA_DIMS:
        for spec in pkg.classifier.enumerate_simple(d, KMAX):
            dual = replace(spec, sig=spec.sig[::-1], signs=tuple(-s for s in spec.signs))
            text, dual_text = spec.render(), dual.render()
            if text not in seen:
                seen.update((text, dual_text))
                simple.append((text, dual_text))
        for f, g in (("Q", "Q"), ("G", "G"), ("CUBE", "CUBE")):
            pair(f, g, d if f == "Q" else d - 2, d)
        j_form = J_KINDS[d - ZETA_DIMS[0]]
        pair(j_form.format(s=""), j_form.format(s="-"), d - 2, d)
    return simple[::ZETA_STRIDE] + extra[::ZETA_STRIDE]


def zeta_stream(pkg: SimpleNamespace, seed: int) -> list[str]:
    """One pass of ``zeta_cold``: both members of every pair, in seeded order.

    The set of germs is fixed and the seed only orders it: a seeded
    choice of germs changes the work of a pass by several percent, more
    than this benchmark can afford on a noisy host.
    """
    texts = list(dict.fromkeys(t for pair in zeta_pairs(pkg) for t in pair))
    random.Random(seed).shuffle(texts)
    return texts




# ---------------------------------------------------------------------------
# The program
# ---------------------------------------------------------------------------


def load_program() -> SimpleNamespace:
    """Import arczeta from the checkout's source tree."""
    if not (SRC / "arczeta" / "__init__.py").is_file():
        raise SystemExit(f"error: no arczeta package under {SRC}")
    sys.path.insert(0, str(SRC))
    import arczeta.cli  # noqa: F401  (loads every module the CLI uses)
    from arczeta import classifier, engine, formulas, germs, mpoly, parser, upoly

    caches = []
    for mod in (classifier, engine, formulas, germs, mpoly, parser, upoly):
        for value in vars(mod).values():
            is_cache = callable(getattr(value, "cache_clear", None)) and callable(
                getattr(value, "cache_info", None)
            )
            if is_cache and value not in caches:
                caches.append(value)
    return SimpleNamespace(
        cleared={id(cache): (0, 0) for cache in caches},
        classifier=classifier,
        engine=engine,
        formulas=formulas,
        germs=germs,
        parser=parser,
        MPoly=mpoly.MPoly,
        UPoly=upoly.UPoly,
        caches=caches,
    )


def clear_caches(pkg: SimpleNamespace) -> None:
    """Empty every package cache, keeping its hit and miss totals."""
    for cache in pkg.caches:
        pkg.cleared[id(cache)] = cache_stats(pkg, cache)
        cache.cache_clear()
    gc.collect()


def cache_stats(pkg: SimpleNamespace, cache) -> tuple[int, int]:
    """(hits, misses) of one cache since the program was loaded."""
    info = cache.cache_info()
    hits, misses = pkg.cleared[id(cache)]
    return hits + info.hits, misses + info.misses


def formula_cache_stats(pkg: SimpleNamespace) -> tuple[int, int]:
    """(hits, misses) of the closed-form cell cache, (0, 0) if it has none."""
    cache = pkg.germs.formula_cell
    return cache_stats(pkg, cache) if cache in pkg.caches else (0, 0)


def reference_kernel() -> float:
    """Seconds for a fixed product of two sparse polynomials over ℚ.

    It is the engine's inner loop (``MPoly.__mul__``) written with the
    standard library only: it shares the host's speed but none of the
    program's code, so no change to arczeta can move it.
    """
    t0 = time.perf_counter()
    a = {((i, 1), (i + 1, 2)): Fraction(i + 1, 3) for i in range(5)}
    b = {((i, 2),): Fraction(1, i + 2) for i in range(5)}
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            m = tuple(sorted(exps.items()))
            c = out.get(m, Fraction(0)) + c1 * c2
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return time.perf_counter() - t0


def reference_block() -> float:
    """The reference kernel's median time over a few back-to-back runs.

    The median keeps one run that was preempted from moving the block.
    """
    return statistics.median(reference_kernel() for _ in range(REF_REPEATS))


class SpeedSampler:
    """The reference kernel, timed every ``SAMPLE_INTERVAL_S`` during a request.

    The host's speed changes within a single request, so a kernel timed
    only before and after a request of seconds does not tell how fast
    the host ran during it.  A timer signal runs the kernel about every
    20 ms while the request runs, between two bytecodes of the request;
    the request's time in reference units is its time divided by the
    mean kernel time, which is a time average of the host's slowness.
    The kernel's own time is taken out of the request's time,
    ``elapsed``.  The garbage collector is held off while the kernel
    runs, so that no collection of the request's objects is charged to
    the kernel.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self.elapsed = 0.0
        self._sampling = False

    def _sample(self, signum=None, frame=None) -> None:
        if self._sampling:  # the timer fired again during a sample
            return
        self._sampling = True
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.samples.append(reference_kernel())
        finally:
            if collecting:
                gc.enable()
            self.spent += time.perf_counter() - t0
            self._sampling = False

    def __enter__(self) -> "SpeedSampler":
        self.samples = []
        self._sample()  # just before the request
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.spent = 0.0
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.elapsed = time.perf_counter() - self._start - self.spent
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()  # just after it

    def slowness(self) -> float:
        """Mean kernel time over the request, in seconds."""
        return statistics.fmean(self.samples)


def time_import() -> tuple[float, float]:
    """``import arczeta.cli`` in a fresh interpreter: seconds, reference units.

    The child times the import itself, so interpreter start-up, which no
    change to arczeta can move, is left out.  The reference kernel is
    timed just before and just after the child.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    before = reference_block()
    child = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT,
        env=env,
        check=True,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
    )
    after = reference_block()
    dt = float(child.stdout)
    return dt, dt / ((before + after) / 2)


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


class Pass:
    """What one pass over a workload's inputs did and returned."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.wall_ref = 0.0
        self.latencies: dict[object, float] = {}  # request key -> seconds
        self.latencies_ref: dict[object, float] = {}  # request key -> reference units
        self.attempted = 0
        self.failures: list[str] = []
        self.outputs: list[tuple[object, object, str]] = []  # (key, result, rendered)
        self.digest = ""
        self.counters: dict[str, int] = {}


def timed_pass(keys: list, prepare, request, tracer=None) -> Pass:
    """Time ``request(key)`` for every key, closed loop.

    ``prepare()`` runs untimed before each request.  Each latency is
    also expressed in reference units: its time divided by the
    reference kernel's mean time while it ran (see
    :class:`SpeedSampler`), which cancels the host's changes of speed.
    A request that raises is counted as failed.  With a tracer, each
    request is a root span under a fresh request id.
    """
    call = request if tracer is None else tracer.wrap("request", request)
    out = Pass()
    sampler = SpeedSampler()
    for key in keys:
        out.attempted += 1
        prepare()
        if tracer is not None:
            tracer.next_request()
        try:
            with sampler:
                result, rendered = call(key)
        except Exception as exc:  # the run goes on; the failure is counted
            out.failures.append(f"{key}: {type(exc).__name__}: {exc}")
            result = None
        dt = sampler.elapsed
        dt_ref = dt / sampler.slowness()
        out.wall += dt
        out.wall_ref += dt_ref
        if result is not None:
            out.latencies[key] = dt
            out.latencies_ref[key] = dt_ref
            out.outputs.append((key, result, rendered))
    return out


def table_request(pkg: SimpleNamespace):
    """``arczeta table --d D --format json``, as a function of D."""

    def request(d: int):
        report = pkg.classifier.ade_table(d, kmax=KMAX, N=N, source="auto")
        return report, report.to_json() + "\n"

    return request


def zeta_request(pkg: SimpleNamespace):
    """``arczeta zeta TEXT --N 9``, as a function of TEXT."""

    def request(text: str):
        table = pkg.germs.zeta_table(pkg.parser.parse_germ(text), N, source="hybrid")
        return table, table.to_text()

    return request


# ---------------------------------------------------------------------------
# Counters and checks
# ---------------------------------------------------------------------------


def digest(p: Pass) -> str:
    """sha256 of the rendered outputs, in a seed-independent order."""
    h = hashlib.sha256()
    for key, _, text in sorted(p.outputs, key=lambda o: str(o[0])):
        h.update(f"{key}\n".encode())
        h.update(text.encode())
    return h.hexdigest()


def _scan_length(entry) -> int:
    """How many cells the pair scan compared for one report entry."""
    full = (N - 1) * len(CHANNELS)
    cert = entry.certificate
    if cert is None or not cert.separated:
        return full
    return (cert.n - 2) * len(CHANNELS) + CHANNELS.index(cert.channel) + 1


def table_counters(p: Pass) -> dict[str, int]:
    """Deterministic counters read off a pass's classification reports."""
    entries = [e for _, report, _ in p.outputs for e in report.entries]
    return {
        "classifier.pairs": len(entries),
        "classifier.cells_compared": sum(_scan_length(e) for e in entries),
        "unavailable_cells": sum(len(e.unavailable) for e in entries),
        "classes": sum(len(report.classes) for _, report, _ in p.outputs),
    }


def zeta_counters(p: Pass) -> dict[str, int]:
    """Deterministic counters read off a pass's zeta tables."""
    c = {f"cells.{key}": 0 for key in ("formula", "oracle", "unavailable", "oracle_checked")}
    for _, table, _ in p.outputs:
        for _, cells in table.rows:
            for ch in CHANNELS:
                cell = cells[ch]
                c[f"cells.{cell.provenance}"] += 1
                c["cells.oracle_checked"] += cell.note == "oracle-checked"
    c["unavailable_cells"] = c["cells.unavailable"]
    c["classifier.pairs"] = 0
    c["classifier.cells_compared"] = 0
    return c


def check_tables(pkg: SimpleNamespace, p: Pass) -> list[str]:
    """Problems with a pass's classification reports."""
    problems = []
    for d, report, _ in p.outputs:
        if not report.ok or report.failures:
            problems.append(f"d={d}: report not ok: {report.failures[:3]}")
        if len(report.classes) != EXPECTED_CLASSES[d]:
            problems.append(
                f"d={d}: {len(report.classes)} classes, expected {EXPECTED_CLASSES[d]}"
            )
    return problems


def check_zeta(pkg: SimpleNamespace, p: Pass) -> list[str]:
    """Problems with a pass's zeta tables."""
    problems = []
    checked = 0
    for text, table, _ in p.outputs:
        if [n for n, _ in table.rows] != list(range(2, N + 1)):
            problems.append(f"{text}: rows are not n=2..{N}")
        checked += sum(
            cells[ch].note == "oracle-checked" for _, cells in table.rows for ch in CHANNELS
        )
    if not checked:
        problems.append("no cell was cross-checked against the oracle")
    tables = {text: table for text, table, _ in p.outputs}
    return problems + duality_problems(zeta_pairs(pkg), tables)


def duality_problems(pairs: list[tuple[str, str]], tables: dict[str, object]) -> list[str]:
    """Cells of negation duals that break A_n^{+1}(f) = A_n^{-1}(-f).

    Only cells with a value on both sides are compared: an engine
    failure is reported as an unavailable cell, not as a wrong one.
    """
    swap = {"plus": "minus", "minus": "plus", "naive": "naive"}
    problems = []
    for f, g in pairs:
        if f not in tables or g not in tables:
            continue
        for (n, cells_f), (_, cells_g) in zip(tables[f].rows, tables[g].rows):
            for ch in CHANNELS:
                a, b = cells_f[ch].value, cells_g[swap[ch]].value
                if a is not None and b is not None and a != b:
                    problems.append(f"{f} n={n}/{ch} = {a}, but its dual {g} has {b}")
    return problems


def recheck_certificates(pkg: SimpleNamespace, p: Pass) -> list[str]:
    """Re-derive every certificate cell of the tables with the engine alone."""
    problems: list[str] = []
    for d, report, _ in p.outputs:
        specs = {g.render(): g for g in pkg.classifier.enumerate_simple(d, KMAX)}
        pairs = [
            (specs[e.germ1], specs[e.germ2], e.certificate)
            for e in report.entries
            if e.certificate is not None
        ]
        problems.extend(pkg.classifier.oracle_recheck(pairs))
    return problems


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    """Everything that sets one workload apart from the others."""

    inputs: Callable[[SimpleNamespace, int], list]  # (pkg, seed) -> request keys
    request: Callable[[SimpleNamespace], Callable]  # pkg -> key -> (result, rendered)
    cold: bool  # caches are emptied before every request
    counters: Callable[[Pass], dict[str, int]]
    check: Callable[[SimpleNamespace, Pass], list[str]]  # after every pass
    recheck: Callable[[SimpleNamespace, Pass], list[str]] | None  # once, on the last pass


# The tables are fixed by the workload: the seed has no input to vary
# there, and their order moves the peak resident set.
WORKLOADS = {
    "table_cold": Kind(lambda pkg, seed: list(COLD_DIMS), table_request, True,
                       table_counters, check_tables, recheck_certificates),
    "zeta_cold": Kind(zeta_stream, zeta_request, True, zeta_counters, check_zeta, None),
    "table_warm": Kind(lambda pkg, seed: list(WARM_DIMS), table_request, False,
                       table_counters, check_tables, recheck_certificates),
}


class Workload:
    """Set-up, one pass, and the checks of one workload."""

    def __init__(self, name: str, pkg: SimpleNamespace, seed: int) -> None:
        self.kind = WORKLOADS[name]
        self.pkg = pkg
        self.inputs = self.kind.inputs(pkg, seed)

    def setup(self) -> Pass | None:
        """The cache fill of a warm workload, timed like a pass."""
        return None if self.kind.cold else self.run_pass()

    def run_pass(self, tracer=None) -> Pass:
        request = self.kind.request(self.pkg)
        if self.kind.cold:
            return timed_pass(self.inputs, lambda: clear_caches(self.pkg), request, tracer)
        gc.collect()
        return timed_pass(self.inputs, lambda: None, request, tracer)

    def finish(self, p: Pass, problems: list[str]) -> None:
        """Digest, count and check one pass's outputs."""
        p.digest = digest(p)
        rendered = sum(len(text.encode()) for _, _, text in p.outputs)
        p.counters = {"requests": len(p.outputs), **self.kind.counters(p),
                      "cli.render.bytes": rendered}
        problems.extend(p.failures)
        problems.extend(self.kind.check(self.pkg, p))

    def recheck(self, p: Pass) -> list[str]:
        return self.kind.recheck(self.pkg, p) if self.kind.recheck else []


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method), for any sample size >= 1."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timings(passes: list[Pass]) -> dict[str, float]:
    """End-to-end timings of the run, in seconds and in reference units.

    The host's CPU speed changes by up to a factor of two, so a time in
    seconds mostly measures the neighbours.  A time in reference units,
    each request divided by the reference kernel's mean time while it
    ran, cancels the change.  A request's latency is its
    median over the passes; ``wall`` is the median pass.
    """
    out: dict[str, float] = {}
    for unit in ("s", "ref"):
        per_request: dict[object, list[float]] = {}
        for p in passes:
            for key, dt in (p.latencies if unit == "s" else p.latencies_ref).items():
                per_request.setdefault(key, []).append(dt)
        # With no request completed the run is incorrect; 0.0 keeps the JSON valid.
        lat = [statistics.median(v) for v in per_request.values()] or [0.0]
        out[f"wall_{unit}"] = statistics.median(p.wall if unit == "s" else p.wall_ref for p in passes)
        out[f"request_p50_{unit}"] = statistics.median(lat)
        out[f"request_p90_{unit}"] = _quantile(lat, 90)
    return out


def _declared(kind: str) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec[kind]


def _metrics(kind: str, values: dict[str, float]) -> dict[str, dict]:
    out = {}
    for m in _declared(kind):
        if m["name"] not in values:
            raise KeyError(f"metric {m['name']} was not measured")
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pkg = load_program()
    workload = Workload(args.workload, pkg, args.seed)

    # Set-up time: the median fresh import plus a warm workload's cache
    # fill, each in reference units and then in seconds at the baseline
    # host's speed, so that it does not swing with the host either.
    imports = [time_import() for _ in range(IMPORT_REPEATS)]
    fill = workload.setup()
    problems: list[str] = []
    if fill:
        workload.finish(fill, problems)
        fill.outputs = []
    setup_raw_s = statistics.median(s for s, _ in imports) + (fill.wall if fill else 0.0)
    setup_ref = statistics.median(r for _, r in imports) + (fill.wall_ref if fill else 0.0)
    setup_s = setup_ref * REF_SECONDS

    passes: list[Pass] = []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < args.seconds:
        p = workload.run_pass()
        # Checked between passes, outside the timed region; only the last
        # pass keeps its outputs, so memory does not grow with the passes.
        workload.finish(p, problems)
        if passes:
            passes[-1].outputs = []
        passes.append(p)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    end_to_end = {"setup_s": setup_s, "setup_raw_s": setup_raw_s, "peak_rss_mb": peak_rss_mb,
                  **timings(passes)}

    traced = None
    if args.trace:
        from layers import install, per_layer
        from spans import Tracer

        tracer = Tracer()
        before = formula_cache_stats(pkg)
        install(tracer, pkg)
        try:
            traced = workload.run_pass(tracer)
        finally:
            tracer.remove()
        after = formula_cache_stats(pkg)
        workload.finish(traced, problems)

    # Correctness, outside every timed region.
    checked = passes + ([traced] if traced is not None else [])
    if len({p.digest for p in checked}) > 1:
        problems.append("passes rendered different outputs")
    if any(p.counters != passes[0].counters for p in checked):
        problems.append("passes returned different counters")
    problems.extend(workload.recheck(checked[-1]))

    attempted = sum(p.attempted for p in checked)
    failed = sum(len(p.failures) for p in checked)
    result: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "requests": len(passes[0].latencies),
        "samples_per_request": len(passes),
        "setup_import_s": [s for s, _ in imports],
        "setup_fill_s": fill.wall if fill else 0.0,
        "pass_walls_s": [p.wall for p in passes],
        "pass_latencies_s": [list(p.latencies.values()) for p in passes],
        "pass_keys": [str(k) for k in passes[0].latencies],
        "pass_walls_ref": [p.wall_ref for p in passes],
        "error_rate": failed / attempted,
        "digest": passes[0].digest,
        "counters": passes[0].counters,
        "problems": problems[:20],
        "end_to_end": end_to_end,
    }
    if traced is not None:
        layer = per_layer(
            tracer,
            (after[0] - before[0], after[1] - before[1]),
            {k: v for k, v in traced.counters.items() if k in REPORT_LAYER_METRICS},
        )
        layer["trace.wall_s"] = traced.wall
        layer["trace.overhead_s"] = traced.wall - statistics.median(p.wall for p in passes)
        result["per_layer"] = layer
        metrics = _metrics("per_layer", layer)
    else:
        metrics = _metrics("end_to_end", end_to_end)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    if traced is not None:
        tracer.write(OUT / f"{stem}-spans.json.gz")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"requests {len(passes[0].latencies)}  attempted {attempted}  failed {failed}  "
          f"error_rate {failed / attempted:g}")
    shown = {name: (m["value"], m["unit"]) for name, m in metrics.items()}
    if not args.trace:
        # The seconds behind the reference-unit metrics, for reading.
        shown.update((name, (value, "s")) for name, value in end_to_end.items()
                     if name.endswith("_s") and name not in shown)
    for name, (value, unit) in shown.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, value in passes[0].counters.items():
        print(f"  counter {name} = {value}")
    print(f"  digest sha256 {result['digest']}")
    for line in problems[:20]:
        print(f"  PROBLEM {line}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
