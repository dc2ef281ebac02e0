"""The benchmark's traced run patches package functions by name.

``perfbench/layers.py`` names the functions it times, the report methods
it times as rendering, and the ring methods it counts.  A rename or a
moved binding in the package breaks ``perfbench/run.py --trace 1``, so
every target must resolve on the loaded package, installing the hooks
must succeed and be undone cleanly, and the hooks must read the engine's
counters off what ``build_system`` and ``decompose`` return.  The span on
``formula_cell`` must see every closed form ``resolve_cell`` reads.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

from arczeta import classifier, engine, formulas, germs, parser
from arczeta.mpoly import MPoly
from arczeta.upoly import UPoly

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PKG = SimpleNamespace(
    classifier=classifier,
    engine=engine,
    formulas=formulas,
    germs=germs,
    parser=parser,
    MPoly=MPoly,
    UPoly=UPoly,
)


def test_benchmark_hooks_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import layers
        import spans

        pkg = PKG
        for module, attr in layers.SPANS.values():
            assert callable(getattr(getattr(pkg, module), attr)), (module, attr)
        for methods in layers.RENDERERS.values():
            for module, cls_name, method in methods:
                cls = getattr(getattr(pkg, module), cls_name)
                assert callable(getattr(cls, method)), (cls_name, method)
        for cls_name, methods in layers.COUNTED.values():
            for method in methods:
                assert callable(getattr(getattr(pkg, cls_name), method)), (cls_name, method)

        # one small cell, unwrapped: the quadric Q(2,1) at order 3
        germ = MPoly.var(0, 2) + MPoly.var(1, 2) - MPoly.var(2, 2)
        blocks = ("c", "c", "c")
        system = engine.build_system(germ, blocks, 3, 1)
        outcome = engine.decompose(system)
        assert outcome.ok
        expected = {
            "engine.build_system.vars": system.total_vars,
            "engine.build_system.constraints": len(system.constraints),
            "engine.decompose.strata": outcome.strata,
            "engine.decompose.leaves": len(outcome.leaves),
            "engine.decompose.ok": 1,
        }
        assert expected["engine.build_system.vars"] == 3 * 3

        originals = {name: vars(mod).copy() for name, mod in vars(pkg).items()
                     if isinstance(mod, type(sys))}
        tracer = spans.Tracer()
        try:
            layers.install(tracer, pkg)
            assert germs.resolve_cell is not originals["germs"]["resolve_cell"]
            assert classifier.resolve_cell is germs.resolve_cell
            traced = engine.beta_of(germ, blocks, 3, 1)
            assert traced.value == outcome.value
            assert {name: tracer.counts.get(name) for name in expected} == expected
        finally:
            tracer.remove()
        for name, namespace in originals.items():
            assert vars(getattr(pkg, name)) == namespace
    finally:
        for name in ("layers", "spans"):
            sys.modules.pop(name, None)


def test_closed_form_span_counts_every_resolved_cell(monkeypatch):
    """``resolve_cell`` reads the closed forms through the ``formula_cell``
    the traced run wraps, so a covered and an uncovered cell under ``auto``
    are two calls on the ``formulas.cell`` span."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import layers
        import spans

        g = germs.GermSpec("AK", (1, 1), k=2, signs=(1,))  # formulas cover n <= 3
        tracer = spans.Tracer()
        try:
            layers.install(tracer, PKG)
            for n in (3, 4):
                germs.resolve_cell(g, n, "plus", "auto")
            calls = {name: row["calls"] for name, row in tracer.summary().items()}
        finally:
            tracer.remove()
        assert calls.get("germs.resolve_cell") == 2
        assert calls.get("formulas.cell") == 2
    finally:
        for name in ("layers", "spans"):
            sys.modules.pop(name, None)


def test_engine_zeroings_reach_the_counted_method(monkeypatch):
    """perfbench counts ``MPoly.subs_zero``, so the engine's one-variable
    zeroings (the split's zero branch and ``_T``'s slice) must call it: a
    cell with a split records a nonzero ``mpoly.subs_zero.calls``.  The
    quadric cell below has two splits of two constraints each and two
    ``_T`` slices, so both call sites are seen."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import layers
        import spans

        germ = MPoly.var(0, 2) + MPoly.var(1, 2) - MPoly.var(2, 2)
        engine._T.cache_clear()
        tracer = spans.Tracer()
        try:
            layers.install(tracer, PKG)
            outcome = engine.beta_of(germ, ("c", "c", "c"), 3, 1)
        finally:
            tracer.remove()
        assert any(line.lstrip().startswith("[split]") for line in outcome.trace)
        assert tracer.counts.get("mpoly.subs_zero.calls", 0) > 0
        assert tracer.counts["mpoly.subs_zero.calls"] == 2 * 2 + 2
    finally:
        for name in ("layers", "spans"):
            sys.modules.pop(name, None)
