"""The benchmark's traced run patches package functions by name.

``perfbench/layers.py`` names the functions it times, the report methods
it times as rendering, and the ring methods it counts.  A rename or a
moved binding in the package breaks ``perfbench/run.py --trace 1``, so
every target must resolve on the loaded package, and installing the
hooks must succeed and be undone cleanly.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

from arczeta import classifier, engine, formulas, germs, parser
from arczeta.mpoly import MPoly
from arczeta.upoly import UPoly

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_hooks_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import layers
        import spans

        pkg = SimpleNamespace(
            classifier=classifier,
            engine=engine,
            formulas=formulas,
            germs=germs,
            parser=parser,
            MPoly=MPoly,
            UPoly=UPoly,
        )
        for module, attr in layers.SPANS.values():
            assert callable(getattr(getattr(pkg, module), attr)), (module, attr)
        for methods in layers.RENDERERS.values():
            for module, cls_name, method in methods:
                cls = getattr(getattr(pkg, module), cls_name)
                assert callable(getattr(cls, method)), (cls_name, method)
        for cls_name, methods in layers.COUNTED.values():
            for method in methods:
                assert callable(getattr(getattr(pkg, cls_name), method)), (cls_name, method)

        originals = {name: vars(mod).copy() for name, mod in vars(pkg).items()
                     if isinstance(mod, type(sys))}
        tracer = spans.Tracer()
        try:
            layers.install(tracer, pkg)
            assert germs.resolve_cell is not originals["germs"]["resolve_cell"]
            assert classifier.resolve_cell is germs.resolve_cell
        finally:
            tracer.remove()
        for name, namespace in originals.items():
            assert vars(getattr(pkg, name)) == namespace
    finally:
        for name in ("layers", "spans"):
            sys.modules.pop(name, None)
