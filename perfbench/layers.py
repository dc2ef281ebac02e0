"""Which arczeta functions the traced run wraps, and the per-layer metrics.

Every number here is taken at a layer boundary: from a span around a
public function, or from the object that function returned
(``ArcSystem``, ``EngineOutcome``, ``Cell``).  Nothing inside the
package is edited.
"""

from __future__ import annotations

from types import SimpleNamespace

from spans import Tracer

# Span name -> (module in the loaded package namespace, function name).
SPANS = {
    "engine.build_system": ("engine", "build_system"),
    "engine.decompose": ("engine", "decompose"),
    "germs.oracle_cell": ("germs", "oracle_cell"),
    "germs.resolve_cell": ("germs", "resolve_cell"),
    "formulas.cell": ("germs", "formula_cell"),
    "classifier.ade_table": ("classifier", "ade_table"),
    "classifier.distinguish": ("classifier", "distinguish"),
    "parser.parse_germ": ("parser", "parse_germ"),
}

# Span name -> the report methods that render output, as (module, class, method).
RENDERERS = {
    "cli.render": (("classifier", "ClassificationReport", "to_json"),
                   ("germs", "ZetaTable", "to_text")),
}

# Counter name -> (class in the loaded package namespace, method names).
COUNTED = {
    "mpoly.mul.calls": ("MPoly", ("__mul__", "__rmul__")),
    "mpoly.add.calls": ("MPoly", ("__add__",)),
    "mpoly.subs_zero.calls": ("MPoly", ("subs_zero",)),
    "upoly.mul.calls": ("UPoly", ("__mul__", "__rmul__")),
    "upoly.add.calls": ("UPoly", ("__add__", "__radd__")),
}

def install(tracer: Tracer, pkg: SimpleNamespace) -> None:
    """Wrap every traced function and counted method of ``pkg``."""

    def on_system(args, kwargs, system) -> None:
        tracer.add("engine.build_system.vars", system.total_vars)
        tracer.add("engine.build_system.constraints", len(system.constraints))

    def on_outcome(args, kwargs, outcome) -> None:
        tracer.add("engine.decompose.strata", outcome.strata)
        tracer.add("engine.decompose.leaves", len(outcome.leaves))
        if outcome.ok:
            tracer.add("engine.decompose.ok")
        else:
            tracer.add("engine.decompose.fail." + outcome.failure.replace("-", "_"))

    def on_cell(args, kwargs, cell) -> None:
        source = kwargs["source"] if "source" in kwargs else args[3]
        if source == "hybrid" and cell.note == "oracle-checked":
            tracer.add("germs.cross_checks")

    def on_formula_error(exc: BaseException) -> None:
        if isinstance(exc, pkg.formulas.OutOfCoverage):
            tracer.add("formulas.cell.out_of_coverage")

    hooks = {
        "engine.build_system": (on_system, None),
        "engine.decompose": (on_outcome, None),
        "germs.resolve_cell": (on_cell, None),
        "formulas.cell": (None, on_formula_error),
    }
    for name, (module, attr) in SPANS.items():
        original = getattr(getattr(pkg, module), attr)
        on_result, on_error = hooks.get(name, (None, None))
        tracer.patch_function(original, tracer.wrap(name, original, on_result, on_error))
    for name, methods in RENDERERS.items():
        for module, cls_name, method in methods:
            cls = getattr(getattr(pkg, module), cls_name)
            tracer.patch_attr(cls, method, tracer.wrap(name, getattr(cls, method)))
    for name, (cls_name, methods) in COUNTED.items():
        cls = getattr(pkg, cls_name)
        for method in methods:
            tracer.patch_attr(cls, method, tracer.counting(name, getattr(cls, method)))


def _ratio(part: float, whole: float) -> float:
    """``part / whole``, and 0.0 when nothing was attempted."""
    return part / whole if whole else 0.0


def per_layer(
    tracer: Tracer,
    formula_cache: tuple[int, int],
    report: dict[str, float],
) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``formula_cache`` is the (hits, misses) change of the closed-form
    cache over the pass; ``report`` holds the counters read off the
    pass's returned reports and tables.
    """
    spans = tracer.summary()
    counts = tracer.counts

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    oracle_calls = span("germs.oracle_cell", "calls")
    decompose_calls = span("engine.decompose", "calls")
    hits, misses = formula_cache
    out = {
        "engine.build_system.calls": span("engine.build_system", "calls"),
        "engine.build_system.busy_s": span("engine.build_system", "busy_s"),
        "engine.build_system.vars": counts.get("engine.build_system.vars", 0),
        "engine.build_system.constraints": counts.get("engine.build_system.constraints", 0),
        "engine.decompose.calls": decompose_calls,
        "engine.decompose.busy_s": span("engine.decompose", "busy_s"),
        "engine.decompose.strata": counts.get("engine.decompose.strata", 0),
        "engine.decompose.leaves": counts.get("engine.decompose.leaves", 0),
        "engine.decompose.ok_ratio": _ratio(
            counts.get("engine.decompose.ok", 0), decompose_calls
        ),
        "engine.decompose.fail.unmatched_terminal": counts.get(
            "engine.decompose.fail.unmatched_terminal", 0
        ),
        "engine.decompose.fail.depth_exceeded": counts.get(
            "engine.decompose.fail.depth_exceeded", 0
        ),
        "germs.oracle_cell.calls": oracle_calls,
        # A call that reached no engine span was answered by a cache.
        "germs.oracle_cell.cache_hit_ratio": _ratio(
            tracer.childless("germs.oracle_cell"), oracle_calls
        ),
        "germs.resolve_cell.calls": span("germs.resolve_cell", "calls"),
        "germs.resolve_cell.self_s": span("germs.resolve_cell", "self_s"),
        "germs.cross_checks": counts.get("germs.cross_checks", 0),
        "formulas.cell.calls": span("formulas.cell", "calls"),
        "formulas.cell.busy_s": span("formulas.cell", "busy_s"),
        "formulas.cell.cache_hit_ratio": _ratio(hits, hits + misses),
        "formulas.cell.out_of_coverage": counts.get("formulas.cell.out_of_coverage", 0),
        "classifier.ade_table.self_s": span("classifier.ade_table", "self_s"),
        "classifier.distinguish.calls": span("classifier.distinguish", "calls"),
        "classifier.distinguish.busy_s": span("classifier.distinguish", "busy_s"),
        "cli.render.busy_s": span("cli.render", "busy_s"),
        "parser.parse_germ.calls": span("parser.parse_germ", "calls"),
        "parser.parse_germ.busy_s": span("parser.parse_germ", "busy_s"),
    }
    for name in COUNTED:
        out[name] = counts.get(name, 0)
    out.update(report)
    return out
