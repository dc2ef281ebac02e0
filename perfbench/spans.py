"""Span recorder and counting wrappers for the traced benchmark run.

The benchmark measures arczeta from outside, so every span is recorded
by a wrapper that this module installs around a public function of the
package, and removes again before any untraced measurement.

A span is ``(name, start_ns, end_ns, parent, request)``: ``parent`` is
the index of the enclosing span (-1 at the top) and ``request`` the id
of the benchmark request the span belongs to.  Spans are kept in memory
and written out once, at the end of the run.  A span's self time is its
duration minus the durations of its direct children.

The ℚ[x] and ℤ[u] ring operations run millions of times per table, so
they are counted only, with no span.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from typing import Any, Callable

_PACKAGE = "arczeta"


def _package_modules() -> list[Any]:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == _PACKAGE or name.startswith(_PACKAGE + "."))
    ]


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self.request = 0
        self.counts: dict[str, int] = {}
        self._restore: list[tuple[Any, str, Any]] = []
        self._t0 = time.perf_counter_ns()

    # -- recording ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def next_request(self) -> None:
        """Give the spans that follow a fresh request id."""
        self.request += 1

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Callable[[tuple, dict, Any], None] | None = None,
        on_error: Callable[[BaseException], None] | None = None,
    ) -> Callable:
        """``fn`` recorded as a span named ``name`` on every call."""
        nid = self._name_id(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        # Kept lean: this runs ~10^5 times a pass.
        def traced(*args, **kwargs):
            idx = len(spans)
            record = [nid, 0, 0, stack[-1] if stack else -1, self.request]
            spans.append(record)
            stack.append(idx)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[2] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            record[2] = clock()
            stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counting(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call counted under ``name`` and no span."""
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        counted.__wrapped__ = fn
        return counted

    # -- patching -------------------------------------------------------

    def patch_function(self, original: Callable, replacement: Callable) -> int:
        """Rebind ``original`` to ``replacement`` in every package namespace.

        ``from .germs import resolve_cell`` binds a second name for the
        same object in the importing module, so every module of the
        package that holds the object is patched.  Returns how many
        names were rebound.
        """
        rebound = 0
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replacement)
                    rebound += 1
        if not rebound:
            raise RuntimeError(f"{original!r} is bound in no arczeta module")
        return rebound

    def patch_attr(self, owner: Any, attr: str, replacement: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        """Undo every patch, newest first."""
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- analysis -------------------------------------------------------

    def _durations(self) -> tuple[list[int], list[int]]:
        dur = [end - start for _, start, end, _, _ in self.spans]
        children = [0] * len(self.spans)
        for idx, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                children[parent] += dur[idx]
        return dur, children

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, busy seconds and self seconds.

        None of the wrapped functions calls itself, so busy time is the
        plain sum of the span durations.
        """
        dur, children = self._durations()
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names
        }
        for idx, (nid, _, _, _, _) in enumerate(self.spans):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["busy_s"] += dur[idx] / 1e9
            row["self_s"] += (dur[idx] - children[idx]) / 1e9
        return out

    def childless(self, name: str) -> int:
        """How many spans called ``name`` have no child span."""
        if name not in self._name_ids:
            return 0
        nid = self._name_ids[name]
        has_child = set(parent for _, _, _, parent, _ in self.spans if parent >= 0)
        return sum(
            1
            for idx, span in enumerate(self.spans)
            if span[0] == nid and idx not in has_child
        )

    def write(self, path) -> None:
        """Write every span, with times relative to the tracer's creation."""
        t0 = self._t0
        payload = {
            "fields": ["name", "start_ns", "end_ns", "parent", "request"],
            "names": self.names,
            "spans": [
                [nid, start - t0, end - t0, parent, req]
                for nid, start, end, parent, req in self.spans
            ],
            "counts": self.counts,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
