"""Spans and counters recorded around folcontact's public functions.

The benchmark traces the program from outside: `install` replaces each
traced function at every module attribute a caller looks it up through
(`contact` binds `jacobian_form` at import, `leaf` reads it from `algebra`
at call time, `cli` binds most names), and `uninstall` puts the originals
back. Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

# Functions recorded as spans (calls and self time), as (module, attribute).
SPANNED = [
    ("algebra", "jacobian_form"),
    ("algebra", "PolyOneForm.evaluate"),
    ("algebra", "takagi"),
    ("linear", "analyze"),
    ("contact", "sphere_search"),
    ("contact", "contact_residual"),
    ("contact", "continue_radially"),
    ("leaf", "flow_to_critical"),
    ("leaf", "project_to_leaf"),
    ("leaf", "sample_field"),
    ("leaf", "leaf_hessian"),
    ("leaf", "index_persistence"),
    ("leaf", "transversality_scan"),
    ("index", "disc_tangency_audit"),
    ("jsonio", "form_from_json"),
    ("jsonio", "matrix_from_json"),
    ("cli", "main"),
]
# Functions only counted: a span per call would cost more than the call.
COUNTED = [("algebra", "Polynomial.evaluate")]

PACKAGE = "folcontact"


def _observe_search(tracer: "Tracer", result) -> None:
    tracer.counts["contact.points_distinct"] += len(result.points)
    tracer.counts["contact.seeds_converged"] += result.seeds_converged


def _observe_flow(tracer: "Tracer", result) -> None:
    tracer.counts["leaf.flow_steps"] += result.steps
    tracer.counts["leaf.flows_polished"] += int(result.polished)


OBSERVERS = {
    "contact.sphere_search": _observe_search,
    "leaf.flow_to_critical": _observe_flow,
}


class Tracer:
    """One span per call: [name, start, end, parent span index or -1]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def spanned(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """{span name: (calls, total self time in s)}."""
        out: dict[str, list] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            entry = out.setdefault(span[0], [0, 0.0])
            entry[0] += 1
            entry[1] += own
        return {name: (calls, own) for name, (calls, own) in out.items()}

    def write(self, path) -> None:
        """Write the spans as gzipped JSON: one [name, start, end, parent] per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c0, c1 in sorted(children.get(idx, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def _resolve(module, path: str):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every traced function; returns the patches for `uninstall`."""
    for mod_name, _ in SPANNED + COUNTED:
        importlib.import_module(f"{PACKAGE}.{mod_name}")
    modules = [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")]
    patches = []
    for targets, make in ((SPANNED, tracer.spanned), (COUNTED, tracer.counted)):
        for mod_name, path in targets:
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            owner, attr = _resolve(module, path)
            orig = getattr(owner, attr)
            wrapper = make(f"{mod_name}.{path}", orig)
            if owner is module:
                # every module that bound the function by name gets the wrapper
                holders = [m for m in modules if getattr(m, attr, None) is orig]
            else:
                holders = [owner]  # a method: patch the class once
            for holder in holders:
                patches.append((holder, attr, orig))
                setattr(holder, attr, wrapper)
    return patches


def uninstall(patches: list[tuple[object, str, object]]) -> None:
    for holder, attr, orig in reversed(patches):
        setattr(holder, attr, orig)
