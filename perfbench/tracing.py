"""Span tracing of polyproj's layers, installed from outside the package.

The tracer replaces each traced function at every place it is bound: the
defining module, every polyproj module that imported it by name, and the
class that owns it for methods.  Each call then records one span

    [name, start, end, parent, attrs]

in memory, where ``parent`` is the index of the span that was open when the
call began (-1 for none) and ``attrs`` holds a few values read off the
arguments or the result.  ``uninstall`` puts every original back, so the same
process can alternate traced and untraced projections.

Self time is a span's duration minus the time covered by its direct
children; since calls nest, the self times of all spans under a root add up
to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (span name, module, attribute path inside the module)
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("lp.lp_minimize", "polyproj.lp", "lp_minimize"),
    ("simplex.solve_standard", "polyproj.simplex", "solve_standard"),
    ("simplex.multipliers", "polyproj.simplex", "StandardResult.multipliers"),
    ("simplex.farkas", "polyproj.simplex", "StandardResult.farkas"),
    ("linalg.rref", "polyproj.linalg", "rref"),
    ("redundancy.prune_redundant", "polyproj.redundancy", "prune_redundant"),
    ("redundancy.implied_equalities", "polyproj.redundancy", "implied_equalities"),
    ("redundancy._linprog", "polyproj.redundancy", "_linprog"),
    ("fme.fme_step", "polyproj.fme", "fme_step"),
    ("fme.fme_project", "polyproj.fme", "fme_project"),
    ("geometry.find_vertex", "polyproj.geometry", "find_vertex"),
    ("geometry.basis_simplex", "polyproj.geometry", "basis_simplex"),
    ("geometry.is_implied", "polyproj.geometry", "is_implied"),
    ("hull.add_point", "polyproj.hull", "IncrementalHull.add_point"),
    ("chm.chm_project", "polyproj.chm", "chm_project"),
    ("afi.rotate", "polyproj.afi", "rotate"),
    ("afi.afi_project", "polyproj.afi", "afi_project"),
    ("epm.epm_sample_face", "polyproj.epm", "epm_sample_face"),
)

#: the layers, in the order metrics are reported
MODULES = ("lp", "simplex", "linalg", "redundancy", "fme", "geometry", "hull",
           "chm", "afi", "epm")

ROOT = "project"


def _lp_attrs(args, kwargs, result):
    return {"want_point": kwargs.get("want_point", True), "status": result.status}


def _solve_attrs(args, kwargs, result):
    A, c = args[0], args[2]
    return {"cells": len(A) * len(c)}


def _prune_attrs(args, kwargs, result):
    return {"rows_in": len(args[0].rows), "rows_out": len(result.rows)}


def _step_attrs(args, kwargs, result):
    return {"rows_out": len(result.rows)}


def _add_point_attrs(args, kwargs, result):
    return {"accepted": bool(result)}


def _chm_attrs(args, kwargs, result):
    return {"lp_rounds": result.lp_rounds}


ATTRS: Dict[str, Callable] = {
    "lp.lp_minimize": _lp_attrs,
    "simplex.solve_standard": _solve_attrs,
    "redundancy.prune_redundant": _prune_attrs,
    "fme.fme_step": _step_attrs,
    "hull.add_point": _add_point_attrs,
    "chm.chm_project": _chm_attrs,
}


def import_package() -> List[object]:
    """Import every polyproj module, so every by-name binding exists."""
    import polyproj

    for info in pkgutil.iter_modules(polyproj.__path__):
        importlib.import_module("polyproj." + info.name)
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "polyproj" or name.startswith("polyproj.")]


def _owners(modules):
    """Every namespace that can hold a binding: modules and their classes."""
    for mod in modules:
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == mod.__name__:
                yield value


def originals() -> Dict[str, object]:
    """Span name -> the untraced function object, read from the defining place."""
    out = {}
    for name, modname, path in TARGETS:
        obj = sys.modules[modname]
        for part in path.split("."):
            obj = vars(obj)[part]
        while getattr(obj, "_span", None) is not None:
            obj = obj.__wrapped__
        out[name] = obj
    return out


class Tracer:
    """One trace: spans of every call made while installed."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, attrs: Optional[Callable]):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        functools.update_wrapper(traced, fn)
        traced._span = name
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = import_package()
        wrappers = {}
        for name, fn in originals().items():
            wrappers[id(fn)] = self._wrap(name, fn, ATTRS.get(name))
        for owner in _owners(modules):
            for attr, value in list(vars(owner).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((owner, attr, value))
                    setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def root(self, fn):
        """Run fn() under a root span; returns its result."""
        return self._wrap(ROOT, fn, None)()


def unwrapped_bindings() -> List[str]:
    """Places in polyproj that still hold an untraced original."""
    modules = import_package()
    wanted = {id(fn): name for name, fn in originals().items()}
    found = []
    for owner in _owners(modules):
        for attr, value in vars(owner).items():
            if id(value) in wanted:
                where = getattr(owner, "__qualname__", getattr(owner, "__name__", owner))
                found.append("%s.%s (%s)" % (where, attr, wanted[id(value)]))
    return found


def check_tree(spans: List[list]) -> List[str]:
    """Structural problems of a span list; empty when the tree is well formed."""
    problems = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end < start:
            problems.append("span %d (%s) ends before it starts" % (i, name))
        if parent == -1:
            if name != ROOT:
                problems.append("span %d (%s) has no parent" % (i, name))
            continue
        if not 0 <= parent < i:
            problems.append("span %d (%s) has parent %d" % (i, name, parent))
            continue
        pstart, pend = spans[parent][1], spans[parent][2]
        if start < pstart or end > pend:
            problems.append("span %d (%s) is not inside its parent" % (i, name))
    return problems


def self_times(spans: List[list]) -> List[float]:
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """Per-layer counts and times of one traced projection (one root span)."""
    selfs = self_times(spans)
    names = [s[0] for s in spans]

    def has_ancestor(i: int, name: str) -> bool:
        parent = spans[i][3]
        while parent >= 0:
            if names[parent] == name:
                return True
            parent = spans[parent][3]
        return False

    idx: Dict[str, List[int]] = {}
    for i, name in enumerate(names):
        idx.setdefault(name, []).append(i)

    def of(name):
        return idx.get(name, [])

    def calls(name):
        return len(of(name))

    def busy(name):
        return sum(spans[i][2] - spans[i][1] for i in of(name)
                   if not has_ancestor(i, name))

    def self_s(name):
        return sum(selfs[i] for i in of(name))

    def attr_sum(name, key):
        return sum(spans[i][4][key] for i in of(name) if spans[i][4] is not None)

    lp = of("lp.lp_minimize")
    lp_attrs = [spans[i][4] for i in lp if spans[i][4] is not None]
    probes = calls("redundancy._linprog")
    fallbacks = sum(1 for i in lp if spans[i][3] >= 0
                    and names[spans[i][3]].startswith("redundancy."))
    steps = [spans[i][4]["rows_out"] for i in of("fme.fme_step") if spans[i][4]]

    m = {
        "lp.exact_lps": len(lp),
        "lp.point_lps": sum(1 for a in lp_attrs if a["want_point"]),
        "lp.infeasible": sum(1 for a in lp_attrs if a["status"] == "infeasible"),
        "lp.unbounded": sum(1 for a in lp_attrs if a["status"] == "unbounded"),
        "lp.lp_minimize.busy_s": busy("lp.lp_minimize"),
        "lp.lp_minimize.self_s": self_s("lp.lp_minimize"),
        "simplex.solve_standard.calls": calls("simplex.solve_standard"),
        "simplex.solve_standard.self_s": self_s("simplex.solve_standard"),
        "simplex.tableau_cells": attr_sum("simplex.solve_standard", "cells"),
        "simplex.multipliers.calls": calls("simplex.multipliers"),
        "simplex.multipliers.busy_s": busy("simplex.multipliers"),
        "simplex.farkas.calls": calls("simplex.farkas"),
        "linalg.rref.calls": calls("linalg.rref"),
        "linalg.rref.self_s": self_s("linalg.rref"),
        "redundancy.prune_redundant.calls": calls("redundancy.prune_redundant"),
        "redundancy.prune_redundant.busy_s": busy("redundancy.prune_redundant"),
        "redundancy.prune_redundant.self_s": self_s("redundancy.prune_redundant"),
        "redundancy.rows_in": attr_sum("redundancy.prune_redundant", "rows_in"),
        "redundancy.rows_out": attr_sum("redundancy.prune_redundant", "rows_out"),
        "redundancy.implied_equalities.busy_s": busy("redundancy.implied_equalities"),
        "redundancy.float_probes": probes,
        "redundancy.float_probe_s": busy("redundancy._linprog"),
        "redundancy.exact_fallbacks": fallbacks,
        "redundancy.float_decided_frac": 1 - fallbacks / probes if probes else 0.0,
        "fme.fme_step.calls": calls("fme.fme_step"),
        "fme.fme_step.busy_s": busy("fme.fme_step"),
        "fme.rows_peak": max(steps, default=0),
        "fme.fme_project.self_s": self_s("fme.fme_project"),
        "geometry.find_vertex.calls": calls("geometry.find_vertex"),
        "geometry.find_vertex.busy_s": busy("geometry.find_vertex"),
        "geometry.basis_simplex.busy_s": busy("geometry.basis_simplex"),
        "geometry.is_implied.calls": calls("geometry.is_implied"),
        "geometry.is_implied.busy_s": busy("geometry.is_implied"),
        "hull.add_point.calls": calls("hull.add_point"),
        "hull.add_point.accepted": sum(1 for i in of("hull.add_point")
                                       if spans[i][4] and spans[i][4]["accepted"]),
        "hull.add_point.busy_s": busy("hull.add_point"),
        "chm.chm_project.calls": calls("chm.chm_project"),
        "chm.lp_rounds": attr_sum("chm.chm_project", "lp_rounds"),
        "chm.chm_project.self_s": self_s("chm.chm_project"),
        "afi.rotate.calls": calls("afi.rotate"),
        "afi.rotate.busy_s": busy("afi.rotate"),
        "afi.chm_leaves": sum(1 for i in of("chm.chm_project")
                              if has_ancestor(i, "afi.afi_project")),
        "epm.epm_sample_face.calls": calls("epm.epm_sample_face"),
        "epm.epm_sample_face.busy_s": busy("epm.epm_sample_face"),
    }
    for module in MODULES:
        m[module + ".self_s"] = sum(selfs[i] for i, name in enumerate(names)
                                    if name.startswith(module + "."))
    m["trace.root_self_s"] = self_s(ROOT)
    m["trace.spans"] = len(spans)
    return m
