"""Span tracer that wraps gkzkit's public functions from outside.

`Tracer.install` replaces every public function of the traced modules with
a wrapper, in every gkzkit module that holds a reference to it (the
defining module, the package namespace and each module that imported the
function by name).  A wrapper records one span: name, start, end, parent
and whether it is the outermost span of that name on the stack.  Spans are
kept in flat arrays and summarized, or written out, after the run.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

TRACED_MODULES = (
    "intlinalg",
    "lp",
    "cones",
    "polynomials",
    "toric",
    "resonance",
    "weyl",
    "family",
    "report",
    "cli",
)

CACHED = ("toric.toric_ideal", "toric.quasi_degrees", "resonance.resonance_set")


def public_functions(module):
    """Public callables defined in module (plain functions and lru_cache wrappers)."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            out[name] = obj
    return out


def _total(key):
    return lambda values, lps_under: {key: sum(v for _, v in values)}


def _largest(key):
    return lambda values, lps_under: {key: max((v for _, v in values), default=0)}


def _lattice_counters(values, lps_under):
    """Faces of the lattices that ran LPs, and the LPs run under a lattice."""
    return {
        "faces_built": sum(v for idx, v in values if lps_under.get(idx)),
        "lp_in_lattice": sum(lps_under.values()),
    }


def _gauss_cells(args, result):
    rows = args[0]
    return len(rows) * (len(rows[0]) if rows else 0)


# Per-function counters: name -> (hook(args, result) -> value observed per
# call, reduce(values, lps_under) -> counters added to that name's summary).
# `values` holds (span index, value) pairs; `lps_under` maps the span index of
# a face_lattice call to the feasible_point calls nested in it.
OBSERVERS = {
    "lp.gauss_solve": (_gauss_cells, _total("cells")),
    "lp.feasible_point": (lambda args, result: 0 if result is None else 1, _total("feasible")),
    "polynomials.groebner_basis": (lambda args, result: len(result), _largest("out_len_max")),
    "cones.face_lattice": (lambda args, result: len(result.faces), _lattice_counters),
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")
        self.observed: dict[int, list] = {}
        self.originals: dict[str, object] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._depth: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self.name_id[name]

    def _wrap(self, name: str, func, observer):
        nid = self._intern(name)
        span_name, parent, start, end, outer = (
            self.span_name, self.parent, self.start, self.end, self.outer
        )
        stack, depth = self._stack, self._depth
        observed = self.observed.setdefault(nid, []) if observer else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            depth[nid] += 1
            outer.append(depth[nid] == 1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                depth[nid] -= 1
            if observer is not None:
                observed.append((idx, observer(args, result)))
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    def install(self) -> None:
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"{self.package.__name__}.{short}"]
            for fname, func in public_functions(module).items():
                name = f"{short}.{fname}"
                self.originals[name] = func
                hook = OBSERVERS[name][0] if name in OBSERVERS else None
                wrappers[id(func)] = self._wrap(name, func, hook)
        holders = [m for k, m in sys.modules.items() if k == self.package.__name__
                   or k.startswith(self.package.__name__ + ".")]
        for module in holders:
            for attr, obj in list(vars(module).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, w)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def cache_counts(self) -> dict[str, tuple[int, int]]:
        """(hits, misses) of the memoized layers, read from the unwrapped originals."""
        out = {}
        for name in CACHED:
            info = self.originals[name].cache_info()
            out[name] = (info.hits, info.misses)
        return out

    def summary(self) -> dict[str, dict]:
        """Per-function calls, self_s, incl_s and the derived layer counters."""
        n = len(self.start)
        names = self.names
        stats = {name: {"calls": 0, "self_s": 0.0, "incl_s": 0.0} for name in names}
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        fl = self.name_id.get("cones.face_lattice", -2)
        fp = self.name_id.get("lp.feasible_point", -2)
        nearest_fl = [-1] * n
        lps_under: dict[int, int] = {}
        for i in range(n):
            s = stats[names[self.span_name[i]]]
            dur = self.end[i] - self.start[i]
            s["calls"] += 1
            s["self_s"] += dur - child[i]
            if self.outer[i]:
                s["incl_s"] += dur
            p = self.parent[i]
            nearest_fl[i] = i if self.span_name[i] == fl else (nearest_fl[p] if p >= 0 else -1)
            if self.span_name[i] == fp and nearest_fl[i] >= 0:
                lps_under[nearest_fl[i]] = lps_under.get(nearest_fl[i], 0) + 1
        for nid, values in self.observed.items():
            reduce = OBSERVERS[names[nid]][1]
            stats[names[nid]].update(reduce(values, lps_under))
        return stats

    def write(self, path) -> None:
        """Write the raw spans: one JSON header line, then the five arrays."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": ["span_name:i", "parent:i", "start:d", "end:d", "outer:b"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.parent, self.start, self.end, self.outer):
                arr.tofile(fh)
