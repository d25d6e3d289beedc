"""Spans and call counters installed from outside the program.

Nothing under `src/` knows about this module. A `Tracer` replaces the
public functions named in `SPANS` and `COUNTERS` with wrappers, on every
name a caller looks them up by: each `ripsapprox` module global bound to
the function (so `cli.reduce_filtration` and `tower.spanned_faces` are
wrapped, not only the defining module's name), or the class attribute
for methods. `uninstall` puts the original objects back.

Spans record name, start, end, parent span and run id, stay in memory,
and are written as JSON lines by the caller. Counters are for calls too
hot for a span object each: they keep a call count and, when timed, busy
seconds, which also count as covered time of the enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    id: int
    parent: Optional[int]
    run: str
    name: str
    start: float
    end: float = 0.0
    hot_s: float = 0.0  # time of timed counters called directly under this span
    attrs: Dict[str, int] = field(default_factory=dict)


def _tally_events(stream) -> Dict[str, int]:
    # counted here independently of EventStream.counts(), which is stored
    # alongside so the two can be compared
    tally = {"S": 0, "I": 0, "C": 0}
    for e in stream.events:
        tally[type(e).__name__[0]] += 1
    out = {"events_" + k: v for k, v in tally.items()}
    out.update({"counts_" + k: v for k, v in stream.counts().items()})
    return out


# span name -> (target "module:qualname", attrs(args, kwargs, result) or None)
SPANS: Dict[str, List[Tuple[str, Optional[Callable]]]] = {
    "cli.main": [("ripsapprox.cli:main", None)],
    "geometry.from_file": [("ripsapprox.geometry:PointCloud.from_file", None)],
    "geometry.closest_pair": [("ripsapprox.geometry:closest_pair", None)],
    "geometry.pairwise_distances": [
        ("ripsapprox.geometry:PointCloud.pairwise_distances",
         lambda a, kw, r: {"bytes": a[0].n * a[0].n * a[0].d * 8})],
    "cubical.active_vertices": [("ripsapprox.cubical:active_vertices", None)],
    "cubical.spanned_faces": [
        ("ripsapprox.cubical:spanned_faces",
         lambda a, kw, r: {"active": len(a[1]), "spanned": len(r)})],
    "cubical.closure": [
        ("ripsapprox.cubical:closure",
         lambda a, kw, r: {"cells": len(r), "secondary": len(r) - len(set(a[0]))})],
    "tower.build": [("ripsapprox.tower:build_simplicial_tower", lambda a, kw, r: _tally_events(r)),
                    ("ripsapprox.tower:build_cubical_tower", lambda a, kw, r: _tally_events(r))],
    "tower.to_text": [("ripsapprox.tower:EventStream.to_text",
                       lambda a, kw, r: {"bytes": len(r.encode())})],
    "tower.parse": [("ripsapprox.tower:EventStream.parse", None)],
    "tower.replay": [("ripsapprox.tower:replay", None)],
    "persistence.tower_barcode": [("ripsapprox.persistence:tower_barcode",
                                   lambda a, kw, r: {"bars": r.total()})],
    "persistence.rips_filtration": [("ripsapprox.persistence:rips_filtration",
                                     lambda a, kw, r: {"simplices": len(r)})],
    "persistence.reduce": [("ripsapprox.persistence:reduce", None)],
    "diagram.certify": [("ripsapprox.diagram:certify_approximation",
                         lambda a, kw, r: {"intervals": a[0].total() + a[1].total()})],
}

# counter name -> (target, timed)
COUNTERS: Dict[str, Tuple[str, bool]] = {
    "lattice.locate": ("ripsapprox.lattice:locate", False),
    "lattice.face_vertices": ("ripsapprox.lattice:face_vertices", False),
    "lattice.subfaces": ("ripsapprox.lattice:subfaces", False),
    "lattice.vertex_map_g": ("ripsapprox.lattice:vertex_map_g", False),
    "lattice.face_map_g": ("ripsapprox.lattice:face_map_g", True),
    "cubical.is_spanned": ("ripsapprox.cubical:is_spanned", False),
}

MODULES = ("cli", "geometry", "lattice", "cubical", "tower", "persistence", "diagram")


class Tracer:
    def __init__(self, run: str):
        self.run = run
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        self.calls: Dict[str, int] = {name: 0 for name in COUNTERS}
        self.busy: Dict[str, float] = {name: 0.0 for name in COUNTERS}
        self.errors: Dict[str, int] = {m: 0 for m in MODULES}
        self._restore: List[Tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn, attrs):
        module = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1].id if self.stack else None
            span = Span(len(self.spans), parent, self.run, name, time.perf_counter())
            self.spans.append(span)
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[module] += 1
                raise
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result
        return wrapper

    def _counter_wrapper(self, name: str, fn, timed: bool):
        module = name.split(".")[0]
        calls, busy, errors, stack = self.calls, self.busy, self.errors, self.stack
        clock = time.perf_counter

        if not timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    errors[module] += 1
                    raise
            return counted

        @functools.wraps(fn)
        def timed_call(*args, **kwargs):
            calls[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[module] += 1
                raise
            finally:
                dt = clock() - t0
                busy[name] += dt
                if stack:
                    stack[-1].hot_s += dt
        return timed_call

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of the traced functions in loaded `ripsapprox` modules."""
        for name, targets in SPANS.items():
            for target, attrs in targets:
                self._patch(target, lambda fn: self._span_wrapper(name, fn, attrs))
        for name, (target, timed) in COUNTERS.items():
            self._patch(target, lambda fn: self._counter_wrapper(name, fn, timed))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch(self, target: str, make: Callable) -> None:
        modname, qualname = target.split(":")
        owner = importlib.import_module(modname)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        if path:  # a method: callers look it up on the class
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(make(original.__func__))
            else:
                wrapped = make(original)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            return
        original = getattr(owner, attr)
        wrapped = make(original)
        for mod in [m for n, m in sys.modules.items()
                    if m is not None and (n == "ripsapprox" or n.startswith("ripsapprox."))]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapped)


# -- analysis ---------------------------------------------------------------

def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus child-span coverage minus timed-counter time."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered(children.get(s.id, ()), s.start, s.end) - s.hot_s
            for s in spans}


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics of one traced pass, by metric name."""
    spans = tracer.spans
    own = self_times(spans)

    def busy(name):
        return sum(s.end - s.start for s in spans if s.name == name)

    def self_s(name):
        return sum(own[s.id] for s in spans if s.name == name)

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    m: Dict[str, float] = {}
    for name in SPANS:
        m[name + ".busy_s"] = busy(name)
    for name in ("cli.main", "tower.build"):
        m[name + ".self_s"] = self_s(name)
    for name in COUNTERS:
        m[name + ".calls"] = tracer.calls[name]
    m["lattice.face_map_g.busy_s"] = tracer.busy["lattice.face_map_g"]
    m["cubical.spanned_faces.calls"] = sum(1 for s in spans if s.name == "cubical.spanned_faces")
    m["geometry.pairwise_distances.bytes"] = attr("geometry.pairwise_distances", "bytes")
    m["cubical.active_total"] = attr("cubical.spanned_faces", "active")
    m["cubical.spanned_total"] = attr("cubical.spanned_faces", "spanned")
    calls = tracer.calls["cubical.is_spanned"]
    m["cubical.spanned_hit_ratio"] = m["cubical.spanned_total"] / calls if calls else 0.0
    m["cubical.cells_total"] = attr("cubical.closure", "cells")
    m["cubical.secondary_total"] = attr("cubical.closure", "secondary")
    for k in "SIC":
        m["tower.events." + k] = attr("tower.build", "events_" + k)
    m["tower.stream_bytes"] = attr("tower.to_text", "bytes")
    m["persistence.tower_barcode.bars"] = attr("persistence.tower_barcode", "bars")
    m["persistence.rips_filtration.simplices"] = attr("persistence.rips_filtration", "simplices")
    m["diagram.intervals"] = attr("diagram.certify", "intervals")
    for module, n in tracer.errors.items():
        m[module + ".errors"] = n
    return m


def count_mismatch(tracer: Tracer) -> bool:
    """Whether the traced event tally disagrees with the streams' own counts()."""
    return any(s.attrs["events_" + k] != s.attrs["counts_" + k]
               for s in tracer.spans if s.name == "tower.build" and s.attrs for k in "SIC")


def write_spans(spans: Iterable[Span], path) -> None:
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(asdict(s)) + "\n")
