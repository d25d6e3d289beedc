"""Barcodes over GF(2): exact Rips filtrations, Betti numbers, and
barcodes of towers with contractions.

Reduced homology throughout: a dummy (-1)-cell augments the complex, so
a single point has trivial homology in every dimension and dimension-0
barcodes omit the one essential component.

Barcode text format: one line `p birth death` per interval (death `inf`
for essential classes), sorted by (p, birth, death), 17 significant
digits.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .barycentric import SimplicialComplex
from .cubical import CubicalComplex
from .geometry import PointCloud
from .lattice import facets
from .tower import (EventStream, GuardrailExceeded, Include, MalformedStream, Scale, Snapshot,
                    _fmt_g17, _walk_scales)

__all__ = [
    "Filtration",
    "Barcode",
    "rips_filtration",
    "reduce",
    "betti",
    "tower_barcode",
    "coning_oracle",
]

INF = math.inf


class Barcode:
    """Per homology dimension, a multiset of [birth, death) intervals."""

    def __init__(self, intervals: Optional[Dict[int, List[Tuple[float, float]]]] = None):
        self._ivals: Dict[int, List[Tuple[float, float]]] = {}
        if intervals:
            for p, lst in intervals.items():
                self._ivals[p] = sorted(lst)

    def add(self, p: int, birth: float, death: float) -> None:
        self._ivals.setdefault(p, []).append((birth, death))

    def sort(self) -> None:
        for p in self._ivals:
            self._ivals[p].sort()

    def dimensions(self) -> List[int]:
        return sorted(p for p in self._ivals if self._ivals[p])

    def intervals(self, p: int) -> List[Tuple[float, float]]:
        return list(self._ivals.get(p, []))

    def total(self) -> int:
        return sum(len(v) for v in self._ivals.values())

    def scaled(self, factor: float) -> "Barcode":
        if factor <= 0:
            raise ValueError("factor must be positive")
        out = Barcode()
        for p, lst in self._ivals.items():
            for b, d in lst:
                out.add(p, b * factor, d if d == INF else d * factor)
        out.sort()
        return out

    def to_text(self) -> str:
        lines = []
        for p in self.dimensions():
            for b, d in self._ivals[p]:
                lines.append("%d %s %s" % (p, _fmt_g17(b), _fmt_g17(d)))
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def parse(cls, text: str) -> "Barcode":
        out = cls()
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError("line %d: expected 'p birth death'" % lineno)
            p = int(parts[0])
            b = float(parts[1])
            d = INF if parts[2] == "inf" else float(parts[2])
            out.add(p, b, d)
        out.sort()
        return out

    def __eq__(self, other):
        if not isinstance(other, Barcode):
            return NotImplemented
        dims = set(self.dimensions()) | set(other.dimensions())
        return all(self.intervals(p) == other.intervals(p) for p in dims)

    def __repr__(self):
        parts = ["%d:%d" % (p, len(self._ivals[p])) for p in self.dimensions()]
        return "Barcode(%s)" % ", ".join(parts)


class Filtration:
    """Ordered simplices (vertex-id tuples) with non-decreasing values."""

    def __init__(self, simplices: Sequence[Tuple[float, Tuple[int, ...]]]):
        self.simplices = list(simplices)
        prev = -INF
        for v, _ in self.simplices:
            if v < prev:
                raise ValueError("filtration values decrease")
            prev = v

    def __len__(self):
        return len(self.simplices)

    def __iter__(self):
        return iter(self.simplices)


def rips_filtration(P: PointCloud, metric="linf", k: int = 1,
                    max_simplices: Optional[int] = 10_000_000) -> Filtration:
    """All simplices of dimension <= k+1 with value diam/2.

    One dimension above the homology cap so that deaths in dimension k
    come out right. Order: value, then dimension, then vertex ids.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    n = P.n
    top = min(k + 2, n)
    count = sum(math.comb(n, r) for r in range(1, top + 1))
    if max_simplices is not None and count > max_simplices:
        raise GuardrailExceeded("Rips filtration needs %d simplices > %d" % (count, max_simplices))
    dm = P.pairwise_distances(metric)
    out = []
    for r in range(1, top + 1):
        for combo in itertools.combinations(range(n), r):
            if r == 1:
                val = 0.0
            else:
                val = max(dm[a][b] for a, b in itertools.combinations(combo, 2)) / 2.0
            out.append((val, combo))
    out.sort(key=lambda t: (t[0], len(t[1]), t[1]))
    return Filtration(out)


# ---------------------------------------------------------------------------
# column reduction


def _eliminate(vec: int, pivots: Dict[int, int]) -> int:
    """GF(2) low-pivot elimination of one vector against a basis.

    `pivots` maps a highest set bit to the basis vector that owns it.
    Owned highest bits are cleared by XOR until the residual's highest
    bit is free; a nonzero residual then joins the basis under that bit.
    Returns the residual, 0 when vec lies in the span.
    """
    while vec:
        top = vec.bit_length() - 1
        owner = pivots.get(top)
        if owner is None:
            pivots[top] = vec
            return vec
        vec ^= owner
    return 0


def _reduce_cells(cells: Sequence[Tuple[float, int, List[int]]], homology_cap: Optional[int] = None):
    """Reduce an ordered cell complex; return index pairs (p, bj, dj).

    `cells[j] = (value, dim, face_indices)`; 0-cells take the dummy
    augmentation row, so the output is reduced homology. dj is None for
    essential classes. Index pairs keep prefix counting exact under
    value ties; callers map indices to values.
    """
    pivots: Dict[int, int] = {}
    alive: Dict[int, int] = {}
    intervals = []
    for j, (val, dim, faces) in enumerate(cells):
        col = 1 if dim == 0 else 0  # bit 0 is the dummy row
        for fi in faces:
            col |= 1 << (fi + 1)
        col = _eliminate(col, pivots)
        if col == 0:
            alive[j] = dim
        else:
            low = col.bit_length() - 1
            if low > 0:
                bj = low - 1
                if bj in alive:
                    del alive[bj]
                intervals.append((cells[bj][1], bj, j))
            # low == 0 pairs the first 0-cell with the dummy cell: that is
            # the reduced-homology convention eating one component class
    for j, dim in alive.items():
        intervals.append((dim, j, None))
    if homology_cap is not None:
        intervals = [iv for iv in intervals if iv[0] <= homology_cap]
    return intervals


def _cells_from_simplices(simplices: Sequence[Tuple[float, Tuple[int, ...]]]):
    """Cell list with face indices for an ordered simplex filtration."""
    index: Dict[Tuple[int, ...], int] = {}
    cells = []
    for j, (val, verts) in enumerate(simplices):
        verts = tuple(sorted(verts))
        if verts in index:
            raise ValueError("simplex %r appears twice" % (verts,))
        if len(verts) == 1:
            faces: List[int] = []
        else:
            try:
                faces = [index[verts[:i] + verts[i + 1:]] for i in range(len(verts))]
            except KeyError:
                raise ValueError("face of %r missing from filtration prefix" % (verts,))
        index[verts] = j
        cells.append((val, len(verts) - 1, faces))
    return cells


def reduce(filtration, homology_cap: Optional[int] = None) -> Barcode:
    """Reduced-homology barcode of a filtration; zero-length intervals dropped.

    Accepts a Filtration or a plain list of (value, vertex-tuple). The
    cap defaults to one below the top cell dimension present, matching a
    Rips filtration built with one extra dimension.
    """
    simplices = list(filtration)
    cells = _cells_from_simplices(simplices)
    if homology_cap is None:
        top = max((c[1] for c in cells), default=0)
        homology_cap = max(top - 1, 0)
    out = Barcode()
    for p, bj, dj in _reduce_cells(cells, homology_cap):
        b = cells[bj][0]
        d = INF if dj is None else cells[dj][0]
        if d == INF or d > b:
            out.add(p, b, d)
    out.sort()
    return out


def _betti_from_cells(cells) -> List[int]:
    maxdim = max((c[1] for c in cells), default=-1)
    if maxdim < 0:
        return []
    counts = [0] * (maxdim + 1)
    for p, bj, dj in _reduce_cells(cells):
        if dj is None:
            counts[p] += 1
    return counts


def betti(obj) -> List[int]:
    """Reduced Betti numbers per dimension.

    Accepts a CubicalComplex, an order SimplicialComplex, a replayed
    Snapshot, or any iterable of simplex vertex-tuples.
    """
    if isinstance(obj, CubicalComplex):
        faces = obj.faces()
        index = {f: i for i, f in enumerate(faces)}
        cells = []
        for f in faces:
            if f.dim == 0:
                cells.append((0.0, 0, []))
            else:
                cells.append((0.0, f.dim, [index[g] for g in facets(f)]))
        return _betti_from_cells(cells)
    if isinstance(obj, Snapshot):
        if obj.mode != "simplicial":
            raise ValueError("betti of a snapshot needs a simplicial stream")
        obj = obj.cells
    if isinstance(obj, SimplicialComplex):
        simplices = obj.all_simplices()
    else:
        simplices = [tuple(sorted(t)) for t in obj]
    simplices = sorted(set(simplices), key=lambda t: (len(t), t))
    cells = _cells_from_simplices([(0.0, t) for t in simplices])
    return _betti_from_cells(cells)


# ---------------------------------------------------------------------------
# tower persistence by the elder rule


def _boundary_vector(c: Tuple[int, ...], index: Dict[Tuple[int, ...], int]) -> int:
    """Bitmask of the facets of a sorted simplex, over a face index."""
    vec = 0
    for i in range(len(c)):
        vec ^= 1 << index[c[:i] + c[i + 1:]]
    return vec


def _cycles_and_boundaries(cells: List[Dict[Tuple[int, ...], int]], p: int):
    """Cycles spanning the p-cycle space, plus the boundary pivots.

    `cells[q]` maps each q-simplex to its bit. For p = 0 the
    augmentation row makes the cycles the even vertex sets.
    """
    p_cells = cells[p]
    bpivots: Dict[int, int] = {}
    if p + 1 < len(cells):
        for c in cells[p + 1]:
            _eliminate(_boundary_vector(c, p_cells), bpivots)
    # kernel of the boundary going down (augmented at p = 0): a p-cell's
    # boundary sits above bit W and the combination of p-cells that
    # produced it in the low W bits, so a residual below 2^W is a cycle
    W = len(p_cells)
    dpivots: Dict[int, int] = {}
    cycles = []
    for c, j in p_cells.items():
        vec = 1 if p == 0 else _boundary_vector(c, cells[p - 1])
        z = _eliminate((vec << W) | (1 << j), dpivots)
        if z >> W == 0:
            cycles.append(z)
    return cycles, bpivots


def _push_vector(vec: int, step: List[Optional[int]]) -> int:
    """Apply the scale-step chain map, given as old bit -> new bit or None."""
    out = 0
    while vec:
        bit = vec & -vec
        j = step[bit.bit_length() - 1]
        if j is not None:
            out ^= 1 << j
        vec ^= bit
    return out


def tower_barcode(stream: EventStream, k: Optional[int] = None) -> Barcode:
    """Barcode of a simplicial tower stream by the elder rule.

    Snapshots are taken at every scale event; intervals use the
    piecewise-constant convention [alpha_i, alpha_{j+1}), with classes
    alive at the first snapshot born at 0 (the complex is unchanged
    below the first scale). At each snapshot the cycles of the live
    classes are pushed through the scale step, oldest first; an image
    that depends on the boundaries and the older images ends its bar.
    The snapshots come from `_walk_scales`, which validates the stream
    as `replay` does: a cubical or malformed stream raises
    MalformedStream.
    """
    if stream.mode != "simplicial":
        raise MalformedStream("tower persistence needs a simplicial stream")
    if k is None:
        k = stream.k
    if k < 0:
        raise ValueError("k must be >= 0")
    k = min(k, stream.k)
    out = Barcode()
    # live[p]: (birth, cycle) of every p-class alive at the last
    # snapshot, oldest first
    live: List[List[Tuple[float, int]]] = [[] for _ in range(k + 1)]
    for t, (alpha, cells, steps) in enumerate(_walk_scales(stream)):
        born = 0.0 if t == 0 else alpha
        for p in range(k + 1):
            cycles, pivots = _cycles_and_boundaries(cells, p)
            kept = []
            for birth, z in live[p]:
                z = _push_vector(z, steps[p])
                if _eliminate(z, pivots):
                    kept.append((birth, z))
                elif alpha > birth:
                    out.add(p, birth, alpha)
            kept.extend((born, z) for z in cycles if _eliminate(z, pivots))
            live[p] = kept
    for p, classes in enumerate(live):
        for birth, _ in classes:
            out.add(p, birth, INF)
    out.sort()
    return out


def coning_oracle(stream: EventStream, k: Optional[int] = None,
                  max_cells: Optional[int] = 2_000_000) -> Barcode:
    """Tower barcode via coning every contraction into a pure filtration.

    Contract(i, j) becomes the cone with apex i over the closed star of
    j, after which j's star is frozen; the growing complex then has the
    same persistence as the tower. Intended as a small-instance oracle.
    """
    if stream.mode != "simplicial":
        raise MalformedStream("coning oracle needs a simplicial stream")
    if k is None:
        k = stream.k
    k = min(k, stream.k)
    filt: List[Tuple[float, Tuple[int, ...]]] = []
    added: Set[Tuple[int, ...]] = set()
    current: Set[frozenset] = set()
    alpha = None

    def add_cell(verts: Tuple[int, ...]) -> None:
        if verts in added:
            return
        added.add(verts)
        filt.append((alpha, verts))
        if max_cells is not None and len(filt) > max_cells:
            raise GuardrailExceeded("coning oracle exceeded %d cells" % max_cells)

    for e in stream.events:
        if isinstance(e, Scale):
            # the complex is unchanged below the first scale: its cells
            # are born at 0, as in tower_barcode
            alpha = e.alpha if alpha is not None else 0.0
        elif isinstance(e, Include):
            verts = (e.id,) if e.dim == 0 else e.vertices
            add_cell(tuple(sorted(verts)))
            current.add(frozenset(verts))
        else:
            i, j = e.i, e.j
            star = [c for c in current if j in c]
            closed: Set[frozenset] = set()
            for c in star:
                members = tuple(c)
                for rr in range(1, len(members) + 1):
                    for sub in itertools.combinations(members, rr):
                        closed.add(frozenset(sub))
            cones = sorted({tuple(sorted(c | {i})) for c in closed}, key=lambda t: (len(t), t))
            for verts in cones:
                add_cell(verts)
            current = {frozenset(i if v == j else v for v in c) for c in current}
    bc = reduce(filt, homology_cap=k)
    out = Barcode()
    for p in bc.dimensions():
        for b, d in bc.intervals(p):
            if d == INF or d > b:
                out.add(p, b, d)
    out.sort()
    return out
