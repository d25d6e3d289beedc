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
from .cubical import CubicalComplex, cubical_boundary
from .geometry import PointCloud
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
    dm = P.pairwise_distances(metric).tolist()
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


# ---------------------------------------------------------------------------
# homology of a fixed complex


def _simplicial_columns(cells: List[Dict[Tuple[int, ...], int]], top: int) -> List[List[int]]:
    """Boundary bitmasks of the q-simplices for q <= top, in bit order.

    `cells[q]` maps each q-simplex, a sorted vertex tuple, to its bit;
    bits follow insertion order. Raises KeyError for a missing facet.
    """
    columns = [[1] * len(cells[0])]  # the augmentation row
    for q, (below, here) in enumerate(zip(cells, cells[1:top + 1]), 1):
        # the facets of a sorted q-simplex are its sorted q-subsets
        columns.append([sum(1 << below[f] for f in itertools.combinations(c, q)) for c in here])
    return columns


def _cycles_and_boundaries(columns: List[List[int]], top: int):
    """Cycle bases and boundary pivots of a fixed complex, for q <= top.

    `columns[q][j]` is the boundary of q-cell j as a bitmask over the
    (q-1)-cells; 1, the augmentation row, for a 0-cell. Each dimension
    takes one elimination of (boundary << W) | 2^j, W the number of
    q-cells. A top bit stays in the boundary part while that is nonzero,
    so the residuals without one are a basis of the q-cycles, and the
    boundary parts of the others are the pivots that eliminating the
    bare boundaries gives. Dimension top + 1 is eliminated bare, for its
    boundary pivots alone. Returns (cycles, boundaries): cycles[q] lists
    the basis, boundaries[q] maps top bit -> vector for the q-boundaries.
    """
    cycles: List[List[int]] = []
    boundaries: List[Dict[int, int]] = []
    for q, cols in enumerate(columns[:top + 2]):
        pivots: Dict[int, int] = {}
        if q > top:
            for vec in cols:
                _eliminate(vec, pivots)
            boundaries[q - 1] = pivots
            break
        W = len(cols)
        cycles.append([z for j, vec in enumerate(cols)
                       if (z := _eliminate((vec << W) | (1 << j), pivots)) >> W == 0])
        if q:
            boundaries[q - 1] = {b - W: v >> W for b, v in pivots.items() if b >= W}
        boundaries.append({})
    return cycles, boundaries


def betti(obj) -> List[int]:
    """Reduced Betti numbers per dimension, by cycle and boundary ranks.

    Accepts a CubicalComplex, an order SimplicialComplex, a replayed
    Snapshot, or any iterable of simplex vertex-tuples.
    """
    if isinstance(obj, CubicalComplex):
        columns = [[1] * len(obj.faces_of_dim(0))] if obj.dim >= 0 else []
        for p in range(1, obj.dim + 1):
            cols, _, _ = cubical_boundary(obj, p)
            columns.append([sum(1 << i for i in col) for col in cols])
    else:
        if isinstance(obj, Snapshot):
            if obj.mode != "simplicial":
                raise ValueError("betti of a snapshot needs a simplicial stream")
            obj = obj.cells
        if isinstance(obj, SimplicialComplex):
            simplices = obj.all_simplices()
        else:
            simplices = [tuple(sorted(t)) for t in obj]
        cells: List[Dict[Tuple[int, ...], int]] = []
        for t in sorted(set(simplices), key=lambda t: (len(t), t)):
            while len(cells) < len(t):
                cells.append({})
            cells[-1][t] = len(cells[-1])
        try:
            columns = _simplicial_columns(cells, len(cells) - 1) if cells else []
        except KeyError as e:
            raise ValueError("facet %r missing from the complex" % (e.args[0],))
    cycles, boundaries = _cycles_and_boundaries(columns, len(columns) - 1)
    return [len(z) - len(b) for z, b in zip(cycles, boundaries)]


# ---------------------------------------------------------------------------
# tower persistence by the elder rule


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
        cycles, boundaries = _cycles_and_boundaries(_simplicial_columns(cells, k + 1), k)
        for p, pivots in enumerate(boundaries):
            kept = []
            for birth, z in live[p]:
                z = _push_vector(z, steps[p])
                if _eliminate(z, pivots):
                    kept.append((birth, z))
                elif alpha > birth:
                    out.add(p, birth, alpha)
            kept.extend((born, z) for z in cycles[p] if _eliminate(z, pivots))
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
    The stream is validated by the walk `tower_barcode` reads, so a
    malformed stream raises MalformedStream.
    """
    if stream.mode != "simplicial":
        raise MalformedStream("coning oracle needs a simplicial stream")
    if k is None:
        k = stream.k
    if k < 0:
        raise ValueError("k must be >= 0")
    k = min(k, stream.k)
    # validation only: the coning below does not read the walk's snapshots
    for _ in _walk_scales(stream):
        pass
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
    return reduce(filt, homology_cap=k)
