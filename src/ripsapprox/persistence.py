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
                    _find, _fmt_g17, _resolve_cells, _walk_scales)

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
    if isinstance(obj, SimplicialComplex):
        simplices = obj.all_simplices()
    elif isinstance(obj, Snapshot):
        if obj.mode != "simplicial":
            raise ValueError("betti of a snapshot needs a simplicial stream")
        try:
            return betti(tuple(c) for c in obj.cells)
        except ValueError as e:
            raise MalformedStream("replayed cells: %s" % e)
    else:
        simplices = [tuple(sorted(t)) for t in obj]
    simplices = sorted(set(simplices), key=lambda t: (len(t), t))
    cells = _cells_from_simplices([(0.0, t) for t in simplices])
    return _betti_from_cells(cells)


# ---------------------------------------------------------------------------
# tower persistence via the rank formula


def _snapshot_complex(raw, parent, nraw):
    by_dim: Dict[int, List[Tuple[int, ...]]] = {}
    for c in _resolve_cells(raw[:nraw], parent):
        by_dim.setdefault(len(c) - 1, []).append(tuple(sorted(c)))
    for p in by_dim:
        by_dim[p].sort()
    return by_dim


def _boundary_vector(c: Tuple[int, ...], index: Dict[Tuple[int, ...], int]) -> int:
    """Bitmask of the facets of a sorted simplex, over a face index."""
    vec = 0
    for i in range(len(c)):
        facet = c[:i] + c[i + 1:]
        if facet not in index:
            raise MalformedStream("simplex %r without its facet %r" % (c, facet))
        vec ^= 1 << index[facet]
    return vec


def _homology_basis(by_dim, p: int):
    """Cycle representatives spanning reduced H_p, plus the boundary pivots.

    Vectors are bitmasks over the sorted p-simplex list. For p = 0 the
    augmentation row makes the kernel the even vertex sets.
    """
    p_cells = by_dim.get(p, [])
    if not p_cells:
        return [], {}
    idx_p = {c: i for i, c in enumerate(p_cells)}
    bpivots: Dict[int, int] = {}
    for c in by_dim.get(p + 1, []):
        _eliminate(_boundary_vector(c, idx_p), bpivots)
    # kernel of the boundary going down (augmented at p = 0): a p-cell's
    # boundary sits above bit W and the combination of p-cells that
    # produced it in the low W bits, so a residual below 2^W is a cycle
    W = len(p_cells)
    pm1_idx = {c: i for i, c in enumerate(by_dim.get(p - 1, []))}
    dpivots: Dict[int, int] = {}
    kernel = []
    for j, c in enumerate(p_cells):
        vec = 1 if p == 0 else _boundary_vector(c, pm1_idx)
        z = _eliminate((vec << W) | (1 << j), dpivots)
        if z >> W == 0:
            kernel.append(z)
    combined = dict(bpivots)
    basis = [v for v in (_eliminate(z, combined) for z in kernel) if v]
    return basis, bpivots


def _push_vector(vec: int, src_cells, dst_index, parent_next) -> int:
    """Apply the scale-step chain map to a cycle vector."""
    out = 0
    while vec:
        bit = vec & -vec
        cell = src_cells[bit.bit_length() - 1]
        img = frozenset(_find(parent_next, v) for v in cell)
        if len(img) == len(cell):
            out ^= 1 << dst_index[tuple(sorted(img))]
        vec ^= bit
    return out


def tower_barcode(stream: EventStream, k: Optional[int] = None) -> Barcode:
    """Barcode of a simplicial tower stream via composite ranks.

    Snapshots are taken at every scale event; intervals use the
    piecewise-constant convention [alpha_i, alpha_{j+1}), with classes
    alive at the first snapshot born at 0 (the complex is unchanged
    below the first scale). The stream is validated as `replay` does it:
    a cubical or malformed stream raises MalformedStream.
    """
    if stream.mode != "simplicial":
        raise MalformedStream("tower persistence needs a simplicial stream")
    if k is None:
        k = stream.k
    k = min(k, stream.k)
    alphas: List[float] = []
    parents: List[Dict[int, int]] = []
    sizes: List[int] = []
    for alpha, parent, raw, _ in _walk_scales(stream):
        alphas.append(alpha)
        parents.append(dict(parent))
        sizes.append(len(raw))
    T = len(alphas)
    if T == 0:
        return Barcode()
    complexes = [_snapshot_complex(raw, parents[t], sizes[t]) for t in range(T)]

    out = Barcode()
    for p in range(k + 1):
        bases = []
        bpiv = []
        for t in range(T):
            basis, piv = _homology_basis(complexes[t], p)
            bases.append(basis)
            bpiv.append(piv)
        # cell indices per snapshot for pushing
        cellidx = [{c: i for i, c in enumerate(complexes[t].get(p, []))} for t in range(T)]
        cellsets = [[frozenset(c) for c in complexes[t].get(p, [])] for t in range(T)]
        r = [[0] * (T + 1) for _ in range(T)]
        for i in range(T):
            vecs = list(bases[i])
            r[i][i] = len(vecs)
            for j in range(i + 1, T):
                vecs = [_push_vector(v, cellsets[j - 1], cellidx[j], parents[j]) for v in vecs]
                # rank of the image in H_p(X_j): the pushed cycles that
                # stay independent modulo the boundary space
                pivots = dict(bpiv[j])
                r[i][j] = sum(1 for v in vecs if _eliminate(v, pivots))
        for i in range(T):
            for j in range(i, T):
                a = r[i][j] - (r[i][j + 1] if j + 1 < T else 0)
                b = 0
                if i > 0:
                    b = r[i - 1][j] - (r[i - 1][j + 1] if j + 1 < T else 0)
                mult = a - b
                if mult < 0:
                    raise AssertionError("negative multiplicity at (%d, %d)" % (i, j))
                if mult == 0:
                    continue
                birth = 0.0 if i == 0 else alphas[i]
                death = INF if j == T - 1 else alphas[j + 1]
                if death != INF and death <= birth:
                    continue
                for _ in range(mult):
                    out.add(p, birth, death)
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
    first_alpha = None

    def add_cell(verts: Tuple[int, ...]) -> None:
        if verts in added:
            return
        added.add(verts)
        filt.append((alpha, verts))
        if max_cells is not None and len(filt) > max_cells:
            raise GuardrailExceeded("coning oracle exceeded %d cells" % max_cells)

    for e in stream.events:
        if isinstance(e, Scale):
            alpha = e.alpha
            if first_alpha is None:
                first_alpha = e.alpha
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
            if first_alpha is not None and b == first_alpha:
                b = 0.0
            if d == INF or d > b:
                out.add(p, b, d)
    out.sort()
    return out
