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

import numpy as np

from .cubical import CubicalComplex
from .geometry import PointCloud
from .lattice import face_vertices
from .tower import (EventStream, GuardrailExceeded, Include, MalformedStream, Scale, Snapshot,
                    _find, _fmt_g17, _text_lines, replay, snapshots)

__all__ = [
    "Barcode",
    "rips_filtration",
    "rips_barcode",
    "reduce",
    "betti",
    "tower_barcode",
    "coning_oracle",
]

INF = math.inf


class Barcode:
    """Per homology dimension, a multiset of [birth, death) intervals.

    Bars are kept in the order they were added and read sorted by
    (birth, death), so the order of adding never shows.
    """

    def __init__(self, intervals: Optional[Dict[int, List[Tuple[float, float]]]] = None):
        self._ivals: Dict[int, List[Tuple[float, float]]] = {}
        for p, lst in (intervals or {}).items():
            for b, d in lst:
                self.add(p, b, d)

    def add(self, p: int, birth: float, death: float) -> None:
        if not (p >= 0 and 0.0 <= birth <= death and birth < INF):
            raise ValueError("bar needs p >= 0 and 0 <= birth <= death, birth finite: %r"
                             % ((p, birth, death),))
        self._ivals.setdefault(p, []).append((birth, death))

    def dimensions(self) -> List[int]:
        return sorted(p for p in self._ivals if self._ivals[p])

    def intervals(self, p: int) -> List[Tuple[float, float]]:
        return sorted(self._ivals.get(p, []))

    def total(self) -> int:
        return sum(len(v) for v in self._ivals.values())

    def scaled(self, factor: float) -> "Barcode":
        if not (math.isfinite(factor) and factor > 0):
            raise ValueError("factor must be finite and positive")
        out = Barcode()
        for p, lst in self._ivals.items():
            for b, d in lst:
                out.add(p, b * factor, d if d == INF else d * factor)
        return out

    def to_text(self) -> str:
        lines = []
        for p in self.dimensions():
            for b, d in self.intervals(p):
                lines.append("%d %s %s" % (p, _fmt_g17(b), _fmt_g17(d)))
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def parse(cls, text: str) -> "Barcode":
        out = cls()
        for lineno, line in enumerate(_text_lines(text), start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError("line %d: expected 'p birth death'" % lineno)
            try:
                out.add(int(parts[0]), float(parts[1]), float(parts[2]))
            except ValueError as exc:
                raise ValueError("line %d: %s" % (lineno, exc)) from None
        return out

    def __eq__(self, other):
        if not isinstance(other, Barcode):
            return NotImplemented
        dims = set(self.dimensions()) | set(other.dimensions())
        return all(self.intervals(p) == other.intervals(p) for p in dims)

    def __repr__(self):
        parts = ["%d:%d" % (p, len(self._ivals[p])) for p in self.dimensions()]
        return "Barcode(%s)" % ", ".join(parts)


def _rips_size(n: int, k: int, max_simplices: Optional[int] = None) -> int:
    """Number of simplices of dimension <= k+1 on n vertices, checked
    against the guard."""
    if k < 0:
        raise ValueError("k must be >= 0")
    count = sum(math.comb(n, r) for r in range(1, min(k + 2, n) + 1))
    if max_simplices is not None and count > max_simplices:
        raise GuardrailExceeded("Rips filtration needs %d simplices > %d" % (count, max_simplices))
    return count


def rips_filtration(P: PointCloud, metric="linf", k: int = 1,
                    max_simplices: Optional[int] = 10_000_000) -> list:
    """All simplices of dimension <= k+1 with value diam/2, as a sorted
    list of (value, vertex-tuple).

    One dimension above the homology cap so that deaths in dimension k
    come out right. Order: value, then dimension, then vertex ids.
    """
    _rips_size(P.n, k, max_simplices)
    n = P.n
    top = min(k + 2, n)
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
    return out


def rips_barcode(P: PointCloud, metric="linf", k: int = 1,
                 max_simplices: Optional[int] = 10_000_000) -> Barcode:
    """The barcode of `reduce(rips_filtration(P, metric, k), homology_cap=k)`.

    Computed as Ripser does (Bauer, JACT 2021). With D the pairwise
    distances halved, simplices above the enclosing radius
    r = min_i max_j D[i, j] are dropped: from r on, the (k+1)-skeleton
    is a cone over the centre point, so no class of dimension <= k is
    alive there. Dimension 0 is Kruskal's algorithm; dimensions 1..k
    reduce coboundary columns in reverse filtration order, skipping the
    columns that the previous dimension's pivots clear (Chen and
    Kerber, 2011). Cofacets are enumerated, never stored: the first
    cofacet of each column is taken for a block of columns at a time,
    and a column's full set of cofacets is built, and kept, only when
    the reduction adds another column to it.

    A q-simplex with value rank v and sorted vertices s_0 < ... < s_q
    has the key v*n^(q+1) + sum_i s_i*n^(q-i), so keys order simplices
    by (value, vertices), as `rips_filtration` does within a dimension.
    The same count guard as `rips_filtration` runs before any distance.
    """
    _rips_size(P.n, k, max_simplices)
    n = P.n
    D = P.pairwise_distances(metric) / 2.0
    radius = D.max(axis=1).min()
    vals = np.unique(D[D <= radius])
    top = len(vals) - 1
    # value rank of every edge; the diagonal is ranked above r, so a
    # vertex is never added to a simplex twice
    R = np.searchsorted(vals, D)
    np.fill_diagonal(R, top + 1)
    # Python ints once the keys could outgrow int64
    dt = np.int64 if len(vals) * n ** (k + 2) < 2 ** 62 else object
    pw = np.array([n ** e for e in range(k + 3)], dtype=dt)
    out = Barcode()
    i, j = np.triu_indices(n, 1)
    ranks = R[i, j]
    simp, ranks = np.column_stack([i, j])[ranks <= top], ranks[ranks <= top]
    order = np.lexsort((simp[:, 1], simp[:, 0], ranks))
    # n edges at a time: the spanning tree is often done long before the last
    edges = (e for start in range(0, len(order), n)
             for e in zip(simp[order[start:start + n]].tolist(),
                          ranks[order[start:start + n]].tolist()))
    parent: Dict[int, int] = {}
    cleared = set()
    for (a, b), v in edges:
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[ra] = rb
            cleared.add((v * n + a) * n + b)
            if v:
                out.add(0, 0.0, float(vals[v]))
            if len(parent) == n - 1:
                break
    for p in range(1, k + 1):
        cunit = int(pw[p + 2])
        beyond = (top + 1) * cunit  # every cofacet key above r is at least this
        # heads[c, i] = s_0*n^p + ... over the first i vertices of simplex c
        heads = np.zeros((len(simp), p + 2), dtype=dt)
        np.cumsum(simp.astype(dt) * pw[p::-1], axis=1, out=heads[:, 1:])
        rank_list = ranks.tolist()
        keys = (ranks.astype(dt) * pw[p + 1] + heads[:, -1]).tolist()

        def cofacets(cs: List[int]) -> np.ndarray:
            """Keys of s + {l} for every column s in cs and every vertex l.

            l enters s at position `at`: the vertices below it move up
            one digit, l takes digit p+1-at, the rest stay. A key is
            >= beyond when s + {l} has its value above r or l is in s.
            """
            S, head, ls = simp[cs], heads[cs], np.arange(n)
            cv = np.maximum(R[S].max(axis=1), ranks[cs, None])
            at = (S[:, :, None] < ls).sum(axis=1)
            return (cv.astype(dt) * cunit + head[:, -1:]
                    + (n - 1) * np.take_along_axis(head, at, axis=1) + ls * pw[p + 1 - at])

        def column(c: int) -> Set[int]:
            row = cofacets([c])[0]
            return set(row[row < beyond].tolist())

        pivots: Dict[int, int] = {}
        kept: Dict[int, Set[int]] = {}
        todo = [c for c in sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
                if keys[c] not in cleared]
        # the pivots of unreduced columns, in blocks of about 2^17 keys
        block = max(1, 2 ** 17 // n)
        for start in range(0, len(todo), block):
            cs = todo[start:start + block]
            for c, piv in zip(cs, cofacets(cs).min(axis=1).tolist()):
                col = None  # the column as a set, once the reduction adds to it
                while piv < beyond:
                    owner = pivots.get(piv)
                    if owner is None:
                        pivots[piv] = c
                        if col is not None:
                            kept[c] = col
                        if piv // cunit > rank_list[c]:
                            out.add(p, float(vals[rank_list[c]]), float(vals[piv // cunit]))
                        break
                    if col is None:
                        col = column(c)
                    col ^= kept.get(owner) or column(owner)
                    piv = min(col) if col else beyond
        if p == k:
            break
        cleared = set(pivots)
        # the (p+1)-simplices within r, each grown from the p-face
        # without its top vertex l
        grown, grown_ranks = [], []
        for l in range(n):
            below = simp[:, -1] < l
            cv = np.maximum(ranks[below], R[simp[below], l].max(axis=1))
            ok = cv <= top
            grown.append(np.column_stack([simp[below][ok], np.full(ok.sum(), l)]))
            grown_ranks.append(cv[ok])
        simp, ranks = np.concatenate(grown), np.concatenate(grown_ranks)
    return out


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
    """Cell list with face indices for an ordered simplex filtration; a
    ValueError when a value decreases, a simplex repeats or a face is missing."""
    index: Dict[Tuple[int, ...], int] = {}
    cells = []
    prev = -INF
    for j, (val, verts) in enumerate(simplices):
        if val < prev:
            raise ValueError("filtration values decrease")
        prev = val
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

    Takes a list of (value, vertex-tuple) in filtration order, as
    `rips_filtration` returns it, and raises ValueError when the values
    decrease. The cap defaults to one below the top cell dimension
    present, matching a Rips filtration built with one extra dimension.
    """
    cells = _cells_from_simplices(filtration)
    if homology_cap is None:
        top = max((c[1] for c in cells), default=0)
        homology_cap = max(top - 1, 0)
    out = Barcode()
    for p, bj, dj in _reduce_cells(cells, homology_cap):
        b = cells[bj][0]
        d = INF if dj is None else cells[dj][0]
        if d == INF or d > b:
            out.add(p, b, d)
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


def _cubical_columns(cells: List[Dict[Tuple[int, ...], int]], top: int) -> List[List[int]]:
    """Boundary bitmasks of the cubical q-cells for q <= top, in bit order.

    The one cubical boundary builder: `betti`, `tower_barcode` and
    `stats` read cubical cells through it. `cells[q]` maps each q-cell,
    its sorted corner ids, to its bit. The facets of a q-cell are the
    (q-1)-cells whose corners are among its own, found through an index
    by smallest corner; a q-cell without exactly 2q of them (a complex
    not closed under facets) raises MalformedStream.
    """
    columns = [[1] * len(cells[0])]  # the augmentation row
    for q, (below, here) in enumerate(zip(cells, cells[1:top + 1]), 1):
        by_first: Dict[int, List[Tuple[Tuple[int, ...], int]]] = {}
        for f, bit in below.items():
            by_first.setdefault(f[0], []).append((f, bit))
        cols = []
        for c in here:
            corners = set(c)
            bits = [bit for v in c for f, bit in by_first.get(v, ()) if corners.issuperset(f)]
            if len(bits) != 2 * q:
                raise MalformedStream("cubical cell %r has %d facets, not %d" % (c, len(bits), 2 * q))
            cols.append(sum(1 << bit for bit in bits))
        columns.append(cols)
    return columns


def _snapshot_columns(snap: Snapshot, top: int) -> List[List[int]]:
    """Boundary bitmasks of a snapshot's cells for q <= top, by the builder
    of its stream's mode."""
    build = _simplicial_columns if snap.mode == "simplicial" else _cubical_columns
    return build(snap.cells, top)


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

    Accepts a CubicalComplex, a replayed Snapshot, or any iterable of
    simplex vertex-tuples. A CubicalComplex that is not closed under
    facets raises MalformedStream, from `_cubical_columns`.
    """
    if isinstance(obj, CubicalComplex):
        # each face as the sorted ids of its corners, the 0-faces numbered
        # first; a corner outside the complex gets a fresh id, so the cells
        # around it miss a facet
        ids = {v: i for i, v in enumerate(obj.faces_of_dim(0))}
        cells = [{tuple(sorted(ids.setdefault(v, len(ids)) for v in face_vertices(f))): j
                  for j, f in enumerate(obj.faces_of_dim(q))} for q in range(obj.dim + 1)]
        columns = _cubical_columns(cells, obj.dim) if cells else []
    else:
        if isinstance(obj, Snapshot):
            if obj.mode != "simplicial":
                raise ValueError("betti of a snapshot needs a simplicial stream")
            # up to the highest non-empty dimension, as for a tuple iterable
            cells = obj.cells[:max((q + 1 for q, c in enumerate(obj.cells) if c), default=0)]
        else:
            simplices = [tuple(sorted(t)) for t in obj]
            if () in simplices:
                raise ValueError("a simplex needs at least one vertex")
            cells = []
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


def _tower_k(stream: EventStream, k: Optional[int], reader: Optional[str]) -> int:
    """k for a tower reader, by default and at most `stream.top_dim`; a
    negative k raises ValueError. `reader` names a reader that needs a
    simplicial stream, None one that reads both modes."""
    if reader is not None and stream.mode != "simplicial":
        raise MalformedStream("%s needs a simplicial stream" % reader)
    if k is None:
        k = stream.top_dim
    if k < 0:
        raise ValueError("k must be >= 0")
    return min(k, stream.top_dim)


def tower_barcode(stream: EventStream, k: Optional[int] = None) -> Barcode:
    """Barcode of a tower stream of either mode by the elder rule.

    Snapshots are taken at every scale event; intervals use the
    piecewise-constant convention [alpha_i, alpha_{j+1}), with classes
    alive at the first snapshot born at 0 (the complex is unchanged
    below the first scale). At each snapshot the cycles of the live
    classes are pushed through the scale step, oldest first; an image
    that depends on the boundaries and the older images ends its bar.
    The snapshots come from `snapshots`, which validates the stream
    as `replay` does, and a malformed stream raises MalformedStream; so
    does a cubical cell without its 2q facets in any snapshot.
    """
    k = _tower_k(stream, k, None)
    out = Barcode()
    # live[p]: (birth, cycle) of every p-class alive at the last
    # snapshot, oldest first
    live: List[List[Tuple[float, int]]] = [[] for _ in range(k + 1)]
    for snap in snapshots(stream):
        born = 0.0 if snap.scale_ordinal == 0 else snap.alpha
        cycles, boundaries = _cycles_and_boundaries(_snapshot_columns(snap, k + 1), k)
        for p, pivots in enumerate(boundaries):
            kept = []
            for birth, z in live[p]:
                z = _push_vector(z, snap.steps[p])
                if _eliminate(z, pivots):
                    kept.append((birth, z))
                elif snap.alpha > birth:
                    out.add(p, birth, snap.alpha)
            kept.extend((born, z) for z in cycles[p] if _eliminate(z, pivots))
            live[p] = kept
    for p, classes in enumerate(live):
        for birth, _ in classes:
            out.add(p, birth, INF)
    return out


def coning_oracle(stream: EventStream, k: Optional[int] = None,
                  max_cells: Optional[int] = 2_000_000) -> Barcode:
    """Tower barcode via coning every contraction into a pure filtration.

    Contract(i, j) becomes the cone with apex i over the closed star of
    j, after which j's star is frozen; the growing complex then has the
    same persistence as the tower. Intended as a small-instance oracle.
    A malformed stream raises MalformedStream: `replay` validates it
    with `snapshots`, the walk `tower_barcode` reads.
    """
    k = _tower_k(stream, k, "coning oracle")
    replay(stream)  # validation only: the coning below reads the events
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
