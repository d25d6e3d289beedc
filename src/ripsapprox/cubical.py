"""Active/secondary faces of a grid and the cubical complexes they span.

A grid vertex, the 0-face Face(s, z, 0), is active when at least one
input point falls in its cell.
A face is spanned (active) when its active vertices are nonempty and not
contained in any facet, i.e. every extent direction sees two active
vertices that differ there. Secondary faces are the remaining faces of
active faces; active + secondary faces form the closed cubical complex
at that scale.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from .geometry import PointCloud
from .lattice import (
    MAX_DIM,
    Face,
    GridFrame,
    face_vertices,
    facets,
    locate,
    subfaces,
)

__all__ = [
    "ActiveVertexMap",
    "CubicalComplex",
    "active_vertices",
    "is_spanned",
    "spanned_faces",
    "spanned_faces_bruteforce",
    "closure",
    "cubical_boundary",
    "incident_faces",
]

ACTIVE = "active"
SECONDARY = "secondary"


class ActiveVertexMap:
    """Grid vertex (0-face) -> sorted list of point ids located in its cell."""

    def __init__(self, s: int, mapping: Dict[Face, List[int]]):
        self.s = s
        self.mapping = {v: sorted(ids) for v, ids in mapping.items()}
        for v, ids in self.mapping.items():
            if not ids:
                raise ValueError("active vertex %r with no points" % (v,))

    def __contains__(self, v: Face) -> bool:
        return v in self.mapping

    def __len__(self) -> int:
        return len(self.mapping)

    def __iter__(self):
        return iter(self.mapping)

    def items(self):
        return self.mapping.items()

    def points_of(self, v: Face) -> List[int]:
        return self.mapping[v]

    def section(self, v: Face) -> int:
        """The representative point of an active vertex (minimum id)."""
        return self.points_of(v)[0]


def active_vertices(frame: GridFrame, P: PointCloud) -> ActiveVertexMap:
    mapping: Dict[Face, List[int]] = {}
    for pid in range(P.n):
        mapping.setdefault(locate(frame, P.points[pid]), []).append(pid)
    return ActiveVertexMap(frame.s, mapping)


def is_spanned(f: Face, V: ActiveVertexMap) -> bool:
    """Nonempty vertex trace not contained in any facet of f.

    Equivalently: for every extent direction some two active vertices of
    f differ there. A vertex (empty mask) is spanned iff active.
    """
    trace = [v.anchor for v in face_vertices(f) if v in V]
    if not trace:
        return False
    for i in range(f.d):
        if f.mask >> i & 1:
            if len({z[i] for z in trace}) < 2:
                return False
    return True


def incident_faces(v: Face, directions: Iterable[int]) -> Iterable[Face]:
    """Faces incident to the vertex v whose mask lies inside `directions`.

    Per allowed direction the face either skips it or extends from v or
    from v-1; with all d directions this enumerates the full 3^d star.
    """
    dirs = list(directions)

    def rec(idx, anchor, mask):
        if idx == len(dirs):
            yield Face(v.s, tuple(anchor), mask)
            return
        i = dirs[idx]
        yield from rec(idx + 1, anchor, mask)
        a2 = list(anchor)
        yield from rec(idx + 1, a2, mask | (1 << i))
        a3 = list(anchor)
        a3[i] -= 1
        yield from rec(idx + 1, a3, mask | (1 << i))

    yield from rec(0, list(v.anchor), 0)


def spanned_faces(frame: GridFrame, V: ActiveVertexMap) -> Set[Face]:
    """All faces of the grid spanned by the active vertices.

    A face is spanned exactly when it is the bounding box of a nonempty
    set of active vertices of index L-infinity diameter at most one. A
    neighbour w of v (|w - v| <= 1 coordinate-wise) is coded by two
    direction bitmasks, `plus` where w_i = v_i + 1 and `minus` where
    w_i = v_i - 1; neighbours are found by descending a coordinate trie
    of the active vertices along v_i - 1, v_i, v_i + 1, so only existing
    prefixes are visited (never all 3^d offsets, never all of V). The
    boxes around v are then the closure of (P, N) = (0, 0) under the
    join (P | plus, N | minus) with v's neighbours, kept while
    P & N == 0, and box (P, N) is the face with anchor v - N and mask
    P | N.
    """
    if len(V) == 0:
        raise ValueError("no active vertices")
    if frame.d > MAX_DIM:
        raise ValueError("d > %d unsupported" % MAX_DIM)
    trie: dict = {}
    for v in V:
        node = trie
        for x in v.anchor:
            node = node.setdefault(x, {})
    s = frame.s
    out: Set[Face] = set()
    for v in V:
        near = [(trie, 0, 0)]
        bit = 1
        for x in v.anchor:
            step = []
            for node, plus, minus in near:
                for y, p, m in ((x - 1, 0, bit), (x, 0, 0), (x + 1, bit, 0)):
                    child = node.get(y)
                    if child is not None:
                        step.append((child, plus | p, minus | m))
            near = step
            bit <<= 1
        boxes = {(0, 0)}
        for _, plus, minus in near:
            if plus | minus:
                boxes |= {(P | plus, N | minus) for P, N in boxes if not (P | plus) & (N | minus)}
        for P, N in boxes:
            out.add(Face(s, tuple([x - (N >> i & 1) for i, x in enumerate(v.anchor)]), P | N))
    return out


def spanned_faces_bruteforce(frame: GridFrame, V: ActiveVertexMap) -> Set[Face]:
    """Unpruned reference: full 3^d star of every active vertex."""
    out: Set[Face] = set()
    for v in V:
        for f in incident_faces(v, range(frame.d)):
            if is_spanned(f, V):
                out.add(f)
    return out


class CubicalComplex:
    """A face-closed set of elementary cubes with active/secondary flags."""

    def __init__(self, s: int, flags: Dict[Face, str]):
        self.s = s
        self.flags = flags
        by_dim: Dict[int, List[Face]] = {}
        for f in flags:
            by_dim.setdefault(f.dim, []).append(f)
        for p in by_dim:
            by_dim[p].sort(key=lambda f: (f.anchor, f.mask))
        self._by_dim = by_dim

    @property
    def dim(self) -> int:
        return max(self._by_dim) if self._by_dim else -1

    def __contains__(self, f: Face) -> bool:
        return f in self.flags

    def __len__(self) -> int:
        return len(self.flags)

    def faces(self) -> List[Face]:
        """All faces in canonical (dim, anchor, mask) order."""
        out = []
        for p in sorted(self._by_dim):
            out.extend(self._by_dim[p])
        return out

    def faces_of_dim(self, p: int) -> List[Face]:
        return list(self._by_dim.get(p, []))

    def active_faces(self) -> List[Face]:
        return [f for f in self.faces() if self.flags[f] == ACTIVE]

    def secondary_faces(self) -> List[Face]:
        return [f for f in self.faces() if self.flags[f] == SECONDARY]

    def is_active(self, f: Face) -> bool:
        return self.flags[f] == ACTIVE

    def verify_closed(self) -> None:
        for f in self.flags:
            for g in subfaces(f):
                if g not in self.flags:
                    raise AssertionError("complex not closed: %r misses %r" % (f, g))


def closure(spanned: Iterable[Face]) -> CubicalComplex:
    """Close a spanned-face set downward; non-spanned faces get flagged secondary."""
    spanned = set(spanned)
    scales = {f.s for f in spanned}
    if len(scales) > 1:
        raise ValueError("faces from multiple scales")
    s = scales.pop() if scales else 0
    flags: Dict[Face, str] = {f: ACTIVE for f in spanned}
    for f in spanned:
        for g in subfaces(f, proper=True):
            if g not in flags:
                flags[g] = SECONDARY
    return CubicalComplex(s, flags)


def cubical_boundary(U: CubicalComplex, p: int):
    """GF(2) boundary from p-cubes to (p-1)-cubes.

    Returns (columns, p_faces, pm1_faces): columns[j] lists row indices
    of the 2*p facets of the j-th p-cube, rows indexed into pm1_faces.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    p_faces = U.faces_of_dim(p)
    pm1_faces = U.faces_of_dim(p - 1)
    row = {f: i for i, f in enumerate(pm1_faces)}
    cols = []
    for f in p_faces:
        try:
            cols.append(sorted(row[g] for g in facets(f)))
        except KeyError:
            raise AssertionError("complex not closed at %r" % (f,))
    return cols, p_faces, pm1_faces

