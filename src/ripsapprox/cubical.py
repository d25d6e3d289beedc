"""Active/secondary faces of a grid and the cubical complexes they span.

A grid vertex, the 0-face Face(s, z, 0), is active when at least one
input point falls in its cell.
A face is spanned (active) when its active vertices are nonempty and not
contained in any facet, i.e. every extent direction sees two active
vertices that differ there. Secondary faces are the remaining faces of
active faces; active + secondary faces form the closed cubical complex
at that scale. A cubical complex is a plain set of `Face`s that holds
every face of each of its faces; `closure` returns one.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set

from .geometry import PointCloud
from .lattice import (
    MAX_DIM,
    Face,
    GridFrame,
    _FaceCodec,
    _corners,
    _submasks,
    face_vertices,
    locate,
    subfaces,
)

__all__ = [
    "active_vertices",
    "is_spanned",
    "spanned_faces",
    "closure",
    "incident_faces",
]


def active_vertices(frame: GridFrame, P: PointCloud) -> Set[Face]:
    """The grid vertices (0-faces) whose cells hold at least one point."""
    return {locate(frame, p) for p in P.points}


def is_spanned(f: Face, V: Set[Face]) -> bool:
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


def incident_faces(v: Face) -> Iterable[Face]:
    """The 3^d faces incident to the vertex v.

    A face with mask M is incident to v exactly when its anchor is a
    corner of the M-box anchored at v - e_M.
    """
    for mask in _submasks((1 << v.d) - 1):
        low = tuple([x - (mask >> i & 1) for i, x in enumerate(v.anchor)])
        for c in _corners(low, mask).values():
            yield Face(v.s, c, mask)


def spanned_faces(frame: GridFrame, V: Set[Face]) -> Set[Face]:
    """All faces of the grid spanned by the active vertices: the faces
    incident to an active vertex that `is_spanned` accepts. This is the
    definition; the tower build runs `_spanned` on packed keys instead."""
    if len(V) == 0:
        raise ValueError("no active vertices")
    if frame.d > MAX_DIM:
        raise ValueError("d > %d unsupported" % MAX_DIM)
    if any(v.mask for v in V):
        raise ValueError("active vertices must be 0-faces")
    return {f for v in V for f in incident_faces(v) if is_spanned(f, V)}


def _spanned(V: Set[int], codec: _FaceCodec) -> Set[int]:
    """All faces spanned by the packed active vertices V, packed.

    A face is spanned exactly when it is the bounding box of a nonempty
    set of active vertices of index L-infinity diameter at most one. A
    neighbour w of v (|w - v| <= 1 coordinate-wise) is coded by two
    direction bitmasks, `plus` where w_i = v_i + 1 and `minus` where
    w_i = v_i - 1. Neighbours are found by descending the key prefixes
    of V (prefix i holds fields 0..i) along the fields v_i - 1, v_i,
    v_i + 1, so only existing prefixes are visited (never all 3^d
    offsets, never all of V). The boxes around v are then the closure
    of (P, N) = (0, 0) under the join (P | plus, N | minus) with v's
    neighbours, kept while P & N == 0, and box (P, N) is the face with
    anchor v - e_N and mask P | N: key v + P - corners(N)[-1], since
    corners(N)[-1] is lift(N) - N.
    """
    W, field, corners = codec.width, (1 << codec.width) - 1, codec.corners
    shifts = [codec.d + W * (codec.d - 1 - i) for i in range(codec.d)]
    prefixes = [{v >> shift for v in V} for shift in shifts]
    out: Set[int] = set()
    for v in V:
        near = [(0, 0, 0)]
        bit = 1
        for shift, level in zip(shifts, prefixes):
            x = v >> shift & field
            step = []
            for pre, plus, minus in near:
                pre <<= W
                for y, p, m in ((pre + x - 1, 0, bit), (pre + x, 0, 0), (pre + x + 1, bit, 0)):
                    if y in level:
                        step.append((y, plus | p, minus | m))
            near = step
            bit <<= 1
        boxes = {(0, 0)}
        for _, plus, minus in near:
            if plus | minus:
                boxes |= {(P | plus, N | minus) for P, N in boxes if not (P | plus) & (N | minus)}
        out.update([v + P - corners(N)[-1] for P, N in boxes])
    return out


def _close(spanned: Set[int], codec: _FaceCodec) -> Dict[int, Set[int]]:
    """The closure of a set of packed faces, as mask -> set of keys.

    Goes one dimension at a time from the top down: every p-face in the
    sets, spanned or added from above, puts its 2p facets into the sets
    of dimension p - 1, where they are deduplicated. Each face of the
    complex is visited once, with 2·dim facet deltas.
    """
    dirs = codec.dirs
    by_mask: Dict[int, Set[int]] = {}
    for f in spanned:
        by_mask.setdefault(f & dirs, set()).add(f)
    for p in range(max(map(int.bit_count, by_mask), default=0), 0, -1):
        for mask in [m for m in by_mask if m.bit_count() == p]:
            faces = by_mask[mask]
            for delta in codec.facets(mask):
                by_mask.setdefault(mask + delta & dirs, set()).update(map(delta.__add__, faces))
    return by_mask


def closure(spanned: Iterable[Face]) -> Set[Face]:
    """Close a spanned-face set downward: the union of the subfaces of the
    spanned faces. The spanned faces are the active ones, the added faces
    are secondary. This is the definition; the tower build runs `_close`
    on packed keys instead."""
    spanned = set(spanned)
    if len({f.s for f in spanned}) > 1:
        raise ValueError("faces from multiple scales")
    return {g for f in spanned for g in subfaces(f)}
