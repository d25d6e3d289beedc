"""Order complexes of cubical complexes (barycentric subdivision).

The order complex has one vertex per face of the cubical complex and one
r-simplex per strict chain f_0 < f_1 < ... < f_r in the face poset.
Chains of a closed cubical complex are what the barycentric subdivision
of its geometric realization looks like combinatorially.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .cubical import CubicalComplex
from .lattice import Face, face_map_g, is_subface, subfaces

__all__ = [
    "FlagSimplex",
    "SimplicialComplex",
    "build_order_complex",
    "simplicial_image",
]


@dataclass(frozen=True)
class FlagSimplex:
    """A strict chain of faces, ordered by dimension."""

    faces: Tuple[Face, ...]

    def __post_init__(self):
        fs = self.faces
        if not fs:
            raise ValueError("empty flag")
        for a, b in zip(fs, fs[1:]):
            if a == b or not is_subface(a, b):
                raise ValueError("not a strict chain: %r !< %r" % (a, b))

    @property
    def dim(self) -> int:
        return len(self.faces) - 1

    @property
    def top(self) -> Face:
        return self.faces[-1]

    def __iter__(self):
        return iter(self.faces)

    def __len__(self):
        return len(self.faces)


class SimplicialComplex:
    """Simplices are id-tuples; vertex ids index into `vertex_faces`."""

    def __init__(self, vertex_faces: List[Face], simplices_by_dim: Dict[int, List[Tuple[int, ...]]]):
        self.vertex_faces = vertex_faces
        self.id_of_face = {f: i for i, f in enumerate(vertex_faces)}
        self.simplices_by_dim = simplices_by_dim
        self._all = {t for lst in simplices_by_dim.values() for t in lst}

    @property
    def dim(self) -> int:
        return max(self.simplices_by_dim) if self.simplices_by_dim else -1

    def n_simplices(self, r: int) -> int:
        return len(self.simplices_by_dim.get(r, []))

    def simplices(self, r: int) -> List[Tuple[int, ...]]:
        return list(self.simplices_by_dim.get(r, []))

    def all_simplices(self) -> List[Tuple[int, ...]]:
        out = []
        for r in sorted(self.simplices_by_dim):
            out.extend(self.simplices_by_dim[r])
        return out

    def has_simplex(self, ids: Sequence[int]) -> bool:
        return tuple(sorted(ids)) in self._all

    def flag(self, simplex: Tuple[int, ...]) -> FlagSimplex:
        return FlagSimplex(tuple(self.vertex_faces[i] for i in simplex))


def build_order_complex(U: CubicalComplex, k: int) -> SimplicialComplex:
    """All strict chains of length <= k+1 in the face poset of U.

    Vertex ids follow the canonical (dim, anchor, mask) face order, so
    along any chain ids are strictly increasing and the id-tuples come
    out sorted.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    faces = U.faces()
    id_of = {f: i for i, f in enumerate(faces)}
    # g runs in canonical order, so every supers list comes out sorted
    supers: Dict[Face, List[Face]] = {f: [] for f in faces}
    for g in faces:
        for f in subfaces(g, proper=True):
            supers[f].append(g)

    simplices: Dict[int, List[Tuple[int, ...]]] = {0: [(i,) for i in range(len(faces))]}
    chains = [(f,) for f in faces]
    for r in range(1, k + 1):
        nxt = []
        for c in chains:
            for g in supers[c[-1]]:
                nxt.append(c + (g,))
        if not nxt:
            break
        simplices[r] = [tuple(id_of[f] for f in c) for c in nxt]
        chains = nxt
    return SimplicialComplex(faces, simplices)


def simplicial_image(frames, s: int, sigma) -> FlagSimplex:
    """Elementwise face image with consecutive duplicates collapsed.

    The image of a strict chain is again a chain at the next scale; when
    a containment degenerates the duplicate is dropped, so the dimension
    can only shrink.
    """
    out: List[Face] = []
    for f in sigma:
        g = face_map_g(frames, s, f)
        if not out or out[-1] != g:
            out.append(g)
    return FlagSimplex(tuple(out))
