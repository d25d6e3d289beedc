"""Order complexes of cubical complexes (barycentric subdivision).

The order complex has one vertex per face of the cubical complex and one
r-simplex per strict chain f_0 < f_1 < ... < f_r in the face poset.
Chains of a closed cubical complex are what the barycentric subdivision
of its geometric realization looks like combinatorially.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .cubical import CubicalComplex
from .lattice import Face, face_map_g, is_subface, subfaces

__all__ = [
    "FlagSimplex",
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


def build_order_complex(U: CubicalComplex, k: int) -> List[Tuple[Face, ...]]:
    """All strict chains of length <= k+1 in the face poset of U.

    Each chain is a tuple of faces in canonical (dim, anchor, mask)
    order. Chains come shortest first, the 1-chains in U's face order,
    and each longer chain after the ones that its prefix precedes.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    faces = U.faces()
    # g runs in canonical order, so every supers list comes out sorted
    supers: Dict[Face, List[Face]] = {f: [] for f in faces}
    for g in faces:
        for f in subfaces(g, proper=True):
            supers[f].append(g)

    chains = [(f,) for f in faces]
    out = list(chains)
    # a chain of U's faces has at most U.dim + 1 of them
    for _ in range(min(k, U.dim)):
        chains = [c + (g,) for c in chains for g in supers[c[-1]]]
        out.extend(chains)
    return out


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
