"""Order complexes of cubical complexes (barycentric subdivision).

The order complex has one vertex per face of the cubical complex and one
r-simplex per strict chain f_0 < f_1 < ... < f_r in the face poset.
Chains of a closed cubical complex are what the barycentric subdivision
of its geometric realization looks like combinatorially.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from .lattice import Face, face_map_g, is_subface, subfaces

__all__ = [
    "build_order_complex",
    "simplicial_image",
]


def build_order_complex(U: Iterable[Face], k: int) -> List[Tuple[Face, ...]]:
    """All strict chains of length <= k+1 in the face poset of U, a closed
    cubical complex given as any iterable of its faces.

    Each chain is a tuple of faces in canonical (dim, anchor, mask)
    order. Chains come shortest first, the 1-chains in canonical face
    order, and each longer chain after the ones that its prefix precedes.
    Raises ValueError when a face of a face of U is missing from U.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    faces = sorted(set(U), key=lambda f: (f.dim, f.anchor, f.mask))
    # g runs in canonical order, so every supers list comes out sorted
    supers: Dict[Face, List[Face]] = {f: [] for f in faces}
    for g in faces:
        for f in subfaces(g, proper=True):
            if f not in supers:
                raise ValueError("face %r of %r missing from the complex" % (f, g))
            supers[f].append(g)

    chains = [(f,) for f in faces]
    out = list(chains)
    # a chain of U's faces has at most one face per dimension
    for _ in range(min(k, faces[-1].dim if faces else -1)):
        chains = [c + (g,) for c in chains for g in supers[c[-1]]]
        out.extend(chains)
    return out


def simplicial_image(frames, s: int, chain: Tuple[Face, ...]) -> Tuple[Face, ...]:
    """The image at scale s+1 of a flag, a strict chain of scale-s faces
    given as a tuple: each face's image, consecutive duplicates collapsed.

    The image of a strict chain is again a chain at the next scale; when
    a containment degenerates the duplicate is dropped, so the length
    can only shrink. Raises ValueError when the chain or its image is
    not a strict chain: empty, a face repeated, or faces not nested in
    ascending order.
    """
    img: Tuple[Face, ...] = ()
    for f in chain:
        g = face_map_g(frames, s, f)
        if not img or img[-1] != g:
            img += (g,)
    for c in (chain, img):
        if not c:
            raise ValueError("empty flag")
        for a, b in zip(c, c[1:]):
            if a == b or not is_subface(a, b):
                raise ValueError("not a strict chain: %r !< %r" % (a, b))
    return img
