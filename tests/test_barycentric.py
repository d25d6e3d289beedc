import itertools
import random
import re
from collections import Counter

import numpy as np
import pytest

from ripsapprox.barycentric import build_order_complex, simplicial_image
from ripsapprox.cubical import active_vertices, closure, spanned_faces
from ripsapprox.lattice import Face, build_frames, subfaces
from ripsapprox.persistence import betti

from conftest import random_cloud


def square_complex():
    # one active square with two active antipodal corners, 9 faces total
    spanned = {Face(0, (0, 0), 0b11), Face(0, (0, 0), 0), Face(0, (1, 1), 0)}
    return closure(spanned)


def canonical(U):
    return sorted(U, key=lambda f: (f.dim, f.anchor, f.mask))


# --- flags ---


def test_flag_simplex_validation():
    # a flag is a tuple of faces; simplicial_image takes only strict chains
    frames = build_frames(1.0, 2, [(-1, -1)])  # g keeps the cells at the origin
    v = Face(0, (0, 0), 0)
    e = Face(0, (0, 0), 0b01)
    sq = Face(0, (0, 0), 0b11)
    assert simplicial_image(frames, 0, (v, e, sq)) == tuple(Face(1, f.anchor, f.mask)
                                                           for f in (v, e, sq))
    with pytest.raises(ValueError):
        simplicial_image(frames, 0, ())
    with pytest.raises(ValueError):
        simplicial_image(frames, 0, (v, v))
    with pytest.raises(ValueError):
        simplicial_image(frames, 0, (e, Face(0, (3, 3), 0)))  # not nested
    with pytest.raises(ValueError):
        simplicial_image(frames, 0, (e, v))  # wrong direction


# --- order complexes ---


def lengths(chains):
    return Counter(map(len, chains))


def test_order_complex_of_square():
    X = build_order_complex(square_complex(), 2)
    assert lengths(X) == {1: 9, 2: 16, 3: 8}


def test_order_complex_cap():
    assert lengths(build_order_complex(square_complex(), 1)) == {1: 9, 2: 16}
    assert lengths(build_order_complex(square_complex(), 0)) == {1: 9}
    with pytest.raises(ValueError):
        build_order_complex(square_complex(), -1)


def test_order_complex_edge_with_endpoints():
    U = closure({Face(0, (0,), 1), Face(0, (0,), 0), Face(0, (1,), 0)})
    # endpoint-in-edge chains; endpoints incomparable
    assert lengths(build_order_complex(U, 2)) == {1: 3, 2: 2}


def test_order_complex_needs_every_subface():
    # an edge without its end vertices is not closed under faces
    edge, end = Face(0, (0,), 1), Face(0, (0,), 0)
    with pytest.raises(ValueError, match="face %s of %s missing"
                       % (re.escape(repr(end)), re.escape(repr(edge)))):
        build_order_complex({edge}, 1)


def test_order_complex_single_vertex():
    U = closure({Face(0, (4,), 0)})
    assert build_order_complex(U, 3) == [(Face(0, (4,), 0),)]


def test_chains_follow_canonical_face_order():
    U = square_complex()
    X = build_order_complex(U, 2)
    assert [len(c) for c in X] == sorted(len(c) for c in X)  # shortest first
    assert [c for c in X if len(c) == 1] == [(f,) for f in canonical(U)]
    for c in X:
        dims = [f.dim for f in c]
        assert dims == sorted(set(dims))  # dimensions grow along chains
        assert list(c) == sorted(c, key=lambda f: (f.dim, f.anchor, f.mask))


def test_closed_under_subchains():
    X = build_order_complex(square_complex(), 2)
    chains = set(X)
    for c in X:
        if len(c) > 1:
            assert all(sub in chains for sub in itertools.combinations(c, len(c) - 1))


def test_flag_property_on_square():
    # pairwise-comparable triples are exactly the 2-simplices
    U = square_complex()
    chains = set(build_order_complex(U, 2))
    for t in itertools.combinations(canonical(U), 3):
        pairwise = all(e in chains for e in itertools.combinations(t, 2))
        assert pairwise == (t in chains)


# fixed cube sets as (anchor, mask) pairs at d = 1-3, with the reduced
# Betti numbers of their closures
CUBE_SETS = [
    ([((0,), 1), ((1,), 1)], [0, 0]),                                   # a path
    ([((0,), 0), ((2,), 0)], [1]),                                      # two points
    ([((0, 0), 0b01), ((0, 1), 0b01), ((0, 0), 0b10), ((1, 0), 0b10)], [0, 1]),  # a circle
    ([((0, 0), 0b11), ((2, 2), 0b01)], [1, 0, 0]),                      # a square and an edge
    ([((0, 0, 0), m) for m in (0b011, 0b101, 0b110)]
     + [((0, 0, 1), 0b011), ((0, 1, 0), 0b101), ((1, 0, 0), 0b110)], [0, 0, 1]),  # a sphere
    ([((0, 0, 0), 0b111), ((1, 1, 1), 0b111)], [0, 0, 0, 0]),           # two cubes on a corner
]


@pytest.mark.parametrize("cubes,expected", CUBE_SETS)
def test_face_sets_read_the_same_in_any_order(cubes, expected):
    U = closure({Face(0, anchor, mask) for anchor, mask in cubes})
    assert U == {g for anchor, mask in cubes for g in subfaces(Face(0, anchor, mask))}
    shuffled = list(U)
    random.Random(len(cubes)).shuffle(shuffled)
    orders = [U, canonical(U)[::-1], shuffled]
    for k in range(4):
        chains = build_order_complex(U, k)
        assert all(build_order_complex(form, k) == chains for form in orders)
    assert all(betti(form) == expected for form in orders)
    assert betti(iter(shuffled)) == expected


# --- simplicial images ---


def test_image_collapse_dedupes():
    frames = build_frames(1.0, 1, [(1,)])
    v = Face(0, (0,), 0)
    e = Face(0, (0,), 1)
    img = simplicial_image(frames, 0, (v, e))
    assert len(img) == 1  # edge direction collapses onto g(v)

    minus = build_frames(1.0, 1, [(-1,)])
    img = simplicial_image(minus, 0, (v, e))
    assert len(img) == 2
    assert img[0].mask == 0 and img[1].mask == 1


def test_image_of_vertex_simplex():
    frames = build_frames(1.0, 2, [(1, -1)])
    v = Face(0, (2, 3), 0)
    img = simplicial_image(frames, 0, (v,))
    assert len(img) == 1


def _towers(seed, n, d, m):
    rng = np.random.default_rng(seed)
    P = random_cloud(seed, n, d, box=6.0)
    signs = [tuple(rng.choice((-1, 1), d)) for _ in range(m)]
    frames = build_frames(1.0, d, signs)
    levels = []
    for fr in frames:
        V = active_vertices(fr, P)
        levels.append(closure(spanned_faces(fr, V)))
    return frames, levels


def test_images_are_simplices_of_next_complex():
    for seed in range(8):
        frames, levels = _towers(400 + seed, 6, 2, 3)
        for s in range(3):
            next_chains = set(build_order_complex(levels[s + 1], 2))
            for chain in build_order_complex(levels[s], 2):
                assert simplicial_image(frames, s, chain) in next_chains


def test_image_functorial_across_scales():
    # collapsing duplicates per step agrees with collapsing once at the end
    from ripsapprox.lattice import face_map_g

    for seed in range(5):
        frames, levels = _towers(500 + seed, 5, 2, 3)
        for chain in build_order_complex(levels[0], 2):
            if len(chain) == 1:
                continue
            chained = simplicial_image(frames, 1, simplicial_image(frames, 0, chain))
            twice = []
            for f in chain:
                g = face_map_g(frames, 1, face_map_g(frames, 0, f))
                if not twice or twice[-1] != g:
                    twice.append(g)
            assert chained == tuple(twice)
