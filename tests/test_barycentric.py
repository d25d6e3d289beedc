import itertools

import numpy as np
import pytest

from ripsapprox.barycentric import FlagSimplex, build_order_complex, simplicial_image
from ripsapprox.cubical import active_vertices, closure, spanned_faces
from ripsapprox.lattice import Face, build_frames

from conftest import random_cloud


def square_complex():
    # one active square with two active antipodal corners, 9 faces total
    spanned = {Face(0, (0, 0), 0b11), Face(0, (0, 0), 0), Face(0, (1, 1), 0)}
    return closure(spanned)


# --- flags ---


def test_flag_simplex_validation():
    v = Face(0, (0, 0), 0)
    e = Face(0, (0, 0), 0b01)
    sq = Face(0, (0, 0), 0b11)
    chain = FlagSimplex((v, e, sq))
    assert chain.dim == 2 and chain.top == sq and len(chain) == 3
    assert list(chain) == [v, e, sq]
    with pytest.raises(ValueError):
        FlagSimplex(())
    with pytest.raises(ValueError):
        FlagSimplex((v, v))
    with pytest.raises(ValueError):
        FlagSimplex((e, Face(0, (3, 3), 0)))  # not nested
    with pytest.raises(ValueError):
        FlagSimplex((e, v))  # wrong direction


# --- order complexes ---


def test_order_complex_of_square():
    X = build_order_complex(square_complex(), 2)
    assert len(X.vertex_faces) == 9
    assert X.n_simplices(0) == 9
    assert X.n_simplices(1) == 16
    assert X.n_simplices(2) == 8
    assert X.dim == 2


def test_order_complex_cap():
    X = build_order_complex(square_complex(), 1)
    assert X.n_simplices(1) == 16 and X.n_simplices(2) == 0
    X0 = build_order_complex(square_complex(), 0)
    assert X0.n_simplices(0) == 9 and X0.dim == 0
    with pytest.raises(ValueError):
        build_order_complex(square_complex(), -1)


def test_order_complex_edge_with_endpoints():
    U = closure({Face(0, (0,), 1), Face(0, (0,), 0), Face(0, (1,), 0)})
    X = build_order_complex(U, 2)
    assert X.n_simplices(0) == 3
    assert X.n_simplices(1) == 2  # endpoint-in-edge chains; endpoints incomparable
    assert X.n_simplices(2) == 0


def test_order_complex_single_vertex():
    U = closure({Face(0, (4,), 0)})
    X = build_order_complex(U, 3)
    assert X.n_simplices(0) == 1 and X.dim == 0


def test_vertex_ids_follow_canonical_face_order():
    U = square_complex()
    X = build_order_complex(U, 2)
    assert X.vertex_faces == U.faces()
    for r in range(1, 3):
        for t in X.simplices(r):
            assert list(t) == sorted(t)  # ids grow along chains
            dims = [X.vertex_faces[i].dim for i in t]
            assert dims == sorted(dims) and len(set(dims)) == len(dims)


def test_closed_under_subchains():
    X = build_order_complex(square_complex(), 2)
    for r in range(1, 3):
        for t in X.simplices(r):
            for sub in itertools.combinations(t, r):
                assert X.has_simplex(sub)


def test_flag_property_on_square():
    # pairwise-comparable triples are exactly the 2-simplices
    X = build_order_complex(square_complex(), 2)
    one = {t for t in X.simplices(1)}
    two = set(X.simplices(2))
    n = len(X.vertex_faces)
    for t in itertools.combinations(range(n), 3):
        pairwise = all(tuple(sorted(e)) in one for e in itertools.combinations(t, 2))
        assert pairwise == (t in two)


def test_flag_accessor_roundtrip():
    U = square_complex()
    X = build_order_complex(U, 2)
    t = X.simplices(2)[0]
    fl = X.flag(t)
    assert isinstance(fl, FlagSimplex)
    assert tuple(X.id_of_face[f] for f in fl) == t


# --- simplicial images ---


def test_image_collapse_dedupes():
    frames = build_frames(1.0, 1, [(1,)])
    v = Face(0, (0,), 0)
    e = Face(0, (0,), 1)
    img = simplicial_image(frames, 0, FlagSimplex((v, e)))
    assert img.dim == 0  # edge direction collapses onto g(v)

    minus = build_frames(1.0, 1, [(-1,)])
    img = simplicial_image(minus, 0, FlagSimplex((v, e)))
    assert img.dim == 1
    assert img.faces[0].mask == 0 and img.faces[1].mask == 1


def test_image_of_vertex_simplex():
    frames = build_frames(1.0, 2, [(1, -1)])
    v = Face(0, (2, 3), 0)
    img = simplicial_image(frames, 0, FlagSimplex((v,)))
    assert img.dim == 0


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
            X = build_order_complex(levels[s], 2)
            X_next = build_order_complex(levels[s + 1], 2)
            for r in range(3):
                for t in X.simplices(r):
                    img = simplicial_image(frames, s, X.flag(t))
                    ids = tuple(X_next.id_of_face[f] for f in img)
                    assert X_next.has_simplex(ids)


def test_image_functorial_across_scales():
    # collapsing duplicates per step agrees with collapsing once at the end
    from ripsapprox.lattice import face_map_g

    for seed in range(5):
        frames, levels = _towers(500 + seed, 5, 2, 3)
        X = build_order_complex(levels[0], 2)
        for t in X.simplices(2) + X.simplices(1):
            chained = simplicial_image(frames, 1, simplicial_image(frames, 0, X.flag(t)))
            twice = []
            for f in X.flag(t):
                g = face_map_g(frames, 1, face_map_g(frames, 0, f))
                if not twice or twice[-1] != g:
                    twice.append(g)
            assert chained.faces == tuple(twice)
