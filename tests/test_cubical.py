import numpy as np
import pytest

from ripsapprox.cubical import (
    active_vertices,
    closure,
    incident_faces,
    is_spanned,
    spanned_faces,
    _spanned,
)
from ripsapprox.geometry import PointCloud
from ripsapprox.persistence import _cubical_columns, betti
from ripsapprox.tower import MalformedStream
from ripsapprox.lattice import (
    MAX_DIM,
    Face,
    GridFrame,
    build_frames,
    face_map_g,
    face_vertices,
    locate,
    subfaces,
    vertex_map_g,
    _FaceCodec,
)

from conftest import random_cloud


def vmap(s, assignment):
    return {Face(s, tuple(z), 0) for z in assignment}


# --- active vertices ---


def test_active_vertices_examples():
    fr = build_frames(1.0, 1, [(1,)])[0]
    assert active_vertices(fr, PointCloud([0.1])) == {Face(0, (0,), 0)}
    assert active_vertices(fr, PointCloud([0.1, 0.2])) == {Face(0, (0,), 0)}
    assert active_vertices(fr, PointCloud([0.1, 1.9])) == {Face(0, (0,), 0), Face(0, (2,), 0)}


def test_active_vertices_partition_and_section():
    P = random_cloud(0, 9, 2)
    fr = build_frames(0.8, 2, [(1, -1)])[0]
    assert active_vertices(fr, P) == {locate(fr, p) for p in P.points}


# --- spanning test ---


def test_spanned_antipodal_square():
    V = vmap(0, {(0, 0): [0], (1, 1): [1]})
    square = Face(0, (0, 0), 0b11)
    assert is_spanned(square, V)
    for edge in (Face(0, (0, 0), 0b01), Face(0, (0, 0), 0b10),
                 Face(0, (0, 1), 0b01), Face(0, (1, 0), 0b10)):
        assert not is_spanned(edge, V)
    assert is_spanned(Face(0, (0, 0), 0), V)
    assert not is_spanned(Face(0, (1, 0), 0), V)


def test_spanned_edge_cases():
    both = vmap(0, {(0,): [0], (1,): [1]})
    assert is_spanned(Face(0, (0,), 1), both)
    one = vmap(0, {(0,): [0]})
    assert not is_spanned(Face(0, (0,), 1), one)


def test_spanned_faces_examples():
    single = vmap(0, {(3, -2): [0]})
    fr = build_frames(1.0, 2, [(1, 1)])[0]
    assert spanned_faces(fr, single) == {Face(0, (3, -2), 0)}

    shared_edge = vmap(0, {(0, 0): [0], (1, 0): [1]})
    got = spanned_faces(fr, shared_edge)
    assert got == {Face(0, (0, 0), 0), Face(0, (1, 0), 0), Face(0, (0, 0), 0b01)}

    antipodal = vmap(0, {(0, 0): [0], (1, 1): [1]})
    got = spanned_faces(fr, antipodal)
    assert got == {Face(0, (0, 0), 0), Face(0, (1, 1), 0), Face(0, (0, 0), 0b11)}


def test_spanned_faces_empty_rejected():
    fr = build_frames(1.0, 2, [(1, 1)])[0]
    with pytest.raises(ValueError):
        spanned_faces(fr, vmap(0, {}))
    # a packed edge would put its mask bits in every spanned key
    with pytest.raises(ValueError, match="0-faces"):
        spanned_faces(fr, {Face(0, (0, 0), 0), Face(0, (0, 0), 0b01)})


def test_spanned_faces_matches_bruteforce():
    # d = 1..5; vertex sets from one vertex to clusters filling most of
    # a 3^d block, plus sparse sets spread over a 5^d block
    rng = np.random.default_rng(17)
    for d in range(1, 6):
        block = [tuple(int(t) for t in z) for z in np.ndindex(*(3,) * d)]
        for fill in (0.0, 0.1, 0.3, 0.6, 0.9, None, None, None):
            fr = build_frames(1.0, d, [tuple(rng.choice((-1, 1), d))])[0]
            if fill is None:
                zs = {tuple(int(t) for t in rng.integers(0, 5, d)) for _ in range(3 * d)}
            else:
                zs = {z for z in block if rng.random() < fill}
                zs = zs or {block[int(rng.integers(len(block)))]}
            want = spanned_faces(fr, vmap(0, zs))
            # the build's packed search, translated far out too: fields
            # of 2^70 pass 64 bits
            for t in (0, -7, 1 << 70, -1 << 70):
                V = vmap(0, {tuple(x + t for x in z) for z in zs})
                moved = {Face(0, tuple(x + t for x in f.anchor), f.mask) for f in want}
                codec = _FaceCodec(d, max(abs(x) for v in V for x in v.anchor))
                got = {codec.unpack(f, 0) for f in _spanned(set(map(codec.pack, V)), codec)}
                assert got == moved, (d, t, sorted(zs))


def test_spanned_faces_dimension_limit():
    fr = GridFrame(0, 1.0, (0,) * (MAX_DIM + 1))
    with pytest.raises(ValueError):
        spanned_faces(fr, vmap(0, {(0,) * (MAX_DIM + 1): [0]}))


def test_incident_faces_counts():
    star = list(incident_faces(Face(0, (0, 0, 0), 0)))
    assert len(star) == 27 and len(set(star)) == 27
    assert sum(1 for f in star if f.dim == 3) == 8
    for d in range(1, 5):
        v = Face(2, tuple(range(3, 3 + d)), 0)
        faces = list(incident_faces(v))
        assert len(set(faces)) == len(faces) == 3 ** d
        for f in faces:
            assert f.s == v.s
            assert v in face_vertices(f)


# --- closure and flags ---


def test_closure_antipodal_square_nine_faces():
    fr = build_frames(1.0, 2, [(1, 1)])[0]
    V = vmap(0, {(0, 0): [0], (1, 1): [1]})
    active = spanned_faces(fr, V)
    U = closure(active)
    assert len(U) == 9
    secondary = U - active
    assert len(active) == 3 and len(secondary) == 6
    assert sum(1 for f in active if f.dim == 2) == 1
    assert sum(1 for f in active if f.dim == 0) == 2
    assert all(f.dim in (0, 1) for f in secondary)
    assert sum(1 for f in secondary if f.dim == 1) == 4
    assert sum(1 for f in secondary if f.dim == 0) == 2
    assert all(g in U for f in U for g in subfaces(f))


def test_closure_all_active_edge():
    spanned = {Face(0, (0,), 1), Face(0, (0,), 0), Face(0, (1,), 0)}
    U = closure(spanned)
    assert U == spanned


def test_closure_rejects_mixed_scales():
    with pytest.raises(ValueError):
        closure({Face(0, (0,), 0), Face(1, (0,), 0)})


def test_complex_accessors_and_order():
    # a complex is a plain face set: its faces, dimension and active faces
    # are comprehensions over it and the spanned set
    fr = build_frames(1.0, 2, [(1, 1)])[0]
    V = vmap(0, {(0, 0): [0], (1, 1): [1]})
    spanned = spanned_faces(fr, V)
    U = closure(spanned)
    assert isinstance(U, set)
    faces = sorted(U, key=lambda f: (f.dim, f.anchor, f.mask))
    assert [f.dim for f in faces] == [0] * 4 + [1] * 4 + [2]
    assert faces[:4] == [Face(0, z, 0) for z in ((0, 0), (0, 1), (1, 0), (1, 1))]
    assert len([f for f in U if f.dim == 1]) == 4
    assert Face(0, (0, 0), 0b11) in U
    assert Face(0, (5, 5), 0) not in U
    assert Face(0, (0, 0), 0b11) in spanned
    assert Face(0, (1, 0), 0) in U - spanned


# --- boundary operator: persistence._cubical_columns on corner ids ---


def corner_cells(U):
    """U's faces, per dimension, as sorted corner-id tuples mapped to their
    bits: the cell form of a stream snapshot."""
    faces = sorted(U, key=lambda f: (f.dim, f.anchor, f.mask))
    ids = {v: i for i, v in enumerate(f for f in faces if f.dim == 0)}
    return [{tuple(sorted(ids[v] for v in face_vertices(f))): j
             for j, f in enumerate(f for f in faces if f.dim == q)}
            for q in range(faces[-1].dim + 1)]


def test_boundary_interval_and_square():
    cells = corner_cells(closure({Face(0, (0,), 1)}))
    assert [len(c) for c in cells] == [2, 1]
    assert _cubical_columns(cells, 1) == [[1, 1], [0b11]]

    cells = corner_cells(closure({Face(0, (0, 0), 0b11)}))
    assert [len(c) for c in cells] == [4, 4, 1]
    assert _cubical_columns(cells, 2)[2] == [0b1111]


def test_boundary_squares_to_zero():
    cells = corner_cells(closure({Face(0, (0, 0, 0), 0b111)}))
    assert [len(c) for c in cells] == [8, 12, 6, 1]
    columns = _cubical_columns(cells, 3)
    for p in (1, 2, 3):
        for col in columns[p]:
            assert col.bit_count() == 2 * p
            acc = 0
            for r, below in enumerate(columns[p - 1]):
                if col >> r & 1:
                    acc ^= below
            # at p = 1 the rows below are the augmentation
            assert acc == 0, (p, col)


def test_boundary_rejects_complex_not_closed():
    edge, square = Face(0, (0,), 1), Face(0, (0, 0), 0b11)
    for U in ({edge}, closure({square}) - {Face(0, (0, 0), 0b01)}):
        with pytest.raises(MalformedStream, match="facets"):
            betti(U)


# --- the cross-scale map ---


def test_cubical_map_collapsing_edge_lands_on_active_vertex():
    frames = build_frames(1.0, 1, [(1,)])
    P = PointCloud([0.1, 0.9])
    V0 = active_vertices(frames[0], P)
    edge = Face(0, (0,), 1)
    assert edge in spanned_faces(frames[0], V0)
    img = face_map_g(frames, 0, edge)
    assert img.dim == 0
    V1 = active_vertices(frames[1], P)
    assert img in spanned_faces(frames[1], V1)


def _complexes_for(P, lam, signs):
    frames = build_frames(lam, P.d, signs)
    out = []
    for fr in frames:
        V = active_vertices(fr, P)
        spanned = spanned_faces(fr, V)
        out.append((V, spanned, closure(spanned)))
    return frames, out


def test_push_equals_relocate():
    # locating at s+1 equals mapping the located vertex at s
    rng = np.random.default_rng(23)
    for trial in range(20):
        d = int(rng.integers(1, 4))
        P = random_cloud(100 + trial, int(rng.integers(2, 8)), d, box=6.0)
        signs = [tuple(rng.choice((-1, 1), d)) for _ in range(4)]
        frames, levels = _complexes_for(P, 0.7, signs)
        for s in range(4):
            V, _, _ = levels[s]
            assert {vertex_map_g(frames, s, v) for v in V} == levels[s + 1][0]


def test_section_composes_with_vertex_map():
    # mapping the vertex of any point of a cell = relocating that point
    rng = np.random.default_rng(29)
    for trial in range(10):
        d = int(rng.integers(1, 4))
        P = random_cloud(200 + trial, 6, d, box=5.0)
        signs = [tuple(rng.choice((-1, 1), d)) for _ in range(3)]
        frames, levels = _complexes_for(P, 1.1, signs)
        for s in range(3):
            for p in P.points:
                assert vertex_map_g(frames, s, locate(frames[s], p)) == locate(frames[s + 1], p)


def test_active_faces_map_to_active_faces():
    rng = np.random.default_rng(31)
    for trial in range(15):
        d = int(rng.integers(1, 4))
        P = random_cloud(300 + trial, int(rng.integers(2, 9)), d, box=8.0)
        signs = [tuple(rng.choice((-1, 1), d)) for _ in range(4)]
        frames, levels = _complexes_for(P, 0.9, signs)
        for s in range(4):
            _, active, U = levels[s]
            _, active_next, U_next = levels[s + 1]
            for f in U:
                img = face_map_g(frames, s, f)
                assert img in U_next
                if f in active:
                    assert img in active_next


def test_small_diameter_subsets_share_a_face():
    # points within alpha_s of each other land in one elementary cube
    rng = np.random.default_rng(37)
    for trial in range(30):
        d = int(rng.integers(1, 4))
        fr = build_frames(1.0, d, [tuple(rng.choice((-1, 1), d))])[0]
        base = rng.uniform(-5, 5, d)
        Q = [base + rng.uniform(0, fr.alpha, d) * 0.999 for _ in range(4)]
        zs = [locate(fr, q).anchor for q in Q]
        for i in range(d):
            coords = [z[i] for z in zs]
            assert max(coords) - min(coords) <= 1


def test_secondary_vertex_maps_into_next_complex():
    frames = build_frames(1.0, 2, [(1, 1)])
    P = PointCloud([[0.1, 0.1], [0.9, 0.9]])
    V0 = active_vertices(frames[0], P)
    spanned0 = spanned_faces(frames[0], V0)
    V1 = active_vertices(frames[1], P)
    U1 = closure(spanned_faces(frames[1], V1))
    for f in closure(spanned0) - spanned0:
        assert face_map_g(frames, 0, f) in U1
