import itertools

import numpy as np
import pytest

from ripsapprox.lattice import (
    MAX_DIM,
    Face,
    GridVertex,
    ShiftSequence,
    build_frames,
    face_map_g,
    face_vertices,
    facets,
    is_subface,
    locate,
    subfaces,
    vertex_map_g,
)


def frames_fixed(lam, signs, d=None):
    rows = [tuple(r) for r in signs]
    sh = ShiftSequence.fixed(rows, d=d)
    return build_frames(lam, len(rows), sh.d, sh)


# --- shift sequences ---


def test_shift_sequence_deterministic():
    a = ShiftSequence(42, 5)
    b = ShiftSequence(42, 5)
    for s in range(6):
        assert a.signs(s) == b.signs(s)
        assert all(e in (-1, 1) for e in a.signs(s))
    assert ShiftSequence(43, 5).signs(0) != a.signs(0) or \
        ShiftSequence(43, 5).signs(1) != a.signs(1)


def test_shift_sequence_validation():
    with pytest.raises(ValueError):
        ShiftSequence(0, 0)
    with pytest.raises(ValueError):
        ShiftSequence(0, MAX_DIM + 1)
    with pytest.raises(ValueError):
        ShiftSequence(0, 2).signs(-1)
    with pytest.raises(ValueError):
        ShiftSequence.fixed([(1, 0)])
    with pytest.raises(ValueError):
        ShiftSequence.fixed([(1,), (1, 1)])
    with pytest.raises(ValueError):
        ShiftSequence.fixed([])
    sh = ShiftSequence.fixed([(1, -1)])
    assert sh.signs(0) == (1, -1)
    with pytest.raises(ValueError):
        sh.signs(1)


# --- frames and offsets ---


def test_offset_recurrence_examples():
    fr = frames_fixed(1.0, [(1, 1)])
    assert fr[0].offset == (0, 0)
    assert fr[1].offset == (1, 1)

    fr = frames_fixed(1.0, [(-1,), (1,)])
    assert [f.offset for f in fr] == [(0,), (-1,), (1,)]


def test_frames_deterministic_from_seed():
    sh1 = ShiftSequence(9, 3)
    sh2 = ShiftSequence(9, 3)
    assert build_frames(0.25, 4, 3, sh1) == build_frames(0.25, 4, 3, sh2)


def test_frame_geometry():
    fr = frames_fixed(1.0, [(1, 1)])
    f0, f1 = fr
    assert f0.alpha == 1.0 and f1.alpha == 2.0
    assert f0.u == 0.5
    # grid points: (offset + 2^{s+1} z) * u
    assert f0.world((2, -1)) == (2.0, -1.0)
    assert f1.world((0, 0)) == (0.5, 0.5)
    assert f1.world((1, 0)) == (2.5, 0.5)


def test_build_frames_validation():
    sh = ShiftSequence(0, 2)
    with pytest.raises(ValueError):
        build_frames(0.0, 1, 2, sh)
    with pytest.raises(ValueError):
        build_frames(1.0, -1, 2, sh)
    with pytest.raises(ValueError):
        build_frames(1.0, 1, 3, sh)


# --- locate ---


def test_locate_examples():
    fr = frames_fixed(1.0, [(1, 1)])[0]
    assert locate(fr, (0.3, -0.6)).z == (0, -1)

    fr1 = frames_fixed(1.0, [(1,)])[0]
    assert locate(fr1, (0.5,)).z == (1,)  # boundary goes up
    assert locate(fr1, (-0.5,)).z == (0,)
    assert locate(fr1, (2.0,)).z == (2,)  # a grid point locates to itself


def test_locate_dimension_mismatch():
    fr = frames_fixed(1.0, [(1, 1)])[0]
    with pytest.raises(ValueError):
        locate(fr, (0.0,))


def test_locate_halfopen_cells():
    rng = np.random.default_rng(3)
    for lam in (0.3, 1.0, 2.5):
        frames = frames_fixed(lam, [tuple(rng.choice((-1, 1), 3)) for _ in range(3)])
        for fr in frames:
            half = fr.alpha / 2.0
            for _ in range(200):
                p = rng.uniform(-20, 20, 3)
                z = locate(fr, p)
                w = fr.world(z.z)
                for i in range(3):
                    assert w[i] - half <= p[i] < w[i] + half + 1e-12


# --- vertex map ---


def test_vertex_map_examples():
    # lam=2, all-plus shift: the image of the origin sits at world (1, 1)
    fr = frames_fixed(2.0, [(1, 1)])
    y = vertex_map_g(fr, 0, GridVertex(0, (0, 0)))
    assert fr[1].world(y.z) == (1.0, 1.0)

    # lam=1, d=1, plus shift: world 0 maps to world 1/2
    fr = frames_fixed(1.0, [(1,)])
    y = vertex_map_g(fr, 0, GridVertex(0, (0,)))
    assert fr[1].world(y.z) == (0.5,)


def test_vertex_map_moves_exactly_half_alpha():
    rng = np.random.default_rng(11)
    frames = frames_fixed(1.0, [tuple(rng.choice((-1, 1), 4)) for _ in range(5)])
    for s in range(5):
        for _ in range(100):
            z = tuple(int(t) for t in rng.integers(-40, 40, 4))
            y = vertex_map_g(frames, s, GridVertex(s, z))
            src = frames[s].world_u(z)
            dst = frames[s + 1].world_u(y.z)
            half = 1 << s  # alpha_s/2 in u units
            assert all(abs(a - b) == half for a, b in zip(src, dst))


def test_vertex_map_is_nearest_choice():
    # the competing grid point in each coordinate is 3*alpha_s/2 away
    rng = np.random.default_rng(12)
    frames = frames_fixed(0.75, [tuple(rng.choice((-1, 1), 2)) for _ in range(4)])
    for s in range(4):
        step = frames[s + 1].step_u
        for _ in range(100):
            z = tuple(int(t) for t in rng.integers(-30, 30, 2))
            y = vertex_map_g(frames, s, GridVertex(s, z))
            src = frames[s].world_u(z)
            for i in range(2):
                here = abs(frames[s + 1].world_u(y.z)[i] - src[i])
                for dy in (-1, 1):
                    other = list(y.z)
                    other[i] += dy
                    alt = abs(frames[s + 1].world_u(tuple(other))[i] - src[i])
                    assert here < alt


def test_vertex_map_validation():
    frames = frames_fixed(1.0, [(1,)])
    with pytest.raises(ValueError):
        vertex_map_g(frames, 1, GridVertex(1, (0,)))  # no frame at s+1
    with pytest.raises(ValueError):
        vertex_map_g(frames, 0, GridVertex(1, (0,)))  # wrong scale tag


# --- face map ---


def test_face_map_collapse_by_shift_sign():
    edge = Face(0, (0,), 1)
    plus = frames_fixed(1.0, [(1,)])
    img = face_map_g(plus, 0, edge)
    assert img.mask == 0 and img.dim == 0  # direction collapses

    minus = frames_fixed(1.0, [(-1,)])
    img = face_map_g(minus, 0, edge)
    assert img.mask == 1 and img.dim == 1  # direction survives


def test_face_map_on_vertices_matches_vertex_map():
    rng = np.random.default_rng(5)
    frames = frames_fixed(1.0, [tuple(rng.choice((-1, 1), 3)) for _ in range(3)])
    for s in range(3):
        for _ in range(50):
            z = tuple(int(t) for t in rng.integers(-20, 20, 3))
            f = Face(s, z, 0)
            img = face_map_g(frames, s, f)
            assert img.mask == 0
            assert img.anchor == vertex_map_g(frames, s, GridVertex(s, z)).z


def test_face_map_is_vertexwise_span():
    # the image face is exactly the one spanned by the corner images
    rng = np.random.default_rng(6)
    frames = frames_fixed(0.5, [tuple(rng.choice((-1, 1), 3)) for _ in range(4)])
    for s in range(4):
        for _ in range(200):
            anchor = tuple(int(t) for t in rng.integers(-20, 20, 3))
            mask = int(rng.integers(0, 8))
            f = Face(s, anchor, mask)
            img = face_map_g(frames, s, f)
            assert img.dim <= f.dim
            got = {vertex_map_g(frames, s, GridVertex(s, z)).z for z in face_vertices(f)}
            assert got == set(face_vertices(img))


# --- face combinatorics ---


def test_face_vertices_subfaces_facets_counts():
    f = Face(0, (0, 0, 0), 0b101)
    assert f.dim == 2 and f.d == 3
    assert len(face_vertices(f)) == 4
    subs = list(subfaces(f))
    assert len(subs) == 9 and len(set(subs)) == 9
    assert len(list(subfaces(f, proper=True))) == 8
    ft = facets(f)
    assert len(ft) == 4
    assert all(g.dim == 1 for g in ft)

    # against a per-direction product definition: each extent direction
    # is kept (None) or fixed at its lower (0) or upper (1) end
    for d in range(1, 5):
        anchor = tuple(range(3, 3 - 2 * d, -2))
        for mask in range(1 << d):
            f = Face(2, anchor, mask)
            dirs = [i for i in range(d) if mask >> i & 1]

            def face_of(choice):
                a, m = list(anchor), 0
                for i, c in zip(dirs, choice):
                    if c is None:
                        m |= 1 << i
                    else:
                        a[i] += c
                return Face(2, tuple(a), m)

            corners = {face_of(c).anchor for c in itertools.product((0, 1), repeat=len(dirs))}
            faces = {face_of(c) for c in itertools.product((None, 0, 1), repeat=len(dirs))}
            assert len(face_vertices(f)) == len(corners) and set(face_vertices(f)) == corners
            listed = list(subfaces(f))
            assert len(listed) == len(faces) and set(listed) == faces
            proper = list(subfaces(f, proper=True))
            assert len(proper) == len(faces) - 1 and set(proper) == faces - {f}
            listed = facets(f)
            assert len(listed) == 2 * len(dirs)
            assert set(listed) == {g for g in faces if g.dim == f.dim - 1}


def test_subface_relation():
    f = Face(0, (2, 3), 0b11)
    subs = set(subfaces(f))
    for g in subs:
        assert is_subface(g, f)
    assert is_subface(f, f)
    assert not is_subface(f, Face(0, (2, 3), 0b01))
    assert not is_subface(Face(0, (0, 0), 0), f)
    assert not is_subface(Face(1, (2, 3), 0), f)  # scales differ
    # every corner is a subface, any other vertex is not
    for z in face_vertices(f):
        assert is_subface(Face(0, z, 0), f)
    assert not is_subface(Face(0, (4, 3), 0), f)
