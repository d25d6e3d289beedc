import math

import numpy as np
import pytest

from ripsapprox.barycentric import build_order_complex
from ripsapprox.cubical import CubicalComplex, closure
from ripsapprox.geometry import PointCloud
from ripsapprox.lattice import Face
from ripsapprox.persistence import (
    Barcode,
    Filtration,
    betti,
    coning_oracle,
    reduce,
    rips_filtration,
    tower_barcode,
    _cells_from_simplices,
    _reduce_cells,
)
from ripsapprox.tower import (
    EventStream,
    GuardrailExceeded,
    MalformedStream,
    build_cubical_tower,
    build_simplicial_tower,
    replay,
)

from conftest import random_cloud

INF = math.inf


# --- barcode container ---


def test_barcode_basic_ops():
    bc = Barcode()
    bc.add(1, 0.5, 2.0)
    bc.add(0, 0.0, 1.0)
    bc.add(0, 0.0, 0.25)
    bc.sort()
    assert bc.dimensions() == [0, 1]
    assert bc.intervals(0) == [(0.0, 0.25), (0.0, 1.0)]
    assert bc.total() == 3
    assert bc.intervals(5) == []


def test_barcode_scaled():
    bc = Barcode({0: [(1.0, 4.0)], 1: [(2.0, INF)]})
    half = bc.scaled(0.5)
    assert half.intervals(0) == [(0.5, 2.0)]
    assert half.intervals(1) == [(1.0, INF)]
    assert bc.scaled(1.0) == bc
    with pytest.raises(ValueError):
        bc.scaled(0.0)


def test_barcode_text_roundtrip():
    bc = Barcode({0: [(0.0, 0.5)], 2: [(1.0 / 3.0, INF), (0.1, 0.30000000000000004)]})
    text = bc.to_text()
    lines = text.splitlines()
    assert lines[0] == "0 0 0.5"
    assert any(t.endswith("inf") for t in lines)
    again = Barcode.parse(text)
    assert again == bc  # 17 digits round-trip doubles exactly
    assert Barcode.parse("").total() == 0
    assert Barcode().to_text() == ""


def test_barcode_parse_errors():
    with pytest.raises(ValueError):
        Barcode.parse("0 1\n")
    with pytest.raises(ValueError):
        Barcode.parse("zero 1 2\n")


# --- Rips filtrations ---


def test_rips_two_points():
    filt = rips_filtration(PointCloud([0.0, 1.0]), "linf", 1)
    values = {verts: v for v, verts in filt}
    assert values[(0,)] == 0.0 and values[(1,)] == 0.0
    assert values[(0, 1)] == 0.5


def test_rips_triangle_value():
    P = PointCloud([[0, 0], [1, 0], [0, 1]])
    filt = rips_filtration(P, "linf", 1)
    values = {verts: v for v, verts in filt}
    assert values[(0, 1, 2)] == 0.5


def test_rips_order_and_faces_first():
    P = random_cloud(3, 7, 2)
    filt = rips_filtration(P, "l2", 2)
    seen = {}
    prev = (-1.0, 0, ())
    for idx, (v, verts) in enumerate(filt):
        key = (v, len(verts), verts)
        assert key > prev
        prev = key
        seen[verts] = idx
        if len(verts) > 1:
            for i in range(len(verts)):
                assert verts[:i] + verts[i + 1:] in seen
    # includes one dimension above the homology cap
    assert max(len(t) for _, t in filt) == 4


def test_rips_guardrail_and_validation():
    P = random_cloud(4, 25, 2)
    with pytest.raises(GuardrailExceeded):
        rips_filtration(P, "linf", 3, max_simplices=100)
    with pytest.raises(ValueError):
        rips_filtration(P, "linf", -1)


def test_filtration_rejects_decreasing_values():
    with pytest.raises(ValueError):
        Filtration([(1.0, (0,)), (0.5, (1,))])


# --- reduction ---


def test_reduce_two_points():
    bc = reduce(rips_filtration(PointCloud([0.0, 1.0]), "linf", 1))
    assert bc.intervals(0) == [(0.0, 0.5)]
    assert bc.intervals(1) == []


def test_reduce_unit_square_linf():
    P = PointCloud([[0, 0], [1, 0], [0, 1], [1, 1]])
    bc = reduce(rips_filtration(P, "linf", 1))
    assert bc.intervals(0) == [(0.0, 0.5)] * 3
    assert bc.intervals(1) == []  # edges and triangles arrive together


def test_reduce_unit_square_l2_cycle():
    P = PointCloud([[0, 0], [1, 0], [0, 1], [1, 1]])
    bc = reduce(rips_filtration(P, "l2", 1))
    assert bc.intervals(0) == [(0.0, 0.5)] * 3
    assert bc.intervals(1) == [(0.5, pytest.approx(math.sqrt(2) / 2))]


def test_reduce_clique_is_reduced_acyclic():
    P = random_cloud(6, 7, 2)
    bc = reduce(rips_filtration(P, "linf", 1), homology_cap=1)
    for p in bc.dimensions():
        for _, d in bc.intervals(p):
            assert d < INF


def test_reduce_counts_match_betti_at_prefixes():
    P = random_cloud(9, 7, 2)
    filt = rips_filtration(P, "linf", 1)
    cells = _cells_from_simplices(list(filt))
    pairs = _reduce_cells(cells)
    simplices = [t for _, t in filt]
    for L in range(1, len(cells) + 1):
        alive = {}
        for p, bj, dj in pairs:
            if bj < L and (dj is None or dj >= L):
                alive[p] = alive.get(p, 0) + 1
        want = betti(simplices[:L])
        got = [alive.get(p, 0) for p in range(len(want))]
        assert got == want
        assert sum(alive.values()) == sum(want)


# --- Betti numbers ---


def test_betti_square_subdivision_is_acyclic():
    spanned = {Face(0, (0, 0), 0b11), Face(0, (0, 0), 0), Face(0, (1, 1), 0)}
    U = closure(spanned)
    X = build_order_complex(U, 2)
    assert not any(betti(X))


def test_betti_two_isolated_vertices():
    assert betti([(0,), (1,)]) == [1]


def test_betti_hollow_square_cubical():
    flags = {}
    for anchor, mask in (((0, 0), 0b01), ((0, 1), 0b01), ((0, 0), 0b10), ((1, 0), 0b10)):
        flags[Face(0, anchor, mask)] = "active"
    for z in ((0, 0), (1, 0), (0, 1), (1, 1)):
        flags[Face(0, z, 0)] = "secondary"
    U = CubicalComplex(0, flags)
    U.verify_closed()
    assert betti(U) == [0, 1]


def test_betti_filled_square_cubical():
    U = closure({Face(0, (0, 0), 0b11)})
    assert betti(U) == [0, 0, 0]


def test_betti_circle_and_sphere():
    hexagon = [(i, (i + 1) % 6) for i in range(6)]
    cycle = [tuple(sorted(e)) for e in hexagon] + [(i,) for i in range(6)]
    assert betti(cycle) == [0, 1]

    tetra_boundary = []
    for r in (1, 2, 3):
        from itertools import combinations

        tetra_boundary += list(combinations(range(4), r))
    assert betti(tetra_boundary) == [0, 0, 1]


def test_betti_snapshot_paths():
    P = random_cloud(12, 6, 2)
    stream = build_simplicial_tower(P, 1, seed=3)
    snap = replay(stream, upto=0)
    direct = betti(sorted(tuple(sorted(c)) for c in snap.cells))
    assert betti(snap) == direct

    cstream = build_cubical_tower(P, seed=3)
    with pytest.raises(ValueError):
        betti(replay(cstream))


# --- tower barcodes ---


def test_tower_barcode_single_point_empty():
    stream = build_simplicial_tower(PointCloud([[0.25]]), 1, seed=0)
    assert tower_barcode(stream).total() == 0


def test_tower_barcode_two_points():
    stream = build_simplicial_tower(PointCloud([0.0, 1.0]), 1, seed=0)
    bc = tower_barcode(stream, 1)
    assert len(bc.intervals(0)) == 1
    b, d = bc.intervals(0)[0]
    assert b == 0.0 and 0 < d < INF
    assert bc.intervals(1) == []


def test_tower_barcode_rejects_cubical_stream():
    P = random_cloud(14, 5, 2)
    stream = build_cubical_tower(P, seed=0)
    with pytest.raises(MalformedStream):
        tower_barcode(stream)


def test_tower_barcode_caps_dimension():
    P = random_cloud(15, 6, 2)
    stream = build_simplicial_tower(P, 2, seed=1)
    bc = tower_barcode(stream, 0)
    assert all(p == 0 for p in bc.dimensions())


def test_tower_barcode_elder_rule():
    # a vertex born at 2 joins the component born at 0 when the edge
    # enters at 4: the younger class dies, the elder one lives on
    head = "H 3 2 1 linf 0 1 2 simplicial\n"
    body = "S 1\nI 0 0\nI 1 0\nS 2\nI 2 0\nS %s\nI 3 1 1 2\n"
    for last, want in (("4", "0 0 inf\n0 2 4\n"), ("2", "0 0 inf\n")):
        stream = EventStream.parse(head + body % last)
        assert tower_barcode(stream).to_text() == want
        assert coning_oracle(stream).to_text() == want


def test_engines_agree_when_the_first_scale_repeats():
    # vertex 2 enters at a second scale 1.0: born at 1, not with the
    # first group's cells at 0
    head = "H 4 2 0 linf 0 1 1 simplicial\n"
    stream = EventStream.parse(head + "S 1.0\nI 0 0\nI 1 0\nS 1.0\nI 2 0\nS 2\nC 0 1\nC 0 2\n")
    want = "0 0 2\n0 1 2\n"
    assert tower_barcode(stream).to_text() == want
    assert coning_oracle(stream).to_text() == want


def test_engines_agree_on_small_instances():
    for seed in range(4):
        P = random_cloud(600 + seed, 6, 2)
        for k in (0, 1):
            stream = build_simplicial_tower(P, k, seed=seed)
            assert tower_barcode(stream, k) == coning_oracle(stream, k)
        P = random_cloud(620 + seed, 6, 3)
        for k in (0, 1, 2):
            stream = build_simplicial_tower(P, k, seed=seed)
            assert tower_barcode(stream, k) == coning_oracle(stream, k)


# --- coning oracle ---


def test_coning_without_contractions_matches_reduce():
    head = "H 2 1 1 linf 0 1 1 simplicial\n"
    stream = EventStream.parse(head + "S 1\nI 0 0\nI 1 0\nS 2\nI 2 1 0 1\n")
    got = coning_oracle(stream, 1)
    plain = reduce([(0.0, (0,)), (0.0, (1,)), (2.0, (0, 1))], homology_cap=1)
    assert got == plain
    assert got.intervals(0) == [(0.0, 2.0)]


def test_coning_vertex_contraction():
    # two components at scale 1 merged by the contraction entering scale 2
    head = "H 2 1 1 linf 0 1 1 simplicial\n"
    stream = EventStream.parse(head + "S 1\nI 0 0\nI 1 0\nS 2\nC 0 1\n")
    bc = coning_oracle(stream, 1)
    assert bc.intervals(0) == [(0.0, 2.0)]
    assert bc.intervals(1) == []
    assert tower_barcode(stream, 1) == bc


def test_coning_contracting_an_edge_leaves_nothing():
    # edge present from the start: connected throughout, empty reduced barcode
    head = "H 2 1 1 linf 0 1 1 simplicial\n"
    stream = EventStream.parse(
        head + "S 1\nI 0 0\nI 1 0\nI 2 1 0 1\nS 2\nC 0 1\n")
    bc = coning_oracle(stream, 1)
    assert bc.total() == 0
    assert tower_barcode(stream, 1) == bc


def test_coning_guardrail():
    P = random_cloud(16, 8, 2)
    stream = build_simplicial_tower(P, 1, seed=0)
    with pytest.raises(GuardrailExceeded):
        coning_oracle(stream, 1, max_cells=10)


def test_coning_rejects_cubical_stream():
    P = random_cloud(17, 5, 2)
    stream = build_cubical_tower(P, seed=0)
    with pytest.raises(MalformedStream):
        coning_oracle(stream)
