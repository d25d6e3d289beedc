import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ripsapprox.barycentric import build_order_complex
from ripsapprox.cubical import CubicalComplex, closure
from ripsapprox.geometry import PointCloud
from ripsapprox.lattice import Face, facets
from ripsapprox.persistence import (
    Barcode,
    betti,
    coning_oracle,
    reduce,
    rips_barcode,
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
    snapshots,
)

from conftest import CUBICAL_DIAGONAL_CONTRACTION, CUBICAL_LONE_SQUARE, random_cloud

INF = math.inf


# --- barcode container ---


def test_barcode_basic_ops():
    bc = Barcode()
    bc.add(1, 0.5, 2.0)
    bc.add(0, 0.0, 1.0)
    bc.add(0, 0.0, 0.25)
    assert bc.dimensions() == [0, 1]
    assert bc.intervals(0) == [(0.0, 0.25), (0.0, 1.0)]
    assert bc.to_text() == "0 0 0.25\n0 0 1\n1 0.5 2\n"
    # the order of adding never shows
    assert bc == Barcode({1: [(0.5, 2.0)], 0: [(0.0, 0.25), (0.0, 1.0)]})
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
    with pytest.raises(ValueError, match="line 2: "):
        Barcode.parse("0 0 1\nzero 1 2\n")
    # a line ends at "\n" only, its numbers are plain ASCII decimals with
    # no control character between them but tab, and a bar's dimension is
    # at least 0
    for bad in ("0 0 1\x1c0 0 2\n", "0 1_0 2_0\n", "0 \u0661 2\n", "-1 1 2\n",
                "0 0\x1c1\n", "0\x0b0 1\n", "0 0 1\x7f\n", "0 0 1\r"):
        with pytest.raises(ValueError, match="line 2: "):
            Barcode.parse("0 0 1\n" + bad)
    with pytest.raises(ValueError):
        Barcode().add(-1, 0.0, 1.0)
    assert Barcode.parse("0 0 1\r\n\n1 2 inf").to_text() == "0 0 1\n1 2 inf\n"
    assert Barcode.parse("0\t0 1\n").to_text() == "0 0 1\n"


def test_barcode_rejects_invalid_bars():
    # NaN, reversed, negative and infinitely born bars, each named by its line
    for lineno, bad in enumerate(("0 nan 1", "0 2 1", "0 -1 2", "0 inf inf"), start=1):
        with pytest.raises(ValueError, match="line %d: " % lineno):
            Barcode.parse("0 0 1\n" * (lineno - 1) + bad + "\n")
    with pytest.raises(ValueError):
        Barcode({0: [(2.0, 1.0)]})
    with pytest.raises(ValueError):
        Barcode().add(1, 0.0, math.nan)
    assert Barcode({0: [(0.0, 0.0), (1.0, INF)]}).total() == 2
    # scaling must not carry a finite birth to inf
    with pytest.raises(ValueError):
        Barcode({0: [(1e308, INF)]}).scaled(10.0)
    # nor a finite death
    with pytest.raises(ValueError, match="finite death"):
        Barcode({0: [(1.0, 1e308)]}).scaled(10.0)


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
    for filtration in ([(1.0, (0,)), (0.5, (1,))], [(1.0, (0,)), (0.5, (1,)), (0.7, (0, 1))]):
        with pytest.raises(ValueError, match="filtration values decrease"):
            reduce(filtration)


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


# --- exact Rips barcode ---


def assert_rips_barcode_matches(P, metric, k):
    want = reduce(rips_filtration(P, metric, k), homology_cap=k).to_text()
    assert rips_barcode(P, metric, k).to_text() == want, (P.n, P.d, metric, k)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_rips_barcode_matches_reduce_on_sweep(k):
    # the point clouds of criteria 1 and 2; at k=2 the oracle is slow
    # above n=15 (the full k=2 sweep is checked by hand)
    for n in range(5, 26 if k < 2 else 16, 2):
        for d in (2, 3):
            for seed in range(5):
                P = random_cloud([seed, n, d], n, d)
                for metric in ("linf", "l2"):
                    assert_rips_barcode_matches(P, metric, k)


@pytest.mark.parametrize("metric", ["linf", "l2"])
def test_rips_barcode_matches_reduce_on_ties(metric):
    # integer coordinates give many equal values, more so in linf
    for seed in range(12):
        rng = np.random.default_rng([seed, 31])
        pts = np.unique(rng.integers(0, 4, size=(13, 2 + seed % 2)), axis=0).astype(float)
        for k in (0, 1, 2):
            assert_rips_barcode_matches(PointCloud(pts), metric, k)


@pytest.mark.parametrize("n,k", [(1, 0), (1, 2), (2, 0), (2, 1), (3, 2), (4, 3), (6, 5),
                                 (10, 16)])
def test_rips_barcode_matches_reduce_on_few_points(n, k):
    # n <= k+1 makes the whole simplex; (10, 16) takes keys beyond int64
    for metric in ("linf", "l2"):
        assert_rips_barcode_matches(random_cloud([n, k], n, 2), metric, k)


def test_rips_barcode_guard_before_distances(monkeypatch):
    P = random_cloud(4, 25, 2)
    with pytest.raises(GuardrailExceeded) as want:
        rips_filtration(P, "linf", 3, max_simplices=100)

    def no_distances(*args):
        raise AssertionError("distances computed before the guard")

    monkeypatch.setattr(PointCloud, "pairwise_distances", no_distances)
    with pytest.raises(GuardrailExceeded) as got:
        rips_barcode(P, "linf", 3, max_simplices=100)
    assert str(got.value) == str(want.value) == "Rips filtration needs 68405 simplices > 100"
    with pytest.raises(ValueError):
        rips_barcode(P, "linf", -1)


# --- Betti numbers ---


def test_betti_square_subdivision_is_acyclic():
    spanned = {Face(0, (0, 0), 0b11), Face(0, (0, 0), 0), Face(0, (1, 1), 0)}
    U = closure(spanned)
    assert not any(betti(build_order_complex(U, 2)))


def test_betti_two_isolated_vertices():
    assert betti([(0,), (1,)]) == [1]


def test_betti_rejects_an_empty_simplex():
    with pytest.raises(ValueError, match="at least one vertex"):
        betti([()])
    with pytest.raises(ValueError, match="at least one vertex"):
        betti([(0,), ()])


def test_betti_hollow_square_cubical():
    edges = {Face(0, anchor, mask)
             for anchor, mask in (((0, 0), 0b01), ((0, 1), 0b01), ((0, 0), 0b10), ((1, 0), 0b10))}
    corners = {Face(0, z, 0) for z in ((0, 0), (1, 0), (0, 1), (1, 1))}
    U = CubicalComplex(0, edges | corners, edges)
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
    for k in (1, 2):
        stream = build_simplicial_tower(P, k, seed=3)
        for snap in snapshots(stream):
            direct = betti([c for q in snap.cells for c in q])
            assert betti(snap) == direct, (k, snap.scale_ordinal)

    # the last complex of the cubical tower, here one edge, is reduced-acyclic
    assert not any(betti(replay(build_cubical_tower(P, seed=3))))


def test_betti_cubical_snapshots_match_the_flag_tower():
    # the flag tower with k = d is the barycentric subdivision of the
    # cubical tower, scale by scale
    for d, seed in itertools.product((1, 2, 3), range(10)):
        P = random_cloud(4000 + 10 * d + seed, 12, d)
        cubical = list(snapshots(build_cubical_tower(P, seed=seed)))
        flag = list(snapshots(build_simplicial_tower(P, d, seed=seed)))
        assert [c.alpha for c in cubical] == [f.alpha for f in flag]
        for c, f in zip(cubical, flag):
            bc, bf = betti(c), betti(f)
            width = max(len(bc), len(bf))
            assert bc + [0] * (width - len(bc)) == bf + [0] * (width - len(bf)), (d, seed, c.alpha)


def _essential_counts(cells, top):
    counts = [0] * (top + 1)
    for p, _, dj in _reduce_cells(cells):
        if dj is None:
            counts[p] += 1
    return counts


def _check_euler(b, sizes):
    # reduced Euler characteristic: the dummy (-1)-cell counts once
    assert sum((-1) ** q * x for q, x in enumerate(b)) == \
        sum((-1) ** q * x for q, x in enumerate(sizes)) - 1


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True),
                min_size=1, max_size=8))
def test_betti_ranks_match_the_filtration_reducer_simplicial(tops):
    closed = {tuple(sorted(sub)) for t in tops for r in range(1, len(t) + 1)
              for sub in itertools.combinations(t, r)}
    simplices = sorted(closed, key=lambda t: (len(t), t))
    top = len(simplices[-1]) - 1
    b = betti(reversed(simplices))
    assert b == _essential_counts(_cells_from_simplices([(0.0, t) for t in simplices]), top)
    _check_euler(b, [sum(len(t) == q + 1 for t in simplices) for q in range(top + 1)])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.lists(
    st.tuples(st.tuples(*[st.integers(0, 2)] * d), st.integers(0, 2 ** d - 1)),
    min_size=1, max_size=8)))
def test_betti_ranks_match_the_filtration_reducer_cubical(cubes):
    U = closure({Face(0, anchor, mask) for anchor, mask in cubes})
    faces = U.faces()
    index = {f: i for i, f in enumerate(faces)}
    cells = [(0.0, f.dim, [index[g] for g in facets(f)]) for f in faces]
    b = betti(U)
    assert b == _essential_counts(cells, U.dim)
    _check_euler(b, [len(U.faces_of_dim(q)) for q in range(U.dim + 1)])


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


def test_tower_barcode_reads_cubical_stream():
    # the cubical tower's barcode is the flag tower's: at the default k
    # (capped at d, as the flag tower caps it at its skeleton) and below
    P = random_cloud(14, 5, 2)
    stream = build_cubical_tower(P, seed=0)
    flag = tower_barcode(build_simplicial_tower(P, 2, seed=0))
    assert tower_barcode(stream).to_text() == flag.to_text()
    assert tower_barcode(stream, 5).to_text() == flag.to_text()
    assert tower_barcode(stream, 0).to_text() == flag.to_text()  # no bars above dim 0


def test_tower_barcode_checks_cubical_facets():
    # the walk accepts both streams; their squares miss facets, which
    # tower_barcode sees at every k that reads the squares (k >= 1)
    for text in (CUBICAL_DIAGONAL_CONTRACTION, CUBICAL_LONE_SQUARE):
        stream = EventStream.parse(text)
        replay(stream)
        for k in (None, 1):
            with pytest.raises(MalformedStream, match="has [02] facets, not 4"):
                tower_barcode(stream, k)


def _differential_corpus():
    """(P, seed, metric) for the cubical-against-flag test: uniform clouds,
    integer grids with tied distances, and integer rings, whose hole gives
    dimension-1 bars, at d = 2, 3, 4."""
    for d, n, seeds in ((2, 15, 4), (3, 12, 3), (4, 8, 2)):
        for seed in range(seeds):
            rng = np.random.default_rng(100 * d + seed)
            ring = np.zeros((12, d))
            t = 2 * np.pi * np.arange(12) / 12
            ring[:, 0], ring[:, 1] = np.round(8 * np.cos(t)), np.round(8 * np.sin(t))
            metric = ("linf", "l2")[seed % 2]
            for X in (rng.uniform(0, 10, (n, d)), rng.integers(0, 4, (n, d)), ring):
                yield PointCloud(np.unique(X.astype(float), axis=0)), seed, metric


def test_cubical_tower_barcode_equals_flag_tower_barcode():
    # the flag complex of a cubical complex's face poset is its barycentric
    # subdivision, carried along by the cubical maps: same persistence
    bars_above_0 = 0
    for P, seed, metric in _differential_corpus():
        stream = build_cubical_tower(P, seed, metric=metric)
        for k in range(P.d):
            flag = build_simplicial_tower(P, min(k + 1, P.d), seed, metric=metric)
            got = tower_barcode(stream, k)
            assert got.to_text() == tower_barcode(flag, k).to_text(), (P.points, seed, k)
            bars_above_0 += sum(len(got.intervals(p)) for p in got.dimensions() if p)
    assert bars_above_0 > 0  # the corpus reaches beyond dimension 0


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
            # a cap below the stream's k reads the boundaries of dimension cap + 1
            for cap in range(k + 1):
                assert tower_barcode(stream, cap) == coning_oracle(stream, cap)


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
    # tower_barcode reads cubical streams; the oracle stays simplicial
    P = random_cloud(17, 5, 2)
    stream = build_cubical_tower(P, seed=0)
    with pytest.raises(MalformedStream, match="coning oracle needs a simplicial stream"):
        coning_oracle(stream)


def test_coning_validates_the_stream_and_k():
    # the scales decrease: both engines reject the stream
    stream = EventStream.parse("H 2 1 0 linf 0 1 1 simplicial\nS 2\nI 0 0\nS 1\nI 1 0\n")
    for engine in (tower_barcode, coning_oracle):
        with pytest.raises(MalformedStream):
            engine(stream)
    good = build_simplicial_tower(random_cloud(18, 4, 2), 1, seed=0)
    for engine in (tower_barcode, coning_oracle):
        with pytest.raises(ValueError, match="k must be"):
            engine(good, -1)
