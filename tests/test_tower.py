import math

import numpy as np
import pytest

from ripsapprox import tower
from ripsapprox.cubical import spanned_faces_bruteforce
from ripsapprox.geometry import PointCloud, diameter, spread
from ripsapprox.lattice import Face
from ripsapprox.tower import (
    Contract,
    EventStream,
    GuardrailExceeded,
    Include,
    MalformedStream,
    Scale,
    active_inclusion_bound,
    build_cubical_tower,
    build_simplicial_tower,
    chain_count,
    cubical_cell_bound,
    relevant_scales,
    replay,
    scale_event_bound,
    simplicial_inclusion_bound,
    stirling2,
    survival_experiment,
    _chains_ending,
)
from ripsapprox.persistence import tower_barcode

from conftest import random_cloud


# --- scale ladder ---


def test_ladder_two_points_unit_interval():
    lad = relevant_scales(PointCloud([0.0, 1.0]))
    assert lad.lam == pytest.approx(1.0 / 3.0)
    assert lad.m == 2
    assert lad.alphas == pytest.approx([1 / 3, 2 / 3, 4 / 3])


def test_ladder_spread_eight():
    lad = relevant_scales(PointCloud([[0, 0], [1, 0], [8, 0]]))
    assert lad.lam == pytest.approx(1.0 / 6.0)
    assert lad.m == 6  # 2^m >= 3*2*8


def test_ladder_two_points_general_d():
    for d, want in ((1, 2), (2, 3), (3, 4)):
        pts = np.zeros((2, d))
        pts[1, 0] = 1.0
        lad = relevant_scales(PointCloud(pts))
        assert lad.m == want  # minimal with 2^m >= 3d


def test_ladder_covers_diameter():
    for seed in range(10):
        P = random_cloud(seed, 7, 2)
        lad = relevant_scales(P)
        assert lad.alpha(lad.m) >= diameter(P, "linf")
        if lad.m > 0:
            assert lad.alpha(lad.m - 1) < diameter(P, "linf")


def test_ladder_needs_two_points():
    with pytest.raises(ValueError):
        relevant_scales(PointCloud([[1.0, 2.0]]))


# --- single-point streams ---


def test_single_point_stream():
    P = PointCloud([[0.7]])
    for stream in (build_simplicial_tower(P, 1, seed=5),
                   build_cubical_tower(P, seed=5),
                   build_simplicial_tower(P, 1, seed=5, lam=0.25, max_scales=3),
                   build_cubical_tower(P, seed=5, lam=0.25, max_scales=3)):
        assert stream.m == 0 and stream.lam == 1.0
        assert stream.events == [Scale(1.0), Include(0, 0, ())]
        snap = replay(stream)
        assert snap.n_vertices() == 1 and snap.cells == {frozenset([0])}
    # the one cell counts against the guardrail like any other
    with pytest.raises(GuardrailExceeded):
        build_simplicial_tower(P, 1, seed=5, guard_cells=0)
    with pytest.raises(GuardrailExceeded):
        build_cubical_tower(P, seed=5, guard_cells=0)


# --- stream format ---


def test_stream_text_roundtrip():
    for mode, builder in (("simplicial", lambda P, s: build_simplicial_tower(P, 2, s)),
                          ("cubical", lambda P, s: build_cubical_tower(P, s))):
        P = random_cloud(42, 6, 2)
        stream = builder(P, 3)
        again = EventStream.parse(stream.to_text())
        assert again == stream
        assert again.mode == mode
        assert again.to_text() == stream.to_text()
        again.seed += 1
        assert again != stream
        again.seed -= 1
        again.events.pop()
        assert again != stream


def test_stream_header_content():
    P = random_cloud(8, 5, 2)
    stream = build_simplicial_tower(P, 1, seed=9, metric="l2")
    head = stream.to_text().splitlines()[0].split()
    assert head[0] == "H"
    assert head[1:5] == ["5", "2", "1", "l2"]
    assert head[5] == "9"
    assert int(head[7]) == stream.m
    assert head[8] == "simplicial"


def test_parse_rejects_bad_input():
    with pytest.raises(MalformedStream):
        EventStream.parse("")
    with pytest.raises(MalformedStream):
        EventStream.parse("X 1 2 3\n")
    with pytest.raises(MalformedStream):
        EventStream.parse("H 2 1 1 linf 0 0.5 1\n")  # missing field
    with pytest.raises(MalformedStream):
        EventStream.parse("H 2 1 1 cosine 0 0.5 1 simplicial\n")
    with pytest.raises(MalformedStream):
        EventStream.parse("H 2 1 1 linf 0 0.5 1 octagonal\n")
    with pytest.raises(MalformedStream):
        EventStream.parse("H 2 1 1 linf 0 0.5 1 simplicial\nQ 1\n")
    with pytest.raises(MalformedStream):
        EventStream.parse("H 2 1 1 linf 0 0.5 1 simplicial\nS one\n")
    with pytest.raises(MalformedStream):
        EventStream.parse("H 2 1 1 linf 0 0.5 1 simplicial\nC 1\n")
    # header fields out of range: n >= 1, 1 <= d <= MAX_DIM, 0 <= k <= d,
    # m >= 0, lambda finite and positive
    for head in ("H 0 1 1 linf 0 0.5 1 simplicial", "H -2 1 1 linf 0 0.5 1 simplicial",
                 "H 2 0 0 linf 0 0.5 1 simplicial", "H 2 33 1 linf 0 0.5 1 cubical",
                 "H 2 1 -1 linf 0 0.5 1 simplicial", "H 2 1 2 linf 0 0.5 1 simplicial",
                 "H 2 1 1 linf 0 0.5 -1 simplicial", "H 2 1 1 linf 0 0 1 simplicial",
                 "H 2 1 1 linf 0 -0.5 1 simplicial", "H 2 1 1 linf 0 nan 1 simplicial",
                 "H 2 1 1 linf 0 inf 1 simplicial"):
        with pytest.raises(MalformedStream):
            EventStream.parse(head + "\n")
    assert EventStream.parse("H 1 32 32 l2 0 1e-300 0 cubical\n").d == 32


def test_counts_and_scale_values():
    P = random_cloud(1, 6, 2)
    stream = build_simplicial_tower(P, 1, seed=0)
    c = stream.counts()
    assert c["S"] == len(stream.scale_values())
    assert c["I"] == sum(stream.includes_by_dim().values())
    assert c["I"] + c["C"] + c["S"] == len(stream.events)


# --- construction invariants ---


def test_determinism_same_seed():
    P = random_cloud(77, 8, 2)
    a = build_simplicial_tower(P, 2, seed=123)
    b = build_simplicial_tower(P, 2, seed=123)
    assert a.to_text() == b.to_text()
    ca = build_cubical_tower(P, seed=123)
    cb = build_cubical_tower(P, seed=123)
    assert ca.to_text() == cb.to_text()


def test_scale_groups_never_empty():
    for seed in range(6):
        P = random_cloud(seed, 7, 2)
        stream = build_simplicial_tower(P, 1, seed=seed)
        events = stream.events
        for i, e in enumerate(events):
            if isinstance(e, Scale):
                assert i + 1 < len(events)
                assert not isinstance(events[i + 1], Scale)


def test_scale_values_increase_from_lambda():
    for seed in range(6):
        P = random_cloud(10 + seed, 6, 3)
        stream = build_simplicial_tower(P, 1, seed=seed)
        alphas = stream.scale_values()
        assert alphas[0] == stream.lam
        assert all(b > a for a, b in zip(alphas, alphas[1:]))
        # every present scale is lambda * 2^s for some s <= m
        for a in alphas:
            s = round(math.log2(a / stream.lam))
            assert 0 <= s <= stream.m
            assert a == stream.lam * (1 << s)


def test_include_ids_are_sequential():
    for mode in ("simplicial", "cubical"):
        P = random_cloud(55, 7, 2)
        if mode == "simplicial":
            stream = build_simplicial_tower(P, 2, seed=4)
        else:
            stream = build_cubical_tower(P, seed=4)
        ids = [e.id for e in stream.events if isinstance(e, Include)]
        assert ids == list(range(len(ids)))


def test_canonical_order_inside_scale_groups():
    P = random_cloud(66, 8, 2)
    stream = build_simplicial_tower(P, 2, seed=7)
    groups = []
    for e in stream.events:
        if isinstance(e, Scale):
            groups.append([])
        else:
            groups[-1].append(e)
    for g in groups:
        kinds = ["C" if isinstance(e, Contract) else "I" for e in g]
        assert kinds == sorted(kinds)  # contracts first, then includes
        contracts = [(e.i, e.j) for e in g if isinstance(e, Contract)]
        assert contracts == sorted(contracts)
        incl = [e for e in g if isinstance(e, Include)]
        dims = [e.dim for e in incl]
        assert dims == sorted(dims)
        for r in set(dims):
            if r > 0:
                tuples = [e.vertices for e in incl if e.dim == r]
                assert tuples == sorted(tuples)
                assert all(t == tuple(sorted(t)) for t in tuples)


def test_contract_representative_is_minimum():
    P = random_cloud(88, 9, 2)
    stream = build_simplicial_tower(P, 1, seed=2)
    merged = {}
    for e in stream.events:
        if isinstance(e, Contract):
            assert e.i < e.j
            merged.setdefault(e.i, []).append(e.j)
    assert merged  # the ladder always collapses something eventually
    for rep, gone in merged.items():
        assert rep < min(gone)


def test_final_scale_single_component():
    # at alpha >= diam everything has merged into one cube's subdivision:
    # connected at any flag cap, fully acyclic once flags reach length d+1
    from ripsapprox.persistence import betti

    for seed in range(5):
        P = random_cloud(900 + seed, 6, 2)
        b1 = betti(replay(build_simplicial_tower(P, 1, seed=seed)))
        assert b1[0] == 0
        b2 = betti(replay(build_simplicial_tower(P, 2, seed=seed)))
        assert not any(b2)


def test_k_zero_stream_has_only_vertices():
    P = random_cloud(5, 5, 2)
    stream = build_simplicial_tower(P, 0, seed=1)
    assert set(stream.includes_by_dim()) == {0}


def test_k_validation():
    P = random_cloud(5, 5, 2)
    with pytest.raises(ValueError):
        build_simplicial_tower(P, 3, seed=0)  # k > d
    with pytest.raises(ValueError):
        build_simplicial_tower(P, -1, seed=0)


def test_dimension_guardrail():
    pts = np.zeros((2, 33))
    pts[1, 0] = 1.0
    with pytest.raises(GuardrailExceeded):
        build_simplicial_tower(PointCloud(pts), 1, seed=0)


def test_cell_guardrail_trips():
    P = random_cloud(3, 10, 2)
    with pytest.raises(GuardrailExceeded):
        build_simplicial_tower(P, 2, seed=0, guard_cells=20)


def test_lambda_override_and_max_scales():
    P = PointCloud([0.0, 1.0])
    stream = build_simplicial_tower(P, 1, seed=0, lam=0.5)
    assert stream.lam == 0.5 and stream.m == 1  # 0.5 * 2 >= diam 1
    capped = build_simplicial_tower(P, 1, seed=0, max_scales=0)
    assert capped.m == 0
    with pytest.raises(ValueError):
        build_simplicial_tower(P, 1, seed=0, lam=-1.0)
    with pytest.raises(ValueError):
        build_simplicial_tower(P, 1, seed=0, max_scales=-1)


def test_cubical_cells_reference_corner_ids():
    P = random_cloud(21, 6, 2)
    stream = build_cubical_tower(P, seed=3)
    dim_of = {}
    for e in stream.events:
        if isinstance(e, Include):
            dim_of[e.id] = e.dim
            if e.dim > 0:
                assert len(e.vertices) == 1 << e.dim
                assert all(dim_of.get(v) == 0 for v in e.vertices)
    replay(stream)  # well-formed end to end


def test_audit_totals_match_stream():
    P = random_cloud(31, 7, 2)
    stream, audit = build_simplicial_tower(P, 2, seed=6, with_audit=True)
    assert audit.total_inclusions == stream.counts()["I"]
    assert audit.total_active_inclusions + audit.total_secondary_inclusions == \
        stream.includes_by_dim()[0]
    assert len(audit.scales) == stream.m + 1
    for sc in audit.scales:
        assert sc.alpha == stream.lam * (1 << sc.s)
    assert sum(sc.n_contractions for sc in audit.scales) == stream.counts()["C"]
    # a cubical tower includes each new face as one cell
    stream, audit = build_cubical_tower(P, seed=6, with_audit=True)
    assert audit.total_inclusions == stream.counts()["I"] == \
        audit.total_active_inclusions + audit.total_secondary_inclusions
    assert sum(sc.n_contractions for sc in audit.scales) == stream.counts()["C"]


def test_towers_unchanged_with_bruteforce_spanned_faces(monkeypatch):
    clouds = [random_cloud(70, 24, 2), random_cloud(71, 10, 3), random_cloud(72, 8, 4)]
    built = [(build_cubical_tower(P, seed=5), build_simplicial_tower(P, 2, seed=5))
             for P in clouds]
    monkeypatch.setattr(tower, "spanned_faces", spanned_faces_bruteforce)
    for P, (cubical, simplicial) in zip(clouds, built):
        assert build_cubical_tower(P, seed=5) == cubical
        assert build_simplicial_tower(P, 2, seed=5) == simplicial


# --- replay validation ---


HEAD = "H 4 1 1 linf 0 1 1 simplicial\n"


def parse_replay(body, **kw):
    return replay(EventStream.parse(HEAD + body), **kw)


def assert_rejected(body, head=HEAD):
    """Both stream readers refuse the body with MalformedStream."""
    stream = EventStream.parse(head + body)
    for read in (replay, tower_barcode):
        with pytest.raises(MalformedStream):
            read(stream)


def test_replay_accepts_minimal_stream():
    snap = parse_replay("S 1\nI 0 0\nI 1 0\nI 2 1 0 1\n")
    assert snap.cells == {frozenset([0]), frozenset([1]), frozenset([0, 1])}
    assert snap.live == {0, 1}
    assert snap.alpha == 1.0 and snap.scale_ordinal == 0


def test_replay_resolves_contractions():
    snap = parse_replay("S 1\nI 0 0\nI 1 0\nI 2 1 0 1\nS 2\nC 0 1\n")
    assert snap.cells == {frozenset([0])}
    assert snap.live == {0}


def test_replay_upto_prefix():
    body = "S 1\nI 0 0\nI 1 0\nS 2\nC 0 1\n"
    first = parse_replay(body, upto=0)
    assert first.live == {0, 1} and first.scale_ordinal == 0
    full = parse_replay(body)
    assert full.live == {0} and full.scale_ordinal == 1
    beyond = parse_replay(body, upto=7)
    assert beyond.live == {0}


def test_replay_rejects_event_before_scale():
    assert_rejected("I 0 0\n")


def test_replay_rejects_duplicate_id():
    assert_rejected("S 1\nI 0 0\nI 0 0\n")


def test_replay_rejects_vertex_list_on_0cell():
    assert_rejected("S 1\nI 0 0\nI 1 0 0\n")


def test_replay_rejects_wrong_arity():
    assert_rejected("S 1\nI 0 0\nI 1 0\nI 2 1 0 1 1\n")
    assert_rejected("S 1\nI 0 0\nI 1 0\nI 2 2 0 1\n")


def test_replay_rejects_unsorted_vertices():
    assert_rejected("S 1\nI 0 0\nI 1 0\nI 2 1 1 0\n")


def test_replay_rejects_unknown_reference():
    assert_rejected("S 1\nI 0 0\nI 2 1 0 1\n")


def test_replay_rejects_reference_to_dead_vertex():
    assert_rejected("S 1\nI 0 0\nI 1 0\nS 2\nC 0 1\nI 2 1 0 1\n")


def test_replay_rejects_bad_contracts():
    assert_rejected("S 1\nI 0 0\nI 1 0\nC 1 0\n")  # needs i < j
    assert_rejected("S 1\nI 0 0\nC 0 3\n")  # unknown id
    assert_rejected("S 1\nI 0 0\nI 1 0\nC 0 1\nC 0 1\n")  # j already dead
    assert_rejected("S 1\nI 0 0\nI 1 0\nI 2 1 0 1\nC 0 2\n")  # not a vertex


def test_replay_rejects_decreasing_scales():
    assert_rejected("S 2\nI 0 0\nS 1\nI 1 0\n")


def test_replay_rejects_bad_scale_values():
    for alpha in ("nan", "inf", "-inf", "0", "-1"):
        assert_rejected("S %s\nI 0 0\n" % alpha)
        assert_rejected("S 1\nI 0 0\nS %s\nI 1 0\n" % alpha)


def test_replay_rejects_dimension_out_of_range():
    # simplicial: 0..k with k = 1 in HEAD
    assert_rejected("S 1\nI 0 0\nI 1 0\nI 2 -1 0 1\n")
    assert_rejected("S 1\nI 0 0\nI 1 0\nI 2 0\nI 3 2 0 1 2\n")
    # cubical: 0..d with d = 2
    head = "H 4 2 0 linf 0 1 1 cubical\n"
    assert_rejected("S 1\nI 0 0\nI 1 0\nI 2 -1 0 1\n", head)
    assert_rejected("S 1\n" + "".join("I %d 0\n" % i for i in range(8))
                    + "I 8 3 0 1 2 3 4 5 6 7\n", head)


def test_replay_cubical_arity():
    head = "H 4 2 0 linf 0 1 1 cubical\n"
    stream = EventStream.parse(
        head + "S 1\nI 0 0\nI 1 0\nI 2 0\nI 3 0\nI 4 2 0 1 2 3\n")
    snap = replay(stream)
    assert frozenset([0, 1, 2, 3]) in snap.cells
    with pytest.raises(MalformedStream):
        replay(EventStream.parse(head + "S 1\nI 0 0\nI 1 0\nI 2 2 0 1\n"))


# --- counting helpers ---


def test_stirling2_values():
    assert stirling2(0, 0) == 1
    assert stirling2(3, 0) == 0
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25
    assert stirling2(6, 1) == 1
    assert stirling2(6, 6) == 1
    assert stirling2(3, 5) == 0


def test_chain_count_closed_form_small():
    # chains of length <= 3 ending at a D-face: 1 + 5^D - 3^D
    for D in range(5):
        assert chain_count(3, D) == 1 + 5 ** D - 3 ** D
    assert chain_count(1, 4) == 1
    assert chain_count(0, 2) == 0


def test_chain_count_matches_enumeration():
    for D in range(4):
        F = Face(0, (0,) * max(D, 1), (1 << D) - 1)
        for L in range(1, 5):
            brute = 1 + sum(1 for _ in _chains_ending(F, L))
            assert chain_count(L, D) == brute


def test_bound_helpers():
    assert active_inclusion_bound(2, 3) == 54
    assert cubical_cell_bound(2, 3) == 432
    assert scale_event_bound(6) == 7
    assert simplicial_inclusion_bound(1, 3, 2) is None  # k + 2 > d
    # n * 6^(d-1) * (2k+4) * (k+3)! * S(d, k+2)
    assert simplicial_inclusion_bound(1, 3, 1) == 6 ** 2 * 6 * 24 * 1


def test_stream_within_size_bounds():
    for seed in range(8):
        P = random_cloud(700 + seed, 8, 3)
        stream, audit = build_simplicial_tower(P, 1, seed=seed, with_audit=True)
        assert audit.total_active_inclusions <= active_inclusion_bound(P.n, P.d)
        assert stream.includes_by_dim()[0] <= cubical_cell_bound(P.n, P.d)
        sb = simplicial_inclusion_bound(P.n, P.d, 1)
        assert stream.counts()["I"] <= sb
        assert stream.counts()["S"] <= scale_event_bound(stream.m)


# --- survival experiment ---


def test_survival_deterministic():
    a = survival_experiment(6, 2, 200, seed=9)
    b = survival_experiment(6, 2, 200, seed=9)
    assert a == b


def test_survival_k1_is_geometric():
    hist = survival_experiment(8, 1, 4000, seed=1)
    trials = sum(hist.values())
    assert trials == 4000
    assert min(hist) >= 1
    mean = sum(y * c for y, c in hist.items()) / trials
    assert abs(mean - 2.0) < 0.15  # geometric with success 1/2 has mean 2
    assert abs(hist[1] / trials - 0.5) < 0.05


def test_survival_validation():
    with pytest.raises(ValueError):
        survival_experiment(4, 0, 10, seed=0)
    with pytest.raises(ValueError):
        survival_experiment(4, 5, 10, seed=0)
    with pytest.raises(ValueError):
        survival_experiment(4, 2, 0, seed=0)
