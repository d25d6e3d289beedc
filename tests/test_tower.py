import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from ripsapprox import cubical, tower
from ripsapprox.cubical import active_vertices, spanned_faces
from ripsapprox.geometry import PointCloud, diameter, spread
from ripsapprox.lattice import Face, GridFrame, _FaceCodec
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
    replay,
    scale_event_bound,
    simplicial_inclusion_bound,
    snapshots,
    stirling2,
    survival_experiment,
    _chains_ending,
    _ladder_for,
)
from ripsapprox.persistence import coning_oracle, tower_barcode

from conftest import MUTATIONS, definition_complexes, random_cloud


# --- scale ladder ---


def test_ladder_two_points_unit_interval():
    lam, m = _ladder_for(PointCloud([0.0, 1.0]), None, None)
    assert lam == pytest.approx(1.0 / 3.0)
    assert m == 2
    assert [math.ldexp(lam, s) for s in range(m + 1)] == pytest.approx([1 / 3, 2 / 3, 4 / 3])


def test_ladder_spread_eight():
    lam, m = _ladder_for(PointCloud([[0, 0], [1, 0], [8, 0]]), None, None)
    assert lam == pytest.approx(1.0 / 6.0)
    assert m == 6  # 2^m >= 3*2*8


def test_ladder_two_points_general_d():
    for d, want in ((1, 2), (2, 3), (3, 4)):
        pts = np.zeros((2, d))
        pts[1, 0] = 1.0
        _, m = _ladder_for(PointCloud(pts), None, None)
        assert m == want  # minimal with 2^m >= 3d


def test_ladder_covers_diameter():
    rng = np.random.default_rng(0)
    for seed in range(10):
        P = random_cloud(seed, 7, 2)
        stream = build_simplicial_tower(P, 0, seed, lam=float(rng.uniform(1e-3, 20.0)))
        for lam, m in (_ladder_for(P, None, None), (stream.lam, stream.m)):
            assert math.ldexp(lam, m) >= diameter(P, "linf")
            if m > 0:
                assert math.ldexp(lam, m - 1) < diameter(P, "linf")


def test_ladder_boundary_rebuild():
    # 3-point collinear clouds whose diameter sits on lambda*2^j or one of
    # its float neighbours; the stored lambda must re-derive the same m
    rng = np.random.default_rng(8)
    for d in (1, 2, 3):
        for _ in range(12):
            a = float(rng.uniform(0.1, 10.0))
            j = int(rng.integers(5, 10))  # 2^j > 6d keeps cp = a
            edge = a / (3.0 * d) * 2.0 ** j
            for diam in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)):
                pts = np.zeros((3, d))
                pts[1, 0], pts[2, 0] = a, diam
                s = build_simplicial_tower(PointCloud(pts), 1, seed=j)
                again = build_simplicial_tower(PointCloud(pts), 1, seed=j, lam=s.lam,
                                               max_scales=s.m)
                assert again == s, (d, a, diam)


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
        assert snap.cells == [{(0,): 0}, {}]
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


def test_parse_splits_lines_on_newline_only():
    head = "H 1 1 0 linf 0 1 0 simplicial\n"
    # other line breaks that str.splitlines knows do not end an event
    for sep in ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"):
        with pytest.raises(MalformedStream, match="^line 2: "):
            EventStream.parse(head + "S 1" + sep + "I 0 0\n")
    # a control character within a line is refused, tab and the "\r" of a
    # CRLF line aside; so a CRLF stream parses
    want = EventStream.parse(head + "S 1\nI 0 0\n")
    assert want.events == [Scale(1.0), Include(0, 0, ())]
    with pytest.raises(MalformedStream, match="^line 3: "):
        EventStream.parse(head + "S 1\n\x0cI 0 0\n")
    assert EventStream.parse((head + "S 1\nI 0 0\n").replace("\n", "\r\n")) == want
    with pytest.raises(MalformedStream, match="^line 3: empty"):
        EventStream.parse(head + "S 1\n\nI 0 0\n")


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


def test_builders_return_the_stream_with_or_without_audit():
    P = random_cloud(32, 9, 2)
    for build in (lambda **kw: build_simplicial_tower(P, 2, seed=4, **kw),
                  lambda **kw: build_cubical_tower(P, seed=4, **kw)):
        plain = build()
        audit = []
        audited = build(audit=audit)
        assert type(plain) is EventStream and type(audited) is EventStream
        assert audited == plain
        assert len(audit) == audited.m + 1
        assert [sc.s for sc in audit] == list(range(audited.m + 1))


def test_audit_totals_match_stream():
    P = random_cloud(31, 7, 2)
    audit = []
    stream = build_simplicial_tower(P, 2, seed=6, audit=audit)
    assert sum(sc.new_active for sc in audit) + sum(sc.new_secondary for sc in audit) == \
        stream.includes_by_dim()[0]
    assert len(audit) == stream.m + 1
    for sc in audit:
        assert sc.alpha == stream.lam * (1 << sc.s)
    assert sum(sc.n_contractions for sc in audit) == stream.counts()["C"]
    # a cubical tower includes each new face as one cell
    audit = []
    stream = build_cubical_tower(P, seed=6, audit=audit)
    assert stream.counts()["I"] == \
        sum(sc.new_active for sc in audit) + sum(sc.new_secondary for sc in audit)
    assert sum(sc.n_contractions for sc in audit) == stream.counts()["C"]
    # its ids name the grid vertices of the definition's complex
    for sc, (_, U) in zip(audit, definition_complexes(P, stream), strict=True):
        assert sc.id_of_face.keys() == set(U.faces_of_dim(0))


def test_towers_unchanged_with_bruteforce_spanned_faces(monkeypatch):
    clouds = [random_cloud(70, 24, 2), random_cloud(71, 10, 3), random_cloud(72, 8, 4)]
    built = [(build_cubical_tower(P, seed=5), build_simplicial_tower(P, 2, seed=5))
             for P in clouds]

    def bruteforce(V, codec):
        frame = GridFrame(0, 1.0, (0,) * codec.d)
        faces = spanned_faces(frame, {codec.unpack(v, 0) for v in V})
        return set(map(codec.pack, faces))

    monkeypatch.setattr(tower, "_spanned", bruteforce)
    for P, (cubical, simplicial) in zip(clouds, built):
        assert build_cubical_tower(P, seed=5) == cubical
        assert build_simplicial_tower(P, 2, seed=5) == simplicial


def test_definition_and_build_share_no_code(monkeypatch):
    """The Face-side definition runs without the build's packed search and
    closure, and the build runs without the definition."""
    P = random_cloud(74, 9, 3)
    stream = build_simplicial_tower(P, 2, seed=5)
    built = [stream, build_cubical_tower(P, seed=5)]

    def refuse(*args, **kwargs):
        raise AssertionError("called across the definition/build line")

    with monkeypatch.context() as patch:
        for name in ("_spanned", "_close"):
            patch.setattr(cubical, name, refuse)
        assert len(list(definition_complexes(P, stream))) == stream.m + 1
    # a definition visits all 3^d faces around each active vertex
    for name in ("spanned_faces", "closure", "is_spanned", "incident_faces"):
        monkeypatch.setattr(cubical, name, refuse)
    monkeypatch.setattr(tower, "spanned_faces", refuse)
    assert [build_simplicial_tower(P, 2, seed=5), build_cubical_tower(P, seed=5)] == built


def test_build_packs_only_the_scale_0_vertices(monkeypatch):
    # faces stay packed keys from scale 0's active vertices to the stream
    P = random_cloud(73, 12, 3)
    lam, m = _ladder_for(P, None, None)
    V0 = active_vertices(GridFrame(0, lam, (0,) * 3), P)
    calls = Counter()

    def counted(name):
        method = getattr(_FaceCodec, name)

        def wrapper(*args):
            calls[name] += 1
            return method(*args)
        return wrapper

    for name in ("pack", "unpack"):
        monkeypatch.setattr(_FaceCodec, name, counted(name))
    for build in (lambda: build_simplicial_tower(P, 2, seed=5), lambda: build_cubical_tower(P, seed=5)):
        calls.clear()
        assert build().m == m >= 2
        assert calls == {"pack": len(V0)}


# --- replay validation ---


HEAD = "H 4 1 1 linf 0 1 1 simplicial\n"


def parse_replay(body):
    return replay(EventStream.parse(HEAD + body))


def assert_rejected(body, head=HEAD):
    """Both stream readers, and the snapshot walk read to its end, refuse
    the body with MalformedStream."""
    stream = EventStream.parse(head + body)
    for read in (replay, tower_barcode, lambda s: list(snapshots(s))):
        with pytest.raises(MalformedStream):
            read(stream)


def test_replay_accepts_minimal_stream():
    snap = parse_replay("S 1\nI 0 0\nI 1 0\nI 2 1 0 1\n")
    assert snap.cells == [{(0,): 0, (1,): 1}, {(0, 1): 0}]
    assert set(snap.cells[0]) == {(0,), (1,)}
    assert snap.alpha == 1.0 and snap.scale_ordinal == 0


def test_replay_resolves_contractions():
    snap = parse_replay("S 1\nI 0 0\nI 1 0\nI 2 1 0 1\nS 2\nC 0 1\n")
    assert snap.cells == [{(0,): 0}, {}]


def test_snapshots_every_scale():
    stream = EventStream.parse(HEAD + "S 1\nI 0 0\nI 1 0\nS 2\nC 0 1\n")
    first, full = snapshots(stream)
    assert set(first.cells[0]) == {(0,), (1,)} and first.scale_ordinal == 0
    assert set(full.cells[0]) == {(0,)} and full.scale_ordinal == 1
    assert vars(replay(stream)) == vars(full)
    # no scale: the empty snapshot, shaped like every other of the stream
    empty = replay(EventStream.parse(HEAD))
    assert (empty.scale_ordinal, empty.alpha, empty.cells) == (-1, None, [{}, {}])


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
    # unknown id in the second group: refused up to the first group too
    assert_rejected("S 1\nI 0 0\nI 1 0\nS 2\nC 0 5\n", "H 2 1 0 linf 0 1 1 simplicial\n")


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
    # the same triangle is in range at k = 2, but its edges were never included
    assert_rejected("S 1\nI 0 0\nI 1 0\nI 2 0\nI 3 2 0 1 2\n",
                    "H 3 2 2 linf 0 1 1 simplicial\n")
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
    assert (0, 1, 2, 3) in snap.cells[2]
    with pytest.raises(MalformedStream):
        replay(EventStream.parse(head + "S 1\nI 0 0\nI 1 0\nI 2 2 0 1\n"))


# SHA-256 of the outcome list below; re-pin only for an intended change
# of what the walk accepts or of a barcode, in a commit of its own
MUTATION_OUTCOMES_SHA256 = "34ce877bf662c7d4a474827f76639867bbed94f9e795a22c12c35a4158a5e048"


def _read_or_none(read, arg):
    try:
        return read(arg)
    except MalformedStream:
        return None


def test_mutation_outcomes_are_pinned():
    """Every one-line mutation of the fuzz bases, in MUTATIONS order, ends
    "rejected" or in replay's live and cell counts plus, for simplicial
    streams, the tower barcode. replay and tower_barcode accept the same
    simplicial streams, and the engines agree where the oracle applies."""
    outcomes = []
    for text in MUTATIONS:
        stream = _read_or_none(EventStream.parse, text)
        snap = None if stream is None else _read_or_none(replay, stream)
        if stream is not None and stream.mode == "simplicial":
            bc = _read_or_none(tower_barcode, stream)
            assert (bc is None) == (snap is None), text
        if snap is None:
            outcomes.append("rejected")
            continue
        outcome = "%d %d" % (len(snap.cells[0]), sum(map(len, snap.cells)))
        if stream.mode == "simplicial":
            outcome += "\n" + bc.to_text()
            scales = stream.scale_values()
            if len(set(scales)) == len(scales):
                assert coning_oracle(stream) == bc, text
        outcomes.append(outcome)
    assert len(outcomes) == 1826
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == MUTATION_OUTCOMES_SHA256


MUTATION_MESSAGES_SHA256 = "59c718756780b20a058d879af2b04e5129e2741b08797342c15a5fcc6a9fe2f6"


def test_mutation_messages_are_pinned():
    """Every one-line mutation of the fuzz bases, in MUTATIONS order, ends
    in the MalformedStream message of parse then replay, or "ok": the
    outcome pin above records only "rejected", not which message."""
    messages = []
    for text in MUTATIONS:
        try:
            replay(EventStream.parse(text))
            messages.append("ok")
        except MalformedStream as e:
            messages.append(str(e))
    assert len(messages) == 1826
    assert sum(m != "ok" for m in messages) == 1401
    digest = hashlib.sha256(repr(messages).encode()).hexdigest()
    assert digest == MUTATION_MESSAGES_SHA256


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
        codec = _FaceCodec(max(D, 1), 1)
        F = codec.pack(Face(0, (0,) * max(D, 1), (1 << D) - 1))
        for L in range(1, 5):
            brute = 1 + sum(1 for _ in _chains_ending(F, L, codec))
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
        audit = []
        stream = build_simplicial_tower(P, 1, seed=seed, audit=audit)
        assert sum(sc.new_active for sc in audit) <= active_inclusion_bound(P.n, P.d)
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
