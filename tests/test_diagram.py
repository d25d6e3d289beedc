import math

import numpy as np
import pytest

from ripsapprox import diagram
from ripsapprox.diagram import (
    Certificate,
    certify_approximation,
    deletion_cost,
    multiplicative_bottleneck,
    ratio_cost,
)
from ripsapprox.geometry import PointCloud
from ripsapprox.persistence import Barcode, reduce, rips_barcode, rips_filtration, tower_barcode
from ripsapprox.tower import build_simplicial_tower

from conftest import ladder_prefix, random_cloud

INF = math.inf


def bc(**dims):
    out = Barcode()
    for key, intervals in dims.items():
        p = int(key[1:])
        for b, d in intervals:
            out.add(p, b, d)
    return out


# --- costs ---


def test_ratio_cost_conventions():
    assert ratio_cost((1.0, 4.0), (2.0, 4.0)) == 2.0
    assert ratio_cost((0.0, 2.0), (0.0, 6.0)) == 3.0  # zero births match freely
    assert ratio_cost((0.0, 2.0), (1.0, 2.0)) == INF
    assert ratio_cost((1.0, INF), (2.0, INF)) == 2.0  # essential matches essential
    assert ratio_cost((1.0, INF), (1.0, 5.0)) == INF
    assert ratio_cost((2.0, 3.0), (2.0, 3.0)) == 1.0


def test_deletion_cost_values():
    assert deletion_cost((2.0, 8.0)) == 2.0  # sqrt(d/b)
    assert deletion_cost((1.0, 2.0)) == pytest.approx(math.sqrt(2))
    assert deletion_cost((3.0, 3.0)) == 1.0
    assert deletion_cost((0.0, 1.0)) == INF
    assert deletion_cost((1.0, INF)) == INF


# --- scaling ---


def test_scale_barcode():
    a = bc(p0=[(1.0, 4.0)])
    assert a.scaled(0.5) == bc(p0=[(0.5, 2.0)])
    assert a.scaled(1.0) == a
    ess = bc(p1=[(0.0, INF)])
    assert ess.scaled(7.0) == ess
    for factor in (0.0, -1.0, INF, float("nan")):
        with pytest.raises(ValueError):
            a.scaled(factor)


# --- bottleneck distance ---


def test_bottleneck_identical_is_one():
    a = bc(p0=[(0.0, 1.0), (0.0, 2.5)], p1=[(1.0, 3.0)])
    assert multiplicative_bottleneck(a, a) == 1.0
    assert multiplicative_bottleneck(Barcode(), Barcode()) == 1.0


def test_bottleneck_birth_ratio():
    assert multiplicative_bottleneck(bc(p0=[(1.0, 4.0)]), bc(p0=[(2.0, 4.0)]), 0) == 2.0


def test_bottleneck_deletion():
    assert multiplicative_bottleneck(bc(p0=[(1.0, 2.0)]), Barcode(), 0) == \
        pytest.approx(math.sqrt(2))


def test_bottleneck_prefers_cheap_matching():
    # matching both pairs costs 1.5; deleting would cost 2
    a = bc(p0=[(1.0, 4.0), (2.0, 8.0)])
    b = bc(p0=[(1.5, 4.0), (2.0, 8.0)])
    assert multiplicative_bottleneck(a, b, 0) == 1.5


def test_bottleneck_infeasible_cases():
    assert multiplicative_bottleneck(bc(p0=[(0.0, 1.0)]), bc(p0=[(1.0, 2.0)]), 0) == INF
    assert multiplicative_bottleneck(bc(p0=[(1.0, INF)]), bc(p0=[(1.0, 2.0)]), 0) == INF
    assert multiplicative_bottleneck(bc(p0=[(0.0, INF)]), Barcode(), 0) == INF


def test_bottleneck_rejects_invalid_intervals():
    # a reversed bar once gave a distance below 1; a NaN one put a barcode
    # inf away from itself
    # a bar born at inf once cost 1 to delete, so it never showed
    for bad in ((2.0, 1.0), (-1.0, 2.0), (math.nan, 1.0), (0.0, math.nan), (math.inf, math.inf)):
        with pytest.raises(ValueError):
            multiplicative_bottleneck(Barcode({0: [bad]}), Barcode())
        with pytest.raises(ValueError):
            certify_approximation(Barcode(), Barcode({0: [bad]}), 1.0)
    with pytest.raises(ValueError):
        nan_bc = Barcode.parse("0 nan 1\n")
        multiplicative_bottleneck(nan_bc, nan_bc)


def test_bottleneck_max_over_dimensions():
    a = bc(p0=[(1.0, 4.0)], p1=[(1.0, 8.0)])
    b = bc(p0=[(1.0, 4.0)], p1=[(2.0, 8.0)])
    assert multiplicative_bottleneck(a, b) == 2.0
    assert multiplicative_bottleneck(a, b, 0) == 1.0


def _random_barcode(rng, n):
    out = Barcode()
    for _ in range(n):
        b = float(rng.uniform(0.5, 4.0))
        out.add(0, b, b * float(rng.uniform(1.1, 3.0)))
    return out


def test_bottleneck_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(25):
        a = _random_barcode(rng, int(rng.integers(0, 5)))
        b = _random_barcode(rng, int(rng.integers(0, 5)))
        assert multiplicative_bottleneck(a, b, 0) == multiplicative_bottleneck(b, a, 0)


def test_bottleneck_triangle_inequality():
    rng = np.random.default_rng(1)
    for _ in range(25):
        a = _random_barcode(rng, int(rng.integers(1, 4)))
        b = _random_barcode(rng, int(rng.integers(1, 4)))
        c = _random_barcode(rng, int(rng.integers(1, 4)))
        ab = multiplicative_bottleneck(a, b, 0)
        bcd = multiplicative_bottleneck(b, c, 0)
        ac = multiplicative_bottleneck(a, c, 0)
        assert ac <= ab * bcd * (1 + 1e-12)


def test_bottleneck_exact_rips_self():
    P = random_cloud(2, 8, 2)
    rbc = reduce(rips_filtration(P, "linf", 1), homology_cap=1)
    assert multiplicative_bottleneck(rbc, rbc) == 1.0


def _feasible_recursive(c, nA, nB, pair, delA, delB):
    """Reference: the recursive Kuhn matching that the iterative one replaced."""
    adj = []
    for i in range(nA):
        row = [j for j in range(nB) if pair[i][j] <= c]
        if delA[i] <= c:
            row.append(nB + i)
        adj.append(row)
    for j in range(nB):
        row = list(range(nB, nB + nA))
        if delB[j] <= c:
            row.append(j)
        adj.append(row)
    match_r = [-1] * (nA + nB)

    def augment(u, seen):
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                if match_r[v] < 0 or augment(match_r[v], seen):
                    match_r[v] = u
                    return True
        return False

    return all(augment(u, [False] * (nA + nB)) for u in range(nA + nB))


def _diagram_test_pairs():
    """Interval lists of the bottleneck tests above plus random mixed ones."""
    pairs = [
        ([(0.0, 1.0), (0.0, 2.5)], [(0.0, 1.0), (0.0, 2.5)]),
        ([(1.0, 4.0)], [(2.0, 4.0)]),
        ([(1.0, 2.0)], []),
        ([(1.0, 4.0), (2.0, 8.0)], [(1.5, 4.0), (2.0, 8.0)]),
        ([(0.0, 1.0)], [(1.0, 2.0)]),
        ([(1.0, INF)], [(1.0, 2.0)]),
        ([(0.0, INF)], []),
        ([(1.0, 8.0)], [(2.0, 8.0)]),
    ]
    rng = np.random.default_rng(3)
    for _ in range(60):
        lists = []
        for _ in range(2):
            out = []
            for _ in range(int(rng.integers(0, 7))):
                b = float(rng.choice([0.0, 1.0, rng.uniform(0.5, 4.0)]))
                out.append((b, float(rng.choice([b, 2.0 * b + 1.0, b + rng.uniform(0.1, 3.0), INF]))))
            lists.append(out)
        pairs.append(tuple(lists))
    P = random_cloud(2, 8, 2)
    rbc = reduce(rips_filtration(P, "linf", 1), homology_cap=1)
    pairs.extend((rbc.intervals(p), rbc.intervals(p)) for p in rbc.dimensions())
    return pairs


def test_bottleneck_matches_recursive_reference(monkeypatch):
    for A, B in _diagram_test_pairs():
        pair = [[ratio_cost(a, b) for b in B] for a in A]
        delA = [deletion_cost(a) for a in A]
        delB = [deletion_cost(b) for b in B]
        for c in sorted({1.0, INF} | {x for row in pair for x in row} | set(delA) | set(delB)):
            assert diagram._feasible(c, len(A), len(B), pair, delA, delB) == \
                _feasible_recursive(c, len(A), len(B), pair, delA, delB), (A, B, c)
    expected = [diagram._bottleneck_lists(A, B) for A, B in _diagram_test_pairs()]
    monkeypatch.setattr(diagram, "_feasible", _feasible_recursive)
    assert [diagram._bottleneck_lists(A, B) for A, B in _diagram_test_pairs()] == expected


def _bottleneck_whole_list(A, B):
    """Reference: the binary search over every interval at once, with no
    sorted matching for the bars that cannot be deleted."""
    nA, nB = len(A), len(B)
    if nA == 0 and nB == 0:
        return 1.0
    pair = [[ratio_cost(a, b) for b in B] for a in A]
    delA = [deletion_cost(a) for a in A]
    delB = [deletion_cost(b) for b in B]
    cands = sorted({1.0} | {c for row in pair for c in row if c < INF}
                   | {c for c in delA + delB if c < INF})
    if not diagram._feasible(cands[-1], nA, nB, pair, delA, delB):
        return INF
    lo, hi = 0, len(cands) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if diagram._feasible(cands[mid], nA, nB, pair, delA, delB):
            hi = mid
        else:
            lo = mid + 1
    return cands[lo]


def _perturbed_pairs(count):
    """(A, B) with B a perturbation of A: finite positive endpoints scaled
    by 1, 1.25, 0.8 or a random factor (0 and inf kept), some deletable
    bars dropped and a few added, so most distances are finite and tied
    values are common."""
    rng = np.random.default_rng(11)
    grid = [0.5, 1.0, 1.25, 2.0, 2.5, 4.0]

    def value():
        return float(rng.choice(grid)) if rng.random() < 0.6 else float(rng.uniform(0.5, 4.0))

    def bar(fixed=0.5):
        # a bar that cannot be deleted with probability `fixed`
        if rng.random() < fixed:
            kind = rng.random()
            return (0.0, value()) if kind < 0.5 else (value(), INF) if kind < 0.8 else (0.0, INF)
        b = value()
        return b, b if rng.random() < 0.2 else b + value()

    def move(x):
        if x == 0.0 or x == INF:
            return x
        return x * float(rng.choice([1.0, 1.25, 0.8, rng.uniform(0.7, 1.4)]))

    for _ in range(count):
        A = [bar() for _ in range(int(rng.integers(0, 9)))]
        B = []
        for b, d in A:
            if deletion_cost((b, d)) < INF and rng.random() < 0.2:
                continue
            b, d = move(b), move(d)
            B.append((min(b, d), max(b, d)))
        B.extend(bar(0.1) for _ in range(int(rng.integers(0, 3))))
        yield A, B


def _truncated_tower_pairs():
    """Per-dimension lists of the barcodes `compare` certifies on two
    truncated ladders, where dim 0 is inf apart."""
    P = PointCloud(np.random.default_rng(3).uniform(0, 10, (12, 2)))
    rbc = rips_barcode(P, "linf", 1)
    for stream in (ladder_prefix(build_simplicial_tower(P, 2, 0), 1),
                   build_simplicial_tower(P, 2, 0, lam=100.0)):
        tbc = tower_barcode(stream, 1).scaled(0.5)
        assert multiplicative_bottleneck(tbc, rbc, 0) == INF
        yield from ((tbc.intervals(p), rbc.intervals(p)) for p in (0, 1))


def test_bottleneck_matches_whole_list_search():
    pairs = [*_diagram_test_pairs(), *_perturbed_pairs(2000), *_truncated_tower_pairs()]
    got = [diagram._bottleneck_lists(A, B) for A, B in pairs]
    assert got == [_bottleneck_whole_list(A, B) for A, B in pairs]
    # the perturbed pairs reach every branch: finite, inf, and above 1
    assert INF in got and 1.0 in got and any(1.0 < c < INF for c in got)


def test_bottleneck_many_dim0_intervals():
    # 1200 intervals born at 0: matched in sorted death order
    rng = np.random.default_rng(4)
    deaths = rng.choice(np.linspace(1.0, 4.0, 13), size=1200)
    a = bc(p0=[(0.0, float(x)) for x in deaths])
    b = bc(p0=[(0.0, 1.25 * float(x)) for x in rng.permutation(deaths)])
    assert multiplicative_bottleneck(a, b, 0) == pytest.approx(1.25)


def test_feasible_deep_augmenting_paths():
    # 1200 deletable intervals on each side that must all be matched:
    # deep augmenting paths that overflowed the recursion limit
    rng = np.random.default_rng(4)
    deaths = rng.choice(np.linspace(4.0, 16.0, 13), size=1200)
    dA, dB = deaths, 1.25 * rng.permutation(deaths)
    # ratio_cost of (1, x) and (1, y), as max(x / y, y / x) over the matrix
    pair = np.maximum(dA[:, None] / dB[None, :], dB[None, :] / dA[:, None]).tolist()
    delA = [deletion_cost((1.0, float(x))) for x in dA]
    delB = [deletion_cost((1.0, float(y))) for y in dB]
    assert ratio_cost((1.0, float(dA[0])), (1.0, float(dB[7]))) == pair[0][7]
    assert diagram._feasible(1.25, 1200, 1200, pair, delA, delB)


# --- certification ---


def test_certificate_pass_at_boundary():
    a = bc(p0=[(1.0, 4.0)])
    b = bc(p0=[(2.0, 4.0)])
    cert = certify_approximation(a, b, 2.0)
    assert isinstance(cert, Certificate)
    assert cert.passed and cert.achieved == 2.0 and cert.claimed == 2.0
    assert cert.per_dim == {0: 2.0}


def test_certificate_fails_below_achieved():
    a = bc(p0=[(1.0, 4.0)])
    b = bc(p0=[(2.0, 4.0)])
    cert = certify_approximation(a, b, 1.999)
    assert not cert.passed and cert.achieved == 2.0


def test_certificate_exact_vs_exact():
    P = random_cloud(5, 9, 2)
    rbc = reduce(rips_filtration(P, "l2", 1), homology_cap=1)
    cert = certify_approximation(rbc, rbc, 1.0)
    assert cert.passed and cert.achieved == 1.0


def test_certificate_empty_inputs():
    cert = certify_approximation(Barcode(), Barcode(), 1.0)
    assert cert.passed and cert.achieved == 1.0 and cert.per_dim == {}
