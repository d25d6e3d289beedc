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
from ripsapprox.persistence import Barcode, reduce, rips_filtration

from conftest import random_cloud

INF = math.inf


def bc(**dims):
    out = Barcode()
    for key, intervals in dims.items():
        p = int(key[1:])
        for b, d in intervals:
            out.add(p, b, d)
    out.sort()
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
    with pytest.raises(ValueError):
        a.scaled(0.0)


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
    out.sort()
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


def test_bottleneck_many_dim0_intervals():
    # 1200 intervals: deep augmenting paths that overflowed the recursion limit
    rng = np.random.default_rng(4)
    deaths = rng.choice(np.linspace(1.0, 4.0, 13), size=1200)
    a = bc(p0=[(0.0, float(x)) for x in deaths])
    b = bc(p0=[(0.0, 1.25 * float(x)) for x in rng.permutation(deaths)])
    assert multiplicative_bottleneck(a, b, 0) == pytest.approx(1.25)


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
