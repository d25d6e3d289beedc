import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ripsapprox.geometry import (
    PointCloud,
    closest_pair,
    diameter,
    l2_distance,
    linf_distance,
    spread,
)


def test_linf_values():
    assert linf_distance((0, 0), (1, 2)) == 2.0
    assert linf_distance((0, 0), (0, 0)) == 0.0
    assert linf_distance((1, -1), (-2, 1)) == 3.0


def test_l2_values():
    assert l2_distance((0, 0), (3, 4)) == 5.0
    assert l2_distance((0, 0), (0, 0)) == 0.0
    assert l2_distance((1, 1), (2, 2)) == pytest.approx(math.sqrt(2))


def test_metric_dimension_mismatch():
    with pytest.raises(ValueError):
        linf_distance((0, 0), (1, 2, 3))
    with pytest.raises(ValueError):
        l2_distance((0,), (1, 2))


def test_cloud_basic():
    P = PointCloud([[0, 0], [1, 2]])
    assert P.n == 2 and P.d == 2 and len(P) == 2
    assert tuple(P[1]) == (1.0, 2.0)


def test_cloud_1d_input_reshapes():
    P = PointCloud([0.0, 1.0, 3.0])
    assert P.n == 3 and P.d == 1


def test_cloud_rejects_duplicates_and_nonfinite():
    with pytest.raises(ValueError):
        PointCloud([[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        PointCloud([[0, float("nan")]])
    with pytest.raises(ValueError):
        PointCloud([[float("inf"), 0]])
    with pytest.raises(ValueError):
        PointCloud(np.zeros((0, 2)))


def test_cloud_immutable():
    P = PointCloud([[0, 0], [1, 1]])
    with pytest.raises(ValueError):
        P.points[0, 0] = 5.0


def test_from_file_formats(tmp_path):
    f = tmp_path / "pts.txt"
    f.write_text("# header comment\n0 0\n\n1,2\n  3 ,4 \n")
    P = PointCloud.from_file(f)
    assert P.n == 3 and P.d == 2
    assert tuple(P[1]) == (1.0, 2.0)
    assert tuple(P[2]) == (3.0, 4.0)


def test_from_file_errors(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("0 0\n1 2 3\n")
    with pytest.raises(ValueError):
        PointCloud.from_file(f)
    f.write_text("0 zero\n")
    with pytest.raises(ValueError):
        PointCloud.from_file(f)
    f.write_text("# only comments\n\n")
    with pytest.raises(ValueError):
        PointCloud.from_file(f)


def test_closest_pair_values():
    assert closest_pair(PointCloud([0, 1, 3]), "linf") == (0, 1, 1.0)
    assert closest_pair(PointCloud([[0, 0], [0, 2], [5, 5]]), "linf") == (0, 1, 2.0)
    i, j, dist = closest_pair(PointCloud([[0, 0], [1, 1], [1, 0]]), "l2")
    assert dist == 1.0


def test_closest_pair_tie_break_lexicographic():
    # (0,1) and (1,2) both attain distance 1; smallest (i, j) wins
    assert closest_pair(PointCloud([0.0, 1.0, 2.0]), "linf") == (0, 1, 1.0)
    # the two unit-distance pairs here are (0,2) and (1,2)
    assert closest_pair(PointCloud([[0, 0], [1, 1], [1, 0]]), "l2") == (0, 2, 1.0)


def test_closest_pair_needs_two_points():
    with pytest.raises(ValueError):
        closest_pair(PointCloud([[0.5]]), "linf")


def test_closest_pair_unknown_metric():
    with pytest.raises(ValueError):
        closest_pair(PointCloud([0, 1]), "l7")
    # a callable is not a metric name: it must not fall back to L2
    with pytest.raises(ValueError):
        closest_pair(PointCloud([[0, 0], [3, 4], [10, 0]]), lambda p, q: abs(p - q).sum())


def test_diameter_values():
    assert diameter(PointCloud([0, 1, 3]), "linf") == 3.0
    assert diameter(PointCloud([[0.5, 0.5]]), "linf") == 0.0
    square = PointCloud([[0, 0], [1, 0], [0, 1], [1, 1]])
    assert diameter(square, "linf") == 1.0
    assert diameter(square, "l2") == pytest.approx(math.sqrt(2))


def test_spread_values():
    assert spread(PointCloud([0, 1, 3]), "linf") == 3.0
    assert spread(PointCloud([[0, 0], [7, 7]]), "linf") == 1.0
    assert spread(PointCloud([0, 1, 2, 10]), "linf") == 10.0


def test_spread_at_least_one():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        P = PointCloud(rng.uniform(0, 5, size=(6, 3)))
        assert spread(P, "linf") >= 1.0
        assert spread(P, "l2") >= 1.0


def test_pairwise_matches_scalar_metrics():
    rng = np.random.default_rng(7)
    P = PointCloud(rng.uniform(-4, 4, size=(8, 3)))
    for metric, fn in (("linf", linf_distance), ("l2", l2_distance)):
        dm = P.pairwise_distances(metric)
        assert np.allclose(dm, dm.T)
        assert np.all(np.diag(dm) == 0)
        for i in range(P.n):
            for j in range(P.n):
                assert dm[i, j] == pytest.approx(fn(P[i], P[j]))


def test_pairwise_distance_overflow_rejected():
    far = PointCloud([[1e308, 0.0], [-1e308, 0.0]])
    wide = PointCloud([[1e200, 0.0], [0.0, 0.0]])  # finite in linf, squares overflow in l2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for P, metric in ((far, "linf"), (far, "l2"), (wide, "l2")):
            with pytest.raises(ValueError, match="distance overflow"):
                P.pairwise_distances(metric)
        assert wide.pairwise_distances("linf")[0, 1] == 1e200
        with pytest.raises(ValueError, match="distance overflow"):
            closest_pair(far)


@st.composite
def point_pair(draw):
    d = draw(st.integers(1, 8))
    # float32 range keeps squares clear of float64 underflow
    box = st.floats(-100, 100, allow_nan=False, width=32)
    p = draw(st.lists(box, min_size=d, max_size=d))
    q = draw(st.lists(box, min_size=d, max_size=d))
    return p, q


@settings(max_examples=200, deadline=None)
@given(point_pair())
def test_norm_equivalence(pq):
    p, q = pq
    lo = linf_distance(p, q)
    hi = l2_distance(p, q)
    d = len(p)
    assert lo <= hi * (1 + 1e-12)
    assert hi <= math.sqrt(d) * lo * (1 + 1e-12) + 1e-12


@settings(max_examples=200, deadline=None)
@given(point_pair(), st.data())
def test_triangle_inequality(pq, data):
    p, q = pq
    r = data.draw(st.lists(st.floats(-100, 100, allow_nan=False, width=32),
                           min_size=len(p), max_size=len(p)))
    for fn in (linf_distance, l2_distance):
        assert fn(p, q) <= fn(p, r) + fn(r, q) + 1e-9
