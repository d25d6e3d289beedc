"""Point clouds, metrics, closest pair, diameter, spread.

Point-cloud files are UTF-8 text, one point per line, coordinates
separated by whitespace or commas; blank lines and '#' comments are
ignored. All lines must agree on the dimension.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PointCloud",
    "linf_distance",
    "l2_distance",
    "closest_pair",
    "diameter",
    "spread",
    "METRICS",
]


def linf_distance(p, q) -> float:
    """Chebyshev distance: max coordinate difference."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("dimension mismatch: %s vs %s" % (p.shape, q.shape))
    return float(np.max(np.abs(p - q))) if p.size else 0.0


def l2_distance(p, q) -> float:
    """Euclidean distance."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("dimension mismatch: %s vs %s" % (p.shape, q.shape))
    return float(np.sqrt(np.sum((p - q) ** 2)))


METRICS = {"linf": linf_distance, "l2": l2_distance}


class PointCloud:
    """A finite set of distinct points in R^d with implicit ids 0..n-1."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("need an (n, d) array with n >= 1, d >= 1")
        if not np.all(np.isfinite(pts)):
            raise ValueError("coordinates must be finite")
        # duplicate points make the closest-pair distance zero, which breaks
        # the scale ladder; reject them up front
        uniq = {tuple(row) for row in pts}
        if len(uniq) != pts.shape[0]:
            raise ValueError("duplicate points are not allowed")
        self.points = pts
        self.points.setflags(write=False)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i):
        return self.points[i]

    def __repr__(self):
        return "PointCloud(n=%d, d=%d)" % (self.n, self.d)

    @classmethod
    def from_file(cls, path) -> "PointCloud":
        rows = []
        d = None
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                parts = stripped.replace(",", " ").split()
                try:
                    row = [float(tok) for tok in parts]
                except ValueError:
                    raise ValueError("%s:%d: non-numeric token" % (path, lineno))
                if d is None:
                    d = len(row)
                elif len(row) != d:
                    raise ValueError(
                        "%s:%d: expected %d coordinates, got %d" % (path, lineno, d, len(row))
                    )
                rows.append(row)
        if not rows:
            raise ValueError("%s: no points" % (path,))
        return cls(rows)

    def pairwise_distances(self, metric) -> np.ndarray:
        """Full n x n distance matrix under the chosen metric.

        Raises ValueError when a distance overflows float64.
        """
        if metric not in METRICS:
            raise ValueError("unknown metric %r (expected 'linf' or 'l2')" % (metric,))
        pts = self.points
        linf = metric == "linf"
        with np.errstate(over="ignore"):
            diff = np.abs(pts[:, None, :] - pts[None, :, :])
            dist = diff.max(axis=2) if linf else np.sqrt((diff ** 2).sum(axis=2))
        if not np.all(np.isfinite(dist)):
            raise ValueError("distance overflow: coordinates too far apart for float64")
        return dist


def closest_pair(P: PointCloud, metric="linf"):
    """Brute-force closest pair; ties broken by smallest (i, j).

    Returns (i, j, distance) with i < j.
    """
    if P.n < 2:
        raise ValueError("closest pair needs at least 2 points")
    dm = P.pairwise_distances(metric)
    # mask all but i < j; the row-major argmin then takes the smallest (i, j)
    dm[np.tri(P.n, dtype=bool)] = np.inf
    i, j = divmod(int(np.argmin(dm)), P.n)
    if dm[i, j] == 0.0:
        raise ValueError("duplicate points: zero closest-pair distance")
    return i, j, float(dm[i, j])


def diameter(P: PointCloud, metric="linf") -> float:
    """Maximum pairwise distance; 0 for a single point."""
    if P.n == 1:
        return 0.0
    return float(P.pairwise_distances(metric).max())


def spread(P: PointCloud, metric="linf") -> float:
    """Diameter divided by closest-pair distance (always >= 1)."""
    _, _, cp = closest_pair(P, metric)
    return diameter(P, metric) / cp
