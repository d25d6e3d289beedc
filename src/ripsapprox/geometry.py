"""Point clouds, metrics, closest pair, diameter, spread.

Point-cloud files are UTF-8 text, one point per line, coordinates
separated by whitespace or commas; blank lines and '#' comments are
ignored. Outside comments, a line keeps the character rule of every text
input (`_plain_text`). All lines must agree on the dimension.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PointCloud",
    "distance",
    "closest_pair",
    "diameter",
    "spread",
    "METRICS",
]


METRICS = ("linf", "l2")

# printable ASCII but "_", which int and float read as a digit-group
# separator, tab and line ends; str.split() breaks at other controls
_TEXT_CHARS = b"\t\n\r" + bytes(range(0x20, 0x5F)) + bytes(range(0x60, 0x7F))


def _plain_text(text: str) -> bool:
    """The character rule of the text inputs (points, streams, barcodes):
    every line holds printable ASCII and tabs, and no "_"; a "\r" is
    allowed only where it ends a CRLF line."""
    return (text.isascii() and not text.encode().translate(None, _TEXT_CHARS)
            and text.count("\r") == text.count("\r\n"))


def _distance(p, q, metric: str) -> np.ndarray:
    """The metric between p and q along the last axis, broadcast over the
    others. Raises ValueError for an unknown metric and when a distance
    overflows float64."""
    if metric not in METRICS:
        raise ValueError("unknown metric %r (expected %s)"
                         % (metric, " or ".join(map(repr, METRICS))))
    with np.errstate(over="ignore"):
        diff = np.abs(p - q)
        dist = diff.max(axis=-1, initial=0.0) if metric == "linf" else np.sqrt((diff ** 2).sum(axis=-1))
    if not np.all(np.isfinite(dist)):
        raise ValueError("distance overflow: coordinates too far apart for float64")
    return dist


def distance(p, q, metric: str) -> float:
    """The distance between two points: "linf" is the max coordinate
    difference, "l2" the Euclidean distance. Raises ValueError when the
    dimensions differ, for an unknown metric and on float64 overflow."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("dimension mismatch: %s vs %s" % (p.shape, q.shape))
    return float(_distance(p, q, metric))


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
                line = line.rstrip("\n")  # text mode ends lines at "\n", "\r\n" or a lone "\r"
                if line.lstrip().startswith("#"):
                    continue
                if not _plain_text(line):
                    raise ValueError("%s:%d: coordinates must be plain ASCII decimals: %s"
                                     % (path, lineno, ascii(line)))
                parts = line.replace(",", " ").split()
                if not parts:
                    continue
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
        pts = self.points
        return _distance(pts[:, None, :], pts[None, :, :], metric)


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
    """Maximum pairwise distance; 0 for a single point.

    Under linf this is the largest per-axis range, the distance between
    the per-axis maxima and minima: float subtraction is monotone, so it
    is the same float as the pairwise maximum, in O(n·d) memory.
    """
    if metric == "linf":
        pts = P.points
        return float(_distance(pts.max(axis=0), pts.min(axis=0), metric))
    return float(P.pairwise_distances(metric).max())


def spread(P: PointCloud, metric="linf") -> float:
    """Diameter divided by closest-pair distance (always >= 1)."""
    _, _, cp = closest_pair(P, metric)
    return diameter(P, metric) / cp
