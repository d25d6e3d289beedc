"""Multiplicative bottleneck distance between barcodes and the
approximation certificate built on it.

Intervals are compared on a log scale: matching [b1,d1) to [b2,d2)
costs max(ratio(b1,b2), ratio(d1,d2)) with ratio(x,y) = max(x/y, y/x),
ratio(0,0) = ratio(inf,inf) = 1, and mixed zero/inf pairs costing inf.
Deleting [b,d) costs sqrt(d/b), the scale factor that shrinks the
interval to nothing. The distance is the minimax cost over partial
matchings; a multiplicative c-interleaving of two filtrations bounds it
by c. Bars born at 0 and bars that never die cannot be deleted; they
are matched in sorted order, and only the rest goes through the
matching search.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Tuple

from .persistence import Barcode

__all__ = [
    "ratio_cost",
    "deletion_cost",
    "multiplicative_bottleneck",
    "certify_approximation",
    "Certificate",
]

INF = math.inf
REL_SLACK = 1e-9

Interval = Tuple[float, float]


def _ratio(x: float, y: float) -> float:
    if x == y:
        return 1.0
    if x == 0.0 or y == 0.0 or x == INF or y == INF:
        return INF
    return max(x / y, y / x)


def ratio_cost(a: Interval, b: Interval) -> float:
    return max(_ratio(a[0], b[0]), _ratio(a[1], b[1]))


def deletion_cost(a: Interval) -> float:
    b, d = a
    if b == d:
        return 1.0
    if b == 0.0 or d == INF:
        return INF
    return math.sqrt(d / b)


def _feasible(c: float, nA: int, nB: int, pair, delA, delB) -> bool:
    """Perfect matching on A + diag(B) vs B + diag(A) with costs <= c.

    Right vertex j < nB is the j-th interval of B; right vertex nB + i
    is the diagonal slot of A's i-th interval. Diagonal-to-diagonal
    edges are free.
    """
    adj: List[List[int]] = []
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

    # greedy start: every vertex takes its first free partner; the
    # augmenting searches below then only run for the few left over
    match_r = [-1] * (nA + nB)
    unmatched = []
    for u, row in enumerate(adj):
        for v in row:
            if match_r[v] < 0:
                match_r[v] = u
                break
        else:
            unmatched.append(u)

    for root in unmatched:
        # iterative depth-first search for an augmenting path: stack[i]
        # is a left vertex with the iterator over its remaining edges,
        # via[i] the right vertex through which stack[i + 1] was reached
        seen = [False] * (nA + nB)
        stack = [(root, iter(adj[root]))]
        via: List[int] = []
        while stack:
            for v in stack[-1][1]:
                if not seen[v]:
                    break
            else:
                stack.pop()
                if via:
                    via.pop()
                continue
            seen[v] = True
            via.append(v)
            if match_r[v] < 0:
                for (u, _), w in zip(stack, via):
                    match_r[w] = u
                break
            stack.append((match_r[v], iter(adj[match_r[v]])))
        else:
            return False
    return True


def _split(intervals: List[Interval]) -> Tuple[List[Interval], List[Interval]]:
    """Sorted (bars that cannot be deleted, the rest). The bars come from
    a `Barcode`, which holds only bars with 0 <= birth <= death, birth finite."""
    fixed: List[Interval] = []
    rest: List[Interval] = []
    for iv in sorted(intervals):
        (rest if deletion_cost(iv) < INF else fixed).append(iv)
    return fixed, rest


def _bottleneck_lists(A: List[Interval], B: List[Interval]) -> float:
    fixedA, A = _split(A)
    fixedB, B = _split(B)
    # A bar that cannot be deleted is born at 0 or never dies, and costs
    # inf against a bar of the other kind. Sorted, the born-at-0 bars come
    # first by death, then the later-born ones by birth. A ratio grows as
    # its values part, so pairing the sorted lists in order is optimal; it
    # pairs across kinds (inf) exactly when their counts differ.
    if len(fixedA) != len(fixedB):
        return INF
    fixed = max(map(ratio_cost, fixedA, fixedB), default=1.0)
    nA, nB = len(A), len(B)
    pair = [[ratio_cost(a, b) for b in B] for a in A]
    delA = [deletion_cost(a) for a in A]
    delB = [deletion_cost(b) for b in B]
    cands = {1.0}
    cands.update(c for row in pair for c in row if c < INF)
    cands.update(c for c in delA if c < INF)
    cands.update(c for c in delB if c < INF)
    cands = sorted(cands)
    if not _feasible(cands[-1], nA, nB, pair, delA, delB):
        return INF
    lo, hi = 0, len(cands) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _feasible(cands[mid], nA, nB, pair, delA, delB):
            hi = mid
        else:
            lo = mid + 1
    return max(fixed, cands[lo])


def _per_dim(bc1: Barcode, bc2: Barcode) -> Dict[int, float]:
    """Bottleneck distance per homology dimension present in either barcode."""
    dims = sorted(set(bc1.dimensions()) | set(bc2.dimensions()))
    return {q: _bottleneck_lists(bc1.intervals(q), bc2.intervals(q)) for q in dims}


def multiplicative_bottleneck(bc1: Barcode, bc2: Barcode, p: Optional[int] = None) -> float:
    """Bottleneck over one homology dimension, or the max over all."""
    if p is not None:
        return _bottleneck_lists(bc1.intervals(p), bc2.intervals(p))
    return max(_per_dim(bc1, bc2).values(), default=1.0)


class Certificate(NamedTuple):
    passed: bool
    claimed: float
    achieved: float
    per_dim: Dict[int, float]


def certify_approximation(bc_approx: Barcode, bc_exact: Barcode, c_claim: float) -> Certificate:
    """Check that the barcodes are within multiplicative factor c_claim.

    REL_SLACK absorbs float noise in the interval endpoints; the distance
    itself is computed exactly on the given values.
    """
    per = _per_dim(bc_approx, bc_exact)
    achieved = max(per.values(), default=1.0)
    passed = achieved <= c_claim * (1.0 + REL_SLACK)
    return Certificate(passed, c_claim, achieved, per)
