"""Exact Rips barcode next to the tower barcode on a noisy circle."""
import math

import numpy as np

from ripsapprox.geometry import PointCloud
from ripsapprox.persistence import rips_barcode, tower_barcode
from ripsapprox.tower import build_simplicial_tower

# dense enough that the hole outlives the approximation factor
rng = np.random.default_rng(7)
n = 60
theta = np.sort(rng.uniform(0, 2 * np.pi, n))
pts = np.c_[np.cos(theta), np.sin(theta)] + rng.normal(0, 0.005, (n, 2))
P = PointCloud(pts)


def show(label, bc):
    print(label)
    for p in bc.dimensions():
        ivs = sorted(bc.intervals(p), key=lambda iv: iv[0] - iv[1])
        for b, d in ivs[:4]:
            print("  H%d  [%.4f, %s)" % (p, b, "inf" if d == np.inf else "%.4f" % d))
        if len(ivs) > 4:
            print("  H%d  ... %d shorter bars" % (p, len(ivs) - 4))


# exact Rips: all subsets of diameter <= 2*alpha, skeleton through dim 2
exact = rips_barcode(P, "l2", 1)
show("exact Rips (l2), %d simplices:" % sum(math.comb(n, q + 1) for q in range(3)), exact)

# the tower sees the same circle at grid resolution
stream = build_simplicial_tower(P, 2, seed=0)
tbc = tower_barcode(stream, 1)
show("\ntower barcode, %d events:" % sum(stream.counts().values()), tbc)

# a bar that outlives the interleaving factor must show up in the tower too
top = max(exact.intervals(1), key=lambda iv: iv[1] / iv[0])
ttop = max(tbc.intervals(1), key=lambda iv: iv[1] / iv[0])
print("\nwidest H1 bar: exact [%.3f, %.3f)  tower [%.3f, %.3f)"
      % (top[0], top[1], ttop[0], ttop[1]))

print("\nbarcode text round-trips:", tbc == type(tbc).parse(tbc.to_text()))
