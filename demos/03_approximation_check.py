"""Certify the multiplicative approximation factor on a batch of random clouds."""
import numpy as np

from ripsapprox.diagram import certify_approximation, multiplicative_bottleneck
from ripsapprox.geometry import PointCloud
from ripsapprox.persistence import rips_barcode, tower_barcode
from ripsapprox.tower import build_simplicial_tower

# interleaving claim: factor 2 against the sup metric, 2*d^(1/4) against l2
for metric in ("linf", "l2"):
    worst = 0.0
    for seed in range(8):
        rng = np.random.default_rng([seed, 1])
        n, d = int(rng.integers(8, 20)), 2
        P = PointCloud(rng.uniform(0, 10, size=(n, d)))
        claim = 2.0 if metric == "linf" else 2.0 * d ** 0.25

        stream = build_simplicial_tower(P, 2, seed=seed)
        exact = rips_barcode(P, metric, 1)
        # scale snapshots sit at the right end of their validity window;
        # dividing the axis by 4/claim centres both interleaving directions
        balanced = tower_barcode(stream, 1).scaled(claim / 4.0)

        cert = certify_approximation(balanced, exact, claim)
        worst = max(worst, cert.achieved / claim)
        assert cert.passed, (metric, seed, cert)
    print("%-4s  8/8 certified, worst achieved/claimed = %.4f" % (metric, worst))

# the certificate is just a bottleneck computation per dimension
rng = np.random.default_rng(2)
P = PointCloud(rng.uniform(0, 10, size=(10, 2)))
exact = rips_barcode(P, "linf", 1)
balanced = tower_barcode(build_simplicial_tower(P, 2, seed=2), 1).scaled(0.5)
print("\nper-dim bottleneck ratios:",
      {p: round(multiplicative_bottleneck(balanced, exact, p), 4)
       for p in sorted(set(balanced.dimensions()) | set(exact.dimensions()))})
