"""Build approximation towers for a random cloud and inspect the event streams."""
import numpy as np

from ripsapprox.geometry import PointCloud, diameter, spread
from ripsapprox.tower import (
    build_simplicial_tower,
    build_cubical_tower,
    active_inclusion_bound,
    cubical_cell_bound,
    simplicial_inclusion_bound,
)

rng = np.random.default_rng(3)
P = PointCloud(rng.uniform(0, 10, size=(12, 3)))
print("cloud: n=%d d=%d  diam_inf=%.3f  spread=%.1f"
      % (P.n, P.d, diameter(P, "linf"), spread(P, "linf")))

# simplicial mode: vertices are lattice faces, cells are order-complex flags
audit = []
stream = build_simplicial_tower(P, 2, seed=0, audit=audit)
print("\nsimplicial stream, k=2")
print("  scales:", " ".join("%g" % a for a in stream.scale_values()))
print("  events:", dict(stream.counts()))
print("  includes by dim:", dict(stream.includes_by_dim()))
print("  active 0-cell inclusions %d <= n*3^d = %d"
      % (sum(sc.new_active for sc in audit), active_inclusion_bound(P.n, P.d)))
sb = simplicial_inclusion_bound(P.n, P.d, stream.k)
if sb is not None:
    print("  total inclusions %d <= %d" % (stream.counts()["I"], sb))

# first few lines of the portable text form
text = stream.to_text()
print("  head of stream:")
for line in text.splitlines()[:6]:
    print("   ", line)

# cubical mode keeps the lattice faces themselves as cells
cstream = build_cubical_tower(P, seed=0)
print("\ncubical stream")
print("  events:", dict(cstream.counts()))
print("  cells %d <= n*6^d = %d"
      % (cstream.counts()["I"], cubical_cell_bound(P.n, P.d)))

# same seed, same bytes
again = build_simplicial_tower(P, 2, seed=0)
print("\nrebuild with same seed identical:", again.to_text() == text)
