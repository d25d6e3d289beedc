"""Shifted dyadic grids: snapping, the coarsening vertex map, collapse times."""
import numpy as np

from ripsapprox.lattice import (
    Face,
    build_frames,
    face_map_g,
    locate,
    shift_signs,
    vertex_map_g,
)
from ripsapprox.tower import survival_experiment

d, m = 2, 5
signs = [shift_signs(42, d, s) for s in range(m)]
frames = build_frames(1.0, d, signs)
print("per-scale half-step shifts:", signs)
print("alphas:", [fr.alpha for fr in frames])

# each point snaps to the grid vertex, a 0-face, whose half-open cell contains it
p = (0.3, -2.6)
for s in range(3):
    v = locate(frames[s], p)
    print("scale %d: %s -> z=%s  world=%s" % (s, p, v.anchor, frames[s].world(v.anchor)))

# the vertex map moves every coordinate by exactly half the coarse spacing
v = locate(frames[0], p)
w = vertex_map_g(frames, 0, v)
move = np.subtract(frames[1].world_u(w.anchor), frames[0].world_u(v.anchor))
print("map to next scale moves", move, "in half-lambda units (=2^s each way)")

# edges aligned with the shift direction collapse, the others survive
for s in range(3):
    for axis in range(d):
        e = Face(s, (0, 0), 1 << axis)
        img = face_map_g(frames, s, e)
        print("scale %d axis %d edge -> dim %d" % (s, axis, img.dim))

# collapse time of a k-face under repeated mapping is near-geometric:
# each step kills a surviving direction with probability 1/2
trials = 2000
for k in (1, 2, 4):
    hist = survival_experiment(8, k, trials, seed=k)
    mean = sum(y * c for y, c in hist.items()) / trials
    tail = sum(c for y, c in hist.items() if y > 6) / trials
    p = k / 2 ** 6
    bound = p + 3 * (p * (1 - p) / trials) ** 0.5
    print("k=%d: mean steps to vertex %.3f  P(>6 steps)=%.4f (k/2^6 + 3sigma = %.4f)"
          % (k, mean, tail, bound))
