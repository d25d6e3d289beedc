import os
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from ripsapprox.geometry import PointCloud
from ripsapprox.tower import build_cubical_tower, build_simplicial_tower


def cli_env():
    """Environment for a `python -m ripsapprox.cli` subprocess: `src`
    first on its path, as pyproject.toml puts it first on pytest's, so
    the subprocess runs the same code uninstalled."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def random_cloud(seed, n, d, box=10.0):
    """Distinct uniform points in [0, box)^d; retries the (measure-zero)
    duplicate draw so PointCloud never rejects."""
    rng = np.random.default_rng(seed)
    while True:
        pts = rng.uniform(0.0, box, size=(n, d))
        if len({tuple(row) for row in pts}) == n:
            return PointCloud(pts)


FUZZ_BASES = [
    build_simplicial_tower(random_cloud(80, 3, 1), 1, seed=0).to_text(),
    build_simplicial_tower(random_cloud(81, 4, 2), 1, seed=1).to_text(),
    build_simplicial_tower(random_cloud(82, 4, 2), 2, seed=2).to_text(),
    build_cubical_tower(random_cloud(83, 3, 2), seed=3).to_text(),
]


@st.composite
def mutated_stream(draw):
    """A valid small stream with one line dropped, duplicated or swapped
    with the next, or one integer field moved by a small step."""
    lines = draw(st.sampled_from(FUZZ_BASES)).splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["drop", "duplicate", "swap", "perturb"]))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        i = min(i, len(lines) - 2)
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    else:
        parts = lines[i].split()
        ints = [j for j, t in enumerate(parts) if t.lstrip("-").isdigit()]
        if ints:
            j = draw(st.sampled_from(ints))
            step = draw(st.sampled_from([-2, -1, 1, 2]))
            parts[j] = str(int(parts[j]) + step)
            lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"
