import math
import os
from dataclasses import replace
from itertools import takewhile
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from ripsapprox.cubical import active_vertices, closure, spanned_faces
from ripsapprox.geometry import PointCloud
from ripsapprox.lattice import build_frames, face_map_g, shift_signs
from ripsapprox.tower import Scale, build_cubical_tower, build_simplicial_tower


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


def ladder_prefix(stream, m):
    """The tower `stream` cut after scale lambda*2^m: its events up to
    that scale, under a header with that m. A tower is built scale by
    scale, so this is the stream of the same build over the shorter
    ladder."""
    top = math.ldexp(stream.lam, m)
    return replace(stream, m=m, events=list(takewhile(
        lambda e: not (isinstance(e, Scale) and e.alpha > top), stream.events)))


def definition_complexes(P, stream):
    """Each scale's complex of the tower `stream` built from P, from the
    definition: the scale-0 active vertices are the cells that hold a
    point, each later scale's are the images of the previous ones under
    g, and the complex is the closure of the faces they span. Only the
    stream's header (lambda, m, seed) is read. Yields (spanned, complex)
    for scales 0..m."""
    frames = build_frames(stream.lam, P.d, [shift_signs(stream.seed, P.d, s) for s in range(stream.m)])
    V = active_vertices(frames[0], P)
    for s, frame in enumerate(frames):
        if s:
            V = {face_map_g(frames, s - 1, v) for v in V}
        spanned = spanned_faces(frame, V)
        yield spanned, closure(spanned)


FUZZ_BASES = [
    build_simplicial_tower(random_cloud(80, 3, 1), 1, seed=0).to_text(),
    build_simplicial_tower(random_cloud(81, 4, 2), 1, seed=1).to_text(),
    build_simplicial_tower(random_cloud(82, 4, 2), 2, seed=2).to_text(),
    build_cubical_tower(random_cloud(83, 3, 2), seed=3).to_text(),
]


# cubical streams that the walk accepts but whose complex is not closed
# under facets: the contraction C 0 3 maps the square onto 3 corners,
# which is not a face; the lone square has no edges
_SQUARE_CORNERS = "H 4 2 0 linf 0 1 1 cubical\nS 1\nI 0 0\nI 1 0\nI 2 0\nI 3 0\n"
CUBICAL_DIAGONAL_CONTRACTION = (_SQUARE_CORNERS + "I 4 1 0 1\nI 5 1 0 2\nI 6 1 1 3\nI 7 1 2 3\n"
                                "I 8 2 0 1 2 3\nS 2\nC 0 3\n")
CUBICAL_LONE_SQUARE = _SQUARE_CORNERS + "I 4 2 0 1 2 3\n"


def single_line_mutations(text):
    """Every stream one line away from `text`, in a fixed order: each line
    dropped, duplicated, swapped with the next, or one integer field
    moved by -2, -1, 1 or 2. Repeats and `text` itself are left out."""
    lines = text.splitlines()
    out = []
    for i, line in enumerate(lines):
        out.append(lines[:i] + lines[i + 1:])
        out.append(lines[:i] + [line] + lines[i:])
        if i + 1 < len(lines):
            out.append(lines[:i] + [lines[i + 1], line] + lines[i + 2:])
        parts = line.split()
        for j, t in enumerate(parts):
            if t.lstrip("-").isdigit():
                for step in (-2, -1, 1, 2):
                    moved = parts[:j] + [str(int(t) + step)] + parts[j + 1:]
                    out.append(lines[:i] + [" ".join(moved)] + lines[i + 1:])
    texts = dict.fromkeys("\n".join(m) + "\n" for m in out)
    texts.pop(text, None)
    return list(texts)


# the one-line mutations of every FUZZ_BASES stream, deduplicated
MUTATIONS = list(dict.fromkeys(m for base in FUZZ_BASES for m in single_line_mutations(base)))


def mutated_stream():
    """A valid small stream with one line dropped, duplicated or swapped
    with the next, or one integer field moved by a small step."""
    return st.sampled_from(MUTATIONS)
