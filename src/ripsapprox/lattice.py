"""Shifted dyadic grids with exact integer coordinates.

A frame at scale s has cell width alpha_s = lambda * 2^s. All grid
coordinates are integers in units of u = lambda / 2: the grid points of
frame s are (offset + 2^(s+1) * z) * u for z in Z^d, and successive
offsets obey offset_{s+1} = offset_s + 2^s * eps_s with eps_s a random
sign vector. Keeping everything in integer u-units eliminates
floating-point ties everywhere except point location.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "MAX_DIM",
    "ShiftSequence",
    "GridFrame",
    "GridVertex",
    "Face",
    "build_frames",
    "locate",
    "vertex_map_g",
    "face_map_g",
    "face_vertices",
    "subfaces",
    "facets",
    "is_subface",
]

# face masks are kept in a single machine word; beyond ~32 the 3^d/6^d
# blowup makes the construction infeasible anyway
MAX_DIM = 32

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class ShiftSequence:
    """Reproducible per-scale sign vectors eps_s in {-1,+1}^d.

    Signs are derived from (seed, s, coordinate) by a splitmix64 chain,
    so the same seed always yields the same grid ladder. `fixed` builds
    a sequence with hand-picked signs for tests.
    """

    def __init__(self, seed: int, d: int):
        if not (1 <= d <= MAX_DIM):
            raise ValueError("d must be in 1..%d, got %d" % (MAX_DIM, d))
        self.seed = int(seed) & _MASK64
        self.d = d
        self._fixed = None
        self._cache = {}

    @classmethod
    def fixed(cls, signs_by_scale: Sequence[Sequence[int]], d: Optional[int] = None) -> "ShiftSequence":
        signs = [tuple(int(x) for x in row) for row in signs_by_scale]
        if d is None:
            if not signs:
                raise ValueError("need d when no sign rows are given")
            d = len(signs[0])
        for row in signs:
            if len(row) != d or any(x not in (-1, 1) for x in row):
                raise ValueError("sign rows must be +-1 vectors of length d")
        obj = cls(0, d)
        obj._fixed = signs
        return obj

    def signs(self, s: int) -> Tuple[int, ...]:
        if s < 0:
            raise ValueError("scale index must be >= 0")
        if self._fixed is not None:
            if s >= len(self._fixed):
                raise ValueError("fixed shift sequence has no signs for scale %d" % s)
            return self._fixed[s]
        if s not in self._cache:
            base = _splitmix64(self.seed ^ _splitmix64(s + 1))
            row = []
            for i in range(self.d):
                h = _splitmix64(base ^ (0x9E3779B97F4A7C15 * (i + 1) & _MASK64))
                row.append(1 if h & 1 else -1)
            self._cache[s] = tuple(row)
        return self._cache[s]


class GridFrame(NamedTuple):
    """One grid of the ladder: scale index, base scale, integer offset (u-units)."""

    s: int
    lam: float
    offset: Tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.offset)

    @property
    def alpha(self) -> float:
        return self.lam * (1 << self.s)

    @property
    def u(self) -> float:
        return self.lam / 2.0

    @property
    def step_u(self) -> int:
        # index step between adjacent grid points, in u-units
        return 1 << (self.s + 1)

    def world_u(self, z: Sequence[int]) -> Tuple[int, ...]:
        """Grid-point coordinates in integer u-units."""
        step = self.step_u
        return tuple(o + step * zi for o, zi in zip(self.offset, z))

    def world(self, z: Sequence[int]) -> Tuple[float, ...]:
        u = self.u
        return tuple(w * u for w in self.world_u(z))


class GridVertex(NamedTuple):
    s: int
    z: Tuple[int, ...]


class Face(NamedTuple):
    """Elementary cube of a grid: anchor index vector + bitmask of extents.

    The face spans [anchor_i, anchor_i + 1] in index space for each i in
    the mask and is degenerate (a point) elsewhere. dim = popcount(mask).
    """

    s: int
    anchor: Tuple[int, ...]
    mask: int

    @property
    def dim(self) -> int:
        return bin(self.mask).count("1")

    @property
    def d(self) -> int:
        return len(self.anchor)


def build_frames(lam: float, m: int, d: int, shifts: ShiftSequence) -> List[GridFrame]:
    """Frames for scales 0..m; offset_0 = 0, offset_{s+1} = offset_s + 2^s*eps_s."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if m < 0:
        raise ValueError("m must be >= 0")
    if not (1 <= d <= MAX_DIM):
        raise ValueError("d must be in 1..%d, got %d" % (MAX_DIM, d))
    if shifts.d != d:
        raise ValueError("shift sequence dimension %d != %d" % (shifts.d, d))
    frames = [GridFrame(0, lam, (0,) * d)]
    for s in range(m):
        eps = shifts.signs(s)
        prev = frames[-1].offset
        nxt = tuple(o + (1 << s) * e for o, e in zip(prev, eps))
        frames.append(GridFrame(s + 1, lam, nxt))
    return frames


def locate(frame: GridFrame, p: Sequence[float]) -> GridVertex:
    """Index vector of the grid point whose half-open cell contains p.

    Cells are [center - alpha/2, center + alpha/2) per coordinate, so a
    point exactly on a boundary is assigned upward. This is the only
    operation that touches floating point.
    """
    if len(p) != frame.d:
        raise ValueError("point dimension %d != %d" % (len(p), frame.d))
    u = frame.u
    step = frame.step_u
    half = 1 << frame.s  # alpha/2 in u-units
    z = []
    for i, x in enumerate(p):
        # index-space coordinate of p relative to the offset, in u-units
        t = x / u - frame.offset[i]
        z.append(int((t + half) // step))
    return GridVertex(frame.s, tuple(z))


def vertex_map_g(frames: Sequence[GridFrame], s: int, v: GridVertex) -> GridVertex:
    """The unique vertex of frame s+1 whose cell contains vertex v of frame s.

    Exact integer arithmetic: with D_i = 2*v_i - eps_i (always odd), the
    image index is (D_i -+ 1)/4, and the distance is exactly alpha_s/2
    per coordinate.
    """
    if v.s != s:
        raise ValueError("vertex is at scale %d, expected %d" % (v.s, s))
    return GridVertex(s + 1, _face_image(v.z, 0, _step_signs(frames, s))[0])


def _step_signs(frames: Sequence[GridFrame], s: int) -> List[int]:
    """The shift signs eps_s between frames s and s+1."""
    if s + 1 >= len(frames):
        raise ValueError("no frame at scale %d" % (s + 1,))
    fr, to = frames[s], frames[s + 1]
    return [(t - o) >> s for o, t in zip(fr.offset, to.offset)]  # +-1 by construction


def _face_image(anchor: Sequence[int], mask: int, eps: Sequence[int]) -> Tuple[Tuple[int, ...], int]:
    """Anchor and mask of a face's image under one step with shift signs eps.

    Per coordinate D = 2*a - eps is odd, so the image index (D -+ 1)/4
    is the nearest integer to D/4, that is (D + 1) // 4. An extent
    direction survives when its two endpoint images differ.
    """
    image = tuple([(2 * a - e + 1) >> 2 for a, e in zip(anchor, eps)])
    new_mask = 0
    rest = mask
    while rest:
        bit = rest & -rest
        i = bit.bit_length() - 1
        if (2 * anchor[i] - eps[i] + 3) >> 2 != image[i]:
            new_mask |= bit
        rest ^= bit
    return image, new_mask


def face_map_g(frames: Sequence[GridFrame], s: int, f: Face) -> Face:
    """Coordinate-wise image of a face under the vertex map.

    Per extent direction the two endpoint images either stay adjacent
    (the direction survives) or coincide (it collapses and leaves the
    mask). Images of vertices are vertex_map_g.
    """
    if f.s != s:
        raise ValueError("face is at scale %d, expected %d" % (f.s, s))
    return Face(s + 1, *_face_image(f.anchor, f.mask, _step_signs(frames, s)))


def _submasks(mask: int):
    """Every submask of mask in increasing order, from 0 to mask itself."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def _corners(anchor: Tuple[int, ...], mask: int) -> Dict[int, Tuple[int, ...]]:
    """anchor + e_high for every submask high of mask, one direction at a time."""
    corner = {0: anchor}
    rest = mask
    while rest:
        bit = rest & -rest
        rest ^= bit
        i = bit.bit_length() - 1
        for high, c in list(corner.items()):
            corner[high | bit] = c[:i] + (c[i] + 1,) + c[i + 1:]
    return corner


def face_vertices(f: Face) -> List[Tuple[int, ...]]:
    """The 2^dim corner index vectors of a face."""
    return list(_corners(f.anchor, f.mask).values())


def subfaces(f: Face, proper: bool = False):
    """All faces of f (3^dim of them), optionally excluding f itself.

    A face of f keeps the extents in a submask `keep` of f.mask and
    fixes each other extent direction at its upper end (in `high`) or
    its lower end: Face(s, anchor + e_high, keep).
    """
    corner = _corners(f.anchor, f.mask)
    for keep in _submasks(f.mask):
        if proper and keep == f.mask:
            continue
        for high in _submasks(f.mask ^ keep):
            yield Face(f.s, corner[high], keep)


def facets(f: Face) -> List[Face]:
    """Codimension-1 faces: per extent direction, the two fixing facets."""
    bits = [1 << i for i in range(f.d) if f.mask >> i & 1]
    return [Face(f.s, c, f.mask ^ bit) for bit in bits for c in _corners(f.anchor, bit).values()]


def is_subface(f: Face, g: Face) -> bool:
    """Whether f is a (not necessarily proper) face of g."""
    if f.s != g.s or (f.mask & ~g.mask):
        return False
    for i in range(g.d):
        if f.mask >> i & 1:
            if f.anchor[i] != g.anchor[i]:
                return False
        elif g.mask >> i & 1:
            if f.anchor[i] not in (g.anchor[i], g.anchor[i] + 1):
                return False
        else:
            if f.anchor[i] != g.anchor[i]:
                return False
    return True
