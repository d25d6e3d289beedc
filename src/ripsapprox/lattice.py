"""Shifted dyadic grids with exact integer coordinates.

A frame at scale s has cell width alpha_s = lambda * 2^s. All grid
coordinates are integers in units of u = lambda / 2: the grid points of
frame s are (offset + 2^(s+1) * z) * u for z in Z^d, and successive
offsets obey offset_{s+1} = offset_s + 2^s * eps_s, where the sign row
eps_s is `shift_signs(seed, d, s)`. Keeping everything in integer u-units
eliminates floating-point ties everywhere except point location.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Dict, List, NamedTuple, Sequence, Tuple

__all__ = [
    "MAX_DIM",
    "shift_signs",
    "GridFrame",
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

# a guardrail, not a width: keys and masks are unbounded ints, but the
# 3^d active faces and 6^d cells per point are out of reach beyond ~32
MAX_DIM = 32

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def shift_signs(seed: int, d: int, s: int) -> Tuple[int, ...]:
    """The shift signs eps_s in {-1,+1}^d between frames s and s+1.

    Signs are derived from (seed mod 2^64, s, coordinate) by a splitmix64
    chain, so the same seed always yields the same grid ladder.
    """
    if not (1 <= d <= MAX_DIM):
        raise ValueError("d must be in 1..%d, got %d" % (MAX_DIM, d))
    if s < 0:
        raise ValueError("scale index must be >= 0")
    base = _splitmix64((int(seed) & _MASK64) ^ _splitmix64(s + 1))
    return tuple(1 if _splitmix64(base ^ (0x9E3779B97F4A7C15 * (i + 1) & _MASK64)) & 1 else -1
                 for i in range(d))


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
        return math.ldexp(self.lam, self.s)

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


class Face(NamedTuple):
    """Elementary cube of a grid: anchor index vector + bitmask of extents.

    The face spans [anchor_i, anchor_i + 1] in index space for each i in
    the mask and is degenerate (a point) elsewhere. dim = popcount(mask).
    A grid vertex is the 0-face Face(s, z, 0).
    """

    s: int
    anchor: Tuple[int, ...]
    mask: int

    @property
    def dim(self) -> int:
        return self.mask.bit_count()

    @property
    def d(self) -> int:
        return len(self.anchor)


def build_frames(lam: float, d: int, signs: Sequence[Sequence[int]]) -> List[GridFrame]:
    """Frames for scales 0..len(signs); offset_0 = 0 and
    offset_{s+1} = offset_s + 2^s * signs[s], each row a +-1 vector."""
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError("lambda must be finite and positive, got %r" % (lam,))
    if not (1 <= d <= MAX_DIM):
        raise ValueError("d must be in 1..%d, got %d" % (MAX_DIM, d))
    frames = [GridFrame(0, lam, (0,) * d)]
    for s, eps in enumerate(signs):
        if len(eps) != d or any(e not in (-1, 1) for e in eps):
            raise ValueError("sign rows must be +-1 vectors of length d")
        offset = tuple(o + (int(e) << s) for o, e in zip(frames[-1].offset, eps))
        frames.append(GridFrame(s + 1, lam, offset))
    return frames


def locate(frame: GridFrame, p: Sequence[float]) -> Face:
    """The grid vertex (a 0-face) whose half-open cell contains p.

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
    return Face(frame.s, tuple(z), 0)


def vertex_map_g(frames: Sequence[GridFrame], s: int, v: Face) -> Face:
    """The unique vertex of frame s+1 whose cell contains vertex v of frame s.

    v is a 0-face and so is its image. Exact integer arithmetic: with
    D_i = 2*v_i - eps_i (always odd), the image index is (D_i -+ 1)/4,
    and the distance is exactly alpha_s/2 per coordinate.
    """
    if v.mask:
        raise ValueError("not a vertex: %r has mask %d" % (v, v.mask))
    return Face(s + 1, *_face_image(v.anchor, 0, _step_signs(frames, s, v)))


def _step_signs(frames: Sequence[GridFrame], s: int, f: Face) -> List[int]:
    """The shift signs eps_s between frames s and s+1, once f is checked
    to be a face of frame s."""
    if f.s != s:
        raise ValueError("face is at scale %d, expected %d" % (f.s, s))
    if s + 1 >= len(frames):
        raise ValueError("no frame at scale %d" % (s + 1,))
    fr, to = frames[s], frames[s + 1]
    eps = [(t - o) >> s for o, t in zip(fr.offset, to.offset)]  # +-1 by construction
    if len(f.anchor) != len(eps) or f.mask >> len(eps):
        raise ValueError("%r is not a face of a %d-dimensional grid" % (f, len(eps)))
    return eps


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
    return Face(s + 1, *_face_image(f.anchor, f.mask, _step_signs(frames, s, f)))


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


def face_vertices(f: Face) -> List[Face]:
    """The 2^dim corners of a face, as 0-faces."""
    return [Face(f.s, c, 0) for c in _corners(f.anchor, f.mask).values()]


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


class _FaceCodec:
    """Faces of a d-dimensional grid packed into one int each.

    key = (A << d) | mask. A holds one W-bit field per coordinate,
    coordinate 0 most significant, and the field of anchor coordinate a
    is a + 2^(W-2). Keys of one dimension therefore sort in (anchor,
    mask) order. Anchors up to `radius` in absolute value pack; W is the
    bit length of the radius plus a sign bit and two bits of headroom
    for the image step (and at least d, for the parity gather in
    `step`). Python ints are unbounded, so there is no cap on W. The
    scale of a face is not in its key; `unpack` takes it back.

    Corners, subfaces and facets of a key are the key plus deltas,
    tabulated per mask on first use, in the order of `face_vertices`,
    `subfaces` and `facets`: `corners(mask)`, `subfaces(mask)`,
    `proper_subfaces(mask)` and `facets(mask)`.
    """

    def __init__(self, d: int, radius: int):
        W = max(max(radius, 1).bit_length() + 3, d)
        self.d, self.radius, self.width = d, radius, W
        self.dirs = (1 << d) - 1
        # units[i]: the key delta of anchor + e_i
        units = self._units = [1 << (d + W * (d - 1 - i)) for i in range(d)]
        self._ones = sum(units)  # 1 in every field
        self._bias = 1 << (W - 2)

        def lift(high: int) -> int:
            """The key delta of anchor + e_high."""
            return sum(unit for i, unit in enumerate(units) if high >> i & 1)

        # per-mask tables; they close over locals, not `self`: a cycle
        # would keep the codec alive until the cyclic collector runs
        self.corners = cache(lambda mask: tuple(lift(high) - mask for high in _submasks(mask)))
        self.subfaces = subfaces = cache(lambda mask: tuple(
            keep - mask + lift(high) for keep in _submasks(mask) for high in _submasks(mask ^ keep)))
        # the face itself comes last (keep = mask, high = 0)
        self.proper_subfaces = cache(lambda mask: subfaces(mask)[:-1])
        self.facets = cache(lambda mask: tuple(
            low - (1 << i) for i, unit in enumerate(units) if mask >> i & 1 for low in (0, unit)))

    def pack(self, f: Face) -> int:
        if len(f.anchor) != self.d or f.mask >> self.d:
            raise ValueError("%r is not a face of a %d-dimensional grid" % (f, self.d))
        key = self._bias * self._ones + f.mask
        for a, unit in zip(f.anchor, self._units):
            if abs(a) > self.radius:
                raise ValueError("anchor of %r outside the radius %d" % (f, self.radius))
            key += a * unit
        return key

    def unpack(self, key: int, s: int) -> Face:
        d, W, field = self.d, self.width, (1 << self.width) - 1
        return Face(s, tuple([(key >> (d + W * (d - 1 - i)) & field) - self._bias
                              for i in range(d)]), key & self.dirs)

    def step(self, eps: Sequence[int]):
        """The key map of g for one step with shift signs eps.

        One whole-word step on A: C holds 1 - eps_i in each field, so
        each field F = a + 2^(W-2) becomes (2F + C) >> 2, which is
        (2a - eps_i + 1) // 4 of `_face_image` plus 2^(W-3). The shift
        pulls two bits of the next field into the top of each field;
        keeping the low W-2 bits drops them, and adding 2^(W-3) restores
        the bias. Direction i of the mask survives when a_i is odd and
        eps_i = +1, or a_i is even and eps_i = -1. The parities (bit 0 of
        each field) are gathered into mask order by one multiplication:
        field i's bit lands at position i above the top field, and every
        cross product lands outside those d bits (W >= d), without carries.
        """
        d, W, dirs, ones = self.d, self.width, self.dirs, self._ones
        C = sum(2 * unit for unit, e in zip(self._units, eps) if e < 0)
        plus = sum(1 << i for i, e in enumerate(eps) if e > 0)
        low = ((1 << (W - 2)) - 1) * ones
        half = (1 << (W - 3)) * ones
        gather = sum(1 << (i * (W + 1)) for i in range(d))
        shift = d + W * (d - 1)

        def image(key: int) -> int:
            mask = key & dirs
            A = key ^ mask
            if mask:
                mask &= ~((A & ones) * gather >> shift ^ plus)
            return (((A << 1) + C >> 2) & low) + half | mask
        return image


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
