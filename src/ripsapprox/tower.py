"""Scale-by-scale construction of approximation towers as event streams.

A stream is a header plus Scale/Include/Contract events. Each scale
group opens with `S alpha`; contractions merge vertices whose images at
the next scale coincide; inclusions introduce the faces and flag
simplices (or cubical cells) that are not images of anything older.
Replaying the stream through the contraction union-find reproduces the
complex at every scale.

Text format, one event per line, newline-terminated:

    H n d k metric seed lambda m mode
    S <alpha>                       (17 significant digits)
    I <id> <dim> <v1> ... <vr>      (r = 0 for a 0-cell: the id is the vertex)
    C <i> <j>                       (vertex j maps to vertex i)
"""

from __future__ import annotations

import io
import math
from collections import Counter
from itertools import chain, filterfalse, islice
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

from .cubical import _close, _spanned, active_vertices
# the build calls `_spanned`; perfbench/test_perfbench.py checks that the
# tracer wraps this name
from .cubical import spanned_faces  # noqa: F401
from .geometry import METRICS, PointCloud, _plain_text, closest_pair, diameter
from .lattice import (
    MAX_DIM,
    Face,
    GridFrame,
    shift_signs,
    _face_image,
    _FaceCodec,
    _splitmix64,
)

__all__ = [
    "Scale",
    "Include",
    "Contract",
    "EventStream",
    "GuardrailExceeded",
    "MalformedStream",
    "ScaleAudit",
    "Snapshot",
    "build_simplicial_tower",
    "build_cubical_tower",
    "replay",
    "snapshots",
    "survival_experiment",
    "stirling2",
    "chain_count",
    "active_inclusion_bound",
    "cubical_cell_bound",
    "simplicial_inclusion_bound",
    "scale_event_bound",
]


class Scale(NamedTuple):
    alpha: float


class Include(NamedTuple):
    id: int
    dim: int
    vertices: Tuple[int, ...]


class Contract(NamedTuple):
    i: int
    j: int


class GuardrailExceeded(RuntimeError):
    pass


class MalformedStream(ValueError):
    pass


def _fmt_g17(x: float) -> str:
    return "%.17g" % (x,)  # inf and nan print as "inf" and "nan"


def _text_lines(text: str, error=ValueError) -> List[str]:
    """The lines of a stream or barcode text, each ended by "\n" alone. A line
    that breaks the character rule of the text inputs (`_plain_text`: no
    "_", no non-ASCII or control character but tab and the "\r" of a CRLF
    line) raises `error` naming it."""
    lines = text.split("\n")
    if not _plain_text(text):
        for lineno, line in enumerate(lines, start=1):
            # every line but the last ends with the "\n" split took off
            if not _plain_text(line + "\n" if lineno < len(lines) else line):
                raise error("line %d: numbers must be plain ASCII decimals: %s"
                            % (lineno, ascii(line)))
    if not lines[-1]:
        del lines[-1]  # what follows the newline that ends the last line
    return lines


@dataclass(repr=False)
class EventStream:
    """Header plus ordered Scale/Include/Contract events; two streams are
    equal when their headers and events are."""

    n: int
    d: int
    k: int
    metric: str
    seed: int
    lam: float
    m: int
    mode: str
    events: List

    @property
    def top_dim(self) -> int:
        """The top cell dimension: k for a simplicial stream, d for a cubical one."""
        return self.k if self.mode == "simplicial" else self.d

    def counts(self) -> Dict[str, int]:
        c = {"S": 0, "I": 0, "C": 0}
        for e in self.events:
            c[type(e).__name__[0]] += 1
        return c

    def includes_by_dim(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for e in self.events:
            if isinstance(e, Include):
                out[e.dim] = out.get(e.dim, 0) + 1
        return out

    def scale_values(self) -> List[float]:
        return [e.alpha for e in self.events if isinstance(e, Scale)]

    def to_text(self) -> str:
        buf = io.StringIO()
        buf.write(
            "H %d %d %d %s %d %s %d %s\n"
            % (self.n, self.d, self.k, self.metric, self.seed, _fmt_g17(self.lam), self.m, self.mode)
        )
        for e in self.events:
            if isinstance(e, Scale):
                buf.write("S %s\n" % _fmt_g17(e.alpha))
            elif isinstance(e, Include):
                buf.write(("I %d %d" + " %d" * len(e.vertices) + "\n") % (e.id, e.dim, *e.vertices))
            else:
                buf.write("C %d %d\n" % e)
        return buf.getvalue()

    @classmethod
    def parse(cls, text: str) -> "EventStream":
        lines = _text_lines(text, MalformedStream)
        if not lines:
            raise MalformedStream("empty stream")
        head = lines[0].split()
        if len(head) != 9 or head[0] != "H":
            raise MalformedStream("bad header: %r" % lines[0])
        try:
            n, d, k = int(head[1]), int(head[2]), int(head[3])
            metric = head[4]
            seed = int(head[5])
            lam = float(head[6])
            m = int(head[7])
            mode = head[8]
        except ValueError:
            raise MalformedStream("bad header fields: %r" % lines[0])
        if metric not in METRICS or mode not in ("simplicial", "cubical"):
            raise MalformedStream("bad metric/mode in header")
        if not (n >= 1 and 1 <= d <= MAX_DIM and 0 <= k <= d and m >= 0
                and math.isfinite(lam) and lam > 0):
            raise MalformedStream("header field out of range: %r" % lines[0])
        events: List = []
        for lineno, line in enumerate(lines[1:], start=2):
            parts = line.split()
            if not parts:
                raise MalformedStream("line %d: empty" % lineno)
            try:
                if parts[0] == "S" and len(parts) == 2:
                    events.append(Scale(float(parts[1])))
                elif parts[0] == "I" and len(parts) >= 3:
                    events.append(Include(int(parts[1]), int(parts[2]), tuple(map(int, parts[3:]))))
                elif parts[0] == "C" and len(parts) == 3:
                    events.append(Contract(int(parts[1]), int(parts[2])))
                else:
                    raise ValueError
            except ValueError:
                raise MalformedStream("line %d: cannot parse %r" % (lineno, line))
        return cls(n, d, k, metric, seed, lam, m, mode, events)


def _ladder_for(P: PointCloud, lam, max_scales) -> Tuple[float, int]:
    """The ladder alpha_s = lam*2^s, s = 0..m, as the pair (lam, m): lam
    defaults to closest-pair(Linf)/(3d), 1.0 for one point, and m is the
    least m >= 0 with lam*2^m >= diam, then capped at max_scales.

    lam is doubled in floating point, which is exact, so a stored lam
    re-derives the same m. Raises ValueError when lam is not finite and
    positive, or when the top scale or a coordinate in grid units
    (x / (lam/2)) overflows float64.
    """
    if P.n == 1:
        lam = 1.0
    elif lam is None:
        lam = closest_pair(P, "linf")[2] / (3.0 * P.d)
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError("lambda must be finite and positive, got %r" % (lam,))
    diam = diameter(P, "linf")
    top, m = lam, 0
    while top < diam:
        top *= 2.0
        m += 1
    if not math.isfinite(top):
        raise ValueError("top scale lambda*2^%d overflows float64 (lambda=%r)" % (m, lam))
    u = lam / 2.0  # the grid unit; locate divides every coordinate by it
    if u == 0.0 or not math.isfinite(float(abs(P.points).max()) / u):
        raise ValueError("coordinates overflow float64 in grid units of lambda/2 (lambda=%r)"
                         % (lam,))
    if max_scales is not None:
        if max_scales < 0:
            raise ValueError("max_scales must be >= 0")
        m = min(m, max_scales)
    return lam, m


@dataclass
class ScaleAudit:
    """Per-scale construction record used by audits and reconstruction tests."""

    s: int
    alpha: float
    id_of_face: Dict[Face, int]
    new_active: int
    new_secondary: int
    n_contractions: int


def chain_count(max_len: int, dim: int) -> int:
    """Strict subface chains of length <= max_len ending at a dim-face.

    Along a chain of r steps, each direction of the top face is free
    from some level on and fixed at one of its two ends below it: 2r + 1
    choices, so (2r + 1)^dim weakly ascending chains. Inclusion-exclusion
    over the steps that repeat a face keeps the strict ones. Used to
    price the flag output of a scale before enumerating it.
    """
    return sum((-1) ** i * math.comb(r, i) * (2 * (r - i) + 1) ** dim
               for r in range(max_len) for i in range(r + 1))


def _chains_ending(top: int, cap: int, codec: _FaceCodec):
    """Strict ascending chains of length 2..cap of packed faces, ending
    at the face `top`."""
    stack: List[Tuple[int, ...]] = [(top,)]
    while stack:
        c = stack.pop()
        if len(c) >= 2:
            yield c
        if len(c) < cap:
            low = c[0]
            for delta in codec.proper_subfaces(low & codec.dirs):
                stack.append((low + delta,) + c)


def _build_tower(P: PointCloud, k: int, seed: int, metric: str, mode: str, lam=None,
                 max_scales=None, guard_cells=None,
                 audit: Optional[List[ScaleAudit]] = None) -> EventStream:
    """The tower's event stream; with `audit`, one ScaleAudit per scale is
    appended to it. A cubical tower has no skeleton cap: its header k is
    0 whatever k is given."""
    if P.d > MAX_DIM:
        raise GuardrailExceeded("d = %d exceeds %d" % (P.d, MAX_DIM))
    simplicial = mode == "simplicial"
    if not simplicial:
        k = 0
    elif not (0 <= k <= P.d):
        raise ValueError("k must be in 0..d")

    lam, m = _ladder_for(P, lam, max_scales)
    d = P.d
    # flags are strict subface chains of at most flag_len faces; a
    # cubical tower (k = 0) emits the faces alone
    flag_len = k + 1
    events: List = []
    next_id = 0
    total_cells = 0
    V = active_vertices(GridFrame(0, lam, (0,) * d), P)
    # faces are packed keys from here on (`Face` only in the audit). No
    # anchor outgrows the scale-0 vertices: a complex lies in the
    # bounding box of its active vertices, and g maps an anchor a to
    # about a/2.
    codec = _FaceCodec(d, max(abs(x) for v in V for x in v.anchor))
    V = set(map(codec.pack, V))
    dirs = codec.dirs
    # ids of the vertices of the output complex: every face of the
    # cubical complex for simplicial towers, its grid vertices for
    # cubical; either way the first len(id_of_face) faces of `faces`
    id_of_face: Dict[int, int] = {}
    faces: List[int] = []

    for s in range(m + 1):
        alpha = math.ldexp(lam, s)
        # the grid map g on the faces of the previous complex (none at
        # scale 0), one image per face: `groups` maps an image to the ids
        # of the faces that map onto it, `images` holds every image
        groups: Dict[int, List[int]] = {}
        images: Set[int] = set()
        if s:
            g = codec.step(shift_signs(seed, d, s - 1))
            for f, fid in id_of_face.items():
                groups.setdefault(g(f), []).append(fid)
            images.update(groups)
            images.update(map(g, islice(faces, len(id_of_face), None)))
            # the active vertices are the images of the previous ones
            V = set(map(g, V))
        spanned = _spanned(V, codec)
        by_mask = _close(spanned, codec)

        # id_of_face iterates in ascending id order (the representatives,
        # then fresh ids), so each group's ids ascend and the groups come
        # ordered by least id
        group: List = []
        new_id_of_face: Dict[int, int] = {}
        for img, ids in groups.items():
            rep = ids[0]
            new_id_of_face[img] = rep
            for j in ids[1:]:
                group.append(Contract(rep, j))
        n_contr = len(group)
        # canonical (dim, anchor, mask) order: by dimension, then by key;
        # a face is new when it is not an image
        faces = []
        new_by_dim: List[List[int]] = []
        for p in range(d + 1):
            level = sorted(chain.from_iterable(
                keys for mask, keys in by_mask.items() if mask.bit_count() == p))
            faces += level
            new_by_dim.append(list(filterfalse(images.__contains__, level)))
        n_new = sum(map(len, new_by_dim))
        assert len(faces) - n_new == len(images), "image face missing from next complex"
        del by_mask  # `faces` holds them all now

        # a flag is new iff its top face is new (images are closed under
        # subfaces); price the faces and their flags before enumerating
        total_cells += sum(chain_count(flag_len, p) * len(new) for p, new in enumerate(new_by_dim))
        if guard_cells is not None and total_cells > guard_cells:
            raise GuardrailExceeded(
                "cell guardrail exceeded: %d > %d" % (total_cells, guard_cells)
            )

        id_of = new_id_of_face.__getitem__
        for p, new in enumerate(new_by_dim):
            ids = range(next_id, next_id + len(new))
            next_id += len(new)
            if simplicial or not p:
                new_id_of_face.update(zip(new, ids))
                group += [Include(i, 0, ()) for i in ids]
            else:
                # a cell's vertices are the ids of its corners
                corners = codec.corners
                group += [Include(i, p, tuple(sorted(map(id_of, map(f.__add__, corners(f & dirs))))))
                          for i, f in zip(ids, new)]

        if flag_len > 1:
            by_r: Dict[int, List[Tuple[int, ...]]] = {}
            for F in chain.from_iterable(new_by_dim):
                for c in _chains_ending(F, flag_len, codec):
                    ids = tuple(sorted(map(id_of, c)))
                    by_r.setdefault(len(c) - 1, []).append(ids)
            for r in sorted(by_r):
                for ids in sorted(by_r[r]):
                    group.append(Include(next_id, r, ids))
                    next_id += 1

        if group:
            events.append(Scale(alpha))
            events.extend(group)
        if audit is not None:
            new_active = sum(f in spanned for new in new_by_dim for f in new)
            audit.append(ScaleAudit(
                s, alpha, {codec.unpack(f, s): i for f, i in new_id_of_face.items()},
                new_active, n_new - new_active, n_contr))
        id_of_face = new_id_of_face

    return EventStream(P.n, d, k, metric, seed, lam, m, mode, events)


def build_simplicial_tower(P: PointCloud, k: int, seed: int, *, metric="linf", lam=None,
                           max_scales=None, guard_cells=None, audit=None) -> EventStream:
    """Event stream of the flag tower over the face poset, k-skeleton capped."""
    return _build_tower(P, k, seed, metric, "simplicial", lam, max_scales, guard_cells, audit)


def build_cubical_tower(P: PointCloud, seed: int, *, metric="linf", lam=None,
                        max_scales=None, guard_cells=None, audit=None) -> EventStream:
    """Event stream of the cubical tower (cells, not flags)."""
    return _build_tower(P, 0, seed, metric, "cubical", lam, max_scales, guard_cells, audit)


class Snapshot:
    """The complex after one scale group of a stream (the scale_ordinal-th).

    cells[q] maps each q-cell, a sorted tuple of live vertex ids, to its
    index, for q in 0..`EventStream.top_dim`; a simplicial q-cell has
    q + 1 vertices, a cubical one 2^q corners. steps[q] maps each q-cell
    index of the previous snapshot to its image's index, or to None when
    the cell collapsed.
    """

    def __init__(self, mode: str, alpha: Optional[float], scale_ordinal: int,
                 cells: List[Dict[Tuple[int, ...], int]], steps: List[List[Optional[int]]]):
        self.mode = mode
        self.alpha = alpha
        self.scale_ordinal = scale_ordinal
        self.cells = cells
        self.steps = steps


def _find(parent: Dict[int, int], x: int) -> int:
    """Root of x in a union-find stored as a child -> parent map."""
    while x in parent:
        x = parent[x]
    return x


def snapshots(stream: EventStream) -> Iterator[Snapshot]:
    """Validate the events and yield the Snapshot after each scale group.

    Each snapshot holds fresh containers. The stream is fully validated
    only once the iterator is exhausted. Raises MalformedStream on
    dangling ids, dead references, scales that are not finite and
    positive or that decrease, cells of dimension outside
    0..`stream.top_dim`, and simplices included without their facets.
    Cubical facets are checked where a snapshot's cubical cells are read,
    by `persistence._cubical_columns` (`tower_barcode` and `stats`).
    """
    parent: Dict[int, int] = {}
    dim_of_id: Dict[int, int] = {}
    # since the last snapshot: (dim, vertices) of each inclusion, and the
    # contracted ids
    group: List[Tuple[int, Tuple[int, ...]]] = []
    contracted: List[int] = []
    simplicial = stream.mode == "simplicial"
    top_dim = stream.top_dim
    cells: List[Dict[Tuple[int, ...], int]] = [{} for _ in range(top_dim + 1)]
    alpha = None
    ordinal = -1

    def snapshot() -> Snapshot:
        nonlocal cells, ordinal
        # a vertex that is not a root now was contracted in this group
        moved = {j: _find(parent, j) for j in contracted}
        untouched = moved.keys().isdisjoint

        def resolve(c):
            c = tuple(sorted({moved.get(v, v) for v in c}))
            return c, len(c) - 1 if simplicial else (len(c) - 1).bit_length()

        prev, cells = cells, [{} for _ in cells]
        steps = []
        for p, prev_p in enumerate(prev):
            step: List[Optional[int]] = []
            for c in prev_p:
                q = p
                if not untouched(c):
                    c, q = resolve(c)
                bit = cells[q].setdefault(c, len(cells[q]))
                step.append(bit if q == p else None)
            steps.append(step)
        for q, c in group:
            if not untouched(c):
                c, q = resolve(c)
            here = cells[q]
            if c not in here:
                if simplicial and q and not all(c[:i] + c[i + 1:] in cells[q - 1]
                                                for i in range(q + 1)):
                    raise MalformedStream("simplex %r without all its facets" % (c,))
                here[c] = len(here)
        group.clear()
        contracted.clear()
        ordinal += 1
        return Snapshot(stream.mode, alpha, ordinal, cells, steps)

    for e in stream.events:
        if isinstance(e, Scale):
            if not (math.isfinite(e.alpha) and e.alpha > 0):
                raise MalformedStream("scale must be finite and positive: %r" % (e,))
            if alpha is not None:
                if e.alpha < alpha:
                    raise MalformedStream("scale values decrease at %r" % (e,))
                yield snapshot()
            alpha = e.alpha
            continue
        if alpha is None:
            raise MalformedStream("event before first scale: %r" % (e,))
        if isinstance(e, Contract):
            if e.i >= e.j:
                raise MalformedStream("contract needs i < j: %r" % (e,))
            for x in (e.i, e.j):
                if dim_of_id.get(x) != 0 or x in parent:
                    raise MalformedStream("contract of unknown or dead id: %r" % (e,))
            parent[e.j] = e.i
            contracted.append(e.j)
        else:
            if e.id in dim_of_id:
                raise MalformedStream("id %d included twice" % e.id)
            if not 0 <= e.dim <= top_dim:
                raise MalformedStream("dimension outside 0..%d: %r" % (top_dim, e))
            if e.dim == 0:
                if e.vertices:
                    raise MalformedStream("0-cell with vertex list: %r" % (e,))
                dim_of_id[e.id] = 0
                group.append((0, (e.id,)))
            else:
                want = e.dim + 1 if simplicial else 1 << e.dim
                if len(e.vertices) != want or len(set(e.vertices)) != want:
                    raise MalformedStream("bad vertex list: %r" % (e,))
                if tuple(sorted(e.vertices)) != e.vertices:
                    raise MalformedStream("vertex list not sorted: %r" % (e,))
                for v in e.vertices:
                    if dim_of_id.get(v) != 0 or v in parent:
                        raise MalformedStream("reference to unknown or dead id: %r" % (e,))
                dim_of_id[e.id] = e.dim
                group.append((e.dim, e.vertices))
    if alpha is not None:
        yield snapshot()


def replay(stream: EventStream) -> Snapshot:
    """The last of `snapshots(stream)` (the whole stream validated), or for a
    stream without a scale the empty one: ordinal -1, alpha None, no cells."""
    empty = [{} for _ in range(stream.top_dim + 1)]
    snap = Snapshot(stream.mode, None, -1, empty, [[] for _ in empty])
    for snap in snapshots(stream):
        pass
    return snap


def stirling2(n: int, r: int) -> int:
    """Stirling number of the second kind: partitions of n into r blocks."""
    if r < 0 or r > n:
        return 0
    return sum((-1) ** j * math.comb(r, j) * (r - j) ** n
               for j in range(r + 1)) // math.factorial(r)


def active_inclusion_bound(n: int, d: int) -> int:
    """Every point activates at most 3^d grid vertices over all scales."""
    return n * 3 ** d


def cubical_cell_bound(n: int, d: int) -> int:
    return n * 6 ** d


def simplicial_inclusion_bound(n: int, d: int, k: int) -> Optional[int]:
    """Total simplex inclusions across the tower; None when k + 2 > d
    (the partition count degenerates there and the bound says nothing).
    """
    if k + 2 > d:
        return None
    return n * 6 ** (d - 1) * (2 * k + 4) * math.factorial(k + 3) * stirling2(d, k + 2)


def scale_event_bound(m: int) -> int:
    return m + 1


def survival_experiment(d: int, k: int, trials: int, seed: int) -> Counter:
    """Distribution of Y = steps until a k-face collapses to a vertex.

    Fresh random shift signs per trial; per coordinate a surviving
    extent keeps or loses its width with equal probability each step.
    """
    if not (1 <= k <= d <= MAX_DIM):
        raise ValueError("need 1 <= k <= d <= %d" % MAX_DIM)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    hist: Counter = Counter()
    for t in range(trials):
        sub = _splitmix64((seed & ((1 << 64) - 1)) ^ _splitmix64(t + 1))
        anchor: Tuple[int, ...] = (0,) * d
        mask = (1 << k) - 1
        y = 0
        while mask:
            anchor, mask = _face_image(anchor, mask, shift_signs(sub, d, y))
            y += 1
            if y > 10000:
                raise RuntimeError("survival runaway")
        hist[y] += 1
    return hist
