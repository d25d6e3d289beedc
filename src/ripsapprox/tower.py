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
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

from .cubical import ActiveVertexMap, CubicalComplex, active_vertices, closure, spanned_faces
from .geometry import PointCloud, closest_pair, diameter
from .lattice import (
    MAX_DIM,
    Face,
    GridFrame,
    GridVertex,
    ShiftSequence,
    _face_image,
    _splitmix64,
    build_frames,
    face_map_g,
    face_vertices,
    subfaces,
    vertex_map_g,
)

__all__ = [
    "Scale",
    "Include",
    "Contract",
    "EventStream",
    "ScaleLadder",
    "GuardrailExceeded",
    "MalformedStream",
    "TowerAudit",
    "ScaleAudit",
    "Snapshot",
    "relevant_scales",
    "build_simplicial_tower",
    "build_cubical_tower",
    "replay",
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


class EventStream:
    """Header plus ordered Scale/Include/Contract events."""

    def __init__(self, n, d, k, metric, seed, lam, m, mode, events):
        self.n = n
        self.d = d
        self.k = k
        self.metric = metric
        self.seed = seed
        self.lam = lam
        self.m = m
        self.mode = mode
        self.events = list(events)

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
                if e.vertices:
                    buf.write("I %d %d %s\n" % (e.id, e.dim, " ".join(str(v) for v in e.vertices)))
                else:
                    buf.write("I %d %d\n" % (e.id, e.dim))
            else:
                buf.write("C %d %d\n" % (e.i, e.j))
        return buf.getvalue()

    @classmethod
    def parse(cls, text: str) -> "EventStream":
        lines = text.splitlines()
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
        if metric not in ("linf", "l2") or mode not in ("simplicial", "cubical"):
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
                    events.append(Include(int(parts[1]), int(parts[2]), tuple(int(t) for t in parts[3:])))
                elif parts[0] == "C" and len(parts) == 3:
                    events.append(Contract(int(parts[1]), int(parts[2])))
                else:
                    raise ValueError
            except ValueError:
                raise MalformedStream("line %d: cannot parse %r" % (lineno, line))
        return cls(n, d, k, metric, seed, lam, m, mode, events)

    def _header(self) -> Tuple:
        return (self.n, self.d, self.k, self.metric, self.seed, self.lam, self.m, self.mode)

    def __eq__(self, other):
        return (isinstance(other, EventStream) and self._header() == other._header()
                and self.events == other.events)


@dataclass(frozen=True)
class ScaleLadder:
    """lambda = alpha_0 and the number of doubling steps m."""

    lam: float
    m: int

    def alpha(self, s: int) -> float:
        return self.lam * (1 << s)

    @property
    def alphas(self) -> List[float]:
        return [self.alpha(s) for s in range(self.m + 1)]


def relevant_scales(P: PointCloud) -> ScaleLadder:
    """lambda = closest-pair(Linf)/(3d); m minimal with lambda*2^m >= diam."""
    if P.n < 2:
        raise ValueError("need n >= 2 for a scale ladder")
    _, _, cp = closest_pair(P, "linf")
    diam = diameter(P, "linf")
    d = P.d
    lam = cp / (3.0 * d)
    # lambda*2^m >= diam, tested as cp*2^m >= 3d*diam so the power of two
    # scales an exact float
    m = 0
    rhs = 3.0 * d * diam
    while cp * (1 << m) < rhs:
        m += 1
    return ScaleLadder(lam, m)


def _ladder_for(P: PointCloud, lam_override, max_scales) -> ScaleLadder:
    if P.n == 1:
        # no closest pair exists; use a unit ladder with a single scale
        return ScaleLadder(1.0, 0)
    if lam_override is not None:
        if lam_override <= 0:
            raise ValueError("lambda override must be positive")
        diam = diameter(P, "linf")
        m = 0
        while lam_override * (1 << m) < diam:
            m += 1
        ladder = ScaleLadder(lam_override, m)
    else:
        ladder = relevant_scales(P)
    if max_scales is not None:
        if max_scales < 0:
            raise ValueError("max_scales must be >= 0")
        ladder = ScaleLadder(ladder.lam, min(ladder.m, max_scales))
    return ladder


@dataclass
class ScaleAudit:
    """Per-scale construction record used by audits and reconstruction tests."""

    s: int
    alpha: float
    U: CubicalComplex
    id_of_face: Dict[Face, int]
    new_active: int
    new_secondary: int
    includes_by_dim: Dict[int, int]
    n_contractions: int


@dataclass
class TowerAudit:
    mode: str
    ladder: ScaleLadder
    frames: List[GridFrame]
    scales: List[ScaleAudit] = field(default_factory=list)

    @property
    def total_active_inclusions(self) -> int:
        return sum(sc.new_active for sc in self.scales)

    @property
    def total_secondary_inclusions(self) -> int:
        return sum(sc.new_secondary for sc in self.scales)

    @property
    def total_inclusions(self) -> int:
        return sum(sum(sc.includes_by_dim.values()) for sc in self.scales)


def chain_count(max_len: int, dim: int) -> int:
    """Strict subface chains of length <= max_len ending at a dim-face.

    A D-face has C(D, j) * 2^(D-j) subfaces of dimension j; the count
    depends on the top dimension only. Used to price the flag output of
    a scale before enumerating it.
    """
    if max_len < 1:
        return 0
    prev = [1] * (dim + 1)
    for _ in range(max_len - 1):
        cur = []
        for D in range(dim + 1):
            total = 1
            for j in range(D):
                total += math.comb(D, j) * (1 << (D - j)) * prev[j]
            cur.append(total)
        prev = cur
    return prev[dim]


def _chains_ending(F: Face, cap: int):
    """Strict ascending chains of length 2..cap with top face F."""
    stack: List[Tuple[Face, ...]] = [(F,)]
    while stack:
        c = stack.pop()
        if len(c) >= 2:
            yield c
        if len(c) < cap:
            for g in subfaces(c[0], proper=True):
                stack.append((g,) + c)


def _push_active(V: ActiveVertexMap, frames, s: int) -> ActiveVertexMap:
    """Next-scale active vertices via the vertex map (no point relocation)."""
    mapping: Dict[Tuple[int, ...], List[int]] = {}
    for z, ids in V.items():
        y = vertex_map_g(frames, s, GridVertex(s, z)).z
        mapping.setdefault(y, []).extend(ids)
    return ActiveVertexMap(s + 1, mapping)


def _build_tower(P: PointCloud, k: int, seed: int, metric: str, mode: str,
                 lam=None, max_scales=None, guard_cells=None) -> Tuple[EventStream, TowerAudit]:
    if P.d > MAX_DIM:
        raise GuardrailExceeded("d = %d exceeds %d" % (P.d, MAX_DIM))
    simplicial = mode == "simplicial"
    if simplicial and not (0 <= k <= P.d):
        raise ValueError("k must be in 0..d")

    ladder = _ladder_for(P, lam, max_scales)
    d = P.d
    shifts = ShiftSequence(seed, d)
    frames = build_frames(ladder.lam, ladder.m, d, shifts)
    audit = TowerAudit(mode, ladder, frames)
    # flags are strict subface chains of at most flag_len faces; a
    # cubical tower emits the faces alone
    flag_len = k + 1 if simplicial else 1
    events: List = []
    next_id = 0
    total_cells = 0
    # ids of the vertices of the output complex: every face of the
    # cubical complex for simplicial towers, grid vertices for cubical
    id_of_face: Dict[Face, int] = {}
    U: Optional[CubicalComplex] = None
    V = active_vertices(frames[0], P)

    for s, frame in enumerate(frames):
        if s > 0:
            V = _push_active(V, frames, s - 1)
        U_prev, U = U, closure(spanned_faces(frame, V))

        group: List = []
        new_id_of_face: Dict[Face, int] = {}
        images: Set[Face] = set()
        if U_prev is not None:
            groups: Dict[Face, List[int]] = {}
            for f in U_prev.faces():
                img = face_map_g(frames, s - 1, f)
                assert img in U, "image face missing from next complex"
                images.add(img)
                fid = id_of_face.get(f)
                if fid is not None:
                    groups.setdefault(img, []).append(fid)
            for img in sorted(groups, key=lambda f: min(groups[f])):
                ids = sorted(groups[img])
                rep = ids[0]
                new_id_of_face[img] = rep
                for j in ids[1:]:
                    group.append(Contract(rep, j))
        n_contr = len(group)
        new_faces = [f for f in U.faces() if f not in images]

        # a flag is new iff its top face is new (images are closed under
        # subfaces); price the faces and their flags before enumerating
        total_cells += sum(chain_count(flag_len, F.dim) for F in new_faces)
        if guard_cells is not None and total_cells > guard_cells:
            raise GuardrailExceeded(
                "cell guardrail exceeded: %d > %d" % (total_cells, guard_cells)
            )

        for f in new_faces:
            if simplicial or f.dim == 0:
                new_id_of_face[f] = next_id
                group.append(Include(next_id, 0, ()))
            else:
                corners = sorted(new_id_of_face[Face(s, z, 0)] for z in face_vertices(f))
                group.append(Include(next_id, f.dim, tuple(corners)))
            next_id += 1

        if flag_len > 1:
            by_r: Dict[int, List[Tuple[int, ...]]] = {}
            for F in new_faces:
                for c in _chains_ending(F, flag_len):
                    ids = tuple(sorted(new_id_of_face[x] for x in c))
                    by_r.setdefault(len(c) - 1, []).append(ids)
            for r in sorted(by_r):
                for ids in sorted(by_r[r]):
                    group.append(Include(next_id, r, ids))
                    next_id += 1

        if group:
            events.append(Scale(frame.alpha))
            events.extend(group)
        new_active = sum(U.is_active(f) for f in new_faces)
        audit.scales.append(
            ScaleAudit(s, frame.alpha, U, new_id_of_face, new_active, len(new_faces) - new_active,
                       Counter(e.dim for e in group[n_contr:]), n_contr)
        )
        id_of_face = new_id_of_face

    stream = EventStream(P.n, d, k, metric, seed, ladder.lam, ladder.m, mode, events)
    return stream, audit


def build_simplicial_tower(P: PointCloud, k: int, seed: int, *, metric="linf",
                           lam=None, max_scales=None, guard_cells=None, with_audit=False):
    """Event stream of the flag tower over the face poset, k-skeleton capped."""
    stream, audit = _build_tower(P, k, seed, metric, "simplicial",
                                 lam=lam, max_scales=max_scales, guard_cells=guard_cells)
    return (stream, audit) if with_audit else stream


def build_cubical_tower(P: PointCloud, seed: int, *, metric="linf",
                        lam=None, max_scales=None, guard_cells=None, with_audit=False):
    """Event stream of the cubical tower (cells, not flags)."""
    stream, audit = _build_tower(P, 0, seed, metric, "cubical",
                                 lam=lam, max_scales=max_scales, guard_cells=guard_cells)
    return (stream, audit) if with_audit else stream


class Snapshot:
    """Replayed state at a scale boundary."""

    def __init__(self, mode: str, alpha: Optional[float], scale_ordinal: int,
                 live: Set[int], cells: Set[frozenset], find: Dict[int, int]):
        self.mode = mode
        self.alpha = alpha
        self.scale_ordinal = scale_ordinal
        self.live = live
        self.cells = cells
        self.find = find

    def n_vertices(self) -> int:
        return len(self.live)


def _find(parent: Dict[int, int], x: int) -> int:
    """Root of x in a union-find stored as a child -> parent map."""
    while x in parent:
        x = parent[x]
    return x


def _resolve_cells(raw, parent: Dict[int, int]) -> Set[frozenset]:
    """Included vertex tuples as sets of live vertex ids."""
    return {frozenset(_find(parent, v) for v in verts) for verts in raw}


def _walk_scales(stream: EventStream) -> Iterator[tuple]:
    """Validate the events and yield the state after each scale group.

    Yields (alpha, parent, raw, dim_of_id): the group's scale, the
    contraction union-find, the vertex tuple of every inclusion so far
    and the dimension of every included id. The containers are live and
    keep growing; copy what must outlast the next step. Raises
    MalformedStream on dangling ids, dead references, scales that are
    not finite and positive or that decrease, and cells of dimension
    outside 0..k (simplicial) or 0..d (cubical).
    """
    parent: Dict[int, int] = {}
    dim_of_id: Dict[int, int] = {}
    raw: List[Tuple[int, ...]] = []
    simplicial = stream.mode == "simplicial"
    top_dim = stream.k if simplicial else stream.d
    alpha = None

    for e in stream.events:
        if isinstance(e, Scale):
            if not (math.isfinite(e.alpha) and e.alpha > 0):
                raise MalformedStream("scale must be finite and positive: %r" % (e,))
            if alpha is not None:
                if e.alpha < alpha:
                    raise MalformedStream("scale values decrease at %r" % (e,))
                yield alpha, parent, raw, dim_of_id
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
        else:
            if e.id in dim_of_id:
                raise MalformedStream("id %d included twice" % e.id)
            if not 0 <= e.dim <= top_dim:
                raise MalformedStream("dimension outside 0..%d: %r" % (top_dim, e))
            if e.dim == 0:
                if e.vertices:
                    raise MalformedStream("0-cell with vertex list: %r" % (e,))
                dim_of_id[e.id] = 0
                raw.append((e.id,))
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
                raw.append(e.vertices)
    if alpha is not None:
        yield alpha, parent, raw, dim_of_id


def replay(stream: EventStream, upto: Optional[int] = None) -> Snapshot:
    """Replay events through the contraction union-find.

    `upto` selects a 0-based ordinal among the Scale events present in
    the stream (None = the whole stream). Raises MalformedStream on
    every stream `_walk_scales` rejects.
    """
    ordinal = -1
    alpha, parent, raw, dim_of_id = None, {}, [], {}
    if upto is None or upto >= 0:
        for ordinal, (alpha, parent, raw, dim_of_id) in enumerate(_walk_scales(stream)):
            if ordinal == upto:
                break
    live = {_find(parent, i) for i, dm in dim_of_id.items() if dm == 0}
    return Snapshot(stream.mode, alpha, ordinal, live, _resolve_cells(raw, parent), dict(parent))


def stirling2(n: int, r: int) -> int:
    """Stirling number of the second kind: partitions of n into r blocks."""
    if r < 0 or r > n:
        return 0
    row = [1] + [0] * r
    # row[j] = S(i, j) built bottom-up
    for i in range(1, n + 1):
        new = [0] * (r + 1)
        for j in range(1, min(i, r) + 1):
            new[j] = j * row[j] + row[j - 1]
        new[0] = 1 if i == 0 else 0
        row = new
    return row[r]


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
        shifts = ShiftSequence(sub, d)
        anchor: Tuple[int, ...] = (0,) * d
        mask = (1 << k) - 1
        y = 0
        while mask:
            anchor, mask = _face_image(anchor, mask, shifts.signs(y))
            y += 1
            if y > 10000:
                raise RuntimeError("survival runaway")
        hist[y] += 1
    return hist
