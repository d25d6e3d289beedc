"""Command-line front end.

Subcommands: tower, rips-barcode, tower-barcode, compare, stats,
survival. Primary output (stream, barcode, report) goes to --out or
stdout; when it goes to stdout the human summary moves to stderr.

Exit codes: 0 ok / all checks passed; 1 a requested check failed;
2 usage; 3 input parse error; 4 I/O error; 5 guardrail exceeded;
6 malformed event stream.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Dict, List, Optional

from .diagram import certify_approximation
from .geometry import PointCloud
from .lattice import MAX_DIM
from .persistence import Barcode, betti, reduce as reduce_filtration, rips_filtration, tower_barcode
from .tower import (
    EventStream,
    GuardrailExceeded,
    MalformedStream,
    active_inclusion_bound,
    build_cubical_tower,
    build_simplicial_tower,
    cubical_cell_bound,
    replay,
    scale_event_bound,
    simplicial_inclusion_bound,
    survival_experiment,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_IO = 4
EXIT_GUARDRAIL = 5
EXIT_MALFORMED = 6

MAX_POINTS = 1000
MAX_K = 8
DEFAULT_GUARD_CELLS = 10 ** 7


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("RIPSAPPROX_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            sys.stderr.write("ripsapprox: error: RIPSAPPROX_SEED must be an integer, got %r\n" % env)
            raise SystemExit(EXIT_USAGE)
    return 0


def _guard(n: Optional[int] = None, d: Optional[int] = None, k: Optional[int] = None) -> None:
    if n is not None and n > MAX_POINTS:
        raise GuardrailExceeded("n = %d exceeds the guardrail %d" % (n, MAX_POINTS))
    if d is not None and d > MAX_DIM:
        raise GuardrailExceeded("d = %d exceeds the guardrail %d" % (d, MAX_DIM))
    if k is not None and k > MAX_K:
        raise GuardrailExceeded("k = %d exceeds the guardrail %d" % (k, MAX_K))


def _emit(primary: str, out_path: Optional[str]):
    """Write the primary payload; return the file for summary lines."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(primary)
        return sys.stdout
    sys.stdout.write(primary)
    return sys.stderr


def _load_points(path: str) -> PointCloud:
    return PointCloud.from_file(path)


def _load_stream(path: str) -> EventStream:
    with open(path) as fh:
        return EventStream.parse(fh.read())


def _claimed_factor(metric: str, d: int) -> float:
    return 2.0 if metric == "linf" else 2.0 * d ** 0.25


def _barcode_summary(info, bc: Barcode) -> None:
    dims = bc.dimensions()
    if not dims:
        info.write("barcode: empty\n")
        return
    parts = ["dim %d: %d" % (p, len(bc.intervals(p))) for p in dims]
    info.write("barcode intervals: %s\n" % "; ".join(parts))


def cmd_tower(args) -> int:
    P = _load_points(args.points)
    seed = _resolve_seed(args)
    _guard(n=P.n, d=P.d, k=args.k)
    if args.mode == "cubical":
        stream = build_cubical_tower(P, seed, metric=args.metric, lam=args.lam,
                                     max_scales=args.max_scales, guard_cells=args.guard_cells)
    else:
        stream = build_simplicial_tower(P, min(args.k, P.d), seed, metric=args.metric,
                                        lam=args.lam, max_scales=args.max_scales,
                                        guard_cells=args.guard_cells)
    info = _emit(stream.to_text(), args.out)
    c = stream.counts()
    info.write("tower: n=%d d=%d k=%d metric=%s seed=%d mode=%s\n"
               % (stream.n, stream.d, stream.k, stream.metric, stream.seed, stream.mode))
    info.write("scales: lambda=%.17g m=%d present=%d\n" % (stream.lam, stream.m, c["S"]))
    info.write("events: S=%d I=%d C=%d\n" % (c["S"], c["I"], c["C"]))
    ibd = stream.includes_by_dim()
    info.write("includes by dim: %s\n"
               % " ".join("%d:%d" % (p, ibd[p]) for p in sorted(ibd)))
    return EXIT_OK


def cmd_rips_barcode(args) -> int:
    P = _load_points(args.points)
    _guard(n=P.n, d=P.d, k=args.k)
    filt = rips_filtration(P, args.metric, args.k, max_simplices=args.guard_cells)
    bc = reduce_filtration(filt, homology_cap=args.k)
    info = _emit(bc.to_text(), args.out)
    info.write("rips: n=%d d=%d k=%d metric=%s simplices=%d\n"
               % (P.n, P.d, args.k, args.metric, len(filt)))
    _barcode_summary(info, bc)
    return EXIT_OK


def cmd_tower_barcode(args) -> int:
    stream = _load_stream(args.stream)
    k = stream.k if args.k is None else min(args.k, stream.k)
    bc = tower_barcode(stream, k)
    info = _emit(bc.to_text(), args.out)
    info.write("tower-barcode: n=%d d=%d k=%d mode=%s scales=%d\n"
               % (stream.n, stream.d, k, stream.mode, stream.counts()["S"]))
    _barcode_summary(info, bc)
    return EXIT_OK


def cmd_compare(args) -> int:
    P = _load_points(args.points)
    seed = _resolve_seed(args)
    _guard(n=P.n, d=P.d, k=args.k)
    k = args.k
    skel = min(k + 1, P.d)
    stream = build_simplicial_tower(P, skel, seed, metric=args.metric, lam=args.lam,
                                    max_scales=args.max_scales, guard_cells=args.guard_cells)
    tbc = tower_barcode(stream, k)
    rbc = reduce_filtration(rips_filtration(P, args.metric, k, max_simplices=args.guard_cells),
                            homology_cap=k)
    c_claim = _claimed_factor(args.metric, P.d)
    # the tower complex at scale a sits between the Rips values a/2 and a,
    # and scale sampling doubles the left slack; dividing the tower scale
    # axis by 4/c centres the sandwich so both sides carry factor c
    balanced = tbc.scaled(c_claim / 4.0)
    cert = certify_approximation(balanced, rbc, c_claim)
    lines = ["compare: n=%d d=%d k=%d metric=%s seed=%d" % (P.n, P.d, k, args.metric, seed),
             "claimed factor: %.17g" % c_claim]
    for p in range(k + 1):
        # a dimension absent from both barcodes matches at factor 1
        lines.append("dim %d: c* = %.17g" % (p, cert.per_dim.get(p, 1.0)))
    lines.append("achieved: %.17g" % cert.achieved)
    lines.append("result: %s" % ("PASS" if cert.passed else "FAIL"))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if cert.passed else EXIT_CHECK_FAILED


def _stats_checks(stream: EventStream, points_path: Optional[str], c: Dict[str, int],
                  ibd: Dict[int, int]):
    snap = replay(stream)
    n, d, k = stream.n, stream.d, stream.k
    total_includes = c["I"]
    checks = []

    def add(name, observed, bound):
        checks.append((name, observed, bound, observed <= bound))

    add("scale events <= m+1", c["S"], scale_event_bound(stream.m))
    if stream.mode == "simplicial":
        add("face inclusions <= n*6^d", ibd.get(0, 0), cubical_cell_bound(n, d))
        sb = simplicial_inclusion_bound(n, d, k)
        if sb is not None:
            add("simplex inclusions <= n*6^(d-1)(2k+4)(k+3)!S(d,k+2)", total_includes, sb)
        final_betti = betti(snap)
        checks.append(("final scale reduced-acyclic", sum(final_betti),
                       0, not any(final_betti)))
    else:
        add("cell inclusions <= n*6^d", total_includes, cubical_cell_bound(n, d))
        # connectivity only, from the graph of 0- and 1-cells (an edge is
        # a 2-vertex set in both modes): evidence of final-scale collapse
        graph_betti = betti(c for c in snap.cells if len(c) <= 2)
        comps = graph_betti[0] + 1 if graph_betti else 0
        checks.append(("final scale connected", comps, 1, comps == 1))

    audit = None
    if points_path is not None:
        P = _load_points(points_path)
        kwargs = dict(metric=stream.metric, lam=stream.lam, max_scales=stream.m)
        if stream.mode == "simplicial":
            rebuilt, audit = build_simplicial_tower(P, k, stream.seed, with_audit=True, **kwargs)
        else:
            rebuilt, audit = build_cubical_tower(P, stream.seed, with_audit=True, **kwargs)
        checks.append(("rebuild reproduces stream", int(rebuilt == stream), 1,
                       rebuilt == stream))
        add("active-face inclusions <= n*3^d", audit.total_active_inclusions,
            active_inclusion_bound(n, d))
    return checks, snap


def cmd_stats(args) -> int:
    stream = _load_stream(args.stream)
    c = stream.counts()
    ibd = stream.includes_by_dim()
    checks, snap = _stats_checks(stream, args.points, c, ibd)
    lines = ["stats: n=%d d=%d k=%d metric=%s seed=%d mode=%s lambda=%.17g m=%d"
             % (stream.n, stream.d, stream.k, stream.metric, stream.seed, stream.mode,
                stream.lam, stream.m),
             "events: S=%d I=%d C=%d" % (c["S"], c["I"], c["C"]),
             "includes by dim: %s" % " ".join("%d:%d" % (p, ibd[p]) for p in sorted(ibd)),
             "final scale: ordinal=%d alpha=%s live-vertices=%d cells=%d"
             % (snap.scale_ordinal,
                "%.17g" % snap.alpha if snap.alpha is not None else "none",
                len(snap.live), len(snap.cells))]
    ok = True
    for name, observed, bound, passed in checks:
        ok = ok and passed
        lines.append("check %s: %s vs %s %s"
                     % (name, observed, bound, "PASS" if passed else "FAIL"))
    lines.append("result: %s" % ("PASS" if ok else "FAIL"))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_survival(args) -> int:
    seed = _resolve_seed(args)
    hist = survival_experiment(args.d, args.k, args.trials, seed)
    trials = sum(hist.values())
    mean = sum(y * c for y, c in hist.items()) / trials
    var = sum(c * (y - mean) ** 2 for y, c in hist.items()) / trials
    lines = ["survival: d=%d k=%d trials=%d seed=%d" % (args.d, args.k, trials, seed)]
    for y in sorted(hist):
        lines.append("Y=%d count=%d freq=%.6f" % (y, hist[y], hist[y] / trials))
    lines.append("mean=%.6f" % mean)
    ok = True
    for j in range(1, 13):
        obs = sum(cnt for y, cnt in hist.items() if y > j) / trials
        p = min(args.k / 2.0 ** j, 1.0)
        sigma = math.sqrt(p * (1.0 - p) / trials)
        passed = obs <= p + 3.0 * sigma
        ok = ok and passed
        lines.append("tail j=%d: observed=%.6f bound=%.6f %s"
                     % (j, obs, p + 3.0 * sigma, "PASS" if passed else "FAIL"))
    if args.k == 1:
        bound = 2.0 + 3.0 * math.sqrt(var / trials)
        passed = mean <= bound
        lines.append("mean<=2+3sigma: %.6f vs %.6f %s"
                     % (mean, bound, "PASS" if passed else "FAIL"))
    else:
        bound = 3.0 * math.log2(args.k)
        passed = mean <= bound
        lines.append("mean<=3log2(k): %.6f vs %.6f %s"
                     % (mean, bound, "PASS" if passed else "FAIL"))
    ok = ok and passed
    lines.append("result: %s" % ("PASS" if ok else "FAIL"))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _add_common(sp, seeded=True, modal=False, ladder=False):
    sp.add_argument("--metric", choices=("linf", "l2"), default="linf")
    sp.add_argument("--k", type=int, default=1)
    if seeded:
        sp.add_argument("--seed", type=int, default=None,
                        help="default: RIPSAPPROX_SEED or 0")
    if modal:
        sp.add_argument("--mode", choices=("simplicial", "cubical"), default="simplicial")
    if ladder:
        sp.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="override the base scale")
        sp.add_argument("--max-scales", type=int, default=None)
    sp.add_argument("--guard-cells", type=int, default=DEFAULT_GUARD_CELLS)
    sp.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ripsapprox",
                                 description="approximate Rips towers and barcodes")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("tower", help="build a tower event stream from points")
    sp.add_argument("points")
    _add_common(sp, modal=True, ladder=True)
    sp.set_defaults(func=cmd_tower)

    sp = sub.add_parser("rips-barcode", help="exact Rips barcode of points")
    sp.add_argument("points")
    _add_common(sp, seeded=False)
    sp.set_defaults(func=cmd_rips_barcode)

    sp = sub.add_parser("tower-barcode", help="barcode of a tower stream")
    sp.add_argument("stream")
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_tower_barcode)

    sp = sub.add_parser("compare", help="tower vs exact Rips approximation check")
    sp.add_argument("points")
    _add_common(sp, ladder=True)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("stats", help="audit a stream against the size bounds")
    sp.add_argument("stream")
    sp.add_argument("--points", default=None,
                    help="original input; enables rebuild and active-count audits")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_stats)

    sp = sub.add_parser("survival", help="face collapse time experiment")
    sp.add_argument("--d", type=int, default=8)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_survival)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except MalformedStream as e:
        sys.stderr.write("malformed stream: %s\n" % e)
        return EXIT_MALFORMED
    except GuardrailExceeded as e:
        sys.stderr.write("guardrail: %s\n" % e)
        return EXIT_GUARDRAIL
    except OSError as e:
        sys.stderr.write("i/o error: %s\n" % e)
        return EXIT_IO
    except ValueError as e:
        sys.stderr.write("parse error: %s\n" % e)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
