"""Benchmark of the ripsapprox CLI pipelines.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root; `all` runs each workload in turn, each in
its own process. `--trace 0` times whole pipeline passes
with nothing wrapped and prints the end-to-end metrics. `--trace 1`
alternates untraced passes in this process with traced passes, each in
a child interpreter that this process waits for, which wraps the library's public functions (perfbench/
tracing.py) and prints the per-layer metrics, including the tracing
overhead. Either way the last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it give
sample counts, failure types and the run context. Metric names and units
come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import io
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import tracing
import workloads
from workloads import PassResult, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# set-ups before the first pass and again after each pass, so the median of
# setup_s covers the host's state over the whole run, not only its first second
SETUP_REPEATS = 10
MIN_PASSES = 2
# one traced pass is a few seconds; a child that hangs is killed and waited for
CHILD_TIMEOUT_S = 150
# printed with the end-to-end metrics but not in BENCHMARK.json: across seeds
# it follows the point sets' event counts (at d=6, quartiles 21 % of the
# median apart over ten seeds), too wide for a regression bound
PRINTED_ONLY = {"events_per_s": "1/s"}


def import_cli():
    """Import `ripsapprox.cli` afresh from this checkout's src/."""
    for name in [n for n in sys.modules if n == "ripsapprox" or n.startswith("ripsapprox.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("ripsapprox.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit("ripsapprox was imported from %s, not from %s" % (cli.__file__, SRC))
    return cli


def setup(workload: Workload, seed: int, work: Path):
    """Import the package, generate the points and write them; return (cli, seconds)."""
    t0 = time.perf_counter()
    cli = import_cli()
    workloads.write_points(workload, seed, work)
    return cli, time.perf_counter() - t0


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; shows host drift next to each pass."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def git_commit() -> Optional[str]:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # a plain checkout has no .git


def spread(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Verifier:
    """Checks each pass and counts failures by type; never retries."""

    def __init__(self, workload: Workload, work: Path):
        self.workload, self.work = workload, work
        self.digests: List[Optional[tuple]] = []
        self.failures: Counter = Counter()
        self.checked: Dict[tuple, workloads.OutputCheck] = {}

    def record(self, result: PassResult) -> None:
        problem = result.failure()
        digest = None
        if problem is None:
            digest = workloads.digests(self.workload, self.work)
            if digest not in self.checked:
                self.checked[digest] = workloads.check_outputs(self.workload, self.work, result)
            problem = self.checked[digest].problem
        if problem is not None:
            self.failures[problem] += 1
            sys.stderr.write("pass failed (%s)\n%s" % (problem, result.stderr[-4000:]))
            digest = None  # counted once, not again as a digest mismatch
        self.digests.append(digest)

    def finish(self) -> Optional[workloads.OutputCheck]:
        """Count passes whose digests differ from the most common; return its check."""
        good = [d for d in self.digests if d is not None]
        if not good:
            return None
        ref, _ = Counter(good).most_common(1)[0]
        odd = sum(1 for d in good if d != ref)
        if odd:
            self.failures["digest-mismatch"] += odd
        return self.checked[ref]

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def count_events(cli, workload: Workload, work: Path, check) -> int:
    """S+I+C of the tower the pipeline builds, outside any timed region."""
    if check.events is not None:
        return sum(check.events.values())
    total = 0  # compare: build the same towers through `tower`
    for sub in workload.dirs(work):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(workload.tower_step(sub))
        if code != 0:
            raise RuntimeError("tower rebuild for the event count failed")
        total += sum(workloads.stream_counts((sub / workloads.STREAM).read_text()).values())
    return total


def measure(workload: Workload, seed: int, seconds: float, work: Path):
    """Untraced run: end-to-end metric values, attempted, failed and notes."""
    setups: List[float] = []

    def set_up():
        for _ in range(SETUP_REPEATS):
            cli, dt = setup(workload, seed, work)
            setups.append(dt)
        return cli

    cli = set_up()
    verifier = Verifier(workload, work)
    passes: List[PassResult] = []
    calib: List[float] = []
    start = time.perf_counter()
    while True:
        passes.append(workloads.run_pass(cli, workload, work))
        verifier.record(passes[-1])
        calib.append(calibrate())
        cli = set_up()
        typical = statistics.median(p.wall_s for p in passes)
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + typical > seconds:
            break
    check = verifier.finish()
    walls = [p.wall_s for p in passes]
    events = count_events(cli, workload, work, check) if check is not None else 0
    samples = {
        "wall_s": walls,
        "cpu_s": [p.cpu_s for p in passes],
        "events_per_s": [events / w for w in walls],
        "setup_s": setups,
    }
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    notes: Dict[str, object] = {"failures": dict(verifier.failures), "events": events,
                                "calibration_s": spread(calib),
                                "samples": {k: spread(v) for k, v in samples.items()}}
    if check is not None and check.cert_ratio is not None:
        notes["cert_ratio"] = check.cert_ratio
    return metrics, len(passes), verifier.failed, notes


def traced_pass(workload: Workload, work: str, run_id: str):
    """One pipeline pass with every wrapper installed (runs in the child)."""
    cli = import_cli()
    tracer = tracing.Tracer(run_id)
    tracer.install()
    try:
        result = workloads.run_pass(cli, workload, Path(work))
    finally:
        tracer.uninstall()
    return result, tracing.layer_metrics(tracer), tracing.count_mismatch(tracer), tracer.spans


def traced_pass_in_child(workload: Workload, work: Path, run_id: str):
    """Run `traced_pass` in a fresh interpreter, so no wrapper enters this process.

    The request and the pickled result go through files in the work
    directory; the child is waited for (and killed first on a timeout).
    """
    request, reply = work / "traced-request.json", work / "traced-reply.pickle"
    request.write_text(json.dumps({"workload": dataclasses.asdict(workload),
                                   "work": str(work), "run_id": run_id}))
    reply.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, __file__, "--traced-pass", str(request)],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("traced pass exited %d:\n%s" % (proc.returncode, proc.stderr[-4000:]))
    with open(reply, "rb") as fh:
        return pickle.load(fh)


def traced_pass_child(request: Path) -> int:
    """Child side of `traced_pass_in_child`."""
    req = json.loads(request.read_text())
    out = traced_pass(Workload(**req["workload"]), req["work"], req["run_id"])
    with open(request.with_name("traced-reply.pickle"), "wb") as fh:
        pickle.dump(out, fh)
    return 0


def measure_traced(workload: Workload, seed: int, seconds: float, work: Path):
    """Traced run: per-layer metric values, attempted, failed and notes."""
    cli, _ = setup(workload, seed, work)
    verifier = Verifier(workload, work)
    untraced: List[float] = []
    traced: List[float] = []
    layers: List[Dict[str, float]] = []
    spans: List[tracing.Span] = []
    calib: List[float] = []
    mismatch = 0
    start = time.perf_counter()
    while True:
        result = workloads.run_pass(cli, workload, work)
        verifier.record(result)
        untraced.append(result.wall_s)
        run_id = "%s-seed%d-pass%d" % (workload.name, seed, len(traced))
        result, metrics, bad, pass_spans = traced_pass_in_child(workload, work, run_id)
        verifier.record(result)
        traced.append(result.wall_s)
        layers.append(metrics)
        spans.extend(pass_spans)
        if bad:
            mismatch += 1
        calib.append(calibrate())
        elapsed = time.perf_counter() - start
        if elapsed * (len(traced) + 1) / len(traced) > seconds:
            break
    check = verifier.finish()
    metrics = {k: statistics.median(p[k] for p in layers) for k in layers[0]}
    if check is not None and check.events is not None:
        # the trace tallies what tower.build returned; the stream file is what the CLI wrote
        if any(metrics["tower.events." + k] != v for k, v in check.events.items()):
            mismatch += 1
    if mismatch:
        verifier.failures["trace-count-mismatch"] += mismatch
    metrics["diagram.cert_ratio"] = check.cert_ratio if check and check.cert_ratio else 0.0
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    OUT.mkdir(exist_ok=True)
    span_file = OUT / ("trace-%s-seed%d.jsonl" % (workload.name, seed))
    tracing.write_spans(spans, span_file)
    notes = {"failures": dict(verifier.failures), "spans_file": str(span_file.relative_to(ROOT)),
             "traced_wall_s": spread(traced), "untraced_wall_s": spread(untraced),
             "calibration_s": spread(calib),
             "no_metric": {"barycentric": "no CLI pipeline calls it; only tests do",
                           "wait": "one process, one thread, no queue: nothing waits"}}
    return metrics, len(untraced) + len(traced), verifier.failed, notes


def context() -> Dict[str, object]:
    return {"git_commit": git_commit(), "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count()}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--traced-pass"]:
        return traced_pass_child(Path(argv[1]))
    args = ap.parse_args(argv)
    if args.workload == "all":
        # one process per workload, so each peak_rss_mb is that workload's alone
        return max(subprocess.run([sys.executable, __file__, "--workload", name,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)]).returncode
                   for name in workloads.WORKLOADS)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workload = workloads.WORKLOADS[args.workload]
    work = OUT / ("work-%s-%d-%d" % (workload.name, args.seed, os.getpid()))
    run = measure_traced if args.trace else measure
    try:
        values, attempted, failed, notes = run(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in wanted}
    units.update(PRINTED_ONLY if not args.trace else {})
    for name, unit in units.items():
        line = "%-38s %.6g %s" % (name, values[name], unit)
        if name in notes.get("samples", {}):
            r = notes["samples"][name]
            line += "  (median of %d; q1 %.6g, q3 %.6g)" % (r["n"], r["q1"], r["q3"])
        print(line)
    if "calibration_s" in notes:
        c = notes["calibration_s"]
        print("calibration loop       %.6g s  (median of %d; q1 %.6g, q3 %.6g; host drift, not a metric)"
              % (c["median"], c["n"], c["q1"], c["q3"]))
    if "cert_ratio" in notes:
        print("cert_ratio             %.6g  (achieved / claimed factor)" % notes["cert_ratio"])
    print("fail_frac              %.6g  (%d of %d passes failed)"
          % (failed / attempted, failed, attempted))
    print(json.dumps({"workload": workload.name, "n": workload.n, "d": workload.d,
                      "seed": args.seed, "notes": notes, "context": context()}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                                  for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
