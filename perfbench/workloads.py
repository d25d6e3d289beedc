"""The four CLI pipelines the benchmark runs, their inputs and output checks.

Each workload is a list of `ripsapprox` CLI invocations run in-process
through `ripsapprox.cli.main`. Inputs are points drawn from
`numpy.random.default_rng(seed).uniform(0, 10)` and written with `%.17g`;
the program sees only that file. The tower shift seed is always
`--seed 0`, so the benchmark seed changes the points and nothing else.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import math
import os
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

# files a workload writes in its work directory
POINTS = "points.txt"
STREAM = "stream.txt"
BARCODE = "barcode.txt"
REPORT = "report.txt"


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    d: int
    # "tower-barcode", "tower-stats" or "compare"
    kind: str
    metric: str = "linf"
    k: int = 1
    # point sets per pass; summing over several keeps one seed's unusually
    # large or small instance from setting the whole run's time
    instances: int = 3

    def dirs(self, work: Path) -> List[Path]:
        return [work / str(i) for i in range(self.instances)]

    def steps(self, work: Path) -> List[List[str]]:
        """CLI argument lists of one pipeline pass, instance by instance."""
        return [argv for sub in self.dirs(work) for argv in self._instance_steps(sub)]

    def _instance_steps(self, sub: Path) -> List[List[str]]:
        pts, stream = str(sub / POINTS), str(sub / STREAM)
        if self.kind == "tower-barcode":
            return [["tower", pts, "--mode", "simplicial", "--k", str(self.k), "--seed", "0",
                     "--out", stream],
                    ["tower-barcode", stream, "--k", "1", "--out", str(sub / BARCODE)]]
        if self.kind == "tower-stats":
            return [["tower", pts, "--mode", "cubical", "--seed", "0", "--out", stream],
                    ["stats", stream, "--out", str(sub / REPORT)]]
        return [["compare", pts, "--k", str(self.k), "--metric", self.metric, "--seed", "0",
                 "--out", str(sub / REPORT)]]

    def primary_outputs(self) -> List[str]:
        """Files whose SHA-256 must repeat across passes of one seed."""
        if self.kind == "tower-barcode":
            return [STREAM, BARCODE]
        if self.kind == "tower-stats":
            return [STREAM, REPORT]
        return [REPORT]

    def tower_step(self, sub: Path) -> List[str]:
        """A `tower` call that writes the stream `compare` builds internally.

        That is the simplicial tower with skeleton min(k+1, d), so its
        events can be counted without wrapping anything in an untraced run.
        """
        return ["tower", str(sub / POINTS), "--mode", "simplicial",
                "--k", str(min(self.k + 1, self.d)), "--metric", self.metric, "--seed", "0",
                "--out", str(sub / STREAM)]


# Sizes are chosen so that one pass takes 8-13 s on a 2-CPU host, with
# enough point sets per pass that the sum varies little between seeds; the
# reasons for each pipeline are in BENCHMARK.json and perfbench/README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in [
    Workload("tower-simplicial-d2", n=160, d=2, kind="tower-barcode", k=2, instances=20),
    Workload("tower-cubical-d6", n=45, d=6, kind="tower-stats", k=0, instances=4),
    Workload("compare-linf-k1", n=70, d=2, kind="compare", metric="linf", k=1, instances=6),
    Workload("compare-l2-k0", n=200, d=2, kind="compare", metric="l2", k=0, instances=6),
]}


def generate_points(n: int, d: int, seed: int, instances: int = 1) -> List[str]:
    """Point file texts: `instances` sets of n rows of d uniform(0, 10) coordinates.

    All sets come from one generator, so set 0 does not depend on how
    many follow it.
    """
    rng = np.random.default_rng(seed)
    return ["".join(" ".join("%.17g" % x for x in row) + "\n"
                    for row in rng.uniform(0.0, 10.0, size=(n, d)))
            for _ in range(instances)]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    codes: List[int]
    stdout: str
    stderr: str
    error: Optional[str] = None  # exception type that left a step

    def failure(self) -> Optional[str]:
        if self.error is not None:
            return self.error
        for code in self.codes:
            if code != 0:
                return "exit-%d" % code
        return None


def run_pass(cli, workload: Workload, work: Path) -> PassResult:
    """Run every step through `cli.main`, capturing stdout and stderr.

    Stops at the first step that fails. The timed span covers argument
    parsing, file I/O and the computation, as a shell user would see it.
    """
    out, err = io.StringIO(), io.StringIO()
    codes: List[int] = []
    error = None
    gc.collect()  # every pass starts from a collected heap
    t0, c0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for argv in workload.steps(work):
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 1
            except Exception as e:  # a pass that raises is counted, never retried
                error = type(e).__name__
                traceback.print_exc()
                break
            codes.append(code)
            if code != 0:
                break
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return PassResult(wall, cpu, codes, out.getvalue(), err.getvalue(), error)


def stream_counts(text: str) -> Dict[str, int]:
    """S/I/C event counts read off the stream text, without the program's parser."""
    counts = {"S": 0, "I": 0, "C": 0}
    for line in text.splitlines()[1:]:
        counts[line[:1]] += 1
    return counts


def _summary_counts(stdout: str) -> List[Dict[str, int]]:
    # the `tower` summary lines "events: S=.. I=.. C=..", one per instance
    return [{k: int(v) for k, v in (t.split("=") for t in line.split()[1:])}
            for line in stdout.splitlines() if line.startswith("events: ")]


def _report_value(text: str, key: str) -> Optional[str]:
    for line in text.splitlines():
        if line.startswith(key + ": "):
            return line[len(key) + 2:]
    return None


@dataclass
class OutputCheck:
    """What one distinct set of outputs says; `problem` is None when correct."""
    problem: Optional[str]
    events: Optional[Dict[str, int]] = None
    cert_ratio: Optional[float] = None


def check_outputs(workload: Workload, work: Path, result: PassResult) -> OutputCheck:
    """Check the files of a pass that exited 0 against the workload's invariants."""
    if workload.kind == "compare":
        ratios = []
        for sub in workload.dirs(work):
            report = (sub / REPORT).read_text()
            if _report_value(report, "result") != "PASS":
                return OutputCheck("compare-not-pass")
            claimed = float(_report_value(report, "claimed factor"))
            ratios.append(float(_report_value(report, "achieved")) / claimed)
        return OutputCheck(None, cert_ratio=max(ratios))

    per_instance = [stream_counts((sub / STREAM).read_text()) for sub in workload.dirs(work)]
    events = {k: sum(c[k] for c in per_instance) for k in "SIC"}
    if _summary_counts(result.stdout) != per_instance:
        return OutputCheck("stream-counts", events)
    for sub in workload.dirs(work):
        problem = _check_instance(workload, sub)
        if problem is not None:
            return OutputCheck(problem, events)
    return OutputCheck(None, events)


def _check_instance(workload: Workload, sub: Path) -> Optional[str]:
    with open(sub / STREAM) as fh:
        head = fh.readline().split()
    if head[:3] != ["H", str(workload.n), str(workload.d)]:
        return "stream-header"
    if workload.kind == "tower-stats":
        if _report_value((sub / REPORT).read_text(), "result") != "PASS":
            return "stats-not-pass"
        return None
    # reduced dim-0 barcode of n separate points that end connected:
    # exactly n-1 finite bars, each with birth < death
    dim0 = 0
    for line in (sub / BARCODE).read_text().splitlines():
        p, b, d = line.split()
        if float(b) >= float(d):
            return "barcode-empty-bar"
        if p == "0":
            dim0 += 1
            if not math.isfinite(float(d)):
                return "barcode-infinite-dim0"
    if dim0 != workload.n - 1:
        return "barcode-dim0-count"
    return None


def digests(workload: Workload, work: Path) -> Tuple[str, ...]:
    return tuple(sha256(sub / name) for sub in workload.dirs(work)
                 for name in workload.primary_outputs())


def write_points(workload: Workload, seed: int, work: Path) -> None:
    texts = generate_points(workload.n, workload.d, seed, workload.instances)
    for sub, text in zip(workload.dirs(work), texts):
        os.makedirs(sub, exist_ok=True)
        (sub / POINTS).write_text(text)
