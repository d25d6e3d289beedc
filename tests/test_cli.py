import hashlib
import importlib.util
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from ripsapprox import cli
from ripsapprox.cli import (
    EXIT_CHECK_FAILED,
    EXIT_GUARDRAIL,
    EXIT_IO,
    EXIT_MALFORMED,
    EXIT_OK,
    EXIT_PARSE,
    main,
)
from ripsapprox.persistence import Barcode
from ripsapprox.tower import EventStream

from conftest import (CUBICAL_DIAGONAL_CONTRACTION, CUBICAL_LONE_SQUARE, cli_env,
                      mutated_stream, random_cloud)


def write_points(tmp_path, rows, name="pts.txt"):
    f = tmp_path / name
    f.write_text("\n".join(" ".join("%.17g" % x for x in row) for row in rows) + "\n")
    return str(f)


def write_cloud(tmp_path, seed, n, d, name="pts.txt"):
    P = random_cloud(seed, n, d)
    return write_points(tmp_path, P.points, name=name)


# --- tower ---


def test_tower_two_points(tmp_path, capsys):
    pts = write_points(tmp_path, [[0.0], [1.0]])
    out = tmp_path / "stream.txt"
    assert main(["tower", pts, "--seed", "0", "--out", str(out)]) == EXIT_OK
    stream = EventStream.parse(out.read_text())
    assert stream.n == 2 and stream.counts()["I"] >= 2
    summary = capsys.readouterr().out
    assert "tower:" in summary and "events:" in summary


def test_tower_stdout_and_summary_split(tmp_path, capsys):
    pts = write_points(tmp_path, [[0.0], [1.0]])
    assert main(["tower", pts, "--seed", "0"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith("H 2 1 ")
    assert "tower:" in captured.err and "tower:" not in captured.out


def test_tower_deterministic_bytes(tmp_path):
    pts = write_cloud(tmp_path, 0, 8, 2)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["tower", pts, "--seed", "9", "--out", str(a)]) == EXIT_OK
    assert main(["tower", pts, "--seed", "9", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_tower_guardrails(tmp_path):
    wide = write_points(tmp_path, [[0.0] * 33, [1.0] + [0.0] * 32])
    assert main(["tower", wide, "--seed", "0"]) == EXIT_GUARDRAIL

    pts = write_cloud(tmp_path, 1, 6, 2)
    assert main(["tower", pts, "--seed", "0", "--k", "9"]) == EXIT_GUARDRAIL
    assert main(["tower", pts, "--seed", "0", "--guard-cells", "3"]) == EXIT_GUARDRAIL

    many = write_points(tmp_path, [[float(i)] for i in range(1001)])
    assert main(["tower", many, "--seed", "0"]) == EXIT_GUARDRAIL


def test_tower_missing_file(tmp_path):
    assert main(["tower", str(tmp_path / "nope.txt")]) == EXIT_IO


def test_tower_unparsable_points(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("1 banana\n")
    assert main(["tower", str(f)]) == EXIT_PARSE


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["tower"])  # missing positional
    assert exc.value.code == 2


# --- seed resolution ---


def test_seed_env_fallback(tmp_path, monkeypatch):
    pts = write_points(tmp_path, [[0.0], [1.0]])
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    monkeypatch.setenv("RIPSAPPROX_SEED", "77")
    assert main(["tower", pts, "--out", str(a)]) == EXIT_OK
    monkeypatch.delenv("RIPSAPPROX_SEED")
    assert main(["tower", pts, "--seed", "77", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert EventStream.parse(a.read_text()).seed == 77


def test_seed_flag_beats_env(tmp_path, monkeypatch):
    pts = write_points(tmp_path, [[0.0], [1.0]])
    out = tmp_path / "a.txt"
    monkeypatch.setenv("RIPSAPPROX_SEED", "5")
    assert main(["tower", pts, "--seed", "8", "--out", str(out)]) == EXIT_OK
    assert EventStream.parse(out.read_text()).seed == 8


def test_seed_env_invalid(tmp_path, monkeypatch, capsys):
    pts = write_points(tmp_path, [[0.0], [1.0]])
    monkeypatch.setenv("RIPSAPPROX_SEED", "not-a-number")
    with pytest.raises(SystemExit) as exc:
        main(["tower", pts])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "RIPSAPPROX_SEED" in err and "not-a-number" in err
    assert err.count("\n") == 1


# --- rips barcode ---


def test_rips_barcode_two_points(tmp_path, capsys):
    pts = write_points(tmp_path, [[0.0], [1.0]])
    assert main(["rips-barcode", pts]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == "0 0 0.5\n"
    assert "rips:" in captured.err


def test_rips_barcode_single_point(tmp_path, capsys):
    pts = write_points(tmp_path, [[2.5, 1.0]])
    assert main(["rips-barcode", pts]) == EXIT_OK
    assert capsys.readouterr().out == ""


def test_rips_barcode_guardrail(tmp_path):
    pts = write_cloud(tmp_path, 2, 30, 2)
    assert main(["rips-barcode", pts, "--k", "3", "--guard-cells", "100"]) == EXIT_GUARDRAIL


def test_compare_guardrail_on_exact_side(tmp_path, capsys):
    # the tower fits; the exact side's 30 + 435 + 4060 simplices do not
    pts = write_cloud(tmp_path, 4, 30, 1)
    assert main(["compare", pts, "--seed", "1", "--guard-cells", "4524"]) == EXIT_GUARDRAIL
    assert capsys.readouterr().err == "guardrail: Rips filtration needs 4525 simplices > 4524\n"
    assert main(["compare", pts, "--seed", "1", "--guard-cells", "4525"]) == EXIT_OK


def test_compare_checks_exact_side_before_the_tower(tmp_path, capsys, monkeypatch):
    def no_tower(*args, **kwargs):
        raise AssertionError("tower built before the exact side's count")

    monkeypatch.setattr(cli, "build_cubical_tower", no_tower)
    pts = write_cloud(tmp_path, 4, 30, 1)
    assert main(["compare", pts, "--seed", "1", "--guard-cells", "4524"]) == EXIT_GUARDRAIL
    assert capsys.readouterr().err == "guardrail: Rips filtration needs 4525 simplices > 4524\n"


# --- tower barcode ---


def build_stream_file(tmp_path, seed=0, n=7, d=2, mode="simplicial", k=1):
    pts = write_cloud(tmp_path, seed, n, d)
    out = tmp_path / ("stream-%s-%d.txt" % (mode, seed))
    args = ["tower", pts, "--seed", str(seed), "--mode", mode, "--k", str(k),
            "--out", str(out)]
    assert main(args) == EXIT_OK
    return pts, str(out)


def test_tower_barcode_runs(tmp_path, capsys):
    _, stream = build_stream_file(tmp_path)
    out = tmp_path / "bc.txt"
    assert main(["tower-barcode", stream, "--out", str(out)]) == EXIT_OK
    bc = Barcode.parse(out.read_text())
    assert bc.total() >= 1
    assert all(p <= 1 for p in bc.dimensions())
    assert "tower-barcode:" in capsys.readouterr().out


def test_tower_barcode_deterministic(tmp_path):
    _, stream = build_stream_file(tmp_path, seed=3)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["tower-barcode", stream, "--out", str(a)]) == EXIT_OK
    assert main(["tower-barcode", stream, "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_tower_barcode_k_capped_by_stream(tmp_path):
    _, stream = build_stream_file(tmp_path, k=1)
    out = tmp_path / "bc.txt"
    assert main(["tower-barcode", stream, "--k", "5", "--out", str(out)]) == EXIT_OK
    bc = Barcode.parse(out.read_text())
    assert all(p <= 1 for p in bc.dimensions())


def test_negative_k_exits_parse(tmp_path, capsys):
    pts, stream = build_stream_file(tmp_path)
    for args in (["tower", pts], ["tower", pts, "--mode", "cubical"], ["rips-barcode", pts],
                 ["compare", pts], ["tower-barcode", stream]):
        assert main(args + ["--k", "-1"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("parse error: k must be")


def test_tower_barcode_refuses_cubical_stream(tmp_path, capsys):
    # the library reads cubical streams; the command stays simplicial
    _, stream = build_stream_file(tmp_path, mode="cubical")
    for extra in ([], ["--k", "0"]):
        assert main(["tower-barcode", stream] + extra) == EXIT_MALFORMED
        err = capsys.readouterr().err
        assert err == "malformed stream: tower persistence needs a simplicial stream\n"


def test_tower_barcode_malformed_stream(tmp_path):
    _, stream = build_stream_file(tmp_path)
    broken = tmp_path / "broken.txt"
    broken.write_text(Path(stream).read_text() + "I 0 0\n")  # duplicate id
    assert main(["tower-barcode", str(broken)]) == EXIT_MALFORMED
    garbage = tmp_path / "garbage.txt"
    garbage.write_text("not a stream\n")
    assert main(["tower-barcode", str(garbage)]) == EXIT_MALFORMED


# --- compare ---


def test_compare_passes_linf(tmp_path, capsys):
    pts = write_cloud(tmp_path, 4, 10, 2)
    assert main(["compare", pts, "--seed", "1"]) == EXIT_OK
    report = capsys.readouterr().out
    assert "result: PASS" in report and "claimed factor: 2" in report


def test_compare_passes_l2(tmp_path, capsys):
    pts = write_cloud(tmp_path, 5, 10, 2)
    assert main(["compare", pts, "--metric", "l2", "--seed", "1"]) == EXIT_OK
    report = capsys.readouterr().out
    assert "result: PASS" in report


def test_compare_finishes_past_the_flag_tower(tmp_path, capsys):
    # compare builds the cubical tower, n*2^O(d) cells: 26,083 here, and
    # 36,050 simplices on the exact side. The flag tower of skeleton 2
    # prices over 2,300,000 cells: exit 5 under this guard, gigabytes under
    # the default one.
    pts = write_points(tmp_path, np.random.default_rng(0).uniform(0, 10, (60, 6)))
    assert main(["compare", pts, "--k", "1", "--guard-cells", "100000"]) == EXIT_OK
    assert "result: PASS" in capsys.readouterr().out


# --- stats ---


def test_stats_simplicial_all_pass(tmp_path, capsys):
    pts, stream = build_stream_file(tmp_path, seed=6)
    assert main(["stats", stream]) == EXIT_OK
    report = capsys.readouterr().out
    assert "result: PASS" in report and "FAIL" not in report

    assert main(["stats", stream, "--points", pts]) == EXIT_OK
    report = capsys.readouterr().out
    assert "rebuild reproduces stream" in report
    assert "active-face inclusions" in report
    assert "result: PASS" in report


def test_stats_passes_k_capped_stream(tmp_path, capsys):
    # the final snapshot of a k=1 stream is the 1-skeleton of a
    # subdivided square: b_1 = 8 there, which is no failure below k = d
    pts = write_points(tmp_path, np.random.default_rng(5).uniform(0, 10, (8, 2)))
    stream = str(tmp_path / "stream.txt")
    assert main(["tower", pts, "--k", "1", "--out", stream]) == EXIT_OK
    capsys.readouterr()
    assert main(["stats", stream]) == EXIT_OK
    assert "check final scale reduced-acyclic: 0 vs 0 PASS" in capsys.readouterr().out


def test_stats_passes_every_cap_below_d(tmp_path, capsys):
    for d in (2, 3):
        for seed in range(20):
            pts = write_cloud(tmp_path, 700 + seed, 8, d)
            for k in range(d):
                stream = str(tmp_path / ("stream-%d-%d-%d.txt" % (d, seed, k)))
                assert main(["tower", pts, "--k", str(k), "--out", stream]) == EXIT_OK
                assert main(["stats", stream]) == EXIT_OK, (d, seed, k)
    assert "FAIL" not in capsys.readouterr().out


def test_stats_cubical_all_pass(tmp_path, capsys):
    pts, stream = build_stream_file(tmp_path, seed=7, mode="cubical")
    assert main(["stats", stream, "--points", pts]) == EXIT_OK
    report = capsys.readouterr().out
    assert "cell inclusions" in report and "result: PASS" in report


def test_stats_cubical_rebuild_writes_k_zero(tmp_path, capsys):
    # a cubical tower has no skeleton cap: its header k is 0, and the
    # rebuild must not copy a different k from the stream under audit
    pts, stream = build_stream_file(tmp_path, seed=0, n=12, mode="cubical")
    text = Path(stream).read_text()
    head, rest = text.split("\n", 1)
    fields = head.split()
    assert fields[3] == "0"
    fields[3] = "1"
    edited = tmp_path / "k1.txt"
    edited.write_text(" ".join(fields) + "\n" + rest)
    capsys.readouterr()
    assert main(["stats", str(edited), "--points", pts]) == EXIT_CHECK_FAILED
    assert "check rebuild reproduces stream: 0 vs 1 FAIL" in capsys.readouterr().out
    assert main(["stats", stream, "--points", pts]) == EXIT_OK


def load_tracing(monkeypatch):
    """perfbench's tracing module, loaded by path; the tracer wraps the
    library's functions and reads their results, so a result whose shape
    changes breaks the traced tests here first."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_tower_and_stats_points(tmp_path, capsys, monkeypatch):
    tracing = load_tracing(monkeypatch)
    pts = write_cloud(tmp_path, 0, 12, 2)
    stream = str(tmp_path / "stream.txt")
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        assert cli.main(["tower", pts, "--k", "1", "--out", stream]) == EXIT_OK
        assert cli.main(["stats", stream, "--points", pts]) == EXIT_OK
    finally:
        tracer.uninstall()
    assert "result: PASS" in capsys.readouterr().out
    assert [s.name for s in tracer.spans].count("cli.main") == 2
    assert not tracing.count_mismatch(tracer)


def test_traced_tower_barcode_and_compare(tmp_path, capsys, monkeypatch):
    tracing = load_tracing(monkeypatch)
    pts = write_cloud(tmp_path, 0, 12, 2)
    stream = str(tmp_path / "stream.txt")
    assert main(["tower", pts, "--k", "1", "--out", stream]) == EXIT_OK
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        assert cli.main(["tower-barcode", stream]) == EXIT_OK
        assert cli.main(["compare", pts, "--k", "1"]) == EXIT_OK
    finally:
        tracer.uninstall()
    assert "result: PASS" in capsys.readouterr().out
    spans = [s for s in tracer.spans if s.name == "persistence.tower_barcode"]
    assert len(spans) == 2 and all("bars" in s.attrs for s in spans)
    assert not tracing.count_mismatch(tracer)


def test_stats_rebuilds_ladder_boundary(tmp_path, capsys):
    # lambda*2^5 equals diam here while cp*2^5 falls below the rounded
    # 3*d*diam: the derived and the --lambda ladder must both stop at m = 5
    pts = write_points(tmp_path, [[0.0, 0.0], [0.8897544426872198, 0.0],
                                  [4.745357027665173, 0.0]])
    stream = tmp_path / "stream.txt"
    assert main(["tower", pts, "--k", "1", "--out", str(stream)]) == EXIT_OK
    assert EventStream.parse(stream.read_text()).m == 5
    capsys.readouterr()
    assert main(["stats", str(stream), "--points", pts]) == EXIT_OK
    assert "result: PASS" in capsys.readouterr().out


def test_stats_flags_corrupted_stream(tmp_path, capsys):
    pts, stream = build_stream_file(tmp_path, seed=8, n=2, d=1)
    text = Path(stream).read_text()
    stream_obj = EventStream.parse(text)
    top = 2.0 * max(stream_obj.scale_values())
    next_id = 1 + max(e.id for e in stream_obj.events if hasattr(e, "id"))
    extra = ["S %.17g" % top] + \
        ["I %d 0" % (next_id + i) for i in range(13)]
    bad = tmp_path / "corrupt.txt"
    bad.write_text(text + "\n".join(extra) + "\n")
    assert main(["stats", str(bad)]) == EXIT_CHECK_FAILED
    report = capsys.readouterr().out
    assert "FAIL" in report and "result: FAIL" in report


def test_stats_points_needs_byte_equality(tmp_path, capsys):
    pts = write_points(tmp_path, np.random.default_rng(3).uniform(0, 10, (12, 2)))
    stream = tmp_path / "s.txt"
    assert main(["tower", pts, "--k", "1", "--out", str(stream)]) == EXIT_OK
    spaced = tmp_path / "s_sp.txt"
    spaced.write_text("".join(line + " \n" for line in stream.read_text().splitlines()))
    capsys.readouterr()
    assert main(["stats", str(spaced), "--points", pts]) == EXIT_CHECK_FAILED
    report = capsys.readouterr().out
    assert "check rebuild reproduces stream: 0 vs 1 FAIL" in report
    assert main(["stats", str(stream), "--points", pts]) == EXIT_OK


def test_stats_fails_empty_final_complex(tmp_path, capsys):
    # the empty complex is not acyclic: its reduced b_-1 is 1
    f = tmp_path / "empty.txt"
    for head, check in (("H 3 2 1 linf 0 1 1 simplicial", "reduced-acyclic: 1 vs 0"),
                        ("H 3 2 0 linf 0 1 1 cubical", "connected: 0 vs 1")):
        f.write_text(head + "\n")
        assert main(["stats", str(f)]) == EXIT_CHECK_FAILED
        report = capsys.readouterr().out
        assert "live-vertices=0" in report
        assert "check final scale %s FAIL" % check in report


# twelve integer points on the circle of radius 5, and one far point
RING_AND_POINT = [(5, 0), (4, 3), (3, 4), (0, 5), (-3, 4), (-4, 3), (-5, 0), (-4, -3),
                  (-3, -4), (0, -5), (3, -4), (4, -3), (20, 20)]


@pytest.mark.parametrize("rows, tower_args, check, digest", [
    # cubical, d=3: six components at scale 0
    (random_cloud(22, 10, 3).points, ["--mode", "cubical", "--lambda", "1.5"],
     "connected: 6 vs 1", "243edb43674751b28414a6e72b308973d2b47e2ecf848e9b1fa4b05fee63b392"),
    # simplicial, k = d = 2: the ring's loop and the far point's component
    (RING_AND_POINT, ["--k", "2", "--lambda", "2.5"],
     "reduced-acyclic: 2 vs 0", "7a9ff5c0a2b654baa4b1dd8153016271c116acff46aafd45a4cf228456994e56"),
    # simplicial, k=1 < d: b_1 is not counted in a 1-skeleton, b_0 is
    (RING_AND_POINT, ["--k", "1", "--lambda", "2.5"],
     "reduced-acyclic: 1 vs 0", "b86e23ae0432c93849377eccab8ba7eb66d244671244f8cd95c3132cd82728be"),
])
def test_stats_pins_complexes_that_do_not_collapse(tmp_path, capsys, rows, tower_args, check,
                                                   digest):
    # a stream cut at scale 0 keeps its final complex uncollapsed
    pts = write_points(tmp_path, rows)
    stream, report = str(tmp_path / "stream.txt"), tmp_path / "report.txt"
    assert main(["tower", pts, "--seed", "3", "--max-scales", "0", *tower_args,
                 "--out", stream]) == EXIT_OK
    assert main(["stats", stream, "--out", str(report)]) == EXIT_CHECK_FAILED
    assert "check final scale %s FAIL" % check in report.read_text()
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


def test_stats_malformed_exit(tmp_path):
    f = tmp_path / "junk.txt"
    f.write_text("H 1 1 1\n")
    assert main(["stats", str(f)]) == EXIT_MALFORMED


@pytest.mark.parametrize("text", [
    "H 2 1 1 linf 0 1 1 simplicial\nS nan\nI 0 0\nI 1 0\n",
    "H -2 1 1 linf 0 1 1 simplicial\nS 1\nI 0 0\nI 1 0\n",
    "H 4 2 0 linf 0 1 1 cubical\nS 1\nI 0 0\nI 1 0\nI 2 -1 0 1\n",
    "H 3 2 2 linf 0 1 1 simplicial\nS 1\nI 0 0\nI 1 0\nI 2 0\nI 3 2 0 1 2\n",
    # cubical facet closure, checked on the final complex: a square whose
    # diagonal contracts to 3 corners, and a square without its edges
    CUBICAL_DIAGONAL_CONTRACTION,
    CUBICAL_LONE_SQUARE,
    # numbers are plain ASCII decimals: no digit-group underscores, no
    # non-ASCII digits (U+0660 is ARABIC-INDIC DIGIT ZERO)
    "H 1 1 1 linf 0 1 1 simplicial\nS 1\nI 0_0 0\n",
    "H 1 1 1 linf 0 1 1 simplicial\nS 1\nI \u0660 0\n",
    "H 1 1 1 linf 0 1 1 simplicial\nS 1_0\nI 0 0\n",
    "H 1 1 1 linf 0 1_0 1 simplicial\nS 1\nI 0 0\n",
    # a line ends at \n only: these are one malformed line 2, not two events
    "H 1 1 0 linf 0 1 0 simplicial\nS 1\x1cI 0 0\n",
    "H 1 1 0 linf 0 1 0 simplicial\nS 1\rI 0 0\n",
    # within a line no control character but tab: split() would read
    # these as a space
    "H 1 1 1 linf 0 1 1 simplicial\nS 1\nI 0\x1c0\n",
    "H 1 1 0 linf 0 1 0 simplicial\nS 1\n\x0cI 0 0\n",
])
def test_malformed_stream_values_exit(tmp_path, capsys, text):
    f = tmp_path / "bad.txt"
    f.write_text(text, encoding="utf-8")
    for args in (["stats"], ["tower-barcode"], ["tower-barcode", "--k", "0"]):
        assert main(args[:1] + [str(f)] + args[1:]) == EXIT_MALFORMED
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("malformed stream: ")


def test_non_utf8_stream_exits_malformed(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_bytes(b"H 1 1 1 linf 0 1 1 simplicial\nS 1\nI \xff 0\n")
    for cmd in ("stats", "tower-barcode"):
        assert main([cmd, str(f)]) == EXIT_MALFORMED
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("malformed stream: line 3: ")


@settings(max_examples=200, deadline=None)
@given(text=mutated_stream())
def test_mutated_streams_exit_cleanly(tmp_path_factory, text):
    f = tmp_path_factory.getbasetemp() / "mutated.txt"
    f.write_text(text)
    for cmd in ("stats", "tower-barcode"):
        assert main([cmd, str(f)]) in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_MALFORMED)


# --- survival ---


def test_survival_command(tmp_path, capsys):
    assert main(["survival", "--d", "8", "--k", "2", "--trials", "400",
                 "--seed", "3"]) == EXIT_OK
    report = capsys.readouterr().out
    assert "result: PASS" in report and "mean=" in report

    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["survival", "--trials", "200", "--seed", "5", "--out", str(a)]) == EXIT_OK
    assert main(["survival", "--trials", "200", "--seed", "5", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()

    assert main(["survival", "--d", "33", "--k", "2", "--trials", "10"]) == EXIT_GUARDRAIL


def test_coordinate_overflow_exit(tmp_path, capsys):
    pts = write_points(tmp_path, [[1e308, 1e308], [-1e308, -1e308], [0.0, 1.0]])
    for args in (["tower", pts], ["compare", pts, "--metric", "l2"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: distance overflow: coordinates too far apart for float64\n"


@pytest.mark.parametrize("rows, extra", [
    ([[0.0, 0.0], [1.0, 0.0]], ["--lambda", "inf"]),
    ([[0.0, 0.0], [1.0, 0.0]], ["--lambda", "nan"]),
    ([[0.0, 0.0], [1.0, 0.0]], ["--lambda", "1e-320"]),  # coordinates overflow lambda/2 units
    ([[0.0, 0.0], [1.0, 0.0]], ["--lambda", "5e-324"]),  # lambda/2 rounds to 0
    ([[0.0], [1e-300], [1e300]], []),
    ([[0.0], [5e-324], [1.0]], []),  # cp/(3d) rounds to 0
    ([[0.0], [1.7e308]], []),  # lambda*2^m overflows before it covers diam
    ([[1.5e308]], []),
], ids=["lambda-inf", "lambda-nan", "lambda-1e-320", "lambda-5e-324", "spread-1e600",
        "cp-subnormal", "top-overflow", "single-1.5e308"])
def test_extreme_ladder_exit(tmp_path, capsys, rows, extra):
    pts = write_points(tmp_path, rows)
    assert main(["tower", pts] + extra) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("parse error: ")


def test_extreme_ladder_header_exit(tmp_path, capsys):
    pts = write_points(tmp_path, [[0.0, 0.0], [1.0, 0.0]])
    stream = tmp_path / "stream.txt"
    stream.write_text("H 2 2 1 linf 0 1e-320 1 simplicial\nS 1e-320\nI 0 0\nI 1 0\n")
    assert main(["stats", str(stream), "--points", pts]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and captured.err.startswith("parse error: ")


def test_ladder_past_two_to_the_1023(tmp_path, capsys):
    # lambda*2^1024 = 3 covers diam 2 while 2^1024 itself overflows float64
    pts = write_points(tmp_path, [[-1.0], [1.0]])
    out = tmp_path / "stream.txt"
    lam = "%.17g" % (1.5 * 2.0 ** -1023)
    for mode in ("simplicial", "cubical"):
        assert main(["tower", pts, "--lambda", lam, "--mode", mode, "--out", str(out)]) == EXIT_OK
        stream = EventStream.parse(out.read_text())
        assert stream.m == 1024 and max(stream.scale_values()) == 3.0
        assert main(["stats", str(out), "--points", pts]) == EXIT_OK
    capsys.readouterr()


# --- plumbing ---


def test_out_path_io_error(tmp_path):
    pts = write_points(tmp_path, [[0.0], [1.0]])
    missing_dir = tmp_path / "no" / "such" / "dir" / "o.txt"
    assert main(["tower", pts, "--out", str(missing_dir)]) == EXIT_IO


def test_module_entrypoint_runs(tmp_path):
    pts = write_points(tmp_path, [[0.0], [1.0]])
    proc = subprocess.run([sys.executable, "-m", "ripsapprox.cli", "rips-barcode", pts],
                          capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 0
    assert proc.stdout == "0 0 0.5\n"
