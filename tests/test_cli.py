import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

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

from conftest import mutated_stream, random_cloud


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
    for args in (["tower", pts], ["rips-barcode", pts], ["compare", pts],
                 ["tower-barcode", stream]):
        assert main(args + ["--k", "-1"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("parse error: k must be")


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


def test_stats_cubical_all_pass(tmp_path, capsys):
    pts, stream = build_stream_file(tmp_path, seed=7, mode="cubical")
    assert main(["stats", stream, "--points", pts]) == EXIT_OK
    report = capsys.readouterr().out
    assert "cell inclusions" in report and "result: PASS" in report


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


def test_stats_malformed_exit(tmp_path):
    f = tmp_path / "junk.txt"
    f.write_text("H 1 1 1\n")
    assert main(["stats", str(f)]) == EXIT_MALFORMED


@pytest.mark.parametrize("text", [
    "H 2 1 1 linf 0 1 1 simplicial\nS nan\nI 0 0\nI 1 0\n",
    "H -2 1 1 linf 0 1 1 simplicial\nS 1\nI 0 0\nI 1 0\n",
    "H 4 2 0 linf 0 1 1 cubical\nS 1\nI 0 0\nI 1 0\nI 2 -1 0 1\n",
    "H 3 2 2 linf 0 1 1 simplicial\nS 1\nI 0 0\nI 1 0\nI 2 0\nI 3 2 0 1 2\n",
])
def test_malformed_stream_values_exit(tmp_path, capsys, text):
    f = tmp_path / "bad.txt"
    f.write_text(text)
    for args in (["stats"], ["tower-barcode"], ["tower-barcode", "--k", "0"]):
        assert main(args[:1] + [str(f)] + args[1:]) == EXIT_MALFORMED
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("malformed stream: ")


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


def test_coordinate_overflow_exit(tmp_path, capsys):
    pts = write_points(tmp_path, [[1e308, 1e308], [-1e308, -1e308], [0.0, 1.0]])
    for args in (["tower", pts], ["compare", pts, "--metric", "l2"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: distance overflow: coordinates too far apart for float64\n"


# --- plumbing ---


def test_out_path_io_error(tmp_path):
    pts = write_points(tmp_path, [[0.0], [1.0]])
    missing_dir = tmp_path / "no" / "such" / "dir" / "o.txt"
    assert main(["tower", pts, "--out", str(missing_dir)]) == EXIT_IO


def test_module_entrypoint_runs(tmp_path):
    pts = write_points(tmp_path, [[0.0], [1.0]])
    proc = subprocess.run([sys.executable, "-m", "ripsapprox.cli", "rips-barcode", pts],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "0 0 0.5\n"
