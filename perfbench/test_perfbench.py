"""Tests of the benchmark's own code: python3 -m pytest perfbench"""

import dataclasses
import json
import sys

import pytest

import run
import tracing
import workloads


def test_generator_is_deterministic_per_seed():
    a = workloads.generate_points(20, 3, seed=7, instances=3)
    assert a == workloads.generate_points(20, 3, seed=7, instances=3)
    assert a != workloads.generate_points(20, 3, seed=8, instances=3)
    assert len(set(a)) == 3
    # the first set is the plain default_rng(seed) draw, whatever follows it
    assert workloads.generate_points(20, 3, seed=7, instances=1) == a[:1]
    rows = a[0].splitlines()
    assert len(rows) == 20 and all(len(r.split()) == 3 for r in rows)
    assert all(0.0 <= float(x) < 10.0 for r in rows for x in r.split())


def _snapshot():
    """Every object bound in a ripsapprox module or in a class whose methods get wrapped."""
    mods = [m for n, m in sys.modules.items() if n == "ripsapprox" or n.startswith("ripsapprox.")]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    geometry, tower = sys.modules["ripsapprox.geometry"], sys.modules["ripsapprox.tower"]
    for cls in (geometry.PointCloud, tower.EventStream):
        snap.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return snap


def test_wrappers_restore_the_original_functions():
    cli = run.import_cli()
    before = _snapshot()
    tracer = tracing.Tracer("t")
    tracer.install()
    try:
        during = _snapshot()
        # wrapped under the names callers use, not only where defined
        assert cli.reduce_filtration is not before[("ripsapprox.persistence", "reduce")]
        assert cli.reduce_filtration is during[("ripsapprox.persistence", "reduce")]
        assert during[("ripsapprox.tower", "spanned_faces")] is not \
            before[("ripsapprox.tower", "spanned_faces")]
        assert during[("PointCloud", "from_file")] is not before[("PointCloud", "from_file")]
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_covered_and_self_time_on_a_hand_built_tree():
    S = tracing.Span
    spans = [
        S(0, None, "r", "root", 0.0, 10.0, hot_s=0.5),
        S(1, 0, "r", "a", 1.0, 4.0),
        S(2, 0, "r", "b", 3.0, 6.0),       # overlaps a: [1, 6] is covered once
        S(3, 0, "r", "c", 9.0, 12.0),      # clipped to the parent's end
        S(4, 1, "r", "a1", 2.0, 3.0),      # grandchild: counts for a, not root
        S(5, None, "r", "leaf", 20.0, 21.5),
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - (5.0 + 1.0) - 0.5)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.5)
    assert tracing.covered([(1, 2), (1.5, 3), (5, 6)], 0, 5.5) == pytest.approx(2.5)


def _per_layer_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer"]}


TINY = {"tower-simplicial-d2": 12, "tower-cubical-d6": 4, "compare-linf-k1": 10,
        "compare-l2-k0": 12}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_smoke(name, trace, monkeypatch, capsys):
    tiny = dataclasses.replace(workloads.WORKLOADS[name], n=TINY[name], instances=2)
    monkeypatch.setitem(workloads.WORKLOADS, name, tiny)
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    if trace:
        assert set(result["metrics"]) == _per_layer_names()
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["cli.main.busy_s"] > 0 and m["tower.build.busy_s"] > 0
        assert m["tower.events.S"] + m["tower.events.I"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
