"""End-to-end checks, one per release criterion, each reporting a single
PASS/FAIL line on the terminal."""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from ripsapprox.barycentric import build_order_complex
from ripsapprox.cubical import closure
from ripsapprox.diagram import certify_approximation
from ripsapprox.geometry import PointCloud, spread
from ripsapprox.lattice import (
    Face,
    build_frames,
    face_map_g,
    face_vertices,
    shift_signs,
    subfaces,
    vertex_map_g,
)
from ripsapprox.persistence import (
    betti,
    coning_oracle,
    reduce as reduce_filtration,
    rips_filtration,
    tower_barcode,
    _cells_from_simplices,
    _reduce_cells,
)
from ripsapprox.tower import (
    Include,
    active_inclusion_bound,
    build_cubical_tower,
    build_simplicial_tower,
    cubical_cell_bound,
    simplicial_inclusion_bound,
    snapshots,
    survival_experiment,
)

from conftest import cli_env, definition_complexes, random_cloud
from test_diagram import _bottleneck_whole_list


def report(capsys, num, ok, detail):
    line = "CRITERION %d: %s  (%s)" % (num, "PASS" if ok else "FAIL", detail)
    with capsys.disabled():
        print(line)
    assert ok, line


# --- criteria 1 and 2: approximation factors against exact Rips ---

SWEEP_NS = range(5, 26, 2)
SWEEP_DS = (2, 3)
SWEEP_SEEDS = range(5)


@pytest.fixture(scope="module")
def approximation_sweep():
    """One tower per configuration, certified against both Rips baselines.

    The tower complex at scale a carries the Rips structure of some scale
    in [a/2, a], and right-constant scale sampling doubles the slack on
    the left; dividing the tower's scale axis by 4/c recentres it so both
    interleaving directions carry the claimed factor c.
    """
    rows = []
    for n in SWEEP_NS:
        for d in SWEEP_DS:
            for seed in SWEEP_SEEDS:
                P = random_cloud([seed, n, d], n, d)
                stream = build_simplicial_tower(P, 2, seed)
                tbc = tower_barcode(stream, 1)
                for metric in ("linf", "l2"):
                    rbc = reduce_filtration(rips_filtration(P, metric, 1),
                                            homology_cap=1)
                    claim = 2.0 if metric == "linf" else 2.0 * d ** 0.25
                    balanced = tbc.scaled(claim / 4.0)
                    cert = certify_approximation(balanced, rbc, claim)
                    # the grouped matching equals the whole-list search
                    for p, c in cert.per_dim.items():
                        assert c == _bottleneck_whole_list(balanced.intervals(p),
                                                           rbc.intervals(p)), (n, d, seed, p)
                    rows.append((n, d, seed, metric, claim, cert))
    return rows


def test_criterion_1_approximation_factor_linf(approximation_sweep, capsys):
    t0 = time.monotonic()
    rows = [r for r in approximation_sweep if r[3] == "linf"]
    bad = [r for r in rows if not r[5].passed]
    worst = max(r[5].achieved / r[4] for r in rows)
    report(capsys, 1, len(rows) >= 20 and not bad,
           "%d configs, worst c*/2 = %.4f, %d failures, %.1fs"
           % (len(rows), worst, len(bad), time.monotonic() - t0))


def test_criterion_2_approximation_factor_l2(approximation_sweep, capsys):
    rows = [r for r in approximation_sweep if r[3] == "l2"]
    bad = [r for r in rows if not r[5].passed]
    worst = max(r[5].achieved / r[4] for r in rows)
    report(capsys, 2, len(rows) >= 20 and not bad,
           "%d configs, worst c*/claim = %.4f, %d failures" % (len(rows), worst, len(bad)))


# --- criteria 3 and 4: stream size bounds and ladder length ---


@pytest.fixture(scope="module")
def stream_corpus():
    out = []
    for i in range(100):
        rng = np.random.default_rng(1000 + i)
        n = int(rng.integers(2, 15))
        d = int(rng.integers(1, 5))
        P = random_cloud(1000 + i, n, d)
        audit = []
        if i % 2 == 0:
            k = int(rng.integers(1, min(d, 3) + 1))
            stream = build_simplicial_tower(P, k, seed=i, audit=audit)
        else:
            stream = build_cubical_tower(P, seed=i, audit=audit)
        out.append((P, stream, audit))
    return out


def test_criterion_3_size_bounds(stream_corpus, capsys):
    violations = 0
    for P, stream, audit in stream_corpus:
        n, d, k = stream.n, stream.d, stream.k
        if sum(sc.new_active for sc in audit) > active_inclusion_bound(n, d):
            violations += 1
        cells = stream.includes_by_dim().get(0, 0) if stream.mode == "simplicial" \
            else stream.counts()["I"]
        if cells > cubical_cell_bound(n, d):
            violations += 1
        if stream.mode == "simplicial":
            sb = simplicial_inclusion_bound(n, d, k)
            if sb is not None and stream.counts()["I"] > sb:
                violations += 1
    report(capsys, 3, violations == 0,
           "%d streams, %d bound violations" % (len(stream_corpus), violations))


def test_criterion_4_scale_ladder_length(stream_corpus, capsys):
    violations = 0
    for P, stream, audit in stream_corpus:
        bound = math.ceil(math.log2(3 * P.d * spread(P, "linf"))) + 1
        if stream.counts()["S"] > bound:
            violations += 1
    report(capsys, 4, violations == 0,
           "%d streams, %d over the log ladder bound" % (len(stream_corpus), violations))


# --- criterion 5: collapse-time statistics ---


def test_criterion_5_collapse_statistics(capsys):
    trials = 1000
    failures = []
    means = {}
    for k in (1, 2, 4):
        hist = survival_experiment(8, k, trials, seed=k)
        mean = sum(y * c for y, c in hist.items()) / trials
        means[k] = mean
        for j in range(1, 13):
            obs = sum(c for y, c in hist.items() if y > j) / trials
            p = min(k / 2.0 ** j, 1.0)
            bound = p + 3.0 * math.sqrt(p * (1 - p) / trials)
            if obs > bound:
                failures.append("tail k=%d j=%d" % (k, j))
        if k == 1:
            var = sum(c * (y - mean) ** 2 for y, c in hist.items()) / trials
            if mean > 2.0 + 3.0 * math.sqrt(var / trials):
                failures.append("mean k=1")
        elif mean > 3.0 * math.log2(k):
            failures.append("mean k=%d" % k)
    report(capsys, 5, not failures,
           "means %s, failures: %s" %
           ({k: round(v, 3) for k, v in means.items()}, failures or "none"))


# --- criterion 6: grid map containment and lifting properties by exhaustive random enumeration ---


def _random_frames(rng):
    d = int(rng.integers(1, 7))
    m = int(rng.integers(1, 6))
    lam = float(rng.uniform(0.1, 2.0))
    seed = int(rng.integers(0, 2 ** 63))
    return build_frames(lam, d, [shift_signs(seed, d, s) for s in range(m)]), d, m


def test_criterion_6_grid_map_properties(capsys):
    rng = np.random.default_rng(606)
    cases = 10 ** 4
    bad_contain = bad_lift_faces = bad_lift_facets = 0

    for _ in range(cases):
        frames, d, m = _random_frames(rng)
        s = int(rng.integers(0, m))
        z = tuple(int(t) for t in rng.integers(-100, 100, d))
        y = vertex_map_g(frames, s, Face(s, z, 0))
        # child cell inside parent cell, exact integer u units
        half, half_next = 1 << s, 1 << (s + 1)
        cw = frames[s].world_u(z)
        pw = frames[s + 1].world_u(y.anchor)
        for i in range(d):
            if not (pw[i] - half_next <= cw[i] - half and
                    cw[i] + half <= pw[i] + half_next):
                bad_contain += 1
                break

    for _ in range(cases):
        frames, d, m = _random_frames(rng)
        s = int(rng.integers(0, m))
        anchor = tuple(int(t) for t in rng.integers(-100, 100, d))
        f = Face(s, anchor, int(rng.integers(0, 1 << d)))
        e = face_map_g(frames, s, f)
        # corner images span exactly the image face
        imgs = {vertex_map_g(frames, s, c) for c in face_vertices(f)}
        if imgs != set(face_vertices(e)):
            bad_lift_faces += 1
            continue
        # every face of the image lifts to a face of f
        sub_imgs = {face_map_g(frames, s, g) for g in subfaces(f)}
        if any(e1 not in sub_imgs for e1 in subfaces(e)):
            bad_lift_faces += 1

    for _ in range(cases):
        frames, d, m = _random_frames(rng)
        s = int(rng.integers(0, m))
        anchor = tuple(int(t) for t in rng.integers(-100, 100, d))
        mask = int(rng.integers(1, 1 << d))
        f = Face(s, anchor, mask)
        e = face_map_g(frames, s, f)
        # every opposite-facet pair of the image lifts to one of f
        for i in range(d):
            if not (e.mask >> i & 1):
                continue
            m2 = e.mask & ~(1 << i)
            up = tuple(a + (1 if j == i else 0) for j, a in enumerate(e.anchor))
            want = {Face(e.s, e.anchor, m2), Face(e.s, up, m2)}
            found = False
            for jdir in range(d):
                if not (f.mask >> jdir & 1):
                    continue
                fm = f.mask & ~(1 << jdir)
                fup = tuple(a + (1 if j == jdir else 0) for j, a in enumerate(f.anchor))
                got = {face_map_g(frames, s, Face(s, f.anchor, fm)),
                       face_map_g(frames, s, Face(s, fup, fm))}
                if got == want:
                    found = True
                    break
            if not found:
                bad_lift_facets += 1
                break

    ok = bad_contain == 0 and bad_lift_faces == 0 and bad_lift_facets == 0
    report(capsys, 6, ok,
           "3 x %d cases, violations: containment=%d faces=%d facet-pairs=%d"
           % (cases, bad_contain, bad_lift_faces, bad_lift_facets))


# --- criteria 7 and 8: complexes rebuilt from streams, both models ---


@pytest.fixture(scope="module")
def instance_corpus():
    out = []
    for i in range(50):
        rng = np.random.default_rng(2000 + i)
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(d, 2) + 1))
        P = random_cloud(2000 + i, n, d)
        audit = []
        stream = build_simplicial_tower(P, k, seed=i, audit=audit)
        out.append((P, stream, audit))
    return out


def test_criterion_7_reconstruction_and_acyclicity(instance_corpus, capsys):
    mismatches = cyclic = 0
    scales = faces_checked = 0
    for P, stream, audit in instance_corpus:
        walk = snapshots(stream)
        for sc, (spanned, U) in zip(audit, definition_complexes(P, stream), strict=True):
            # a scale without events leaves the last snapshot current; each
            # new face is included
            if sc.new_active or sc.new_secondary or sc.n_contractions:
                snap = next(walk)
            scales += 1
            # the build's ids name exactly the definition's faces
            if sc.id_of_face.keys() != set(U.faces()):
                mismatches += 1
            else:
                expected = {frozenset(sc.id_of_face[f] for f in chain)
                            for chain in build_order_complex(U, stream.k)}
                if {frozenset(c) for q in snap.cells for c in q} != expected:
                    mismatches += 1
            for f in spanned:
                if any(betti(build_order_complex(closure([f]), max(f.dim, 1)))):
                    cyclic += 1
                faces_checked += 1
        # the walk ends with the audit's last scale that has events
        mismatches += next(walk, None) is not None
    ok = mismatches == 0 and cyclic == 0
    report(capsys, 7, ok,
           "%d instances, %d scales equal up to id maps, %d mismatches; "
           "%d active-face subdivisions, %d non-acyclic"
           % (len(instance_corpus), scales, mismatches, faces_checked, cyclic))


def test_criterion_8_cubical_simplicial_betti(instance_corpus, capsys):
    mismatches = scales = 0
    for P, stream, _ in instance_corpus:
        for _, U in definition_complexes(P, stream):
            bu = betti(U)
            bx = betti(build_order_complex(U, max(U.dim, 1)))
            width = max(len(bu), len(bx))
            bu = bu + [0] * (width - len(bu))
            bx = bx + [0] * (width - len(bx))
            if bu != bx:
                mismatches += 1
            scales += 1
    report(capsys, 8, mismatches == 0,
           "%d instances, %d scales, %d Betti disagreements"
           % (len(instance_corpus), scales, mismatches))


# --- criterion 9: two barcode engines and the reduction self-check ---


def test_criterion_9_barcode_engines_agree(capsys):
    mismatches = runs = 0
    for seed in range(25):
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(2, 11))
        P = random_cloud(3000 + seed, n, 2)
        for k in (0, 1, 2):
            stream = build_simplicial_tower(P, k, seed=seed)
            if tower_barcode(stream, k) != coning_oracle(stream, k):
                mismatches += 1
            runs += 1

    prefix_bad = 0
    for seed in range(3):
        P = random_cloud(3100 + seed, 7, 2)
        filt = rips_filtration(P, "linf", 1)
        cells = _cells_from_simplices(list(filt))
        pairs = _reduce_cells(cells)
        simplices = [t for _, t in filt]
        for L in range(1, len(cells) + 1):
            alive = {}
            for p, bj, dj in pairs:
                if bj < L and (dj is None or dj >= L):
                    alive[p] = alive.get(p, 0) + 1
            want = betti(simplices[:L])
            if [alive.get(p, 0) for p in range(len(want))] != want:
                prefix_bad += 1
    ok = mismatches == 0 and prefix_bad == 0
    report(capsys, 9, ok,
           "%d engine runs, %d disagreements; %d prefix rank mismatches"
           % (runs, mismatches, prefix_bad))


# --- criterion 10: determinism ---


def test_criterion_10_determinism(tmp_path, capsys):
    from ripsapprox.cli import main

    P = random_cloud(4242, 9, 2)
    pts = tmp_path / "pts.txt"
    pts.write_text("\n".join(" ".join("%.17g" % x for x in row)
                             for row in P.points) + "\n")
    identical = True
    for mode in ("simplicial", "cubical"):
        a, b = tmp_path / ("a-" + mode), tmp_path / ("b-" + mode)
        for target in (a, b):
            rc = main(["tower", str(pts), "--mode", mode, "--k", "2",
                       "--seed", "11", "--out", str(target)])
            identical = identical and rc == 0
        identical = identical and a.read_bytes() == b.read_bytes()
    sa, sb = tmp_path / "bc-a.txt", tmp_path / "bc-b.txt"
    for target in (sa, sb):
        rc = main(["tower-barcode", str(tmp_path / "a-simplicial"), "--out", str(target)])
        identical = identical and rc == 0
    identical = identical and sa.read_bytes() == sb.read_bytes()
    ra, rb = tmp_path / "rb-a.txt", tmp_path / "rb-b.txt"
    for target in (ra, rb):
        rc = main(["rips-barcode", str(pts), "--out", str(target)])
        identical = identical and rc == 0
    identical = identical and ra.read_bytes() == rb.read_bytes()
    report(capsys, 10, identical, "streams and barcodes byte-identical across reruns")


# --- criterion 11: smoke budget on the large instance ---


def test_criterion_11_smoke_budget(tmp_path, capsys):
    rng = np.random.default_rng(11)
    pts_arr = rng.uniform(0.0, 10.0, size=(200, 6))
    pts = tmp_path / "smoke.txt"
    pts.write_text("\n".join(" ".join("%.17g" % x for x in row) for row in pts_arr) + "\n")
    stream = tmp_path / "smoke-stream.txt"
    t0 = time.monotonic()
    p1 = subprocess.run(
        [sys.executable, "-m", "ripsapprox.cli", "tower", str(pts), "--mode", "cubical",
         "--k", "2", "--seed", "0", "--out", str(stream)],
        capture_output=True, text=True, env=cli_env())
    p2 = subprocess.run(
        [sys.executable, "-m", "ripsapprox.cli", "stats", str(stream),
         "--points", str(pts)],
        capture_output=True, text=True, env=cli_env())
    elapsed = time.monotonic() - t0
    ok = p1.returncode == 0 and p2.returncode == 0 and elapsed < 60.0
    report(capsys, 11, ok,
           "n=200 d=6 cubical tower + stats: rc=%d/%d, %.1fs (budget 60s)"
           % (p1.returncode, p2.returncode, elapsed))


# --- criterion 12: the certificate at d = 4-8, on the path `compare` runs ---


def test_criterion_12_certificate_high_d(tmp_path, capsys):
    # `compare --k 1` end to end: the cubical tower, its barcode scaled by
    # c/4, the exact Rips barcode and the certificate
    from ripsapprox.cli import main

    t0 = time.monotonic()
    clouds = []
    for d in range(4, 9):
        for n in ((8, 16) if d <= 6 else (8, 12)):
            clouds.append(("uniform", d, random_cloud(900 + d, n, d).points))
        # tied integer grids: values 0-2 and 0-1, so many pairs share a distance
        for values, n in ((3, 14), (2, 10)):
            grid = np.unique(np.random.default_rng(d).integers(0, values, (n, d)), axis=0)
            clouds.append(("grid%d" % values, d, grid))
    rows, bad = [], []
    pts, out = tmp_path / "pts.txt", tmp_path / "report.txt"
    for kind, d, cloud in clouds:
        pts.write_text("\n".join(" ".join("%.17g" % x for x in row) for row in cloud) + "\n")
        for metric in ("linf", "l2"):
            rc = main(["compare", str(pts), "--k", "1", "--metric", metric, "--seed", str(d),
                       "--out", str(out)])
            fields = dict(line.split(": ", 1) for line in out.read_text().splitlines())
            ratio = float(fields["achieved"]) / float(fields["claimed factor"])
            rows.append(((kind, d, len(cloud), metric), ratio))
            if rc != 0 or fields["result"] != "PASS":
                bad.append(rows[-1])
    worst = max(rows, key=lambda r: r[1])
    report(capsys, 12, len(rows) == 40 and not bad,
           "%d compares at d = 4-8, worst achieved/claimed = %.4f at %s, %d failures %s, %.1fs"
           % (len(rows), worst[1], worst[0], len(bad), bad, time.monotonic() - t0))
