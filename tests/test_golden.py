"""Golden SHA-256 hashes of CLI outputs on a small fixed corpus.

Criterion 10 checks that reruns agree byte for byte; these hashes also
pin the bytes across code changes, so a refactor that alters any stream,
barcode or report fails here. Regenerate a hash only for an intended
change of output, and say why in the commit that does it.
"""

import hashlib

import pytest

from ripsapprox.cli import main

from conftest import random_cloud

# point file name -> random_cloud(seed, n, d) [+ shift of every coordinate]
CLOUDS = {
    "d1": (11, 10, 1),
    "d2": (12, 12, 2),
    "d3": (13, 8, 3),
    "d4": (14, 10, 4),
    # set 0 of the perfbench compare workloads: default_rng(0).uniform(0, 10)
    "bench_n70": (0, 70, 2),
    "bench_n200": (0, 200, 2),
    # set 0 of the perfbench tower workloads
    "bench_n160": (0, 160, 2),
    "bench_d6": (0, 45, 6),
    "d8": (15, 8, 8),
    # shifted by -1e12: every anchor is negative and needs a wide field
    "d3_far": (16, 10, 3, -1e12),
}

# point file name -> literal rows
FIXED = {
    # the two points of test_cli.py::test_ladder_past_two_to_the_1023
    "pair_d1": [[-1.0], [1.0]],
}

# lambda*2^1024 = 3 covers the pair's diameter 2, so m = 1024
LAM_M1024 = "%.17g" % (1.5 * 2.0 ** -1023)

# output name -> CLI arguments, run in this order with `--out <name>`;
# "{x}" is the point file or earlier output called x
RUNS = [
    ("tower_d1_k0", ["tower", "{d1}", "--k", "0", "--seed", "3"]),
    ("tower_d2_k1", ["tower", "{d2}", "--k", "1", "--seed", "3"]),
    ("tower_d3_k2", ["tower", "{d3}", "--k", "2", "--seed", "3"]),
    ("tower_d3_cubical", ["tower", "{d3}", "--mode", "cubical", "--seed", "3"]),
    ("tower_barcode_d1", ["tower-barcode", "{tower_d1_k0}"]),
    ("tower_barcode_d2", ["tower-barcode", "{tower_d2_k1}"]),
    ("tower_barcode_d3_k1", ["tower-barcode", "{tower_d3_k2}", "--k", "1"]),
    ("tower_barcode_d3_k2", ["tower-barcode", "{tower_d3_k2}"]),
    ("rips_barcode_d2", ["rips-barcode", "{d2}", "--k", "1"]),
    ("compare_linf_d2", ["compare", "{d2}", "--k", "1", "--seed", "3"]),
    ("compare_l2_d3", ["compare", "{d3}", "--metric", "l2", "--k", "1", "--seed", "3"]),
    ("stats_d3_k2", ["stats", "{tower_d3_k2}"]),
    ("stats_d3_k2_points", ["stats", "{tower_d3_k2}", "--points", "{d3}"]),
    ("stats_d3_cubical", ["stats", "{tower_d3_cubical}"]),
    ("stats_d3_cubical_points", ["stats", "{tower_d3_cubical}", "--points", "{d3}"]),
    ("tower_d4_cubical", ["tower", "{d4}", "--mode", "cubical", "--seed", "3"]),
    ("stats_d4_cubical_points", ["stats", "{tower_d4_cubical}", "--points", "{d4}"]),
    ("tower_d4_k2", ["tower", "{d4}", "--k", "2", "--seed", "3"]),
    ("tower_barcode_d4_k2", ["tower-barcode", "{tower_d4_k2}"]),
    ("tower_barcode_d4_k1", ["tower-barcode", "{tower_d4_k2}", "--k", "1"]),
    ("survival_d5_k2", ["survival", "--d", "5", "--k", "2", "--trials", "300", "--seed", "4"]),
    ("rips_barcode_d3_k2", ["rips-barcode", "{d3}", "--k", "2"]),
    ("rips_barcode_bench_n70", ["rips-barcode", "{bench_n70}", "--k", "1"]),
    ("compare_linf_bench_n70", ["compare", "{bench_n70}", "--k", "1", "--metric", "linf",
                                "--seed", "0"]),
    ("compare_l2_bench_n200", ["compare", "{bench_n200}", "--k", "0", "--metric", "l2",
                               "--seed", "0"]),
    ("tower_bench_n160_k2", ["tower", "{bench_n160}", "--k", "2", "--seed", "0"]),
    ("tower_barcode_bench_n160", ["tower-barcode", "{tower_bench_n160_k2}", "--k", "1"]),
    ("tower_bench_d6_cubical", ["tower", "{bench_d6}", "--mode", "cubical", "--seed", "0"]),
    ("stats_bench_d6_cubical", ["stats", "{tower_bench_d6_cubical}"]),
    ("tower_d8_cubical", ["tower", "{d8}", "--mode", "cubical", "--seed", "3"]),
    ("stats_d8_cubical_points", ["stats", "{tower_d8_cubical}", "--points", "{d8}"]),
    ("tower_d3_far_k2", ["tower", "{d3_far}", "--k", "2", "--seed", "3"]),
    ("tower_m1024_simplicial", ["tower", "{pair_d1}", "--lambda", LAM_M1024,
                                "--mode", "simplicial"]),
    ("tower_m1024_cubical", ["tower", "{pair_d1}", "--lambda", LAM_M1024, "--mode", "cubical"]),
]

# output name -> (exit code, SHA-256 of the output file)
GOLDEN = {
    "tower_d1_k0": (0, "ed1142daa948e7e8adc8b7d8a4a6a3e21605fe35dbb7eea6d5781ad854ded88e"),
    "tower_d2_k1": (0, "496a7fa0a9dabbfed90ae4af5a03d5948fe5af882e885a9a4dfa6c6328620a60"),
    "tower_d3_k2": (0, "aa72f90dc500f3440c7b4ce47e584877c9bef5ca1a80dbd93e1b4728899a53fb"),
    "tower_d3_cubical": (0, "6bc479c998e45f84e077553426207b2ba9f24a9fed08047e619ddedb9515b793"),
    "tower_barcode_d1": (0, "1cb60fd3b616548094b0b5e7fe105bd33f9a71c2dfbaebd4f7aa898e47aba30a"),
    "tower_barcode_d2": (0, "4de1b940ca5054aa598fcc47a2aa3ead9296625f529268c02cb2432618eb0b80"),
    "tower_barcode_d3_k1": (0, "75dae8c06db6c6fcfa2e3238063cbda1c4db5041b3291acdaf4a72c263940a05"),
    "tower_barcode_d3_k2": (0, "29ae3fcfe95c68b2ec0b2e1270d05ee190f1da7842321da24c9cb7efa250de5c"),
    "rips_barcode_d2": (0, "708252e1fc92a8efe69dca44b4a8a1cc4a707186df4a15449b6d9dced96ab019"),
    "compare_linf_d2": (0, "1ec0240414529bcee532491adae92e95fbf0e7094cc77438ae2631b3d3d66a1b"),
    "compare_l2_d3": (0, "88b3f2ef2f1fb633f5ff1172f2a151ff97ce7847ad1f9ec1ecf006bcd485f973"),
    "stats_d3_k2": (0, "507bd9c1c07337538028e04724c318b99ecd7eea1476c8ea4723a2dbf950dcc3"),
    "stats_d3_k2_points": (0, "edeb6e0d0ac2cd4ed80c0934462bc301d924ceb3f06347c91b22de9128466b5c"),
    "stats_d3_cubical": (0, "d6c3ed6de9c63c01862284caa3f9feb0c1e67432bcc5e3c3cb8972bad5fd6b9a"),
    "stats_d3_cubical_points": (0, "5cc45fba0cc9893a245820633e5d8e1dc6c02e7f0c60146067ded7a6df9313f1"),
    "tower_d4_cubical": (0, "e29911ca70a2b74c28757a3cd6b7ece0abe1ac66c30f56123a3883028518a96f"),
    "stats_d4_cubical_points": (0, "f335dbb8a0e11dac4c8c6db97dccc5ef7b0c84ed57242aa9dbcf90277303660e"),
    "tower_d4_k2": (0, "67417a6788cdba2c64ac4368365673cf97f5fe18f49b7fff73b3c8bd015dd49e"),
    "tower_barcode_d4_k2": (0, "8fc551e4c5bc6a36a8b5a04c0ea71ccb2ae92f28a7f647dff3ffa31de49d80b7"),
    "tower_barcode_d4_k1": (0, "233675edd50c2c3c1f1a437a8e819b28cf818181ecb524c32006930384a3c8b0"),
    "survival_d5_k2": (0, "46714421bea220007744ea3658b206ec819a863c993e5596cc355707efe2e0c1"),
    "rips_barcode_d3_k2": (0, "c2fe4cead1b4863a2af08525ad7201873aa8b729540f511529268eb5f2a48725"),
    "rips_barcode_bench_n70": (0, "97815b47f9489768ec22b0b572f6a06d494199194030e3b32501c58af0b4b3a3"),
    "compare_linf_bench_n70": (0, "6257e6126c79e61b051d2ea28d0e87299c8058a08d7f77847bb36d74a59616ca"),
    "compare_l2_bench_n200": (0, "5faadcb21f7bf8b5f57a60dbb1887b247d8fa53b9b084e2bbb14875ee2157c3c"),
    "tower_bench_n160_k2": (0, "1be6f8636b63170efa5151beab038f448550fa3b6b4e1e13d138e801b05b5201"),
    "tower_barcode_bench_n160": (0, "9519c30aa350494439ac90462179ee9a15047b710d10464e48e7cd5591cb76ec"),
    "tower_bench_d6_cubical": (0, "dd966cb97b56932d3996e59097a5348645c542395a8d8d00309fd784ad2b7b93"),
    "stats_bench_d6_cubical": (0, "e49cf7ac8011437d948983f8daa7055a39763aa610e7ba3610631d0b2e47bf6a"),
    "tower_d8_cubical": (0, "0234827a237b3e67df4c1021fc84ff3d71e01815273775a7d1fa7ffc9009559c"),
    "stats_d8_cubical_points": (0, "8702d59344a5b1f5d0124347573b7463ce4d20e796391763b9d46350570bf310"),
    "tower_d3_far_k2": (0, "e6121a84cdaceb81a17eda5b203123ab8da0b262a529d6192dd95ddf237b56f1"),
    "tower_m1024_simplicial": (0, "4507213348f89c1d7b6eaa14b859856a9e50bcad31e1e7cb213744b2f309f2ae"),
    "tower_m1024_cubical": (0, "950c6c7afdd408e4598994744ac072993d221e1a9f9bf5f4935a8c207805271a"),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("golden")
    paths = {}
    clouds = {name: random_cloud(*args[:3]).points + (args[3] if len(args) > 3 else 0.0)
              for name, args in CLOUDS.items()}
    for name, rows in {**clouds, **FIXED}.items():
        f = work / (name + ".txt")
        f.write_text("\n".join(" ".join("%.17g" % x for x in row) for row in rows) + "\n")
        paths[name] = str(f)
    out = {}
    for name, args in RUNS:
        paths[name] = str(work / (name + ".out"))
        code = main([a.format(**paths) for a in args] + ["--out", paths[name]])
        with open(paths[name], "rb") as fh:
            out[name] = (code, hashlib.sha256(fh.read()).hexdigest())
    return out


def test_golden_covers_every_run():
    assert sorted(GOLDEN) == sorted(name for name, _ in RUNS)


@pytest.mark.parametrize("name", [name for name, _ in RUNS])
def test_golden_output(outputs, name):
    assert outputs[name] == GOLDEN[name]
