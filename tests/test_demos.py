"""Each demo runs and prints the bytes pinned here by SHA-256.

As `tests/test_golden.py` does for CLI outputs, these hashes pin the
demos' stdout across code changes. Regenerate a hash only for an
intended change of output, and say why in the commit that does it.
"""

import contextlib
import hashlib
import io
import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# demo file name -> SHA-256 of its stdout, UTF-8 encoded
GOLDEN = {
    "01_tower_stream.py": "c775690a5370ff8cca2c738c8a4d6b64860996e5cae05020b4848d110edbbc90",
    "02_barcodes.py": "c9202ac29ccf2dd52e035ff6010507d7e269a15dacc81252d62746a02e41647f",
    "03_approximation_check.py": "4323fb0e867b19a125307bb4e852a6cda2b98ecea54d3691b4faa36cf7b13fbf",
    "04_grid_geometry.py": "7be9e82a7df1146281869f8253c9e800497ab160bbfce8a3b4f83687bd7d6b6b",
    "05_event_replay.py": "144ac161e2c0d3096aff07b8c4f61bfbbb3502108789ddf22970e8f1b87136b3",
}


def test_every_demo_is_pinned():
    assert sorted(GOLDEN) == [p.name for p in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN[path.name]
