"""Every benchmark op at seeds 1-3, pinned byte for byte.

Each op of the ``decide``, ``breakeven`` and ``simulate`` workloads (see
``bench/workloads.py``) runs through ``cli.main`` in-process, with its
table and path files in a temporary directory.  One sha256 per workload
and seed covers, op by op, the exit code, stdout, stderr and the sha256
of the op's wealth-path file.

A change that alters these bytes on purpose re-pins them: run
``PYTHONPATH=src python tests/test_golden.py`` and paste the digests it
prints into ``GOLDEN``.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from petersburg.cli import main

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

#: sha256 over every op's exit code, stdout, stderr and path-file digest
GOLDEN = {
    ("decide", 1):
        "e4b7b38bad0a60a8bc3132a987af5a89d1ba771d0d69d24f70ea321343eec125",
    ("decide", 2):
        "96756ee5358eb8a2d081292a5c870a04bc8202123189972108b4c8658fac02d0",
    ("decide", 3):
        "d05402031de0b229c8e6ddf73b2cb6587175c030429d8f4114a71feca6617a6a",
    ("breakeven", 1):
        "c093f2e7da04c31cb3252c83f18f2eac98235b1c50b7a4ef167de34e3b538b5e",
    ("breakeven", 2):
        "2c86605cfcbdf43f95aec74474c92abe4539b46168ce90cb6fe195d80300b548",
    ("breakeven", 3):
        "ed955aa6feecc771e6d546fa2cadece12ef2d1bb43413bf8960a4ed3020227c3",
    ("simulate", 1):
        "c3c0aa2d28d6ba2e9265d85a4d1d869d92c9cdf68cdad1d505b1168f66252244",
    ("simulate", 2):
        "23859b06316e67a62348a3a941e7c82a0cbef7faa9c909a1fbf5e0a3165ff65b",
    ("simulate", 3):
        "62fdad9ec74b3e71381ea5b4cfbac8cc2229a038c1d9c229b3f0c8259c92414b",
}


def digest(workload: str, seed: int, outdir: Path) -> str:
    """The sha256 of what every op of ``workload`` at ``seed`` prints and writes."""
    total = hashlib.sha256()
    for op in workloads.build(workload, seed, outdir):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(op.argv))
        path = "" if op.path_out is None else hashlib.sha256(op.path_out.read_bytes()).hexdigest()
        total.update(repr((code, out.getvalue(), err.getvalue(), path)).encode())
    return total.hexdigest()


@pytest.mark.parametrize("workload, seed", list(GOLDEN))
def test_every_op_prints_the_pinned_bytes(workload, seed, tmp_path):
    assert digest(workload, seed, tmp_path) == GOLDEN[workload, seed]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        for workload, seed in GOLDEN:
            print(f'    ("{workload}", {seed}):\n'
                  f'        "{digest(workload, seed, Path(scratch))}",')
