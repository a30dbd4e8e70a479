"""Tests for the package's exports and what its commands import."""

import subprocess
import sys
from pathlib import Path

import pytest

import petersburg
from petersburg import montecarlo

# Runs the series-only commands, then a small simulation, in one fresh
# interpreter; argv[1] is the directory holding the package.  The series
# commands load nothing outside the standard library and the package.
_STARTUP = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
from petersburg.cli import main

def quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv

for argv in (["evaluate", "--wealth", "100", "--price", "2"],
             ["breakeven", "--wealth", "100"],
             ["menger", "--wealth", "100"],
             ["--version"]):
    quiet(argv)
    foreign = {name for name in set(sys.modules) - before
               if name.partition(".")[0] not in sys.stdlib_module_names | {"petersburg"}}
    assert not foreign, (argv, sorted(foreign))
quiet(["simulate", "--wealth", "100", "--price", "2", "--rounds", "1000"])
assert "numpy" in sys.modules
# the sampler runs on the calling thread, with no pool to import
assert "concurrent.futures" not in sys.modules
# the path file's formatter loads only for a run that writes a path
assert "petersburg._shortest" not in sys.modules
assert "click" not in sys.modules
"""


def test_series_commands_never_import_numpy():
    src = Path(petersburg.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _STARTUP, str(src)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", petersburg.__all__)
def test_every_exported_name_resolves(name):
    value = getattr(petersburg, name)
    if name in montecarlo.__dict__:
        assert value is getattr(montecarlo, name)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from petersburg import *", namespace)
    assert set(petersburg.__all__) <= namespace.keys()


def test_unknown_attribute_names_the_module():
    with pytest.raises(AttributeError, match="module 'petersburg' has no attribute 'nonesuch'"):
        petersburg.nonesuch
