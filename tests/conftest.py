"""Shared test set-up."""

import pytest

from petersburg import montecarlo


@pytest.fixture(autouse=True)
def eight_cpus(monkeypatch):
    """Run the sampler's thread pool as on a host with eight usable CPUs.

    The pool never has more threads than the process may use, so on a
    host with fewer CPUs a test asking for two or more workers would
    run fewer threads, or no pool at all.  No test expects more than
    eight threads; the tests of the cap set the CPU count themselves.
    """
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 8)
