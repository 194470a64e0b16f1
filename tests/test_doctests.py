"""Run the doctest examples embedded in docstrings.

Keeps the documentation honest: every example a reader might paste
must actually work.
"""

import doctest

import pytest

import repro
import repro.network.scenarios
import repro.sim.core
import repro.sim.rng
import repro.sim.shard

MODULES = [
    repro,
    repro.sim.core,
    repro.sim.rng,
    repro.sim.shard,
    repro.network.scenarios,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module.__name__}: {results.failed} doctest failures"
    assert results.attempted > 0, f"{module.__name__} has no doctest examples"
