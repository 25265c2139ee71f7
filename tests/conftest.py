import math

import numpy as np
import pytest
from hypothesis import settings

from ottokiln import FockDistribution, InitialStateSpec, make_distribution

# `pytest --hypothesis-profile ci`: more examples for the tests that take the
# profile's count (those without their own max_examples), no deadline
settings.register_profile("ci", max_examples=2000, deadline=None)


@pytest.fixture
def ground_50():
    return make_distribution(InitialStateSpec.ground(), 50)


def random_distribution(rng, n_levels):
    probs = rng.random(n_levels)
    probs /= probs.sum()
    return FockDistribution(probs)


LEDGER_FIELDS = ("q_in", "q_out", "w_out", "w_in", "w_eff", "q_pump", "q_pump_gross")
DIST_FIELDS = ("dist_a", "dist_b", "dist_c", "dist_d", "dist_a_next")


def assert_same_ledgers(expected, actual, tol):
    """Two EngineTraces agree on every record field and cycle-start shift within tol."""
    assert len(actual.records) == len(expected.records)
    for want, got in zip(expected.records, actual.records):
        assert (got.cycle_index, got.kind, got.omega_c, got.omega_h) == \
            (want.cycle_index, want.kind, want.omega_c, want.omega_h)
        for name in LEDGER_FIELDS:
            assert abs(getattr(got, name) - getattr(want, name)) <= tol, name
        for name in DIST_FIELDS:
            assert np.abs(getattr(got, name).probs - getattr(want, name).probs).max() <= tol, name
    assert math.isnan(actual.a_shift_tv[0]) == math.isnan(expected.a_shift_tv[0])
    for want, got in zip(expected.a_shift_tv[1:], actual.a_shift_tv[1:]):
        assert abs(got - want) <= tol
