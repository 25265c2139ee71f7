import numpy as np
import pytest

from ottokiln import BathStroke, FockDistribution
from ottokiln import verification
from ottokiln.verification import (
    check_convergence_order,
    check_equilibrium_limit,
    check_oracle_equivalence,
    check_thermal_stationarity,
)

END_STATE_CHECKS = [
    (check_oracle_equivalence, 12),
    (check_convergence_order, 2),
    (check_thermal_stationarity, 1),
    (check_equilibrium_limit, 1),
]


def _count_stroke_runs(monkeypatch):
    calls = {"end_state": 0, "trajectory": 0}
    for name in calls:
        original = getattr(BathStroke, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(BathStroke, name, counted)
    return calls


@pytest.mark.parametrize("check,strokes", END_STATE_CHECKS, ids=[c.__name__ for c, _ in END_STATE_CHECKS])
def test_end_state_checks_jump_and_never_sample(monkeypatch, check, strokes):
    calls = _count_stroke_runs(monkeypatch)
    assert check().passed
    assert calls == {"end_state": strokes, "trajectory": 0}


def test_sample_reading_checks_run_the_traced_path(monkeypatch):
    calls = _count_stroke_runs(monkeypatch)
    assert verification.check_monotone_relaxation().passed
    assert verification.check_positivity_and_norm().passed
    assert calls == {"end_state": 0, "trajectory": 3}


def test_a_stroke_one_step_short_fails_the_oracle_check(monkeypatch):
    def one_step_short(self, dist, sample_stride=None, tail_tolerance=None):
        jump = np.linalg.matrix_power(self.step_matrix.r, self.n_steps - 1)
        probs = jump @ dist.probs
        return FockDistribution(probs / probs.sum()), 0.0

    monkeypatch.setattr(BathStroke, "end_state", one_step_short)
    assert not check_oracle_equivalence().passed
