import sys

import numpy as np
import pytest

from ottokiln import BathStroke, FockDistribution, _kernels
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
    def one_step_short(self, dist, tail_tolerance=None):
        jump = np.linalg.matrix_power(self.step_matrix.r, self.n_steps - 1)
        probs = jump @ dist.probs
        return FockDistribution(probs / probs.sum()), 0.0

    monkeypatch.setattr(BathStroke, "end_state", one_step_short)
    assert not check_oracle_equivalence().passed


def _kernel_generator_off(monkeypatch, gamma_scale=1.0, boltz_scale=1.0):
    """An error in _kernels.generator_matrix' source, made by rebinding every
    package name for the function to one that scales its rates."""
    original = _kernels.generator_matrix

    def scaled(gamma, boltz_factor, n_levels):
        return original(gamma_scale * gamma, boltz_scale * boltz_factor, n_levels)

    for module in [module for name, module in sys.modules.items() if name.startswith("ottokiln")]:
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, scaled)


def test_rates_five_percent_off_in_the_kernel_fail_the_oracle_checks(monkeypatch):
    # the dense oracle writes its generator out itself, so the error shows against it
    _kernel_generator_off(monkeypatch, gamma_scale=1.05)
    assert not check_oracle_equivalence().passed
    assert not check_convergence_order().passed


def test_the_generator_checks_read_the_integrators_generator(monkeypatch):
    # absorption 5 % too fast moves the thermal state, but every column still sums to zero
    _kernel_generator_off(monkeypatch, boltz_scale=1.05)
    assert not verification.check_detailed_balance().passed
    assert verification.check_generator_conservation().passed
