import numpy as np
import pytest

from ottokiln import _kernels
from ottokiln._kernels import (
    STATUS_DRIFT,
    STATUS_NEGATIVE,
    STATUS_OK,
    STATUS_TOO_LONG,
    _evolve_stepwise,
    derivative,
    evolve_populations,
    generator_matrix,
    rate_coefficients,
    rk4_step_matrix,
    sample_count,
    sample_steps,
    step_matrix_is_stable,
)
from ottokiln.verification import run_all_checks

GAMMA = 0.5447127449169259   # 0.5 * (1 + nbar) at omega/T = 2.5
BOLTZ = 0.0820849986238988


def test_rate_coefficients_shape_and_reflecting_top():
    down, up = rate_coefficients(GAMMA, BOLTZ, 6)
    assert down[0] == 0.0
    assert down[3] == pytest.approx(2 * GAMMA * 3)
    assert up[2] == pytest.approx(2 * GAMMA * BOLTZ * 3)
    assert up[-1] == 0.0


def test_derivative_matches_generator_matrix():
    rng = np.random.default_rng(0)
    down, up = rate_coefficients(GAMMA, BOLTZ, 25)
    gen = generator_matrix(down, up)
    for _ in range(5):
        probs = rng.random(25)
        probs /= probs.sum()
        np.testing.assert_allclose(derivative(probs, down, up), gen @ probs, atol=1e-14)


def test_step_matrix_is_fourth_order_polynomial():
    down, up = rate_coefficients(GAMMA, BOLTZ, 10)
    a = generator_matrix(down, up) * 0.01
    expected = np.eye(10) + a + a @ a / 2 + a @ a @ a / 6 + a @ a @ a @ a / 24
    np.testing.assert_allclose(rk4_step_matrix(down, up, 0.01), expected, atol=1e-15)


def test_sample_bookkeeping():
    assert sample_count(10, 5) == 3
    assert sample_count(11, 5) == 4
    np.testing.assert_array_equal(sample_steps(11, 5), [0, 5, 10, 11])


def test_numpy_backend_runs_and_conserves():
    p0 = np.zeros(31)
    p0[0] = 1.0
    status, _, max_drift, samples = evolve_populations(p0, GAMMA, BOLTZ, 1e-3, 2000, 500)
    assert max_drift <= 1e-10
    assert status == STATUS_OK
    np.testing.assert_allclose(samples.sum(axis=1), 1.0, atol=1e-12)
    assert samples.min() >= 0.0


def test_unstable_step_reports_negative_status():
    p0 = np.zeros(51)
    p0[0] = 1.0
    status, bad_step, _, _ = evolve_populations(p0, GAMMA, BOLTZ, 0.5, 50, 10)
    assert status == STATUS_NEGATIVE
    assert bad_step >= 1


def _refuse(*args):
    raise AssertionError("the kernel took the wrong path for this step matrix")


def _stepwise(p0, dt, n_steps, stride):
    down, up = rate_coefficients(GAMMA, BOLTZ, p0.shape[0])
    r = rk4_step_matrix(down, up, dt)
    out = np.empty((sample_count(n_steps, stride), p0.shape[0]))
    status, bad_step, max_drift = _evolve_stepwise(p0, r, n_steps, stride, out)
    return status, bad_step, max_drift, out, r


@pytest.mark.parametrize("n_steps,stride", [(2000, 500), (11, 5), (10, 50), (1, 1), (2857, 44)])
def test_sample_to_sample_path_matches_stepwise_loop(n_steps, stride):
    rng = np.random.default_rng(n_steps)
    p0 = rng.random(51)
    p0 /= p0.sum()
    status, bad_step, max_drift, samples = evolve_populations(p0, GAMMA, BOLTZ, 7e-4, n_steps, stride)
    ref_status, ref_bad, _, ref_samples, r = _stepwise(p0, 7e-4, n_steps, stride)
    assert step_matrix_is_stable(r)
    assert (status, bad_step) == (ref_status, ref_bad) == (STATUS_OK, n_steps)
    assert max_drift <= 1e-10
    assert samples.shape == ref_samples.shape == (sample_count(n_steps, stride), 51)
    assert np.abs(samples - ref_samples).max() <= 1e-13


@pytest.mark.parametrize("dt,offset,stable,expect", [
    (0.5, 0.0, False, (STATUS_NEGATIVE, 2)),  # unstable dt: R has negative entries
    (7e-4, 1e-9, True, (STATUS_DRIFT, 1)),   # start off the simplex: first sample trips
])
def test_guard_failure_names_the_first_bad_step_like_the_stepwise_loop(dt, offset, stable, expect,
                                                                       monkeypatch):
    if not stable:
        monkeypatch.setattr(_kernels, "_evolve_sampled", _refuse)
    p0 = np.zeros(51)
    p0[0] = 1.0 + offset
    status, bad_step, _, _ = evolve_populations(p0, GAMMA, BOLTZ, dt, 50, 10)
    ref_status, ref_bad, _, _, r = _stepwise(p0, dt, 50, 10)
    assert step_matrix_is_stable(r) == stable
    assert (status, bad_step) == (ref_status, ref_bad) == expect


@pytest.mark.parametrize("cap,expect", [(49, (STATUS_TOO_LONG, 10)), (50, (STATUS_DRIFT, 1))])
def test_tripped_stroke_longer_than_the_cap_is_not_rerun_stepwise(cap, expect, monkeypatch):
    monkeypatch.setattr(_kernels, "MAX_STEPWISE_STEPS", cap)
    if expect[0] == STATUS_TOO_LONG:
        monkeypatch.setattr(_kernels, "_evolve_stepwise", _refuse)
    p0 = np.zeros(51)
    p0[0] = 1.0 + 1e-9  # off the simplex: the first sample, at step 10, trips
    status, bad_step, max_drift, _ = evolve_populations(p0, GAMMA, BOLTZ, 7e-4, 50, 10)
    assert (status, bad_step) == expect
    assert max_drift > _kernels.DRIFT_TOL


def test_verify_grid_runs_on_the_sample_to_sample_path(monkeypatch):
    monkeypatch.setattr(_kernels, "_evolve_stepwise", _refuse)
    assert all(result.passed for result in run_all_checks())
