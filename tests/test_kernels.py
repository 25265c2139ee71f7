import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ottokiln import IntegrationError, _kernels
from ottokiln._kernels import (
    DRIFT_TOL,
    NEG_FLOOR,
    StepMatrix,
    _DRIFT,
    _NEGATIVE,
    _evolve_sampled,
    _evolve_stepwise,
    default_stride,
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


def _matrix(p0, dt, gamma=GAMMA, boltz=BOLTZ):
    """The StepMatrix of a stroke at dt on len(p0) levels."""
    return StepMatrix(gamma, boltz, len(p0), dt)


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
    samples, max_drift = evolve_populations(p0, _matrix(p0, 1e-3), 2000, 500)
    assert max_drift <= 1e-10
    np.testing.assert_allclose(samples.sum(axis=1), 1.0, atol=1e-12)
    assert samples.min() >= 0.0


def test_unstable_step_raises_the_negative_text():
    p0 = np.zeros(51)
    p0[0] = 1.0
    text = r"^probability below -1e-12 at step (\d+) \(dt=5\.000e-01\); the step size is unstable$"
    with pytest.raises(IntegrationError, match=text) as raised:
        evolve_populations(p0, _matrix(p0, 0.5), 50, 10)
    assert int(re.match(text, str(raised.value)).group(1)) >= 1


def _refuse(*args):
    raise AssertionError("the kernel took the wrong path for this step matrix")


def _stepwise(p0, dt, n_steps, stride):
    down, up = rate_coefficients(GAMMA, BOLTZ, p0.shape[0])
    r = rk4_step_matrix(down, up, dt)
    out = np.empty((sample_count(n_steps, stride), p0.shape[0]))
    trip, bad_step, max_drift = _evolve_stepwise(p0, r, n_steps, stride, out)
    return trip, bad_step, max_drift, out, r


@pytest.mark.parametrize("n_steps,stride", [(2000, 500), (11, 5), (10, 50), (1, 1), (2857, 44)])
def test_sample_to_sample_path_matches_stepwise_loop(n_steps, stride):
    rng = np.random.default_rng(n_steps)
    p0 = rng.random(51)
    p0 /= p0.sum()
    samples, max_drift = evolve_populations(p0, _matrix(p0, 7e-4), n_steps, stride)
    ref_trip, ref_bad, _, ref_samples, r = _stepwise(p0, 7e-4, n_steps, stride)
    assert step_matrix_is_stable(r)
    assert (ref_trip, ref_bad) == (None, n_steps)
    assert max_drift <= 1e-10
    assert samples.shape == ref_samples.shape == (sample_count(n_steps, stride), 51)
    assert np.abs(samples - ref_samples).max() <= 1e-13


@pytest.mark.parametrize("dt,offset,stable,expect", [
    (0.5, 0.0, False, (_NEGATIVE, 2)),  # unstable dt: R has negative entries
    (7e-4, 1e-9, True, (_DRIFT, 1)),   # start off the simplex: first sample trips
])
def test_guard_failure_names_the_first_bad_step_like_the_stepwise_loop(dt, offset, stable, expect,
                                                                       monkeypatch):
    if not stable:
        monkeypatch.setattr(_kernels, "_evolve_sampled", _refuse)
    p0 = np.zeros(51)
    p0[0] = 1.0 + offset
    text = expect[0].format(step=expect[1], dt=dt)
    with pytest.raises(IntegrationError, match=f"^{re.escape(text)}$"):
        evolve_populations(p0, _matrix(p0, dt), 50, 10)
    ref_trip, ref_bad, _, _, r = _stepwise(p0, dt, 50, 10)
    assert step_matrix_is_stable(r) == stable
    assert (ref_trip, ref_bad) == expect


@pytest.mark.parametrize("cap,expect", [
    (49, r"^a guard tripped at step (10) \(drift (\S+), limit 1e-10\) of a stroke of 50 steps \(dt=7\.000e-04\), "
         r"too many to rerun step by step \(limit 49\); reduce gamma0 \* tau or set dt$"),
    (50, r"^probability sum drifted beyond 1e-10 at step (1) \(dt=7\.000e-04\); reduce the time step$"),
], ids=["too-long", "stepwise"])
def test_tripped_stroke_longer_than_the_cap_is_not_rerun_stepwise(cap, expect, monkeypatch):
    monkeypatch.setattr(_kernels, "MAX_STEPWISE_STEPS", cap)
    if cap < 50:
        monkeypatch.setattr(_kernels, "_evolve_stepwise", _refuse)
    p0 = np.zeros(51)
    p0[0] = 1.0 + 1e-9  # off the simplex: the first sample, at step 10, trips
    with pytest.raises(IntegrationError, match=expect) as raised:
        evolve_populations(p0, _matrix(p0, 7e-4), 50, 10)
    if cap < 50:  # the text names the drift of the sample that tripped
        assert float(re.match(expect, str(raised.value)).group(2)) > _kernels.DRIFT_TOL


@pytest.mark.parametrize("dt,offset,cap,text", [
    (0.5, 0.0, 100_000, "probability below -1e-12 at step 2 (dt=5.000e-01); the step size is unstable"),
    (7e-4, 1e-9, 100_000, "probability sum drifted beyond 1e-10 at step 1 (dt=7.000e-04); reduce the time step"),
    (7e-4, 1e-9, 49, "a guard tripped at step 10 (drift 1e-09, limit 1e-10) of a stroke of 50 steps "
                     "(dt=7.000e-04), too many to rerun step by step (limit 49); reduce gamma0 * tau or set dt"),
], ids=["negative", "drift", "too-long"])
def test_evolve_populations_raises_each_guard_text(dt, offset, cap, text, monkeypatch):
    monkeypatch.setattr(_kernels, "MAX_STEPWISE_STEPS", cap)
    p0 = np.zeros(51)
    p0[0] = 1.0 + offset
    with pytest.raises(IntegrationError) as raised:
        evolve_populations(p0, _matrix(p0, dt), 50, 10)
    assert str(raised.value) == text


def _tripped_jump(p, step_matrix, n_steps, stride, out):
    """_evolve_sampled with every whole-stroke jump (stride >= n_steps)
    reported as a drift trip."""
    if stride >= n_steps:
        return _DRIFT, n_steps, 1.0
    return _evolve_sampled(p, step_matrix, n_steps, stride, out)


@pytest.mark.parametrize("n_steps", [1, 2, 64, 2857])
def test_ends_only_stroke_whose_jump_trips_keeps_the_last_sample_of_the_default_stride(n_steps, monkeypatch):
    monkeypatch.setattr(_kernels, "_evolve_sampled", _tripped_jump)
    if n_steps > 1:  # a one-step stroke's default stride is its one step: it reruns stepwise at once
        monkeypatch.setattr(_kernels, "_evolve_stepwise", _refuse)
    p0 = np.random.default_rng(n_steps).random(51)
    p0 /= p0.sum()
    samples, max_drift = evolve_populations(p0, _matrix(p0, 7e-4), n_steps, default_stride(n_steps))
    for stride in (n_steps, n_steps + 1, 10**9):  # recorded at the two ends only
        ends, ends_drift = evolve_populations(p0, _matrix(p0, 7e-4), n_steps, stride)
        assert ends_drift == max_drift
        assert ends.tobytes() == samples[[0, -1]].tobytes()


def test_verify_grid_runs_on_the_sample_to_sample_path(monkeypatch):
    monkeypatch.setattr(_kernels, "_evolve_stepwise", _refuse)
    assert all(result.passed for result in run_all_checks())


def _four_reduction_guard(p, max_drift):
    """The guard before the two-reduction rewrite, kept as the reference: a
    sum, a min, np.clip and a second sum on every sample."""
    drift = abs(p.sum() - 1.0)
    max_drift = max(max_drift, drift)
    if drift > DRIFT_TOL:
        return _DRIFT, max_drift
    if p.min() < -NEG_FLOOR:
        return _NEGATIVE, max_drift
    np.clip(p, 0.0, None, out=p)
    p /= p.sum()
    return None, max_drift


def _four_reduction_sampled(p, step_matrix, n_steps, stride, out):
    """The sample-to-sample loop before the rewrite: each jump is a new array,
    guarded by the reference guard, then copied into its output row."""
    out[0] = p
    max_drift = 0.0
    gaps = [stride] * (n_steps // stride)
    if n_steps % stride:
        gaps.append(n_steps % stride)
    jumps = {gap: np.linalg.matrix_power(step_matrix.r, gap) for gap in set(gaps)}
    k = 0
    for idx, gap in enumerate(gaps, start=1):
        p = jumps[gap] @ p
        k += gap
        trip, max_drift = _four_reduction_guard(p, max_drift)
        if trip:
            return trip, k, max_drift
        out[idx] = p
    return None, n_steps, max_drift


ENTRY_EDITS = st.sampled_from(["zero", "negative_zero",
                               "negative_inside_floor", "negative_below_floor"])


@st.composite
def guard_states(draw):
    """Simplex vectors with exact zeros, -0.0 and negative entries written in,
    then scaled off the simplex or given a NaN now and then."""
    p = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60)))
    for i, edit in draw(st.lists(st.tuples(st.integers(0, p.size - 1), ENTRY_EDITS), max_size=4)):
        if edit == "zero":
            p[i] = 0.0
        elif edit == "negative_zero":
            p[i] = -0.0
        elif edit == "negative_inside_floor":
            p[i] = -draw(st.floats(0.0, 1.0)) * NEG_FLOOR
        else:
            p[i] = -draw(st.floats(1.0, 1e6, exclude_min=True)) * NEG_FLOOR
    total = p.sum()
    if total > 0.0:
        p /= total
    p *= draw(st.sampled_from([1.0, 1.0, 1.0, 1.0 + 0.5 * DRIFT_TOL,
                               1.0 + 2 * DRIFT_TOL, 1.0 - 2 * DRIFT_TOL]))
    if draw(st.integers(0, 9)) == 0:
        p[draw(st.integers(0, p.size - 1))] = np.nan
    return p


@settings(max_examples=500, deadline=None)
@given(guard_states(), st.sampled_from([0.0, 1e-15, 0.5 * DRIFT_TOL, 2 * DRIFT_TOL]))
@example(np.array([1.0, -0.0, 0.0]), 0.0)           # only zeros clamped: -0.0 becomes 0.0
@example(np.array([1.0 + 1e-13, -1e-13]), 0.0)       # a negative entry inside the floor
@example(np.array([1.0, -1e-11]), 0.0)               # below the floor
@example(np.array([0.5, 0.5 + 1e-9]), 0.0)           # drift beyond DRIFT_TOL
@example(np.array([np.nan, 0.5]), 0.0)
@example(np.array([np.inf, -np.inf]), 0.0)           # a NaN sum from non-NaN entries
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_two_reduction_guard_matches_the_four_reduction_guard(state, max_drift):
    p, ref = state.copy(), state.copy()
    trip, got_drift = _kernels._guard(p, max_drift)
    want = _four_reduction_guard(ref, max_drift)
    if np.isnan(state.sum()):
        # the one intended difference: the reference passes a NaN state (its
        # drift test is false for NaN) and fills it with NaN; the guard trips
        # and leaves the state as it was
        assert (trip, got_drift) == (_DRIFT, want[1])
        ref = state
    else:
        assert (trip, got_drift) == want
    assert p.tobytes() == ref.tobytes()
    assert np.array_equal(np.signbit(p), np.signbit(ref))


@pytest.mark.parametrize("start", ["random", "ground", "level-3-frozen-bath"])
@pytest.mark.parametrize("n_steps,stride", [(2000, 500), (11, 5), (10, 50), (1, 1), (2857, 44)])
def test_samples_equal_the_four_reduction_path_bit_for_bit(n_steps, stride, start, monkeypatch):
    # a ground start leaves exact zeros above the first few levels after a
    # short jump, so the clamp branch is taken too; a bath with no upward
    # rate (boltz_factor 0) keeps every level above a level-3 start at exact
    # zero in every sample, the entries the clamp deferred past the first
    # sample covers (test_later_samples_store_no_negative_zero stores them as -0.0)
    p0 = np.zeros(51)
    p0[0] = 1.0
    boltz = BOLTZ
    if start == "random":
        p0 = np.random.default_rng(n_steps).random(51)
        p0 /= p0.sum()
    elif start == "level-3-frozen-bath":
        p0 = np.eye(51)[3]
        boltz = 0.0
    samples, max_drift = evolve_populations(p0, _matrix(p0, 7e-4, boltz=boltz), n_steps, stride)
    monkeypatch.setattr(_kernels, "_guard", _four_reduction_guard)
    monkeypatch.setattr(_kernels, "_evolve_sampled", _four_reduction_sampled)
    want = evolve_populations(p0, _matrix(p0, 7e-4, boltz=boltz), n_steps, stride)
    assert max_drift == want[1]
    assert samples.tobytes() == want[0].tobytes()
    if start == "level-3-frozen-bath":
        assert np.all(samples[:, 4:] == 0.0) and not np.signbit(samples).any()


class _SignedZeroJump:
    """R^gap as a jump whose product stores each exact zero as -0.0, as a
    matmul that keeps the sign of a sum of -0.0 products may."""

    def __init__(self, matrix):
        self.matrix = matrix

    def __array_ufunc__(self, ufunc, method, jump, p, out):
        result = np.matmul(self.matrix, p, out=out[0])
        result[result == 0.0] = -0.0
        return result


class _SignedZeroStepMatrix(StepMatrix):
    def __missing__(self, gap):
        jump = self[gap] = _SignedZeroJump(np.linalg.matrix_power(self.r, gap))
        return jump


@pytest.mark.parametrize("n_steps,stride", [(2000, 500), (11, 5), (2857, 44)])
def test_later_samples_store_no_negative_zero(n_steps, stride, monkeypatch):
    # every sample after the first holds -0.0 above level 3 before the clamp
    # deferred past the first sample; the samples equal those of a clamp per sample
    p0 = np.eye(51)[3]
    samples, max_drift = evolve_populations(p0, _SignedZeroStepMatrix(GAMMA, 0.0, 51, 7e-4), n_steps, stride)
    monkeypatch.setattr(_kernels, "_guard", _four_reduction_guard)
    monkeypatch.setattr(_kernels, "_evolve_sampled", _four_reduction_sampled)
    want = evolve_populations(p0, _matrix(p0, 7e-4, boltz=0.0), n_steps, stride)
    assert max_drift == want[1]
    assert samples.tobytes() == want[0].tobytes()
    assert not np.signbit(samples).any()


class _GivenStepMatrix(StepMatrix):
    """A StepMatrix over a given R at dt = 1, taken as stable."""

    def __init__(self, r):
        self.r, self.stable, self.dt = r, True, 1.0


@pytest.mark.parametrize("n_steps,stride,bad_step", [(5, 1, 3), (5, 2, 4), (3, 2, 3)])
def test_a_later_sample_trips_at_its_step_like_the_four_reduction_path(n_steps, stride, bad_step):
    # the mass walks up a 3-level chain; only the top column gains 2e-10 a
    # step, so the first sample passes and a later one (the ragged last in
    # the third case) trips the drift guard
    r = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 1.0 + 2e-10]])
    p0 = np.array([1.0, 0.0, 0.0])
    out = np.empty((sample_count(n_steps, stride), 3))
    got = _evolve_sampled(p0, _GivenStepMatrix(r), n_steps, stride, out)
    want = _four_reduction_sampled(p0, _GivenStepMatrix(r), n_steps, stride, out.copy())
    assert got == want
    assert got[:2] == (_DRIFT, bad_step)
    # the stepwise rerun names the first bad step: the one that reaches the top level
    with pytest.raises(IntegrationError, match=r"^probability sum drifted beyond 1e-10 at step 3 \(dt=1\.000e\+00\)"):
        evolve_populations(p0, _GivenStepMatrix(r), n_steps, stride)


def test_stepwise_loop_and_whole_stroke_jump_equal_the_four_reduction_guard_bit_for_bit(monkeypatch):
    p0 = np.zeros(51)
    p0[0] = 1.0
    got = _stepwise(p0, 7e-4, 2857, 44)
    jumped = evolve_populations(p0, _matrix(p0, 7e-4), 2857, 2857)
    monkeypatch.setattr(_kernels, "_guard", _four_reduction_guard)
    want = _stepwise(p0, 7e-4, 2857, 44)
    assert got[:3] == want[:3]
    assert got[3].tobytes() == want[3].tobytes()
    monkeypatch.setattr(_kernels, "_evolve_sampled", _four_reduction_sampled)
    want_jumped = evolve_populations(p0, _matrix(p0, 7e-4), 2857, 2857)
    assert jumped[1] == want_jumped[1]
    assert jumped[0].tobytes() == want_jumped[0].tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gamma", [1.5e306, 3e306, 1.7e308])
def test_step_matrix_whose_generator_overflows_is_unstable_without_warnings(gamma):
    # the rates, not only the powers of the generator, overflow at dt = 1
    assert not StepMatrix(gamma, BOLTZ, 51, 1.0).stable


def test_nan_state_trips_the_drift_guard_at_the_first_step():
    # a rate far too large for dt overflows R to inf/nan: not a stable matrix,
    # so the stepwise loop runs and stops at step 1 instead of stepping NaNs
    p0 = np.zeros(51)
    p0[0] = 1.0
    with np.errstate(all="raise"), pytest.raises(IntegrationError, match=r"^probability sum drifted beyond 1e-10 "
                                                                          r"at step 1 \(dt=1\.000e-06\);"):
        evolve_populations(p0, _matrix(p0, 1e-6, gamma=1e300), 2_000_000, 1000)
