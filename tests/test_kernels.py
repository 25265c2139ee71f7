import itertools
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from ottokiln import FockDistribution, IntegrationError, _kernels
from ottokiln.bath import BathStroke, RateParams
from ottokiln._kernels import (
    DRIFT_TOL,
    NEG_FLOOR,
    StepMatrix,
    _DRIFT,
    _NEGATIVE,
    _NEGATIVE_START,
    _evolve_sampled,
    _evolve_stepwise,
    evolve_populations,
    generator_matrix,
    rk4_step_matrix,
    sample_count,
    sample_steps,
    step_matrix_is_stable,
)
from ottokiln.oracle import propagate_matrix_exponential
from ottokiln.verification import run_all_checks

GAMMA = 0.5447127449169259   # 0.5 * (1 + nbar) at omega/T = 2.5
BOLTZ = 0.0820849986238988


def _matrix(p0, dt, gamma=GAMMA, boltz=BOLTZ):
    """The StepMatrix of a stroke at dt on len(p0) levels."""
    return StepMatrix(gamma, boltz, len(p0), dt)


def test_generator_rates_and_reflecting_top():
    gen = generator_matrix(GAMMA, BOLTZ, 6)
    assert gen[0, 0] == pytest.approx(-2 * GAMMA * BOLTZ)  # level 0: no emission
    assert gen[2, 3] == pytest.approx(2 * GAMMA * 3)  # emission out of level 3
    assert gen[3, 2] == pytest.approx(2 * GAMMA * BOLTZ * 3)  # absorption out of level 2
    assert gen[5, 5] == pytest.approx(-2 * GAMMA * 5)  # the top level: no absorption


def test_step_matrix_is_fourth_order_polynomial():
    gen = generator_matrix(GAMMA, BOLTZ, 10)
    a = gen * 0.01
    expected = np.eye(10) + a + a @ a / 2 + a @ a @ a / 6 + a @ a @ a @ a / 24
    np.testing.assert_allclose(rk4_step_matrix(gen, 0.01), expected, atol=1e-15)


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
    r = rk4_step_matrix(generator_matrix(GAMMA, BOLTZ, p0.shape[0]), dt)
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


@pytest.mark.parametrize("dt,offset,stride,stable,expect", [
    (0.5, 0.0, 10, False, (_NEGATIVE, 2)),  # unstable dt: R has negative entries
    (7e-4, 1e-9, 1, True, (_DRIFT, 1)),    # start off the simplex: the first sample, at step 1, trips
])
def test_guard_failure_names_the_first_bad_step_like_the_stepwise_loop(dt, offset, stride, stable, expect,
                                                                       monkeypatch):
    monkeypatch.setattr(_kernels, "_evolve_stepwise" if stable else "_evolve_sampled", _refuse)
    p0 = np.zeros(51)
    p0[0] = 1.0 + offset
    text = expect[0].format(step=expect[1], dt=dt)
    with pytest.raises(IntegrationError, match=f"^{re.escape(text)}$"):
        evolve_populations(p0, _matrix(p0, dt), 50, stride)
    ref_trip, ref_bad, _, _, r = _stepwise(p0, dt, 50, stride)
    assert step_matrix_is_stable(r) == stable
    assert (ref_trip, ref_bad) == expect


@pytest.mark.parametrize("gamma,dt,edits,text", [
    (GAMMA, 0.5, {}, "probability below -1e-12 at step 2 (dt=5.000e-01); the step size is unstable"),
    (1e300, 1e-6, {}, "probability sum drifted beyond 1e-10 at step 1 (dt=1.000e-06); reduce the time step"),
    (GAMMA, 7e-4, {0: 1.0 + 1e-9}, "probability sum drifted beyond 1e-10 at step 10 (dt=7.000e-04); "
                                   "reduce the time step"),
    (GAMMA, 7e-4, {0: 1.0 + 1e-9, 50: -1e-9}, "probability below -1e-12 at step 10 (dt=7.000e-04); "
                                              "the start state holds a negative population"),
    (GAMMA, 7e-4, {0: 1.0 + 1e-8, 50: -1e-9}, "probability sum drifted beyond 1e-10 at step 10 (dt=7.000e-04); "
                                              "reduce the time step"),
], ids=["negative", "drift", "drift-sampled", "negative-sampled", "drift-and-negative-sampled"])
def test_evolve_populations_raises_each_guard_text(gamma, dt, edits, text):
    # an unstable R (negative entries at dt = 0.5, overflowed to NaN at gamma
    # = 1e300) trips in the stepwise loop; a stable R trips only on a start
    # off the simplex or below the floor, at the first sample (step 10), and
    # a sample that fails both checks names the drift
    p0 = np.zeros(51)
    p0[0] = 1.0
    for level, value in edits.items():
        p0[level] = value
    with pytest.raises(IntegrationError) as raised:
        evolve_populations(p0, _matrix(p0, dt, gamma=gamma), 50, 10)
    assert str(raised.value) == text


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


def _divided_power(r, gap):
    """R^gap divided by its column sums."""
    power = np.linalg.matrix_power(r, gap)
    return power / power.sum(axis=0)


def _four_reduction_sampled(p, step_matrix, n_steps, stride, out):
    """The sample-to-sample loop before the rewrite: each jump is a new array,
    guarded by the reference guard, then copied into its output row.  Its
    powers are matrix_power results divided by their column sums once, as
    StepMatrix builds them."""
    out[0] = p
    max_drift = 0.0
    gaps = [stride] * (n_steps // stride)
    if n_steps % stride:
        gaps.append(n_steps % stride)
    jumps = {gap: _divided_power(step_matrix.r, gap) for gap in set(gaps)}
    k = 0
    for idx, gap in enumerate(gaps, start=1):
        p = jumps[gap] @ p
        k += gap
        trip, max_drift = _four_reduction_guard(p, max_drift)
        if trip:
            return trip, k, max_drift
        out[idx] = p
    return None, n_steps, max_drift


# Largest relative difference per population between doubled samples and the
# reference loop: the loop renormalizes every sample, doubling renormalizes
# its powers, so the two round apart by a few ulps per doubling.  The tests
# below reach 1.1e-13 (2-core x86, numpy 2.4, OpenBLAS); 1e-12 is about
# 4,500 ulps of a float64 near 1.
DOUBLING_TOL = 1e-12


def assert_agrees_with_the_reference(got, want):
    """got within DOUBLING_TOL of want, entry by entry, where want is a normal
    float (a subnormal entry carries fewer digits)."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= DOUBLING_TOL * want + np.finfo(float).tiny)


def _jumped(sampled):
    """A reference sampled loop in the place of _evolve_jump: the stroke at
    one stride of n_steps, recorded at its two ends only."""
    return lambda p, step_matrix, n_steps, out: sampled(p, step_matrix, n_steps, n_steps, out)


def _reference(p0, step_matrix, n_steps, stride, monkeypatch):
    """evolve_populations on the four-reduction path: one jump per sample,
    each sample guarded and renormalized."""
    with monkeypatch.context() as patch:
        patch.setattr(_kernels, "_guard", _four_reduction_guard)
        patch.setattr(_kernels, "_evolve_sampled", _four_reduction_sampled)
        patch.setattr(_kernels, "_evolve_jump", _jumped(_four_reduction_sampled))
        return evolve_populations(p0, step_matrix, n_steps, stride)


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


def _start(start, n_steps):
    """A 51-level start state and the boltz_factor of its bath: a random
    state, the ground state, or level 3 under a bath with no upward rate."""
    if start == "random":
        p0 = np.random.default_rng(n_steps).random(51)
        return p0 / p0.sum(), BOLTZ
    if start == "ground":
        return np.eye(51)[0], BOLTZ
    return np.eye(51)[3], 0.0


@pytest.mark.parametrize("start", ["random", "ground", "level-3-frozen-bath"])
@pytest.mark.parametrize("n_steps,stride", [(2000, 500), (11, 5), (10, 50), (1, 1), (2857, 44)])
def test_samples_equal_the_four_reduction_path_bit_for_bit(n_steps, stride, start, monkeypatch):
    # one jump per sample, the path above DOUBLING_MAX_LEVELS levels.  A
    # ground start leaves exact zeros above the first few levels after a
    # short jump, so the clamp branch is taken too; a bath with no upward
    # rate (boltz_factor 0) keeps every level above a level-3 start at exact
    # zero in every sample, the entries the clamp after the last block covers
    # (test_later_samples_store_no_negative_zero stores them as -0.0)
    monkeypatch.setattr(_kernels, "DOUBLING_MAX_LEVELS", 0)
    p0, boltz = _start(start, n_steps)
    samples, max_drift = evolve_populations(p0, _matrix(p0, 7e-4, boltz=boltz), n_steps, stride)
    want = _reference(p0, _matrix(p0, 7e-4, boltz=boltz), n_steps, stride, monkeypatch)
    assert max_drift == want[1]
    assert samples.tobytes() == want[0].tobytes()
    if start == "level-3-frozen-bath":
        assert np.all(samples[:, 4:] == 0.0) and not np.signbit(samples).any()


@pytest.mark.parametrize("start", ["random", "ground", "level-3-frozen-bath"])
@pytest.mark.parametrize("n_steps,stride", [(2000, 500), (11, 5), (10, 50), (1, 1), (2857, 44)])
def test_doubled_samples_agree_with_the_four_reduction_path(n_steps, stride, start, monkeypatch):
    p0, boltz = _start(start, n_steps)
    samples, max_drift = evolve_populations(p0, _matrix(p0, 7e-4, boltz=boltz), n_steps, stride)
    want = _reference(p0, _matrix(p0, 7e-4, boltz=boltz), n_steps, stride, monkeypatch)
    assert max_drift <= DRIFT_TOL
    assert_agrees_with_the_reference(samples, want[0])
    if start == "level-3-frozen-bath":
        assert np.all(samples[:, 4:] == 0.0) and not np.signbit(samples).any()


@pytest.mark.parametrize("n_steps,stride", [*itertools.product([11, 2000, 2857], [1, 5, 44, 500]), (2000, 1000)],
                         ids=lambda value: str(value))
def test_doubled_samples_agree_with_the_reference_loop(n_steps, stride, monkeypatch):
    # the grid holds ragged last gaps (2857 = 64 * 44 + 41), strokes recorded
    # at their two ends only (stride >= n_steps) and a stroke of two samples
    # after its start (2000 at 1000), where no block is doubled
    p0 = np.random.default_rng(n_steps + stride).random(51)
    p0 /= p0.sum()
    samples, max_drift = evolve_populations(p0, _matrix(p0, 7e-4), n_steps, stride)
    want, want_drift = _reference(p0, _matrix(p0, 7e-4), n_steps, stride, monkeypatch)
    assert_agrees_with_the_reference(samples, want)
    assert max_drift <= DRIFT_TOL and want_drift <= DRIFT_TOL
    if stride >= n_steps:  # one jump over the whole stroke: the same path
        assert (samples.tobytes(), max_drift) == (want.tobytes(), want_drift)


@pytest.mark.parametrize("n_levels", [11, 21])
@pytest.mark.parametrize("stride", [1, 7, 44, 333])
def test_doubled_samples_agree_with_the_matrix_exponential_row_by_row(n_levels, stride, monkeypatch):
    # each sample against the exact propagator expm(G t) at its time: doubling
    # adds at most rounding to the error of the fourth-order scheme itself
    p0 = np.random.default_rng(n_levels).random(n_levels)
    dist = FockDistribution(p0 / p0.sum())
    params = RateParams(1.5, 1.2, 0.5)
    stroke = BathStroke(params, 2.0, n_levels)
    samples, _ = evolve_populations(dist.probs, stroke.step_matrix, stroke.n_steps, stride)
    reference, _ = _reference(dist.probs, stroke.step_matrix, stroke.n_steps, stride, monkeypatch)
    times = sample_steps(stroke.n_steps, stride) * stroke.step
    for got, want, t in zip(samples, reference, times):
        exact = propagate_matrix_exponential(dist, params, t).probs
        assert np.abs(got - exact).max() <= np.abs(want - exact).max() + 1e-13 <= 1e-8


@st.composite
def strokes(draw):
    """A start state, rates, a step that keeps R stable, n_steps and stride."""
    n_levels = draw(st.integers(2, 30))
    p0 = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n_levels, max_size=n_levels)))
    if draw(st.booleans()):
        p0 = np.eye(n_levels)[draw(st.integers(0, n_levels - 1))]
    assume(p0.sum() > 0.0)
    gamma = draw(st.floats(0.01, 10.0))
    boltz = draw(st.sampled_from([0.0, draw(st.floats(0.0, 0.95))]))
    dt = draw(st.floats(0.05, 1.0)) / (40.0 * gamma * n_levels)  # up to default_time_step's rate bound
    n_steps = draw(st.integers(1, 3000))
    stride = draw(st.integers(1, n_steps + 2))
    return p0 / p0.sum(), StepMatrix(gamma, boltz, n_levels, dt), n_steps, stride


@given(strokes())
def test_kernel_agreement_doubled_against_the_per_sample_loop(stroke):
    p0, step_matrix, n_steps, stride = stroke
    assert step_matrix.stable
    samples, max_drift = evolve_populations(p0, step_matrix, n_steps, stride)
    out = np.empty_like(samples)
    trip, _, want_drift = _four_reduction_sampled(p0, step_matrix, n_steps, stride, out)
    assert trip is None and max_drift <= DRIFT_TOL and want_drift <= DRIFT_TOL
    assert_agrees_with_the_reference(samples, out)


@given(strokes())
def test_kernel_agreement_one_stride_blocks_equal_the_per_sample_loop_bit_for_bit(stroke):
    # DOUBLING_MAX_LEVELS at 0: every block is one stride, the rule above the
    # cap, and the samples and max_drift are the reference loop's bit for bit
    p0, step_matrix, n_steps, stride = stroke
    with mock.patch.object(_kernels, "DOUBLING_MAX_LEVELS", 0):
        samples, max_drift = evolve_populations(p0, step_matrix, n_steps, stride)
    out = np.empty_like(samples)
    trip, _, want_drift = _four_reduction_sampled(p0, step_matrix, n_steps, stride, out)
    assert trip is None and max_drift == want_drift
    assert samples.tobytes() == out.tobytes()


@st.composite
def stable_step_matrices(draw):
    """A StepMatrix on up to 120 levels at a step that keeps R stable, and the
    gaps, a stride and the doubling count of the powers asked of it."""
    n_levels = draw(st.integers(2, 120))
    gamma = draw(st.floats(0.01, 1e4))
    boltz = draw(st.sampled_from([0.0, draw(st.floats(0.0, 0.95))]))
    dt = draw(st.floats(0.05, 1.0)) / (40.0 * gamma * n_levels)  # up to default_time_step's rate bound
    gaps = draw(st.lists(st.integers(1, 10**8), max_size=3))
    return StepMatrix(gamma, boltz, n_levels, dt), gaps, draw(st.integers(1, 10**6)), draw(st.integers(0, 6))


@settings(deadline=None)
@given(stable_step_matrices())
def test_every_step_power_conserves_probability_and_leaves_r_unchanged(drawn):
    step_matrix, gaps, stride, doublings = drawn
    assert step_matrix.stable
    r = step_matrix.r.copy()
    step_matrix[1]
    assert step_matrix.r.tobytes() == r.tobytes() and step_matrix[1] is not step_matrix.r
    for gap in gaps:
        step_matrix[gap]
    for k in range(doublings + 1):
        step_matrix.doubling(stride, 2**k)
    n_levels = r.shape[0]
    for key, power in step_matrix.items():
        assert np.abs(np.add.reduce(power, axis=0) - 1.0).max() <= n_levels * 2.0**-52, key


def test_doubling_powers_are_kept_apart_from_the_gap_powers():
    # the stride, ragged and whole-stroke powers are matrix_power results
    # divided by their column sums; each doubling power is the square of the
    # one before it divided by its column sums
    p0 = np.random.default_rng(1).random(51)
    p0 /= p0.sum()
    step_matrix = _matrix(p0, 7e-4)
    evolve_populations(p0, step_matrix, 2857, 44)
    evolve_populations(p0, step_matrix, 2857, 2857)
    gaps = sorted(key for key in step_matrix if not isinstance(key, tuple))
    assert gaps == [41, 44, 2857]
    for gap in gaps:
        assert step_matrix[gap].tobytes() == _divided_power(step_matrix.r, gap).tobytes()
        assert np.abs(step_matrix[gap].sum(axis=0) - 1.0).max() <= 4.5e-16
    doubling = sorted(key for key in step_matrix if isinstance(key, tuple))
    assert doubling == [("doubling", 44, m) for m in (2, 4, 8, 16, 32)]
    half = step_matrix[44]
    for key in doubling:
        square = half @ half
        assert step_matrix[key].tobytes() == (square / square.sum(axis=0)).tobytes()
        assert np.abs(step_matrix[key].sum(axis=0) - 1.0).max() <= 4.5e-16
        half = step_matrix[key]


@pytest.mark.parametrize("n_levels", [_kernels.DOUBLING_MAX_LEVELS, _kernels.DOUBLING_MAX_LEVELS + 1])
def test_strokes_above_the_level_cap_jump_once_per_sample(n_levels, monkeypatch):
    # a stroke of DOUBLING_MAX_LEVELS levels builds doubling powers; one more
    # level jumps once per sample, the four-reduction path bit for bit
    p0 = np.random.default_rng(n_levels).random(n_levels)
    p0 /= p0.sum()
    step_matrix = _matrix(p0, 7e-4)
    samples, max_drift = evolve_populations(p0, step_matrix, 2857, 44)
    want = _reference(p0, _matrix(p0, 7e-4), 2857, 44, monkeypatch)
    doubled = any(isinstance(key, tuple) for key in step_matrix)
    assert doubled == (n_levels <= _kernels.DOUBLING_MAX_LEVELS)
    if doubled:
        assert_agrees_with_the_reference(samples, want[0])
    else:
        assert (samples.tobytes(), max_drift) == (want[0].tobytes(), want[1])


class _SignedZeroJump:
    """A power of R in a matmul that stores each exact zero of its product as
    -0.0, as a matmul that keeps the sign of a sum of -0.0 products may; .T
    is the transposed power, for the doubling blocks."""

    def __init__(self, matrix):
        self.matrix = matrix

    @property
    def T(self):
        return _SignedZeroJump(self.matrix.T)

    def __array_ufunc__(self, ufunc, method, *inputs, out):
        inputs = [x.matrix if isinstance(x, _SignedZeroJump) else x for x in inputs]
        result = np.matmul(*inputs, out=out[0])
        result[result == 0.0] = -0.0
        return result


class _SignedZeroStepMatrix(StepMatrix):
    """A StepMatrix whose powers, gap and doubling alike, are those of a plain
    StepMatrix wrapped as _SignedZeroJump."""

    def __init__(self, *args):
        super().__init__(*args)
        self.plain = StepMatrix(*args)

    def __missing__(self, key):
        jump = self[key] = _SignedZeroJump(self.plain[key])
        return jump


# DOUBLING_MAX_LEVELS for a 51-level stroke that jumps once per sample, or doubles
PATHS = pytest.mark.parametrize("doubling_max_levels", [0, 51], ids=["jumped", "doubled"])


@PATHS
@pytest.mark.parametrize("n_steps,stride", [(2000, 500), (11, 5), (2857, 44)])
def test_later_samples_store_no_negative_zero(n_steps, stride, doubling_max_levels, monkeypatch):
    # every sample holds -0.0 above level 3 before the clamp after the last
    # block; the samples equal those of a matmul that stores +0.0
    monkeypatch.setattr(_kernels, "DOUBLING_MAX_LEVELS", doubling_max_levels)
    p0 = np.eye(51)[3]
    samples, max_drift = evolve_populations(p0, _SignedZeroStepMatrix(GAMMA, 0.0, 51, 7e-4), n_steps, stride)
    want = evolve_populations(p0, _matrix(p0, 7e-4, boltz=0.0), n_steps, stride)
    assert max_drift == want[1]
    assert samples.tobytes() == want[0].tobytes()
    assert not np.signbit(samples).any()


# Largest |sum - 1| of a stored sample of a stable stroke: every later sample
# is renormalized before the next block reads it.  400 drawn strokes on 2 to
# 80 levels reached 4.4e-16 on both block rules (2-core x86, numpy 2.4,
# OpenBLAS); unrenormalized doubled samples reached 8.9e-16.
SAMPLE_SUM_TOL = 2.0**-51


@PATHS
@pytest.mark.parametrize("start,n_steps,stride", [
    ("verify", None, None), *itertools.product(["random", "ground"], [2857, 20000], [1, 7, 44]),
], ids=lambda value: str(value))
def test_every_stored_sample_sums_to_one_within_two_ulps(start, n_steps, stride, doubling_max_levels, monkeypatch):
    # "verify" is the stroke of check_positivity_and_norm, at its own step
    # count and stride; its doubled samples reached 7.8e-16 unrenormalized
    monkeypatch.setattr(_kernels, "DOUBLING_MAX_LEVELS", doubling_max_levels)
    if start == "verify":
        stroke = BathStroke(RateParams(1.0, 0.4, 0.5), 5.0, 51)
        p0, step_matrix, n_steps, stride = np.eye(51)[2], stroke.step_matrix, stroke.n_steps, 10
    else:
        p0, boltz = _start(start, n_steps)
        step_matrix = _matrix(p0, 7e-4, boltz=boltz)
    samples, _ = evolve_populations(p0, step_matrix, n_steps, stride)
    assert np.abs(np.add.reduce(samples, axis=1) - 1.0).max() <= SAMPLE_SUM_TOL


@pytest.mark.parametrize("doubling_max_levels,n_steps,stride,nan_key,bad_step", [
    (0, 5, 2, 2, 2), (0, 5, 2, 1, 5), (0, 3, 2, 1, 3),
    (3, 5, 2, 1, 5), (3, 5, 1, ("doubling", 1, 2), 3), (3, 9, 1, ("doubling", 1, 4), 5),
], ids=["jumped-stride", "jumped-5-2-ragged", "jumped-3-2-ragged",
        "doubled-ragged", "doubled-m2", "doubled-m4"])
def test_a_power_that_carries_nan_trips_at_its_step(doubling_max_levels, n_steps, stride, nan_key, bad_step,
                                                    monkeypatch):
    # a power divided by its column sums cannot drift, so one that carries
    # NaN stands in for a bad power: the stride power trips at the first
    # sample, the ragged power at the last, and a doubling power R^(m stride)
    # at sample m + 1, the first of the block it doubles
    monkeypatch.setattr(_kernels, "DOUBLING_MAX_LEVELS", doubling_max_levels)
    p0 = np.array([1.0, 0.0, 0.0])
    step_matrix = StepMatrix(GAMMA, BOLTZ, 3, 7e-4)
    step_matrix[nan_key] = np.full((3, 3), np.nan)
    out = np.empty((sample_count(n_steps, stride), 3))
    got = _evolve_sampled(p0, step_matrix, n_steps, stride, out)
    assert got[:2] == (_DRIFT, bad_step)
    assert np.isfinite(out[:-(-bad_step // stride)]).all()  # the samples before the trip
    with pytest.raises(IntegrationError, match=rf"^probability sum drifted beyond 1e-10 at step {bad_step} \(dt="):
        evolve_populations(p0, step_matrix, n_steps, stride)


def test_stepwise_loop_and_whole_stroke_jump_equal_the_four_reduction_guard_bit_for_bit(monkeypatch):
    p0 = np.zeros(51)
    p0[0] = 1.0
    got = _stepwise(p0, 7e-4, 2857, 44)
    jumped = evolve_populations(p0, _matrix(p0, 7e-4), 2857, 2857)
    monkeypatch.setattr(_kernels, "_guard", _four_reduction_guard)
    want = _stepwise(p0, 7e-4, 2857, 44)
    assert got[:3] == want[:3]
    assert got[3].tobytes() == want[3].tobytes()
    monkeypatch.setattr(_kernels, "_evolve_jump", _jumped(_four_reduction_sampled))
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


def _two_rule_sampled(p, step_matrix, n_steps, stride, out):
    """The sampled path with two rules, kept as the reference: the first
    sample by one jump R^stride under the full guard (drift, negativity,
    clamp, renormalization), then _two_rule_later_samples."""
    out[0] = p
    gap = min(stride, n_steps)
    p = np.matmul(step_matrix[gap], p, out=out[1])
    trip, max_drift = _kernels._guard(p, 0.0)
    if trip or gap == n_steps:
        return _NEGATIVE_START if trip is _NEGATIVE else trip, gap, max_drift
    trip, bad_step, max_drift = _two_rule_later_samples(step_matrix, n_steps, stride, out, max_drift)
    if not trip:
        np.maximum(out[2:], 0.0, out=out[2:])
    return trip, bad_step, max_drift


def _two_rule_later_samples(step_matrix, n_steps, stride, out, max_drift):
    """Samples 2..last in blocks, each renormalized before a later block
    reads it, and their sums drift-checked once at the end."""
    last = out.shape[0] - 1
    doubles = out.shape[1] <= _kernels.DOUBLING_MAX_LEVELS
    totals = np.empty(last + 1)
    known = 1
    while known < last:
        if doubles and known < last - 1:
            block, source, power = min(known, last - 1 - known), 1, step_matrix.doubling(stride, known)
        else:
            block, source = 1, known
            power = step_matrix[stride if known < last - 1 else n_steps - (last - 1) * stride]
        rows = slice(known + 1, known + 1 + block)
        np.matmul(out[source:source + block], power.T, out=out[rows])
        out[rows] /= np.add.reduce(out[rows], axis=1, out=totals[rows])[:, None]
        known += block
    drifts = np.abs(totals[2:] - 1.0)
    bad = np.flatnonzero(~(drifts <= DRIFT_TOL))
    if bad.size:
        first = int(bad[0])
        return _DRIFT, min((first + 2) * stride, n_steps), max(max_drift, float(drifts[:first + 1].max()))
    return None, n_steps, max(max_drift, float(drifts.max()))


def _outcome(p0, step_matrix, n_steps, stride):
    """What evolve_populations gives: the samples' bytes and max_drift, or
    the text of the error it raises."""
    try:
        samples, max_drift = evolve_populations(p0, step_matrix, n_steps, stride)
    except IntegrationError as error:
        return str(error)
    return samples.tobytes(), max_drift


@st.composite
def sampled_strokes(draw):
    """A stable stroke on levels either side of DOUBLING_MAX_LEVELS, from a
    start on the simplex with exact zeros and -0.0, now and then scaled off
    it, given a NaN or an entry below -NEG_FLOOR; with strides past n_steps."""
    cap = _kernels.DOUBLING_MAX_LEVELS
    n_levels = draw(st.one_of(st.integers(2, 30), st.integers(cap - 3, cap + 3)))
    p0 = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n_levels, max_size=n_levels)))
    if draw(st.booleans()):
        p0 = np.eye(n_levels)[draw(st.integers(0, n_levels - 1))]
    for level in draw(st.lists(st.integers(0, n_levels - 1), max_size=3)):
        p0[level] = -0.0
    assume(p0.sum() > 0.0)
    p0 /= p0.sum()
    edit = draw(st.sampled_from([None, None, None, "nan", "negative"]))
    if edit == "nan":
        p0[draw(st.integers(0, n_levels - 1))] = np.nan
    elif edit == "negative":  # the mass moves to another level, so the sum stays 1 within rounding
        level, other = draw(st.permutations(range(n_levels)))[:2]
        below = draw(st.floats(1.0, 1e9, exclude_min=True)) * NEG_FLOOR
        p0[other] += p0[level] + below
        p0[level] = -below
    p0 *= draw(st.sampled_from([1.0, 1.0, 1.0, 1.0 + 0.5 * DRIFT_TOL, 1.0 + 2 * DRIFT_TOL, 1.0 - 2 * DRIFT_TOL]))
    gamma = draw(st.floats(0.01, 10.0))
    boltz = draw(st.sampled_from([0.0, draw(st.floats(0.0, 0.95))]))
    dt = draw(st.floats(0.05, 1.0)) / (40.0 * gamma * n_levels)  # up to default_time_step's rate bound
    n_steps = draw(st.integers(1, 3000))
    stride = draw(st.one_of(st.integers(1, n_steps + 2), st.just(10**9)))
    return p0, (gamma, boltz, n_levels, dt), n_steps, stride


@settings(deadline=None)
@given(sampled_strokes())
def test_kernel_agreement_one_block_loop_equals_the_two_rule_loop(stroke):
    # the first sample as the first block and one check pass give the two-rule
    # loop's samples and max_drift bit for bit, or its error text and step.
    # Left out: a first sample with an entry in [-NEG_FLOOR, 0), which only a
    # start below zero reaches (FockDistribution refuses one): the two-rule
    # loop clamps it before renormalizing, the one loop after, so their bits
    # part by rounding
    p0, matrix_args, n_steps, stride = stroke
    step_matrix = StepMatrix(*matrix_args)
    assert step_matrix.stable
    with np.errstate(invalid="ignore"):
        first_low = (step_matrix[min(stride, n_steps)] @ p0).min()
    assume(not -NEG_FLOOR <= first_low < 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(p0, step_matrix, n_steps, stride)
    with mock.patch.object(_kernels, "_evolve_sampled", _two_rule_sampled), \
            mock.patch.object(_kernels, "_evolve_jump", _jumped(_two_rule_sampled)):
        want = _outcome(p0, StepMatrix(*matrix_args), n_steps, stride)
    assert got == want
    event(got.split(" at step")[0] if isinstance(got, str) else "samples")
    event("doubling" if step_matrix.r.shape[0] <= _kernels.DOUBLING_MAX_LEVELS else "one stride per block")


@settings(deadline=None)
@given(sampled_strokes())
@example((np.zeros(51), (GAMMA, BOLTZ, 51, 7e-4), 50, 50))  # a zero sum, raised before anything divides by it
def test_kernel_agreement_whole_stroke_jump_equals_the_two_rule_loop(stroke):
    # a stroke recorded at its two ends only (every end_state) is one jump
    # R^n_steps with no block loop: the two-rule loop's samples and max_drift
    # bit for bit, or its error text and step, n_steps.  Left out as in the
    # test above: a first sample with an entry in [-NEG_FLOOR, 0)
    p0, matrix_args, n_steps, _ = stroke
    step_matrix = StepMatrix(*matrix_args)
    assert step_matrix.stable
    with np.errstate(invalid="ignore"):
        first_low = (step_matrix[n_steps] @ p0).min()
    assume(not -NEG_FLOOR <= first_low < 0.0)
    with warnings.catch_warnings(), mock.patch.object(_kernels, "_evolve_sampled", _refuse):
        warnings.simplefilter("error")
        got = _outcome(p0, step_matrix, n_steps, n_steps)
    with mock.patch.object(_kernels, "_evolve_jump", _jumped(_two_rule_sampled)):
        want = _outcome(p0, StepMatrix(*matrix_args), n_steps, n_steps)
    assert got == want
    event(got.split(" at step")[0] if isinstance(got, str) else "samples")
    event("doubling cap or below" if step_matrix.r.shape[0] <= _kernels.DOUBLING_MAX_LEVELS else "above the cap")


@pytest.mark.parametrize("n_levels", [51, _kernels.DOUBLING_MAX_LEVELS + 1])
@pytest.mark.parametrize("start", [0.0, np.nan], ids=["zero", "nan"])
@pytest.mark.parametrize("n_steps,stride", [(50, 10), (50, 50), (50, 1000)])
def test_a_zero_or_nan_start_trips_the_drift_guard_at_the_first_sample_without_warnings(n_levels, start,
                                                                                          n_steps, stride):
    p0 = np.full(n_levels, start)
    text = f"probability sum drifted beyond 1e-10 at step {min(stride, n_steps)} (dt=7.000e-04); reduce the time step"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError) as raised:
            evolve_populations(p0, _matrix(p0, 7e-4), n_steps, stride)
    assert str(raised.value) == text
