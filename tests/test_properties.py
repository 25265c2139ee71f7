"""Property-based checks of the physical invariants.

These complement the example-based tests: every valid parameter combination
must conserve probability, respect detailed balance, keep entropy frozen
through ramps, and close the first-law ledger.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ottokiln import (
    BathStroke,
    EngineConfig,
    FockDistribution,
    InitialStateSpec,
    IntegrationError,
    RateParams,
    bose_einstein,
    entropy,
    internal_energy,
    make_distribution,
    rate_derivative,
    run_cycles,
    stationary_distribution,
)
from conftest import assert_same_ledgers, random_distribution

finite = dict(allow_nan=False, allow_infinity=False)
omegas = st.floats(min_value=0.3, max_value=3.0, **finite)
temperatures = st.floats(min_value=0.2, max_value=1.5, **finite)
gammas = st.floats(min_value=0.05, max_value=1.0, **finite)


def spec_strategy():
    return st.one_of(
        st.just(InitialStateSpec.ground()),
        st.integers(min_value=0, max_value=8).map(InitialStateSpec.single_level),
        st.integers(min_value=1, max_value=10).map(InitialStateSpec.equal_lowest),
        st.tuples(st.integers(min_value=0, max_value=6), omegas, temperatures).map(
            lambda t: InitialStateSpec.gaussian(*t)
        ),
        st.tuples(st.floats(min_value=0.8, max_value=3.0, **finite),
                  st.floats(min_value=0.2, max_value=1.2, **finite)).map(
            lambda t: InitialStateSpec.boltzmann(*t)
        ),
    )


@given(spec=spec_strategy(), n_max=st.integers(min_value=30, max_value=80))
def test_every_recipe_yields_a_normalized_distribution(spec, n_max):
    dist = make_distribution(spec, n_max)
    assert dist.probs.min() >= 0.0
    assert abs(dist.probs.sum() - 1.0) <= 1e-12


@given(spec=spec_strategy(), omega=omegas, factor=st.floats(min_value=0.1, max_value=10.0, **finite))
def test_internal_energy_is_linear_in_frequency(spec, omega, factor):
    dist = make_distribution(spec, 60)
    u = internal_energy(dist, omega)
    assert internal_energy(dist, factor * omega) == pytest.approx(factor * u, rel=1e-12, abs=1e-300)


@given(spec=spec_strategy(), omega_a=omegas, omega_b=omegas)
def test_entropy_ignores_the_frequency(spec, omega_a, omega_b):
    # populations alone define the entropy; a ramp cannot change it
    dist = make_distribution(spec, 60)
    assert entropy(dist) == entropy(dist)
    assert internal_energy(dist, omega_a) * omega_b == pytest.approx(
        internal_energy(dist, omega_b) * omega_a, rel=1e-12, abs=1e-300
    )


@given(k=st.integers(min_value=1, max_value=30))
def test_uniform_lowest_entropy_is_log_k(k):
    dist = make_distribution(InitialStateSpec.equal_lowest(k), 40)
    assert entropy(dist) == pytest.approx(math.log(k), rel=1e-13, abs=1e-13)


@given(omega=st.floats(min_value=0.8, max_value=3.0, **finite),
       temperature=st.floats(min_value=0.2, max_value=1.2, **finite))
def test_thermal_energy_matches_closed_form(omega, temperature):
    dist = make_distribution(InitialStateSpec.boltzmann(omega, temperature), 80)
    assert internal_energy(dist, omega) == pytest.approx(
        omega * bose_einstein(omega, temperature), abs=1e-10
    )


@given(omega=omegas, temperature=temperatures, gamma0=gammas)
def test_thermal_state_is_a_detailed_balance_fixed_point(omega, temperature, gamma0):
    params = RateParams(omega, temperature, gamma0)
    fixed = stationary_distribution(omega, temperature, 50)
    assert np.abs(rate_derivative(fixed, params)).max() <= 1e-12


@given(omega=omegas, temperature=temperatures, gamma0=gammas,
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_rate_derivative_conserves_probability(omega, temperature, gamma0, seed):
    rng = np.random.default_rng(seed)
    probs = rng.random(41)
    probs /= probs.sum()
    params = RateParams(omega, temperature, gamma0)
    deriv = rate_derivative(FockDistribution(probs), params)
    scale = max(1.0, np.abs(deriv).max())
    assert abs(math.fsum(deriv.tolist())) <= 1e-13 * scale


@settings(max_examples=10, deadline=None)
@given(
    omega_c=st.floats(min_value=0.5, max_value=1.2, **finite),
    ratio=st.floats(min_value=1.2, max_value=2.5, **finite),
    t_c=st.floats(min_value=0.3, max_value=0.6, **finite),
    t_gap=st.floats(min_value=1.5, max_value=3.0, **finite),
    tau=st.floats(min_value=0.5, max_value=2.5, **finite),
)
def test_cycle_ledger_closes_the_first_law(omega_c, ratio, t_c, t_gap, tau):
    omega_h = omega_c * ratio
    record = run_cycles(
        make_distribution(InitialStateSpec.ground(), 50),
        EngineConfig(omega_c=omega_c, omega_h=omega_h, t_c=t_c, t_h=t_c * t_gap, gamma0=0.5, tau=tau,
                     n_cycles=1),
    ).final_record
    assert abs(record.first_law_residual()) <= 1e-9
    assert record.w_eff == record.w_out - record.w_in
    assert entropy(record.dist_b) == entropy(record.dist_c)


@settings(max_examples=10, deadline=None)
@given(
    spec=st.sampled_from([InitialStateSpec.ground(), InitialStateSpec.equal_lowest(3),
                          InitialStateSpec.single_level(7)]),
    tau=st.floats(min_value=0.2, max_value=2.5, **finite),
    gamma0=gammas,
    t_h=st.floats(min_value=0.8, max_value=2.0, **finite),
    window=st.floats(min_value=0.05, max_value=0.95, **finite),
)
def test_ledger_only_run_books_the_traced_ledger(spec, tau, gamma0, t_h, window):
    # omega_c = 1, t_c = 0.4: the engine window is 1 < omega_h < t_h / 0.4
    omega_h = 1.0 + window * (t_h / 0.4 - 1.0)
    dist = make_distribution(spec, 50)
    config = EngineConfig(omega_c=1.0, omega_h=omega_h, t_c=0.4, t_h=t_h, gamma0=gamma0, tau=tau, n_cycles=4)
    assert_same_ledgers(run_cycles(dist, config), run_cycles(dist, config, ledger_only=True), 1e-12)


def _stroke_end(stroke, dist, traced_stride=None):
    """(end populations' bytes, drift) of the stroke from dist, by its
    trajectory at traced_stride or (None) its end_state, or the text of its
    IntegrationError."""
    try:
        if traced_stride is not None:
            traj = stroke.trajectory(dist, traced_stride, tail_tolerance=1.0)
            final, drift = traj.final, traj.max_drift
        else:
            final, drift = stroke.end_state(dist, tail_tolerance=1.0)
    except IntegrationError as exc:
        return str(exc)
    return final.probs.tobytes(), drift


@settings(max_examples=60, deadline=None)
@given(omega=omegas, temperature=temperatures, gamma0=gammas,
       duration=st.floats(min_value=0.05, max_value=4.0, **finite),
       n_levels=st.integers(min_value=2, max_value=40),
       sample_stride=st.integers(min_value=1, max_value=300),
       coarse=st.one_of(st.none(), st.floats(min_value=0.5, max_value=2.5, **finite)),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_stroke_end_state_is_its_traced_end_bit_for_bit(omega, temperature, gamma0, duration, n_levels,
                                                         sample_stride, coarse, seed):
    # coarse is dt times a bound on the fastest rate out of a level: from
    # about 1.1 up R fails its checks and both paths step one step at a time,
    # and from about 2 up a step from a random start goes negative and
    # raises (None: the default dt)
    params = RateParams(omega, temperature, gamma0)
    rate_bound = 2.0 * params.gamma * (1.0 + params.boltz_factor) * n_levels
    dt = None if coarse is None else min(duration, coarse / rate_bound)
    stroke = BathStroke(params, duration, n_levels, dt)
    dist = random_distribution(np.random.default_rng(seed), n_levels)
    ended = _stroke_end(stroke, dist)
    # traced with one sample at its end, the stroke makes end_state's one jump
    # R^n_steps; stepping one step at a time, it ends the same at any stride
    strides = [stroke.n_steps] if stroke.step_matrix.stable else [stroke.n_steps, sample_stride]
    for stride in strides:
        assert ended == _stroke_end(stroke, dist, stride)
