import math
import re

import numpy as np
import pytest

from ottokiln import (
    BathStroke,
    FockDistribution,
    InitialStateSpec,
    IntegrationError,
    OttoKilnError,
    RateParams,
    bose_einstein,
    default_time_step,
    evolve_isochoric,
    internal_energy,
    make_distribution,
    rate_derivative,
    stationary_distribution,
    total_variation,
)
from ottokiln import _kernels

NBAR_COLD = 0.08942548983385201   # 1/(e^2.5 - 1)
NBAR_HOT = 0.4015511184930129     # 1/(e^1.25 - 1)
Q_COLD = 0.0820849986238988       # exp(-2.5)
# internal energy after relaxing the ground state at (omega=1.5, T=1.2,
# gamma0=0.5) for duration 2.0; frozen from the dense matrix exponential
# and equal to 1.5 * nbar_hot * (1 - e^-2) from the mean-occupation closure
U_GROUND_RELAX_TAU2 = 0.5208106262066727


def params(omega=1.0, temperature=0.4, gamma0=0.5):
    return RateParams(omega, temperature, gamma0)


def test_bose_einstein_values():
    assert bose_einstein(1.0, 0.4) == pytest.approx(NBAR_COLD, rel=1e-14)
    assert bose_einstein(1.5, 1.2) == pytest.approx(NBAR_HOT, rel=1e-14)
    assert bose_einstein(80.0, 0.1) == pytest.approx(0.0, abs=1e-300)


@pytest.mark.parametrize("omega,temperature", [
    (1e-300, 1e300),  # omega/T underflows to 0
    (1e-320, 0.4),    # omega/T is subnormal and 1/x overflows
])
def test_bose_einstein_without_a_finite_occupation_raises(omega, temperature):
    with pytest.raises(OttoKilnError, match="too small for a finite bath occupation"):
        bose_einstein(omega, temperature)


def test_rate_params_derived_quantities():
    p = params(1.0, 0.4, 0.5)
    assert p.gamma == pytest.approx(0.5 * (NBAR_COLD + 1.0), rel=1e-14)
    assert p.boltz_factor == pytest.approx(Q_COLD, rel=1e-14)
    assert p.gamma > p.gamma0
    assert 0.0 < p.boltz_factor < 1.0


@pytest.mark.parametrize("omega,temperature,gamma0,message", [
    (0.0, 0.4, 0.5, "oscillator frequency must be positive, got 0.0"),
    (1.0, -0.4, 0.5, "bath temperature must be positive, got -0.4"),
    (1.0, 0.4, float("nan"), "relaxation constant must be positive, got nan"),
    (-1.0, -0.4, 0.0, "oscillator frequency must be positive, got -1.0"),  # checked in this order
], ids=["omega", "temperature", "gamma0", "all"])
def test_rate_params_reject_a_non_positive_input(omega, temperature, gamma0, message):
    with pytest.raises(OttoKilnError, match=f"^{re.escape(message)}$"):
        RateParams(omega, temperature, gamma0)


def test_rate_params_derive_gamma_and_boltz_factor_only():
    with pytest.raises(TypeError, match="gamma"):
        RateParams(1.0, 0.4, 0.5, gamma=1.0)
    with pytest.raises(TypeError, match="boltz_factor"):
        RateParams(1.0, 0.4, 0.5, boltz_factor=0.5)


@pytest.mark.parametrize("t_c", [0.02, 0.001])
def test_rate_params_accept_a_bath_too_cold_to_raise_gamma(t_c):
    # omega/T = 50: n_BE = 1.9e-22, so gamma0 * (n_BE + 1) rounds to gamma0;
    # omega/T = 1000: exp(-omega/T) underflows to 0, so no rate leads upwards
    p = params(1.0, t_c, 0.5)
    assert p.gamma == p.gamma0
    assert 0.0 <= p.boltz_factor < 1.0
    assert (p.boltz_factor == 0.0) == (t_c == 0.001)


def test_derivative_vanishes_at_matching_thermal_state():
    p = params(1.0, 0.4)
    fixed = stationary_distribution(1.0, 0.4, 50)
    np.testing.assert_allclose(rate_derivative(fixed, p), 0.0, atol=1e-12)


def test_derivative_from_ground_state():
    p = params(1.0, 0.4, 0.5)
    ground = make_distribution(InitialStateSpec.ground(), 30)
    deriv = rate_derivative(ground, p)
    expected = 2.0 * p.gamma * p.boltz_factor
    assert deriv[0] == pytest.approx(-expected, rel=1e-14)
    assert deriv[1] == pytest.approx(expected, rel=1e-14)
    assert np.all(deriv[2:] == 0.0)


def test_derivative_components_sum_to_zero():
    rng = np.random.default_rng(5)
    p = params(1.7, 0.9, 0.8)
    for _ in range(10):
        probs = rng.random(41)
        probs /= probs.sum()
        deriv = rate_derivative(FockDistribution(probs), p)
        assert abs(math.fsum(deriv.tolist())) < 1e-14


def test_default_time_step_resolves_both_scales():
    assert default_time_step(2.0, 0.7, 50) == pytest.approx(min(2e-3, 1 / (40 * 0.7 * 51)))
    assert default_time_step(0.1, 100.0, 10) == pytest.approx(1 / (40 * 100.0 * 11))


def test_thermal_state_is_unmoved_by_evolution():
    p = params(1.5, 1.2)
    fixed = stationary_distribution(1.5, 1.2, 50)
    final = evolve_isochoric(fixed, p, 3.0).final
    assert total_variation(fixed, final) < 1e-10


def test_ground_state_relaxes_to_thermal_state():
    p = params(1.5, 1.2)
    ground = make_distribution(InitialStateSpec.ground(), 50)
    final = evolve_isochoric(ground, p, 16.0).final
    assert total_variation(final, stationary_distribution(1.5, 1.2, 50)) < 1e-6


def test_partial_relaxation_energy_matches_frozen_oracle_value():
    p = params(1.5, 1.2, 0.5)
    ground = make_distribution(InitialStateSpec.ground(), 50)
    final = evolve_isochoric(ground, p, 2.0).final
    u = internal_energy(final, 1.5)
    assert 0.0 < u < 1.5 * NBAR_HOT
    assert u == pytest.approx(U_GROUND_RELAX_TAU2, abs=1e-9)


def test_trajectory_includes_endpoints_and_increases():
    p = params(1.0, 0.4)
    ground = make_distribution(InitialStateSpec.ground(), 30)
    traj = evolve_isochoric(ground, p, 1.0, sample_stride=100)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(1.0, rel=1e-12)
    assert np.all(np.diff(traj.times) > 0)
    np.testing.assert_array_equal(traj.probs[0], ground.probs)


def test_trajectory_probabilities_stay_normalized_and_positive():
    p = params(1.0, 0.4)
    start = make_distribution(InitialStateSpec.single_level(3), 40)
    traj = evolve_isochoric(start, p, 4.0, sample_stride=20)
    assert traj.probs.min() >= 0.0
    np.testing.assert_allclose(traj.probs.sum(axis=1), 1.0, atol=1e-12)
    assert traj.max_drift <= 1e-10  # per-step conservation before renormalization


def test_energy_relaxes_monotonically_from_both_sides():
    p = params(1.0, 0.8)
    target = internal_energy(stationary_distribution(1.0, 0.8, 50), 1.0)
    for start in (make_distribution(InitialStateSpec.ground(), 50),
                  stationary_distribution(0.4, 1.2, 50)):
        traj = evolve_isochoric(start, p, 6.0, sample_stride=50)
        energies = traj.probs @ np.arange(51.0)
        assert np.all(np.diff(np.abs(energies - target)) <= 1e-12)


def test_halving_dt_shows_fourth_order_self_convergence():
    p = params(1.0, 1.0, 0.5)
    probs = np.arange(1.0, 22.0)
    start = FockDistribution(probs / probs.sum())
    finals = [evolve_isochoric(start, p, 1.0, dt=dt, tail_tolerance=1.0).final
              for dt in (1 / 100, 1 / 200, 1 / 400)]
    first_gap = total_variation(finals[0], finals[1])
    second_gap = total_variation(finals[1], finals[2])
    assert second_gap <= first_gap / 16.0 * 1.3


def test_unstable_step_is_rejected():
    p = params(1.0, 0.4)
    start = make_distribution(InitialStateSpec.ground(), 50)
    # dt far beyond the stability limit of the fastest ladder rate
    with pytest.raises(IntegrationError):
        evolve_isochoric(start, p, 10.0, dt=0.5)


@pytest.mark.parametrize("gamma0,message", [
    # the default dt underflows to 0
    (1e306, r"at dt=0\.000e\+00 has more steps than a float can count; reduce gamma0 \* tau or set dt"),
])
def test_stroke_too_long_to_step_is_rejected(gamma0, message):
    start = make_distribution(InitialStateSpec.ground(), 50)
    with pytest.raises(IntegrationError, match=message):
        evolve_isochoric(start, params(1.5, 1.2, gamma0), 2.0)


@pytest.mark.parametrize("gamma0,duration", [(2000.0, 20.0), (1e5, 2.0)], ids=["gamma0-2000-tau-20", "gamma0-1e5"])
def test_stiff_stroke_relaxes_to_the_thermal_state(gamma0, duration):
    # 1.1e8 to 5.7e8 steps: every step power is divided by its column sums,
    # so neither the sampled stroke nor its one jump drifts past the guard
    stroke = BathStroke(params(1.5, 1.2, gamma0), duration, 51)
    assert stroke.n_steps > 10**8
    ground = make_distribution(InitialStateSpec.ground(), 50)
    traj = stroke.trajectory(ground)
    final, drift = stroke.end_state(ground)
    thermal = stationary_distribution(1.5, 1.2, 50)
    assert total_variation(traj.final, thermal) < 1e-10
    assert total_variation(final, thermal) < 1e-10
    assert max(traj.max_drift, drift) <= _kernels.DRIFT_TOL


@pytest.mark.parametrize("kwargs,message", [
    ({"sample_stride": 0}, "sample_stride must be >= 1, got 0"),
    ({"sample_stride": -2}, "sample_stride must be >= 1, got -2"),
    ({"dt": float("nan")}, "dt must be positive, got nan"),
    ({"dt": -1.0}, "dt must be positive, got -1.0"),
    ({"dt": 0.0}, "dt must be positive, got 0.0"),
], ids=["stride-0", "stride-negative", "dt-nan", "dt-negative", "dt-0"])
def test_bad_stride_or_dt_is_rejected_by_name(kwargs, message):
    start = make_distribution(InitialStateSpec.ground(), 20)
    with pytest.raises(OttoKilnError, match=f"^{re.escape(message)}$"):
        evolve_isochoric(start, params(1.0, 0.4), 0.5, **kwargs)


def test_dt_larger_than_duration_rejected():
    p = params(1.0, 0.4)
    start = make_distribution(InitialStateSpec.ground(), 20)
    with pytest.raises(Exception, match="exceeds duration"):
        evolve_isochoric(start, p, 0.5, dt=1.0)


def test_a_stroke_builds_its_own_step_matrix():
    # evolve_isochoric takes no prebuilt step matrix: one built for another
    # step or ladder would run without error to a wrong end state
    p = params(1.5, 1.2)
    start = make_distribution(InitialStateSpec.ground(), 50)
    stray = _kernels.StepMatrix(p.gamma, p.boltz_factor, 51, 1e-4)
    with pytest.raises(TypeError, match="step_matrix"):
        evolve_isochoric(start, p, 2.0, step_matrix=stray)
    stroke = BathStroke(p, 2.0, 51)
    assert (stroke.n_steps, stroke.step) == (2860, 2.0 / 2860)  # default dt 6.995e-4, shrunk to divide 2.0
    gen = _kernels.generator_matrix(p.gamma, p.boltz_factor, 51)
    assert stroke.step_matrix.r.tobytes() == _kernels.rk4_step_matrix(gen, stroke.step).tobytes()
    with pytest.raises(OttoKilnError, match="a stroke on 51 levels cannot run 21 levels"):
        stroke.trajectory(make_distribution(InitialStateSpec.ground(), 20))


def test_under_truncated_ladder_is_detected():
    # a 5-level ladder cannot hold the hot-bath equilibrium
    from ottokiln import UnderTruncationError

    p = params(1.0, 1.2)
    start = make_distribution(InitialStateSpec.ground(), 5)
    with pytest.raises(UnderTruncationError):
        evolve_isochoric(start, p, 20.0)


def test_stationary_distribution_ratio_and_limits():
    dist = stationary_distribution(1.0, 0.4, 50)
    ratios = dist.probs[1:6] / dist.probs[:5]
    np.testing.assert_allclose(ratios, Q_COLD, rtol=1e-13)
    frozen = stationary_distribution(1.0, 0.005, 50)
    assert frozen.probs[0] == pytest.approx(1.0, abs=1e-80)


@pytest.mark.parametrize("omega,temperature,n_max", [
    (1.0, 0.4, 50), (1.5, 1.2, 50), (0.6, 1.1, 20), (1.0, 0.005, 50),
    (0.3, 5.0, 20),  # top level holds 2.4e-2, far above the 1e-9 tail tolerance
])
def test_stationary_distribution_is_the_geometric_formula_bit_for_bit(omega, temperature, n_max):
    probs = np.exp(-(omega / temperature) * np.arange(n_max + 1))
    probs /= probs.sum()
    dist = stationary_distribution(omega, temperature, n_max)
    assert dist.n_max == n_max and dist.probs.tobytes() == probs.tobytes()
