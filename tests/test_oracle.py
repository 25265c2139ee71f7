import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from ottokiln import (
    OttoKilnError,
    RateParams,
    RefrigeratorRegimeError,
    analytic_cycle_thermal_balance,
    analytic_equilibrium_energy,
    analytic_equilibrium_entropy,
    bose_einstein,
    propagate_matrix_exponential,
    rate_generator,
    stationary_distribution,
    total_variation,
)
from ottokiln import _kernels, oracle
from conftest import random_distribution

# closed-form values, cross-checked by direct summation over 200 levels
U_COLD = 0.08942548983385201
U_HOT = 0.6023266777395193
S_COLD = 0.3092142083266683
S_HOT = 0.8395184632036773
LEDGER = {
    "q_in": 0.4681884429887413,
    "w_out": 0.20077555924650645,
    "q_out": 0.3121256286591609,
    "w_in": 0.044712744916926006,
    "w_eff": 0.15606281432958044,
}


def make_params(omega=1.5, temperature=1.2, gamma0=0.5):
    return RateParams(omega, temperature, gamma0)


def test_equilibrium_energy_closed_form():
    assert analytic_equilibrium_energy(1.0, 0.4) == pytest.approx(U_COLD, rel=1e-14)
    assert analytic_equilibrium_energy(1.5, 1.2) == pytest.approx(U_HOT, rel=1e-14)
    assert analytic_equilibrium_energy(1.0, 1e-3) == pytest.approx(0.0, abs=1e-300)


def test_equilibrium_entropy_closed_form():
    assert analytic_equilibrium_entropy(1.0, 0.4) == pytest.approx(S_COLD, rel=1e-13)
    assert analytic_equilibrium_entropy(1.5, 1.2) == pytest.approx(S_HOT, rel=1e-13)
    assert analytic_equilibrium_entropy(1.0, 1e-3) == pytest.approx(0.0, abs=1e-300)


def test_equilibrium_functionals_match_truncated_ladder_sums():
    from ottokiln import entropy, internal_energy

    dist = stationary_distribution(1.5, 1.2, 120)
    assert internal_energy(dist, 1.5) == pytest.approx(U_HOT, abs=1e-12)
    assert entropy(dist) == pytest.approx(S_HOT, abs=1e-12)


def test_thermal_balance_ledger_values():
    ledger = analytic_cycle_thermal_balance(1.0, 1.5, 0.4, 1.2)
    for name, expected in LEDGER.items():
        assert getattr(ledger, name) == pytest.approx(expected, rel=1e-12), name
    assert ledger.efficiency == pytest.approx(1.0 / 3.0, rel=1e-15)
    # endpoint energies/entropies
    assert ledger.u_a == pytest.approx(1.5 * U_COLD, rel=1e-12)
    assert ledger.u_b == pytest.approx(U_HOT, rel=1e-12)
    assert ledger.u_c == pytest.approx(U_HOT / 1.5, rel=1e-12)
    assert ledger.u_d == pytest.approx(U_COLD, rel=1e-12)
    assert ledger.s_a == ledger.s_d == pytest.approx(S_COLD, rel=1e-13)
    assert ledger.s_b == ledger.s_c == pytest.approx(S_HOT, rel=1e-13)


def test_thermal_balance_first_law_identity_random_parameters():
    rng = np.random.default_rng(42)
    for _ in range(20):
        omega_c = rng.uniform(0.3, 1.5)
        omega_h = omega_c * rng.uniform(1.05, 3.0)
        t_c = rng.uniform(0.1, 1.0)
        t_h = t_c * rng.uniform(1.05, 4.0)
        if bose_einstein(omega_h, t_h) < bose_einstein(omega_c, t_c):
            continue
        ledger = analytic_cycle_thermal_balance(omega_c, omega_h, t_c, t_h)
        residual = ledger.q_in - ledger.q_out - ledger.w_eff
        assert abs(residual) < 1e-15
        assert ledger.efficiency == pytest.approx(1.0 - omega_c / omega_h, rel=1e-15)


def test_carnot_point_has_zero_net_output():
    # omega_c/omega_h equal to t_c/t_h makes both occupations coincide
    ledger = analytic_cycle_thermal_balance(1.0, 3.0, 0.4, 1.2)
    assert ledger.q_in == pytest.approx(0.0, abs=1e-15)
    assert ledger.w_eff == pytest.approx(0.0, abs=1e-15)


def test_refrigerator_regime_is_flagged():
    with pytest.raises(RefrigeratorRegimeError):
        analytic_cycle_thermal_balance(1.0, 4.0, 0.4, 1.2)


def test_entropy_where_omega_over_t_is_unresolvable_is_a_package_error():
    # exp(-omega/T) rounds to 1 below omega/T ~ 1.1e-16, where S diverges
    with pytest.raises(OttoKilnError, match=r"omega/T = 2e-17"):
        analytic_cycle_thermal_balance(1.0, 2.0, 0.4, 1e17)
    with pytest.raises(OttoKilnError, match=r"omega/T = 1e-17"):
        analytic_equilibrium_entropy(1.0, 1e17)
    # above the limit S stays finite, near its high-temperature form 1 + ln(T/omega)
    assert analytic_equilibrium_entropy(1.0, 1e8) == pytest.approx(1.0 + np.log(1e8), rel=1e-7)
    assert np.isfinite(analytic_equilibrium_entropy(1.0, 1e15))


def test_generator_columns_sum_to_zero():
    params = make_params(0.7, 0.3, 0.5)
    gen = rate_generator(params, 40)
    scale = np.abs(gen).max()
    assert np.abs(gen.sum(axis=0)).max() <= 64 * np.finfo(float).eps * scale


@pytest.mark.parametrize("n_levels", [2, 21, 51, 64])
@pytest.mark.parametrize("omega,temperature", [(1.5, 1.2), (0.7, 0.3), (800.0, 1.0)])  # 800: boltz_factor 0
def test_generator_equals_the_kernel_generator_bit_for_bit(n_levels, omega, temperature):
    # written out separately from _kernels, so the two are independent builds of one matrix
    params = make_params(omega, temperature, 0.5)
    kernel = _kernels.generator_matrix(params.gamma, params.boltz_factor, n_levels)
    assert rate_generator(params, n_levels - 1).tobytes() == kernel.tobytes()


def test_propagation_duration_zero_is_identity():
    rng = np.random.default_rng(1)
    dist = random_distribution(rng, 21)
    params = make_params()
    assert propagate_matrix_exponential(dist, params, 0.0) is dist


def test_thermal_state_is_a_fixed_point_of_the_propagator():
    params = make_params(1.0, 0.4)
    fixed = stationary_distribution(1.0, 0.4, 30)
    moved = propagate_matrix_exponential(fixed, params, 5.0)
    assert total_variation(fixed, moved) < 1e-12


def test_propagator_matches_scipy_expm():
    rng = np.random.default_rng(3)
    for _ in range(5):
        params = make_params(rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.2), rng.uniform(0.1, 1.0))
        duration = rng.uniform(0.1, 10.0)
        dist = random_distribution(rng, 21)
        mine = propagate_matrix_exponential(dist, params, duration)
        reference = scipy_expm(rate_generator(params, 20) * duration) @ dist.probs
        reference /= reference.sum()
        assert 0.5 * np.abs(mine.probs - reference).sum() < 1e-12  # total variation


def test_propagator_semigroup_property():
    rng = np.random.default_rng(9)
    params = make_params(1.2, 0.9, 0.4)
    dist = random_distribution(rng, 25)
    one_shot = propagate_matrix_exponential(dist, params, 4.0)
    composed = propagate_matrix_exponential(
        propagate_matrix_exponential(dist, params, 1.5), params, 2.5
    )
    assert total_variation(one_shot, composed) < 1e-10


def test_dense_propagation_size_cap():
    params = make_params()
    big = stationary_distribution(1.0, 0.4, 80)
    with pytest.raises(OttoKilnError, match="n_max"):
        propagate_matrix_exponential(big, params, 1.0)


def _expm_with_linalg_norm(matrix):
    """oracle._expm as it was written, an adaptive Taylor loop with
    np.linalg.norm, kept as the reference."""
    norm = np.linalg.norm(matrix, 1)
    squarings = max(0, int(math.ceil(math.log2(norm / 0.5)))) if norm > 0.5 else 0
    scaled = matrix / (2.0 ** squarings)
    n = matrix.shape[0]
    result = np.eye(n)
    term = np.eye(n)
    for k in range(1, 40):
        term = term @ scaled / k
        result += term
        if np.linalg.norm(term, 1) < 1e-18 * np.linalg.norm(result, 1):
            break
    for _ in range(squarings):
        result = result @ result
    return result


@pytest.mark.parametrize("n_levels", [2, 21, 51, 64])
@pytest.mark.parametrize("duration", [1e-3, 0.1, 1.0, 7.3, 50.0])
@pytest.mark.parametrize("params", [make_params(), make_params(1.0, 0.4, 0.9),
                                    make_params(1.0, 1e-3)],  # exp(-omega/T) underflows to 0
                         ids=["hot", "cold", "frozen"])
def test_expm_agrees_with_the_linalg_norm_loop_and_scipy(n_levels, duration, params):
    # the fixed-degree polynomial rounds apart from the adaptive loop: these
    # cases reach 3.4e-12 from the loop and 1.5e-12 from scipy, where the
    # loop itself is 4.9e-12 from scipy (2-core x86, numpy 2.4, OpenBLAS)
    generator = rate_generator(params, n_levels - 1) * duration
    got = oracle._expm(generator)
    assert np.abs(got - _expm_with_linalg_norm(generator)).max() <= 1e-11
    assert np.abs(got - scipy_expm(generator)).max() <= 1e-11


@pytest.mark.parametrize("duration", [math.inf, -math.inf, math.nan])
def test_non_finite_duration_is_refused_by_name(duration):
    dist = stationary_distribution(1.0, 0.4, 20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic warns
        with pytest.raises(OttoKilnError, match=f"duration must be finite, got {duration}"):
            propagate_matrix_exponential(dist, make_params(), duration)


def test_lost_probability_prints_the_sum_as_a_float():
    # expm of a generator scaled by 1e300 underflows the propagator to zero
    dist = stationary_distribution(1.0, 0.4, 20)
    with pytest.raises(OttoKilnError, match=r"propagator lost probability: sum 0\.0$"):
        propagate_matrix_exponential(dist, make_params(), 1e300)


@pytest.mark.filterwarnings("error")
def test_an_overflowing_propagator_fails_the_sum_check_without_warnings():
    # squaring expm of a generator scaled by 1e30 overflows the propagator
    dist = stationary_distribution(1.0, 0.4, 20)
    with pytest.raises(OttoKilnError, match=r"propagator lost probability: sum inf$"):
        propagate_matrix_exponential(dist, make_params(), 1e30)


@pytest.mark.filterwarnings("error")
def test_an_overflowing_generator_is_refused_without_warnings():
    # 1e307 times the generator's largest rates overflows before any squaring
    dist = stationary_distribution(1.0, 0.4, 20)
    with pytest.raises(OttoKilnError, match=r"matrix exponential overflows: the scaled generator's 1-norm is inf$"):
        propagate_matrix_exponential(dist, make_params(), 1e307)


def test_a_nan_propagator_fails_the_sum_check(monkeypatch):
    monkeypatch.setattr(oracle, "_expm", lambda matrix: np.full_like(matrix, np.nan))
    dist = stationary_distribution(1.0, 0.4, 20)
    with pytest.raises(OttoKilnError, match="propagator lost probability: sum nan$"):
        propagate_matrix_exponential(dist, make_params(), 1.0)
