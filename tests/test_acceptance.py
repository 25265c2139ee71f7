"""Acceptance suite: one test per acceptance criterion, with frozen targets.

Every expected number below was produced by an independent oracle before the
engine was wired up: geometric-ladder closed forms, the mean-occupation
recursion of the cycle map (exact for this generator), or the dense matrix
exponential.  Each test prints one summary line; run with ``pytest -s`` to
see them.
"""

import filecmp
from dataclasses import replace

import numpy as np
import pytest

from ottokiln import (
    EngineConfig,
    FockDistribution,
    InitialStateSpec,
    RateParams,
    carnot_limit,
    cycle_efficiency,
    cycle_power,
    entropy,
    evolve_isochoric,
    internal_energy,
    otto_limit,
    propagate_matrix_exponential,
    rate_derivative,
    run_engine,
    stationary_distribution,
    sweep_efficiency_power,
    total_variation,
)
from ottokiln import cycle
from ottokiln.cli import main as cli_main
from ottokiln.verification import check_stroke_first_law, run_all_checks

OTTO_LIMIT = 1.0 / 3.0
NBAR_COLD = 0.08942548983385201     # 1/(e^2.5 - 1)
NBAR_HOT = 0.4015511184930129       # 1/(e^1.25 - 1)
S_COLD = 0.3092142083266683
S_HOT = 0.8395184632036773

# mean-occupation recursion of the ground-start cycle map at the default
# working point (omega_c=1, omega_h=1.5, t_c=0.4, t_h=1.2, gamma0=0.5, tau=2)
EFF_GROUND_START = (0.21398819264602614, 0.3301673120861764,
                    0.33327486545579177, 0.33333226229436225)
# same recursion from the uniform-on-three-levels start
EFF_EQUAL3_CYCLE2 = 0.35671371700259863
Q_IN_EQUAL3_CYCLE1 = -0.7761864489384074
# steady net work per unit time, one value per stroke duration
STEADY_POWER = {1.0: 0.018029826027995608, 1.5: 0.01652052217134079, 2.0: 0.014857065919427257}
# steady pump efficiency (1 - n_D(tau_cd)) * otto_limit for the first-excited pump
PUMP_EFF_BY_TAU_CD = {1.0: 0.19186428940708858, 2.0: 0.2624472169749242,
                      3.0: 0.28841322492482396, 5.0: 0.30147970245931016,
                      8.0: 0.3034230154826889}
PUMP_EFF_BY_RELAX_TIME = {0.5: 0.303511056715781, 1.0: 0.30147970245931016,
                          2.0: 0.27861000091740085, 4.0: 0.21656351503497623}


def _report(number, title):
    print(f"[acceptance] criterion {number} ({title}): PASS")


@pytest.fixture(scope="module")
def ground_trace():
    return run_engine(EngineConfig())


@pytest.fixture(scope="module")
def equal3_trace():
    return run_engine(replace(EngineConfig(), initial_state=InitialStateSpec.equal_lowest(3)))


@pytest.fixture(scope="module")
def balance_trace():
    return run_engine(replace(EngineConfig(), tau=20.0, n_cycles=2))


def test_criterion_1_otto_limit_convergence(ground_trace):
    efficiencies = [cycle_efficiency(r) for r in ground_trace.records]
    assert abs(efficiencies[-1] - OTTO_LIMIT) < 1e-3
    assert all(b >= a - 1e-9 for a, b in zip(efficiencies, efficiencies[1:]))
    for measured, expected in zip(efficiencies, EFF_GROUND_START):
        assert measured == pytest.approx(expected, abs=1e-6)
    _report(1, "ground start converges to the frequency-ratio limit")


def test_criterion_2_thermal_balance_exactness(balance_trace):
    record = balance_trace.records[-1]
    # quoted three-decimal targets at their stated tolerance
    assert record.q_in == pytest.approx(0.46819, abs=1e-5)
    assert record.w_eff == pytest.approx(0.15607, abs=1e-5)
    assert cycle_efficiency(record) == pytest.approx(OTTO_LIMIT, abs=1e-5)
    # tighter agreement with the closed forms themselves
    assert record.q_in == pytest.approx(1.5 * (NBAR_HOT - NBAR_COLD), abs=1e-7)
    assert record.w_eff == pytest.approx(0.5 * (NBAR_HOT - NBAR_COLD), abs=1e-7)

    endpoints = {
        "A": (record.dist_a, 1.5, 1.5 * NBAR_COLD, S_COLD),
        "B": (record.dist_b, 1.5, 1.5 * NBAR_HOT, S_HOT),
        "C": (record.dist_c, 1.0, 1.0 * NBAR_HOT, S_HOT),
        "D": (record.dist_d, 1.0, 1.0 * NBAR_COLD, S_COLD),
    }
    for name, (dist, omega, u_expected, s_expected) in endpoints.items():
        assert internal_energy(dist, omega) == pytest.approx(u_expected, abs=1e-6), name
        assert entropy(dist) == pytest.approx(s_expected, abs=1e-6), name
    _report(2, "long-contact ledger and endpoints match the closed forms")


def test_criterion_3_transient_anomalies(equal3_trace):
    records = equal3_trace.records
    efficiencies = [cycle_efficiency(r) for r in records]
    assert records[0].q_in < 0.0
    assert records[0].q_in == pytest.approx(Q_IN_EQUAL3_CYCLE1, abs=1e-6)
    assert efficiencies[0] < 0.0
    early_peak = max(efficiencies[1:6])
    assert early_peak > OTTO_LIMIT
    assert efficiencies[1] == pytest.approx(EFF_EQUAL3_CYCLE2, abs=1e-6)
    assert abs(efficiencies[-1] - OTTO_LIMIT) < 1e-3
    carnot = carnot_limit(0.4, 1.2)
    comparison = "exceeds" if early_peak > carnot else "stays below"
    _report(3, f"high-energy start: negative first-cycle heat input, early peak "
               f"{early_peak:.4f} {comparison} the temperature-ratio limit {carnot:.4f}")


def test_criterion_4_power_ordering():
    powers = {}
    for tau in (1.0, 1.5, 2.0):
        trace = run_engine(replace(EngineConfig(), tau=tau))
        powers[tau] = cycle_power(trace.final_record, trace.cycle_time)
        assert powers[tau] == pytest.approx(STEADY_POWER[tau], abs=1e-6)
    assert powers[1.0] > powers[1.5] > powers[2.0] > 0.0
    _report(4, "steady power decreases with stroke duration")


def test_criterion_5_pump_engine_bound_and_saturation():
    def steady_efficiency(tau_cd, gamma0):
        config = replace(EngineConfig(), mode="pump", n_cycles=3,
                         tau_bc=1.0, tau_cd=tau_cd, tau_db=1.0, gamma0=gamma0)
        return cycle_efficiency(run_engine(config).final_record)

    by_tau = {tau_cd: steady_efficiency(tau_cd, 0.5) for tau_cd in (1.0, 2.0, 3.0, 5.0, 8.0)}
    values = [by_tau[k] for k in sorted(by_tau)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    for tau_cd, eff in by_tau.items():
        assert eff <= OTTO_LIMIT + 1e-12
        assert eff == pytest.approx(PUMP_EFF_BY_TAU_CD[tau_cd], abs=1e-6)
    assert abs(by_tau[5.0] - 0.3034) <= 2e-2
    assert abs(by_tau[8.0] - 0.3034) <= 2e-2

    by_relax = {rt: steady_efficiency(5.0, 1.0 / (2.0 * rt)) for rt in (0.5, 1.0, 2.0, 4.0)}
    ordered = [by_relax[k] for k in sorted(by_relax)]
    assert all(b <= a + 1e-12 for a, b in zip(ordered, ordered[1:]))
    for rt, eff in by_relax.items():
        assert eff == pytest.approx(PUMP_EFF_BY_RELAX_TIME[rt], abs=1e-6)
        assert eff <= OTTO_LIMIT + 1e-12
    _report(5, "pump efficiency saturates near 0.3034, bounded by 1/3, "
               "and degrades with slower relaxation")


def test_criterion_6_sweep_and_carnot():
    points = sweep_efficiency_power(0.4, [1.2], tau=2.0)
    for point in points:
        assert point.efficiency == pytest.approx(1.0 - point.ratio, abs=1e-6)

    carnot_point = sweep_efficiency_power(0.4, [1.2], ratio_grid=[1.0 / 3.0], tau=2.0)[0]
    assert carnot_point.efficiency == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert carnot_point.power <= 1e-6

    powers = np.array([p.power for p in points])
    peak = int(powers.argmax())
    assert 0 < peak < len(powers) - 1
    assert np.all(np.diff(powers[: peak + 1]) > 0)
    assert np.all(np.diff(powers[peak:]) < 0)

    fixed_eff = sweep_efficiency_power(0.4, [1.2, 1.6], ratio_grid=[2.0 / 3.0], tau=2.0)
    by_temp = {p.t_h: p.power for p in fixed_eff}
    assert by_temp[1.6] > by_temp[1.2]
    _report(6, "balance sweep: efficiency = 1 - ratio, zero-power limit at the "
               "temperature ratio, unimodal power, hotter bath gives more power")


def test_criterion_7_oracle_equivalence_and_convergence_order():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(50):
        omega = rng.uniform(0.5, 2.0)
        temperature = rng.uniform(0.2, 1.2)
        gamma0 = rng.uniform(0.1, 1.0)
        duration = rng.uniform(0.2, 10.0)
        probs = rng.random(21)
        dist = FockDistribution(probs / probs.sum())
        params = RateParams(omega, temperature, gamma0)
        stepped = evolve_isochoric(dist, params, duration, tail_tolerance=1.0).final
        exact = propagate_matrix_exponential(dist, params, duration)
        worst = max(worst, total_variation(stepped, exact))
    assert worst <= 1e-8

    params = RateParams(1.0, 1.0, 0.5)
    ramp = np.arange(1.0, 22.0)
    dist = FockDistribution(ramp / ramp.sum())
    exact = propagate_matrix_exponential(dist, params, 1.0)
    err_coarse = total_variation(evolve_isochoric(dist, params, 1.0, dt=1 / 100, tail_tolerance=1.0).final, exact)
    err_fine = total_variation(evolve_isochoric(dist, params, 1.0, dt=1 / 200, tail_tolerance=1.0).final, exact)
    ratio = err_coarse / err_fine
    assert 12.0 <= ratio <= 20.0
    _report(7, f"stepped vs dense propagator: worst TV {worst:.2e} over 50 tuples, "
               f"halving-step error ratio {ratio:.1f}")


def test_criterion_8_invariant_suites(ground_trace, equal3_trace, balance_trace):
    # detailed-balance stationarity across the working grid
    for omega in (0.5, 1.0, 1.5, 2.0):
        for temperature in (0.2, 0.4, 1.2):
            params = RateParams(omega, temperature, 0.5)
            fixed = stationary_distribution(omega, temperature, 50)
            assert np.abs(rate_derivative(fixed, params)).max() <= 1e-12

    for trace in (ground_trace, equal3_trace, balance_trace):
        # per-step conservation before renormalization, and sampled states
        # stay normalized and positive
        assert trace.max_step_drift <= 1e-10
        np.testing.assert_allclose(trace.probs.sum(axis=1), 1.0, atol=1e-12)
        assert trace.probs.min() >= 0.0
        for record in trace.records:
            omega_h, omega_c = record.omega_h, record.omega_c
            # per-stroke first law: contact changes U by the booked heat,
            # ramps change U by the booked work
            hot = internal_energy(record.dist_b, omega_h) - internal_energy(record.dist_a, omega_h)
            assert hot == pytest.approx(record.q_in, abs=1e-9)
            expand = internal_energy(record.dist_c, omega_c) - internal_energy(record.dist_b, omega_h)
            assert expand == pytest.approx(-record.w_out, abs=1e-9)
            cold = internal_energy(record.dist_d, omega_c) - internal_energy(record.dist_c, omega_c)
            assert cold == pytest.approx(-record.q_out, abs=1e-9)
            compress = internal_energy(record.dist_a_next, omega_h) - internal_energy(record.dist_d, omega_c)
            assert compress == pytest.approx(record.w_in, abs=1e-9)
            # ramps freeze the populations, hence the entropy, exactly
            assert entropy(record.dist_b) == entropy(record.dist_c)
            assert entropy(record.dist_d) == entropy(record.dist_a_next)
            assert abs(record.first_law_residual()) <= 1e-9

    results = run_all_checks()
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]
    _report(8, "conservation, positivity, detailed balance, stroke and cycle "
               "first laws green across all scenarios")


def test_stroke_first_law_check_reads_the_traced_ramp_rows(monkeypatch):
    # a ramp that records its populations reversed leaves every ledger entry
    # as it was, so only the ramp rows of the trace can show it
    ramp = cycle._ramp
    monkeypatch.setattr(cycle, "_ramp", lambda dist, *args: ramp(FockDistribution(dist.probs[::-1]), *args))
    result = check_stroke_first_law()
    assert not result.passed
    assert "ramp populations off their start by 8.9e-01" in result.detail


def test_criterion_9_determinism(tmp_path):
    config = tmp_path / "cfg.txt"
    config.write_text("n_cycles = 3\n")
    pump_config = tmp_path / "pump.txt"
    pump_config.write_text("n_cycles = 3\ntau_cd = 2\n")
    sweep_config = tmp_path / "sweep.txt"
    sweep_config.write_text("sweep_t_h = 1.2\nsweep_ratio_steps = 25\n")

    for command, cfg, names in (
        ("simulate", config, ("timeseries.csv", "cycles.csv")),
        ("pump", pump_config, ("timeseries.csv", "cycles.csv")),
        ("sweep", sweep_config, ("sweep.csv",)),
    ):
        out_a = tmp_path / f"{command}_a"
        out_b = tmp_path / f"{command}_b"
        assert cli_main([command, "--config", str(cfg), "--out", str(out_a)]) == 0
        assert cli_main([command, "--config", str(cfg), "--out", str(out_b)]) == 0
        for name in names:
            assert filecmp.cmp(out_a / name, out_b / name, shallow=False), (command, name)
    _report(9, "repeated runs produce byte-identical CSVs")
