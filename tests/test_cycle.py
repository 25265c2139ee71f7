import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ottokiln import (
    BathStroke,
    ConfigError,
    EngineConfig,
    FockDistribution,
    InitialStateSpec,
    IntegrationError,
    OttoKilnError,
    RateParams,
    UnderTruncationError,
    analytic_cycle_thermal_balance,
    entropy,
    internal_energy,
    make_distribution,
    mean_occupation,
    pump_populations,
    run_cycles,
    run_engine,
    stationary_distribution,
    sweep_efficiency_power,
    total_variation,
)
from ottokiln import _kernels, cycle as cycle_module
from conftest import DIST_FIELDS, LEDGER_FIELDS, assert_same_ledgers

NBAR_COLD = 0.08942548983385201
NBAR_HOT = 0.4015511184930129
LEDGER = {
    "q_in": 0.4681884429887413,
    "w_out": 0.20077555924650645,
    "q_out": 0.3121256286591609,
    "w_in": 0.044712744916926006,
    "w_eff": 0.15606281432958044,
}
# steady pump-cycle figures for a first-excited pump against the cold bath,
# complete thermalization: w_eff = 0.5 * (1 - nbar_cold), q_pump = 1.5 * (1 - nbar_cold)
PUMP_W_EFF = 0.455287255083074
PUMP_Q_PUMP = 1.365861765249222


def ledger_config(mode, tau, cycles):
    """The default working point (omega 1 -> 1.5, baths at 0.4 and 1.2, gamma0
    0.5): otto with tau per stroke, or a first-excited pump with tau_cd = tau
    and one unit per ramp."""
    if mode == "otto":
        return replace(EngineConfig(), tau=tau, n_cycles=cycles)
    return replace(EngineConfig(), mode="pump", tau_bc=1.0, tau_cd=tau, tau_db=1.0,
                   pump_target=InitialStateSpec.single_level(1), n_cycles=cycles)


def otto_cycles(start, tau, cycles=1):
    return run_cycles(start, ledger_config("otto", tau, cycles)).records


def pump_cycles(start, tau_cd, cycles=1):
    return run_cycles(start, ledger_config("pump", tau_cd, cycles)).records


def ramp_rows(trace, label):
    """The trace row indices of each run of `label` strokes, in cycle order."""
    runs = itertools.groupby(range(len(trace.stroke_labels)), key=trace.stroke_labels.__getitem__)
    return [list(rows) for name, rows in runs if name == label]


@pytest.mark.parametrize("config", [
    replace(EngineConfig(), n_cycles=3),
    replace(EngineConfig(), mode="pump", n_cycles=4),  # cycles 3 and 4 are copies
    replace(EngineConfig(), mode="pump", pump_target=InitialStateSpec.ground(), n_cycles=2),
], ids=["otto", "pump", "pump_to_ground"])
def test_traced_ramps_freeze_the_populations(config):
    trace = run_engine(config)
    expansions, compressions = ramp_rows(trace, "expansion"), ramp_rows(trace, "compression")
    assert len(expansions) == len(compressions) == len(trace.records)
    for record, expansion, compression in zip(trace.records, expansions, compressions):
        for rows, dist in ((expansion, record.dist_b), (compression, record.dist_d)):
            # every sample of a ramp is its start state, bit for bit
            np.testing.assert_array_equal(trace.probs[rows],
                                          np.broadcast_to(dist.probs, (len(rows), dist.probs.size)))
            assert len(set(trace.entropies[rows].tolist())) == 1
        if config.pump_target == InitialStateSpec.ground():
            assert record.w_out == 0.0  # a ramp from the ground state does no work


def test_otto_cycle_ledger_at_thermal_balance():
    start = stationary_distribution(1.0, 0.4, 50)  # cold-equilibrium populations at A
    [record] = otto_cycles(start, tau=20.0)
    dist_next = record.dist_a_next
    for name, expected in LEDGER.items():
        assert getattr(record, name) == pytest.approx(expected, abs=1e-7), name
    assert record.q_in - record.q_out == pytest.approx(record.w_eff, abs=1e-9)
    assert total_variation(dist_next, start) < 1e-7


def test_otto_cycle_endpoint_bookkeeping():
    ground = make_distribution(InitialStateSpec.ground(), 50)
    record, following = otto_cycles(ground, tau=2.0, cycles=2)
    dist_next = following.dist_a  # the state handed to the next cycle
    np.testing.assert_array_equal(record.dist_c.probs, record.dist_b.probs)
    np.testing.assert_array_equal(record.dist_a_next.probs, record.dist_d.probs)
    np.testing.assert_array_equal(dist_next.probs, record.dist_a_next.probs)
    assert record.first_law_residual() == pytest.approx(0.0, abs=1e-9)
    assert record.w_eff == record.w_out - record.w_in


def test_high_energy_start_releases_heat_into_hot_bath():
    start = make_distribution(InitialStateSpec.equal_lowest(3), 50)
    [record] = otto_cycles(start, tau=2.0)
    assert mean_occupation(start) > NBAR_HOT  # hotter than the bath's equilibrium
    assert record.q_in < 0.0


def test_vanishing_contact_time_gives_vanishing_ledger():
    start = stationary_distribution(1.0, 0.4, 50)
    [record] = otto_cycles(start, tau=1e-3)
    assert abs(record.q_in) < 2e-3
    assert abs(record.q_out) < 2e-3
    assert abs(record.w_eff) < 2e-3


def test_pump_from_ground_to_first_excited():
    ground = make_distribution(InitialStateSpec.ground(), 50)
    pumped, q_pump = pump_populations(ground, InitialStateSpec.single_level(1), 1.5)
    assert q_pump == pytest.approx(1.5, rel=1e-14)
    assert pumped.probs[1] == 1.0


def test_pump_to_identical_target_costs_nothing():
    dist = make_distribution(InitialStateSpec.single_level(1), 50)
    _, q_pump = pump_populations(dist, InitialStateSpec.single_level(1), 1.5)
    assert q_pump == 0.0


def test_pump_from_partially_relaxed_state():
    relaxed = stationary_distribution(1.0, 0.4, 50)  # mean occupation nbar_cold
    _, q_pump = pump_populations(relaxed, InitialStateSpec.single_level(1), 1.5)
    assert q_pump == pytest.approx(1.5 * (1.0 - NBAR_COLD), rel=1e-12)
    assert q_pump == pytest.approx(PUMP_Q_PUMP, rel=1e-12)


def test_pump_cycle_reaches_steady_ledger_with_complete_thermalization():
    dist = make_distribution(InitialStateSpec.ground(), 50)
    record = pump_cycles(dist, tau_cd=16.0, cycles=3)[-1]
    assert record.w_out == pytest.approx(0.5, rel=1e-9)
    assert record.w_in == pytest.approx(0.5 * NBAR_COLD, abs=1e-7)
    assert record.w_eff == pytest.approx(PUMP_W_EFF, abs=1e-6)
    assert record.q_pump == pytest.approx(PUMP_Q_PUMP, abs=1e-6)
    assert record.q_pump_gross == pytest.approx(1.5, rel=1e-12)
    assert record.first_law_residual() == pytest.approx(0.0, abs=1e-9)


def test_pump_cycle_first_pump_charged_to_first_cycle():
    dist = make_distribution(InitialStateSpec.ground(), 50)
    [record] = pump_cycles(dist, tau_cd=5.0)
    assert record.q_pump == pytest.approx(1.5, rel=1e-14)


def test_pump_cycle_with_tiny_contact_returns_state_unchanged():
    dist = make_distribution(InitialStateSpec.single_level(1), 50)
    [record] = pump_cycles(dist, tau_cd=1e-4)
    dist_next = record.dist_a_next
    assert abs(record.w_eff) < 2e-4
    assert total_variation(dist_next, dist) < 2e-4


def test_engine_run_converges_from_ground_start():
    trace = run_engine(EngineConfig())
    assert len(trace.records) == 20
    assert math.isnan(trace.a_shift_tv[0])
    assert trace.a_shift_tv[-1] < 1e-6
    assert trace.converged()
    # the cycle map contracts: shifts are non-increasing after the first step,
    # down to the floating-point noise floor
    shifts = trace.a_shift_tv[1:]
    assert all(b <= max(a * 1.000001, 1e-12) for a, b in zip(shifts, shifts[1:]))


def test_engine_single_cycle_from_cold_equilibrium_matches_analytic_ledger():
    config = replace(EngineConfig(), initial_state=InitialStateSpec.boltzmann(1.0, 0.4),
                     tau=20.0, n_cycles=1)
    trace = run_engine(config)
    record = trace.final_record
    for name, expected in LEDGER.items():
        assert getattr(record, name) == pytest.approx(expected, abs=1e-7), name


@pytest.mark.parametrize("t_c", [0.02, 0.001])
def test_engine_against_a_bath_near_zero_temperature_reaches_the_analytic_ledger(t_c):
    # t_c = 0.02: n_BE(omega_c, t_c) = 1.9e-22, so the cold bath's gamma is gamma0;
    # t_c = 0.001: exp(-omega_c / t_c) underflows to 0, so the cold bath only relaxes
    config = replace(EngineConfig(), t_c=t_c, tau=20.0, n_cycles=4)
    record = run_engine(config).final_record
    expected = analytic_cycle_thermal_balance(config.omega_c, config.omega_h, config.t_c, config.t_h)
    for name in ("q_in", "q_out", "w_out", "w_in", "w_eff"):
        assert abs(getattr(record, name) - getattr(expected, name)) <= 1e-8, name


@pytest.mark.parametrize("mode", ["otto", "pump"])
@pytest.mark.parametrize("overrides", [{"gamma0": 2000.0, "tau": 20.0, "tau_cd": 20.0}, {"gamma0": 1e5}],
                         ids=["gamma0-2000-tau-20", "gamma0-1e5"])
def test_stiff_bath_runs_traced_and_ledger_only_to_the_analytic_ledger(mode, overrides):
    # bath strokes of 9e7 to 5.7e8 steps: each cycle ends in the baths' thermal
    # states, so an otto run books the analytic ledger from its second cycle on
    config = replace(EngineConfig(), mode=mode, n_cycles=4, **overrides)
    traced = run_engine(config)
    ledger = run_engine(config, ledger_only=True)
    assert_same_ledgers(traced, ledger, 1e-12)
    assert max(traced.max_step_drift, ledger.max_step_drift) <= _kernels.DRIFT_TOL
    if mode == "otto":
        expected = analytic_cycle_thermal_balance(config.omega_c, config.omega_h, config.t_c, config.t_h)
        for record in ledger.records[1:]:
            assert abs(record.w_eff - expected.w_eff) <= 1e-12 * expected.w_eff


@pytest.mark.parametrize("bad,key", [
    ({"tail_tolerance": -1.0}, "tail_tolerance must be positive"),
    ({"n_max": 0}, "n_max must be >= 1"),
])
def test_run_engine_checks_the_config_before_building_the_start_state(bad, key):
    with pytest.raises(ConfigError, match=key):
        run_engine(replace(EngineConfig(), **bad))


def test_engine_zero_cycles_is_empty():
    trace = run_engine(replace(EngineConfig(), n_cycles=0))
    assert trace.records == []
    assert trace.times.size == 0
    with pytest.raises(OttoKilnError):
        trace.final_record


def test_engine_trace_consistency():
    trace = run_engine(replace(EngineConfig(), n_cycles=3))
    assert np.all(np.diff(trace.times) > 0)
    levels = np.arange(trace.probs.shape[1])
    np.testing.assert_allclose(trace.energies, trace.omegas * (trace.probs @ levels), atol=1e-12)
    np.testing.assert_allclose(trace.probs.sum(axis=1), 1.0, atol=1e-12)
    assert set(trace.stroke_labels) == {"hot_isochore", "expansion", "cold_isochore", "compression"}


def test_energies_are_omega_times_each_stored_rows_mean_occupation():
    # the golden balance run: a product over the per-sample array moves the last bit of U at 64 samples
    config = replace(EngineConfig(), tau=20.0, n_cycles=1, initial_state=InitialStateSpec.boltzmann(1.0, 0.4))
    trace = run_engine(config)
    occupations = trace.rows @ np.arange(trace.rows.shape[1])
    assert trace.energies.tobytes() == (trace.omegas * occupations[trace.row_index]).tobytes()


def test_a_traced_run_never_builds_its_per_sample_population_array():
    tracemalloc.start()
    try:
        trace = run_engine(replace(EngineConfig(), n_cycles=900))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(trace.times) * trace.rows.shape[1] * 8 / 2


def test_engine_trace_energy_linear_on_ramps():
    trace = run_engine(replace(EngineConfig(), n_cycles=1))
    rows = [i for i, label in enumerate(trace.stroke_labels) if label == "expansion"]
    t = trace.times[rows]
    u = trace.energies[rows]
    slope = (u[-1] - u[0]) / (t[-1] - t[0])
    np.testing.assert_allclose(u, u[0] + slope * (t - t[0]), atol=1e-12)


def test_engine_per_cycle_first_law():
    for config in (EngineConfig(),
                   replace(EngineConfig(), mode="pump", n_cycles=4)):
        trace = run_engine(config)
        for record in trace.records:
            assert abs(record.first_law_residual()) < 1e-9


def test_engine_entropy_frozen_through_ramps():
    trace = run_engine(replace(EngineConfig(), n_cycles=2))
    for record in trace.records:
        assert entropy(record.dist_b) == entropy(record.dist_c)
        assert entropy(record.dist_d) == entropy(record.dist_a_next)


def test_pump_engine_runs_and_freezes_cycle_start():
    config = replace(EngineConfig(), mode="pump", n_cycles=4)
    trace = run_engine(config)
    assert trace.cycle_time == pytest.approx(1.0 + 5.0 + 1.0)
    # pump re-preparation makes the cycle map converge after the first cycle
    assert trace.a_shift_tv[2] < 1e-9
    labels = set(trace.stroke_labels)
    assert labels == {"expansion", "cold_isochore", "compression"}


def test_pump_engine_with_gaussian_target_stays_below_otto_limit():
    from ottokiln import cycle_efficiency

    target = InitialStateSpec.gaussian(2, 1.5, 1.2)
    config = replace(EngineConfig(), mode="pump", n_cycles=3, pump_target=target,
                     tau_bc=1.0, tau_cd=5.0, tau_db=1.0)
    trace = run_engine(config)
    record = trace.final_record
    assert cycle_efficiency(record) < 1.0 / 3.0
    assert cycle_efficiency(record) > 0.0
    assert record.q_pump_gross == pytest.approx(
        internal_energy(make_distribution(target, 50), 1.5), rel=1e-12
    )
    assert abs(record.first_law_residual()) < 1e-9


def test_builtin_schedules_are_consistent():
    ground = make_distribution(InitialStateSpec.ground(), 50)
    otto = run_cycles(ground, replace(EngineConfig(), tau=2.0, n_cycles=5))
    assert otto.cycle_time == pytest.approx(8.0)
    pump = run_cycles(ground, replace(EngineConfig(), mode="pump", tau_bc=1.0, tau_cd=5.0,
                                      tau_db=1.0, n_cycles=3))
    assert pump.cycle_time == pytest.approx(7.0)
    # the pump takes no time: each cycle's samples start with the expansion
    assert (pump.times[0], pump.stroke_labels[0]) == (0.0, "expansion")


@pytest.mark.parametrize("mode", ["otto", "pump"])
@pytest.mark.parametrize("bad,key", [
    ({"omega_c": 1.5, "omega_h": 1.0}, "omega_c must be below omega_h"),
    ({"omega_c": 1.5}, "omega_c must be below omega_h"),
    ({"tau": 0.0}, "tau must be positive"),
    ({"tau_cd": 0.0}, "tau_cd must be positive"),
    ({"n_cycles": -1}, "n_cycles must be >= 0"),
])
def test_invalid_frequency_order_rejected(mode, bad, key):
    ground = make_distribution(InitialStateSpec.ground(), 20)
    with pytest.raises(ConfigError, match=key):
        run_cycles(ground, replace(EngineConfig(), mode=mode, **bad))


@pytest.mark.parametrize("mode", ["otto", "pump"])
@pytest.mark.parametrize("start", [InitialStateSpec.ground(), InitialStateSpec.equal_lowest(3),
                                   InitialStateSpec.boltzmann(1.5, 0.6)])
def test_schedule_books_the_module_ledger_per_stroke(mode, start):
    omega_c, omega_h = 1.0, 1.5
    if mode == "otto":
        config = replace(EngineConfig(), tau=1.0, n_cycles=3)
    else:
        config = replace(EngineConfig(), mode="pump", pump_target=InitialStateSpec.gaussian(2, 1.5, 1.2),
                         tau_bc=0.3, tau_cd=0.7, tau_db=0.1, n_cycles=3)
    trace = run_cycles(make_distribution(start, 50), config)
    assert len(trace.records) == config.n_cycles
    assert math.isnan(trace.a_shift_tv[0])
    for k, (record, following) in enumerate(zip(trace.records, trace.records[1:]), start=1):
        assert following.dist_a is record.dist_a_next
        assert trace.a_shift_tv[k] == total_variation(following.dist_a, record.dist_a)
    for r in trace.records:
        assert (r.kind, r.omega_c, r.omega_h) == (mode, omega_c, omega_h)
        n_a, n_b, n_c, n_d = (mean_occupation(d) for d in (r.dist_a, r.dist_b, r.dist_c, r.dist_d))
        u_a, u_b = internal_energy(r.dist_a, omega_h), internal_energy(r.dist_b, omega_h)
        # the formulas of the cycle module docstring, on the record's own states
        assert r.w_out == (omega_h - omega_c) * n_b
        assert r.q_out == omega_c * (n_c - n_d)
        assert r.w_in == (omega_h - omega_c) * n_d
        assert r.w_eff == r.w_out - r.w_in
        if mode == "otto":
            assert r.q_in == omega_h * (n_b - n_a)
            assert r.q_pump == r.q_pump_gross == 0.0
        else:
            assert r.q_in == 0.0
            assert r.q_pump == u_b - u_a
            assert r.q_pump_gross == u_b
        # first law per stroke: hot isochore or pump, expansion, cold isochore, compression
        residuals = (
            u_b - u_a - r.heat_source(),
            internal_energy(r.dist_c, omega_c) - u_b + r.w_out,
            internal_energy(r.dist_d, omega_c) - internal_energy(r.dist_c, omega_c) + r.q_out,
            internal_energy(r.dist_a_next, omega_h) - internal_energy(r.dist_d, omega_c) - r.w_in,
        )
        assert max(map(abs, residuals)) <= 1e-9


def spec_id(spec):
    """A start spec as a config spells it, for test ids."""
    return {"ground": "ground", "level": f"level:{spec.level}",
            "equal_lowest": f"equal_lowest:{spec.count}"}[spec.kind]


LEDGER_ONLY_CASES = [
    ("otto", tau, start) for tau in (0.3, 2.0)
    for start in (InitialStateSpec.ground(), InitialStateSpec.equal_lowest(3),
                  InitialStateSpec.single_level(7))
] + [("pump", 2.0, InitialStateSpec.equal_lowest(3))]


@pytest.mark.parametrize("mode,tau,start", LEDGER_ONLY_CASES,
                         ids=[f"{m}-{t}-{spec_id(s)}" for m, t, s in LEDGER_ONLY_CASES])
def test_ledger_only_run_books_the_traced_ledger(monkeypatch, mode, tau, start):
    dist = make_distribution(start, 50)
    config = ledger_config(mode, tau, 8)
    traced = run_cycles(dist, config)
    drifts = []
    end_state = BathStroke.end_state

    def recorded(*args, **kwargs):
        final, drift = end_state(*args, **kwargs)
        drifts.append(drift)
        return final, drift

    monkeypatch.setattr(BathStroke, "end_state", recorded)
    ledger = run_cycles(dist, config, ledger_only=True)
    assert_same_ledgers(traced, ledger, 1e-12)
    assert ledger.times.size == ledger.probs.size == 0 and ledger.stroke_labels == []
    assert (ledger.mode, ledger.cycle_time) == (traced.mode, traced.cycle_time)
    # one jump R^n_steps per stroke conserves probability far inside the
    # guard; the run keeps the largest drift its strokes saw
    assert ledger.max_step_drift == max(drifts) <= _kernels.DRIFT_TOL


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("ledger_only", [False, True], ids=["traced", "ledger_only"])
@pytest.mark.parametrize("mode,bath_strokes", [("otto", 2), ("pump", 1)])
def test_run_builds_one_step_matrix_per_bath_contact_per_run(monkeypatch, mode, bath_strokes,
                                                             ledger_only):
    built = count_calls(monkeypatch, _kernels, "rk4_step_matrix")
    propagated = count_calls(monkeypatch, _kernels, "evolve_populations")
    traced = count_calls(monkeypatch, BathStroke, "trajectory")
    ended = count_calls(monkeypatch, BathStroke, "end_state")
    dist = make_distribution(InitialStateSpec.ground(), 50)
    config = ledger_config(mode, 1.0, 5)
    # otto at tau = 1 never repeats a cycle start within 5 cycles; pump cycle 2
    # starts where cycle 1 did, so cycles 2 to 4 are copies that run no stroke
    cycles_run = {"otto": 5, "pump": 2}[mode]
    for call in (1, 2):  # the step matrices live for one run
        trace = run_cycles(dist, config, ledger_only=ledger_only)
        assert trace.repeat_from == (None if mode == "otto" else 2)
        assert len(built) == call * bath_strokes
        assert len(propagated) == call * bath_strokes * cycles_run
        # traced strokes run their trajectory; clean ledger-only ones never do
        assert len(traced) == (0 if ledger_only else call * bath_strokes * cycles_run)
        assert len(ended) == (call * bath_strokes * cycles_run if ledger_only else 0)
    if ledger_only:  # one jump R^n_steps per stroke: two rows, start and end
        assert all(args[2] == args[3] for args in propagated)


@pytest.mark.parametrize("broken", ["unstable_dt", "unstable_matrix"])
def test_ledger_only_stroke_falls_back_like_the_traced_stroke(monkeypatch, broken):
    dist = make_distribution(InitialStateSpec.equal_lowest(3), 50)
    # at dt = 0.02 both step matrices have negative entries, yet the stepwise loop never trips
    config = replace(ledger_config("otto", 1.0, 3), dt=0.02 if broken == "unstable_dt" else None)
    if broken == "unstable_matrix":  # both runs step one step at a time
        monkeypatch.setattr(_kernels, "step_matrix_is_stable", lambda r: False)
    traced = run_cycles(dist, config)
    sampled = count_calls(monkeypatch, _kernels, "_evolve_sampled")
    stepwise = count_calls(monkeypatch, _kernels, "_evolve_stepwise")
    stepped = count_calls(monkeypatch, BathStroke, "trajectory")
    ledger = run_cycles(dist, config, ledger_only=True)
    # the ledger-only call steps one step at a time, as the traced stroke does
    assert sampled == [] and len(stepwise) == 2 * 3
    assert stepped == []  # the kernel reruns the stroke, not its trajectory
    # the ledger-only stroke takes the traced stroke's path: equal bit for bit
    assert_same_ledgers(traced, ledger, 0.0)


@pytest.mark.parametrize("mode", ["otto", "pump"])
def test_traced_run_at_an_ends_only_stride_books_the_ledger_only_records(monkeypatch, mode):
    # a traced stroke recorded at its two ends only is the ledger-only
    # stroke's one jump R^n_steps
    config = ledger_config(mode, 1.0, 3)
    dist = make_distribution(InitialStateSpec.equal_lowest(3), 50)
    propagated = count_calls(monkeypatch, _kernels, "evolve_populations")
    ledger = run_cycles(dist, config, ledger_only=True)
    longest = max(args[2] for args in propagated)  # the longest stroke's n_steps
    for sample_stride in (longest, 10**9):
        traced = run_cycles(dist, replace(config, sample_stride=sample_stride))
        assert_same_ledgers(ledger, traced, 0.0)
        assert traced.max_step_drift == ledger.max_step_drift


def test_finite_sweep_runs_each_point_ledger_only(monkeypatch):
    config = replace(EngineConfig(), n_cycles=3)
    stepped = count_calls(monkeypatch, BathStroke, "trajectory")
    ended = count_calls(monkeypatch, BathStroke, "end_state")
    built = count_calls(monkeypatch, _kernels, "rk4_step_matrix")
    sweep = sweep_efficiency_power(config.t_c, [1.2, 1.6], [0.6, 0.8], config.tau, engine_config=config)
    assert len(sweep) == 4
    # one cold stroke per sweep, one hot stroke per point
    assert stepped == [] and len(ended) == 2 * 3 * 4 and len(built) == 1 + 4
    # the next sweep builds its own cold stroke: nothing is kept between calls
    sweep_efficiency_power(config.t_c, [1.2, 1.6], [0.6, 0.8], config.tau, engine_config=config)
    assert len(built) == 2 * (1 + 4)


def test_a_stroke_dict_hands_each_run_its_strokes_and_keeps_the_last_runs_only():
    config = replace(EngineConfig(), n_cycles=2)
    strokes = {}
    first = run_engine(config, ledger_only=True, strokes=strokes)
    hot, cold = strokes.values()
    assert [key[0].temperature for key in strokes] == [config.t_h, config.t_c]
    assert all(key[1:] == (config.tau, config.n_max + 1, config.dt) for key in strokes)
    run_engine(replace(config, t_h=1.6), ledger_only=True, strokes=strokes)
    assert len(strokes) == 2 and list(strokes.values())[1] is cold and hot not in strokes.values()
    again = run_engine(config, ledger_only=True, strokes=strokes)
    assert [(r.q_in, r.q_out, r.w_eff) for r in again.records] == [(r.q_in, r.q_out, r.w_eff) for r in first.records]


@pytest.mark.parametrize("ledger_only", [False, True], ids=["traced", "ledger_only"])
def test_run_builds_one_distribution_per_stroke_end(monkeypatch, ledger_only):
    # the start state, then B and D of each of the 5 cycles; a traced stroke
    # builds its end state once, with its Trajectory
    built = count_calls(monkeypatch, FockDistribution, "__post_init__")
    trace = run_engine(replace(EngineConfig(), n_cycles=5), ledger_only=ledger_only)
    assert trace.repeat_from is None
    assert len(built) == 1 + 2 * 5


def test_unstable_dt_ends_the_finite_sweep_with_the_simulate_error():
    # at dt = 0.03 the stepwise loop names step 55 as the first negative one
    config = replace(EngineConfig(), dt=0.03)
    ratio = config.omega_c / config.omega_h
    with pytest.raises(IntegrationError) as simulated:
        run_engine(replace(config, omega_h=config.omega_c / ratio))
    with pytest.raises(IntegrationError) as swept:
        sweep_efficiency_power(config.t_c, [config.t_h], [ratio], config.tau, engine_config=config)
    assert str(swept.value) == str(simulated.value)
    assert "at step 55 " in str(swept.value)


def test_ledger_only_run_checks_the_tail_like_the_traced_run():
    dist = make_distribution(InitialStateSpec.ground(), 10)  # too short a ladder for the hot bath
    config = ledger_config("otto", 2.0, 2)
    with pytest.raises(UnderTruncationError) as traced:
        run_cycles(dist, config)
    with pytest.raises(UnderTruncationError) as ledger:
        run_cycles(dist, config, ledger_only=True)
    assert str(ledger.value) == str(traced.value)


def run_one_cycle_per_call(dist, config, ledger_only):
    """The config's cycles chained by hand, one n_cycles = 1 call each:
    every cycle is run, none is copied."""
    one = replace(config, n_cycles=1)
    runs = []
    for _ in range(config.n_cycles):
        runs.append(run_cycles(dist, one, ledger_only=ledger_only))
        dist = runs[-1].final_record.dist_a_next
    return runs


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# a first copied cycle that the run reads off its own cycle starts: a traced
# stroke's samples come by doubling, whose rounding sets the cycle it repeats from
SET = "set"


def assert_repeat_from(got, want):
    assert got is not None if want is SET else got == want


REUSE_CASES = [  # (mode, tau, cycles, start, first copied cycle traced and ledger only)
    ("otto", 2.0, 14, InitialStateSpec.ground(), (SET, 12)),
    ("otto", 0.3, 8, InitialStateSpec.equal_lowest(3), (None, None)),
    ("pump", 5.0, 6, InitialStateSpec.single_level(7), (2, 2)),
]


@pytest.mark.parametrize("ledger_only", [False, True], ids=["traced", "ledger_only"])
@pytest.mark.parametrize("mode,tau,cycles,start,repeat_from", REUSE_CASES,
                         ids=[f"{m}-{t}-{spec_id(s)}" for m, t, _, s, _ in REUSE_CASES])
def test_run_equals_its_cycles_run_one_call_each(mode, tau, cycles, start, repeat_from, ledger_only):
    dist = make_distribution(start, 50)
    config = ledger_config(mode, tau, cycles)
    trace = run_cycles(dist, config, ledger_only=ledger_only)
    repeat_from = repeat_from[ledger_only]
    runs = run_one_cycle_per_call(dist, config, ledger_only)
    starts = [run.final_record.dist_a for run in runs]
    repeats = [k for k in range(1, cycles) if np.array_equal(starts[k].probs, starts[k - 1].probs)]
    assert trace.repeat_from == (repeats[0] if repeats else None)
    assert_repeat_from(trace.repeat_from, repeat_from)

    assert len(trace.records) == cycles
    for k, (record, run) in enumerate(zip(trace.records, runs)):
        want = run.final_record
        assert record.cycle_index == k
        assert (record.kind, record.omega_c, record.omega_h) == (want.kind, want.omega_c, want.omega_h)
        assert same_bits([getattr(record, name) for name in LEDGER_FIELDS],
                         [getattr(want, name) for name in LEDGER_FIELDS])
        for name in DIST_FIELDS:
            assert same_bits(getattr(record, name).probs, getattr(want, name).probs), (k, name)
    for record, following in zip(trace.records, trace.records[1:]):
        assert following.dist_a is record.dist_a_next
    shifts = [total_variation(b, a) for a, b in zip(starts, starts[1:])]
    assert math.isnan(trace.a_shift_tv[0]) and same_bits(trace.a_shift_tv[1:], shifts)
    if trace.repeat_from is not None:
        assert trace.a_shift_tv[trace.repeat_from:] == [0.0] * (cycles - trace.repeat_from)
    assert trace.max_step_drift == max(run.max_step_drift for run in runs)

    if ledger_only:
        assert trace.times.size == trace.probs.size == 0 and trace.stroke_labels == []
        return
    # the joint sample between two cycles is kept once, as the later cycle's first row
    # is dropped; each cycle's times are its cycle-relative times plus its start
    for name in ("probs", "omegas", "energies", "entropies"):
        want = np.concatenate([getattr(runs[0], name)] + [getattr(run, name)[1:] for run in runs[1:]])
        if name != "energies":
            assert same_bits(getattr(trace, name), want), name
        else:  # each stored row's <n> is taken over the run's whole block of rows: BLAS may round it in the last bit
            np.testing.assert_allclose(getattr(trace, name), want, rtol=0.0, atol=1e-14)
    times = np.concatenate([runs[0].times] + [run.times[1:] + k * trace.cycle_time
                                              for k, run in enumerate(runs) if k])
    assert same_bits(trace.times, times)
    assert trace.stroke_labels == runs[0].stroke_labels + [
        label for run in runs[1:] for label in run.stroke_labels[1:]]


def test_default_pump_run_copies_its_cycles_and_a_fast_otto_run_does_not():
    # every pump stroke resets the populations, so cycle 2 starts where cycle 1 did
    assert run_engine(replace(EngineConfig(), mode="pump")).repeat_from == 2
    # at tau = 0.3 the cycle-start shift contracts by e^-0.6 per cycle: no exact repeat
    trace = run_engine(replace(EngineConfig(), tau=0.3))
    assert trace.repeat_from is None and trace.a_shift_tv[-1] > 0.0


BUDGET_CASES = [  # (mode, overrides, first copied cycle)
    ("otto", {}, SET),
    ("otto", {"sample_stride": 7, "n_cycles": 4}, None),
    ("pump", {}, 2),
    ("pump", {"sample_stride": 3, "n_max": 80, "omega_h": 2.5, "t_h": 2.0, "n_cycles": 5}, 2),
    ("otto", {"n_cycles": 1}, None),
]


@pytest.mark.parametrize("mode,overrides,repeat_from", BUDGET_CASES,
                         ids=[f"{m}-{'-'.join(map(str, o.values())) or 'default'}" for m, o, _ in BUDGET_CASES])
def test_row_budget_counts_the_rows_of_the_traced_run(monkeypatch, mode, overrides, repeat_from):
    config = replace(EngineConfig(), mode=mode, **overrides)
    trace = run_engine(config)
    assert_repeat_from(trace.repeat_from, repeat_from)  # copied cycles are counted too
    monkeypatch.setattr(cycle_module, "MAX_TRACE_BYTES", 0)
    with pytest.raises(ConfigError) as refused:
        run_engine(config)
    assert f" {len(trace.times):,} rows of {config.n_max + 1} populations" in str(refused.value)


def test_row_budget_refuses_a_traced_run_one_byte_over_before_any_stroke(monkeypatch):
    config = replace(EngineConfig(), n_cycles=3)
    need = len(run_engine(config).times) * 51 * 8
    monkeypatch.setattr(cycle_module, "MAX_TRACE_BYTES", need)
    assert len(run_engine(config).records) == 3
    monkeypatch.setattr(cycle_module, "MAX_TRACE_BYTES", need - 1)
    monkeypatch.setattr(BathStroke, "trajectory", lambda *args: pytest.fail("a stroke ran"))
    with pytest.raises(ConfigError, match=r"n_cycles = 3 at sample_stride = the default .* "
                                          r"\(limit 0 MB\); raise sample_stride or lower n_cycles"):
        run_engine(config)
    # a ledger-only run records no rows, and a run without cycles records none
    assert len(run_engine(config, ledger_only=True).records) == 3
    monkeypatch.setattr(cycle_module, "MAX_TRACE_BYTES", 0)
    assert run_engine(replace(config, n_cycles=0)).times.shape == (0,)
