from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ottokiln import (
    CycleRecord,
    EngineConfig,
    InitialStateSpec,
    OttoKilnError,
    RefrigeratorRegimeError,
    SweepPoint,
    UndefinedEfficiencyError,
    analytic_cycle_thermal_balance,
    carnot_limit,
    cycle_efficiency,
    cycle_power,
    make_distribution,
    otto_limit,
    run_cycles,
    stationary_distribution,
    sweep_efficiency_power,
)
from ottokiln.analysis import default_ratio_grid

W_EFF_BALANCE = 0.15606281432958044
Q_IN_BALANCE = 0.4681884429887413


def _record(**overrides):
    ground = make_distribution(InitialStateSpec.ground(), 10)
    fields = dict(cycle_index=0, kind="otto", omega_c=1.0, omega_h=1.5,
                  q_in=1.0, q_out=0.5, w_out=0.6, w_in=0.1, w_eff=0.5,
                  q_pump=0.0, q_pump_gross=0.0,
                  dist_a=ground, dist_b=ground, dist_d=ground)
    fields.update(overrides)
    return CycleRecord(**fields)


def test_limits():
    assert otto_limit(1.0, 1.5) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert otto_limit(1.0, 1.0) == 0.0
    assert carnot_limit(0.4, 1.2) == pytest.approx(2.0 / 3.0, rel=1e-15)
    with pytest.raises(OttoKilnError):
        carnot_limit(1.2, 0.4)


def test_efficiency_of_thermal_balance_cycle():
    start = stationary_distribution(1.0, 0.4, 50)
    record = run_cycles(start, replace(EngineConfig(), tau=20.0, n_cycles=1)).final_record
    assert cycle_efficiency(record) == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert cycle_efficiency(record) == pytest.approx(W_EFF_BALANCE / Q_IN_BALANCE, abs=1e-6)


def test_efficiency_negative_for_high_energy_start():
    start = make_distribution(InitialStateSpec.equal_lowest(3), 50)
    record = run_cycles(start, replace(EngineConfig(), tau=2.0, n_cycles=1)).final_record
    assert cycle_efficiency(record) < 0.0


def test_efficiency_undefined_when_no_heat_absorbed():
    record = _record(q_in=0.0)
    with pytest.raises(UndefinedEfficiencyError):
        cycle_efficiency(record)
    record = _record(q_in=5e-13)
    with pytest.raises(UndefinedEfficiencyError):
        cycle_efficiency(record)


def test_pump_efficiency_divides_by_gross_pump_energy():
    record = _record(kind="pump", q_in=0.0, w_eff=0.45, q_pump=1.35, q_pump_gross=1.5)
    assert cycle_efficiency(record) == pytest.approx(0.3, rel=1e-15)


def test_power():
    record = _record(w_eff=W_EFF_BALANCE)
    assert cycle_power(record, 40.0) == pytest.approx(0.003901570358239511, rel=1e-12)
    assert cycle_power(_record(w_eff=0.0), 8.0) == 0.0
    with pytest.raises(OttoKilnError):
        cycle_power(record, 0.0)


def test_default_ratio_grid_covers_engine_window():
    grid = default_ratio_grid(0.4, 1.2)
    assert grid.shape == (99,)
    assert grid[0] == pytest.approx(0.4 / 1.2 + 0.01)
    assert grid[-1] == pytest.approx(0.99)
    with pytest.raises(OttoKilnError):
        default_ratio_grid(1.0, 1.005)


def test_balance_sweep_efficiency_equals_ratio_complement():
    points = sweep_efficiency_power(0.4, [1.2], tau=2.0)
    assert len(points) == 99
    for point in points:
        assert point.efficiency == pytest.approx(1.0 - point.ratio, abs=1e-6)
        assert point.converged


def test_balance_sweep_carnot_endpoint():
    points = sweep_efficiency_power(0.4, [1.2], ratio_grid=[1.0 / 3.0], tau=2.0)
    point = points[0]
    assert point.efficiency == pytest.approx(carnot_limit(0.4, 1.2), abs=1e-6)
    assert point.power <= 1e-6


def test_balance_sweep_power_shape_and_bounds():
    points = sweep_efficiency_power(0.4, [1.2], tau=2.0)
    powers = np.array([p.power for p in points])
    assert np.all(powers > 0.0)
    # unimodal: strictly rising to a single interior peak, then falling
    peak = int(powers.argmax())
    assert 0 < peak < len(powers) - 1
    assert np.all(np.diff(powers[: peak + 1]) > 0)
    assert np.all(np.diff(powers[peak:]) < 0)
    for point in points:
        if point.power >= 0.0:
            assert -1e-9 <= point.efficiency <= carnot_limit(0.4, 1.2) + 1e-9


def test_balance_sweep_power_grows_with_hot_temperature():
    points = sweep_efficiency_power(0.4, [1.2, 1.6], ratio_grid=[2.0 / 3.0], tau=2.0)
    by_temp = {p.t_h: p for p in points}
    assert by_temp[1.6].power > by_temp[1.2].power
    assert by_temp[1.2].efficiency == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_sweep_points_sorted_deterministically():
    points = sweep_efficiency_power(0.4, [1.6, 1.2], ratio_grid=[0.8, 0.5], tau=2.0)
    keys = [(p.t_h, p.ratio) for p in points]
    assert keys == sorted(keys)


def test_finite_time_sweep_runs_the_engine():
    template = replace(EngineConfig(), n_cycles=12, n_max=40)
    points = sweep_efficiency_power(0.4, [1.2], ratio_grid=[0.5, 2.0 / 3.0], tau=1.0, engine_config=template)
    assert len(points) == 2
    for point in points:
        assert point.converged
        assert point.efficiency == pytest.approx(1.0 - point.ratio, abs=1e-3)
        assert point.power > 0.0


def test_sweep_rejects_invalid_temperatures_and_ratios():
    with pytest.raises(OttoKilnError):
        sweep_efficiency_power(0.4, [0.3], tau=2.0)
    with pytest.raises(OttoKilnError):
        sweep_efficiency_power(0.4, [1.2], ratio_grid=[1.5], tau=2.0)


def scalar_sweep(t_c, t_h_list, ratio_grid, tau, omega_c=1.0):
    """The balance sweep one point at a time through the scalar oracle, as
    the per-point path computed it: rows in input order, then sorted."""
    rows = []
    for t_h in t_h_list:
        for ratio in ratio_grid:
            if not 0.0 < ratio < 1.0:
                raise OttoKilnError(f"frequency ratio must lie in (0, 1), got {ratio}")
            ledger = analytic_cycle_thermal_balance(omega_c, omega_c / ratio, t_c, t_h)
            rows.append((t_h, ratio, ledger.efficiency, ledger.w_eff / (4.0 * tau), True))
    return sorted(rows, key=lambda row: row[:2])


def rows_of(sweep):
    return list(zip(sweep.t_h.tolist(), sweep.ratio.tolist(), sweep.efficiency.tolist(),
                    sweep.power.tolist(), sweep.converged.tolist()))


def test_balance_columns_equal_the_scalar_oracle_on_the_default_grid():
    sweep = sweep_efficiency_power(0.4, [0.8, 1.2, 1.6, 2.0], tau=2.0)
    assert len(sweep) == 4 * 99
    for point in sweep:
        ledger = analytic_cycle_thermal_balance(1.0, 1.0 / point.ratio, 0.4, point.t_h)
        assert point.efficiency == ledger.efficiency
        assert point.power == ledger.w_eff / (4.0 * 2.0)
        assert point.converged is True


@settings(max_examples=200, deadline=None)
@given(t_c=st.floats(min_value=0.05, max_value=3.0),
       factors=st.lists(st.floats(min_value=1.05, max_value=20.0), min_size=1, max_size=4),
       fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12),
       tau=st.floats(min_value=0.01, max_value=100.0),
       omega_c=st.floats(min_value=0.1, max_value=10.0))
def test_balance_columns_equal_the_scalar_oracle_on_drawn_grids(t_c, factors, fractions, tau, omega_c):
    t_h_list = [t_c * f for f in factors]
    lo = t_c / min(t_h_list) * (1.0 + 1e-9)  # ratios above every t_c/t_h run an engine
    grid = [min(lo + (1.0 - lo) * f, float(np.nextafter(1.0, 0.0))) for f in fractions]
    expected = scalar_sweep(t_c, t_h_list, grid, tau, omega_c)
    sweep = sweep_efficiency_power(t_c, t_h_list, ratio_grid=grid, tau=tau, omega_c=omega_c)
    assert rows_of(sweep) == expected


@settings(max_examples=200, deadline=None)
@given(t_h_list=st.lists(st.sampled_from([0.9, 1.2, 1.6, 2.5]), min_size=1, max_size=5),
       grid=st.lists(st.floats(min_value=-0.2, max_value=1.2), min_size=1, max_size=6))
def test_balance_sweep_raises_like_the_scalar_oracle(t_h_list, grid):
    try:
        expected = scalar_sweep(0.4, t_h_list, grid, 2.0)
    except OttoKilnError as exc:
        with pytest.raises(type(exc)) as raised:
            sweep_efficiency_power(0.4, t_h_list, ratio_grid=grid, tau=2.0)
        assert str(raised.value) == str(exc)
    else:
        assert rows_of(sweep_efficiency_power(0.4, t_h_list, ratio_grid=grid, tau=2.0)) == expected


def test_sweep_rows_sorted_for_shuffled_and_repeated_hot_temperatures():
    t_h_list, grid = [1.6, 1.2, 1.6, 0.8], [0.9, 0.7, 0.8, 0.7]
    sweep = sweep_efficiency_power(0.4, t_h_list, ratio_grid=grid, tau=2.0)
    assert list(zip(sweep.t_h.tolist(), sweep.ratio.tolist())) == \
        sorted((t_h, r) for t_h in t_h_list for r in grid)
    assert rows_of(sweep) == scalar_sweep(0.4, t_h_list, grid, 2.0)
    assert sweep[-1] == list(sweep)[-1] == SweepPoint(*rows_of(sweep)[-1])


@pytest.mark.parametrize("grid,error,message", [
    ([0.8, 1.5], OttoKilnError, "frequency ratio must lie in (0, 1), got 1.5"),
    ([0.8, 0.2, 1.5], RefrigeratorRegimeError, "the cycle would run as a refrigerator"),
    ([0.8, -0.1, 0.2], OttoKilnError, "frequency ratio must lie in (0, 1), got -0.1"),
])
def test_first_invalid_point_in_input_order_names_the_error(grid, error, message):
    # t_c/t_h = 1/3: ratio 0.2 puts the point in the refrigerator regime
    with pytest.raises(error) as raised:
        sweep_efficiency_power(0.4, [1.2], ratio_grid=grid, tau=2.0)
    assert message in str(raised.value)
    with pytest.raises(error) as scalar:
        scalar_sweep(0.4, [1.2], grid, 2.0)
    assert str(raised.value) == str(scalar.value)


@pytest.mark.parametrize("omega_c,t_h,message", [
    (1e-320, 1.2, "too small for a finite bath occupation"),  # n_c overflows
    (1e-3, 1e306, "too small for a finite bath occupation"),  # n_h overflows at ratio 0.5
    (1.0, 1e17, "too small for the equilibrium entropy"),     # n_h is finite, S_h is not
])
def test_unrepresentable_bath_figures_raise_like_the_scalar_oracle(omega_c, t_h, message):
    grid = [0.5, 0.9]
    with pytest.raises(OttoKilnError) as raised:
        sweep_efficiency_power(0.4, [t_h], ratio_grid=grid, tau=2.0, omega_c=omega_c)
    assert message in str(raised.value)
    with pytest.raises(OttoKilnError) as scalar:
        scalar_sweep(0.4, [t_h], grid, 2.0, omega_c)
    assert str(raised.value) == str(scalar.value)
