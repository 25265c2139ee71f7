from dataclasses import replace

import numpy as np
import pytest

from ottokiln import (
    CycleRecord,
    EngineConfig,
    InitialStateSpec,
    OttoKilnError,
    UndefinedEfficiencyError,
    carnot_limit,
    cycle_efficiency,
    cycle_power,
    make_distribution,
    otto_limit,
    otto_schedule,
    run_schedule,
    stationary_distribution,
    sweep_efficiency_power,
)
from ottokiln.analysis import default_ratio_grid
from ottokiln import BathSpec

W_EFF_BALANCE = 0.15606281432958044
Q_IN_BALANCE = 0.4681884429887413


def _record(**overrides):
    ground = make_distribution(InitialStateSpec.ground(), 10)
    fields = dict(cycle_index=0, kind="otto", omega_c=1.0, omega_h=1.5,
                  q_in=1.0, q_out=0.5, w_out=0.6, w_in=0.1, w_eff=0.5,
                  q_pump=0.0, q_pump_gross=0.0,
                  dist_a=ground, dist_b=ground, dist_c=ground,
                  dist_d=ground, dist_a_next=ground)
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
    record = run_schedule(start, otto_schedule(1.0, 1.5, BathSpec(0.4, 0.5), BathSpec(1.2, 0.5),
                                               20.0, 1)).final_record
    assert cycle_efficiency(record) == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert cycle_efficiency(record) == pytest.approx(W_EFF_BALANCE / Q_IN_BALANCE, abs=1e-6)


def test_efficiency_negative_for_high_energy_start():
    start = make_distribution(InitialStateSpec.equal_lowest(3), 50)
    record = run_schedule(start, otto_schedule(1.0, 1.5, BathSpec(0.4, 0.5), BathSpec(1.2, 0.5),
                                               2.0, 1)).final_record
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
    points = sweep_efficiency_power(0.4, [1.2], ratio_grid=[0.5, 2.0 / 3.0], tau=1.0,
                                    mode="finite", engine_config=template)
    assert len(points) == 2
    for point in points:
        assert point.converged
        assert point.efficiency == pytest.approx(1.0 - point.ratio, abs=1e-3)
        assert point.power > 0.0


def test_finite_time_sweep_requires_template():
    with pytest.raises(OttoKilnError):
        sweep_efficiency_power(0.4, [1.2], mode="finite")


def test_sweep_rejects_invalid_temperatures_and_ratios():
    with pytest.raises(OttoKilnError):
        sweep_efficiency_power(0.4, [0.3], tau=2.0)
    with pytest.raises(OttoKilnError):
        sweep_efficiency_power(0.4, [1.2], ratio_grid=[1.5], tau=2.0)
