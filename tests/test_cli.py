import csv
import filecmp
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ottokiln
from ottokiln.cli import main


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_simulate_defaults_reach_the_ideal_efficiency(tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out)]) == 0
    cycles = read_csv(out / "cycles.csv")
    assert len(cycles) == 20
    assert abs(float(cycles[-1]["efficiency"]) - 1.0 / 3.0) < 1e-3


def test_simulate_timeseries_rows_are_consistent(tmp_path):
    out = tmp_path / "run"
    config = tmp_path / "cfg.txt"
    config.write_text("n_cycles = 2\n")
    assert main(["simulate", "--config", str(config), "--out", str(out), "--wide"]) == 0

    rows = read_csv(out / "timeseries.csv")
    times = [float(r["t"]) for r in rows]
    assert all(b > a for a, b in zip(times, times[1:]))
    for row in rows:
        assert abs(float(row["p_sum"]) - 1.0) <= 1e-9
        assert row["stroke"] in {"hot_isochore", "expansion", "cold_isochore", "compression"}

    wide = read_csv(out / "timeseries_wide.csv")
    level_names = [k for k in wide[0] if k.startswith("P_")]
    assert len(level_names) == 51
    for row in wide[:50]:
        probs = np.array([float(row[name]) for name in level_names])
        assert abs(probs.sum() - 1.0) <= 1e-9
        u = float(row["omega"]) * float(np.arange(51) @ probs)
        assert abs(u - float(row["U"])) <= 1e-9


def test_repeated_runs_are_byte_identical(tmp_path):
    config = tmp_path / "cfg.txt"
    config.write_text("n_cycles = 3\ntau = 1.0\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    flags = ["--config", str(config), "--wide", "--svg"]
    assert main(["simulate", "--out", str(out_a)] + flags) == 0
    assert main(["simulate", "--out", str(out_b)] + flags) == 0
    for name in ("timeseries.csv", "cycles.csv", "timeseries_wide.csv", "u_t.dat",
                 "efficiency_n.dat", "u_t.svg", "efficiency_n.svg"):
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name


def test_pump_subcommand_matches_saturation_figure(tmp_path):
    out = tmp_path / "pump"
    config = tmp_path / "cfg.txt"
    config.write_text("tau_bc = 1\ntau_cd = 5\ntau_db = 1\nn_cycles = 4\n")
    assert main(["pump", "--config", str(config), "--out", str(out)]) == 0
    cycles = read_csv(out / "cycles.csv")
    assert abs(float(cycles[-1]["efficiency"]) - 0.3034) < 2e-2
    assert float(cycles[0]["q_pump"]) == pytest.approx(1.5, rel=1e-12)
    assert float(cycles[-1]["q_pump"]) == pytest.approx(1.3566586610668954, abs=1e-6)


@pytest.mark.parametrize("command,extra", [
    ("simulate", ""),
    ("pump", ""),
    ("sweep", "sweep_mode = finite\nsweep_t_h = 1.2\nsweep_ratio_steps = 2\n"),
], ids=["simulate", "pump", "finite_sweep"])
@pytest.mark.parametrize("t_c", ["0.02", "0.001"])
def test_cold_bath_near_zero_temperature_runs(tmp_path, command, extra, t_c):
    # t_c = 0.02 puts omega_c / t_c at 50, where gamma0 * (n_BE + 1) rounds to gamma0;
    # at t_c = 0.001, exp(-omega_c / t_c) underflows to 0
    config = tmp_path / "cfg.txt"
    config.write_text(f"t_c = {t_c}\nn_cycles = 3\n" + extra)
    assert main([command, "--config", str(config), "--out", str(tmp_path / "run")]) == 0


def test_sweep_subcommand_writes_expected_columns(tmp_path):
    out = tmp_path / "sweep"
    config = tmp_path / "cfg.txt"
    config.write_text("sweep_t_h = 1.2\nsweep_ratio_steps = 11\n"
                      "sweep_ratio_min = 0.4\nsweep_ratio_max = 0.9\n")
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    rows = read_csv(out / "sweep.csv")
    assert list(rows[0]) == ["t_h", "ratio", "efficiency", "power"]
    assert len(rows) == 11
    for row in rows:
        assert abs(float(row["efficiency"]) - (1.0 - float(row["ratio"]))) < 1e-9


def test_finite_mode_sweep_via_cli(tmp_path):
    out = tmp_path / "sweep"
    config = tmp_path / "cfg.txt"
    config.write_text("sweep_mode = finite\nsweep_t_h = 1.2\nsweep_ratio_steps = 3\n"
                      "sweep_ratio_min = 0.5\nsweep_ratio_max = 0.8\n"
                      "n_cycles = 10\ntau = 1.0\nn_max = 40\n")
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    rows = read_csv(out / "sweep.csv")
    assert len(rows) == 3
    for row in rows:
        assert abs(float(row["efficiency"]) - (1.0 - float(row["ratio"]))) < 1e-3


def test_svg_emission_does_not_change_numeric_outputs(tmp_path):
    config = tmp_path / "cfg.txt"
    config.write_text("n_cycles = 2\n")
    plain, plotted = tmp_path / "plain", tmp_path / "plotted"
    assert main(["simulate", "--config", str(config), "--out", str(plain)]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(plotted), "--svg"]) == 0
    for name in ("timeseries.csv", "cycles.csv"):
        assert filecmp.cmp(plain / name, plotted / name, shallow=False), name
    for extra in ("u_t.svg", "u_t.dat", "efficiency_n.svg", "efficiency_n.dat"):
        assert (plotted / extra).exists()
    assert (plotted / "u_t.svg").read_text().startswith("<svg")


def test_verify_subcommand_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def test_bad_config_is_a_clean_failure(tmp_path, capsys):
    config = tmp_path / "cfg.txt"
    config.write_text("omega_h = -1\n")
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")]) == 1
    assert "omega_h" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["missing", "directory", "binary"])
def test_unreadable_config_is_a_clean_failure(tmp_path, capsys, kind):
    config = tmp_path / "cfg.txt"
    if kind == "directory":
        config.mkdir()
    elif kind == "binary":
        config.write_bytes(b"tau = \xff\xfe\n")
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(config) in err
    assert not (tmp_path / "x").exists()


def test_non_finite_sweep_entry_is_a_clean_failure(tmp_path, capsys):
    config = tmp_path / "cfg.txt"
    config.write_text("sweep_t_h = 1.2, inf\n")
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: sweep_t_h") and err.count("\n") == 1
    assert "finite" in err


def test_refrigerator_run_notes_the_regime(tmp_path, capsys):
    config = tmp_path / "cfg.txt"
    config.write_text("omega_h = 1.1\nt_h = 0.41\nn_cycles = 2\n")
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "fridge")]) == 0
    assert "note: the final cycle is not in the engine regime" in capsys.readouterr().out
    config.write_text("n_cycles = 2\n")
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "engine")]) == 0
    assert "engine regime" not in capsys.readouterr().out


def test_unconverged_run_notes_the_cyclostationarity_threshold(tmp_path, capsys):
    config = tmp_path / "cfg.txt"
    config.write_text("n_cycles = 2\n")
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    out = capsys.readouterr().out
    assert "note: run did not reach the cyclostationarity threshold (TV < 1e-6)\n" in out
    assert ottokiln.cycle.CYCLOSTATIONARY_TV == 1e-6  # the threshold the note names


@pytest.mark.parametrize("command", ["simulate", "pump"])
@pytest.mark.parametrize("levels", ["", "csv_levels = 3\n"], ids=["default_levels", "three_levels"])
def test_wide_flag_leaves_the_narrow_series_unchanged(tmp_path, command, levels):
    config = tmp_path / "cfg.txt"
    config.write_text("n_cycles = 3\n" + levels)
    narrow, wide = tmp_path / "narrow", tmp_path / "wide"
    assert main([command, "--config", str(config), "--out", str(narrow)]) == 0
    assert main([command, "--config", str(config), "--out", str(wide), "--wide"]) == 0
    assert not (narrow / "timeseries_wide.csv").exists() and (wide / "timeseries_wide.csv").exists()
    assert (wide / "timeseries.csv").read_bytes() == (narrow / "timeseries.csv").read_bytes()


def test_mode_conflict_is_a_clean_failure(tmp_path, capsys):
    config = tmp_path / "cfg.txt"
    config.write_text("mode = pump\n")
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")]) == 1
    assert "mode" in capsys.readouterr().err


def test_zero_cycles_run_writes_empty_series(tmp_path):
    config = tmp_path / "cfg.txt"
    config.write_text("n_cycles = 0\n")
    out = tmp_path / "empty"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert read_csv(out / "cycles.csv") == []
    assert read_csv(out / "timeseries.csv") == []


@pytest.mark.parametrize("command,text", [
    ("simulate", "n_cycles = 1\n"),
    ("pump", "pump_target = ground\nn_cycles = 3\n"),  # every efficiency is nan
])
def test_svg_run_with_too_few_finite_efficiencies_skips_only_that_chart(tmp_path, capsys, command, text):
    config = tmp_path / "cfg.txt"
    config.write_text(text)
    out = tmp_path / "run"
    assert main([command, "--config", str(config), "--out", str(out), "--svg"]) == 0
    assert "note: efficiency_n.svg not drawn" in capsys.readouterr().out
    assert not (out / "efficiency_n.svg").exists()
    for name in ("timeseries.csv", "cycles.csv", "u_t.dat", "u_t.svg", "efficiency_n.dat"):
        assert (out / name).exists(), name


BAD_CONFIGS = {
    "negative_gaussian_center": ("initial_state = gaussian:-1\n", "line 1: initial_state"),
    "gaussian_with_bad_omega_h": ("omega_h = -1\ninitial_state = gaussian\n", "omega_h must be positive"),
    "gaussian_with_bad_t_h": ("t_h = 0\npump_target = gaussian:2\n", "t_h must be positive"),
    "infinite_boltzmann_frequency": ("initial_state = boltzmann:inf:1\n", "line 1: initial_state"),
    "missing_file": (None, "cannot read config file"),
    "inverted_sweep_bounds": ("sweep_ratio_min = 0.8\nsweep_ratio_max = 0.6\n", "sweep_ratio_min must be below"),
    "infinite_sweep_t_h": ("sweep_t_h = inf\n", "line 1: sweep_t_h"),
    # the ramps' frequencies and the top level's energy overflow
    "largest_float_omega_h": ("omega_h = 1.7976931348623157e308\n", "omega_h * (n_max + 1) must be finite"),
    # just above the bound: if the bound were lost, the run would still fit in memory
    "n_max_above_bound": ("n_max = 1001\n", "n_max must be <= 1000"),
    # a 72.8 TiB ratio grid: without the bound the sweep ends in a MemoryError
    "sweep_points_above_bound": ("sweep_ratio_steps = 10000000000000\n", "a sweep must have at most"),
}


# configs only the sweep command reads in full; simulate and pump run them
SWEEP_BAD_CONFIGS = {
    "ratio_below_engine_window": ("sweep_ratio_min = 0.2\nsweep_ratio_max = 0.9\n",
                                  "the cycle would run as a refrigerator"),
    "duplicate_sweep_t_h": ("sweep_t_h = 1.2, 1.2\n", "sweep_t_h entries 1.2 and 1.2"),
    # omega_c / t_c is subnormal: the cold-bath occupation overflows
    "bath_occupation_overflow": ("omega_c = 1e-320\n", "too small for a finite bath occupation"),
    "bounded_sweep_points_above_bound": (
        "sweep_ratio_min = 0.6\nsweep_ratio_max = 0.9\nsweep_ratio_steps = 10000000000000\n",
        "a sweep must have at most"),
    "finite_sweep_points_above_bound": ("sweep_mode = finite\nsweep_ratio_steps = 10000000000000\n",
                                        "a sweep must have at most"),
    # simulate and pump write empty series; a finite sweep has no cycle to report
    "finite_sweep_without_cycles": ("sweep_mode = finite\nn_cycles = 0\n",
                                    "error: n_cycles must be >= 1 for a finite sweep"),
}
# configs only the pump command runs (simulate rejects t_c above t_h)
PUMP_BAD_CONFIGS = {
    "bath_occupation_underflow": ("omega_c = 1e-300\nt_c = 1e300\n",
                                  "too small for a finite bath occupation"),
    # the bath strokes are built before the first cycle, so a run without cycles fails too
    "bath_occupation_underflow_without_cycles": ("omega_c = 1e-300\nt_c = 1e300\nn_cycles = 0\n",
                                                 "too small for a finite bath occupation"),
    # about 1M samples of the cold stroke per cycle: 8.3 GB of populations
    "long_cold_stroke_at_every_step": ("t_c = 0.001\ntau_cd = 1e3\nsample_stride = 1\n",
                                       "a traced run of n_cycles = 20 at sample_stride = 1"),
    # a cold stroke of about 1e304 steps, whose step indices overflow int64
    "extreme_rates_and_durations": ("gamma0 = 1e300\nt_c = 1e-300\nt_h = 1e300\ntau_db = 1e-300\n",
                                    "has more steps than a float can count"),
}
# configs only the simulate command runs (the pump cycle has no tau stroke)
SIMULATE_BAD_CONFIGS = {
    # about 4.8M samples per bath stroke: 69 GB of populations
    "long_strokes_at_stride_3": ("tau = 1e4\nsample_stride = 3\n",
                                 "a traced run of n_cycles = 20 at sample_stride = 3"),
}
# configs only the engine commands run; a stroke that cannot be discretised
# fails before the first cycle
ENGINE_BAD_CONFIGS = {
    "dt_above_a_stroke_without_cycles": ("dt = 6\nn_cycles = 0\n", "dt=6.0 exceeds duration="),
    # the traced-run row budget: without it, a terabyte sample array ends in a numpy
    # MemoryError traceback, and the n_max = 200 run runs until memory runs out
    "stiff_bath_at_stride_3": ("gamma0 = 1e6\nsample_stride = 3\nn_cycles = 1\n",
                               "a traced run of n_cycles = 1 at sample_stride = 3"),
    "wide_ladder_at_every_step": ("sample_stride = 1\nn_max = 200\ngamma0 = 50\n",
                                  "rows of 201 populations"),
    # strokes of 2**53 steps or more: past that a float cannot count the steps
    "dt_far_below_a_stroke": ("dt = 1e-300\ntau = 1e-9\n", "has more steps than a float can count"),
    "rate_far_above_the_stroke": ("gamma0 = 1e300\n", "has more steps than a float can count"),
}
BAD_INPUTS = [(command, case) for case in BAD_CONFIGS for command in ("simulate", "pump", "sweep")]
BAD_INPUTS += [(command, case) for case in ENGINE_BAD_CONFIGS for command in ("simulate", "pump")]
BAD_INPUTS += [("sweep", case) for case in SWEEP_BAD_CONFIGS]
BAD_INPUTS += [("pump", case) for case in PUMP_BAD_CONFIGS]
BAD_INPUTS += [("simulate", case) for case in SIMULATE_BAD_CONFIGS]


@pytest.mark.parametrize("command,case", BAD_INPUTS, ids=[f"{c}-{k}" for c, k in BAD_INPUTS])
def test_bad_input_ends_in_one_error_line(tmp_path, capsys, command, case):
    text, expected = {**BAD_CONFIGS, **SWEEP_BAD_CONFIGS, **PUMP_BAD_CONFIGS, **ENGINE_BAD_CONFIGS,
                      **SIMULATE_BAD_CONFIGS}[case]
    config = tmp_path / "cfg.txt"
    if text is not None:
        config.write_text(text)
    assert main([command, "--config", str(config), "--out", str(tmp_path / "x")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert expected in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("t_h,tags", [
    ("0.8, 1.2, 1.6, 2.0", ["0p8", "1p2", "1p6", "2"]),
    ("1.581649, 1.581651", ["1p581649", "1p581651"]),  # alike at 6 significant digits
])
def test_sweep_charts_hold_one_hot_temperature_each(tmp_path, t_h, tags):
    config = tmp_path / "cfg.txt"
    config.write_text(f"sweep_t_h = {t_h}\nsweep_ratio_steps = 5\n"
                      "sweep_ratio_min = 0.7\nsweep_ratio_max = 0.9\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config), "--out", str(out), "--svg"]) == 0
    assert sorted(p.name for p in out.glob("eta_power_th*")) == \
        sorted(f"eta_power_th{tag}.{ext}" for tag in tags for ext in ("dat", "svg"))
    rows = read_csv(out / "sweep.csv")
    for tag in tags:
        series = [f"{row['power']} {row['efficiency']}" for row in rows
                  if row["t_h"] == tag.replace("p", ".")]
        assert len(series) == 5
        dat = (out / f"eta_power_th{tag}.dat").read_text().split("\n")
        assert dat == ["# power efficiency", *series, ""]
        # the title prints t_h as sweep.csv does, so alike-at-%g charts read apart
        title = f">Efficiency vs power (t_h = {tag.replace('p', '.')})</text>"
        assert title in (out / f"eta_power_th{tag}.svg").read_text()


TOO_FAST = [("simulate", "1e5"), ("simulate", "1e300"), ("simulate", "1e306"), ("pump", "1e300")]


@pytest.mark.parametrize("command,gamma0", TOO_FAST,
                         ids=[g if c == "simulate" else f"{c}-{g}" for c, g in TOO_FAST])
def test_rate_too_fast_for_the_step_count_ends_in_one_error_line(tmp_path, command, gamma0):
    # each run has a stroke of 6e8 or more steps, too many to rerun step by
    # step when its sample-to-sample path trips a guard, or more than 2**53;
    # the subprocess shows numpy's warnings, and its timeout turns an
    # unbounded rerun into a failure instead of a stalled suite
    config = tmp_path / "cfg.txt"
    config.write_text(f"gamma0 = {gamma0}\nn_cycles = 1\n")
    src = str(Path(ottokiln.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "ottokiln.cli", command, "--config", str(config),
                           "--out", str(tmp_path / "x")],
                          capture_output=True, text=True, env=env, timeout=30)
    assert done.returncode == 1
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "reduce gamma0 * tau or set dt" in done.stderr
    assert "Traceback" not in done.stdout + done.stderr


def test_nan_state_ends_at_its_first_step_in_one_error_line(tmp_path):
    # R overflows at this rate, so the stroke runs step by step from a state
    # that turns NaN at step 1; the drift guard must stop it there, without
    # numpy warnings (a subprocess, because pytest captures them in-process)
    config = tmp_path / "cfg.txt"
    config.write_text("gamma0 = 1e300\ndt = 1e-6\nn_cycles = 1\n")
    src = str(Path(ottokiln.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "ottokiln.cli", "simulate", "--config", str(config),
                           "--out", str(tmp_path / "x")],
                          capture_output=True, text=True, env=env, timeout=30)
    assert done.returncode == 1
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "drifted beyond 1e-10 at step 1 " in done.stderr
    assert "Traceback" not in done.stdout + done.stderr

def columns_of(path, sep=","):
    """Header and data lines of a written table, each split into its fields."""
    lines = path.read_text().split("\n")
    assert lines[-1] == ""
    return [line.split(sep) for line in lines[:-1]]


@pytest.mark.parametrize("command,text", [
    ("simulate", "n_cycles = 3\n"),
    ("pump", "n_cycles = 3\n"),
    ("simulate", "n_cycles = 0\n"),
    ("pump", "csv_levels = 8\nn_max = 4\nn_cycles = 3\nt_h = 0.15\nt_c = 0.1\n"
             "pump_target = level:2\ninitial_state = level:1\n"),
], ids=["simulate", "pump", "zero_cycles", "csv_levels_above_ladder"])
def test_dat_twins_and_narrow_series_print_the_csv_strings(tmp_path, command, text):
    config = tmp_path / "cfg.txt"
    config.write_text(text)
    out = tmp_path / "run"
    assert main([command, "--config", str(config), "--out", str(out), "--svg", "--wide"]) == 0
    narrow = columns_of(out / "timeseries.csv")
    wide = columns_of(out / "timeseries_wide.csv")
    cycles = columns_of(out / "cycles.csv")
    levels = [name for name in narrow[0] if name.startswith("P_")]
    assert len(narrow) == len(wide)
    for narrow_row, wide_row in zip(narrow[1:], wide[1:]):
        assert narrow_row[:5] == wide_row[:5]  # t, omega, U, S, stroke
        assert narrow_row[6:] == wide_row[5:5 + len(levels)]
    if len(cycles) == 1:  # no cycles: no .dat twins, and the headers keep their shapes
        assert not list(out.glob("*.dat"))
        assert levels == [f"P_{n}" for n in range(8)] and wide[0] == ["t", "omega", "U", "S", "stroke"]
        return
    assert len(narrow) > 1
    if "n_max = 4" in text:
        assert levels == [f"P_{n}" for n in range(5)] and wide[0][5:] == levels
    assert columns_of(out / "u_t.dat", " ") == [["#", "t", "U"]] + [[row[0], row[2]] for row in narrow[1:]]
    assert columns_of(out / "efficiency_n.dat", " ") == \
        [["#", "cycle", "efficiency"]] + [[row[0], row[8]] for row in cycles[1:]]


@pytest.mark.parametrize("command", ["simulate", "pump", "sweep"])
@pytest.mark.parametrize("case", ["out_is_a_file", "out_under_a_file", "output_is_a_directory"])
def test_unwritable_out_ends_in_one_error_line(tmp_path, capsys, command, case):
    config = tmp_path / "cfg.txt"
    config.write_text("n_cycles = 1\nsweep_t_h = 1.2\nsweep_ratio_steps = 3\n")
    out = tmp_path / "out"
    if case == "out_is_a_file":
        out.write_text("")
        named = out
    elif case == "out_under_a_file":
        (tmp_path / "file").write_text("")
        out = named = tmp_path / "file" / "out"
    else:
        named = out / ("sweep.csv" if command == "sweep" else "timeseries.csv")
        named.mkdir(parents=True)
    assert main([command, "--config", str(config), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(named) in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_verify_takes_no_config(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["verify", "--config", "x"])
    assert exited.value.code != 0
    assert "--config" in capsys.readouterr().err
