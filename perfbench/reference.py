"""Independent output checks: the benchmark's own reference for every figure.

Nothing here imports ``ottokiln``.  Engine ledgers are rebuilt from the
paper's birth-death rate equation,

    dP_n/dt = 2 Gamma [ (n+1) P_{n+1} - n P_n ]
              + 2 Gamma exp(-omega/T) [ n P_{n-1} - (n+1) P_n ],
    Gamma = gamma0 (n_BE + 1),

propagated exactly with ``scipy.linalg.expm``; balance-sweep points come in
closed form.  Each check returns the worst absolute deviation of the written
figures from the reference, or raises ``CheckFailed``.
"""

import csv
import functools
import math

import numpy as np
from scipy.linalg import expm

LEDGER_COLUMNS = ("q_in", "q_out", "w_out", "w_in", "w_eff", "q_pump",
                  "q_pump_gross", "efficiency", "power")


class CheckFailed(Exception):
    pass


def occupation(omega, temperature):
    return 1.0 / math.expm1(omega / temperature)


@functools.lru_cache(maxsize=None)
def _propagator(omega, temperature, gamma0, n_max, duration):
    x = omega / temperature
    gamma = gamma0 * (occupation(omega, temperature) + 1.0)
    n = np.arange(n_max + 1, dtype=float)
    down = 2.0 * gamma * n                          # n -> n-1
    up = 2.0 * gamma * math.exp(-x) * (n + 1.0)     # n -> n+1
    up[-1] = 0.0                                    # reflecting top level
    generator = np.diag(-(down + up)) + np.diag(down[1:], 1) + np.diag(up[:-1], -1)
    return expm(generator * duration)


def distribution(recipe, n_max):
    kind, *args = recipe.split(":")
    n = np.arange(n_max + 1)
    if kind == "ground":
        p = (n == 0).astype(float)
    elif kind == "level":
        p = (n == int(args[0])).astype(float)
    elif kind == "equal_lowest":
        p = (n < int(args[0])).astype(float)
    elif kind == "boltzmann":
        p = np.exp(-float(args[0]) / float(args[1]) * n)
    else:
        raise ValueError(f"no reference for state recipe {recipe!r}")
    return p / p.sum()


def engine_ledger(kind, config, omega_h=None, t_h=None):
    """Reference ledger rows (dicts of LEDGER_COLUMNS) for otto or pump cycles.

    omega_h and t_h override the config's values (one sweep point).
    """
    omega_c, t_c, n_max = config["omega_c"], config["t_c"], config["n_max"]
    omega_h = config["omega_h"] if omega_h is None else omega_h
    t_h = config["t_h"] if t_h is None else t_h
    propagator = functools.partial(_propagator, gamma0=config["gamma0"], n_max=n_max)
    n = np.arange(n_max + 1)
    p = distribution(config["initial_state"], n_max)
    if kind == "otto":
        hot = propagator(omega_h, t_h, duration=config["tau"])
        cold_tau, period = config["tau"], 4.0 * config["tau"]
    else:
        target = distribution(config["pump_target"], n_max)
        cold_tau = config["tau_cd"]
        period = config["tau_bc"] + config["tau_cd"] + config["tau_db"]
    cold = propagator(omega_c, t_c, duration=cold_tau)
    rows = []
    for _ in range(config["n_cycles"]):
        n_a = n @ p
        p_b = hot @ p if kind == "otto" else target
        n_b = n @ p_b
        p = cold @ p_b
        n_d = n @ p
        row = dict.fromkeys(LEDGER_COLUMNS, 0.0)
        row["q_out"] = omega_c * (n_b - n_d)
        row["w_out"] = (omega_h - omega_c) * n_b
        row["w_in"] = (omega_h - omega_c) * n_d
        row["w_eff"] = row["w_out"] - row["w_in"]
        if kind == "otto":
            row["q_in"] = omega_h * (n_b - n_a)
            row["efficiency"] = row["w_eff"] / row["q_in"]
        else:
            row["q_pump"] = omega_h * (n_b - n_a)
            row["q_pump_gross"] = omega_h * n_b
            row["efficiency"] = row["w_eff"] / row["q_pump_gross"]
        row["power"] = row["w_eff"] / period
        rows.append(row)
    return rows


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _deviation(written, expected, where):
    value = float(written)
    if math.isnan(value) or math.isnan(expected):
        raise CheckFailed(f"{where}: undefined value (written {written}, reference {expected!r})")
    return float(abs(value - expected))


def check_cycles(path, kind, config):
    """Every row of cycles.csv against the reference ledger."""
    rows = read_csv(path)
    if len(rows) != config["n_cycles"]:
        raise CheckFailed(f"cycles.csv has {len(rows)} cycles, {config['n_cycles']} were requested")
    worst = 0.0
    for k, (row, ref) in enumerate(zip(rows, engine_ledger(kind, config))):
        for column in LEDGER_COLUMNS:
            worst = max(worst, _deviation(row[column], ref[column], f"cycle {k + 1} {column}"))
    return worst


def _sweep_grid(config, rows, points):
    if len(rows) != points:
        raise CheckFailed(f"sweep.csv has {len(rows)} points, {points} were requested")
    t_hs = [float(t) for t in str(config["sweep_t_h"]).split(",")]
    ratios = np.linspace(config["sweep_ratio_min"], config["sweep_ratio_max"],
                         config["sweep_ratio_steps"])
    worst = 0.0
    grid = [(t_h, r) for t_h in t_hs for r in ratios]
    for row, (t_h, ratio) in zip(rows, grid):
        worst = max(worst, _deviation(row["t_h"], t_h, "t_h"), _deviation(row["ratio"], ratio, "ratio"))
    return grid, worst


def check_balance_sweep(path, config, points):
    """Efficiency 1 - ratio and closed-form power per point."""
    omega_c, t_c = config["omega_c"], config["t_c"]
    rows = read_csv(path)
    grid, worst = _sweep_grid(config, rows, points)
    for row, (t_h, ratio) in zip(rows, grid):
        omega_h = omega_c / ratio
        power = (omega_h - omega_c) * (occupation(omega_h, t_h) - occupation(omega_c, t_c))
        power /= 4.0 * config["tau"]
        worst = max(worst, _deviation(row["efficiency"], 1.0 - ratio, f"ratio {ratio} efficiency"),
                    _deviation(row["power"], power, f"ratio {ratio} power"))
    return worst


def check_finite_sweep(path, config, points):
    """Final-cycle efficiency and power per point, from a reference engine run."""
    rows = read_csv(path)
    grid, worst = _sweep_grid(config, rows, points)
    for row, (t_h, ratio) in zip(rows, grid):
        last = engine_ledger("otto", config, omega_h=config["omega_c"] / ratio, t_h=t_h)[-1]
        for column in ("efficiency", "power"):
            worst = max(worst, _deviation(row[column], last[column], f"ratio {ratio} {column}"))
    return worst


def check_verify(stdout, rc, min_checks):
    """Exit 0, every check PASS, and no fewer checks than requested."""
    lines = stdout.splitlines()
    passed = sum(line.startswith("PASS") for line in lines)
    failed = [line for line in lines if line.startswith("FAIL")]
    if rc != 0 or failed:
        raise CheckFailed(f"verify exited {rc}: {failed[:1]}")
    if passed < min_checks:
        raise CheckFailed(f"verify ran {passed} checks, at least {min_checks} expected")
    return 0.0
