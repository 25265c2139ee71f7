"""Performance figures: efficiency, power, thermodynamic limits, sweeps.

The efficiency-power sweep walks the frequency ratio omega_c/omega_h at
fixed bath temperatures.  In the default "balance" mode each point assumes
complete thermalization on both isochores, where the ledger is available in
closed form (oracle module); the "finite" mode runs the stepped engine per
point instead and flags non-converged runs.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import OttoKilnError, UndefinedEfficiencyError
from .oracle import analytic_cycle_thermal_balance
from .cycle import run_engine

Q_IN_EPSILON = 1e-12


def otto_limit(omega_c, omega_h):
    """Ideal steady-cycle efficiency 1 - omega_c/omega_h."""
    if not (omega_c > 0 and omega_h > 0):
        raise OttoKilnError("frequencies must be positive")
    return 1.0 - omega_c / omega_h


def carnot_limit(t_c, t_h):
    """Universal bound 1 - T_c/T_h."""
    if not (0 < t_c < t_h):
        raise OttoKilnError(f"need 0 < t_c < t_h, got {t_c}, {t_h}")
    return 1.0 - t_c / t_h


def cycle_efficiency(record):
    """w_eff over the cycle's energy input.

    Otto cycles divide by q_in (may be negative or exceed the ideal limit
    during transients; q_in ~ 0 raises UndefinedEfficiencyError).  Pump
    cycles divide by the gross pump energy, the full preparation energy of
    the pumped state from the ground level.
    """
    if record.kind == "pump":
        if record.q_pump_gross <= 0.0:
            raise UndefinedEfficiencyError("pump cycle carries no pump energy")
        return record.w_eff / record.q_pump_gross
    if abs(record.q_in) < Q_IN_EPSILON:
        raise UndefinedEfficiencyError(
            f"q_in = {record.q_in!r} is numerically zero; efficiency is undefined"
        )
    return record.w_eff / record.q_in


def efficiency_or_nan(record):
    """cycle_efficiency, or nan where the efficiency is undefined."""
    try:
        return cycle_efficiency(record)
    except UndefinedEfficiencyError:
        return math.nan


def cycle_power(record, total_cycle_time):
    """Net work per unit of total cycle time."""
    if not total_cycle_time > 0:
        raise OttoKilnError(f"cycle time must be positive, got {total_cycle_time}")
    return record.w_eff / total_cycle_time


@dataclass(frozen=True)
class SweepPoint:
    t_h: float
    ratio: float
    efficiency: float
    power: float
    converged: bool = True


def default_ratio_grid(t_c, t_h, steps=99):
    """Uniform ratios on (t_c/t_h + 0.01, 0.99), avoiding both power zeros."""
    lo = t_c / t_h + 0.01
    if lo >= 0.99:
        raise OttoKilnError(f"no engine window between t_c={t_c} and t_h={t_h}")
    return np.linspace(lo, 0.99, steps)


def sweep_efficiency_power(t_c, t_h_list, ratio_grid=None, tau=2.0, *, omega_c=1.0,
                           mode="balance", engine_config=None, convergence_tv=1e-6,
                           ratio_steps=99):
    """One SweepPoint per (t_h, ratio), ordered deterministically.

    ratio_grid=None uses the default grid of ratio_steps points per hot
    temperature.  Power is w_eff over the four-stroke cycle time 4*tau.
    In "finite" mode the engine template engine_config is rerun per point
    (its omega_c/omega_h, t_c/t_h are overridden) and points that fail the
    cyclostationarity threshold are flagged converged=False.
    """
    if mode not in ("balance", "finite"):
        raise OttoKilnError(f"unknown sweep mode {mode!r}")
    if mode == "finite" and engine_config is None:
        raise OttoKilnError("finite-time sweep needs an engine_config template")

    jobs = []
    for t_h in t_h_list:
        if not t_h > t_c:
            raise OttoKilnError(f"hot temperature {t_h} must exceed t_c={t_c}")
        grid = default_ratio_grid(t_c, t_h, ratio_steps) if ratio_grid is None else np.asarray(ratio_grid, dtype=float)
        jobs.extend((float(t_h), float(r)) for r in grid)

    def solve(job):
        t_h, ratio = job
        if not 0.0 < ratio < 1.0:
            raise OttoKilnError(f"frequency ratio must lie in (0, 1), got {ratio}")
        omega_h = omega_c / ratio
        if mode == "balance":
            ledger = analytic_cycle_thermal_balance(omega_c, omega_h, t_c, t_h)
            return SweepPoint(t_h, ratio, ledger.efficiency, ledger.w_eff / (4.0 * tau))
        cfg = replace(engine_config, mode="otto", omega_c=omega_c, omega_h=omega_h,
                      t_c=t_c, t_h=t_h, tau=tau)
        trace = run_engine(cfg)
        record = trace.final_record
        return SweepPoint(t_h, ratio, efficiency_or_nan(record), cycle_power(record, trace.cycle_time),
                          converged=trace.converged(convergence_tv))

    points = [solve(job) for job in jobs]
    points.sort(key=lambda p: (p.t_h, p.ratio))
    return points
