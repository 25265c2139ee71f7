"""Performance figures: efficiency, power, thermodynamic limits, sweeps.

The efficiency-power sweep walks the frequency ratio omega_c/omega_h at
fixed bath temperatures and returns a Sweep: one numpy column per field,
rows sorted by (t_h, ratio).  A balance sweep (no engine config) assumes
complete thermalization on both isochores, where the ledger is available in
closed form; the whole grid is evaluated at once, bit for bit equal to the
scalar oracle analytic_cycle_thermal_balance, which stays the cross-check
and raises the error of the first invalid point.  A finite sweep, given an
engine config, runs the stepped engine per point instead, ledger only (no
samples, one map per bath stroke), and flags non-converged runs.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .bath import bose_einstein
from .exceptions import OttoKilnError, UndefinedEfficiencyError
from .oracle import analytic_cycle_thermal_balance, analytic_equilibrium_entropy
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


SWEEP_COLUMNS = ("t_h", "ratio", "efficiency", "power", "converged")


@dataclass(frozen=True, eq=False)
class Sweep:
    """Sweep result as five equal-length columns, sorted by (t_h, ratio).

    Iterating or indexing yields SweepPoint rows, so code that reads the
    points one at a time reads a Sweep like a list of points.
    """

    t_h: np.ndarray
    ratio: np.ndarray
    efficiency: np.ndarray
    power: np.ndarray
    converged: np.ndarray

    @classmethod
    def sorted(cls, *columns):
        """Columns in SWEEP_COLUMNS order, rows put in (t_h, ratio) order;
        rows with equal keys keep their input order."""
        order = np.lexsort((columns[1], columns[0]))
        return cls(*(np.asarray(column)[order] for column in columns))

    def __len__(self):
        return self.t_h.shape[0]

    def __iter__(self):
        return map(SweepPoint, *(getattr(self, name).tolist() for name in SWEEP_COLUMNS))

    def __getitem__(self, index):
        return SweepPoint(*(getattr(self, name)[index].item() for name in SWEEP_COLUMNS))


def default_ratio_grid(t_c, t_h, steps=99):
    """Uniform ratios on (t_c/t_h + 0.01, 0.99), avoiding both power zeros."""
    lo = t_c / t_h + 0.01
    if lo >= 0.99:
        raise OttoKilnError(f"no engine window between t_c={t_c} and t_h={t_h}")
    return np.linspace(lo, 0.99, steps)


def _require_ratio(ratio):
    if not 0.0 < ratio < 1.0:
        raise OttoKilnError(f"frequency ratio must lie in (0, 1), got {ratio}")


def _balance_columns(omega_c, t_c, t_h, ratio, tau):
    """Efficiency, power and converged columns of the fully thermalized cycle.

    The closed-form ledger of analytic_cycle_thermal_balance over the whole
    grid, with the same floating-point operations, so every value equals the
    scalar ledger's bit for bit; n_h maps math.exp/math.expm1 over the grid
    as bose_einstein does (numpy's exp differs from libm in the last bit).
    ok marks the points the scalar ledger accepts.  If any is rejected, the
    first in input order goes through the scalar ledger, which raises.
    """
    try:  # the scalar ledger rejects every point unless the cold-bath figures are defined
        n_c = bose_einstein(omega_c, t_c)
        analytic_equilibrium_entropy(omega_c, t_c)
    except OttoKilnError:
        n_c = math.nan
    ok = (ratio > 0.0) & (ratio < 1.0) & math.isfinite(n_c)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        omega_h = omega_c / ratio
        neg_x = np.where(ok, -(omega_h / t_h), -1.0).tolist()
        q_h = np.array(list(map(math.exp, neg_x)))
        n_h = q_h / -np.array(list(map(math.expm1, neg_x)))
    # where bose_einstein raises, n_h is not finite; where the hot entropy raises, q_h is 1
    ok &= (omega_c < omega_h) & np.isfinite(n_h) & (q_h != 1.0) & ~(n_h < n_c)
    bad = np.flatnonzero(~ok)
    if bad.size:
        i = int(bad[0])
        _require_ratio(float(ratio[i]))
        analytic_cycle_thermal_balance(omega_c, float(omega_h[i]), t_c, float(t_h[i]))
    efficiency = 1.0 - omega_c / omega_h
    power = (omega_h - omega_c) * (n_h - n_c) / (4.0 * tau)
    return efficiency, power, np.ones(ratio.shape, dtype=bool)


def sweep_efficiency_power(t_c, t_h_list, ratio_grid=None, tau=2.0, *, omega_c=1.0,
                           engine_config=None, ratio_steps=99):
    """Efficiency and power per (t_h, ratio) point, as a Sweep.

    ratio_grid=None uses the default grid of ratio_steps points per hot
    temperature.  Power is w_eff over the four-stroke cycle time 4*tau.
    Without engine_config the sweep is in balance: the closed-form ledger
    over the whole grid at once.  Given an EngineConfig, the sweep is finite:
    it is rerun per point, in input order, as an otto run (omega_c/omega_h,
    t_c/t_h and tau overridden), and points whose final cycle-start shift is
    not below the cyclostationarity threshold (EngineTrace.converged) are
    flagged converged=False.
    """
    t_h_parts, ratio_parts = [np.zeros(0)], [np.zeros(0)]
    for t_h in t_h_list:
        if not t_h > t_c:
            raise OttoKilnError(f"hot temperature {t_h} must exceed t_c={t_c}")
        grid = default_ratio_grid(t_c, t_h, ratio_steps) if ratio_grid is None else np.asarray(ratio_grid, dtype=float)
        ratio_parts.append(grid)
        t_h_parts.append(np.full(grid.shape, float(t_h)))
    t_h, ratio = np.concatenate(t_h_parts), np.concatenate(ratio_parts)
    if engine_config is None:
        return Sweep.sorted(t_h, ratio, *_balance_columns(omega_c, t_c, t_h, ratio, tau))

    efficiency, power, converged = [], [], []
    for point_t_h, point_ratio in zip(t_h.tolist(), ratio.tolist()):
        _require_ratio(point_ratio)
        cfg = replace(engine_config, mode="otto", omega_c=omega_c, omega_h=omega_c / point_ratio,
                      t_c=t_c, t_h=point_t_h, tau=tau)
        trace = run_engine(cfg, ledger_only=True)
        record = trace.final_record
        efficiency.append(efficiency_or_nan(record))
        power.append(cycle_power(record, trace.cycle_time))
        converged.append(trace.converged())
    return Sweep.sorted(t_h, ratio, np.array(efficiency, dtype=float),
                        np.array(power, dtype=float), np.array(converged, dtype=bool))
