"""Seeded inputs and fixed command batches for the benchmark workloads.

A workload is one batch of ``ottokiln`` CLI commands, repeated for the
measured time.  The seed picks config values only; it never changes how much
work a batch does (integrator steps, cycles, sweep points and rows written are
the same on every seed), so runs on different seeds are comparable.

Every generated point stays in the engine regime: each sweep ratio lies above
``t_c / t_h`` of every hot temperature, otherwise balance mode raises
``RefrigeratorRegimeError``.
"""

import random
from dataclasses import dataclass, field

# The default working point, stated in every config so that the reference
# checks read all parameters from the config.
BASE = {"omega_c": 1.0, "t_c": 0.4, "gamma0": 0.5, "n_max": 50}
ENGINE = {**BASE, "omega_h": 1.5, "t_h": 1.2, "tau": 2.0, "n_cycles": 20}
PUMP_STROKES = {"tau_bc": 1.0, "tau_cd": 5.0, "tau_db": 1.0}

# finite_sweep pins dt so that the step count per stroke (tau / dt = 1600) does
# not depend on the seeded hot frequency.  dt stays below the default
# resolution 1 / (40 * gamma * (n_max + 1)) for every generated point:
# gamma <= 0.98 needs omega_h / t_h >= 0.713, and omega_h >= 1 / 0.95, t_h <= 1.4.
FINITE_TAU = 0.8
FINITE_DT = 5e-4
FINITE_CYCLES = 4
FINITE_RATIOS = 4
FINITE_TH = 2

BALANCE_RATIOS = 12_500
BALANCE_TH = 4
BALANCE_TAU = 2.0

MIN_VERIFY_CHECKS = 10


@dataclass
class Command:
    """One CLI call: subcommand, extra flags, config values and what it must write."""

    name: str
    flags: list = field(default_factory=list)
    config: dict = None  # None: run without --config
    cycles: int = 0      # rows expected in cycles.csv / cycles per sweep point
    points: int = 0      # rows expected in sweep.csv

    def config_text(self):
        return "".join(f"{key} = {value}\n" for key, value in self.config.items())


def _state_recipe(rng, allow_ground=True):
    """A start or pump-target recipe that fits far below n_max = 50."""
    kinds = ["level", "boltzmann", "equal_lowest"] + (["ground"] if allow_ground else [])
    kind = rng.choice(kinds)
    if kind == "ground":
        return "ground"
    if kind == "level":
        return f"level:{rng.randint(1, 3)}"
    if kind == "equal_lowest":
        return f"equal_lowest:{rng.randint(2, 4)}"
    # colder than the hot bath, so the first cycle already takes in heat
    return f"boltzmann:1.5:{rng.uniform(0.3, 0.8):.6f}"


def _engine(rng):
    simulate = Command("simulate", ["--svg", "--wide"],
                       {**ENGINE, "initial_state": _state_recipe(rng)},
                       cycles=ENGINE["n_cycles"])
    pump = Command("pump", ["--svg", "--wide"],
                   {**ENGINE, **PUMP_STROKES, "initial_state": _state_recipe(rng),
                    "pump_target": _state_recipe(rng, allow_ground=False)},
                   cycles=ENGINE["n_cycles"])
    return [simulate, pump]


def _finite_sweep(rng):
    t_h = sorted(round(rng.uniform(1.0, 1.4), 6) for _ in range(FINITE_TH))
    config = {
        **BASE,
        "tau": FINITE_TAU,
        "dt": FINITE_DT,
        "n_cycles": FINITE_CYCLES,
        "initial_state": _state_recipe(rng),
        "sweep_mode": "finite",
        "sweep_t_h": ", ".join(str(t) for t in t_h),
        "sweep_ratio_min": round(rng.uniform(0.45, 0.6), 6),
        "sweep_ratio_max": round(rng.uniform(0.8, 0.95), 6),
        "sweep_ratio_steps": FINITE_RATIOS,
    }
    return [Command("sweep", [], config, cycles=FINITE_CYCLES, points=FINITE_TH * FINITE_RATIOS)]


def _balance_sweep(rng):
    t_h = sorted(round(rng.uniform(0.8, 2.0), 6) for _ in range(BALANCE_TH))
    config = {
        **BASE,
        "tau": BALANCE_TAU,
        "sweep_mode": "balance",
        "sweep_t_h": ", ".join(str(t) for t in t_h),
        "sweep_ratio_min": round(rng.uniform(0.52, 0.6), 6),
        "sweep_ratio_max": round(rng.uniform(0.9, 0.98), 6),
        "sweep_ratio_steps": BALANCE_RATIOS,
    }
    return [Command("sweep", ["--svg"], config, points=BALANCE_TH * BALANCE_RATIOS)]


def _verify(_rng):
    return [Command("verify")]


WORKLOADS = {
    "engine": _engine,
    "finite_sweep": _finite_sweep,
    "balance_sweep": _balance_sweep,
    "verify": _verify,
}


def build(name, seed):
    """The workload's command batch for this seed."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
