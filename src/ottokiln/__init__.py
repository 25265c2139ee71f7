"""Quantum Otto heat-engine simulator on a truncated oscillator ladder.

Populations of the oscillator levels evolve under a detailed-balance
birth-death rate equation during bath contact and are frozen during
frequency ramps; cycles are booked with the first-law ledger (heat in/out,
work in/out, net work), including a single-bath pump-driven variant.
"""

__version__ = "0.1.0"

from .exceptions import (
    ConfigError,
    IntegrationError,
    OttoKilnError,
    RefrigeratorRegimeError,
    UnderTruncationError,
    UndefinedEfficiencyError,
)
from .fock import (
    FockDistribution,
    InitialStateSpec,
    entropy,
    internal_energy,
    make_distribution,
    mean_occupation,
    total_variation,
)
from .bath import (
    BathStroke,
    RateParams,
    Trajectory,
    bose_einstein,
    default_time_step,
    evolve_isochoric,
    rate_derivative,
    stationary_distribution,
)
from .cycle import (
    CycleRecord,
    EngineTrace,
    pump_populations,
    run_cycles,
    run_engine,
)
from .analysis import (
    Sweep,
    SweepPoint,
    carnot_limit,
    cycle_efficiency,
    cycle_power,
    otto_limit,
    sweep_efficiency_power,
)
from .oracle import (
    AnalyticCycleLedger,
    analytic_cycle_thermal_balance,
    analytic_equilibrium_energy,
    analytic_equilibrium_entropy,
    propagate_matrix_exponential,
    rate_generator,
)
from .config import EngineConfig, load_config, parse_config
