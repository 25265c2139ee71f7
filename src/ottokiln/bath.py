"""Time evolution of ladder populations in contact with a thermal bath.

The birth-death rate equation for the populations reads

    dP_n/dt = -2 n Gamma P_n + 2 (n+1) Gamma P_{n+1}
              - 2 Gamma exp(-omega/T) [ -n P_{n-1} + (n+1) P_n ]

with Gamma = gamma0 * (n_BE + 1).  The exp(-omega/T) factor enforces
detailed balance, so the thermal (geometric) distribution is stationary.
Integration uses a fixed-step fourth-order scheme (see _kernels) with
conservation and positivity guards.  A BathStroke fixes one stroke's step
count and step matrix; its trajectory samples the stroke, and its end_state
jumps straight to the end.  evolve_isochoric is a one-off stroke's trajectory.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .exceptions import IntegrationError, OttoKilnError
from .fock import FockDistribution, InitialStateSpec, TAIL_TOLERANCE, make_distribution


def bose_einstein(omega, temperature):
    """Equilibrium mean occupation 1 / (exp(omega/T) - 1).

    Evaluated as exp(-x) / (1 - exp(-x)), which is accurate for small x and
    underflows cleanly to 0 in the frozen-bath limit x -> infinity.  An x
    that underflows to 0, or so close to it that 1/x overflows, has no finite
    occupation and raises.
    """
    if not (omega > 0 and temperature > 0):
        raise OttoKilnError("bose_einstein requires positive frequency and temperature")
    x = omega / temperature
    n_be = math.exp(-x) / -math.expm1(-x) if x > 0.0 else math.inf
    if not math.isfinite(n_be):
        raise OttoKilnError(
            f"omega/T = {omega!r}/{temperature!r} is too small for a finite bath occupation"
        )
    return n_be


@dataclass(frozen=True)
class RateParams:
    """Frozen per-stroke coupling: the oscillator at frequency omega against
    a bath at temperature with bare relaxation constant gamma0.

    gamma = gamma0 * (n_BE + 1) and boltz_factor = exp(-omega/T) are derived
    once so every consumer of the stroke uses identical coefficients.
    """

    omega: float
    temperature: float
    gamma0: float
    gamma: float = field(init=False)
    boltz_factor: float = field(init=False)

    def __post_init__(self):
        if not self.omega > 0:
            raise OttoKilnError(f"oscillator frequency must be positive, got {self.omega}")
        if not self.temperature > 0:
            raise OttoKilnError(f"bath temperature must be positive, got {self.temperature}")
        if not self.gamma0 > 0:
            raise OttoKilnError(f"relaxation constant must be positive, got {self.gamma0}")
        n_be = bose_einstein(self.omega, self.temperature)
        object.__setattr__(self, "gamma", self.gamma0 * (n_be + 1.0))
        object.__setattr__(self, "boltz_factor", math.exp(-self.omega / self.temperature))
        if not self.gamma >= self.gamma0:  # equal where n_BE < 1e-16 (omega/T > 36.7)
            raise OttoKilnError("derived gamma must not fall below gamma0")
        if not 0.0 <= self.boltz_factor < 1.0:  # 0 where exp(-omega/T) underflows (omega/T > 745)
            raise OttoKilnError("detailed-balance factor must lie in [0, 1)")


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: times[k] pairs with probs[k] (row per sample).

    max_drift is the largest |sum - 1| the integrator's guards saw before
    renormalizing; final is the last sample as a FockDistribution.
    """

    times: np.ndarray
    probs: np.ndarray
    sample_stride: int
    max_drift: float
    final: FockDistribution = field(init=False, repr=False)

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise OttoKilnError("trajectory times must be strictly increasing")
        object.__setattr__(self, "final", FockDistribution(self.probs[-1]))

    def __len__(self):
        return self.times.shape[0]


def rate_derivative(dist, params):
    """dP_n/dt vector for the current populations under the given coupling."""
    down, up = _kernels.rate_coefficients(params.gamma, params.boltz_factor, dist.n_max + 1)
    return _kernels.derivative(dist.probs, down, up)


def default_time_step(duration, gamma, n_max):
    """Default integrator step: resolves both the stroke and the fastest rate."""
    return min(duration / 1000.0, 1.0 / (40.0 * gamma * (n_max + 1)))


class BathStroke:
    """A bath stroke: the oscillator under params for duration, on n_levels
    levels.  dt (default: default_time_step) is an upper bound on the step,
    and the actual step divides the duration exactly into n_steps.  The
    stroke's StepMatrix is built here, once, so a stroke run more than once
    (each cycle of a run) builds R and its powers once."""

    def __init__(self, params, duration, n_levels, dt=None):
        if not duration > 0:
            raise OttoKilnError(f"duration must be positive, got {duration}")
        if dt is None:
            dt = default_time_step(duration, params.gamma, n_levels - 1)
        elif not dt > 0:
            raise OttoKilnError(f"dt must be positive, got {dt}")
        if dt > duration:
            raise OttoKilnError(f"dt={dt} exceeds duration={duration}")
        # up to 2**53 a float counts steps exactly, and no power of a stable R overflows
        if not (dt > 0.0 and duration / dt <= 2.0 ** 53):  # the default dt underflows near gamma0 = 1e306
            raise IntegrationError(
                f"a stroke of duration {duration} at dt={dt:.3e} has more steps than a float "
                "can count; reduce gamma0 * tau or set dt"
            )
        self.params, self.n_levels = params, n_levels
        self.n_steps = max(1, math.ceil(duration / dt - 1e-12))
        self.step = duration / self.n_steps
        self.step_matrix = _kernels.StepMatrix(params.gamma, params.boltz_factor, n_levels, self.step)

    def _stride(self, sample_stride):
        """sample_stride, or the default of about 64 samples per stroke."""
        if sample_stride is None:
            return max(1, self.n_steps // 64)
        if sample_stride < 1:
            raise OttoKilnError(f"sample_stride must be >= 1, got {sample_stride}")
        return sample_stride

    def sample_count(self, sample_stride=None):
        """Rows of the stroke's trajectory at sample_stride, both ends included."""
        return _kernels.sample_count(self.n_steps, self._stride(sample_stride))

    def _propagate(self, dist, stride, rerun=True):
        if dist.n_max + 1 != self.n_levels:
            raise OttoKilnError(f"a stroke on {self.n_levels} levels cannot run {dist.n_max + 1} levels")
        return _kernels.evolve_populations(dist.probs, self.step_matrix, self.n_steps, stride, rerun)

    def trajectory(self, dist, sample_stride=None, tail_tolerance=TAIL_TOLERANCE):
        """The stroke from dist, sampled every sample_stride steps (default:
        about 64 samples).  Returns a Trajectory whose first/last samples are
        the initial and final states."""
        n_steps, step = self.n_steps, self.step
        sample_stride = self._stride(sample_stride)

        status, bad_step, max_drift, samples = self._propagate(dist, sample_stride)
        if status == _kernels.STATUS_DRIFT:
            raise IntegrationError(
                f"probability sum drifted beyond {_kernels.DRIFT_TOL:.0e} at step {bad_step} "
                f"(dt={step:.3e}); reduce the time step"
            )
        if status == _kernels.STATUS_TOO_LONG:
            raise IntegrationError(
                f"a guard tripped at step {bad_step:.4g} (drift {max_drift:.3g}, limit "
                f"{_kernels.DRIFT_TOL:.0e}) of a stroke of {n_steps:.4g} steps (dt={step:.3e}), too many "
                f"to rerun step by step (limit {_kernels.MAX_STEPWISE_STEPS}); reduce gamma0 * tau or set dt"
            )
        if status == _kernels.STATUS_NEGATIVE:
            raise IntegrationError(
                f"probability below -{_kernels.NEG_FLOOR:.0e} at step {bad_step} "
                f"(dt={step:.3e}); the step size is unstable"
            )

        times = _kernels.sample_steps(n_steps, sample_stride) * step
        traj = Trajectory(times=times, probs=samples, sample_stride=sample_stride, max_drift=max_drift)
        traj.final.require_tail(tail_tolerance)
        return traj

    def end_state(self, dist, tail_tolerance=TAIL_TOLERANCE):
        """(final state, max_drift) of the stroke from dist, by one jump
        R^n_steps.  Where a guard trips, the stroke's default-stride
        trajectory runs it instead (then step by step): it raises the error
        that trajectory raises, or returns the state it reaches."""
        status, _, max_drift, samples = self._propagate(dist, self.n_steps, rerun=False)
        if status != _kernels.STATUS_OK:
            traj = self.trajectory(dist, None, tail_tolerance)
            return traj.final, traj.max_drift
        return FockDistribution(samples[-1]).require_tail(tail_tolerance), max_drift


def evolve_isochoric(dist, params, duration, dt=None, sample_stride=None, tail_tolerance=TAIL_TOLERANCE):
    """Evolve populations at fixed frequency for the given duration: one
    BathStroke's trajectory from dist."""
    return BathStroke(params, duration, dist.n_max + 1, dt).trajectory(dist, sample_stride, tail_tolerance)


def stationary_distribution(omega, temperature, n_max):
    """Thermal fixed point: geometric distribution with ratio exp(-omega/T),
    with no check of its tail mass."""
    return make_distribution(InitialStateSpec.boltzmann(omega, temperature), n_max, tail_tolerance=1.0)
