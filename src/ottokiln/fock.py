"""Truncated oscillator-ladder populations and their scalar functionals.

Units throughout the package: hbar = k_B = 1, energies in units of the
cold-stage quantum (omega_c = 1 defines the energy scale), level energies
E_n = n * omega with the ground level at zero.
"""

from dataclasses import dataclass, field

import numpy as np

from .exceptions import OttoKilnError, UnderTruncationError

DEFAULT_N_MAX = 50
TAIL_TOLERANCE = 1e-9
_SUM_TOL = 1e-12


@dataclass(frozen=True)
class OscillatorSpec:
    """Harmonic oscillator at a fixed angular frequency (per stroke)."""

    omega: float

    def __post_init__(self):
        if not self.omega > 0:
            raise OttoKilnError(f"oscillator frequency must be positive, got {self.omega}")


@dataclass(frozen=True)
class BathSpec:
    """Thermal reservoir: temperature (k_B T) and bare relaxation constant."""

    temperature: float
    gamma0: float

    def __post_init__(self):
        if not self.temperature > 0:
            raise OttoKilnError(f"bath temperature must be positive, got {self.temperature}")
        if not self.gamma0 > 0:
            raise OttoKilnError(f"relaxation constant must be positive, got {self.gamma0}")


@dataclass(frozen=True)
class FockDistribution:
    """Probability vector over ladder levels 0..n_max.

    Entries are non-negative and sum to one within 1e-12; the top entry acts
    as the truncation sentinel (see tail_mass).
    """

    probs: np.ndarray
    n_max: int = field(default=-1)

    def __post_init__(self):
        probs = np.array(self.probs, dtype=np.float64)  # own copy, then freeze
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        if self.n_max < 0:
            object.__setattr__(self, "n_max", probs.shape[0] - 1)
        if probs.shape != (self.n_max + 1,):
            raise OttoKilnError(
                f"probs has {probs.shape[0]} entries but n_max={self.n_max} requires {self.n_max + 1}"
            )
        if probs.min() < 0.0:
            raise OttoKilnError(f"negative probability {probs.min()} at level {int(probs.argmin())}")
        total = probs.sum()
        if not abs(total - 1.0) <= _SUM_TOL:  # also rejects nan
            raise OttoKilnError(f"probabilities sum to {float(total)!r}, not 1 within {_SUM_TOL}")

    @property
    def tail_mass(self):
        return float(self.probs[-1])

    def require_tail(self, tolerance=TAIL_TOLERANCE):
        if self.tail_mass > tolerance:
            raise UnderTruncationError(
                f"top-level occupation {self.tail_mass:.3e} exceeds {tolerance:.1e}; increase n_max"
            )
        return self


@dataclass(frozen=True)
class InitialStateSpec:
    """Recipe for an initial (or pump-target) population distribution.

    Kinds: "ground", "level" (single level n), "equal_lowest" (uniform on the
    k lowest levels), "gaussian" (populations ~ exp(-[(n - center) * omega_ref
    / temperature_ref]^2)), "boltzmann" (thermal at the given frequency and
    temperature).
    """

    kind: str
    level: int = 0
    count: int = 0
    center: int = 0
    omega_ref: float = 0.0
    temperature_ref: float = 0.0
    omega: float = 0.0
    temperature: float = 0.0

    @classmethod
    def ground(cls):
        return cls(kind="ground")

    @classmethod
    def single_level(cls, level):
        if level < 0:
            raise OttoKilnError(f"level must be >= 0, got {level}")
        return cls(kind="level", level=level)

    @classmethod
    def equal_lowest(cls, count):
        if count < 1:
            raise OttoKilnError(f"equal_lowest needs at least one level, got {count}")
        return cls(kind="equal_lowest", count=count)

    @classmethod
    def gaussian(cls, center, omega_ref, temperature_ref):
        if center < 0:
            raise OttoKilnError(f"gaussian center must be >= 0, got {center}")
        if not (0 < omega_ref < np.inf and 0 < temperature_ref < np.inf):
            raise OttoKilnError("gaussian reference frequency and temperature must be positive and finite")
        return cls(kind="gaussian", center=center, omega_ref=omega_ref, temperature_ref=temperature_ref)

    @classmethod
    def boltzmann(cls, omega, temperature):
        if not (0 < omega < np.inf and 0 < temperature < np.inf):
            raise OttoKilnError("boltzmann frequency and temperature must be positive and finite")
        return cls(kind="boltzmann", omega=omega, temperature=temperature)

    def describe(self):
        if self.kind == "ground":
            return "ground"
        if self.kind == "level":
            return f"level:{self.level}"
        if self.kind == "equal_lowest":
            return f"equal_lowest:{self.count}"
        if self.kind == "gaussian":
            return f"gaussian:{self.center}:{self.omega_ref:g}:{self.temperature_ref:g}"
        return f"boltzmann:{self.omega:g}:{self.temperature:g}"


def make_distribution(spec, n_max=DEFAULT_N_MAX, tail_tolerance=TAIL_TOLERANCE):
    """Build the normalized distribution a spec describes on levels 0..n_max."""
    if n_max < 1:
        raise OttoKilnError(f"n_max must be >= 1, got {n_max}")
    n = n_max + 1
    if spec.kind == "ground":
        probs = np.zeros(n)
        probs[0] = 1.0
    elif spec.kind == "level":
        if spec.level > n_max:
            raise UnderTruncationError(f"level {spec.level} does not fit below n_max={n_max}")
        probs = np.zeros(n)
        probs[spec.level] = 1.0
    elif spec.kind == "equal_lowest":
        if spec.count > n_max:
            raise UnderTruncationError(f"equal_lowest({spec.count}) does not fit below n_max={n_max}")
        probs = np.zeros(n)
        probs[: spec.count] = 1.0 / spec.count
    elif spec.kind == "gaussian":
        if spec.center >= n_max:
            raise UnderTruncationError(f"gaussian center {spec.center} must lie below n_max={n_max}")
        x = (np.arange(n) - spec.center) * (spec.omega_ref / spec.temperature_ref)
        probs = np.exp(-x * x)
    elif spec.kind == "boltzmann":
        probs = np.exp(-(spec.omega / spec.temperature) * np.arange(n))
    else:
        raise OttoKilnError(f"unknown initial-state kind {spec.kind!r}")
    probs /= probs.sum()
    dist = FockDistribution(probs, n_max)
    dist.require_tail(tail_tolerance)
    return dist


def _omega_of(osc):
    return osc.omega if isinstance(osc, OscillatorSpec) else float(osc)


def internal_energy(dist, osc):
    """U = sum_n n * omega * P_n (ground level at zero energy)."""
    omega = _omega_of(osc)
    return omega * mean_occupation(dist)


def mean_occupation(dist):
    probs = dist.probs if isinstance(dist, FockDistribution) else np.asarray(dist)
    return float(np.arange(probs.shape[0]) @ probs)


def entropy(dist):
    """Population entropy -sum P_n ln P_n in units of k_B, with 0 ln 0 = 0."""
    probs = dist.probs if isinstance(dist, FockDistribution) else np.asarray(dist)
    positive = probs[probs > 0.0]
    return float(-(positive @ np.log(positive)))


def total_variation(dist_a, dist_b):
    """TV distance: half the L1 difference of the two probability vectors."""
    a = dist_a.probs if isinstance(dist_a, FockDistribution) else np.asarray(dist_a)
    b = dist_b.probs if isinstance(dist_b, FockDistribution) else np.asarray(dist_b)
    return 0.5 * float(np.abs(a - b).sum())
