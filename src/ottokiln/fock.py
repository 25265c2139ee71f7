"""Truncated oscillator-ladder populations and their scalar functionals.

Units throughout the package: hbar = k_B = 1, energies in units of the
cold-stage quantum (omega_c = 1 defines the energy scale), level energies
E_n = n * omega with the ground level at zero.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import OttoKilnError, UnderTruncationError

DEFAULT_N_MAX = 50
TAIL_TOLERANCE = 1e-9
_SUM_TOL = 1e-12


@dataclass(frozen=True)
class FockDistribution:
    """Probability vector over ladder levels 0..n_max, n_max = len(probs) - 1.

    probs is a non-empty vector whose entries are non-negative and sum to one
    within 1e-12; the top entry acts as the truncation sentinel (see
    tail_mass).
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=np.float64)  # own copy, then freeze
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or probs.shape[0] == 0:
            raise OttoKilnError(f"probs must be a non-empty vector, got shape {probs.shape}")
        if probs.min() < 0.0:
            raise OttoKilnError(f"negative probability {probs.min()} at level {int(probs.argmin())}")
        total = probs.sum()
        if not abs(total - 1.0) <= _SUM_TOL:  # also rejects nan
            raise OttoKilnError(f"probabilities sum to {float(total)!r}, not 1 within {_SUM_TOL}")

    @property
    def n_max(self):
        return self.probs.shape[0] - 1

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
    temperature).  Building a spec (dataclasses.replace too) checks its kind
    and the fields that kind reads, raising OttoKilnError.  A gaussian whose
    references are both None is unresolved: parse_config fills in omega_h and
    t_h, and make_distribution refuses it.
    """

    kind: str
    level: int = 0
    count: int = 0
    center: int = 0
    omega_ref: float = None
    temperature_ref: float = None
    omega: float = 0.0
    temperature: float = 0.0

    def __post_init__(self):
        if self.kind not in ("ground", "level", "equal_lowest", "gaussian", "boltzmann"):
            raise OttoKilnError(f"unknown initial-state kind {self.kind!r}")
        if self.kind == "level" and self.level < 0:
            raise OttoKilnError(f"level must be >= 0, got {self.level}")
        if self.kind == "equal_lowest" and self.count < 1:
            raise OttoKilnError(f"equal_lowest needs at least one level, got {self.count}")
        if self.kind == "gaussian":
            if self.center < 0:
                raise OttoKilnError(f"gaussian center must be >= 0, got {self.center}")
            refs = (self.omega_ref, self.temperature_ref)
            if refs != (None, None) and not _positive_finite(*refs):
                raise OttoKilnError("gaussian reference frequency and temperature must be positive and finite")
        if self.kind == "boltzmann" and not _positive_finite(self.omega, self.temperature):
            raise OttoKilnError("boltzmann frequency and temperature must be positive and finite")

    @classmethod
    def ground(cls):
        return cls(kind="ground")

    @classmethod
    def single_level(cls, level):
        return cls(kind="level", level=level)

    @classmethod
    def equal_lowest(cls, count):
        return cls(kind="equal_lowest", count=count)

    @classmethod
    def gaussian(cls, center, omega_ref, temperature_ref):
        return cls(kind="gaussian", center=center, omega_ref=omega_ref, temperature_ref=temperature_ref)

    @classmethod
    def boltzmann(cls, omega, temperature):
        return cls(kind="boltzmann", omega=omega, temperature=temperature)


def _positive_finite(*values):
    return all(value is not None and 0 < value < np.inf for value in values)


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
        if spec.omega_ref is None:
            raise OttoKilnError("a gaussian needs a positive, finite reference frequency and temperature; "
                                "build it with InitialStateSpec.gaussian(center, omega_ref, temperature_ref)")
        x = (np.arange(n) - spec.center) * min(spec.omega_ref / spec.temperature_ref, 28.0)  # exp(-28 ** 2) is 0
        probs = np.exp(-x * x)
    else:  # boltzmann
        probs = np.exp(-min(spec.omega / spec.temperature, 746.0) * np.arange(n))  # exp(-746 n) is 0 for n >= 1
    probs /= probs.sum()
    dist = FockDistribution(probs)
    dist.require_tail(tail_tolerance)
    return dist


def internal_energy(dist, omega):
    """U = sum_n n * omega * P_n (ground level at zero energy)."""
    return omega * mean_occupation(dist)


def mean_occupation(dist):
    return float(np.arange(dist.probs.shape[0]) @ dist.probs)


def entropy(dist):
    """Population entropy -sum P_n ln P_n in units of k_B, with 0 ln 0 = 0."""
    positive = dist.probs[dist.probs > 0.0]
    return float(-(positive @ np.log(positive)))


def total_variation(dist_a, dist_b):
    """TV distance: half the L1 difference of the two probability vectors."""
    return 0.5 * float(np.abs(dist_a.probs - dist_b.probs).sum())
