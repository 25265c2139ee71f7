"""Independent ground truth: closed-form thermal ledgers and a dense propagator.

Everything here is derivable with pencil and paper (geometric sums) or with
a textbook matrix exponential, deliberately sharing no code path with the
stepped integrator it validates: rate_generator writes the generator out
from bath's rate equation instead of taking it from _kernels.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import OttoKilnError, RefrigeratorRegimeError
from .bath import bose_einstein
from .fock import FockDistribution

MAX_DENSE_LEVELS = 64


def analytic_equilibrium_energy(omega, temperature):
    """U = omega / (exp(omega/T) - 1) for the untruncated thermal ladder."""
    return omega * bose_einstein(omega, temperature)


def analytic_equilibrium_entropy(omega, temperature):
    """S = -ln(1-q) - q ln(q) / (1-q) with q = exp(-omega/T).

    S diverges as q -> 1; where q rounds to 1 (omega/T below about 1.1e-16)
    an OttoKilnError is raised.
    """
    q = math.exp(-omega / temperature)
    if q == 0.0:  # zero-temperature limit: pure ground level
        return 0.0
    if q == 1.0:
        raise OttoKilnError(
            f"omega/T = {omega / temperature:.3g} is too small for the equilibrium entropy, "
            "which diverges as omega/T -> 0"
        )
    return -math.log1p(-q) - q * math.log(q) / (1.0 - q)


@dataclass(frozen=True)
class AnalyticCycleLedger:
    """Per-cycle energy account of the fully thermalized four-stroke cycle.

    Endpoint (U, S) pairs: start of hot contact, end of hot contact, after
    expansion, end of cold contact.  Efficiency is the frequency-ratio form,
    obtained from w_eff / q_in by cancelling the shared occupation change.
    """

    omega_c: float
    omega_h: float
    t_c: float
    t_h: float
    q_in: float
    q_out: float
    w_out: float
    w_in: float
    w_eff: float
    efficiency: float
    u_a: float
    s_a: float
    u_b: float
    s_b: float
    u_c: float
    s_c: float
    u_d: float
    s_d: float


def analytic_cycle_thermal_balance(omega_c, omega_h, t_c, t_h):
    """Closed-form ledger when both isochores reach their bath equilibrium."""
    if not (0 < omega_c < omega_h):
        raise OttoKilnError(f"need 0 < omega_c < omega_h, got {omega_c}, {omega_h}")
    if not (0 < t_c < t_h):
        raise OttoKilnError(f"need 0 < t_c < t_h, got {t_c}, {t_h}")
    n_h = bose_einstein(omega_h, t_h)
    n_c = bose_einstein(omega_c, t_c)
    if n_h < n_c:
        raise RefrigeratorRegimeError(
            f"hot-contact occupation {n_h:.6g} below cold-contact {n_c:.6g}; "
            "the cycle would run as a refrigerator"
        )
    s_hot = analytic_equilibrium_entropy(omega_h, t_h)
    s_cold = analytic_equilibrium_entropy(omega_c, t_c)
    return AnalyticCycleLedger(
        omega_c=omega_c,
        omega_h=omega_h,
        t_c=t_c,
        t_h=t_h,
        q_in=omega_h * (n_h - n_c),
        q_out=omega_c * (n_h - n_c),
        w_out=(omega_h - omega_c) * n_h,
        w_in=(omega_h - omega_c) * n_c,
        w_eff=(omega_h - omega_c) * (n_h - n_c),
        efficiency=1.0 - omega_c / omega_h,
        u_a=omega_h * n_c,
        s_a=s_cold,
        u_b=omega_h * n_h,
        s_b=s_hot,
        u_c=omega_c * n_h,
        s_c=s_hot,
        u_d=omega_c * n_c,
        s_d=s_cold,
    )


def rate_generator(params, n_max):
    """Dense generator G of the rate equation on levels 0..n_max: column n
    holds the rates out of level n, down 2 gamma n and up 2 gamma b (n + 1)
    (zero from the top level), and -(down + up) on the diagonal."""
    levels = np.arange(n_max + 1, dtype=np.float64)
    down = 2.0 * params.gamma * levels
    up = 2.0 * params.gamma * params.boltz_factor * (levels + 1.0)
    up[-1] = 0.0
    return np.diag(-(down + up)) + np.diag(down[1:], 1) + np.diag(up[:-1], -1)


def _norm1(matrix):
    """The matrix 1-norm (largest absolute column sum): the reductions
    np.linalg.norm(matrix, 1) runs, bit for bit, without its dispatch."""
    return np.maximum.reduce(np.add.reduce(np.abs(matrix), axis=0))


def _expm(matrix):
    """Scaling-and-squaring matrix exponential with a fixed-degree Taylor
    kernel.

    The matrix is scaled by 2^-s until its 1-norm is at most 1/2, where the
    degree-16 Taylor polynomial is off by at most about 0.5^17/17! = 2e-20.
    The polynomial is evaluated by Paterson-Stockmeyer: X^2, X^3 and X^4,
    then Horner in X^4 over four blocks of four terms, six products in all.
    Squaring a nonnegative propagator s times involves no cancellation.
    """
    norm = _norm1(matrix)
    squarings = max(0, int(math.ceil(math.log2(norm / 0.5)))) if norm > 0.5 else 0
    x = matrix / (2.0 ** squarings)
    square = x @ x
    powers = (np.eye(matrix.shape[0]), x, square, square @ x)
    fourth = square @ square
    result = fourth / math.factorial(16)
    for first in (12, 8, 4, 0):
        result += sum(power / math.factorial(first + i) for i, power in enumerate(powers))
        if first:
            result = result @ fourth
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the caller's sum check
        for _ in range(squarings):
            result = result @ result
    return result


def propagate_matrix_exponential(dist, params, duration):
    """Exact finite-ladder propagation: expm(G * duration) applied to P(0)."""
    n_max = dist.n_max
    if n_max > MAX_DENSE_LEVELS:
        raise OttoKilnError(
            f"dense propagation supports n_max <= {MAX_DENSE_LEVELS}, got {n_max}"
        )
    if not math.isfinite(duration):
        raise OttoKilnError(f"duration must be finite, got {duration}")
    if duration < 0:
        raise OttoKilnError(f"duration must be non-negative, got {duration}")
    if duration == 0:
        return dist
    propagator = _expm(rate_generator(params, n_max) * duration)
    probs = propagator @ dist.probs
    total = probs.sum()
    if not abs(total - 1.0) <= 1e-12:  # a NaN sum fails too
        raise OttoKilnError(f"propagator lost probability: sum {float(total)!r}")
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    return FockDistribution(probs)
