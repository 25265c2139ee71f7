"""Fixed-step propagation of ladder populations.

One step of the classical fourth-order scheme applied to the linear
birth-death generator G is the matrix ``R = I + A + A^2/2 + A^3/6 + A^4/24``
with ``A = dt * G``.  generator_matrix writes G, the package's one copy of
the rate equation outside the oracle's independent rate_generator.  A
stroke builds R once and moves from sample to sample with powers of R, so
its cost scales with the number of samples, not the number of steps.  A
StepMatrix holds R and its powers; bath.BathStroke builds one per stroke
and hands it to every evolve_populations call of that stroke.

The per-step guards (probability-sum drift, a negativity floor) become checks
on R made once per stroke: an entrywise non-negative R with unit column sums
keeps every step positive and conserving.  When R fails either check (an
unstable dt), the stepwise loop runs instead: it guards every step in full
and names the first bad step.

Every power of R that a StepMatrix hands out is divided by its column sums
once, so it conserves probability within a few ulps.  Undivided, the column
sums of a power drift from 1 by rounding that grows with the power: the
np.linalg.matrix_power R^1,786,977, the stride of the default 64-sample hot
stroke at gamma0 = 2000, tau = 20, drifts 1.09e-10, past DRIFT_TOL.  A power
of a stable R is non-negative as well, so a stable stroke's samples can trip
a guard only on NaN or on a start state that is off the simplex.

A stable stroke's samples move in blocks, each written straight into its
output rows and renormalized before a later block reads it.  The first
block is sample 1, the start moved on by R^stride.  On at most
DOUBLING_MAX_LEVELS levels the blocks after it double: once samples 1..m
are known, samples m+1..2m are those m samples moved on by m strides, one
matrix product of the m rows with R^(m stride), so the samples before the
last take about log2(samples) products.  Above the cap each block is the
one sample before, moved on by R^stride: one Python step per sample.  The
last sample is the one before, moved on by the ragged rest
R^(n_steps - (last - 1) stride).
The doubling powers are R^(2 stride) = (R^stride)^2 and on by squaring,
each square divided by its column sums once, and kept under their own
keys.  A default simulate from the ground state reaches a cycle start that
repeats bit for bit at cycle 12 (counted from 0) under either block rule,
and cycle.run_cycles copies the cycles after it.

One pass after the last block checks samples 1..last and names the first
bad one: its sum taken before renormalizing drifted past DRIFT_TOL (a NaN
sum too), or it holds an entry below -NEG_FLOOR, which a stable R reaches
only from a start state below the floor; a sample that fails both names the
drift.  Then one np.maximum over the samples turns -0.0 into 0.0: a product
of non-negative numbers can be -0.0 but never below, so that is all a clamp
per sample could do.

A stroke recorded at its two ends only (every BathStroke.end_state) is the
first block alone, the start moved on by R^n_steps, and runs without the
loop: one product, then the pass's checks and clamp in the pass's order,
with the drift raised before the sample is divided by its sum, so a zero or
NaN start warns of nothing.  The loop's fixed cost was about 20 of the
30 us of an end_state at 51 levels (2-core x86, numpy 2.4).

evolve_populations runs a stable R on the sampled path, as the one jump on
two samples, and an unstable one on the stepwise loop.  A trip on any
raises IntegrationError with the guard's text and the step it names.
"""

import numpy as np

from .exceptions import IntegrationError

# Guards; values are contractual for the integrator.
DRIFT_TOL = 1e-10
NEG_FLOOR = 1e-12
# Most levels of a stroke sampled in doubling blocks; larger strokes move one
# stride per block.  Doubling saves a Python step of about 6 us per sample
# and pays one dense n_levels^3 product per doubling power, built once per
# stroke.  A fresh stroke of the default 64 samples, evolved once, took
# 0.65 ms by doubling and 0.71 ms by jumps at 80 levels, 1.10 and 0.99 ms at
# 96, and 2.58 and 2.03 ms at 128; a traced 2-cycle run at n_max = 1000 took
# 2.9 s by doubling and 1.9 s by jumps (2-core x86, numpy 2.4, OpenBLAS).
DOUBLING_MAX_LEVELS = 80

# The guards' trip signals (None: no trip), each the text of the error a
# final trip raises, with the bad step and dt left to fill in.
_DRIFT = f"probability sum drifted beyond {DRIFT_TOL:.0e} at step {{step}} (dt={{dt:.3e}}); reduce the time step"
_NEGATIVE = f"probability below -{NEG_FLOOR:.0e} at step {{step}} (dt={{dt:.3e}}); the step size is unstable"
_NEGATIVE_START = (f"probability below -{NEG_FLOOR:.0e} at step {{step}} (dt={{dt:.3e}}); "
                   "the start state holds a negative population")


def generator_matrix(gamma, boltz_factor, n_levels):
    """Dense generator G of the ladder's rate equation, columns summing to
    zero (G[m, n] = rate n->m): the one generator in the package that the
    integrator, bath.rate_derivative and verify's generator checks read.

    Level n emits at down[n] = 2*Gamma*n and absorbs at up[n] =
    2*Gamma*boltz*(n+1).  The top level's upward rate is zeroed (reflecting
    truncation), which keeps the generator exactly probability conserving.
    """
    levels = np.arange(n_levels, dtype=np.float64)
    down = 2.0 * gamma * levels
    up = 2.0 * gamma * boltz_factor * (levels + 1.0)
    up[-1] = 0.0
    g = np.zeros((n_levels, n_levels))
    idx = np.arange(n_levels - 1)
    g[idx, idx + 1] = down[1:]
    g[idx + 1, idx] = up[:-1]
    g[idx + 1, idx + 1] -= down[1:]
    g[idx, idx] -= up[:-1]
    return g


def rk4_step_matrix(generator, dt):
    """One-step update matrix of the classical fourth-order scheme for the
    generator at step dt.

    A rate too large for dt overflows R to inf/nan (StepMatrix builds it
    without a warning); such an R fails step_matrix_is_stable and its first
    step trips a guard."""
    a = generator * dt
    n = a.shape[0]
    r = np.eye(n) + a
    term = a
    for k in (2.0, 3.0, 4.0):
        term = term @ a / k
        r += term
    return r


def _guard(p, max_drift):
    """Drift and negativity checks on one state, then clamp and renormalize
    it in place.  Returns (trip, max_drift).

    One sum and one min: the clamp can change p only when an entry is <= 0
    (it turns -0.0 into 0.0), so only then is the sum taken again.  A NaN
    state fails the drift check."""
    total = float(np.add.reduce(p))
    drift = abs(total - 1.0)
    max_drift = max(max_drift, drift)
    if not drift <= DRIFT_TOL:
        return _DRIFT, max_drift
    low = np.minimum.reduce(p)
    if low < -NEG_FLOOR:
        return _NEGATIVE, max_drift
    if low <= 0.0:
        np.maximum(p, 0.0, out=p)
        total = np.add.reduce(p)
    p /= total
    return None, max_drift


def _evolve_stepwise(p, r, n_steps, stride, out):
    """Reference loop: one step at a time, guards checked after every step.
    Returns (trip, step, max_drift): step is the first bad step, or n_steps."""
    out[0] = p
    idx = 1
    max_drift = 0.0
    for k in range(1, n_steps + 1):
        p = r @ p
        trip, max_drift = _guard(p, max_drift)
        if trip:
            return trip, k, max_drift
        if k % stride == 0 or k == n_steps:
            out[idx] = p
            idx += 1
    return None, n_steps, max_drift


def _evolve_sampled(p, step_matrix, n_steps, stride, out):
    """Jump from sample to sample in blocks, then check the samples once
    (see the module docstring).  Returns (trip, step, max_drift): step is the
    bad sample's step, or n_steps."""
    out[0] = p
    last = out.shape[0] - 1
    doubles = out.shape[1] <= DOUBLING_MAX_LEVELS
    totals = np.empty(last + 1)
    known = 0  # samples 1..known are in out, renormalized
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero or NaN sum is reported below
        while known < last:
            if doubles and 0 < known < last - 1:
                block, source, power = min(known, last - 1 - known), 1, step_matrix.doubling(stride, known)
            else:
                block, source = 1, known
                power = step_matrix[stride if known < last - 1 else n_steps - (last - 1) * stride]
            rows = slice(known + 1, known + 1 + block)
            np.matmul(out[source:source + block], power.T, out=out[rows])
            out[rows] /= np.add.reduce(out[rows], axis=1, out=totals[rows])[:, None]
            known += block
    drifts = np.abs(totals[1:] - 1.0)
    drifted = ~(drifts <= DRIFT_TOL)  # a NaN sum drifts too
    bad = np.flatnonzero(drifted | (np.minimum.reduce(out[1:], axis=1) < -NEG_FLOOR))
    if bad.size:
        first = int(bad[0])
        trip = _DRIFT if drifted[first] else _NEGATIVE_START
        return trip, min((first + 1) * stride, n_steps), float(drifts[:first + 1].max())
    np.maximum(out[1:], 0.0, out=out[1:])
    return None, n_steps, float(drifts.max())


def step_matrix_is_stable(r):
    """True when the step matrix keeps every step positive and conserving:
    R is entrywise non-negative and its column sums are 1 within DRIFT_TOL."""
    return r.min() >= 0.0 and np.abs(r.sum(axis=0) - 1.0).max() <= DRIFT_TOL


class StepMatrix(dict):
    """A stroke's step matrix R at step dt, whether it passes
    step_matrix_is_stable, and its powers, each built at its first use and
    divided by its column sums once: step_matrix[gap] is R^gap, and
    step_matrix.doubling(stride, m) the doubling power R^(m stride)."""

    def __init__(self, gamma, boltz_factor, n_levels, dt):
        self.dt = float(dt)
        with np.errstate(over="ignore", invalid="ignore"):
            self.r = rk4_step_matrix(generator_matrix(gamma, boltz_factor, n_levels), self.dt)
        self.stable = step_matrix_is_stable(self.r)

    def __missing__(self, key):
        if isinstance(key, tuple):  # ("doubling", stride, m): the square of the power at m / 2
            _, stride, m = key
            half = self.doubling(stride, m // 2)
            power = half @ half
        else:
            power = np.linalg.matrix_power(self.r, key)
        # out of place: matrix_power(r, 1) is r itself, which must stay undivided
        jump = self[key] = power / np.add.reduce(power, axis=0)
        return jump

    def doubling(self, stride, m):
        """R^(m stride) for m a power of two: R^stride at m = 1, then each
        square of the one before divided by its column sums once (see the
        module docstring)."""
        return self[stride] if m == 1 else self["doubling", stride, m]


def sample_count(n_steps, stride):
    """Number of rows recorded by evolve_populations (endpoints always kept)."""
    return -(-n_steps // stride) + 1


def sample_steps(n_steps, stride):
    """Step indices recorded by evolve_populations."""
    return np.append(np.arange(0, n_steps, stride, dtype=np.int64), n_steps)


def _evolve_jump(p, step_matrix, n_steps, out):
    """The sampled path of a stroke recorded at its two ends only: its one
    block, R^n_steps, checked in the block loop's order, with no loop around
    it.  Returns (trip, step, max_drift): step is n_steps."""
    out[0] = p
    end = np.matmul(step_matrix[n_steps], p, out=out[1])
    total = np.add.reduce(end)
    drift = float(abs(total - 1.0))
    if not drift <= DRIFT_TOL:  # a NaN sum drifts too; raised before dividing, so a zero sum warns of nothing
        return _DRIFT, n_steps, drift
    end /= total
    if np.minimum.reduce(end) < -NEG_FLOOR:
        return _NEGATIVE_START, n_steps, drift
    np.maximum(end, 0.0, out=end)
    return None, n_steps, drift


def evolve_populations(p0, step_matrix, n_steps, stride):
    """Step the population vector n_steps times with the stroke's StepMatrix,
    recording every stride-th state.

    Returns (samples, max_drift): samples has sample_count rows (initial
    state first, final state last); max_drift is the largest |sum - 1| a
    guard saw before renormalizing, per sample or, stepwise, per step.  A
    guard trip raises IntegrationError.
    """
    out = np.empty((sample_count(n_steps, stride), len(p0)))
    if not step_matrix.stable:
        trip, bad_step, max_drift = _evolve_stepwise(p0, step_matrix.r, n_steps, stride, out)
    elif len(out) == 2:
        trip, bad_step, max_drift = _evolve_jump(p0, step_matrix, n_steps, out)
    else:
        trip, bad_step, max_drift = _evolve_sampled(p0, step_matrix, n_steps, stride, out)
    if trip:
        raise IntegrationError(trip.format(step=bad_step, dt=step_matrix.dt))
    return out, max_drift
