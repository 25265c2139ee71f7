"""Fixed-step propagation of ladder populations.

One step of the classical fourth-order scheme applied to the linear
birth-death generator G is the matrix ``R = I + A + A^2/2 + A^3/6 + A^4/24``
with ``A = dt * G``.  A stroke builds R once and jumps from recorded sample
to recorded sample with the precomputed power ``R^stride`` (plus one
``R^(n_steps % stride)`` for a ragged last gap), so its cost scales with the
number of samples, not the number of steps.  A StepMatrix holds R and its
powers; bath.BathStroke builds one per stroke and hands it to every
evolve_populations call of that stroke.

The per-step guards (probability-sum drift, a negativity floor) become checks
on R made once per stroke: an entrywise non-negative R with unit column sums
keeps every step positive and conserving.  The drift check stays, made per
sample, followed by renormalization: one sum per sample.  The negativity
check and the clamp (one min, and a second sum only when an entry is <= 0)
run on the first sample only.  After it the state is >= 0, and a stable R
keeps it so: a later product of non-negative numbers can be -0.0 but never
below, so a later clamp could only turn -0.0 into 0.0.  One np.maximum over
the later samples after the loop does that, and every stored bit is the one
a clamp per sample would store.  When R fails either check (an unstable dt),
or a guard trips on a sample, the stroke reruns the stepwise loop, which
guards every step in full and reports the first bad step.  A tripped stroke
longer than MAX_STEPWISE_STEPS is not rerun: it reports STATUS_TOO_LONG
instead.

A caller that needs only the end state (BathStroke.end_state) asks for
stride = n_steps (one jump R^n_steps), and with rerun=False gets a tripped
guard back at once instead.
"""

import numpy as np

# Guards; values are contractual for the integrator.
DRIFT_TOL = 1e-10
NEG_FLOOR = 1e-12
# Longest stroke the stepwise loop reruns after a guard trips on a sample; it
# costs about 8 us per step at 51 levels (2-core x86 box, numpy 2.4,
# OpenBLAS), so this bounds the rerun near 1 s.
MAX_STEPWISE_STEPS = 100_000

# Kernel status codes.
STATUS_OK = 0
STATUS_DRIFT = 1
STATUS_NEGATIVE = 2
STATUS_TOO_LONG = 3  # a guard tripped on a sample of a stroke too long to rerun stepwise


def rate_coefficients(gamma, boltz_factor, n_levels):
    """Downward/upward jump coefficients of the ladder generator.

    down[n] = 2*Gamma*n is the emission rate out of level n, up[n] =
    2*Gamma*boltz*(n+1) the absorption rate out of level n.  The top level's
    upward rate is zeroed (reflecting truncation), which keeps the generator
    exactly probability conserving.
    """
    levels = np.arange(n_levels, dtype=np.float64)
    down = 2.0 * gamma * levels
    up = 2.0 * gamma * boltz_factor * (levels + 1.0)
    up[-1] = 0.0
    return down, up


def derivative(probs, down, up):
    """dP/dt of the birth-death generator, written flux-wise so that the
    components cancel pairwise (vector sum is zero up to rounding)."""
    d = -(down + up) * probs
    d[:-1] += down[1:] * probs[1:]
    d[1:] += up[:-1] * probs[:-1]
    return d


def generator_matrix(down, up):
    """Dense generator G with columns summing to zero (G[m, n] = rate n->m)."""
    n = down.shape[0]
    g = np.zeros((n, n))
    idx = np.arange(n - 1)
    g[idx, idx + 1] = down[1:]
    g[idx + 1, idx] = up[:-1]
    g[idx + 1, idx + 1] -= down[1:]
    g[idx, idx] -= up[:-1]
    return g


def rk4_step_matrix(down, up, dt):
    """One-step update matrix of the classical fourth-order scheme.

    A rate too large for dt overflows R to inf/nan without a warning; such an
    R fails step_matrix_is_stable and its first step trips a guard."""
    a = generator_matrix(down, up) * dt
    n = a.shape[0]
    r = np.eye(n) + a
    term = a
    with np.errstate(over="ignore", invalid="ignore"):
        for k in (2.0, 3.0, 4.0):
            term = term @ a / k
            r += term
    return r


def _guard(p, max_drift):
    """Drift and negativity checks on one state, then clamp and renormalize
    it in place.  Returns (status, max_drift).

    One sum and one min: the clamp can change p only when an entry is <= 0
    (it turns -0.0 into 0.0), so only then is the sum taken again.  A NaN
    state fails the drift check."""
    total = float(np.add.reduce(p))
    drift = abs(total - 1.0)
    max_drift = max(max_drift, drift)
    if not drift <= DRIFT_TOL:
        return STATUS_DRIFT, max_drift
    low = np.minimum.reduce(p)
    if low < -NEG_FLOOR:
        return STATUS_NEGATIVE, max_drift
    if low <= 0.0:
        np.maximum(p, 0.0, out=p)
        total = np.add.reduce(p)
    p /= total
    return STATUS_OK, max_drift


def _evolve_stepwise(p, r, n_steps, stride, out):
    """Reference loop: one step at a time, guards checked after every step."""
    out[0] = p
    idx = 1
    max_drift = 0.0
    for k in range(1, n_steps + 1):
        p = r @ p
        status, max_drift = _guard(p, max_drift)
        if status != STATUS_OK:
            return status, k, max_drift
        if k % stride == 0 or k == n_steps:
            out[idx] = p
            idx += 1
    return STATUS_OK, n_steps, max_drift


def _evolve_sampled(p, step_matrix, n_steps, stride, out):
    """Jump from sample to sample with R^stride (the last gap with the ragged
    rest), each jump written straight into its output row.  The first sample
    takes the full guard; later ones the drift check and renormalization only,
    and their -0.0 entries become 0.0 after the loop (see the module
    docstring)."""
    out[0] = p
    gap = min(stride, n_steps)
    jump = step_matrix[gap]
    p = np.matmul(jump, p, out=out[1])
    status, max_drift = _guard(p, 0.0)
    if status != STATUS_OK or gap == n_steps:  # a trip, or one jump over the whole stroke
        return status, gap, max_drift
    last = out.shape[0] - 1
    for idx in range(2, last + 1):
        if idx == last:
            jump = step_matrix[n_steps - (last - 1) * stride]
        p = np.matmul(jump, p, out=out[idx])
        total = float(np.add.reduce(p))
        drift = abs(total - 1.0)
        max_drift = max(max_drift, drift)
        if not drift <= DRIFT_TOL:
            return STATUS_DRIFT, min(idx * stride, n_steps), max_drift
        p /= total
    np.maximum(out[2:], 0.0, out=out[2:])
    return STATUS_OK, n_steps, max_drift


def step_matrix_is_stable(r):
    """True when the step matrix keeps every step positive and conserving:
    R is entrywise non-negative and its column sums are 1 within DRIFT_TOL."""
    return r.min() >= 0.0 and np.abs(r.sum(axis=0) - 1.0).max() <= DRIFT_TOL


class StepMatrix(dict):
    """A stroke's step matrix R, whether it passes step_matrix_is_stable, and
    its powers: step_matrix[gap] is R^gap, built at its first use."""

    def __init__(self, gamma, boltz_factor, n_levels, dt):
        down, up = rate_coefficients(gamma, boltz_factor, n_levels)
        self.r = rk4_step_matrix(down, up, float(dt))
        self.stable = step_matrix_is_stable(self.r)

    def __missing__(self, gap):
        jump = self[gap] = np.linalg.matrix_power(self.r, gap)
        return jump


def sample_count(n_steps, stride):
    """Number of rows recorded by evolve_populations (endpoints always kept)."""
    return -(-n_steps // stride) + 1


def sample_steps(n_steps, stride):
    """Step indices recorded by evolve_populations."""
    return np.append(np.arange(0, n_steps, stride, dtype=np.int64), n_steps)


def evolve_populations(p0, step_matrix, n_steps, stride, rerun=True):
    """Step the population vector n_steps times with the stroke's StepMatrix,
    recording every stride-th state.

    Returns (status, bad_step, max_drift, samples): samples has sample_count
    rows (initial state first, final state last) and max_drift is the largest
    |sum - 1| seen at a guard before renormalization (per sample on the
    sample-to-sample path, per step on the stepwise fallback).  On
    STATUS_TOO_LONG, bad_step is the step of the sample that tripped.

    With rerun=False, a guard that trips on a sample returns its status at once.
    """
    out = np.empty((sample_count(n_steps, stride), len(p0)))
    if step_matrix.stable:
        status, bad_step, max_drift = _evolve_sampled(p0, step_matrix, n_steps, stride, out)
        if status == STATUS_OK or not rerun:
            return status, bad_step, max_drift, out
        if n_steps > MAX_STEPWISE_STEPS:
            return STATUS_TOO_LONG, bad_step, max_drift, out
    # an unstable step matrix, or a guard tripped on a sample: the stepwise
    # loop decides, and names the first bad step
    status, bad_step, max_drift = _evolve_stepwise(p0, step_matrix.r, n_steps, stride, out)
    return status, bad_step, max_drift, out
