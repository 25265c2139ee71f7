"""Fixed-step propagation of ladder populations.

One step of the classical fourth-order scheme applied to the linear
birth-death generator G is the matrix ``R = I + A + A^2/2 + A^3/6 + A^4/24``
with ``A = dt * G``.  A stroke builds R once and jumps from recorded sample
to recorded sample with the precomputed power ``R^stride`` (plus one
``R^(n_steps % stride)`` for a ragged last gap), so its cost scales with the
number of samples, not the number of steps.

The per-step guards (probability-sum drift, a negativity floor) become checks
on R made once per stroke: an entrywise non-negative R with unit column sums
keeps every step positive and conserving.  The drift check stays, made per
sample, followed by clamping and renormalization: one sum and one min per
sample, and a second sum only when an entry is <= 0.  When R fails either
check (an unstable dt), or a guard trips on a sample, the stroke reruns the
stepwise loop, which reports the first bad step.  A tripped stroke longer
than MAX_STEPWISE_STEPS is not rerun: it reports STATUS_TOO_LONG instead.

A run that records no samples can go further: stroke_map builds the whole
stroke's map R^n_steps once, and apply_stroke_map applies it to a state with
the same guard, once per repetition of the stroke.
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


def _evolve_sampled(p, r, n_steps, stride, out):
    """Jump from sample to sample with R^stride, each jump written straight
    into its output row; guards checked per sample."""
    out[0] = p
    max_drift = 0.0
    gaps = [stride] * (n_steps // stride)
    if n_steps % stride:
        gaps.append(n_steps % stride)
    jumps = {gap: np.linalg.matrix_power(r, gap) for gap in set(gaps)}
    k = 0
    for idx, gap in enumerate(gaps, start=1):
        p = np.matmul(jumps[gap], p, out=out[idx])
        k += gap
        status, max_drift = _guard(p, max_drift)
        if status != STATUS_OK:
            return status, k, max_drift
    return STATUS_OK, n_steps, max_drift


def stroke_map(gamma, boltz_factor, n_levels, dt, n_steps):
    """Map of a whole stroke, R^n_steps, or None when R fails
    step_matrix_is_stable."""
    down, up = rate_coefficients(gamma, boltz_factor, n_levels)
    r = rk4_step_matrix(down, up, float(dt))
    if not step_matrix_is_stable(r):
        return None
    return np.linalg.matrix_power(r, int(n_steps))


def apply_stroke_map(m, p0):
    """One application of a stroke map, guarded like one sample of
    _evolve_sampled.  Returns (status, max_drift, p)."""
    p = m @ p0
    status, max_drift = _guard(p, 0.0)
    return status, max_drift, p


def step_matrix_is_stable(r):
    """True when the step matrix keeps every step positive and conserving:
    R is entrywise non-negative and its column sums are 1 within DRIFT_TOL."""
    return r.min() >= 0.0 and np.abs(r.sum(axis=0) - 1.0).max() <= DRIFT_TOL


def sample_count(n_steps, stride):
    """Number of rows recorded by evolve_populations (endpoints always kept)."""
    n_rec = n_steps // stride + 1
    if n_steps % stride != 0:
        n_rec += 1
    return n_rec


def sample_steps(n_steps, stride):
    """Step indices recorded by evolve_populations."""
    steps = list(range(0, n_steps + 1, stride))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return np.asarray(steps, dtype=np.int64)


def evolve_populations(p0, gamma, boltz_factor, dt, n_steps, stride):
    """Step the population vector n_steps times, recording every stride-th state.

    Returns (status, bad_step, max_drift, samples): samples has sample_count
    rows (initial state first, final state last) and max_drift is the largest
    |sum - 1| seen at a guard before renormalization (per sample on the
    sample-to-sample path, per step on the stepwise fallback).  On
    STATUS_TOO_LONG, bad_step is the step of the sample that tripped.
    """
    p0 = np.ascontiguousarray(p0, dtype=np.float64)
    down, up = rate_coefficients(gamma, boltz_factor, p0.shape[0])
    r = rk4_step_matrix(down, up, float(dt))
    n_steps, stride = int(n_steps), int(stride)
    out = np.empty((sample_count(n_steps, stride), p0.shape[0]))
    if step_matrix_is_stable(r):
        status, bad_step, max_drift = _evolve_sampled(p0, r, n_steps, stride, out)
        if status == STATUS_OK:
            return status, bad_step, max_drift, out
        if n_steps > MAX_STEPWISE_STEPS:
            return STATUS_TOO_LONG, bad_step, max_drift, out
    # an unstable step matrix, or a guard tripped on a sample: the stepwise
    # loop decides, and names the first bad step
    status, bad_step, max_drift = _evolve_stepwise(p0, r, n_steps, stride, out)
    return status, bad_step, max_drift, out
