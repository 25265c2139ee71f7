"""Self-checks wired to the `verify` command: oracle agreement and invariants.

Each check returns a CheckResult with a one-line detail string; the CLI
renders them as a pass/fail table.  The checks mirror the package's test
suite but run standalone, without pytest.

The two generator checks (detailed balance, conservation) read
_kernels.generator_matrix, the generator every stroke's R is built from.

A check that reads only a stroke's end state (oracle equivalence,
convergence order, thermal stationarity, the equilibrium limit) takes it
from BathStroke.end_state, the one jump R^n_steps that every ledger-only
stroke and finite-sweep point runs.  The checks that read a stroke's
samples (monotone relaxation, positivity and normalization, the first law)
run the traced path, BathStroke.trajectory.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .bath import BathStroke, RateParams, evolve_isochoric, rate_derivative, stationary_distribution
from .config import EngineConfig
from .cycle import run_engine
from .fock import TAIL_TOLERANCE, FockDistribution, internal_energy, total_variation
from .oracle import propagate_matrix_exponential

DETAILED_BALANCE_OMEGAS = (0.5, 1.0, 1.5, 2.0)
DETAILED_BALANCE_TEMPS = (0.2, 0.4, 1.2)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _end_state(dist, params, duration, dt=None, tail_tolerance=TAIL_TOLERANCE):
    """The state a bath stroke from dist reaches, by BathStroke.end_state."""
    return BathStroke(params, duration, dist.n_max + 1, dt).end_state(dist, tail_tolerance=tail_tolerance)[0]


def _random_distribution(rng, n_levels):
    probs = rng.random(n_levels)
    probs /= probs.sum()
    return FockDistribution(probs)


def check_detailed_balance():
    worst = 0.0
    for omega in DETAILED_BALANCE_OMEGAS:
        for temp in DETAILED_BALANCE_TEMPS:
            params = RateParams(omega, temp, 0.5)
            fixed = stationary_distribution(omega, temp, 50)
            worst = max(worst, float(np.abs(rate_derivative(fixed, params)).max()))
    return CheckResult("detailed-balance fixed point", worst <= 1e-12,
                       f"max |dP/dt| at thermal state = {worst:.2e} (limit 1e-12)")


def check_generator_conservation():
    worst = 0.0
    rng = np.random.default_rng(11)
    for omega, temp in ((0.7, 0.3), (1.5, 1.2), (2.0, 0.2)):
        params = RateParams(omega, temp, 0.5)
        gen = _kernels.generator_matrix(params.gamma, params.boltz_factor, 41)
        worst = max(worst, float(np.abs(gen.sum(axis=0)).max()))
        for _ in range(5):
            deriv = gen @ _random_distribution(rng, 41).probs
            worst = max(worst, abs(math.fsum(deriv.tolist())))
    return CheckResult("probability conservation of the generator", worst <= 1e-13,
                       f"max |column/derivative sum| = {worst:.2e} (limit 1e-13)")


def check_oracle_equivalence(n_tuples=12, seed=2024):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_tuples):
        omega = rng.uniform(0.5, 2.0)
        temp = rng.uniform(0.2, 1.2)
        gamma0 = rng.uniform(0.1, 1.0)
        duration = rng.uniform(0.5, 10.0)
        dist = _random_distribution(rng, 21)
        params = RateParams(omega, temp, gamma0)
        stepped = _end_state(dist, params, duration, tail_tolerance=1.0)
        exact = propagate_matrix_exponential(dist, params, duration)
        worst = max(worst, total_variation(stepped, exact))
    return CheckResult("stepped integration vs matrix exponential", worst <= 1e-8,
                       f"worst TV over {n_tuples} random tuples = {worst:.2e} (limit 1e-8)")


def check_convergence_order():
    params = RateParams(1.0, 1.0, 0.5)
    probs = np.arange(1.0, 22.0)
    dist = FockDistribution(probs / probs.sum())
    exact = propagate_matrix_exponential(dist, params, 1.0)
    errors = []
    for dt in (1.0 / 100, 1.0 / 200):
        final = _end_state(dist, params, 1.0, dt=dt, tail_tolerance=1.0)
        errors.append(total_variation(final, exact))
    ratio = errors[0] / errors[1]
    return CheckResult("fourth-order step convergence", 12.0 <= ratio <= 20.0,
                       f"error ratio dt vs dt/2 = {ratio:.2f} (expected within [12, 20])")


def check_semigroup():
    params = RateParams(1.2, 0.9, 0.4)
    dist = stationary_distribution(0.6, 1.1, 20)
    one_shot = propagate_matrix_exponential(dist, params, 3.0)
    two_step = propagate_matrix_exponential(propagate_matrix_exponential(dist, params, 1.25), params, 1.75)
    gap = total_variation(one_shot, two_step)
    return CheckResult("propagator semigroup property", gap <= 1e-10,
                       f"TV(one shot, composed) = {gap:.2e} (limit 1e-10)")


def check_thermal_stationarity():
    params = RateParams(1.5, 1.2, 0.5)
    fixed = stationary_distribution(1.5, 1.2, 50)
    moved = _end_state(fixed, params, 4.0)
    gap = total_variation(fixed, moved)
    return CheckResult("thermal state unchanged by evolution", gap <= 1e-10,
                       f"TV drift over duration 4.0 = {gap:.2e} (limit 1e-10)")


def check_equilibrium_limit():
    params = RateParams(1.5, 1.2, 0.5)
    ground = FockDistribution(np.eye(51)[0])
    relaxed = _end_state(ground, params, 16.0)
    gap = total_variation(relaxed, stationary_distribution(1.5, 1.2, 50))
    return CheckResult("relaxation to the thermal state", gap <= 1e-6,
                       f"TV after duration 16 = {gap:.2e} (limit 1e-6)")


def check_monotone_relaxation():
    params = RateParams(1.0, 0.8, 0.5)
    target = internal_energy(stationary_distribution(1.0, 0.8, 50), 1.0)
    stroke = BathStroke(params, 6.0, 51)
    ok = True
    for start in (FockDistribution(np.eye(51)[0]), stationary_distribution(0.4, 1.2, 50)):
        traj = stroke.trajectory(start, sample_stride=25)
        energies = traj.probs @ np.arange(51.0)
        gaps = energies - target
        if not (np.all(np.diff(np.abs(gaps)) <= 1e-12) and gaps[0] * gaps[-1] >= 0):
            ok = False
    return CheckResult("monotone energy relaxation", ok,
                       "|U - U_eq| non-increasing from above and below")


def check_stroke_first_law():
    # default working point (omega 1.0/1.5, t 0.4/1.2, tau 2) from the ground state
    trace = run_engine(replace(EngineConfig(), n_cycles=1))
    record = trace.final_record
    hot = internal_energy(record.dist_b, 1.5) - internal_energy(record.dist_a, 1.5) - record.q_in
    expansion = internal_energy(record.dist_c, 1.0) - internal_energy(record.dist_b, 1.5) + record.w_out
    cold = internal_energy(record.dist_d, 1.0) - internal_energy(record.dist_c, 1.0) + record.q_out
    compression = internal_energy(record.dist_a_next, 1.5) - internal_energy(record.dist_d, 1.0) - record.w_in
    cycle = record.first_law_residual()
    worst = max(abs(v) for v in (hot, expansion, cold, compression, cycle))
    # each traced ramp row holds the populations the ramp starts from: B, or D
    labels = np.array(trace.stroke_labels)
    entropy_gap = row_gap = 0.0
    for label, frozen in (("expansion", record.dist_b), ("compression", record.dist_d)):
        rows = labels == label
        entropy_gap = max(entropy_gap, float(np.ptp(trace.entropies[rows])))
        row_gap = max(row_gap, float(np.abs(trace.rows[trace.row_index[rows]] - frozen.probs).max()))
    return CheckResult("first law per stroke and per cycle",
                       worst <= 1e-9 and entropy_gap == 0.0 and row_gap == 0.0,
                       f"worst ledger residual = {worst:.2e} (limit 1e-9), "
                       f"ramp entropy change = {entropy_gap:.1e}"
                       + (f", ramp populations off their start by {row_gap:.1e}" if row_gap else ""))


def check_positivity_and_norm():
    params = RateParams(1.0, 0.4, 0.5)
    start = FockDistribution(np.eye(51)[2])
    traj = evolve_isochoric(start, params, 5.0, sample_stride=10)
    min_prob = float(traj.probs.min())
    worst_sum = float(np.abs(traj.probs.sum(axis=1) - 1.0).max())
    return CheckResult("positivity and normalization along trajectories",
                       min_prob >= 0.0 and worst_sum <= 1e-12,
                       f"min P = {min_prob:.1e}, max |sum-1| = {worst_sum:.2e}")


ALL_CHECKS = (
    check_detailed_balance,
    check_generator_conservation,
    check_oracle_equivalence,
    check_convergence_order,
    check_semigroup,
    check_thermal_stationarity,
    check_equilibrium_limit,
    check_monotone_relaxation,
    check_stroke_first_law,
    check_positivity_and_norm,
)


def run_all_checks():
    return [check() for check in ALL_CHECKS]
