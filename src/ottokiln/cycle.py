"""Four-stroke cycles over the population ladder and their energy ledger.

Stroke bookkeeping follows the first-law split dU = dQ + dW: bath contact
at fixed frequency changes populations only (heat), frequency ramps with
frozen populations change level energies only (work).  Per cycle:

    q_in  = omega_h * (<n>_B - <n>_A)        hot contact
    w_out = (omega_h - omega_c) * <n>_B      expansion ramp
    q_out = omega_c * (<n>_C - <n>_D)        cold contact
    w_in  = (omega_h - omega_c) * <n>_D      compression ramp
    w_eff = w_out - w_in

Pump cycles replace the hot contact by an instantaneous re-preparation of
the populations; q_pump is the internal-energy jump it causes, while
q_pump_gross is the full preparation energy of the target measured from the
ground level (the externally supplied pump energy, used as the efficiency
denominator).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bath import RateParams, Trajectory, evolve_isochoric
from .exceptions import OttoKilnError
from .fock import (
    BathSpec,
    FockDistribution,
    InitialStateSpec,
    OscillatorSpec,
    make_distribution,
    internal_energy,
    mean_occupation,
    total_variation,
    TAIL_TOLERANCE,
)

ADIABATIC_SAMPLES = 64


@dataclass(frozen=True)
class IsochoricStroke:
    bath: BathSpec
    omega: float
    duration: float


@dataclass(frozen=True)
class AdiabaticStroke:
    omega_from: float
    omega_to: float
    duration: float


@dataclass(frozen=True)
class PumpStroke:
    """Instantaneous re-preparation of the populations (zero duration)."""

    target: InitialStateSpec


@dataclass(frozen=True)
class StrokeSchedule:
    """One cycle's ordered strokes, repeated cycle_count times."""

    strokes: tuple
    cycle_count: int

    def __post_init__(self):
        object.__setattr__(self, "strokes", tuple(self.strokes))
        if self.cycle_count < 0:
            raise OttoKilnError(f"cycle_count must be >= 0, got {self.cycle_count}")
        boundaries = []
        for stroke in self.strokes:
            if isinstance(stroke, IsochoricStroke):
                if not stroke.duration > 0:
                    raise OttoKilnError("isochoric stroke duration must be positive")
                boundaries.append((stroke.omega, stroke.omega))
            elif isinstance(stroke, AdiabaticStroke):
                if not stroke.duration > 0:
                    raise OttoKilnError("adiabatic stroke duration must be positive")
                boundaries.append((stroke.omega_from, stroke.omega_to))
            elif isinstance(stroke, PumpStroke):
                continue
            else:
                raise OttoKilnError(f"unknown stroke type {type(stroke).__name__}")
        for (_, end), (start, _) in zip(boundaries, boundaries[1:]):
            if not math.isclose(end, start, rel_tol=0.0, abs_tol=1e-12):
                raise OttoKilnError(f"strokes disagree on frequency at a joint: {end} vs {start}")
        if boundaries and not math.isclose(boundaries[-1][1], boundaries[0][0], abs_tol=1e-12):
            raise OttoKilnError("schedule does not return to its starting frequency")

    @property
    def period(self):
        return sum(getattr(s, "duration", 0.0) for s in self.strokes)


def otto_schedule(omega_c, omega_h, bath_c, bath_h, tau, cycle_count):
    """Hot contact at omega_h, expansion, cold contact at omega_c, compression."""
    if not 0 < omega_c < omega_h:
        raise OttoKilnError(f"need 0 < omega_c < omega_h, got {omega_c}, {omega_h}")
    return StrokeSchedule(
        strokes=(
            IsochoricStroke(bath_h, omega_h, tau),
            AdiabaticStroke(omega_h, omega_c, tau),
            IsochoricStroke(bath_c, omega_c, tau),
            AdiabaticStroke(omega_c, omega_h, tau),
        ),
        cycle_count=cycle_count,
    )


def pump_schedule(target, omega_c, omega_h, bath_c, tau_bc, tau_cd, tau_db, cycle_count):
    """Pump at omega_h, expansion, cold contact, compression back to omega_h."""
    if not 0 < omega_c < omega_h:
        raise OttoKilnError(f"need 0 < omega_c < omega_h, got {omega_c}, {omega_h}")
    return StrokeSchedule(
        strokes=(
            PumpStroke(target),
            AdiabaticStroke(omega_h, omega_c, tau_bc),
            IsochoricStroke(bath_c, omega_c, tau_cd),
            AdiabaticStroke(omega_c, omega_h, tau_db),
        ),
        cycle_count=cycle_count,
    )


@dataclass(frozen=True)
class CycleRecord:
    """Energy ledger of one completed cycle plus its endpoint distributions."""

    cycle_index: int
    kind: str
    omega_c: float
    omega_h: float
    q_in: float
    q_out: float
    w_out: float
    w_in: float
    w_eff: float
    q_pump: float
    q_pump_gross: float
    dist_a: FockDistribution
    dist_b: FockDistribution
    dist_c: FockDistribution
    dist_d: FockDistribution
    dist_a_next: FockDistribution

    def heat_source(self):
        """Energy charged to the cycle's input: hot-bath heat or pump jump."""
        return self.q_pump if self.kind == "pump" else self.q_in

    def first_law_residual(self):
        """(input heat) - q_out - w_eff - [U(A') - U(A)], both ends at omega_h."""
        du = internal_energy(self.dist_a_next, self.omega_h) - internal_energy(self.dist_a, self.omega_h)
        return self.heat_source() - self.q_out - self.w_eff - du


@dataclass(frozen=True)
class StrokeSegment:
    """Trace fragment: cycle-local sample times, frequencies and populations."""

    label: str
    times: np.ndarray
    omegas: np.ndarray
    probs: np.ndarray
    max_drift: float = 0.0


@dataclass
class EngineTrace:
    """Concatenated sampled time series of a multi-cycle run plus its records."""

    mode: str
    n_max: int
    cycle_time: float
    times: np.ndarray = field(default_factory=lambda: np.empty(0))
    omegas: np.ndarray = field(default_factory=lambda: np.empty(0))
    energies: np.ndarray = field(default_factory=lambda: np.empty(0))
    entropies: np.ndarray = field(default_factory=lambda: np.empty(0))
    probs: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    stroke_labels: list = field(default_factory=list)
    records: list = field(default_factory=list)
    a_shift_tv: list = field(default_factory=list)
    max_step_drift: float = 0.0

    def converged(self, threshold=1e-6):
        return bool(self.a_shift_tv) and not math.isnan(self.a_shift_tv[-1]) \
            and self.a_shift_tv[-1] < threshold

    @property
    def final_record(self):
        if not self.records:
            raise OttoKilnError("engine run produced no cycle records")
        return self.records[-1]


def run_adiabatic(dist, omega_from, omega_to, duration, samples=ADIABATIC_SAMPLES):
    """Frequency ramp with frozen populations.

    Returns the sampled trajectory and the work done on the oscillator,
    (omega_to - omega_from) * <n>: positive for compression, negative for
    expansion.  Internal energy is linear in time along the ramp.
    """
    if not (omega_from > 0 and omega_to > 0):
        raise OttoKilnError("ramp frequencies must be positive")
    if not duration > 0:
        raise OttoKilnError(f"ramp duration must be positive, got {duration}")
    if samples < 2:
        raise OttoKilnError("a ramp needs at least two samples")
    times = np.linspace(0.0, duration, samples)
    probs = np.broadcast_to(dist.probs, (samples, dist.n_max + 1)).copy()
    work = (omega_to - omega_from) * mean_occupation(dist)
    return Trajectory(times=times, probs=probs, sample_stride=1), work


def pump_populations(dist, target, omega, tail_tolerance=TAIL_TOLERANCE):
    """Instantly replace the populations by the target recipe.

    Returns the new distribution and the internal-energy jump at the pump
    frequency (zero elapsed time, no change of frequency).
    """
    new_dist = make_distribution(target, dist.n_max, tail_tolerance)
    q_pump = internal_energy(new_dist, omega) - internal_energy(dist, omega)
    return new_dist, q_pump


def _ramp_segment(label, dist, omega_from, omega_to, duration, t_offset, samples):
    traj, _ = run_adiabatic(dist, omega_from, omega_to, duration, samples)
    omegas = np.linspace(omega_from, omega_to, samples)
    return StrokeSegment(label, traj.times + t_offset, omegas, traj.probs)


def run_otto_cycle(dist_a, omega_c, omega_h, bath_c, bath_h, tau, dt=None,
                   sample_stride=None, adiabatic_samples=ADIABATIC_SAMPLES,
                   cycle_index=0, tail_tolerance=TAIL_TOLERANCE):
    """One hot-contact / expansion / cold-contact / compression cycle.

    The cycle starts at frequency omega_h in contact with the hot bath and
    returns the ledger, the distribution handed to the next cycle, and the
    sampled stroke segments (cycle-local times).
    """
    if not 0 < omega_c < omega_h:
        raise OttoKilnError(f"need 0 < omega_c < omega_h, got {omega_c}, {omega_h}")
    params_h = RateParams(OscillatorSpec(omega_h), bath_h)
    params_c = RateParams(OscillatorSpec(omega_c), bath_c)

    hot = evolve_isochoric(dist_a, params_h, tau, dt, sample_stride, tail_tolerance)
    dist_b = hot.final
    q_in = omega_h * (mean_occupation(dist_b) - mean_occupation(dist_a))

    dist_c = dist_b  # frozen populations through the ramp
    w_out = (omega_h - omega_c) * mean_occupation(dist_b)

    cold = evolve_isochoric(dist_c, params_c, tau, dt, sample_stride, tail_tolerance)
    dist_d = cold.final
    q_out = omega_c * (mean_occupation(dist_c) - mean_occupation(dist_d))

    dist_a_next = dist_d
    w_in = (omega_h - omega_c) * mean_occupation(dist_d)

    record = CycleRecord(
        cycle_index=cycle_index,
        kind="otto",
        omega_c=omega_c,
        omega_h=omega_h,
        q_in=q_in,
        q_out=q_out,
        w_out=w_out,
        w_in=w_in,
        w_eff=w_out - w_in,
        q_pump=0.0,
        q_pump_gross=0.0,
        dist_a=dist_a,
        dist_b=dist_b,
        dist_c=dist_c,
        dist_d=dist_d,
        dist_a_next=dist_a_next,
    )
    segments = (
        StrokeSegment("hot_isochore", hot.times, np.full(len(hot), omega_h), hot.probs,
                      max_drift=hot.max_drift),
        _ramp_segment("expansion", dist_b, omega_h, omega_c, tau, tau, adiabatic_samples),
        StrokeSegment("cold_isochore", cold.times + 2 * tau, np.full(len(cold), omega_c),
                      cold.probs, max_drift=cold.max_drift),
        _ramp_segment("compression", dist_d, omega_c, omega_h, tau, 3 * tau, adiabatic_samples),
    )
    return record, dist_a_next, segments


def run_pump_cycle(dist_a, target, omega_c, omega_h, bath_c, tau_bc, tau_cd, tau_db,
                   dt=None, sample_stride=None, adiabatic_samples=ADIABATIC_SAMPLES,
                   cycle_index=0, tail_tolerance=TAIL_TOLERANCE):
    """One pump / expansion / cold-contact / compression cycle in a single bath."""
    if not 0 < omega_c < omega_h:
        raise OttoKilnError(f"need 0 < omega_c < omega_h, got {omega_c}, {omega_h}")
    params_c = RateParams(OscillatorSpec(omega_c), bath_c)

    dist_b, q_pump = pump_populations(dist_a, target, omega_h, tail_tolerance)
    q_pump_gross = internal_energy(dist_b, omega_h)

    dist_c = dist_b
    w_out = (omega_h - omega_c) * mean_occupation(dist_b)

    cold = evolve_isochoric(dist_c, params_c, tau_cd, dt, sample_stride, tail_tolerance)
    dist_d = cold.final
    q_out = omega_c * (mean_occupation(dist_c) - mean_occupation(dist_d))

    dist_a_next = dist_d
    w_in = (omega_h - omega_c) * mean_occupation(dist_d)

    record = CycleRecord(
        cycle_index=cycle_index,
        kind="pump",
        omega_c=omega_c,
        omega_h=omega_h,
        q_in=0.0,
        q_out=q_out,
        w_out=w_out,
        w_in=w_in,
        w_eff=w_out - w_in,
        q_pump=q_pump,
        q_pump_gross=q_pump_gross,
        dist_a=dist_a,
        dist_b=dist_b,
        dist_c=dist_c,
        dist_d=dist_d,
        dist_a_next=dist_a_next,
    )
    segments = (
        _ramp_segment("expansion", dist_b, omega_h, omega_c, tau_bc, 0.0, adiabatic_samples),
        StrokeSegment("cold_isochore", cold.times + tau_bc, np.full(len(cold), omega_c),
                      cold.probs, max_drift=cold.max_drift),
        _ramp_segment("compression", dist_d, omega_c, omega_h, tau_db, tau_bc + tau_cd, adiabatic_samples),
    )
    return record, dist_a_next, segments


def _assemble_trace(trace, all_segments):
    times, omegas, probs, labels = [], [], [], []
    for cycle_start, segments in all_segments:
        for segment in segments:
            start = 1 if times else 0  # drop duplicated joint sample
            times.append(segment.times[start:] + cycle_start)
            omegas.append(segment.omegas[start:])
            probs.append(segment.probs[start:])
            labels.extend([segment.label] * (segment.times.shape[0] - start))
            trace.max_step_drift = max(trace.max_step_drift, segment.max_drift)
    if not times:
        return trace
    trace.times = np.concatenate(times)
    trace.omegas = np.concatenate(omegas)
    trace.probs = np.concatenate(probs)
    trace.stroke_labels = labels
    levels = np.arange(trace.probs.shape[1])
    trace.energies = trace.omegas * (trace.probs @ levels)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(trace.probs > 0.0, trace.probs * np.log(trace.probs), 0.0)
    trace.entropies = -plogp.sum(axis=1)
    if np.any(np.diff(trace.times) <= 0):
        raise OttoKilnError("assembled trace times are not strictly increasing")
    return trace


def run_engine(config):
    """Chain config.n_cycles cycles, threading each cycle's end state into the next.

    Returns an EngineTrace with the sampled time series, one CycleRecord per
    cycle, and the cyclostationarity metric (total-variation distance between
    consecutive cycle-start distributions; first entry is NaN).
    """
    mode = config.mode
    if mode not in ("otto", "pump"):
        raise OttoKilnError(f"run_engine handles otto and pump modes, not {mode!r}")
    bath_c = BathSpec(config.t_c, config.gamma0)
    dist = make_distribution(config.initial_state, config.n_max, config.tail_tolerance)

    if mode == "otto":
        bath_h = BathSpec(config.t_h, config.gamma0)
        schedule = otto_schedule(config.omega_c, config.omega_h, bath_c, bath_h,
                                 config.tau, config.n_cycles)
    else:
        schedule = pump_schedule(config.pump_target, config.omega_c, config.omega_h,
                                 bath_c, config.tau_bc, config.tau_cd, config.tau_db,
                                 config.n_cycles)
    period = schedule.period

    trace = EngineTrace(mode=mode, n_max=config.n_max, cycle_time=period)
    all_segments = []
    previous_a = None
    for k in range(config.n_cycles):
        if mode == "otto":
            record, dist, segments = run_otto_cycle(
                dist, config.omega_c, config.omega_h, bath_c, bath_h, config.tau,
                dt=config.dt, sample_stride=config.sample_stride,
                cycle_index=k, tail_tolerance=config.tail_tolerance,
            )
        else:
            record, dist, segments = run_pump_cycle(
                dist, config.pump_target, config.omega_c, config.omega_h, bath_c,
                config.tau_bc, config.tau_cd, config.tau_db,
                dt=config.dt, sample_stride=config.sample_stride,
                cycle_index=k, tail_tolerance=config.tail_tolerance,
            )
        trace.records.append(record)
        trace.a_shift_tv.append(
            math.nan if previous_a is None else total_variation(record.dist_a, previous_a)
        )
        previous_a = record.dist_a
        all_segments.append((k * period, segments))
    return _assemble_trace(trace, all_segments)
