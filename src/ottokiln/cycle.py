"""Four-stroke cycles over the population ladder and their energy ledger.

A cycle is a StrokeSchedule.  run_schedule walks its strokes and books what
each stroke's routine returns, following the first-law split dU = dQ + dW:
bath contact at fixed frequency changes populations only (heat), frequency
ramps with frozen populations change level energies only (work).  With the
stroke-boundary states A -> B -> C -> D -> A', the ledger is booked per
stroke:

    q_in  = omega_h * (<n>_B - <n>_A)        hot isochore (at omega_h)
    w_out = (omega_h - omega_c) * <n>_B      expansion ramp
    q_out = omega_c * (<n>_C - <n>_D)        cold isochore
    w_in  = (omega_h - omega_c) * <n>_D      compression ramp
    w_eff = w_out - w_in

Pump cycles put a pump stroke in place of the hot isochore: an
instantaneous re-preparation of the populations at omega_h.  It books
q_pump = U_B - U_A, the internal-energy jump, and q_pump_gross = U_B, the
full preparation energy of the target measured from the ground level (the
externally supplied pump energy, used as the efficiency denominator).
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .bath import RateParams, Trajectory, evolve_isochoric, stroke_steps
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

    @property
    def omega_from(self):
        """A bath stroke starts and ends at its own frequency."""
        return self.omega

    omega_to = omega_from


@dataclass(frozen=True)
class AdiabaticStroke:
    omega_from: float
    omega_to: float
    duration: float


@dataclass(frozen=True)
class PumpStroke:
    """Instantaneous re-preparation of the populations at the current frequency."""

    target: InitialStateSpec
    duration = 0.0  # not a field: a pump takes no time


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
            if isinstance(stroke, PumpStroke):
                continue
            if not isinstance(stroke, (IsochoricStroke, AdiabaticStroke)):
                raise OttoKilnError(f"unknown stroke type {type(stroke).__name__}")
            if not stroke.duration > 0:
                raise OttoKilnError(f"{type(stroke).__name__} duration must be positive")
            boundaries.append((stroke.omega_from, stroke.omega_to))
        if not boundaries:
            raise OttoKilnError("a schedule needs a bath or ramp stroke to set its frequency")
        for (_, end), (start, _) in zip(boundaries, boundaries[1:]):
            if not math.isclose(end, start, rel_tol=0.0, abs_tol=1e-12):
                raise OttoKilnError(f"strokes disagree on frequency at a joint: {end} vs {start}")
        if not math.isclose(boundaries[-1][1], boundaries[0][0], abs_tol=1e-12):
            raise OttoKilnError("schedule does not return to its starting frequency")

    @property
    def period(self):
        return sum(s.duration for s in self.strokes)


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
    """Trace fragment: sample times, frequencies and populations of one stroke."""

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
    repeat_from: int = None  # first cycle copied from its predecessor (see run_schedule)

    def converged(self, threshold=1e-6):
        return bool(self.a_shift_tv) and not math.isnan(self.a_shift_tv[-1]) \
            and self.a_shift_tv[-1] < threshold

    @property
    def final_record(self):
        if not self.records:
            raise OttoKilnError("engine run produced no cycle records")
        return self.records[-1]


def _ramp_work(dist, omega_from, omega_to, duration):
    """Work done on the oscillator by a ramp, (omega_to - omega_from) * <n>."""
    if not (omega_from > 0 and omega_to > 0):
        raise OttoKilnError("ramp frequencies must be positive")
    if not duration > 0:
        raise OttoKilnError(f"ramp duration must be positive, got {duration}")
    return (omega_to - omega_from) * mean_occupation(dist)


def run_adiabatic(dist, omega_from, omega_to, duration, samples=ADIABATIC_SAMPLES):
    """Frequency ramp with frozen populations.

    Returns the sampled trajectory and the work done on the oscillator,
    (omega_to - omega_from) * <n>: positive for compression, negative for
    expansion.  Internal energy is linear in time along the ramp.
    """
    work = _ramp_work(dist, omega_from, omega_to, duration)
    if samples < 2:
        raise OttoKilnError("a ramp needs at least two samples")
    times = np.linspace(0.0, duration, samples)
    probs = np.broadcast_to(dist.probs, (samples, dist.n_max + 1))  # read-only view
    return Trajectory(times=times, probs=probs, sample_stride=1), work


def pump_populations(dist, target, omega, tail_tolerance=TAIL_TOLERANCE):
    """Instantly replace the populations by the target recipe.

    Returns the new distribution and the internal-energy jump at the pump
    frequency (zero elapsed time, no change of frequency).
    """
    new_dist = make_distribution(target, dist.n_max, tail_tolerance)
    q_pump = internal_energy(new_dist, omega) - internal_energy(dist, omega)
    return new_dist, q_pump


def _bath_stroke(cache, index, stroke, n_max, dt):
    """(params, n_steps, step, step_matrix) of the schedule's bath stroke at
    index: built at its first use (RateParams, stroke_steps, StepMatrix)."""
    if index not in cache:
        params = RateParams(OscillatorSpec(stroke.omega), stroke.bath)
        n_steps, step = stroke_steps(stroke.duration, params.gamma, n_max, dt)
        cache[index] = (params, n_steps, step,
                        _kernels.StepMatrix(params.gamma, params.boltz_factor, n_max + 1, step))
    return cache[index]


def _jumped_isochore(dist, stroke, cached, dt, sample_stride, tail_tolerance):
    """End state and drift of a bath stroke propagated by one jump R^n_steps.
    Where a guard trips, evolve_isochoric runs the stroke instead (at
    sample_stride, then step by step): it raises the error a traced run
    raises, or returns the state a traced run reaches."""
    params, n_steps, step, step_matrix = cached
    status, _, drift, samples = _kernels.evolve_populations(
        dist.probs, params.gamma, params.boltz_factor, step, n_steps, n_steps, step_matrix, rerun=False)
    if status == _kernels.STATUS_OK:
        return FockDistribution(samples[-1], dist.n_max).require_tail(tail_tolerance), drift
    traj = evolve_isochoric(dist, params, stroke.duration, dt, sample_stride, tail_tolerance, step_matrix)
    return traj.final, traj.max_drift


def _assemble_trace(trace, segments):
    times, omegas, probs, labels = [], [], [], []
    for segment in segments:
        start = 1 if times else 0  # drop duplicated joint sample
        times.append(segment.times[start:])
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


def run_schedule(dist, schedule, dt=None, sample_stride=None, tail_tolerance=TAIL_TOLERANCE,
                 ledger_only=False):
    """Run schedule.cycle_count cycles of the schedule's strokes from dist.

    Each stroke books what its routine returns (see the module docstring):
    an isochore its heat, to q_in at the schedule's top frequency and to
    q_out elsewhere; a ramp the work run_adiabatic returns, to w_out going
    down and w_in going up; a pump its internal-energy jump and gross pump
    energy.  Returns an EngineTrace with the sampled time series, one
    CycleRecord per cycle, and the cyclostationarity metric (total-variation
    distance between consecutive cycle-start distributions; first entry NaN).

    Each bath stroke's step matrix R, its powers and its step count are built
    once per call (_bath_stroke).  ledger_only=True records no samples (the
    trace's series stay empty): each bath stroke is one jump R^n_steps, and
    sample_stride matters only where it trips a guard (_jumped_isochore).

    A cycle is a deterministic function of its start state.  Once a cycle
    starts bitwise equal to its predecessor's start, it and every later
    cycle repeat the predecessor bit for bit, so they are booked as copies
    of it instead of being run (trace.repeat_from is the first copy's index).
    """
    strokes = schedule.strokes
    if len(strokes) != 4:
        raise OttoKilnError(f"a cycle record books four strokes, the schedule has {len(strokes)}")
    spans = [s for s in strokes if not isinstance(s, PumpStroke)]
    omega_c = min(s.omega_from for s in spans)
    omega_h = max(s.omega_from for s in spans)
    kind = "pump" if len(spans) < len(strokes) else "otto"
    period = schedule.period

    trace = EngineTrace(mode=kind, n_max=dist.n_max, cycle_time=period)
    segments, bath_strokes = [], {}
    for k in range(schedule.cycle_count):
        if trace.records and np.array_equal(dist.probs, trace.records[-1].dist_a.probs):
            _book_repeats(trace, segments, cycle_segments, k, schedule.cycle_count, period)
            break
        ledger = dict.fromkeys(("q_in", "q_out", "w_out", "w_in", "q_pump", "q_pump_gross"), 0.0)
        states = [dist]
        cycle_segments = []  # sample times relative to the cycle's start
        start, t, omega = k * period, 0.0, spans[-1].omega_to  # t: time into the cycle
        for index, stroke in enumerate(strokes):
            if isinstance(stroke, PumpStroke):
                dist, jump = pump_populations(dist, stroke.target, omega, tail_tolerance)
                ledger["q_pump"] += jump
                ledger["q_pump_gross"] += internal_energy(dist, omega)
            elif isinstance(stroke, IsochoricStroke):
                hot = stroke.omega == omega_h
                cached = _bath_stroke(bath_strokes, index, stroke, dist.n_max, dt)
                if ledger_only:
                    end, drift = _jumped_isochore(dist, stroke, cached, dt, sample_stride, tail_tolerance)
                    trace.max_step_drift = max(trace.max_step_drift, drift)
                else:
                    params, _, _, step_matrix = cached
                    traj = evolve_isochoric(dist, params, stroke.duration, dt, sample_stride,
                                            tail_tolerance, step_matrix)
                    end = traj.final
                    cycle_segments.append(StrokeSegment("hot_isochore" if hot else "cold_isochore",
                                                        traj.times + t, np.full(len(traj), stroke.omega),
                                                        traj.probs, max_drift=traj.max_drift))
                heat = stroke.omega * (mean_occupation(end) - mean_occupation(dist))
                if hot:
                    ledger["q_in"] += heat
                else:
                    ledger["q_out"] -= heat
                dist = end
            else:
                expansion = stroke.omega_to < stroke.omega_from
                if ledger_only:
                    work = _ramp_work(dist, stroke.omega_from, stroke.omega_to, stroke.duration)
                else:
                    traj, work = run_adiabatic(dist, stroke.omega_from, stroke.omega_to, stroke.duration)
                    cycle_segments.append(StrokeSegment("expansion" if expansion else "compression",
                                                        traj.times + t,
                                                        np.linspace(stroke.omega_from, stroke.omega_to, len(traj)),
                                                        traj.probs))
                if expansion:
                    ledger["w_out"] -= work
                else:
                    ledger["w_in"] += work
                omega = stroke.omega_to
            t += stroke.duration
            states.append(dist)
        trace.a_shift_tv.append(
            total_variation(states[0], trace.records[-1].dist_a) if trace.records else math.nan
        )
        trace.records.append(CycleRecord(
            cycle_index=k, kind=kind, omega_c=omega_c, omega_h=omega_h,
            w_eff=ledger["w_out"] - ledger["w_in"], **ledger,
            **dict(zip(("dist_a", "dist_b", "dist_c", "dist_d", "dist_a_next"), states)),
        ))
        segments += _starting_at(cycle_segments, start)
    return trace if ledger_only else _assemble_trace(trace, segments)


def _starting_at(cycle_segments, start):
    """A cycle's segments, their cycle-relative times shifted to the cycle's start."""
    return [replace(segment, times=segment.times + start) for segment in cycle_segments]


def _book_repeats(trace, segments, cycle_segments, first, cycle_count, period):
    """Book cycles first..cycle_count-1 as copies of the last run cycle.

    The copies start and end in the current state (the last record's
    dist_a_next), shift their start by a_shift_tv = 0.0, and reuse the last
    cycle's population blocks; their sample times are the cycle-relative
    times plus each copy's start, the same addition a run cycle makes.
    """
    last = trace.records[-1]
    dist = last.dist_a_next
    trace.repeat_from = first
    for k in range(first, cycle_count):
        trace.a_shift_tv.append(0.0)
        trace.records.append(replace(last, cycle_index=k, dist_a=dist, dist_a_next=dist))
        segments += _starting_at(cycle_segments, k * period)


def run_engine(config, ledger_only=False):
    """Run config.n_cycles cycles of the config's mode from its initial state.

    Builds the start distribution and the otto or pump schedule, then hands
    both to run_schedule (ledger_only as there).
    """
    mode = config.mode
    if mode not in ("otto", "pump"):
        raise OttoKilnError(f"run_engine handles otto and pump modes, not {mode!r}")
    bath_c = BathSpec(config.t_c, config.gamma0)
    dist = make_distribution(config.initial_state, config.n_max, config.tail_tolerance)
    if mode == "otto":
        schedule = otto_schedule(config.omega_c, config.omega_h, bath_c,
                                 BathSpec(config.t_h, config.gamma0), config.tau, config.n_cycles)
    else:
        schedule = pump_schedule(config.pump_target, config.omega_c, config.omega_h,
                                 bath_c, config.tau_bc, config.tau_cd, config.tau_db,
                                 config.n_cycles)
    return run_schedule(dist, schedule, config.dt, config.sample_stride, config.tail_tolerance,
                        ledger_only)
