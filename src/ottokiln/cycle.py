"""Four-stroke cycles over the population ladder and their energy ledger.

run_cycles runs the two cycles of the engine straight from an EngineConfig.
The otto cycle is hot contact at omega_h, expansion, cold contact at
omega_c and compression, tau each.  The pump cycle puts a pump in place of
the hot contact, an instantaneous re-preparation of the populations at
omega_h, and then takes tau_bc, tau_cd and tau_db for the other three.
A traced run samples each stroke at times relative to its cycle's start
(a ramp at ADIABATIC_SAMPLES times, its populations frozen), and the trace
places cycle k at k times the cycle time.

The ledger follows the first-law split dU = dQ + dW: bath contact at fixed
frequency changes populations only (heat), frequency ramps with frozen
populations change level energies only (work).  With the stroke-boundary
states A -> B -> C -> D -> A', where the ramps give <n>_C = <n>_B and
<n>_A' = <n>_D, a cycle books

    q_in  = omega_h * (<n>_B - <n>_A)        hot isochore (at omega_h)
    w_out = (omega_h - omega_c) * <n>_B      expansion ramp
    q_out = omega_c * (<n>_B - <n>_D)        cold isochore
    w_in  = (omega_h - omega_c) * <n>_D      compression ramp
    w_eff = w_out - w_in

A pump cycle books q_in = 0 and instead q_pump = U_B - U_A, the
internal-energy jump, and q_pump_gross = U_B, the full preparation energy
of the target measured from the ground level (the externally supplied pump
energy, used as the efficiency denominator).
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bath import BathStroke, RateParams
from .exceptions import ConfigError, OttoKilnError
from .fock import (
    FockDistribution,
    make_distribution,
    internal_energy,
    mean_occupation,
    total_variation,
    TAIL_TOLERANCE,
)

ADIABATIC_SAMPLES = 64
# Cap on a traced run's sampled rows x levels x 8 bytes; no command builds
# that array.  A default simulate --svg --wide at sample_stride = 1 and 47 cycles
# (99.9 MB) peaked at 283 MB resident (a 2-core x86 box, numpy 2.4).
MAX_TRACE_BYTES = 100_000_000
# cycle-start total-variation shift below which a run counts as cyclostationary
CYCLOSTATIONARY_TV = 1e-6


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
    dist_d: FockDistribution
    # the ramps freeze the populations: C is B, and the next cycle's start A' is D
    dist_c = property(lambda self: self.dist_b)
    dist_a_next = property(lambda self: self.dist_d)

    def heat_source(self):
        """Energy charged to the cycle's input: hot-bath heat or pump jump."""
        return self.q_pump if self.kind == "pump" else self.q_in

    def first_law_residual(self):
        """(input heat) - q_out - w_eff - [U(A') - U(A)], both ends at omega_h."""
        du = internal_energy(self.dist_a_next, self.omega_h) - internal_energy(self.dist_a, self.omega_h)
        return self.heat_source() - self.q_out - self.w_eff - du


@dataclass(frozen=True)
class StrokeSegment:
    """Trace fragment of one stroke: sample times and frequencies, and the
    population rows the samples take in order, the last repeating (a ramp's one row)."""

    label: str
    times: np.ndarray
    omegas: np.ndarray
    rows: np.ndarray


@dataclass
class EngineTrace:
    """Concatenated sampled time series of a multi-cycle run plus its records.
    Sample i has the populations rows[row_index[i]]: each stroke a cycle ran
    stores its rows once, and U and S are taken once per stored row.  probs
    builds the full per-sample array; no command reads it."""

    mode: str
    n_max: int
    cycle_time: float
    times: np.ndarray = field(default_factory=lambda: np.empty(0))
    omegas: np.ndarray = field(default_factory=lambda: np.empty(0))
    energies: np.ndarray = field(default_factory=lambda: np.empty(0))
    entropies: np.ndarray = field(default_factory=lambda: np.empty(0))
    rows: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    row_index: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    stroke_labels: list = field(default_factory=list)
    records: list = field(default_factory=list)
    a_shift_tv: list = field(default_factory=list)
    max_step_drift: float = 0.0
    repeat_from: int = None  # first cycle copied from its predecessor (see run_cycles)
    probs = property(lambda self: self.rows[self.row_index])

    def __post_init__(self):
        series = {"times": self.times, "omegas": self.omegas, "energies": self.energies,
                  "entropies": self.entropies, "row_index": self.row_index, "stroke_labels": self.stroke_labels}
        if len({len(values) for values in series.values()}) > 1:
            lengths = ", ".join(f"{name} {len(values)}" for name, values in series.items())
            raise OttoKilnError(f"trace series differ in length: {lengths}")
        index = np.asarray(self.row_index)
        if index.size and not (0 <= index.min() and index.max() < len(self.rows)):
            raise OttoKilnError(f"trace row_index reaches outside its {len(self.rows)} stored rows")

    def converged(self):
        return bool(self.a_shift_tv) and not math.isnan(self.a_shift_tv[-1]) \
            and self.a_shift_tv[-1] < CYCLOSTATIONARY_TV

    @property
    def final_record(self):
        if not self.records:
            raise OttoKilnError("engine run produced no cycle records")
        return self.records[-1]


def pump_populations(dist, target, omega, tail_tolerance=TAIL_TOLERANCE):
    """Instantly replace the populations by the target recipe.

    Returns the new distribution and the internal-energy jump at the pump
    frequency (zero elapsed time, no change of frequency).
    """
    new_dist = make_distribution(target, dist.n_max, tail_tolerance)
    q_pump = internal_energy(new_dist, omega) - internal_energy(dist, omega)
    return new_dist, q_pump


def _contact(dist, label, stroke, segments, t, config):
    """(end state, drift) of a bath stroke from dist.  A traced run (segments
    a list) appends the stroke's samples, their times shifted by t; a
    ledger-only run (segments None) takes the stroke's end state alone."""
    if segments is None:
        return stroke.end_state(dist, config.tail_tolerance)
    traj = stroke.trajectory(dist, config.sample_stride, config.tail_tolerance)
    segments.append(StrokeSegment(label, traj.times + t, np.full(len(traj), stroke.params.omega), traj.probs))
    return traj.final, traj.max_drift


def _ramp(dist, label, omega_from, omega_to, duration, segments, t):
    """A traced run's samples of a frequency ramp, its times shifted by t:
    evenly spaced times and frequencies, all on dist's read-only row.
    A ledger-only run (segments None) records nothing."""
    if segments is not None:
        segments.append(StrokeSegment(label, np.linspace(0.0, duration, ADIABATIC_SAMPLES) + t,
                                      np.linspace(omega_from, omega_to, ADIABATIC_SAMPLES), dist.probs[None]))


def _assemble_trace(trace, cycles):
    """A copy of trace with the series of each cycle's segments, whose sample
    times are relative to the cycle's start: cycle k starts at k * cycle_time.
    Rows are stored once per segment object, which copied cycles share, and
    each sample's U (omega times <n>) and S index its stored row's."""
    times, omegas, rows, index, labels = [], [], [], [], []
    offsets, stored = {}, 0  # id of a segment -> index of its first stored row
    for k, cycle_segments in enumerate(cycles):
        for segment in cycle_segments:
            start = 1 if times else 0  # drop duplicated joint sample
            if id(segment) not in offsets:
                offsets[id(segment)], stored = stored, stored + len(segment.rows)
                rows.append(segment.rows)
            times.append(segment.times[start:] + k * trace.cycle_time)
            omegas.append(segment.omegas[start:])
            samples = np.arange(start, len(segment.times))
            index.append(offsets[id(segment)] + np.minimum(samples, len(segment.rows) - 1))
            labels.extend([segment.label] * len(samples))
    if not times:
        return trace
    omegas = np.concatenate(omegas)
    rows = np.concatenate(rows)
    index = np.concatenate(index)
    energies = omegas * (rows @ np.arange(rows.shape[1]))[index]
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(rows > 0.0, rows * np.log(rows), 0.0)
    trace = replace(trace, times=np.concatenate(times), omegas=omegas, energies=energies,
                    entropies=-plogp.sum(axis=1)[index], rows=rows, row_index=index, stroke_labels=labels)
    if np.any(np.diff(trace.times) <= 0):
        raise OttoKilnError("assembled trace times are not strictly increasing")
    return trace


def _check_trace_budget(bath_strokes, config, n_levels):
    """Refuse a traced run whose sampled rows would pass MAX_TRACE_BYTES,
    before any stroke runs.  Its rows, copied cycles included, are each
    cycle's bath-stroke samples and two ramps, less the joint sample that
    every segment but the run's first drops (see _assemble_trace)."""
    segment_rows = [stroke.sample_count(config.sample_stride) for stroke in bath_strokes]
    segment_rows += [ADIABATIC_SAMPLES] * 2
    rows = config.n_cycles * (sum(segment_rows) - len(segment_rows)) + 1 if config.n_cycles else 0
    need = rows * n_levels * 8
    if need > MAX_TRACE_BYTES:
        stride = "the default" if config.sample_stride is None else config.sample_stride
        raise ConfigError(
            f"a traced run of n_cycles = {config.n_cycles} at sample_stride = {stride} would record "
            f"{rows:,} rows of {n_levels} populations, {need / 1e6:,.0f} MB "
            f"(limit {MAX_TRACE_BYTES / 1e6:,.0f} MB); raise sample_stride or lower n_cycles"
        )


def _bath_stroke(built, strokes, *key):
    """The BathStroke built from key, (params, duration, n_levels, dt): the
    one strokes (a dict or None) holds under key, else a new one, entered in
    built under key either way."""
    stroke = built[key] = strokes[key] if strokes and key in strokes else BathStroke(*key)
    return stroke


def run_cycles(dist, config, ledger_only=False, strokes=None):
    """Run config.n_cycles cycles of config.mode ("otto" or "pump") from dist.

    dist sets the ladder; config.n_max and config.initial_state are read
    only by run_engine.  Books each cycle's ledger by the module docstring's
    formulas.  Returns an EngineTrace with the sampled time series, one
    CycleRecord per cycle, and the cyclostationarity metric (total-variation
    distance between consecutive cycle-start distributions; first entry NaN).

    The hot and cold BathStroke are built once, before the first cycle, hot
    first, and a traced run whose sampled rows would pass MAX_TRACE_BYTES is
    refused then (a ConfigError).  ledger_only=True records no samples (the
    trace's series stay empty) and reads no sample_stride: each bath stroke
    is its BathStroke.end_state, and ramps do nothing.

    strokes (None: build both) is a dict that carries strokes from run to
    run, keyed by what a stroke is built from, (RateParams, duration,
    n_levels, dt): a stroke found there is taken, not built.  The run leaves
    the dict holding its own strokes only, so it never holds more than one
    run's strokes.

    A cycle is a deterministic function of its start state.  Once a cycle
    starts bitwise equal to its predecessor's start, it and every later
    cycle repeat the predecessor bit for bit, so they are booked as copies
    of it instead of being run (trace.repeat_from is the first copy's index).
    """
    kind, omega_c, omega_h = config.mode, config.omega_c, config.omega_h
    if kind not in ("otto", "pump"):
        raise OttoKilnError(f"run_cycles handles otto and pump modes, not {kind!r}")
    built = {}  # this run's strokes
    if kind == "otto":
        durations = (config.tau,) * 4
        hot = _bath_stroke(built, strokes, RateParams(omega_h, config.t_h, config.gamma0), config.tau,
                           dist.n_max + 1, config.dt)
    else:
        durations = (0.0, config.tau_bc, config.tau_cd, config.tau_db)  # the pump takes no time
    cold = _bath_stroke(built, strokes, RateParams(omega_c, config.t_c, config.gamma0), durations[2],
                        dist.n_max + 1, config.dt)
    if strokes is not None:
        strokes.clear()
        strokes.update(built)
    if not ledger_only:
        _check_trace_budget([hot, cold] if kind == "otto" else [cold], config, dist.n_max + 1)
    t_b = durations[0]  # cycle-relative start of the expansion, cold contact and compression
    t_c = t_b + durations[1]
    t_d = t_c + durations[2]
    period = sum(durations)

    trace = EngineTrace(mode=kind, n_max=dist.n_max, cycle_time=period)
    cycles = []  # each cycle's segments (None in a ledger-only run); copies repeat the last
    for k in range(config.n_cycles):
        if trace.records and np.array_equal(dist.probs, trace.records[-1].dist_a.probs):
            # a copy of the cycle before: it starts and ends in dist, shifted by 0.0
            trace.repeat_from = trace.repeat_from or k  # the first copy's index, never 0
            trace.a_shift_tv.append(0.0)
            trace.records.append(replace(trace.records[-1], cycle_index=k, dist_a=dist))
            cycles.append(cycles[-1])
            continue
        a = dist
        cycle_segments = None if ledger_only else []  # sample times relative to the cycle's start
        if kind == "otto":
            b, drift = _contact(a, "hot_isochore", hot, cycle_segments, 0.0, config)
            trace.max_step_drift = max(trace.max_step_drift, drift)
            n_b = mean_occupation(b)
            q_in, q_pump, q_pump_gross = omega_h * (n_b - mean_occupation(a)), 0.0, 0.0
        else:
            b, q_pump = pump_populations(a, config.pump_target, omega_h, config.tail_tolerance)
            n_b = mean_occupation(b)
            q_in, q_pump_gross = 0.0, omega_h * n_b  # U_B, as internal_energy computes it
        _ramp(b, "expansion", omega_h, omega_c, durations[1], cycle_segments, t_b)
        dist, drift = _contact(b, "cold_isochore", cold, cycle_segments, t_c, config)
        trace.max_step_drift = max(trace.max_step_drift, drift)
        _ramp(dist, "compression", omega_c, omega_h, durations[3], cycle_segments, t_d)
        n_d = mean_occupation(dist)
        w_out, w_in = (omega_h - omega_c) * n_b, (omega_h - omega_c) * n_d
        trace.a_shift_tv.append(total_variation(a, trace.records[-1].dist_a) if trace.records else math.nan)
        trace.records.append(CycleRecord(
            cycle_index=k, kind=kind, omega_c=omega_c, omega_h=omega_h,
            q_in=q_in, q_out=omega_c * (n_b - n_d), w_out=w_out, w_in=w_in, w_eff=w_out - w_in,
            q_pump=q_pump, q_pump_gross=q_pump_gross,
            dist_a=a, dist_b=b, dist_d=dist,
        ))
        cycles.append(cycle_segments)
    return trace if ledger_only else _assemble_trace(trace, cycles)


def run_engine(config, ledger_only=False, strokes=None):
    """Run config.n_cycles cycles of the config's mode from its initial state
    (run_cycles from the start distribution, ledger_only and strokes as
    there)."""
    dist = make_distribution(config.initial_state, config.n_max, config.tail_tolerance)
    return run_cycles(dist, config, ledger_only, strokes)
