"""Engine configuration: defaults, plain-text parsing, validation.

Config documents are UTF-8 ``key = value`` lines with optional ``[section]``
headers ("engine", "baths", "state", "sweep", "output") and ``#`` comments.
Keys are globally unique; unknown keys and sections are hard errors, and
every error names the offending key and line.  An empty document yields the
default working point: omega_c=1.0, omega_h=1.5, t_c=0.4, t_h=1.2,
gamma0=0.5 (relaxation time 1), tau=2.0.
"""

import math
import numbers
from dataclasses import dataclass, field, fields, replace

from .exceptions import ConfigError, OttoKilnError
from .fock import DEFAULT_N_MAX, InitialStateSpec, TAIL_TOLERANCE

_SECTIONS = ("engine", "baths", "state", "sweep", "output")

_MODES = ("otto", "pump", "sweep")

# Largest ladder truncation: the default dt shrinks as 1 / (n_max + 1), and a
# run keeps each bath stroke's dense (n_max + 1)^2 step matrix R and the
# powers of R it jumps with until it ends: 8 MB each at n_max = 1000, R and
# up to three powers per bath stroke.  A stroke of at most
# _kernels.DOUBLING_MAX_LEVELS levels also keeps its doubling powers, about
# log2(samples) of them at 51 kB or less each.  Measured peak RSS of a
# traced 2-cycle run at n_max = 1000: 103 MB.
MAX_N_MAX = 1000
# Most points of one sweep (sweep_ratio_steps times the sweep_t_h entries).
# A balance sweep with --svg peaks at about 180 bytes per point (measured in
# fresh processes: 65.3 MiB at 200,000 points and 167.8 MiB at 800,000, for
# its columns, the strings of each t_h block and the charts), so the cap
# holds it near 180 MB above the interpreter's own.
MAX_SWEEP_POINTS = 1_000_000
SWEEP_POINT_BYTES = 180


@dataclass(frozen=True)
class EngineConfig:
    mode: str = "otto"
    omega_c: float = 1.0
    omega_h: float = 1.5
    t_c: float = 0.4
    t_h: float = 1.2
    gamma0: float = 0.5
    tau: float = 2.0
    tau_bc: float = 1.0
    tau_cd: float = 5.0
    tau_db: float = 1.0
    n_cycles: int = 20
    n_max: int = DEFAULT_N_MAX
    dt: float = None
    sample_stride: int = None
    initial_state: InitialStateSpec = field(default_factory=InitialStateSpec.ground)
    pump_target: InitialStateSpec = field(default_factory=lambda: InitialStateSpec.single_level(1))
    sweep_t_h: tuple = (0.8, 1.2, 1.6, 2.0)
    sweep_ratio_steps: int = 99
    sweep_ratio_min: float = None
    sweep_ratio_max: float = None
    sweep_mode: str = "balance"
    csv_levels: int = 8
    tail_tolerance: float = TAIL_TOLERANCE

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {self.mode!r}")
        for f in fields(self):  # an int field holds an integer (numpy's too), or None where that is its default
            value = getattr(self, f.name)
            unset = value is None and f.default is None
            if f.type is int and not (unset or isinstance(value, numbers.Integral)):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        positives = [
            ("omega_c", self.omega_c), ("omega_h", self.omega_h),
            ("t_c", self.t_c), ("t_h", self.t_h), ("gamma0", self.gamma0),
            ("tau", self.tau), ("tau_bc", self.tau_bc), ("tau_cd", self.tau_cd),
            ("tau_db", self.tau_db), ("tail_tolerance", self.tail_tolerance),
        ]
        if self.dt is not None:
            positives.append(("dt", self.dt))
        for name, value in positives:
            if not value > 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if not self.omega_c < self.omega_h:
            raise ConfigError(f"omega_c must be below omega_h, got {self.omega_c} >= {self.omega_h}")
        if self.mode in ("otto", "sweep") and not self.t_c < self.t_h:
            raise ConfigError(f"t_c must be below t_h, got {self.t_c} >= {self.t_h}")
        if self.n_cycles < 0:
            raise ConfigError(f"n_cycles must be >= 0, got {self.n_cycles}")
        if self.mode == "sweep" and self.sweep_mode == "finite" and self.n_cycles < 1:
            raise ConfigError(f"n_cycles must be >= 1 for a finite sweep, got {self.n_cycles}")
        if self.n_max < 1:
            raise ConfigError(f"n_max must be >= 1, got {self.n_max}")
        if self.n_max > MAX_N_MAX:
            matrix_mb = 8 * (self.n_max + 1) ** 2 / 1e6
            raise ConfigError(
                f"n_max must be <= {MAX_N_MAX}, got {self.n_max}: one dense step matrix "
                f"on {self.n_max + 1} levels would need {matrix_mb:,.0f} MB"
            )
        if not self.omega_h * (self.n_max + 1) < math.inf:  # the top level's energy, and the ramps' frequencies
            raise ConfigError(f"omega_h * (n_max + 1) must be finite, got {self.omega_h} * {self.n_max + 1}")
        if self.sample_stride is not None and self.sample_stride < 1:
            raise ConfigError(f"sample_stride must be >= 1, got {self.sample_stride}")
        if self.csv_levels < 1:
            raise ConfigError(f"csv_levels must be >= 1, got {self.csv_levels}")
        if self.sweep_mode not in ("balance", "finite"):
            raise ConfigError(f"sweep_mode must be 'balance' or 'finite', got {self.sweep_mode!r}")
        if self.sweep_ratio_steps < 2:
            raise ConfigError(f"sweep_ratio_steps must be >= 2, got {self.sweep_ratio_steps}")
        points = self.sweep_ratio_steps * len(self.sweep_t_h)
        if points > MAX_SWEEP_POINTS:
            raise ConfigError(
                f"a sweep must have at most {MAX_SWEEP_POINTS:,} points, got {points:,} "
                f"({self.sweep_ratio_steps:,} ratios x {len(self.sweep_t_h)} hot temperatures): "
                f"it would need about {points * SWEEP_POINT_BYTES / 1e6:,.0f} MB"
            )
        if self.mode == "sweep":
            for t_h in self.sweep_t_h:
                if not t_h > self.t_c:
                    raise ConfigError(f"sweep_t_h entry {t_h} must exceed t_c={self.t_c}")
            printed = ["%.12g" % t_h for t_h in self.sweep_t_h]  # as sweep.csv and the chart names print it
            for i, text in enumerate(printed):
                if text in printed[:i]:
                    raise ConfigError(
                        f"sweep_t_h entries {self.sweep_t_h[printed.index(text)]!r} and "
                        f"{self.sweep_t_h[i]!r} both print as {text}; give each hot temperature once"
                    )
        for name in ("sweep_ratio_min", "sweep_ratio_max"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < 1.0:
                raise ConfigError(f"{name} must lie in (0, 1), got {value}")
        lo, hi = self.sweep_ratio_min, self.sweep_ratio_max
        if (lo is None) != (hi is None):
            raise ConfigError("sweep_ratio_min and sweep_ratio_max must be set together")
        if lo is not None and not lo < hi:
            raise ConfigError(f"sweep_ratio_min must be below sweep_ratio_max, got {lo} >= {hi}")


# Every EngineConfig field is a key of the same name and type; relaxation_time
# is the one alias, for gamma0 = 1 / (2 * relaxation_time).
_KEY_TYPES = {f.name: f.type for f in fields(EngineConfig)} | {"relaxation_time": float}
_EXPECTED = {float: "a number", int: "an integer", tuple: "comma-separated numbers"}


def _parse_state_spec(key, raw, line):
    parts = [p.strip() for p in raw.split(":")]
    kind = parts[0]
    try:
        if kind == "ground" and len(parts) == 1:
            return InitialStateSpec.ground()
        if kind == "level" and len(parts) == 2:
            return InitialStateSpec.single_level(int(parts[1]))
        if kind == "equal_lowest" and len(parts) == 2:
            return InitialStateSpec.equal_lowest(int(parts[1]))
        if kind == "boltzmann" and len(parts) == 3:
            return InitialStateSpec.boltzmann(float(parts[1]), float(parts[2]))
        if kind == "gaussian" and len(parts) in (1, 2, 4):  # without references, parse_config resolves it
            references = map(float, parts[2:]) if len(parts) == 4 else (None, None)
            return InitialStateSpec.gaussian(int(parts[1]) if len(parts) >= 2 else 2, *references)
    except (ValueError, OttoKilnError) as exc:
        raise ConfigError(f"{key}: invalid state spec {raw!r} ({exc})", line) from exc
    raise ConfigError(
        f"{key}: unknown state spec {raw!r}; expected ground, level:N, equal_lowest:K, "
        "boltzmann:OMEGA:T or gaussian[:CENTER[:OMEGA_REF:T_REF]]", line,
    )


def _convert(key, raw, line):
    """The value of a key from its text, by the type of its EngineConfig field."""
    kind = _KEY_TYPES[key]
    if kind is InitialStateSpec:
        return _parse_state_spec(key, raw, line)
    if kind is str:
        return raw.lower()
    try:
        if kind is int:
            return int(raw)
        parsed = tuple(map(float, raw.split(","))) if kind is tuple else float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected {_EXPECTED[kind]}, got {raw!r}", line) from exc
    if not all(map(math.isfinite, parsed if kind is tuple else (parsed,))):
        raise ConfigError(f"{key}: value must be finite, got {raw!r}", line)
    return parsed


def parse_config(text, mode_override=None):
    """Parse a config document into a validated EngineConfig."""
    values = {}
    lines = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw_line.strip()!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r} (first set on line {lines[key]})", lineno)
        if not value:
            raise ConfigError(f"{key}: empty value", lineno)
        values[key] = value
        lines[key] = lineno

    if "gamma0" in values and "relaxation_time" in values:
        raise ConfigError(
            "gamma0 and relaxation_time are two spellings of the same parameter; give one",
            lines["relaxation_time"],
        )

    kwargs = {}
    for key, raw in values.items():
        parsed = _convert(key, raw, lines[key])
        if key == "relaxation_time":
            if not parsed > 0:
                raise ConfigError(f"relaxation_time must be positive, got {parsed}", lines[key])
            key, parsed = "gamma0", 1.0 / (2.0 * parsed)
        kwargs[key] = parsed

    if mode_override is not None:
        stated = kwargs.get("mode")
        if stated is not None and stated != mode_override:
            raise ConfigError(
                f"config sets mode = {stated!r} but the command runs {mode_override!r}",
                lines.get("mode"),
            )
        kwargs["mode"] = mode_override

    config = EngineConfig(**kwargs)
    resolved = {}  # an unresolved gaussian takes omega_h and t_h as its references, once they are validated
    for name in ("initial_state", "pump_target"):
        spec = getattr(config, name)
        if spec.kind == "gaussian" and spec.omega_ref is None:
            resolved[name] = replace(spec, omega_ref=config.omega_h, temperature_ref=config.t_h)
    return replace(config, **resolved) if resolved else config


def load_config(path, mode_override=None):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {str(path)!r}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {str(path)!r} is not UTF-8 text") from exc
    return parse_config(text, mode_override=mode_override)
