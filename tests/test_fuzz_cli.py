"""Fuzzing of the command line: drawn config documents through cli.main.

Every input ends in exit 0, or in exit 1 with one stderr line that starts
``error:``.  No exception escapes and no warning is raised.  A run that
exits 0 books finite ledgers whose first law closes from cycle to cycle.
Each example is kept small (n_max <= 50, at most 15 sweep points,
n_cycles <= 5).  CI runs this file once more under the "ci" hypothesis
profile.
"""

import contextlib
import csv
import io
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings, strategies as st

from ottokiln.cli import main
from conftest import LEDGER_FIELDS

EDGE_FLOATS = [1e-300, 1e300, 0.5, 1.0, 2.0]
floats = st.one_of(st.floats(min_value=0.01, max_value=10.0), st.sampled_from(EDGE_FLOATS), st.floats())
levels = st.integers(min_value=-1, max_value=60)
state_specs = st.one_of(
    st.just("ground"),
    st.builds("level:{}".format, levels),
    st.builds("equal_lowest:{}".format, levels),
    st.builds("boltzmann:{!r}:{!r}".format, floats, floats),
    st.just("gaussian"),
    st.builds("gaussian:{}".format, levels),
    st.builds("gaussian:{}:{!r}:{!r}".format, levels, floats, floats),
)
OPTIONAL_KEYS = {
    **{key: floats for key in ("omega_c", "omega_h", "t_c", "t_h", "gamma0", "tau", "tau_bc",
                               "tau_cd", "tau_db", "dt", "tail_tolerance")},
    **{key: st.floats(min_value=0.0, max_value=1.0) for key in ("sweep_ratio_min", "sweep_ratio_max")},
    "n_max": st.integers(min_value=0, max_value=50),
    "sample_stride": st.one_of(st.just(1), st.integers(min_value=0, max_value=1000)),
    "csv_levels": st.integers(min_value=0, max_value=60),
    "initial_state": state_specs,
    "pump_target": state_specs,
}
# always set, so that no example runs the default 20 cycles or 396 sweep points
BOUNDED_KEYS = {
    "n_cycles": st.integers(min_value=0, max_value=5),
    "sweep_ratio_steps": st.integers(min_value=2, max_value=5),
    "sweep_t_h": st.lists(st.one_of(st.floats(min_value=0.5, max_value=5.0), floats), min_size=1, max_size=3)
    .map(lambda t_h: ", ".join(map(repr, t_h))),
}
COMMANDS = [
    ("simulate", []), ("simulate", ["--svg", "--wide"]), ("pump", []), ("pump", ["--svg", "--wide"]),
    ("sweep", []), ("sweep", ["--svg"]), ("sweep-finite", []), ("sweep-finite", ["--svg"]),
]


@st.composite
def documents(draw):
    keys = draw(st.lists(st.sampled_from(sorted(OPTIONAL_KEYS)), unique=True, max_size=4))
    values = {key: draw(OPTIONAL_KEYS[key]) for key in keys}
    values |= {key: draw(strategy) for key, strategy in BOUNDED_KEYS.items()}
    return values


def _assert_first_law_closes(cycles_csv, omega_c, omega_h):
    """Each cycle's input heat, less q_out and w_eff, is the change of
    omega_h <n> from the previous cycle's end, both read off the ramps:
    <n>_D = w_in / (omega_h - omega_c)."""
    with open(cycles_csv, newline="") as handle:
        rows = [{key: float(row[key]) for key in LEDGER_FIELDS} for row in csv.DictReader(handle)]
    assert all(math.isfinite(value) for row in rows for value in row.values())
    gap = omega_h - omega_c
    for previous, row in zip(rows, rows[1:]):
        booked = row["q_in"] + row["q_pump"] - row["q_out"] - row["w_eff"]
        du = omega_h * (row["w_in"] - previous["w_in"]) / gap
        scale = abs(row["q_in"]) + abs(row["q_pump"]) + abs(row["q_out"]) + abs(row["w_eff"]) \
            + omega_h * (row["w_in"] + previous["w_in"]) / gap
        assert abs(booked - du) <= 1e-9 * scale + 1e-300


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(document=documents(), command=st.sampled_from(COMMANDS))
def test_any_config_exits_0_or_in_one_error_line(document, command):
    name, flags = command
    if name == "sweep-finite":
        name, document = "sweep", {**document, "sweep_mode": "finite"}
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "cfg.txt", Path(tmp) / "out"
        config.write_text("".join(f"{key} = {value}\n" for key, value in document.items()))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            code = main([name, "--config", str(config), "--out", str(out), *flags])
        assert [str(w.message) for w in warned] == []
        event(f"exit {code}")
        if code == 1:
            assert stderr.getvalue().startswith("error: ") and stderr.getvalue().count("\n") == 1
            return
        assert code == 0 and stderr.getvalue() == ""
        if name == "sweep":
            assert (out / "sweep.csv").is_file()
        else:
            omega_c, omega_h = document.get("omega_c", 1.0), document.get("omega_h", 1.5)
            _assert_first_law_closes(out / "cycles.csv", omega_c, omega_h)
