import csv
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ottokiln import ConfigError, EngineConfig, parse_config
from ottokiln.cli import main
from ottokiln.config import MAX_N_MAX, MAX_SWEEP_POINTS, _KEY_TYPES
from ottokiln.fock import InitialStateSpec


def test_empty_document_yields_default_working_point():
    config = parse_config("")
    assert config.mode == "otto"
    assert config.omega_c == 1.0
    assert config.omega_h == 1.5
    assert config.t_c == 0.4
    assert config.t_h == 1.2
    assert config.gamma0 == 0.5  # relaxation time 1/(2*gamma0) = 1
    assert config.tau == 2.0
    assert config.n_cycles == 20
    assert config.n_max == 50
    assert config.dt is None
    assert config.initial_state == InitialStateSpec.ground()
    assert config.pump_target == InitialStateSpec.single_level(1)


def test_keys_are_the_config_fields_and_relaxation_time():
    assert set(_KEY_TYPES) == {f.name for f in fields(EngineConfig)} | {"relaxation_time"}
    assert _KEY_TYPES["relaxation_time"] is float
    # the types the converter reads; a field of another type needs a converter branch
    assert set(_KEY_TYPES.values()) == {float, int, tuple, str, InitialStateSpec}


def spelled(value):
    """A field's value as a config document states it."""
    if isinstance(value, InitialStateSpec):
        return {"ground": "ground", "level": f"level:{value.level}"}[value.kind]
    if isinstance(value, tuple):
        return ", ".join(map(repr, value))
    return repr(value) if isinstance(value, float) else str(value)


def test_each_stated_default_parses_to_the_default_config():
    default = EngineConfig()
    stated = {f.name: getattr(default, f.name) for f in fields(EngineConfig)}
    stated = {key: value for key, value in stated.items() if value is not None}
    assert {type(value) for value in stated.values()} == {float, int, tuple, str, InitialStateSpec}
    for key, value in stated.items():
        assert parse_config(f"{key} = {spelled(value)}\n") == default, key
    assert parse_config("".join(f"{key} = {spelled(v)}\n" for key, v in stated.items())) == default


@pytest.mark.parametrize("mode", ["otto", "pump", "sweep"])
def test_empty_document_is_the_default_config_in_the_mode(mode):
    assert parse_config("", mode) == replace(EngineConfig(), mode=mode)


def test_relaxation_time_sets_gamma0():
    config = parse_config("relaxation_time = 10\n")
    assert config.gamma0 == pytest.approx(0.05, rel=1e-15)


def test_gamma0_and_relaxation_time_conflict():
    with pytest.raises(ConfigError, match="relaxation_time"):
        parse_config("gamma0 = 0.5\nrelaxation_time = 1\n")


def test_negative_frequency_names_key():
    with pytest.raises(ConfigError, match="omega_h"):
        parse_config("omega_h = -1\n")


def test_unknown_key_names_key_and_line():
    with pytest.raises(ConfigError, match=r"line 2.*frequency"):
        parse_config("tau = 1.0\nfrequency = 2\n")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"line 1.*reactor"):
        parse_config("[reactor]\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("tau = 1\ntau = 2\n")


def test_type_mismatch_names_key_and_line():
    with pytest.raises(ConfigError, match=r"line 1.*tau"):
        parse_config("tau = fast\n")
    with pytest.raises(ConfigError, match=r"line 1.*n_cycles"):
        parse_config("n_cycles = 2.5\n")


def test_sections_and_comments_are_accepted():
    text = """
# engine working point
[engine]
omega_h = 2.0   # compressed frequency
tau = 1.5

[baths]
t_h = 1.6

[state]
initial_state = equal_lowest:3
"""
    config = parse_config(text)
    assert config.omega_h == 2.0
    assert config.tau == 1.5
    assert config.t_h == 1.6
    assert config.initial_state == InitialStateSpec.equal_lowest(3)


def test_state_spec_parsing_variants():
    assert parse_config("initial_state = ground\n").initial_state == InitialStateSpec.ground()
    assert parse_config("initial_state = level:2\n").initial_state == InitialStateSpec.single_level(2)
    assert (parse_config("initial_state = boltzmann:1.5:1.2\n").initial_state
            == InitialStateSpec.boltzmann(1.5, 1.2))
    explicit = parse_config("initial_state = gaussian:3:1.0:0.5\n").initial_state
    assert explicit == InitialStateSpec.gaussian(3, 1.0, 0.5)


def test_gaussian_defaults_resolve_to_hot_working_point():
    config = parse_config("initial_state = gaussian\nomega_h = 2.0\nt_h = 1.6\n")
    assert config.initial_state == InitialStateSpec.gaussian(2, 2.0, 1.6)
    shifted = parse_config("initial_state = gaussian:4\n")
    assert shifted.initial_state == InitialStateSpec.gaussian(4, 1.5, 1.2)


def test_bad_state_spec_rejected():
    with pytest.raises(ConfigError, match="initial_state"):
        parse_config("initial_state = plasma\n")
    with pytest.raises(ConfigError, match="pump_target"):
        parse_config("pump_target = level:one\n")


def test_mode_override_consistency():
    assert parse_config("", mode_override="pump").mode == "pump"
    assert parse_config("mode = pump\n", mode_override="pump").mode == "pump"
    with pytest.raises(ConfigError, match="mode"):
        parse_config("mode = pump\n", mode_override="otto")


def test_frequency_ordering_enforced():
    with pytest.raises(ConfigError, match="omega_c"):
        parse_config("omega_c = 2.0\nomega_h = 1.5\n")


def test_temperature_ordering_enforced_for_two_bath_modes():
    with pytest.raises(ConfigError, match="t_c"):
        parse_config("t_c = 1.3\n")
    # pump mode uses the cold bath only; hotter t_c is fine there
    config = parse_config("t_c = 1.3\n", mode_override="pump")
    assert config.t_c == 1.3


def test_sweep_list_parsing():
    config = parse_config("sweep_t_h = 1.2, 1.6\nsweep_ratio_steps = 10\n")
    assert config.sweep_t_h == (1.2, 1.6)
    assert config.sweep_ratio_steps == 10
    with pytest.raises(ConfigError, match="sweep_t_h"):
        parse_config("sweep_t_h = 1.2; 1.6\n")


@pytest.mark.parametrize("raw", ["inf", "1.2, nan", "-inf, 1.6"])
def test_non_finite_sweep_entry_rejected(raw):
    with pytest.raises(ConfigError, match=r"line 2: sweep_t_h: value must be finite"):
        parse_config(f"tau = 1\nsweep_t_h = {raw}\n")


@pytest.mark.parametrize("raw,named", [
    ("1.2, 1.2", "1.2 and 1.2"),
    ("1.6, 1.581649, 1.5816490000001", "1.581649 and 1.5816490000001"),
])
def test_sweep_entries_printing_alike_rejected(raw, named):
    with pytest.raises(ConfigError, match=f"sweep_t_h entries {named} both print as"):
        parse_config(f"sweep_t_h = {raw}\n", mode_override="sweep")


def test_sweep_entries_differing_in_the_seventh_digit_accepted():
    config = parse_config("sweep_t_h = 1.581649, 1.581651\n", mode_override="sweep")
    assert config.sweep_t_h == (1.581649, 1.581651)


def test_missing_value_and_missing_equals_sign():
    with pytest.raises(ConfigError, match="empty value"):
        parse_config("tau =\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("tau 2.0\n")


def test_validate_catches_bad_defaults_combinations():
    # an EngineConfig checks itself where it is built, replace() included
    with pytest.raises(ConfigError, match="n_cycles"):
        EngineConfig(n_cycles=-1)
    with pytest.raises(ConfigError, match="n_cycles"):
        replace(EngineConfig(), n_cycles=-1)


@pytest.mark.parametrize("name", ["n_cycles", "n_max", "sample_stride", "csv_levels", "sweep_ratio_steps"])
def test_a_non_integer_int_field_is_refused_where_it_is_built(name):
    # the CLI parses these keys with int(); a library caller's float or text is
    # refused at construction, not deep inside a run with a numpy error
    for value in (20.5, 7.0, "3"):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer, got {value!r}$"):
            EngineConfig(**{name: value})
    assert getattr(EngineConfig(**{name: np.int64(3)}), name) == 3  # numpy integers are integers
    assert EngineConfig(sample_stride=None).sample_stride is None  # None is sample_stride's default


def test_finite_sweep_needs_a_cycle():
    with pytest.raises(ConfigError, match="n_cycles must be >= 1 for a finite sweep"):
        parse_config("n_cycles = 0\nsweep_mode = finite\n", mode_override="sweep")
    # a balance sweep runs no cycle, and simulate and pump write empty series
    assert parse_config("n_cycles = 0\n", mode_override="sweep").n_cycles == 0
    for mode in ("otto", "pump"):
        assert parse_config("n_cycles = 0\nsweep_mode = finite\n", mode_override=mode).n_cycles == 0


def test_n_max_above_the_dense_matrix_bound_rejected():
    # validation only: nothing is allocated for the rejected ladder
    assert EngineConfig(n_max=MAX_N_MAX).n_max == MAX_N_MAX
    with pytest.raises(ConfigError, match=r"n_max must be <= 1000, got 50000: .* 50001 levels "
                                          r"would need 20,001 MB"):
        parse_config("n_max = 50000\n")
    with pytest.raises(ConfigError, match=r"got 1001: .* would need 8 MB"):
        EngineConfig(n_max=MAX_N_MAX + 1)


def test_omega_h_whose_top_level_energy_overflows_rejected():
    assert EngineConfig(omega_h=1.7e308 / 51).omega_h == 1.7e308 / 51
    with pytest.raises(ConfigError, match=r"omega_h \* \(n_max \+ 1\) must be finite, got 1e\+307 \* 51"):
        EngineConfig(omega_h=1e307)


def test_sweep_points_above_the_memory_bound_rejected():
    # validation only: no ratio grid is built for the rejected sweep
    config = EngineConfig(sweep_t_h=(1.2,), sweep_ratio_steps=MAX_SWEEP_POINTS)
    assert config.sweep_ratio_steps == MAX_SWEEP_POINTS
    with pytest.raises(ConfigError, match=r"at most 1,000,000 points, got 1,000,002 \(500,001 ratios "
                                          r"x 2 hot temperatures\): it would need about 230 MB"):
        EngineConfig(sweep_t_h=(1.2, 1.6), sweep_ratio_steps=500_001)
    with pytest.raises(ConfigError, match=r"got 40,000,000,000,000 .* about 9,200,000,000 MB"):
        parse_config("sweep_ratio_steps = 10000000000000\n")


@pytest.mark.parametrize("bound", ["sweep_ratio_min = 0.5", "sweep_ratio_max = 0.9"])
def test_single_sweep_bound_rejected(bound):
    with pytest.raises(ConfigError, match="set together"):
        parse_config(bound + "\n")


@pytest.mark.parametrize("lo,hi", [(0.8, 0.6), (0.7, 0.7)])
def test_inverted_sweep_bounds_rejected(lo, hi):
    with pytest.raises(ConfigError, match="sweep_ratio_min must be below"):
        parse_config(f"sweep_ratio_min = {lo}\nsweep_ratio_max = {hi}\n")


def test_sweep_ratio_steps_without_bounds_sets_the_default_grid(tmp_path):
    config = tmp_path / "cfg.txt"
    config.write_text("sweep_t_h = 1.2, 1.6\nsweep_ratio_steps = 7\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    with open(out / "sweep.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2 * 7


integers = st.integers(min_value=-3, max_value=60).map(str)
numbers = st.one_of(integers, st.floats(min_value=-1.0, max_value=3.0).map(repr))
state_specs = st.builds(
    lambda kind, parts: ":".join([kind, *parts]),
    st.sampled_from(["ground", "level", "equal_lowest", "gaussian", "boltzmann"]),
    st.lists(numbers, max_size=3),
)
arbitrary = st.one_of(st.text(max_size=8), st.floats().map(repr))


def plausible_value(key):
    """Mostly well-typed values for the key, so that one bad value can meet valid others."""
    typed = {
        float: numbers,
        int: integers,
        InitialStateSpec: state_specs,
        tuple: st.lists(numbers, min_size=1, max_size=3).map(", ".join),
        str: st.sampled_from(["otto", "pump", "sweep", "balance", "finite"]),
    }[_KEY_TYPES[key]]
    return st.tuples(st.just(key), st.one_of(typed, typed, typed, arbitrary))


# the state keys are drawn more often: their specs have the richest grammar
keys = st.sampled_from(sorted(_KEY_TYPES) + ["initial_state", "pump_target"] * 4)


@settings(max_examples=300, deadline=None)
@given(st.lists(keys.flatmap(plausible_value), max_size=6, unique_by=lambda entry: entry[0]))
def test_any_document_gives_a_validated_config_or_a_config_error(entries):
    text = "".join(f"{key} = {value}\n" for key, value in entries)
    try:
        config = parse_config(text)
    except ConfigError:
        return
    assert replace(config) == config  # the parsed config passes its own construction check
    for spec in (config.initial_state, config.pump_target):
        assert spec.kind != "gaussian" or spec.omega_ref > 0
