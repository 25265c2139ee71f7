import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ottokiln import (
    EngineConfig,
    FockDistribution,
    InitialStateSpec,
    OttoKilnError,
    UnderTruncationError,
    entropy,
    internal_energy,
    make_distribution,
    mean_occupation,
    run_engine,
    total_variation,
)

# Geometric-ladder reference values, computed from the closed forms
# P_n = (1 - q) q^n with q = exp(-omega/T) and cross-checked by direct
# summation to n = 200.
Q_COLD = 0.0820849986238988          # exp(-2.5)
P0_COLD = 0.9179150013761012         # 1 - exp(-2.5)
NBAR_COLD = 0.08942548983385201      # 1 / (e^2.5 - 1)
NBAR_HOT = 0.4015511184930129        # 1 / (e^1.25 - 1)
S_COLD = 0.3092142083266683


def test_ground_state_is_pure_level_zero():
    dist = make_distribution(InitialStateSpec.ground(), 50)
    assert dist.probs[0] == 1.0
    assert dist.probs[1:].sum() == 0.0


def test_equal_lowest_three_uniform():
    dist = make_distribution(InitialStateSpec.equal_lowest(3), 50)
    np.testing.assert_allclose(dist.probs[:3], 1.0 / 3.0, rtol=1e-15)
    assert dist.probs[3:].sum() == 0.0


def test_boltzmann_distribution_matches_geometric_closed_form():
    dist = make_distribution(InitialStateSpec.boltzmann(1.0, 0.4), 50)
    assert dist.probs[0] == pytest.approx(P0_COLD, abs=1e-12)
    ratios = dist.probs[1:6] / dist.probs[:5]
    np.testing.assert_allclose(ratios, Q_COLD, rtol=1e-13)


def test_single_level_state():
    dist = make_distribution(InitialStateSpec.single_level(1), 50)
    assert dist.probs[1] == 1.0
    assert mean_occupation(dist) == 1.0


def test_gaussian_state_is_normalized_and_peaked_at_center():
    spec = InitialStateSpec.gaussian(2, 1.5, 1.2)
    dist = make_distribution(spec, 50)
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert int(dist.probs.argmax()) == 2
    # symmetric neighbours of the center carry equal weight
    assert dist.probs[1] == pytest.approx(dist.probs[3], rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec,level", [
    (InitialStateSpec.boltzmann(1e300, 1e-300), 0),  # omega/T overflows to inf
    (InitialStateSpec.boltzmann(800.0, 1.0), 0),
    (InitialStateSpec.gaussian(2, 1e300, 1e-300), 2),
    (InitialStateSpec.gaussian(2, 1e300, 1.2), 2),  # (n - center)^2 (omega/T)^2 overflows
    (InitialStateSpec.gaussian(0, 30.0, 1.0), 0),
], ids=["boltzmann-inf", "boltzmann-800", "gaussian-inf", "gaussian-square-overflows", "gaussian-30"])
def test_state_too_sharp_for_a_float_is_its_one_level_limit(spec, level):
    dist = make_distribution(spec, 50)
    assert dist.probs[level] == 1.0 and dist.probs.sum() == 1.0


def test_internal_energy_examples():
    ground = make_distribution(InitialStateSpec.ground(), 50)
    assert internal_energy(ground, 2.7) == 0.0
    equal3 = make_distribution(InitialStateSpec.equal_lowest(3), 50)
    assert internal_energy(equal3, 1.5) == pytest.approx(1.5, rel=1e-14)
    thermal = make_distribution(InitialStateSpec.boltzmann(1.5, 1.2), 50)
    assert internal_energy(thermal, 1.5) == pytest.approx(1.5 * NBAR_HOT, rel=1e-12)


def test_mean_occupation_examples():
    assert mean_occupation(make_distribution(InitialStateSpec.ground(), 20)) == 0.0
    assert mean_occupation(make_distribution(InitialStateSpec.equal_lowest(3), 20)) == pytest.approx(1.0, rel=1e-14)
    thermal = make_distribution(InitialStateSpec.boltzmann(1.5, 1.2), 50)
    assert mean_occupation(thermal) == pytest.approx(NBAR_HOT, rel=1e-12)


def test_entropy_examples():
    assert entropy(make_distribution(InitialStateSpec.ground(), 20)) == 0.0
    equal3 = make_distribution(InitialStateSpec.equal_lowest(3), 20)
    assert entropy(equal3) == pytest.approx(math.log(3), rel=1e-14)
    thermal = make_distribution(InitialStateSpec.boltzmann(1.0, 0.4), 50)
    assert entropy(thermal) == pytest.approx(S_COLD, abs=1e-12)


def test_entropy_handles_zero_entries():
    dist = FockDistribution(np.array([0.5, 0.0, 0.5]))
    assert entropy(dist) == pytest.approx(math.log(2), rel=1e-14)


def test_total_variation():
    a = FockDistribution(np.array([1.0, 0.0]))
    b = FockDistribution(np.array([0.0, 1.0]))
    assert total_variation(a, b) == 1.0
    assert total_variation(a, a) == 0.0


@pytest.mark.parametrize("probs,shape", [
    (np.array([]), "(0,)"),
    (np.array(1.0), "()"),
    (np.array([[0.5, 0.5]]), "(1, 2)"),
], ids=["empty", "0-d", "row-matrix"])
def test_distribution_rejects_a_malformed_probability_vector(probs, shape):
    with pytest.raises(OttoKilnError, match=re.escape(f"probs must be a non-empty vector, got shape {shape}")):
        FockDistribution(probs)


def test_distribution_rejects_negative_entries():
    with pytest.raises(OttoKilnError, match="negative"):
        FockDistribution(np.array([1.1, -0.1]))


def test_distribution_rejects_bad_normalization():
    with pytest.raises(OttoKilnError, match="sum"):
        FockDistribution(np.array([0.6, 0.3]))
    with pytest.raises(OttoKilnError, match="sum"):
        FockDistribution(np.array([np.nan, 0.5]))



def test_nan_sum_message_reads_nan():
    with pytest.raises(OttoKilnError, match=r"^probabilities sum to nan, not 1 within "):
        FockDistribution(np.array([np.nan, 0.5]))

def test_hot_boltzmann_needs_enough_levels():
    with pytest.raises(UnderTruncationError):
        make_distribution(InitialStateSpec.boltzmann(0.2, 2.0), 10)


def test_single_level_above_cap_rejected():
    with pytest.raises(UnderTruncationError):
        make_distribution(InitialStateSpec.single_level(12), 10)


def test_invalid_spec_parameters_rejected():
    with pytest.raises(OttoKilnError):
        InitialStateSpec.equal_lowest(0)
    with pytest.raises(OttoKilnError):
        InitialStateSpec.boltzmann(-1.0, 0.4)
    with pytest.raises(OttoKilnError):
        InitialStateSpec.gaussian(2, 1.5, -0.1)
    with pytest.raises(OttoKilnError):
        InitialStateSpec.boltzmann(np.inf, 0.4)
    with pytest.raises(OttoKilnError):
        InitialStateSpec.gaussian(2, 1.5, np.inf)


@pytest.mark.parametrize("field", ["initial_state", "pump_target"])
def test_gaussian_without_a_reference_is_refused_with_its_builder(field):
    # the form the config parser builds before it fills in omega_h and t_h
    bare = InitialStateSpec(kind="gaussian", center=2)
    text = re.escape("build it with InitialStateSpec.gaussian(center, omega_ref, temperature_ref)")
    with pytest.raises(OttoKilnError, match=text):
        make_distribution(bare, 50)
    with pytest.raises(OttoKilnError, match=text):
        run_engine(EngineConfig(mode="pump", n_cycles=1, **{field: bare}))


@pytest.mark.parametrize("build,text", [
    (lambda: InitialStateSpec(kind="boltzmann"), "boltzmann frequency and temperature must be positive and finite"),
    (lambda: InitialStateSpec(kind="equal_lowest"), "equal_lowest needs at least one level, got 0"),
    (lambda: InitialStateSpec(kind="level", level=-3), "level must be >= 0, got -3"),
    (lambda: replace(InitialStateSpec.single_level(2), level=-1), "level must be >= 0, got -1"),
    (lambda: InitialStateSpec.gaussian(2, 0.0, 0.0),
     "gaussian reference frequency and temperature must be positive and finite"),
    (lambda: InitialStateSpec(kind="gaussian", center=-1), "gaussian center must be >= 0, got -1"),
    (lambda: InitialStateSpec(kind="thermal"), "unknown initial-state kind 'thermal'"),
    (lambda: InitialStateSpec.single_level(2.5), "level must be an integer, got 2.5"),
    (lambda: InitialStateSpec.equal_lowest(2.5), "count must be an integer, got 2.5"),
    (lambda: InitialStateSpec.gaussian(2.0, 1.0, 1.0), "center must be an integer, got 2.0"),
    (lambda: InitialStateSpec(kind="ground", level="3"), "level must be an integer, got '3'"),
])
def test_a_bad_recipe_is_refused_where_it_is_built(build, text):
    with pytest.raises(OttoKilnError, match=f"^{re.escape(text)}$"):
        build()


kinds = st.sampled_from(["ground", "level", "equal_lowest", "gaussian", "boltzmann", "bogus"])
indices = st.integers(min_value=-3, max_value=60) | st.sampled_from([2.5, 2.0, math.nan, "3"])
reals = st.sampled_from([0.0, -1.0, 1e-300, 1.5, 1e300, math.inf, math.nan])
FIELD_VALUES = {"level": indices, "count": indices, "center": indices, "omega_ref": reals,
                "temperature_ref": reals, "omega": reals, "temperature": reals}
some_fields = st.fixed_dictionaries({}, optional=FIELD_VALUES)
some_fields_or_kind = st.fixed_dictionaries({}, optional={"kind": kinds, **FIELD_VALUES})
BUILDERS = {
    InitialStateSpec.ground: (),
    InitialStateSpec.single_level: (indices,),
    InitialStateSpec.equal_lowest: (indices,),
    InitialStateSpec.gaussian: (indices, reals, reals),
    InitialStateSpec.boltzmann: (reals, reals),
}


def built_directly(kind, changes):
    return InitialStateSpec(kind=kind, **changes)


def replaced(builder, args, changes):
    return replace(builder(*args), **changes)


# (function, its arguments): a spec built from the kind and some fields, or
# a builder's spec with some fields (the kind too) replaced
recipes = st.one_of(
    st.tuples(st.just(built_directly), st.tuples(kinds, some_fields)),
    *(st.tuples(st.just(replaced), st.tuples(st.just(builder), st.tuples(*args), some_fields_or_kind))
      for builder, args in BUILDERS.items()),
)


@given(recipes)
def test_a_recipe_is_refused_where_it_is_built_or_makes_its_distribution(recipe):
    # no spec that exists means another start: it makes its distribution or
    # refuses the ladder, and raises nothing but an OttoKilnError
    build, args = recipe
    try:
        spec = build(*args)
    except OttoKilnError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            dist = make_distribution(spec, 50, tail_tolerance=1.0)
        except OttoKilnError:
            return
    assert isinstance(dist, FockDistribution)
    if spec.kind == "level":
        assert np.flatnonzero(dist.probs).tolist() == [spec.level]
