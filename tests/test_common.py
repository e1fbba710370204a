import importlib
import inspect
import math
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from majorana_lab.common import (MAX_LEVEL, NATURAL_UNITS, LevelError, OutOfRange,
                                 PhysicalConstants, energy, level, linspace, over_product,
                                 scaled_quotient, scaled_root)
from majorana_lab.entropy import EntropyReport, bbm_reports
from majorana_lab.hermite import hermite_pair_evaluator
from majorana_lab.quadrature import integrate, truncation_radius, xlogx
from majorana_lab.spinor import (SpinorState, density_evaluator, density_slices, ladder_evaluator,
                                 phase, space_frequency, spinor_evaluator)
from majorana_lab.thermo import EnsembleParams, moment_sums, report, thermo_sweep
from without_package import env_without

TINY, HUGE = 5e-324, 1.7976931348623157e308


def bits(values):
    return [struct.pack("<d", v) for v in values]


@pytest.mark.parametrize("start, stop", [
    (0.1, 10.0), (10.0, 0.1), (-2.0, 1.0), (3.0, 3.0), (0.0, -0.0),
    (TINY, 2 * TINY), (TINY, HUGE), (HUGE, TINY), (-HUGE, HUGE), (HUGE, HUGE), (0.0, TINY),
    (1e-310, 3e-310), (0.5, 1e308),
])
@pytest.mark.parametrize("num", [0, 1, 2, 3, 50])
def test_linspace_matches_numpy_bitwise(start, stop, num):
    with np.errstate(all="ignore"):
        expected = np.linspace(start, stop, num).tolist()
    got = linspace(start, stop, num)
    assert all(type(v) is float for v in got)
    assert bits(got) == bits(expected)


@pytest.mark.parametrize("start, stop, num, error, message", [
    ("0", 1.0, 3, TypeError, "start must be a real number, not str"),
    (0.0, 1.0, -1, ValueError, "num must be an integer >= 0"),
    (0.0, 1.0, 2.5, ValueError, "num must be an integer >= 0"),
    (0.0, 1.0, 10**320, ValueError, f"num must be an integer <= {sys.maxsize}"),
], ids=["text-start", "negative-num", "fractional-num", "num-past-the-largest-list"])
def test_linspace_takes_its_inputs_by_the_package_rules(start, stop, num, error, message):
    # np.linspace refuses a negative num and one past sys.maxsize too; float() would parse
    # text, range() refuse 2.5
    with pytest.raises(error, match=f"^{message}$"):
        linspace(start, stop, num)


def test_out_of_range_is_a_value_error_naming_its_parameter():
    exc = OutOfRange("T", 1e-300, "too cold")
    assert isinstance(exc, ValueError)
    assert (exc.param, exc.value, str(exc)) == ("T", 1e-300, "too cold")


def slope(state, y):
    """phi_n'(y) = (A - A+) phi_n(y) / 2 in natural units."""
    lowered, raised = ladder_evaluator(state)(y)
    return (lowered - raised) / 2.0


# Each row is labelled by the quantity it computes; a label that is no public name marks a row
# that composes the kept entries as their callers do.
LEVEL_TAKERS = {
    "hermite_norm_fn": lambda n: hermite_pair_evaluator(n, 1.0)(0.5)[0],
    "hermite_norm_pair": lambda n: hermite_pair_evaluator(n, 1.0)(0.5),
    "hermite_norm_fn_and_derivative": lambda n: slope(SpinorState(n, 1.0), 0.5),
    "hermite_pair_evaluator": lambda n: hermite_pair_evaluator(n, 1.0),
    "SpinorState": lambda n: SpinorState(n, 1.0),
    "energy": lambda n: energy(n, 1.0),
    "bbm_report": lambda n: bbm_reports(n, (1.0,))[0],
    "shannon_position": lambda n: bbm_reports(n, (1.0,))[0].S_y,
    "shannon_momentum": lambda n: bbm_reports(n, (1.0,))[0].S_p,
    "entropic_density": lambda n: xlogx(density_evaluator(SpinorState(n, 1.0), 0.3)(0.5)),
    "truncation_radius": lambda n: truncation_radius(1.0, n),
}


@pytest.mark.parametrize("n", [True, False, -1, 1.5, 2.0, np.float64(2.0), "2", None],
                         ids=["True", "False", "-1", "1.5", "2.0", "float64", "str", "None"])
@pytest.mark.parametrize("take", LEVEL_TAKERS.values(), ids=LEVEL_TAKERS.keys())
def test_every_level_entry_point_has_one_rule(take, n):
    # one error for every bad level: a ValueError, as the records raise, and a TypeError, as the
    # Hermite functions raise for a bool or a float level, with one message
    with pytest.raises(ValueError, match="^quantum number n must be an integer >= 0$") as excinfo:
        take(n)
    assert isinstance(excinfo.value, TypeError)


@pytest.mark.parametrize("take", LEVEL_TAKERS.values(), ids=LEVEL_TAKERS.keys())
def test_a_level_past_max_level_is_refused(take):
    # MAX_LEVEL is the last level each entry takes; past it the float path loses the state, so
    # the level rule refuses it, naming n
    take(MAX_LEVEL)
    with pytest.raises(LevelError, match=f"^quantum number n must be an integer <= {MAX_LEVEL}$"):
        take(MAX_LEVEL + 1)


@pytest.mark.parametrize("take", [
    lambda: phase(SpinorState(10**400, 1.0), 0.0),  # was OutOfRange naming t
    lambda: density_evaluator(SpinorState(10**5, 1.0), 0.7)(100.0),  # was a silent 0.0
    lambda: hermite_pair_evaluator(10**5, 1.0),  # built an n-long coefficient list
    lambda: energy(10**400, 1.0),  # was inf
    lambda: bbm_reports(MAX_LEVEL + 1, ()),  # no omega: was []
    lambda: SpinorState(1, 1.0)._replace(n=MAX_LEVEL + 1),
], ids=["phase-10**400", "density-10**5", "hermite-10**5", "energy-10**400", "entropy-no-omega",
        "spinor-replace"])
def test_a_level_far_past_max_level_is_refused_before_any_work(take):
    with pytest.raises(LevelError, match=f"^quantum number n must be an integer <= {MAX_LEVEL}$"):
        take()


def test_level_is_the_integer_protocol():
    assert level(0) == 0
    assert type(level(np.int64(64))) is int and level(np.int64(64)) == 64
    with pytest.raises(LevelError):  # an integer array has an __index__ that raises TypeError
        level(np.array([3]))


# Run with numpy unimportable: each pointwise function evaluates an int coordinate as its float.
INT_COORDINATES = """
from majorana_lab.hermite import hermite_pair_evaluator
from majorana_lab.quadrature import xlogx
from majorana_lab.spinor import SpinorState, density_evaluator, ladder_evaluator

state = SpinorState(3, 0.7)
ladder = ladder_evaluator(state)
for y in (0, 1, -2, 5, 2**60):
    for f in (lambda v: hermite_pair_evaluator(3, 0.7)(v)[0], lambda v: xlogx(abs(v)),
              density_evaluator(state, 0.4), density_evaluator(state, 0.4, "momentum"),
              lambda v: ladder(v)[0], lambda v: ladder(v)[1]):
        got, want = f(y), f(float(y))
        assert type(got) is float and got.hex() == want.hex(), (y, got, want)
"""


def test_an_int_coordinate_gives_the_float_bits_without_numpy(tmp_path):
    run = subprocess.run([sys.executable, "-c", INT_COORDINATES], env=env_without("numpy", tmp_path),
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr


# Labelled as LEVEL_TAKERS is.
POINTWISE = {
    "hermite_norm_fn": lambda y: hermite_pair_evaluator(2, 1.0)(y)[0],
    "hermite_norm_pair": lambda y: hermite_pair_evaluator(2, 1.0)(y),
    "hermite_norm_fn_and_derivative": lambda y: slope(SpinorState(2, 1.0), y),
    "hermite_pair_evaluator": lambda y: hermite_pair_evaluator(2, 1.0)(y),
    "xlogx": xlogx,
    "position_spinor_at_phase": lambda y: spinor_evaluator(SpinorState(2, 1.0), 0.3)(y),
    "momentum_spinor_at_phase": lambda y: spinor_evaluator(SpinorState(2, 1.0), 0.3, "momentum")(y),
    "probability_density_at_phase": lambda y: density_evaluator(SpinorState(2, 1.0), 0.3, "momentum")(y),
    "density_evaluator": lambda y: density_evaluator(SpinorState(2, 1.0), 0.3)(y),
    "density_slices": lambda y: next(density_slices(SpinorState(2, 1.0), [y], [0.3]))[0],
    "entropic_density": lambda y: xlogx(density_evaluator(SpinorState(2, 1.0), 0.3)(y)),
    "annihilation_apply": lambda y: ladder_evaluator(SpinorState(2, 1.0))(y)[0],
    "creation_apply": lambda y: ladder_evaluator(SpinorState(2, 1.0))(y)[1],
    "ladder_up": lambda y: ladder_evaluator(SpinorState(2, 1.0))(y)[1] / energy(3, 1.0),
    "ladder_down": lambda y: ladder_evaluator(SpinorState(2, 1.0))(y)[0] / energy(2, 1.0),
}


@pytest.mark.parametrize("take", POINTWISE.values(), ids=POINTWISE.keys())
def test_a_list_coordinate_is_refused_not_mapped(take):
    with pytest.raises(TypeError):
        take([0.5, 1.0])


@pytest.mark.parametrize("text", ["0.5", b"0.5", bytearray(b"0.5")], ids=["str", "bytes", "bytearray"])
@pytest.mark.parametrize("take", POINTWISE.values(), ids=POINTWISE.keys())
def test_a_text_coordinate_is_refused_not_parsed(take, text):
    # float() parses text; xlogx refuses it in its v >= 0 comparison, the rest by one rule
    with pytest.raises(TypeError, match="^a coordinate must be a real number, not "
                                        f"{type(text).__name__}$|^'>=' not supported"):
        take(text)


@pytest.mark.parametrize("y", [2, np.int64(-1), np.float32(0.3), np.float64(0.3), Fraction(1, 3)],
                         ids=["int", "int64", "float32", "float64", "Fraction"])
@pytest.mark.parametrize("name", [name for name in POINTWISE if name != "xlogx"])
def test_a_real_coordinate_gives_its_floats_bits(name, y):
    # xlogx takes a density value, not a coordinate, and keeps a numpy scalar's arithmetic
    take = POINTWISE[name]
    assert repr(take(y)) == repr(take(float(y)))


@pytest.mark.parametrize("y", [math.inf, math.nan, 10**400, Fraction(10**400, 3)],
                         ids=["inf", "nan", "int-past-max", "Fraction-past-max"])
@pytest.mark.parametrize("name", [name for name in POINTWISE if name != "xlogx"])
def test_a_coordinate_that_is_no_finite_float_is_refused(name, y):
    # float() of an int or a Fraction past the largest float raises OverflowError; the rule
    # turns it into the same refusal as inf and nan
    with pytest.raises(ValueError, match="^a coordinate must be finite$"):
        POINTWISE[name](y)


POSITIVE_SITES = [
    ("omega", lambda v: hermite_pair_evaluator(1, v)),
    ("omega", lambda v: SpinorState(1, v)),
    ("omega", lambda v: bbm_reports(1, (v,))),
    ("omega", lambda v: truncation_radius(v, 1)),
    ("target_abs_tol", lambda v: integrate(float, (-1.0, 0.0, 1.0), v)),
    ("beta", lambda v: EnsembleParams(v, 0.2)),
    ("k", lambda v: EnsembleParams(1.0, v)),
    ("c", lambda v: PhysicalConstants(c=v)),
    ("hbar", lambda v: PhysicalConstants(hbar=v)),
    ("k_B", lambda v: PhysicalConstants(k_B=v)),
    ("k", lambda v: PhysicalConstants().omega(v)),  # the potential's slope, in omega = k/(c hbar)
    ("k", lambda v: energy(1, v)),
    ("tol", lambda v: moment_sums(EnsembleParams(1.0, 0.2), v)),
    ("tol", lambda v: bbm_reports(1, (0.2,), tol=v)),
    ("omega", lambda v: space_frequency(v, "momentum")),
]
POSITIVE_SITE_IDS = ["hermite-omega", "spinor-omega", "entropy-omega", "radius-omega", "spec-tol",
                     "ensemble-beta", "ensemble-k", "constants-c", "constants-hbar",
                     "constants-k_B", "potential-k", "energy-k", "thermo-tol", "entropy-tol",
                     "space-omega"]


@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan, 10**400, Fraction(10**400, 3)],
                         ids=["0", "-1", "inf", "nan", "int-past-max", "Fraction-past-max"])
@pytest.mark.parametrize("name, take", POSITIVE_SITES, ids=POSITIVE_SITE_IDS)
def test_every_positive_finite_site_has_one_rule(name, take, value):
    # an int or a Fraction past the largest float is refused as inf is, not by float()'s
    # OverflowError
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
        take(value)


@pytest.mark.parametrize("name, take", POSITIVE_SITES, ids=POSITIVE_SITE_IDS)
def test_a_text_positive_value_is_refused_naming_its_parameter(name, take):
    # text is no real number: the coordinate rule's TypeError, not a failed comparison
    with pytest.raises(TypeError, match=f"^{name} must be a real number, not str$"):
        take("1")


BAD_TOLS = ("x", 0.0, -1.0, math.inf)
# Each sweep entry as a call on its grid, a one-point grid, and bad values of each input it takes
# beside the grid.
SWEEPS = {
    "entropy": (lambda grid, **kw: bbm_reports(1, grid, **kw), (0.2,),
                {"theta": ("x", math.nan), "tol": BAD_TOLS}),
    "thermo-k": (lambda grid, **kw: thermo_sweep(grid, (1.0,), **kw), (0.5,),
                 {"N": ("x", 0, 1.0), "tol": BAD_TOLS}),
    "thermo-T": (lambda grid, **kw: thermo_sweep((0.5,), grid, **kw), (1.0,),
                 {"N": ("x", 0, 1.0), "tol": BAD_TOLS}),
}


@pytest.mark.parametrize("sweep, name, value", [
    (sweep, name, value) for sweep, (_, _, inputs) in SWEEPS.items()
    for name, values in inputs.items() for value in values])
def test_an_empty_grid_refuses_each_input_as_a_full_grid_does(sweep, name, value):
    # an empty grid gives [] only once every input is taken, so bad input never reads as no work
    take, full, _ = SWEEPS[sweep]
    refusals = []
    for grid in (full, ()):
        with pytest.raises((TypeError, ValueError)) as info:
            take(grid, **{name: value})
        refusals.append((type(info.value), str(info.value)))
    assert refusals[0] == refusals[1]
    assert refusals[0][1].startswith(f"{name} must be ")


def state_values(state):
    return state, phase(state, 0.5), density_evaluator(state, 0.3)(0.7)


def constants_values(pc):
    return pc, pc.omega(1.0), thermo_sweep((0.5,), (1.0,), pc=pc)


def ensemble_values(ep):
    return ep, report(ep)


# Each parameter taken through a call that evaluates a value, with the record that holds it;
# keyed by the ids of POSITIVE_SITES, and four real parameters.
PARAMETER_TAKERS = {
    "hermite-omega": lambda v: hermite_pair_evaluator(1, v)(0.7),
    "spinor-omega": lambda v: state_values(SpinorState(1, v)),
    "entropy-omega": lambda v: bbm_reports(1, (v,)),
    "radius-omega": lambda v: truncation_radius(v, 1),
    "spec-tol": lambda v: integrate(math.exp, (-0.5, 0.0, 0.5), v),
    "ensemble-beta": lambda v: ensemble_values(EnsembleParams(v, 0.2)),
    "ensemble-k": lambda v: ensemble_values(EnsembleParams(1.0, v)),
    "constants-c": lambda v: constants_values(PhysicalConstants(c=v)),
    "constants-hbar": lambda v: constants_values(PhysicalConstants(hbar=v)),
    "constants-k_B": lambda v: constants_values(PhysicalConstants(k_B=v)),
    "potential-k": lambda v: PhysicalConstants().omega(v),
    "energy-k": lambda v: energy(1, v),
    "thermo-tol": lambda v: moment_sums(EnsembleParams(1.0, 0.2), v),
    "entropy-tol": lambda v: bbm_reports(1, (0.2,), tol=v),
    "space-omega": lambda v: space_frequency(v, "momentum"),
    "entropy-theta": lambda v: bbm_reports(1, (0.2,), v),
    "sweep-T": lambda v: thermo_sweep((0.5,), (v,)),
    "spec-radius": lambda v: integrate(math.exp, (0.0, v)),  # a breakpoint: R of [0, R]
}
RECORDS = (PhysicalConstants, SpinorState, EnsembleParams, EntropyReport)


def records(value):
    """Every record of RECORDS in value, a record nested in a tuple, a list or a record."""
    if isinstance(value, RECORDS):
        yield value
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from records(item)


@pytest.mark.parametrize("value", [2, np.int64(1), np.float32(0.3), np.float64(0.3), Fraction(1, 3)],
                         ids=["int", "int64", "float32", "float64", "Fraction"])
@pytest.mark.parametrize("name", POSITIVE_SITE_IDS + ["entropy-theta", "sweep-T", "spec-radius"])
def test_a_real_parameter_gives_its_floats_bits(name, value):
    # a parameter is computed with, and kept as, the float its rule returns
    got = PARAMETER_TAKERS[name](value)
    assert repr(got) == repr(PARAMETER_TAKERS[name](float(value)))
    for record in records(got):
        for field, held in record._asdict().items():
            if field != "pc":
                assert type(held) is (int if field in ("n", "N") else float), (record, field)


@pytest.mark.parametrize("take", [
    lambda: PhysicalConstants(c=1e-200, hbar=1e-200).omega(1.0),
    lambda: PhysicalConstants(c=1e200, hbar=1e200).omega(1.0),
    lambda: PhysicalConstants(c=1e100, hbar=1e-50).omega(3.221014270844314e-274),
], ids=["omega-c_hbar-underflows", "omega-c_hbar-overflows", "omega-subnormal"])
def test_omega_of_a_slope_has_one_rule(take):
    # omega = k/(c hbar) is refused as a bad k, the value the caller gave, wherever it is formed:
    # past the largest float, and below the least normal one, where it has lost its bits
    with pytest.raises(OutOfRange, match=r"^k/\(c hbar\) leaves the float range$") as excinfo:
        take()
    assert excinfo.value.param == "k"


@pytest.mark.parametrize("n, k, c, hbar, want", [
    (1, 1.0, 1e-200, 1e-200, 1.414213562373095e-200),
    (1, 6e282, 3e8, 1.05e-34, 6.148170459575759e+128),
    (13, 3.221014270844314e-274, 1e100, 1e-50, 9.151304335555242e-112),  # omega rounds to 5e-324
], ids=["c_hbar-underflows", "omega-overflows", "omega-subnormal"])
def test_energy_takes_the_slope_where_omega_is_no_normal_float(n, k, c, hbar, want):
    # energy is the scaled root of 2 n c hbar k, so it never rounds omega = k/(c hbar)
    pc = PhysicalConstants(c=c, hbar=hbar)
    assert energy(n, k, pc) == want
    assert -energy(n, k, pc) == -want


@pytest.mark.parametrize("c, hbar, k, omega", [
    (1e300, 1e300, 1e300, 1e-300),  # c hbar overflows
    (1e-200, 1e-200, 1e-300, 1e100),  # c hbar underflows to 0
    (1e-310, 100.0, 0.1, 1.0000000000000031e307),  # c hbar is subnormal: k / (c hbar) as it was
], ids=["c_hbar-overflows", "c_hbar-underflows", "c_hbar-subnormal"])
def test_omega_where_only_c_hbar_leaves_the_float_range(c, hbar, k, omega):
    assert PhysicalConstants(c=c, hbar=hbar).omega(k) == omega


def test_scaled_quotient_has_the_plain_bits_wherever_they_stay_normal():
    rng = np.random.default_rng(7)
    for values in 10.0 ** rng.uniform(-60.0, 60.0, size=(2000, 5)):
        a, b, c, d, e = values.tolist()
        assert scaled_quotient((a, b, c, d, e)) == a * b * c * d * e
        assert scaled_quotient((a, b), (c, d, e)) == a * b / c / d / e
    assert scaled_quotient((1e200, 1e200, 1e-300)) == pytest.approx(1e100, rel=1e-15)
    assert scaled_quotient((1e-300,), (1e-200, 1e-200)) == pytest.approx(1e100, rel=1e-15)
    assert scaled_quotient((1e308,), (1e-10,)) == math.inf
    assert scaled_quotient((1e-300,), (1e300,)) == 0.0


def test_scaled_root_has_the_plain_bits_wherever_the_quotient_is_normal():
    rng = np.random.default_rng(25)
    normal = 0
    for a, b in 10.0 ** rng.uniform(-320.0, 307.0, size=(4000, 2)):
        a, b = float(a), float(b)
        for quotient, exact, factors in ((a * b, Fraction(a) * Fraction(b), ((a, b), ())),
                                         (a / b, Fraction(a) / Fraction(b), ((a,), (b,)))):
            if sys.float_info.min <= quotient < math.inf:
                normal += 1
                assert scaled_root(*factors) == math.sqrt(quotient), (a, b)
            elif exact < Fraction(sys.float_info.max) ** 2:  # the root is a float
                assert 0.0 < scaled_root(*factors) < math.inf, (a, b)
            else:
                with pytest.raises(OverflowError):
                    scaled_root(*factors)
    assert 2000 < normal < 7000  # both sides are sampled
    assert scaled_root((0.0, 1e308)) == 0.0
    assert scaled_root((128.0, sys.float_info.max)) == pytest.approx(1.5169e155, rel=1e-4)


def test_over_product_is_the_plain_quotient_wherever_b_c_is_normal():
    rng = np.random.default_rng(27)
    sides = dict.fromkeys(("normal", "subnormal", "zero", "inf"), 0)
    for a, b, c in 10.0 ** rng.uniform(-320.0, 308.0, size=(4000, 3)):
        a, b, c = float(a), float(b), float(c)
        if sys.float_info.min <= b * c < math.inf:
            sides["normal"] += 1
            assert over_product(a, b, c) == a / (b * c), (a, b, c)
        else:
            sides["inf" if b * c == math.inf else "subnormal" if b * c else "zero"] += 1
            assert over_product(a, b, c) == scaled_quotient((a,), (b, c)), (a, b, c)
    assert min(sides.values()) > 10, sides  # every side of the fork is sampled


def test_scaled_quotient_overflow_keeps_its_sign():
    assert scaled_quotient((-1e308,), (1e-10,)) == -math.inf
    assert scaled_quotient((1e200, -1e200)) == -math.inf


# The public functions each module defines: one name per concept, so a second spelling of a
# concept that already has its entry shows here.
PUBLIC_FUNCTIONS = {
    "majorana_lab": set(),
    "majorana_lab.common": {"constants", "coordinate", "energy", "level", "linspace",
                            "over_product", "scaled_quotient", "scaled_root"},
    "majorana_lab.hermite": {"hermite_pair_evaluator"},
    "majorana_lab.quadrature": {"integrate", "truncation_radius", "xlogx"},
    "majorana_lab.spinor": {"density_evaluator", "density_slices", "ladder_evaluator", "phase",
                            "space_frequency", "spinor_evaluator"},
    "majorana_lab.entropy": {"bbm_reports"},
    "majorana_lab.thermo": {"moment_sums", "report", "thermo_sweep"},
    "majorana_lab.cli": {"cmd_density", "cmd_entropy_density", "cmd_heatmap", "cmd_table1",
                         "cmd_thermo", "main"},
}


def test_each_module_defines_its_pinned_public_functions():
    package = Path(importlib.import_module("majorana_lab").__file__).parent
    assert {"majorana_lab" + ("" if path.stem == "__init__" else f".{path.stem}")
            for path in package.glob("*.py")} == set(PUBLIC_FUNCTIONS)
    for name, pinned in PUBLIC_FUNCTIONS.items():
        module = importlib.import_module(name)
        defined = {attr for attr, value in vars(module).items() if not attr.startswith("_")
                   and inspect.isfunction(value) and value.__module__ == name}
        assert defined == pinned, name


def test_constants_are_shared():
    from majorana_lab import common, entropy, quadrature, spinor, thermo

    # one failure for a tol that either method cannot certify, defined in common
    assert quadrature.NonConvergence is thermo.NonConvergence is common.NonConvergence
    assert common.NonConvergence.__module__ == common.__name__
    assert spinor.NATURAL_UNITS is NATURAL_UNITS
    assert entropy.DEFAULT_THETA == math.pi / 4

