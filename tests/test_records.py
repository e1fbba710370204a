"""The contract of the six value records: construction, defaults, validation, immutability
and repr.  It holds for any record implementation, so it pins what callers may rely on."""

import copy
import math
import pickle

import pytest

from majorana_lab.common import NATURAL_UNITS, LevelError, OutOfRange, PhysicalConstants
from majorana_lab.entropy import EntropyReport
from majorana_lab.spinor import SpinorState, SpinorValue
from majorana_lab.thermo import EnsembleParams, ThermoReport

NAN, INF = math.nan, math.inf
THERMO_FIELDS = ("beta", "k", "N", "T", "Z_exact", "Z_em", "F", "U", "S", "C_V", "F_exact",
                 "U_exact", "S_exact", "C_V_exact", "truncation_n", "tail_bound")
ENTROPY_FIELDS = ("n", "omega", "theta", "S_y", "S_p", "sum", "bbm_bound", "quad_err")

# record, its field names in order, and a full set of valid values for them
RECORDS = [
    (PhysicalConstants, ("c", "hbar", "k_B"), (2.0, 0.5, 3.0)),
    (SpinorState, ("n", "omega"), (3, 0.4)),
    (SpinorValue, ("comp1", "comp2"), (0.5 + 0.25j, -0.125j)),
    (EnsembleParams, ("beta", "k", "N", "pc"), (2.0, 0.4, 3, PhysicalConstants(c=2.0))),
    (EntropyReport, ENTROPY_FIELDS, (2, 0.4, 0.7, 1.25, 1.5, 2.75, 2.14, 1e-11)),
    (ThermoReport, THERMO_FIELDS, tuple(float(i) + 0.5 for i in range(14)) + (200, 1e-12)),
]
IDS = [record.__name__ for record, _, _ in RECORDS]


@pytest.mark.parametrize("record, names, values", RECORDS, ids=IDS)
def test_keyword_and_positional_construction_agree(record, names, values):
    by_keyword, by_position = record(**dict(zip(names, values))), record(*values)
    assert by_keyword == by_position
    assert hash(by_keyword) == hash(by_position)
    assert [getattr(by_keyword, name) for name in names] == list(values)
    # the last field set to the first field's value; an ensemble's constants, which a float
    # would make invalid, set to natural units
    last = NATURAL_UNITS if names[-1] == "pc" else values[0]
    assert by_keyword != by_keyword._replace(**{names[-1]: last})


@pytest.mark.parametrize("record, names, values", RECORDS, ids=IDS)
def test_repr_names_every_field_in_order(record, names, values):
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record(*values)) == f"{record.__name__}({fields})"


@pytest.mark.parametrize("record, names, values", RECORDS, ids=IDS)
def test_records_are_immutable(record, names, values):
    rec = record(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, values[0])
    with pytest.raises(AttributeError):
        rec.extra = 1.0
    assert [getattr(rec, name) for name in names] == list(values)


def test_defaults():
    assert PhysicalConstants() == NATURAL_UNITS == PhysicalConstants(1.0, 1.0, 1.0)
    assert repr(NATURAL_UNITS) == "PhysicalConstants(c=1.0, hbar=1.0, k_B=1.0)"
    ep = EnsembleParams(1.5, 0.2)
    assert (ep.N, ep.pc) == (1, NATURAL_UNITS)
    assert ep.pc is NATURAL_UNITS
    assert repr(ep) == ("EnsembleParams(beta=1.5, k=0.2, N=1, "
                        "pc=PhysicalConstants(c=1.0, hbar=1.0, k_B=1.0))")


@pytest.mark.parametrize("build", [
    SpinorValue, EntropyReport, ThermoReport,
    lambda: SpinorState(1), lambda: EnsembleParams(1.0),
    lambda: PhysicalConstants(1.0, 1.0, 1.0, 1.0),
    lambda: SpinorState(1, 0.2, mass=0.0),
    lambda: SpinorState(1, 0.2, 0.3),
], ids=["SpinorValue", "EntropyReport", "ThermoReport", "SpinorState",
        "EnsembleParams", "PhysicalConstants-extra", "SpinorState-unknown", "SpinorState-extra"])
def test_missing_or_unknown_arguments_are_type_errors(build):
    with pytest.raises(TypeError):
        build()


# one case per invalid value, named by its record and the value it refuses
INVALID = {
    "PhysicalConstants-c=0": lambda: PhysicalConstants(c=0.0),
    "PhysicalConstants-hbar=0": lambda: PhysicalConstants(hbar=0),
    "PhysicalConstants-k_B=-1": lambda: PhysicalConstants(k_B=-1.0),
    "PhysicalConstants-c=nan": lambda: PhysicalConstants(c=NAN),
    "PhysicalConstants-k_B=nan": lambda: PhysicalConstants(1.0, 1.0, NAN),
    "SpinorState-n=-1": lambda: SpinorState(n=-1, omega=0.2),
    "SpinorState-n=1.0": lambda: SpinorState(1.0, 0.2),
    "SpinorState-n=str": lambda: SpinorState("1", 0.2),
    "SpinorState-omega=0": lambda: SpinorState(1, 0.0),
    "SpinorState-omega=-0.2": lambda: SpinorState(1, -0.2),
    "SpinorState-omega=inf": lambda: SpinorState(1, INF),
    "SpinorState-omega=nan": lambda: SpinorState(1, NAN),
    "EnsembleParams-beta=0": lambda: EnsembleParams(beta=0, k=0.2),
    "EnsembleParams-beta=-1": lambda: EnsembleParams(-1.0, 0.2),
    "EnsembleParams-beta=inf": lambda: EnsembleParams(INF, 0.2),
    "EnsembleParams-beta=nan": lambda: EnsembleParams(NAN, 0.2),
    "EnsembleParams-k=0": lambda: EnsembleParams(1.0, 0.0),
    "EnsembleParams-k=nan": lambda: EnsembleParams(1.0, NAN),
    "EnsembleParams-N=0": lambda: EnsembleParams(1.0, 0.2, N=0),
    "EnsembleParams-N=-2": lambda: EnsembleParams(1.0, 0.2, -2),
    "SpinorState-n=True": lambda: SpinorState(True, 0.5),
    "SpinorState-n=False": lambda: SpinorState(False, 0.5),
    "EnsembleParams-N=nan": lambda: EnsembleParams(1.0, 0.2, N=NAN),
    "EnsembleParams-N=inf": lambda: EnsembleParams(1.0, 0.2, N=INF),
    "EnsembleParams-N=1.5": lambda: EnsembleParams(1.0, 0.2, N=1.5),
    "EnsembleParams-N=True": lambda: EnsembleParams(1.0, 0.2, N=True),
    "EnsembleParams-N=2.0": lambda: EnsembleParams(1.0, 0.2, N=2.0),
    "EnsembleParams-N=str": lambda: EnsembleParams(1.0, 0.2, N="2"),
    "EnsembleParams-N=None": lambda: EnsembleParams(1.0, 0.2, N=None),
    "EnsembleParams-N=1e300": lambda: EnsembleParams(1.0, 0.2, N=1e300),
    "EnsembleParams-pc=2.0": lambda: EnsembleParams(1.0, 0.2, pc=2.0),
    "EnsembleParams-N=10**309": lambda: EnsembleParams(1.0, 0.2, N=10**309),
    "EnsembleParams-coupling-above": lambda: EnsembleParams(1e200, 1e200),
    "EnsembleParams-coupling-below": lambda: EnsembleParams(1e-160, 1e-10),
    "EnsembleParams-c_hbar-underflows":
        lambda: EnsembleParams(1.0, 1.0, pc=PhysicalConstants(c=1e-200, hbar=1e-200)),
}


@pytest.mark.parametrize("build", INVALID.values(), ids=INVALID.keys())
def test_every_validation_raises_value_error(build):
    with pytest.raises(ValueError):
        build()


# one case per invalid field that _replace or _make puts into a valid record
INVALID_REMAKES = {
    "PhysicalConstants-c=0": (lambda: PhysicalConstants()._replace(c=0.0), ValueError),
    "SpinorState-n=-1": (lambda: SpinorState(1, 0.2)._replace(n=-1), LevelError),
    "SpinorState-_make-omega=-0.2": (lambda: SpinorState._make([1, -0.2]), ValueError),
    "EnsembleParams-N=0": (lambda: EnsembleParams(1.0, 1.0)._replace(N=0), LevelError),
}


@pytest.mark.parametrize("build, error", INVALID_REMAKES.values(), ids=INVALID_REMAKES.keys())
def test_replace_and_make_check_the_fields(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("beta", [1e-200, 1e200])
def test_replace_refuses_a_coupling_out_of_range(beta):
    with pytest.raises(OutOfRange) as excinfo:
        EnsembleParams(1.0, 1.0)._replace(beta=beta)
    assert excinfo.value.param == "em_parameter"


@pytest.mark.skipif(not hasattr(copy, "replace"), reason="copy.replace is new in Python 3.13")
def test_copy_replace_checks_the_fields():
    assert copy.replace(SpinorState(1, 0.2), omega=0.5) == SpinorState(1, 0.5)
    with pytest.raises(LevelError):
        copy.replace(SpinorState(1, 0.2), n=-1)
    with pytest.raises(OutOfRange):
        copy.replace(EnsembleParams(1.0, 1.0), beta=1e200)


@pytest.mark.parametrize("record, names, values", RECORDS, ids=IDS)
def test_remade_records_keep_their_type_and_values(record, names, values):
    rec = record(*values)
    for remade in (record._make(values), rec._replace(), copy.copy(rec), copy.deepcopy(rec),
                   pickle.loads(pickle.dumps(rec))):
        assert type(remade) is record and remade == rec


def test_validation_messages():
    for name in ("c", "hbar", "k_B"):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
            PhysicalConstants(**{name: 0.0})
    with pytest.raises(ValueError, match="^k must be positive and finite$"):
        EnsembleParams(1.0, 0.0)
    with pytest.raises(ValueError, match="quantum number n must be an integer >= 0"):
        SpinorState(-1, 0.2)
    with pytest.raises(ValueError, match="beta must be positive and finite"):
        EnsembleParams(0.0, 0.2)
    for count in (0, 1.5, NAN):
        with pytest.raises(ValueError, match="^N must be an integer >= 1$"):
            EnsembleParams(1.0, 0.2, N=count)


def test_methods_and_properties_survive():
    pc = PhysicalConstants(c=2.0, hbar=0.5, k_B=4.0)
    assert pc.omega(0.3) == 0.3
    ep = EnsembleParams(0.5, 0.3, 2, pc)
    assert ep.em_parameter == 0.3 * 0.5**2
