import math
import struct

import numpy as np
import pytest

import majorana_lab
from majorana_lab.common import NATURAL_UNITS, OutOfRange, PhysicalConstants, linspace

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


def test_out_of_range_is_a_value_error_naming_its_parameter():
    exc = OutOfRange("T", 1e-300, "too cold")
    assert isinstance(exc, ValueError)
    assert (exc.param, exc.value, str(exc)) == ("T", 1e-300, "too cold")


def test_constants_are_shared():
    from majorana_lab import entropy, spinor, thermo

    assert spinor.PhysicalConstants is PhysicalConstants is thermo.PhysicalConstants
    assert spinor.NATURAL_UNITS is NATURAL_UNITS
    assert entropy.DEFAULT_THETA == math.pi / 4


def test_package_exports_resolve_lazily():
    for name in majorana_lab.__all__:
        assert getattr(majorana_lab, name) is not None, name
    assert majorana_lab.thermal_entropy is majorana_lab.thermo.entropy
    assert set(majorana_lab.__all__) <= set(dir(majorana_lab))
    with pytest.raises(AttributeError):
        majorana_lab.no_such_name
