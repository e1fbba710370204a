"""The bits of every product of the constants, pinned at normal constants.

constant_product_bits.json holds float.hex of each result (or the name of the exception it
raised) over levels n, frequencies omega, coordinates y, times t, slopes k and inverse
temperatures beta, at four normal (c, hbar) pairs.  A change in how c hbar, c hbar k beta^2
or sqrt(2 n omega) c t is formed must leave all of them as they are.
"""

import json
from pathlib import Path

import pytest

from majorana_lab.common import PhysicalConstants
from majorana_lab.spinor import SpinorState, ladder_evaluator, phase
from majorana_lab.thermo import EnsembleParams, moment_sums

BITS = json.loads((Path(__file__).parent / "constant_product_bits.json").read_text())

CONSTANTS = ((1.0, 1.0), (1.2, 0.8), (3e8, 1.05e-34), (2.0, 1.0))
LEVELS = (0, 1, 2, 5, 64)
OMEGAS = (1e-300, 1e-10, 0.2, 1.0, 7.0, 1e10, 1e300)
YS = (0.0, 0.3, -1.7, 4.0, 1e10, -1e308)
TIMES = (0.0, 0.5, -3.0, 1e10, 1e300)
SLOPES = (1e-250, 1e-10, 0.2, 1.0, 7.0, 1e10, 1e250)
BETAS = (1e-100, 1e-10, 0.5, 1.0, 3.0, 1e10, 1e100)


def outcome(take):
    """float.hex of take()'s float (or of each float of a sequence), else its exception's name."""
    try:
        value = take()
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc).__name__
    return value.hex() if isinstance(value, float) else [v.hex() for v in value]


def grid():
    """(function name, arguments, outcome) in the order of the file.  The ladder rows are
    labelled annihilation_apply (A phi_n) and creation_apply (A+ phi_n): index 0 and 1 of
    ladder_evaluator's pair."""
    for c, hbar in CONSTANTS:
        pc = PhysicalConstants(c=c, hbar=hbar)
        for k in SLOPES:
            yield "omega", [c, hbar, k], outcome(lambda: pc.omega(k))
        for n in LEVELS:
            for omega in OMEGAS:
                state = SpinorState(n, omega)
                for t in TIMES:
                    yield "phase", [c, hbar, n, omega, t], outcome(lambda: phase(state, t, pc))
                ladder = ladder_evaluator(state, pc)
                for index, name in enumerate(("annihilation_apply", "creation_apply")):
                    floats = outcome(lambda: [ladder(y)[index] for y in YS])
                    yield name, [c, hbar, n, omega], floats
        for beta in BETAS:
            for k in SLOPES:
                try:
                    ep = EnsembleParams(beta=beta, k=k, pc=pc)
                except ValueError as exc:
                    yield "em_parameter", [c, hbar, beta, k], type(exc).__name__
                    continue
                yield "em_parameter", [c, hbar, beta, k], outcome(lambda: ep.em_parameter)
                (t0, t1, t2), _, bound = moment_sums(ep)
                yield "moment_sums", [c, hbar, beta, k], [v.hex() for v in (t0, t1, t2, bound)]


def test_constant_products_keep_their_bits():
    got = {}
    for name, args, result in grid():
        got.setdefault(name, []).append([*args, result])
    assert sorted(got) == sorted(BITS)
    for name, rows in BITS.items():
        assert len(got[name]) == len(rows), name
        for row, pinned in zip(got[name], rows):
            assert row == pinned, name


@pytest.mark.parametrize("name", ["phase", "annihilation_apply", "omega", "em_parameter",
                                  "moment_sums"])
def test_the_pins_cover_finite_values(name):
    # most pinned outcomes are values, not refusals
    values = [row[-1] for row in BITS[name]]
    assert sum(isinstance(v, list) or v.startswith(("0x", "-0x")) for v in values) > len(values) / 2
