"""Bound states, Shannon entropies, and thermodynamics of 1D linear Majorana fermions.

Library layout:

  common      units, defaults, the range and tolerance errors, a float linspace, array mapping
  hermite     normalized Hermite-Gauss functions, phi_n and phi_{n-1} in one sweep
  quadrature  adaptive pure-Python integration with certified truncation radii
  spinor      two-component states, spectrum, momentum space, ladder maps
  entropy     position/momentum Shannon entropies and the BBM bound
  thermo      partition function (exact series + closed form) and F, U, S, C_V
  cli         reproducible CSV/JSON emission for all of the above

The package imports lazily (PEP 562): `majorana_lab.X` loads X's module on
first use.  Every number is a float computation; only an array handed to the
library imports numpy, to map it (common.elementwise), so no command loads it.
"""

import importlib

__version__ = "0.1.0"

# module: its public names.
_EXPORTS = {
    "common": "NATURAL_UNITS NonConvergence PhysicalConstants",
    "entropy": ("BBM_BOUND BoundViolation EntropyReport bbm_report entropic_density "
                "shannon_momentum shannon_position"),
    "hermite": "hermite_norm_fn",
    "quadrature": "integrate truncation_radius xlogx",
    "spinor": ("PotentialParams SpinorState annihilation_apply creation_apply energy "
               "ladder_down ladder_up momentum_spinor phase position_spinor probability_density "
               "probability_density_at_phase state_energy"),
    "thermo": "EnsembleParams ThermoReport partition_em partition_exact thermo_sweep",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
