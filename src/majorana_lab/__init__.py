"""Bound states, Shannon entropies, and thermodynamics of 1D linear Majorana fermions.

Library layout:

  hermite     normalized Hermite-Gauss functions, phi_n and phi_{n-1} in one sweep
  quadrature  adaptive integration with certified truncation radii
  spinor      two-component states, spectrum, momentum space, ladder maps
  entropy     position/momentum Shannon entropies and the BBM bound
  thermo      partition function (exact series + closed form) and F, U, S, C_V
  cli         reproducible CSV/JSON emission for all of the above
"""

from .entropy import (
    BBM_BOUND,
    BoundViolation,
    EntropyReport,
    bbm_report,
    entropic_density,
    shannon_momentum,
    shannon_position,
)
from .hermite import hermite_norm_fn
from .quadrature import IntegrationSpec, NonConvergence, integrate, truncation_radius, xlogx
from .spinor import (
    NATURAL_UNITS,
    PhysicalConstants,
    PotentialParams,
    SpinorState,
    SpinorValue,
    annihilation_apply,
    creation_apply,
    energy,
    ladder_down,
    ladder_up,
    momentum_spinor,
    phase,
    position_spinor,
    probability_density,
    probability_density_at_phase,
    state_energy,
)
from .thermo import (
    EnsembleParams,
    ThermoReport,
    TruncationBudget,
    heat_capacity,
    helmholtz,
    mean_energy,
    partition_em,
    partition_exact,
    thermo_sweep,
)
from .thermo import entropy as thermal_entropy

__version__ = "0.1.0"

__all__ = [
    "BBM_BOUND",
    "BoundViolation",
    "EntropyReport",
    "EnsembleParams",
    "IntegrationSpec",
    "NATURAL_UNITS",
    "NonConvergence",
    "PhysicalConstants",
    "PotentialParams",
    "SpinorState",
    "SpinorValue",
    "ThermoReport",
    "TruncationBudget",
    "annihilation_apply",
    "bbm_report",
    "creation_apply",
    "energy",
    "entropic_density",
    "heat_capacity",
    "helmholtz",
    "hermite_norm_fn",
    "integrate",
    "ladder_down",
    "ladder_up",
    "mean_energy",
    "momentum_spinor",
    "partition_em",
    "partition_exact",
    "phase",
    "position_spinor",
    "probability_density",
    "probability_density_at_phase",
    "shannon_momentum",
    "shannon_position",
    "state_energy",
    "thermal_entropy",
    "thermo_sweep",
    "truncation_radius",
    "xlogx",
]
