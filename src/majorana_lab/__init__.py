"""Bound states, Shannon entropies, and thermodynamics of 1D linear Majorana fermions.

Library layout (import each name from the module that defines it):

  common      units, defaults, the range and tolerance errors, a float linspace
  hermite     normalized Hermite-Gauss functions, phi_n and phi_{n-1} in one sweep
  quadrature  adaptive pure-Python integration with certified truncation radii
  spinor      two-component states, spectrum, momentum space, ladder maps
  entropy     position/momentum Shannon entropies and the BBM bound
  thermo      partition function (exact series + closed form) and F, U, S, C_V
  cli         reproducible CSV/JSON emission for all of the above

`import majorana_lab` loads none of them.  Every number is a float computation on one
real coordinate at a time, and no module imports numpy.
"""

__version__ = "0.1.0"
