"""Bound states, Shannon entropies, and thermodynamics of 1D linear Majorana fermions.

Library layout (import each name from the module that defines it):

  common      units, defaults, the range and tolerance errors, a float linspace, array mapping
  hermite     normalized Hermite-Gauss functions, phi_n and phi_{n-1} in one sweep
  quadrature  adaptive pure-Python integration with certified truncation radii
  spinor      two-component states, spectrum, momentum space, ladder maps
  entropy     position/momentum Shannon entropies and the BBM bound
  thermo      partition function (exact series + closed form) and F, U, S, C_V
  cli         reproducible CSV/JSON emission for all of the above

`import majorana_lab` loads none of them.  Every number is a float computation;
only an array handed to the library imports numpy, to map it
(common.elementwise), so no command loads it.
"""

__version__ = "0.1.0"
