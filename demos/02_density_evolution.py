# Probability densities in both spaces, and their drift over time.
#
# For n >= 1 the density trades weight between |phi_n|^2 (at sin^2) and
# |phi_{n-1}|^2 (at cos^2), so the bright/dark bands slide with time while the
# total mass stays exactly 1.  The n = 0 sheet is frozen.  A coarse ASCII
# rendering of rho(y, t) stands in for the usual heatmap figure.

import math

from majorana_lab.common import linspace
from majorana_lab.quadrature import integrate, truncation_radius
from majorana_lab.spinor import SpinorState, density_evaluator, phase

omega, n = 0.2, 2
state = SpinorState(n, omega)

# mass conservation, checked by quadrature at several times
radius = truncation_radius(omega, n + 1, tail_tol=1e-13)
print(f"n={n}, omega={omega}: mass of rho(., t) by quadrature")
for t in (0.0, 1.7, 4.2):
    theta = phase(state, t)
    mass, _ = integrate(density_evaluator(state, theta), radius, 1e-11)
    print(f"  t={t:>4}: {mass:.12f}")

# momentum space is the same construction at inverted frequency: broad position
# densities pair with narrow momentum densities and vice versa
print("\npeak density at the origin (theta = pi/2 picks the pure upper component):")
for om in (0.2, 0.8):
    st = SpinorState(2, om)
    rho_y = density_evaluator(st, math.pi / 2, "position")(0.0)
    rho_p = density_evaluator(st, math.pi / 2, "momentum")(0.0)
    print(f"  omega={om}: rho_y(0)={rho_y:.6f}  rho_p(0)={rho_p:.6f}")

# ASCII heatmap: rows = time, columns = y, darker = more probable
period = 2 * math.pi / math.sqrt(2 * omega * n)
ys = linspace(-9, 9, 73)
shades = " .:-=+*#%@"
print(f"\nrho(y, t) for n={n} over one period T={period:.3f} (y in [-9, 9]):")
for frac in linspace(0.0, 1.0, 13):
    rho = list(map(density_evaluator(state, phase(state, frac * period)), ys))
    top = max(rho)
    row = "".join(shades[min(int(v / top * (len(shades) - 1)), len(shades) - 1)] for v in rho)
    print(f"  t/T={frac:4.2f} |{row}|")
print("\nnote the pattern at t/T = 0 repeating at t/T = 1 (and again at the half period,")
print("since the density weights are sin^2/cos^2)")
