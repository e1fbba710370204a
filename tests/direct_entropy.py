"""Shannon entropy by direct quadrature at the actual omega and space.

The library integrates once at omega = 1 and shifts the result by -/+ ln(omega)/2.
This oracle integrates -rho ln rho of the density at omega itself, in position or in
momentum space, so a test that compares the two checks the scaling law instead of
assuming it.
"""

from majorana_lab.quadrature import IntegrationSpec, integrate, truncation_radius, xlogx
from majorana_lab.spinor import SpinorState, probability_density_at_phase


def direct_entropy(n, omega, theta, space, tol=1e-10):
    """-integral(rho ln rho) over the space's coordinate, rho at frequency omega."""
    state = SpinorState(n=n, omega=omega)
    freq = omega if space == "position" else 1.0 / omega
    # ln(rho) adds ~freq*coord^2 growth on top of the degree-2n polynomial
    radius = truncation_radius(freq, n + 1, tail_tol=min(tol * 1e-2, 1e-12))
    spec = IntegrationSpec(truncation_radius=radius, target_abs_tol=tol)
    value, _ = integrate(
        lambda u: xlogx(probability_density_at_phase(state, u, theta, space)), spec)
    return -value
