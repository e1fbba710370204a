# Bound states of the linear potential, and the ladder structure behind them.
#
# The spectrum is E_n = sqrt(2 c hbar k n): a square-root staircase rather than
# the evenly spaced oscillator ladder, with a genuine zero mode at n = 0.  The
# first-order operator A = c hbar d/dy + k y annihilates the ground state and
# walks the Hermite-Gauss tower one rung at a time.

import math

import numpy as np

from majorana_lab.hermite import hermite_norm_fn
from majorana_lab.spinor import (
    PotentialParams,
    SpinorState,
    annihilation_apply,
    energy,
    ladder_down,
    ladder_up,
    position_spinor,
    state_energy,
)

pp = PotentialParams(k=0.2)
omega = pp.omega()
print(f"slope k = {pp.k}, effective frequency omega = k/(c hbar) = {omega}\n")

print("level   E_n = sqrt(2 c hbar k n)")
for n in range(7):
    print(f"  n={n}   {energy(n, pp):.6f}")

# The n = 0 state is stationary: its lower component vanishes identically and
# the Gaussian upper component carries no phase.
state0 = SpinorState.from_potential(0, pp)
for t in (0.0, 3.0, 17.0):
    v = position_spinor(state0, 0.5, t)
    print(f"\nground state at y=0.5, t={t:>4}: ({v.comp1:.8f}, {v.comp2})", end="")
print()

# Excited spinors oscillate between the phi_n (upper) and phi_{n-1} (lower)
# basis functions; each evaluation reports both components.
state2 = SpinorState.from_potential(2, pp)
print("\nn=2 spinor at y=1.0 over a quarter period:")
period = 2 * math.pi / math.sqrt(2 * omega * 2)
for frac in (0.0, 0.125, 0.25):
    v = position_spinor(state2, 1.0, frac * period)
    print(f"  t/T={frac:5.3f}: comp1={v.comp1:+.6f}  comp2={v.comp2:+.6f}")

# Ladder checks: A phi_{n+1} = E_{n+1} phi_n pointwise, and A phi_0 = 0.
ys = np.linspace(-8.0, 8.0, 201)
for n in range(4):
    upper = SpinorState(n + 1, omega)
    residual = annihilation_apply(upper, ys) - state_energy(upper) * hermite_norm_fn(n, omega, ys)
    print(f"\n|A phi_{n+1} - E_{n+1} phi_{n}|_inf = {np.max(np.abs(residual)):.2e}", end="")
print(f"\n|A phi_0|_inf               = {np.max(np.abs(annihilation_apply(SpinorState(0, omega), ys))):.2e}")

# Round trip: up then down reproduces the starting function to round-off.
raised = ladder_up(SpinorState(3, omega), ys)
lowered = ladder_down(SpinorState(4, omega), ys)
print(f"|up(3) - phi_4|_inf         = {np.max(np.abs(raised - hermite_norm_fn(4, omega, ys))):.2e}")
print(f"|down(4) - phi_3|_inf       = {np.max(np.abs(lowered - hermite_norm_fn(3, omega, ys))):.2e}")
