# Bound states of the linear potential, and the ladder structure behind them.
#
# The spectrum is E_n = sqrt(2 c hbar k n): a square-root staircase rather than
# the evenly spaced oscillator ladder, with a genuine zero mode at n = 0.  The
# first-order operator A = c hbar d/dy + k y annihilates the ground state and
# walks the Hermite-Gauss tower one rung at a time.

import math

from majorana_lab.common import NATURAL_UNITS, energy, linspace
from majorana_lab.hermite import hermite_pair_evaluator
from majorana_lab.spinor import SpinorState, ladder_evaluator, phase, spinor_evaluator

k = 0.2
omega = NATURAL_UNITS.omega(k)
print(f"slope k = {k}, effective frequency omega = k/(c hbar) = {omega}\n")

print("level   E_n = sqrt(2 c hbar k n)")
for n in range(7):
    print(f"  n={n}   {energy(n, k):.6f}")

# The n = 0 state is stationary: its lower component vanishes identically and
# the Gaussian upper component carries no phase.
state0 = SpinorState(0, omega)
for t in (0.0, 3.0, 17.0):
    v = spinor_evaluator(state0, phase(state0, t))(0.5)
    print(f"\nground state at y=0.5, t={t:>4}: ({v.comp1:.8f}, {v.comp2})", end="")
print()

# Excited spinors oscillate between the phi_n (upper) and phi_{n-1} (lower)
# basis functions; each evaluation reports both components.
state2 = SpinorState(2, omega)
print("\nn=2 spinor at y=1.0 over a quarter period:")
period = 2 * math.pi / math.sqrt(2 * omega * 2)
for frac in (0.0, 0.125, 0.25):
    v = spinor_evaluator(state2, phase(state2, frac * period))(1.0)
    print(f"  t/T={frac:5.3f}: comp1={v.comp1:+.6f}  comp2={v.comp2:+.6f}")

# Ladder checks: A phi_{n+1} = E_{n+1} phi_n pointwise, and A phi_0 = 0.
ys = linspace(-8.0, 8.0, 201)
for n in range(4):
    ladder = ladder_evaluator(SpinorState(n + 1, omega))  # y -> (A phi_{n+1}, A+ phi_{n+1})
    e_upper = energy(n + 1, k)
    phi_n = hermite_pair_evaluator(n, omega)
    residual = max(abs(ladder(y)[0] - e_upper * phi_n(y)[0]) for y in ys)
    print(f"\n|A phi_{n+1} - E_{n+1} phi_{n}|_inf = {residual:.2e}", end="")
ground = ladder_evaluator(SpinorState(0, omega))
print(f"\n|A phi_0|_inf               = {max(abs(ground(y)[0]) for y in ys):.2e}")

# Round trip: A+ phi_3 / E_4 and A phi_4 / E_4 reproduce phi_4 and phi_3 to round-off.
e_4 = energy(4, k)
phi_4, phi_3 = hermite_pair_evaluator(4, omega), hermite_pair_evaluator(3, omega)
up, down = ladder_evaluator(SpinorState(3, omega)), ladder_evaluator(SpinorState(4, omega))
up_err = max(abs(up(y)[1] / e_4 - phi_4(y)[0]) for y in ys)
down_err = max(abs(down(y)[0] / e_4 - phi_3(y)[0]) for y in ys)
print(f"|up(3) - phi_4|_inf         = {up_err:.2e}")
print(f"|down(4) - phi_3|_inf       = {down_err:.2e}")
