# Shannon entropies in position and momentum space, and the uncertainty bound.
#
# Three things to watch in the table below:
#   * down each omega column, S_y falls and S_p rises by exactly ln(2)/2 per
#     omega doubling, so their sum never moves: localizing y delocalizes p.
#     The library uses this scaling law as its algorithm: one quadrature of
#     S_1(n, theta) at omega = 1 serves every omega and both spaces, with
#     S_y = S_1 - ln(omega)/2 and S_p = S_1 + ln(omega)/2, so the sum 2 S_1 is
#     the same to the last bit for every omega (the test suite checks the law
#     against direct quadratures at omega itself);
#   * the sum grows with the level n but never dips below 1 + ln(pi);
#   * at n = 0 the state is the Gaussian minimizer, so the bound is saturated
#     to all digits the quadrature can certify.

import math

from majorana_lab.entropy import BBM_BOUND, bbm_reports

print(f"uncertainty bound 1 + ln(pi) = {BBM_BOUND:.5f} (evaluation phase theta = pi/4)\n")
print(" n  omega      S_y      S_p    S_y+S_p   margin")
for n in range(4):
    for rep in bbm_reports(n, (0.2, 0.4, 0.8)):  # one quadrature for the level's three omegas
        print(f" {n}   {rep.omega:.1f}   {rep.S_y:8.5f} {rep.S_p:8.5f} {rep.sum:9.5f}  {rep.sum - BBM_BOUND:+.2e}")
    print()

print("scaling check at n = 1: S_y(2w) - S_y(w) vs -ln(2)/2 =", f"{-0.5 * math.log(2):+.6f}")
for omega in (0.2, 0.4):
    low, high = bbm_reports(1, (omega, 2 * omega))
    print(f"  omega {omega} -> {2 * omega}: {high.S_y - low.S_y:+.6f}")

print("\nclosed form vs quadrature for the Gaussian ground state:")
for rep in bbm_reports(0, (0.05, 1.0, 5.0)):
    analytic = 0.5 * (1 + math.log(math.pi / rep.omega))
    print(f"  omega={rep.omega:>4}: S_y = {rep.S_y:.10f}   analytic {analytic:.10f}")

print("\nmomentum side mirrors under omega -> 1/omega:")
narrow, broad = bbm_reports(0, (0.2, 5.0))
print(f"  S_p(0, 0.2) = {narrow.S_p:.10f}")
print(f"  S_y(0, 5.0) = {broad.S_y:.10f}")
