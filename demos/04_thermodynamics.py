# Canonical-ensemble functions for a gas of the square-root-spectrum fermions.
#
# The closed-form partition function 1/2 + 1/(c hbar k beta^2) is a
# weak-coupling result: excellent when c hbar k beta^2 is small, but it tends
# to 1/2 instead of 1 as T -> 0, where the exact series must take over.  The
# sweep below prints both routes so the validity window is visible, and ends
# with the high-temperature heat-capacity plateau C_V/N -> 2 k_B.

from majorana_lab.common import linspace
from majorana_lab.thermo import EnsembleParams, moment_sums, partition_em, report, thermo_sweep

print("single-particle Z at k = 0.2: exact series vs closed form")
print("    T      x=k/T^2     Z_exact       Z_em      rel err")
for T in (0.1, 0.3, 1.0, 3.0, 10.0):
    ep = EnsembleParams(beta=1.0 / T, k=0.2)
    (z, _, _), n_terms, _ = moment_sums(ep)
    zem = partition_em(ep)
    flag = "  <- closed form out of its window" if ep.em_parameter > 0.1 else ""
    print(f"  {T:5.1f}  {ep.em_parameter:9.3g}  {z:10.6f}  {zem:10.6f}  {abs(zem - z) / z:8.2e}{flag}")

print("\nper-particle thermodynamics for N = 4, exact route (k = 0.4):")
rows = thermo_sweep(k_values=(0.4,), T_values=linspace(0.5, 10.0, 6), N=4)
print("    T        F/N        U/N        S/N      C_V/N")
for r in rows:
    print(f"  {r.T:5.2f}  {r.F_exact / 4:9.5f}  {r.U_exact / 4:9.5f}  {r.S_exact / 4:9.5f}  {r.C_V_exact / 4:9.5f}")
print("  (F falls, U climbs, and C_V approaches its plateau)")

print("\nhigh-temperature plateau of the heat capacity, closed form:")
for k in (0.2, 0.4, 0.8):
    cv = report(EnsembleParams(beta=1e-3, k=k, N=1)).C_V
    print(f"  k={k}: C_V/(N k_B) = {cv:.6f}")
print("  -> 2 for every slope, the relativistic linear-potential value")
