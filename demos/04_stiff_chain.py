"""Stiff oscillator chain: where explicit and fixed-point methods give up.

Seven spring pairs, one of them 1000x stiffer (frequency 1e4 vs 10). The
Hamiltonian is a quartic polynomial, so HBVM(6,3) conserves it exactly
(2k/s = 4). Three things are demonstrated on [0, 10]:

  1. a 6th-order explicit composition of Stoermer-Verlet diverges as soon as
     h * omega_max exceeds its linear stability limit (~1.6),
  2. fixed-point iteration on the stages stops converging at h = 5e-4,
  3. the triangular-splitting solver keeps working for h up to 0.5 -- four
     orders of magnitude beyond the explicit method -- with exact energy
     conservation.
"""
from composition6 import composition6_stormer_verlet  # demos/composition6.py
from hbvm import RunConfig, SolveOptions, fpu_modified, integrate

sysm = fpu_modified()
H0 = abs(sysm.H(sysm.y0))

print("explicit composition method (order 6, 18 force evaluations/step):")
for h in (1e-4, 2e-4):
    st = composition6_stormer_verlet(sysm, h, 10.0)
    out = "diverges" if st.diverged else f"rel energy err {st.max_hamiltonian_error / H0:.1e}"
    print(f"  h = {h:g}: {out}")
print()

# the convergent fixed-point run needs ~180 iterations per step, so keep the
# interval short here; at h = 5e-4 the iteration diverges within a few steps
print("fixed-point stage iteration, HBVM(6,3), t_end = 0.2:")
for h in (4e-4, 5e-4):
    _, st = integrate(RunConfig(system=sysm, k=6, s=3, h=h, t_end=0.2,
                                options=SolveOptions(solver="fixed_point"),
                                store_every=0))
    out = (f"{st.total_outer_iterations} iterations" if st.all_converged
           else f"fails at t = {st.failed_at:.4g}")
    print(f"  h = {h:g}: {out}")
print()

print("triangular-splitting solver (mu = 2 inner sweeps), HBVM(6,3):")
print(f"{'h':>8} {'outer iters':>12} {'rel energy err':>15}")
for h in (5e-3, 1e-2, 1e-1, 5e-1):
    _, st = integrate(RunConfig(system=sysm, k=6, s=3, h=h, t_end=10.0,
                                options=SolveOptions(solver="splitting", mu=2),
                                store_every=0))
    print(f"{h:>8g} {st.total_outer_iterations:>12} "
          f"{st.max_hamiltonian_error / H0:>15.1e}")
