"""The weighted eigenvalue-sum calculus: closed-form minima over capped
weight distributions, their equivalence with fractional partial sums, and
the per-degree thresholds C_p.
"""

import numpy as np

import curvkind as ck

rng = np.random.default_rng(7)

print("--- minimizing sum w_i l_i with 0 <= w_i <= W, sum w_i = S ---")
eigs = np.sort(rng.standard_normal(8))
print("eigenvalues:", np.round(eigs, 3))
for omega, total in [(1.0, 3.0), (0.5, 3.0), (2.0, 7.5)]:
    closed = ck.min_weighted_sum(eigs, omega, total)
    bracket = omega * ck.k_partial_sum(eigs, total / omega)
    print(f"  W={omega:<4} S={total:<4} closed={closed:+.6f} W*partial(S/W)={bracket:+.6f}")

print("\nnote the cap matters: lowering W with S fixed raises the minimum,")
print("because the mass is forced to spread onto larger eigenvalues.")

print("\n--- the thresholds C_p (weakest condition at p = n/2) ---")
n = 12
print(f"n = {n}:")
for p in range(1, n // 2 + 1):
    c = ck.constants(n, p)
    print(f"  p={p}:  C_p = {c.c_p:8.4f}   highest weight = {c.omega_improved:.4f} "
          f"  total = {c.total:.1f}")
print("Einstein threshold:", ck.constants(n, 1).n_einstein)
print("all-degrees threshold (n+2)/2 =", (n + 2) / 2)

print("\nfor p >= 5 and n >= 14 the threshold C_p exceeds n+1, so these")
print("conditions no longer force nonnegative Ricci curvature:")
for n in (14, 20, 30):
    print(f"  n={n}: C_5 = {ck.constants(n, 5).c_p:.3f}  vs  n+1 = {n+1}")

print("\n--- certified curvature-term bounds vs the exact minimum ---")
n = 6
analysis = ck.Analysis(ck.random_curvature(n, np.random.default_rng(1)))
for p in (1, 2, 3):
    exact = ck.ric_l_spectrum(analysis, p)[0]
    weak = ck.ric_l_lower_bound(analysis, p, "weak")
    improved = ck.ric_l_lower_bound(analysis, p, "improved")
    print(f"  p={p}: exact min eig {exact:+.4f}   weak bound {weak:+.4f}   "
          f"improved bound {improved:+.4f}")
