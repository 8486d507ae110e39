"""Operators of the second kind that are C(p, n)-positive and have a negative
Ricci curvature, built exactly.  Perturbing S^1 x S^{n-1} by kappa/2 (g o g)
shifts its second-kind spectrum by kappa and gives R_11 = (n-1) kappa, so a
witness exists exactly when the partial sum S_C at C = C(p, n) is positive,
i.e. C > n + (n-2)/n, and kappa = -S_C/(2C) < 0 builds one.  At n = 14 that
is p = 4..7, and Ric_L stays positive on p-forms at every witness.
"""

import curvkind as ck

n = 14
base = ck.Analysis(ck.product_sphere(n))
print(f"--- S^1 x S^{n-1} perturbed by kappa/2 (g o g), n = {n} ---")
print(f"a witness needs C(p, {n}) > n + (n-2)/n = {n + (n - 2) / n:.4f}\n")
for p in range(1, n // 2 + 1):
    c = ck.constants(n, p).c_p
    s_c = ck.k_partial_sum(base.second_kind, c)
    if s_c <= 0:
        print(f"p = {p}  C = {c:.4f}  no witness (S_C = {s_c:+.4f})")
        continue
    kappa = -s_c / (2 * c)
    a = ck.Analysis(ck.perturb_constant(base.R, kappa))
    verdict = next(x.verdict for x in ck.certify(a) if x.theorem == "C(a)" and x.p == p)
    low = ck.ric_l_minima(a, [p])[p]
    print(f"p = {p}  C = {c:.4f}  witness at kappa = {kappa:+.5f}:  C(a) {verdict}, "
          f"R_11 = {a.summary.ricci[0, 0]:+.4f}, lambda_min(Ric_L) = {low:.4f}")
