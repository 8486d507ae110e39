"""S^1 x S^{n-1}: the standard example separating the integer positivity
orders.  Its second-kind spectrum is -(n-2)/n once, 0 with multiplicity
n-1 and 1 with multiplicity (n-2)(n+1)/2, so the operator is
(n+1)-positive but not n-nonnegative.
"""

import numpy as np

import curvkind as ck

n = 5
R = ck.product_sphere(n)
eigs = ck.spectrum(ck.second_kind_matrix(R))

print(f"--- S^1 x S^{n-1}, n = {n} ---")
print("second-kind spectrum with multiplicities:")
for value, mult in ck.cluster_eigenvalues(eigs, ck.ricci_scalar(R).scale):
    print(f"  {value:+.6f}  x{mult}")

print("\npartial sums of the smallest eigenvalues:")
for k in (float(n), n + 1.0):
    print(f"  k = {k}: {ck.k_partial_sum(eigs, k):+.4f}")
print("so the operator is (n+1)-positive but not n-nonnegative.")

print("\nRicci tensor (flat circle direction first):")
print(np.round(ck.ricci_scalar(R).ricci, 12))

print("\ncertificates (none of the vanishing hypotheses hold):")
for c in ck.certify(ck.Analysis(R)):
    marker = "*" if c.holds else " "
    print(f" {marker} {c.theorem:<12} p={c.p}  {c.verdict}")

print("\nestimate hypothesis at kappa = -1 (it clears the bar easily):")
d = next(c for c in ck.certify(ck.Analysis(R), kappa=-1.0) if c.theorem == "D-hypothesis")
print("  holds:", d.holds)
