"""Round sphere walkthrough: the simplest model where every operator is
explicit.  The unit-sphere curvature tensor R_ijkl = d_ik d_jl - d_il d_jk
turns the trace-free symmetric action into the identity, so every derived
quantity can be checked against a closed form.
"""

import numpy as np

import curvkind as ck

n = 5
R = ck.constant_curvature(n, 1.0)
# validates R, and holds what the operators, certificates and Ric_L read about it
analysis = ck.Analysis(R)

print(f"--- unit sphere, n = {n} ---")
summary = analysis.summary
print("Ric - (n-1) id, max |entry|:", np.abs(summary.ricci - (n - 1) * np.eye(n)).max())
print("scal =", summary.scalar, "(closed form n(n-1) =", n * (n - 1), ")")

M = ck.second_kind_matrix(R)
print("\nsecond-kind operator is the identity on the", len(M), "dimensional")
print("space of trace-free symmetric tensors, max |M - I| =", np.abs(M - np.eye(len(M))).max())

F = analysis.first_kind
print("two-form operator is the identity on", len(F), "wedges, max |F - I| =",
      np.abs(F - np.eye(len(F))).max())

print("\ntrace identities:")
print("  tr(second kind) =", np.trace(M), " vs (n+2)/(2n) scal =", (n + 2) / (2 * n) * summary.scalar)
print("  tr(first kind)  =", np.trace(F), " vs scal/2 =", summary.scalar / 2)

print("\nRic_L on p-forms is p(n-p) times the identity:")
for p in range(1, n):
    eigs = ck.ric_l_spectrum(analysis, p)
    print(f"  p={p}: eigenvalues {eigs.min():.12f} .. {eigs.max():.12f}  (p(n-p) = {p*(n-p)})")

print("\nevery certificate holds on the sphere:")
for c in ck.certify(analysis):
    print(f"  {c.theorem:<12} {c.verdict:<6} {c.conclusion}")
