"""SU(3)/SO(3): a rational homology sphere whose curvature operator of the
second kind is indefinite.  The tangent space is realized as symmetric
traceless 3x3 matrices with <X,Y> = tr(XY) and the symmetric-space
curvature R(X,Y,Z,W) = -tr([X,Y][Z,W]).
"""

import numpy as np

import curvkind as ck

R = ck.su3_so3()
ck.validate_curvature(R)
summary = ck.ricci_scalar(R)

print("--- SU(3)/SO(3), n = 5 ---")
print("Einstein with Ric = 3g: defect =", summary.einstein_defect)

print("\nfirst-kind (two-form) spectrum:")
for value, mult in ck.cluster_eigenvalues(ck.spectrum(ck.first_kind_matrix(R))):
    print(f"  {value:+.6f}  x{mult}")

eigs = ck.spectrum(ck.second_kind_matrix(R))
print("second-kind spectrum:")
for value, mult in ck.cluster_eigenvalues(eigs):
    print(f"  {value:+.6f}  x{mult}")

profile = ck.k_positivity_profile(eigs)
print("\npositivity profile:", profile)
print("  sum of 8 smallest:", ck.k_partial_sum(eigs, 8.0))
print("  sum of 9 smallest:", ck.k_partial_sum(eigs, 9.0))
print("so the operator is 9-positive but not 8-nonnegative: the space sits")
print("just outside every vanishing hypothesis, as it must, being a")
print("non-spherical rational homology sphere.")

N = ck.constants(5, 1).n_einstein
print(f"\nEinstein threshold N = {N:.4f}; partial sum there:",
      f"{ck.k_partial_sum(eigs, N):+.4f}  -> certificate fails")

print("\nyet the curvature term on forms is nonnegative (it is Einstein")
print("with positive scalar curvature, consistent with b_1 = b_2 = 0):")
for p in (1, 2):
    print(f"  p={p}: min eig Ric_L =", ck.ric_l_spectrum(ck.Analysis(R), p)[0])
