"""The curvature term on p-forms and its exact decomposition through
trace-free symmetric tensors, on random algebraic curvature data.
"""

import numpy as np

import curvkind as ck

rng = np.random.default_rng(42)
n, p = 5, 2
R = ck.random_curvature(n, rng)
w = ck.PForm.random(n, p, rng)

print(f"--- random algebraic curvature tensor, n = {n}, random {p}-form ---")
rep = ck.bochner_decomposition(R, w)
print(f"3/2 g(Ric_L w, w)      = {rep.lhs:+.10f}")
print(f"  operator term        = {rep.term_operator:+.10f}")
print(f"  Ricci term           = {rep.term_ricci:+.10f}")
print(f"  scalar term          = {rep.term_scal:+.10f}")
print(f"  residual             = {rep.residual:.2e}")

print("\nthe operator term evaluated three independent ways:")
canonical = ck.second_kind_form_term(R, w)
exp = ck.form_s02_expansion(w)
lam, Q = np.linalg.eigh(ck.second_kind_matrix(R))
eigen = float(np.sum(lam * np.diag(Q.T @ exp.gram() @ Q)))
ogiue = ck.ogiue_tachibana_term(R, w)
print(f"  canonical basis      = {canonical:+.12f}")
print(f"  eigenbasis weights   = {eigen:+.12f}")
print(f"  non-orthogonal family= {ogiue:+.12f}")

print("\nexpansion weights |S_a w|^2 over the canonical trace-free basis:")
print("  largest weight :", exp.weights.max())
print("  cap p(n-p)/n   :", p * (n - p) / n * w.norm_sq)
print("  total          :", exp.total)
print("  closed form    :", p * (n - p) / n * (n + 2) / 2 * w.norm_sq)

print("\nPoincare duality at the algebraic level: Ric_L spectra at p and n-p")
# ric_l_spectrum solves p and n-p as one class, so the two matrices are
# solved here one by one
analysis = ck.Analysis(R)
a, b = (ck.spectrum(ck.ric_l_matrix(analysis, k)) for k in (p, n - p))
print("  max |spectrum(p) - spectrum(n-p)| =", np.abs(a - b).max())
