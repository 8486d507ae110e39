"""The one scale rule of every tolerance floor.

Each floor in the library is one of the relative constants below times a
scale of the input, never an absolute number.  Multiplying R by 2^e then
multiplies every floor by 2^e exactly, so no verdict depends on the units
of R.  The scales are:

* peak(x), the largest absolute entry of an array: of R for the curvature
  symmetries (checked once, when an operators.Analysis is built), of a
  matrix handed to operators.spectrum for its symmetry gate, of the
  second-kind spectrum (its spectral radius, 0 only when R = 0) for the
  certificates;
* unit_scale(R.components), peak rounded down to a power of two, recorded
  as CurvatureSummary.scale, for the Einstein test and the eigenvalue
  clusters.  A spectrum can be roundoff around 0 while R is not (Ric_L on
  1-forms of a Ricci-flat R), so those two floors read R's scale, not only
  the spectrum's own;
* s |w|^2, s the unit scale of R, for the residual of an identity in R
  and a form w (s |T|^2 for a general tensor T); s for one in R alone and
  |w|^2 for one in w alone.  residual(value, expected, scale) =
  |value - expected| / (|expected| + scale) then reads the same under
  R -> 2^e R and w -> 2^f w.

CAPACITY is not a floor: it is a unitless slack on a ratio of weights.
The CHECK_* constants are not floors either: they gate the values the
entries of selftest.CHECKS yield, which already carry their scale.
"""

import math

import numpy as np

# largest asymmetry of a matrix, and largest curvature-symmetry residual
SYMMETRY = 1e-12
# a partial sum is positive above POSITIVE * radius
POSITIVE = 1e-12
# a partial sum is nonnegative from -NONNEGATIVE * radius on
NONNEGATIVE = 1e-10
# |Ric - (scal/n) g| of an Einstein tensor, relative to max(s, |scal|)
EINSTEIN = 1e-10
# a gap between eigenvalues splits a cluster above CLUSTER * (s + radius)
CLUSTER = 1e-7
# a total weight fits omega * N eigenvalues up to omega * N * (1 + CAPACITY)
CAPACITY = 1e-12
# the gate of a selftest check whose two sides are a few roundings apart:
# an orthonormal basis, the unit sphere's operator, a closed form and its sum
CHECK_ROUNDING = 1e-12
# ... one sum over a basis, a form or a spectrum apart: the traces, the
# weights, the spectra of the model spaces
CHECK_SUM = 1e-10
# ... a chain of such sums apart: the decomposition's three terms, the Ric_L
# bounds against the lowest eigenvalue
CHECK_CHAIN = 1e-9


def peak(x):
    """max|x| over a real or complex array, 0 for an empty one; a real x
    needs no temporary as large as itself."""
    if np.iscomplexobj(x):
        return float(np.abs(x).max(initial=0.0))
    return max(float(x.max(initial=0.0)), -float(x.min(initial=0.0)))


def unit_scale(x):
    """The power of two s with 1 <= peak(x)/s < 2 (s = 1 when x is 0).
    Dividing by s is exact, and 2^e x has unit scale 2^e s."""
    top = peak(x)
    return math.ldexp(1.0, math.frexp(top)[1] - 1) if top else 1.0


def residual(value, expected, scale):
    """|value - expected| / (|expected| + scale), 0 when the two are equal:
    the one residual of every identity check, relative to the size of the
    expected side and to a scale the input carries (see above)."""
    gap = abs(value - expected)
    return gap / (abs(expected) + scale) if gap else 0.0
