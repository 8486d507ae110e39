"""Curvature tensors of the named model spaces, plus random generators.

These are the ground-truth inputs of the test suite:

* constant_curvature(n, kappa): R_{ijkl} = kappa (d_ik d_jl - d_il d_jk).
* product_sphere(n): S^1 x S^{n-1} with unit factors; direction 1 is flat.
* su3_so3(): the 5-dimensional symmetric space SU(3)/SO(3), built from
  real symmetric traceless 3x3 matrices with <X,Y> = tr(XY) and
  R(X,Y,Z,W) = -tr([X,Y][Z,W]).
* perturb_constant(base, kappa): base + kappa/2 * (g o g).
* random_curvature(n, rng): generic algebraic curvature tensor obtained by
  projecting a random 4-tensor onto the curvature symmetries.
"""

from functools import lru_cache

import numpy as np

from .errors import ShapeMismatch
from .tensor_core import (
    CurvatureTensor, check_dimension, dimension_cap, kulkarni_nomizu, read_only
)
from .tolerance import peak


@lru_cache(maxsize=None)
def _unit_sphere(n):
    """d_ik d_jl - d_il d_jk on R^n, read-only and cached: every entry is
    0.0, 1.0 or -1.0, computed once per n."""
    eye = np.eye(n)
    return read_only(np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye))


def constant_curvature(n, kappa=1.0):
    """Constant sectional curvature kappa; equals kappa/2 * (g o g).

    The tensor is kappa times the cached unit-sphere tensor, a new array
    each call: one product per entry, so a negative kappa gives -0.0 where
    the unit tensor has 0.0, as the einsum definition does.
    """
    n = check_dimension(n)
    if not np.isfinite(kappa):
        raise ShapeMismatch(f"non-finite kappa {kappa}")
    return CurvatureTensor(n, kappa * _unit_sphere(n))


def product_sphere(n):
    """S^1 x S^{n-1}: the unit-sphere tensor on directions 2..n, zero on 1."""
    n = check_dimension(n)
    if n < 3:
        raise ShapeMismatch("product_sphere needs n >= 3")
    R = np.zeros((n, n, n, n))
    R[1:, 1:, 1:, 1:] = _unit_sphere(n - 1)
    return CurvatureTensor(n, R)


def _su3_so3_tangent_basis():
    """Orthonormal basis (under tr(XY)) of symmetric traceless 3x3 matrices."""
    e = np.zeros((5, 3, 3))
    e[0] = np.diag([-2.0, 1.0, 1.0]) / np.sqrt(6.0)
    e[1] = np.diag([0.0, 1.0, -1.0]) / np.sqrt(2.0)
    for a, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)], start=2):
        e[a, i, j] = e[a, j, i] = 1.0 / np.sqrt(2.0)
    return e


def su3_so3():
    """Curvature of SU(3)/SO(3) (n = 5), R(X,Y,Z,W) = -tr([X,Y][Z,W]).

    With this normalization Ric = 3 g; the second-kind spectrum is -3/2
    (multiplicity 5) and 2 (multiplicity 9), and the 2-form operator has a
    7-dimensional kernel with nonzero eigenvalue 5/2.
    """
    e = _su3_so3_tangent_basis()
    brackets = np.einsum("aij,bjk->abik", e, e) - np.einsum("bij,ajk->abik", e, e)
    R = -np.einsum("abij,cdji->abcd", brackets, brackets)
    return CurvatureTensor(5, R)


def perturb_constant(base, kappa):
    """base + the constant-curvature tensor kappa/2 * (g o g).

    Shifts the second-kind operator by kappa * id and Ric by (n-1) kappa * id.
    """
    return base + constant_curvature(base.n, kappa)


def random_curvature(n, rng):
    """Generic algebraic curvature tensor.

    A random 4-tensor is projected onto pair-symmetric bi-antisymmetric
    tensors, then the totally antisymmetric part (the failure of the first
    Bianchi identity) is removed.  The result is scaled to max|R_ijkl| = 1,
    as a product with 1/max (a division would round differently).
    """
    n = check_dimension(n)
    A = rng.standard_normal((n, n, n, n))
    A = A - np.transpose(A, (1, 0, 2, 3))
    A = A - np.transpose(A, (0, 1, 3, 2))
    A = A + np.transpose(A, (2, 3, 0, 1))
    alt = (A + np.transpose(A, (1, 2, 0, 3)) + np.transpose(A, (2, 0, 1, 3))) / 3.0
    R = A - alt
    top = peak(R)
    if top > 0.0:
        R = R * (1.0 / top)
    return CurvatureTensor(n, R)


# ---------------------------------------------------------------------------
# JSON constructor vocabulary (consumed by the command-line front end)

MODEL_KINDS = (
    "constant_curvature",
    "product_sphere",
    "su3_so3",
    "kn_product",
    "perturbed",
    "dense",
)

# base levels a perturbed spec may nest: the report echoes the spec, indented
# one step per level, so its size grows with the square of the depth
MAX_NESTING = 64


def _capped(n):
    """check_dimension(n), refused above dimension_cap() before any n^4
    array is built."""
    n = check_dimension(n)
    if n > dimension_cap():
        raise ShapeMismatch(
            f"n={n} exceeds the soft cap {dimension_cap()} (set CURVKIND_NMAX to raise it)"
        )
    return n


def _numbers(value, name):
    """A JSON number, or nested lists of them, as a float array.  Strings and
    booleans are refused, not converted, because the report echoes the spec
    as given.  Each distinct entry type is checked once, and the first
    refused entry is named."""
    array = np.asarray(value, dtype=object)
    entries = array.ravel()
    refused = {
        kind
        for kind in set(map(type, entries))
        if issubclass(kind, (bool, np.bool_))
        or not issubclass(kind, (int, float, np.integer, np.floating))
    }
    if refused:
        bad = next(x for x in entries if type(x) in refused)
        raise ShapeMismatch(f"{name} must be a number, got {bad!r}")
    return array.astype(float)


def _number(value, name):
    """A JSON number as a float, under the rule of _numbers; a plain int or
    float is converted directly."""
    if type(value) in (int, float):
        return float(value)
    x = _numbers(value, name)
    if x.ndim:
        raise ShapeMismatch(f"{name} must be a number, got {value!r}")
    return float(x)


def curvature_from_spec(spec):
    """Build a CurvatureTensor from a model-spec dictionary.

    Kinds: {"kind": "constant_curvature", "n": int, "kappa": float},
    {"kind": "product_sphere", "n": int}, {"kind": "su3_so3"},
    {"kind": "kn_product", "h": [[...]], "k": [[...]]},
    {"kind": "perturbed", "base": <spec>, "kappa": float},
    {"kind": "dense", "n": int, "components": flat row-major list of n^4
    reals in index order (i, j, k, l), 1-based in prose, 0-based in the
    array}.  n must be an integer no larger than dimension_cap(), which is
    checked before the tensor is built, and a perturbed spec nests at most
    MAX_NESTING base levels.  Raises ShapeMismatch / ValueError
    on malformed input; the result is *not* validated here (see
    validate_curvature).
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ShapeMismatch("model spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "constant_curvature":
        return constant_curvature(_capped(spec["n"]), _number(spec.get("kappa", 1.0), "kappa"))
    if kind == "product_sphere":
        return product_sphere(_capped(spec["n"]))
    if kind == "su3_so3":
        _capped(5)  # SU(3)/SO(3) is 5-dimensional
        return su3_so3()
    if kind == "kn_product":
        h = _numbers(spec["h"], "every entry of h")
        _capped(len(h))
        return kulkarni_nomizu(h, _numbers(spec["k"], "every entry of k"))
    if kind == "perturbed":
        depth, inner = 0, spec
        while isinstance(inner, dict) and inner.get("kind") == "perturbed":
            depth, inner = depth + 1, inner.get("base")
        if depth > MAX_NESTING:
            raise ShapeMismatch(
                f"a perturbed spec nests at most {MAX_NESTING} base levels, got {depth}"
            )
        base = curvature_from_spec(spec["base"])
        return perturb_constant(base, _number(spec["kappa"], "kappa"))
    if kind == "dense":
        n = _capped(spec["n"])
        return CurvatureTensor(n, _numbers(spec["components"], "every entry of components"))
    raise ShapeMismatch(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
