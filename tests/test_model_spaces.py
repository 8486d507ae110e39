import json
import warnings

import numpy as np
import pytest

from curvkind import (
    ShapeMismatch,
    constant_curvature,
    curvature_from_spec,
    kulkarni_nomizu,
    perturb_constant,
    product_sphere,
    random_curvature,
    ricci_scalar,
    second_kind_matrix,
    spectrum,
    validate_curvature,
)
from curvkind.model_spaces import _unit_sphere


def test_constant_curvature_values():
    R = constant_curvature(4, 1.0)
    validate_curvature(R)
    assert R.components[0, 1, 0, 1] == 1.0
    assert R.components[0, 1, 1, 0] == -1.0
    assert np.abs(constant_curvature(3, 0.0).components).max() == 0.0
    eigs = spectrum(second_kind_matrix(constant_curvature(4, -1.0)))
    assert np.allclose(eigs, -np.ones(9))


def _einsum_sphere(n, kappa):
    """kappa (d_ik d_jl - d_il d_jk), computed as the definition reads."""
    eye = np.eye(n)
    return kappa * (np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye))


def test_model_builders_match_their_definitions_bit_for_bit():
    # constant_curvature scales one cached unit tensor per n: every bit of
    # the einsum definition is kept, signed zeros included, and no tensor a
    # builder returns shares memory with the cache
    kappas = (-1.5, -0.0, 0.0, 5e-324, 1e300)
    for n in range(2, 13):
        for kappa in kappas:
            R = constant_curvature(n, kappa)
            assert R.components.tobytes() == _einsum_sphere(n, kappa).tobytes()
            assert not np.shares_memory(R.components, _unit_sphere(n))
        if n < 3:
            continue
        sphere = np.zeros((n,) * 4)
        sphere[1:, 1:, 1:, 1:] = _einsum_sphere(n - 1, 1.0)
        P = product_sphere(n)
        assert P.components.tobytes() == sphere.tobytes()
        assert not np.shares_memory(P.components, _unit_sphere(n - 1))
        for kappa in kappas:
            shifted = perturb_constant(P, kappa).components
            assert shifted.tobytes() == (sphere + _einsum_sphere(n, kappa)).tobytes()
    # a negative kappa gives -0.0 wherever the unit tensor is 0.0
    R = constant_curvature(4, -1.5).components
    assert np.signbit(R[R == 0.0]).all() and (R == 0.0).sum() == 256 - 24
    # the cache is read-only, and a returned tensor can be written freely
    with pytest.raises(ValueError):
        _unit_sphere(4)[0, 1, 0, 1] = 2.0
    R = constant_curvature(4, 1.0)
    R.components[0, 1, 0, 1] = 7.0
    assert constant_curvature(4, 1.0).components[0, 1, 0, 1] == 1.0


def test_constant_curvature_rejects_non_finite_kappa():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kappa in (np.inf, -np.inf, np.nan):
            with pytest.raises(ShapeMismatch, match="non-finite"):
                constant_curvature(5, kappa)
            with pytest.raises(ShapeMismatch, match="non-finite"):
                perturb_constant(product_sphere(5), kappa)


def test_constant_curvature_is_half_kn_metric():
    for n in (3, 5):
        kappa = 0.75
        direct = constant_curvature(n, kappa)
        via_kn = kulkarni_nomizu(np.eye(n), np.eye(n)) * (kappa / 2)
        assert np.abs(direct.components - via_kn.components).max() < 1e-15


def test_product_sphere_structure():
    for n in (3, 4, 5, 6):
        R = product_sphere(n)
        validate_curvature(R)
        # any component touching the flat direction vanishes
        assert np.abs(R.components[0]).max() == 0.0
        s = ricci_scalar(R)
        assert np.allclose(s.ricci, np.diag([0.0] + [n - 2.0] * (n - 1)))


def test_perturb_constant_shifts():
    base = product_sphere(5)
    assert np.abs(perturb_constant(base, 0.0).components - base.components).max() == 0.0
    kappa = -0.3
    shifted = perturb_constant(base, kappa)
    validate_curvature(shifted)
    eigs0 = spectrum(second_kind_matrix(base))
    eigs1 = spectrum(second_kind_matrix(shifted))
    assert np.abs(eigs1 - (eigs0 + kappa)).max() < 1e-10
    s0, s1 = ricci_scalar(base), ricci_scalar(shifted)
    assert np.allclose(s1.ricci, s0.ricci + 4 * kappa * np.eye(5), atol=1e-12)
    # sphere plus kappa = -1 is flat
    flat = perturb_constant(constant_curvature(4, 1.0), -1.0)
    assert np.abs(flat.components).max() == 0.0


def test_random_curvature_valid_across_dimensions():
    rng = np.random.default_rng(0)
    for n in (3, 4, 5, 6, 7):
        validate_curvature(random_curvature(n, rng))


def test_spec_vocabulary_round_trip():
    specs = [
        {"kind": "constant_curvature", "n": 4, "kappa": 2.0},
        {"kind": "product_sphere", "n": 5},
        {"kind": "su3_so3"},
        {"kind": "perturbed", "base": {"kind": "product_sphere", "n": 5}, "kappa": -0.5},
    ]
    for spec in specs:
        R = curvature_from_spec(json.loads(json.dumps(spec)))
        validate_curvature(R)


def test_spec_kn_product_and_dense():
    h = np.diag([1.0, 0.0, 0.0]).tolist()
    spec = {"kind": "kn_product", "h": h, "k": np.eye(3).tolist()}
    R = curvature_from_spec(spec)
    assert R.components[0, 1, 0, 1] == 1.0
    dense_spec = {
        "kind": "dense",
        "n": 3,
        "components": constant_curvature(3, 1.0).components.ravel().tolist(),
    }
    R2 = curvature_from_spec(dense_spec)
    assert np.abs(R2.components - constant_curvature(3, 1.0).components).max() == 0.0


def test_spec_rejects_garbage():
    with pytest.raises(ShapeMismatch):
        curvature_from_spec({"kind": "moebius"})
    with pytest.raises((ShapeMismatch, KeyError)):
        curvature_from_spec({"kind": "constant_curvature"})
    with pytest.raises(ShapeMismatch):
        curvature_from_spec({"kind": "dense", "n": 3, "components": [1.0, 2.0]})
