"""Test functions, vector fields, and transformation families."""

import numpy as np
import pytest

from logmeasure import TestFunction, TransformationFamily, VectorField, gradient_check, negated
from logmeasure.library import polynomial_pairs, rotation_family, scaling_family, translation_family


def _quadratic_tf():
    return TestFunction(
        evaluator=lambda x: np.einsum("ij,ij->i", np.atleast_2d(x), np.atleast_2d(x)),
        gradient=lambda x: 2.0 * np.atleast_2d(x),
        label="|x|^2",
    )


def test_gradient_check_accepts_correct_gradient():
    rng = np.random.default_rng(0)
    assert gradient_check(_quadratic_tf(), rng.normal(size=(10, 3))) < 1e-8


def test_gradient_check_flags_wrong_gradient():
    bad = TestFunction(
        evaluator=lambda x: np.einsum("ij,ij->i", np.atleast_2d(x), np.atleast_2d(x)),
        gradient=lambda x: 3.0 * np.atleast_2d(x),
    )
    rng = np.random.default_rng(1)
    assert gradient_check(bad, rng.normal(size=(5, 2))) > 1e-2


def test_vector_field_fd_jacobian_and_divergence():
    # h(x) = (sin x0, x0 * x1) without analytic derivatives
    h = VectorField(
        dim=2,
        eval=lambda x: np.stack([np.sin(np.atleast_2d(x)[:, 0]),
                                 np.atleast_2d(x)[:, 0] * np.atleast_2d(x)[:, 1]], axis=1),
    )
    x = np.array([0.3, -0.7])
    expected_jac = np.array([[np.cos(0.3), 0.0], [-0.7, 0.3]])
    np.testing.assert_allclose(h.jacobian_at(x), expected_jac, atol=1e-8)
    assert h.divergence_at(x) == pytest.approx(np.cos(0.3) + 0.3, abs=1e-7)


def test_vector_field_batch_divergence_matches_pointwise():
    h = VectorField(
        dim=2,
        eval=lambda x: np.stack([np.atleast_2d(x)[:, 0] ** 2,
                                 np.exp(np.atleast_2d(x)[:, 1])], axis=1),
    )
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(100, 2))
    batch = h.divergence_batch(pts)
    expected = 2.0 * pts[:, 0] + np.exp(pts[:, 1])
    np.testing.assert_allclose(batch, expected, atol=1e-6)


def test_batch_divergence_of_a_jacobian_field_does_not_depend_on_batch_size():
    # a Jacobian but no divergence: every row takes the Jacobian's trace
    h = VectorField(
        dim=2,
        eval=lambda x: np.stack([np.atleast_2d(x)[:, 0] ** 2,
                                 np.exp(np.atleast_2d(x)[:, 1])], axis=1),
        jacobian=lambda x: np.diag([2.0 * x[0], np.exp(x[1])]),
    )
    pts = np.random.default_rng(5).normal(size=(100, 2))
    batch = h.divergence_batch(pts)
    for i, row in enumerate(pts):
        assert batch[i] == h.divergence_at(row)


def test_negated_field_flips_everything():
    h = VectorField(
        dim=2,
        eval=lambda x: np.atleast_2d(x) * 2.0,
        jacobian=lambda x: 2.0 * np.eye(2),
        divergence=lambda x: np.full(np.atleast_2d(x).shape[0], 4.0),
    )
    neg = negated(h)
    x = np.array([1.0, -1.0])
    np.testing.assert_allclose(neg.eval_at(x), -2.0 * x)
    np.testing.assert_allclose(neg.jacobian_at(x), -2.0 * np.eye(2))
    assert neg.divergence_at(x) == -4.0


@pytest.mark.parametrize(
    "family",
    [translation_family(2), scaling_family(2), rotation_family(2)],
    ids=["translation", "scaling", "rotation"],
)
def test_families_are_identity_at_alpha_zero(family):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 2))
    np.testing.assert_allclose(family.apply(0.0, x), x, atol=1e-12)


def test_family_apply_single_point_and_batch_agree():
    fam = scaling_family(3)
    x = np.array([0.5, -1.0, 2.0])
    single = fam.apply(0.3, x)
    batch = fam.apply(0.3, x[None, :])
    assert single.shape == (3,)
    np.testing.assert_allclose(batch[0], single)


def test_family_rejects_wrong_dimension():
    fam = translation_family(2)
    with pytest.raises(ValueError):
        fam.apply(0.1, np.array([1.0, 2.0, 3.0]))


def test_polynomial_pairs_have_consistent_derivatives():
    rng = np.random.default_rng(4)
    for dim in (1, 2, 3):
        pts = rng.normal(size=(8, dim))
        for phi, h in polynomial_pairs(dim, count=4, seed=dim):
            assert gradient_check(phi, pts) < 1e-6
            for row in pts[:3]:
                fd_jac = _fd_jacobian(h, row)
                np.testing.assert_allclose(h.jacobian_at(row), fd_jac, atol=1e-6)
            np.testing.assert_allclose(
                h.divergence_batch(pts),
                [np.trace(h.jacobian_at(row)) for row in pts],
                atol=1e-10,
            )


def _fd_jacobian(h, x, step=1e-6):
    dim = x.size
    jac = np.empty((dim, dim))
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = step
        jac[:, j] = (h.eval_at(x + e) - h.eval_at(x - e)) / (2 * step)
    return jac


def test_transformation_family_requires_matching_arguments():
    fam = TransformationFamily(dim=2, eval=lambda a, x: np.atleast_2d(x) + a)
    out = fam.apply(0.5, np.zeros(2))
    np.testing.assert_allclose(out, [0.5, 0.5])
