"""Regression tests: pinv gradients, max tie-splitting, transpose
aliasing, all-padded attention rows, and gradcheck on non-C-ordered
inputs."""

import numpy as np

from repro.autodiff import Tensor, gradcheck, numeric_grad
from repro.autodiff.functional import masked_softmax
from repro.core.dhs import dhs_attention


class TestPinvGradcheck:
    def test_tall_matrix(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 3))
        assert gradcheck(lambda x: (x.pinv() ** 2).sum(), [a], atol=1e-4)

    def test_wide_matrix(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(2, 5))
        assert gradcheck(lambda x: (x.pinv() ** 2).sum(), [a], atol=1e-4)

    def test_batched(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(2, 3, 3)) + 2.0 * np.eye(3)
        assert gradcheck(lambda x: x.pinv().sum(), [a], atol=1e-4)


class TestMaxTieSplitting:
    def test_two_way_tie_gradcheck(self):
        # With exactly two tied maxima, central differences see each side
        # move half the time, so numeric and analytic (1/k = 0.5) agree.
        a = np.array([[1.0, 3.0, 3.0, -2.0]])
        assert gradcheck(lambda x: x.max(), [a])

    def test_gradient_splits_equally_across_ties(self):
        a = Tensor(np.array([[5.0, 5.0, 5.0, 1.0]]), requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [[1 / 3, 1 / 3, 1 / 3, 0.0]])

    def test_axis_reduction_ties(self):
        a = Tensor(np.array([[2.0, 2.0], [0.0, 7.0]]), requires_grad=True)
        a.max(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, [[0.5, 0.5], [0.0, 1.0]])


class TestTransposeAliasing:
    """0-D/1-D transpose must create a fresh tape node, not alias self."""

    def test_1d_transpose_is_new_node(self):
        t = Tensor(np.array([1.0, 2.0]))
        assert t.transpose() is not t
        assert t.T is not t

    def test_0d_transpose_is_new_node(self):
        t = Tensor(np.array(3.0))
        assert t.transpose() is not t

    def test_mutating_the_view_does_not_alias(self):
        t = Tensor(np.array([1.0, 2.0]))
        u = t.transpose()
        u.name = "flipped"
        assert t.name != "flipped"

    def test_gradient_flows_through_1d_transpose(self):
        t = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        (t.transpose() * Tensor(np.array([2.0, 2.0, 2.0]))).sum().backward()
        np.testing.assert_allclose(t.grad, [2.0, 2.0, 2.0])

    def test_gradcheck_through_1d_transpose(self):
        a = np.array([0.3, -1.2, 0.7])
        assert gradcheck(lambda x: (x.transpose() ** 2).sum(), [a])


class TestAllPaddedRows:
    def test_masked_softmax_all_zero_row_is_exact_zero(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        mask = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        p = masked_softmax(x, mask)
        assert np.all(np.isfinite(p.data))
        np.testing.assert_array_equal(p.data[1], [0.0, 0.0, 0.0])
        np.testing.assert_allclose(p.data[0].sum(), 1.0)
        assert p.data[0, 2] == 0.0

    def test_masked_softmax_all_zero_row_backward_finite(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
        mask = np.array([[1.0, 1.0], [0.0, 0.0]])
        masked_softmax(x, mask).sum().backward()
        assert np.all(np.isfinite(x.grad))
        np.testing.assert_array_equal(x.grad[1], [0.0, 0.0])

    def test_dhs_attention_fully_padded_sample(self):
        # Batch where sample 1 has zero valid observations: attention must
        # produce exact zeros (no NaN from an all -inf softmax row).
        rng = np.random.default_rng(0)
        z_all = Tensor(rng.normal(size=(2, 4, 3)))
        z_query = Tensor(rng.normal(size=(2, 3)))
        mask = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        s, p = dhs_attention(z_query, z_all, mask)
        assert np.all(np.isfinite(p.data))
        assert np.all(np.isfinite(s.data))
        np.testing.assert_array_equal(p.data[1], np.zeros(4))
        np.testing.assert_array_equal(s.data[1], np.zeros(3))
        np.testing.assert_allclose(p.data[0].sum(), 1.0)


class TestNumericGradLayout:
    def test_fortran_ordered_input(self):
        """Perturbations must reach a Fortran-ordered input (such as a
        transposed orthogonal init), not a flattened copy of it."""
        a = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        grad = numeric_grad(lambda x: (x ** 2).sum(), [a], 0)
        np.testing.assert_allclose(grad, 2.0 * a, atol=1e-6)
