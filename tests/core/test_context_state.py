"""Incremental ContextState: rank-1 extend vs exact rebuild invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor
from repro.core import ContextState, dhs_attention, solve_p_max_hoyer


def _rows(seed, batch, total, d):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(batch, total, d))


def _extended(z, n0, drift_threshold=None):
    """Build over the first ``n0`` rows, then extend one row at a time."""
    state = ContextState.build(Tensor(z[:, :n0]), ridge=1e-6,
                               drift_threshold=drift_threshold)
    for k in range(n0, z.shape[1]):
        state = state.extend(z[:, k])
    return state


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4), st.integers(1, 6))
def test_extend_sweep_matches_fresh_build(seed, d, extra):
    """Sherman-Morrison extends track the exact context to tight tolerance."""
    n0 = d + 2
    z = _rows(seed, 2, n0 + extra, d)
    ext = _extended(z, n0)
    fresh = ContextState.build(Tensor(z), ridge=1e-6)
    assert ext.n == fresh.n == n0 + extra
    np.testing.assert_allclose(ext.zt_pinv.data, fresh.zt_pinv.data,
                               atol=1e-8)
    np.testing.assert_allclose(ext._a_ones.data, fresh._a_ones.data,
                               atol=1e-8)
    np.testing.assert_allclose(ext._denom.data, fresh._denom.data, atol=1e-8)
    np.testing.assert_array_equal(ext.z.data, fresh.z.data)
    # The p-solver the RHS actually calls agrees on both states.
    rng = np.random.default_rng(seed + 1)
    s, _ = dhs_attention(Tensor(rng.normal(size=(2, d))), fresh.z, None)
    np.testing.assert_allclose(solve_p_max_hoyer(ext, s).data,
                               solve_p_max_hoyer(fresh, s).data, atol=1e-7)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4), st.integers(1, 5))
def test_rebuild_is_bitwise_fresh_context(seed, d, extra):
    """After a forced rebuild the state is bitwise a fresh build."""
    n0 = d + 2
    z = _rows(seed, 2, n0 + extra, d)
    rebuilt = _extended(z, n0).rebuild()
    fresh = ContextState.build(Tensor(z), None, ridge=1e-6)
    np.testing.assert_array_equal(rebuilt.zt_pinv.data, fresh.zt_pinv.data)
    np.testing.assert_array_equal(rebuilt._a_ones.data, fresh._a_ones.data)
    np.testing.assert_array_equal(rebuilt._denom.data, fresh._denom.data)
    np.testing.assert_array_equal(rebuilt.a_null.data, fresh.a_null.data)
    assert rebuilt.last_drift == 0.0


def test_zero_drift_threshold_forces_exact_path():
    z = _rows(7, 2, 9, 3)
    ext = _extended(z, 5, drift_threshold=0.0)
    fresh = ContextState.build(Tensor(z), None, ridge=1e-6)
    # Every extend fell back to the exact rebuild: bitwise equality.
    np.testing.assert_array_equal(ext.zt_pinv.data, fresh.zt_pinv.data)
    assert ext.rebuilds == 4 and ext.extends == 4


def test_lineage_counters_and_generation():
    z = _rows(11, 1, 8, 3)
    state = ContextState.build(Tensor(z[:, :5]), ridge=1e-6)
    assert (state.generation, state.extends, state.rebuilds) == (0, 0, 0)
    for k in range(5, 8):
        state = state.extend(z[:, k])
    assert state.generation == 3 and state.extends == 3
    state = state.rebuild()
    assert state.generation == 4 and state.rebuilds == state.rebuilds


def test_masked_extend_row_is_inert():
    """A masked new row changes nothing but adds an inert position."""
    z = _rows(3, 2, 7, 3)
    base = ContextState.build(Tensor(z[:, :6]), ridge=1e-6)
    ext = base.extend(z[:, 6], mask_new=np.zeros(2))
    np.testing.assert_allclose(ext.zt_pinv.data[:, :6], base.zt_pinv.data,
                               atol=1e-12)
    np.testing.assert_array_equal(ext.z.data[:, 6], 0.0)
    np.testing.assert_array_equal(ext.mask[:, 6], 0.0)


def test_take_slices_every_field():
    z = _rows(5, 4, 8, 3)
    state = ContextState.build(Tensor(z), ridge=1e-6)
    sub = state.take([2, 0])
    np.testing.assert_array_equal(sub.z.data, state.z.data[[2, 0]])
    np.testing.assert_array_equal(sub.zt_pinv.data,
                                  state.zt_pinv.data[[2, 0]])
    np.testing.assert_array_equal(sub.mask, state.mask[[2, 0]])
    np.testing.assert_array_equal(sub._denom.data, state._denom.data[[2, 0]])
    assert sub.generation == state.generation


def test_take_is_differentiable_through_z():
    z = Tensor(_rows(9, 3, 7, 2), requires_grad=True)
    state = ContextState.build(z, ridge=1e-6)
    out = state.take([1]).zt_pinv.sum()
    out.backward()
    assert z.grad is not None and np.any(z.grad != 0)


def test_build_requires_overdetermined_rows():
    with pytest.raises(ValueError, match="n > d"):
        ContextState.build(Tensor(np.ones((1, 3, 3))), ridge=1e-6)
