"""Property-based tests (hypothesis) for the autodiff engine."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import (array_shapes, arrays,
                                   mutually_broadcastable_shapes)

from repro.autodiff import OPS, Tensor, cross_entropy, gradcheck, softmax
from repro.core import interpolate_grid_states
from repro.data import Sample, collate
from repro.nn import MLP

_floats = st.floats(min_value=-5.0, max_value=5.0,
                    allow_nan=False, allow_infinity=False)


def _arr(shape_max=3):
    return arrays(np.float64,
                  array_shapes(min_dims=1, max_dims=shape_max, min_side=1,
                               max_side=4),
                  elements=_floats)


@settings(max_examples=30, deadline=None)
@given(_arr())
def test_addition_gradient_is_ones(x):
    t = Tensor(x, requires_grad=True)
    (t + t).sum().backward()
    np.testing.assert_allclose(t.grad, 2.0 * np.ones_like(x))


@settings(max_examples=30, deadline=None)
@given(_arr())
def test_mul_gradient_matches_product_rule(x):
    t = Tensor(x, requires_grad=True)
    (t * t).sum().backward()
    np.testing.assert_allclose(t.grad, 2.0 * x, rtol=1e-10, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(_arr(2))
def test_sum_then_backward_broadcasts_ones(x):
    t = Tensor(x, requires_grad=True)
    t.sum().backward()
    np.testing.assert_allclose(t.grad, np.ones_like(x))


@settings(max_examples=25, deadline=None)
@given(_arr(2))
def test_tanh_gradcheck(x):
    gradcheck(lambda a: a.tanh().sum(), [x])


@settings(max_examples=25, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(2, 5)),
              elements=_floats))
def test_softmax_simplex(x):
    p = softmax(Tensor(x)).data
    assert np.all(p >= 0)
    np.testing.assert_allclose(p.sum(axis=-1), np.ones(x.shape[0]),
                               atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(_arr(2), _arr(2))
def test_add_commutes_values_and_grads(x, y):
    if x.shape != y.shape:
        return
    a1 = Tensor(x, requires_grad=True)
    b1 = Tensor(y, requires_grad=True)
    (a1 + b1).sum().backward()
    a2 = Tensor(x, requires_grad=True)
    b2 = Tensor(y, requires_grad=True)
    (b2 + a2).sum().backward()
    np.testing.assert_allclose(a1.grad, a2.grad)
    np.testing.assert_allclose(b1.grad, b2.grad)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5))
def test_matmul_transpose_identity(n, m):
    rng = np.random.default_rng(n * 10 + m)
    a = rng.normal(size=(n, m))
    t = Tensor(a)
    np.testing.assert_allclose((t.transpose() @ t).data, a.T @ a)


@settings(max_examples=20, deadline=None)
@given(_arr(2))
def test_reshape_roundtrip_preserves_grad(x):
    t = Tensor(x, requires_grad=True)
    t.reshape(-1).reshape(*x.shape).sum().backward()
    np.testing.assert_allclose(t.grad, np.ones_like(x))


# ---------------------------------------------------------------------------
# getitem's gradient scatters without np.add.at (assignment for basic
# indices, bincount for advanced ones); it must stay bitwise np.add.at's,
# signed zeros included, for any mix of index kinds.
# ---------------------------------------------------------------------------

def _index_part(draw, n):
    kind = draw(st.sampled_from(["slice", "int", "npint", "step", "array",
                                 "column", "none"]))
    if kind == "slice":
        return slice(None)
    if kind == "int":
        return draw(st.integers(-n, n - 1))
    if kind == "npint":
        return np.int64(draw(st.integers(0, n - 1)))
    if kind == "step":
        return slice(draw(st.integers(-n, n - 1)), None,
                     draw(st.sampled_from([-2, -1, 1, 2, 3])))
    if kind == "array":    # duplicates and negative indices
        return np.array(draw(st.lists(st.integers(-n, n - 1), max_size=4)),
                        dtype=np.int64)
    if kind == "column":   # broadcasts against another index array
        return np.array(draw(st.lists(st.integers(0, n - 1), min_size=1,
                                      max_size=3)))[:, None]
    return None


@st.composite
def _indexed(draw):
    shape = draw(array_shapes(min_dims=1, max_dims=3, min_side=1,
                              max_side=4))
    form = draw(st.sampled_from(["tuple", "single", "ellipsis", "mask"]))
    if form == "mask":
        index = np.array(draw(st.lists(st.booleans(), min_size=shape[0],
                                       max_size=shape[0])))
    else:
        parts = []
        for n in shape:
            part = _index_part(draw, n)
            parts.append(part)
            if part is None:          # None adds an axis; still index n
                parts.append(slice(None))
        if form == "single":
            index = parts[0]
        elif form == "ellipsis":
            index = (parts[0], Ellipsis)
        else:
            index = tuple(parts)
    return shape, index, draw(st.integers(0, 2 ** 31 - 1))


@settings(max_examples=200, deadline=None)
@given(_indexed())
def test_getitem_gradient_is_bitwise_add_at(case):
    shape, index, seed = case
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    try:
        out = x[index]
    except IndexError:          # broadcast or bounds mismatch: no case
        return
    g = rng.normal(size=out.shape)
    g[rng.random(g.shape) < 0.25] = -0.0
    out.backward(g)
    ref = np.zeros(shape)
    np.add.at(ref, index, g)
    np.testing.assert_array_equal(x.grad, ref)
    np.testing.assert_array_equal(np.signbit(x.grad), np.signbit(ref))


# ---------------------------------------------------------------------------
# Binary backward rules compute only the gradients ``needs`` asks for; what
# they do return is bitwise what the all-needed call returns.
# ---------------------------------------------------------------------------

_BINARY_RULES = ("add", "sub", "mul", "div", "where", "maximum", "minimum")


@st.composite
def _binary_case(draw):
    opcode = draw(st.sampled_from(_BINARY_RULES))
    arity = 3 if opcode == "where" else 2
    shapes = draw(mutually_broadcastable_shapes(num_shapes=arity, max_dims=3,
                                                max_side=4)).input_shapes
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    # Half-integer values, so maximum/minimum see ties.
    ins = [np.round(2.0 * rng.normal(size=shape)) / 2.0 for shape in shapes]
    if opcode == "where":       # the condition never carries a gradient
        ins[0] = ins[0] > 0
        needs = (False,) + draw(st.tuples(st.booleans(), st.booleans()))
    else:
        needs = draw(st.tuples(st.booleans(), st.booleans()))
    if opcode == "div":
        ins[1] = np.abs(ins[1]) + 0.5
    return opcode, tuple(ins), needs, rng


@settings(max_examples=200, deadline=None)
@given(_binary_case())
def test_binary_rules_honour_needs(case):
    opcode, ins, needs, rng = case
    spec = OPS[opcode]
    out = spec.forward(ins, None)
    g = rng.normal(size=np.shape(out))
    full = spec.backward(g, ins, out, None, (True,) * len(ins))
    partial = spec.backward(g, ins, out, None, needs)
    assert len(partial) == len(ins)
    for i, need in enumerate(needs):
        if not need or (opcode == "where" and i == 0):
            assert partial[i] is None
            continue
        assert partial[i].shape == np.shape(ins[i])
        np.testing.assert_array_equal(partial[i], full[i])
        np.testing.assert_array_equal(np.signbit(partial[i]),
                                      np.signbit(full[i]))


# ---------------------------------------------------------------------------
# interpolate_grid_states: linear in the states, so gradcheck must pass for
# any grid/query configuration (including queries outside the grid range,
# which clip to the endpoints).
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.integers(2, 5), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
def test_interpolate_grid_states_gradcheck(L, B, D, nq, seed):
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, L)
    states = rng.normal(size=(L, B, D))
    query = rng.uniform(-0.2, 1.2, size=(B, nq))  # includes out-of-range
    gradcheck(lambda s: interpolate_grid_states(s, grid, query).sum(),
              [states])


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 5), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2 ** 31 - 1))
def test_interpolate_at_grid_points_is_exact(L, B, D, seed):
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, L)
    states = rng.normal(size=(L, B, D))
    query = np.tile(grid, (B, 1))
    out = interpolate_grid_states(Tensor(states), grid, query).data
    np.testing.assert_allclose(out, np.transpose(states, (1, 0, 2)),
                               atol=1e-12)


# ---------------------------------------------------------------------------
# The collate padding invariant the parallel shard planner relies on:
# collate pads with mask-0 suffix rows, and a mask-respecting model gives
# those cells *exactly zero* gradient — perturbing padded values must leave
# every parameter gradient bit-identical.  (This is what makes the worker
# pool's compact shard re-collation safe; see repro/parallel/sharding.py.)
# ---------------------------------------------------------------------------

def _masked_loss(net, batch):
    """Cross-entropy of an MLP over the masked mean of the observations."""
    m = np.asarray(batch.mask)[..., None]
    mean = ((np.asarray(batch.values) * m).sum(axis=1)
            / np.maximum(m.sum(axis=1), 1.0))
    return cross_entropy(net(Tensor(mean)), batch.labels)


def _param_grads(net, batch):
    for p in net.parameters():
        p.grad = None
    _masked_loss(net, batch).backward()
    return [np.array(p.grad) for p in net.parameters()]


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=2, max_size=6),
       st.integers(0, 2 ** 31 - 1))
def test_padded_cells_have_exactly_zero_param_grad(lengths, seed):
    if len(set(lengths)) == 1:
        lengths[0] += 1  # force real padding
    rng = np.random.default_rng(seed)
    samples = [Sample(times=np.sort(rng.random(n)),
                      values=rng.normal(size=(n, 2)),
                      label=int(rng.integers(0, 2)))
               for n in lengths]
    batch = collate(samples)
    assert np.any(np.asarray(batch.mask) == 0.0)

    net = MLP(2, [5], 2, rng)
    before = _param_grads(net, batch)

    # Scribble garbage over every padded cell, then recompute.
    pad = np.asarray(batch.mask) == 0.0
    batch.values[pad] = rng.normal(size=(int(pad.sum()),
                                         batch.values.shape[-1])) * 1e6
    batch.times[pad] = rng.random(int(pad.sum())) * 1e3
    after = _param_grads(net, batch)

    for g_before, g_after in zip(before, after):
        assert np.array_equal(g_before, g_after)
