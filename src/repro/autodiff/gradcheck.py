"""Numerical gradient checking for autodiff primitives and models."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor

__all__ = ["numeric_grad", "gradcheck"]


def numeric_grad(fn: Callable[..., Tensor], inputs: Sequence[np.ndarray],
                 index: int, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of ``fn`` w.r.t. ``inputs[index]``.

    ``fn`` must return a scalar Tensor.
    """
    # C order, so ``reshape(-1)`` below is a view the perturbations reach.
    base = [np.array(x, dtype=np.float64, order="C") for x in inputs]
    grad = np.zeros_like(base[index])
    flat = grad.reshape(-1)
    x = base[index].reshape(-1)
    for i in range(x.size):
        orig = x[i]
        x[i] = orig + eps
        hi = fn(*[Tensor(b) for b in base]).item()
        x[i] = orig - eps
        lo = fn(*[Tensor(b) for b in base]).item()
        x[i] = orig
        flat[i] = (hi - lo) / (2.0 * eps)
    return grad


def gradcheck(fn: Callable[..., Tensor], inputs: Sequence[np.ndarray],
              eps: float = 1e-6, atol: float = 1e-5, rtol: float = 1e-4) -> bool:
    """Compare analytic and numerical gradients for every input.

    Raises ``AssertionError`` with a diagnostic message on mismatch and
    returns True on success, mirroring ``torch.autograd.gradcheck``.
    """
    tensors = [Tensor(np.array(x, dtype=np.float64), requires_grad=True)
               for x in inputs]
    out = fn(*tensors)
    if out.size != 1:
        raise ValueError("gradcheck requires a scalar-valued function")
    out.backward()
    for i, t in enumerate(tensors):
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = numeric_grad(fn, [t.data for t in tensors], i, eps=eps)
        if not np.allclose(analytic, numeric, atol=atol, rtol=rtol):
            diff = np.abs(analytic - numeric).max()
            raise AssertionError(
                f"gradcheck failed for input {i}: max abs diff {diff:.3e}\n"
                f"analytic:\n{analytic}\nnumeric:\n{numeric}"
            )
    return True
