"""Optimizers over a rank's flat parameter vector.

Each rank holds its parameters as one flat vector in named order
(:func:`seqpar.model.flat_view`) and each step's gradient as one more
(:func:`seqpar.grid.train`); an update writes the parameters in place, chunk
by chunk (:func:`seqpar.model.update_chunks`), and never writes the
gradient, which a collective may share between ranks.  SGD lives in
:mod:`seqpar.model` because the distributed-equivalence story is defined in
terms of it; Adam is here for runs that should actually make progress on a
corpus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model, tensor
from .errors import ShapeError

OPTIMIZERS = ("sgd", "adam")


@dataclass
class AdamState:
    """Adam's two moments, flat vectors in the parameters' layout, and the
    step count."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def init(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Standard bias-corrected Adam on flat vectors: updates ``params`` and
    ``state``'s moments in place, chunk by chunk, with two chunk-sized
    scratch arrays.  Per element, the same operations as

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * (g * g)
        p - lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)
    """
    if grads.shape != params.shape:
        raise ShapeError(f"gradient vector {grads.shape} does not match parameters {params.shape}")
    state.t += 1
    t = state.t
    shape = (min(params.size, model.UPDATE_CHUNK),)
    tmp_buf, m_hat_buf = tensor.take(shape, params.dtype), tensor.take(shape, params.dtype)
    for chunk in model.update_chunks(params.size):
        p, g, m, v = params[chunk], grads[chunk], state.m[chunk], state.v[chunk]
        tmp, m_hat = tmp_buf[:p.size], m_hat_buf[:p.size]
        np.multiply(g, 1.0 - beta1, out=tmp)
        m *= beta1
        m += tmp
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - beta2
        v *= beta2
        v += tmp
        np.divide(m, 1.0 - beta1**t, out=m_hat)
        np.divide(v, 1.0 - beta2**t, out=tmp)  # v_hat, then its root, then + eps
        np.sqrt(tmp, out=tmp)
        tmp += eps
        m_hat *= lr
        m_hat /= tmp
        p -= m_hat
    tensor.give(tmp_buf, m_hat_buf)


def make_update(name: str, params: np.ndarray, lr: float):
    """``(params, grads) -> None`` closure updating the flat vector
    ``params`` in place; Adam's state lives inside.

    Every worker builds its own closure over its own parameter vector, so
    optimizer state never crosses worker boundaries.
    """
    if name == "sgd":
        return lambda p, g: model.sgd_step(p, g, lr)
    if name == "adam":
        state = AdamState.init(params)
        return lambda p, g: adam_step(p, g, state, lr)
    raise ValueError(f"unknown optimizer {name!r}, expected one of {OPTIMIZERS}")
