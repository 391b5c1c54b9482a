"""Optimizers over flat parameter lists.

SGD lives in :mod:`seqpar.model` because the distributed-equivalence story
is defined in terms of it; Adam is here for runs that should actually make
progress on a corpus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .model import Parameters

OPTIMIZERS = ("sgd", "adam")


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def init(cls, params: Parameters) -> "AdamState":
        arrays = params.arrays()
        return cls(
            m=[np.zeros_like(a) for a in arrays],
            v=[np.zeros_like(a) for a in arrays],
        )


def adam_step(
    params: Parameters,
    grads: Parameters,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> Parameters:
    """Standard bias-corrected Adam; updates ``state``'s moments in place,
    returns new params.  Per array it allocates the new parameter and one
    scratch array: the same operations as

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * (g * g)
        p - lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)
    """
    state.t += 1
    t = state.t
    out = []
    for p, g, m, v in zip(params.arrays(), grads.arrays(), state.m, state.v):
        tmp = g * (1.0 - beta1)
        m *= beta1
        m += tmp
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - beta2
        v *= beta2
        v += tmp
        m_hat = m / (1.0 - beta1**t)
        np.divide(v, 1.0 - beta2**t, out=tmp)  # v_hat, then its root, then + eps
        np.sqrt(tmp, out=tmp)
        tmp += eps
        m_hat *= lr
        m_hat /= tmp
        out.append(np.subtract(p, m_hat, out=m_hat))
    return params.replace_arrays(out)


def make_update(name: str, params: Parameters, lr: float):
    """(params, grads) -> new params closure; Adam state lives inside.

    Every worker builds its own closure over its own parameter copy, so
    optimizer state never crosses worker boundaries.
    """
    if name == "sgd":
        return lambda p, g: model.sgd_step(p, g, lr)
    if name == "adam":
        state = AdamState.init(params)
        return lambda p, g: adam_step(p, g, state, lr)
    raise ValueError(f"unknown optimizer {name!r}, expected one of {OPTIMIZERS}")
