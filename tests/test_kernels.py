"""The in-place elementwise kernels against their one-line references.

Each kernel in nnops (and each optimizer step) computes into its own output
and scratch buffers.  The references below are the plain numpy expressions
those kernels replace; the kernels must match them bit for bit, on both
precisions and on edge shapes, and must leave every input byte unchanged.
A second set of tests bounds each kernel's peak allocation, so a later edit
that brings temporaries back fails here.
"""

import math
import tracemalloc

import numpy as np
import pytest

from seqpar import model, nnops, optim, tensor
from seqpar.model import ModelConfig
from seqpar.nnops import DropoutPolicy, LinearParams

SHAPES = [(1, 7), (9, 1), (5, 13), (33, 17), (512, 256)]
DTYPES = [np.float64, np.float32]
C = math.sqrt(2.0 / math.pi)


# --- references: the plain expressions the kernels replace ---


def ref_gelu_fwd(x):
    inner = C * (x + 0.044715 * (x * x * x))
    return 0.5 * x * (1.0 + np.tanh(inner))


def ref_gelu_bwd(x, grad_y):
    x2 = x * x
    inner = C * (x + 0.044715 * (x2 * x))
    t = np.tanh(inner)
    sech2 = 1.0 - t * t
    local = 0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044715 * x2)
    return grad_y * local


def ref_layernorm_fwd(x, gain, bias, eps=nnops.LAYERNORM_EPS):
    mu = np.mean(x, axis=1, keepdims=True)
    var = np.mean((x - mu) ** 2, axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv_std
    return xhat * gain + bias, (xhat, inv_std)


def ref_layernorm_bwd(cache, gain, grad_y):
    xhat, inv_std = cache
    grad_gain = np.sum(grad_y * xhat, axis=0)
    grad_bias = np.sum(grad_y, axis=0)
    g = grad_y * gain
    grad_x = inv_std * (
        g - np.mean(g, axis=1, keepdims=True) - xhat * np.mean(g * xhat, axis=1, keepdims=True)
    )
    return grad_x, grad_gain, grad_bias


def ref_cross_entropy(logits, targets):
    n = logits.shape[0]
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    exp = np.exp(shifted)
    sum_exp = np.sum(exp, axis=1, keepdims=True)
    log_probs = shifted - np.log(sum_exp)
    loss = float(-np.mean(log_probs[np.arange(n), targets]))
    grad = exp / sum_exp
    grad[np.arange(n), targets] -= 1.0
    grad /= n
    return loss, grad.astype(logits.dtype, copy=False)


def ref_linear_fwd(x, p):
    return np.matmul(x, p.weight) + p.bias


def ref_apply_mask(x, policy, mask):
    return x * nnops.scaled_mask(policy, mask, x.dtype)


def ref_sgd(w, g, lr):
    return w - lr * g


def ref_adam(p, g, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * (g * g)
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return p - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


# --- helpers ---


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class Frozen:
    """Byte snapshots of input arrays; :meth:`check` asserts none changed."""

    def __init__(self, *arrays):
        self.arrays = arrays
        self.saved = [a.tobytes() for a in arrays]

    def check(self):
        for a, saved in zip(self.arrays, self.saved):
            assert a.tobytes() == saved, "kernel wrote into an input"


def rand(rng, shape, dtype, scale=1.0):
    return (scale * rng.standard_normal(shape)).astype(dtype)


def case_id(shape, dtype):
    return f"{shape[0]}x{shape[1]}-{np.dtype(dtype).name}"


CASES = pytest.mark.parametrize(
    "shape,dtype", [(s, d) for s in SHAPES for d in DTYPES],
    ids=[case_id(s, d) for s in SHAPES for d in DTYPES],
)


# --- bitwise oracle tests ---


@CASES
def test_gelu_matches_reference_bitwise(shape, dtype):
    rng = np.random.default_rng(1)
    x, grad_y = rand(rng, shape, dtype, 2.0), rand(rng, shape, dtype)
    frozen = Frozen(x, grad_y)
    assert_bitwise(nnops.gelu_fwd(x), ref_gelu_fwd(x))
    assert_bitwise(nnops.gelu_bwd(x, grad_y), ref_gelu_bwd(x, grad_y))
    frozen.check()


@CASES
def test_layernorm_matches_reference_bitwise(shape, dtype):
    rng = np.random.default_rng(2)
    x, grad_y = rand(rng, shape, dtype, 3.0), rand(rng, shape, dtype)
    gain, bias = rand(rng, shape[1:], dtype) + 1, rand(rng, shape[1:], dtype)
    frozen = Frozen(x, grad_y, gain, bias)
    y, (xhat, inv_std) = nnops.layernorm_fwd(x, gain, bias)
    want_y, (want_xhat, want_inv_std) = ref_layernorm_fwd(x, gain, bias)
    assert_bitwise(y, want_y)
    assert_bitwise(xhat, want_xhat)
    assert_bitwise(inv_std, want_inv_std)
    cache_frozen = Frozen(xhat, inv_std)
    got = nnops.layernorm_bwd((xhat, inv_std), gain, grad_y)
    want = ref_layernorm_bwd((want_xhat, want_inv_std), gain, grad_y)
    for g, w in zip(got, want):
        assert_bitwise(g, w)
    frozen.check()
    cache_frozen.check()


@CASES
def test_cross_entropy_matches_reference_bitwise(shape, dtype):
    rng = np.random.default_rng(3)
    logits = rand(rng, shape, dtype, 3.0)
    targets = rng.integers(0, shape[1], size=shape[0])
    frozen = Frozen(logits, targets)
    loss, grad = nnops.cross_entropy(logits, targets)
    want_loss, want_grad = ref_cross_entropy(logits, targets)
    assert_bitwise(np.float64(loss), np.float64(want_loss))
    assert_bitwise(grad, want_grad)
    frozen.check()


@CASES
def test_linear_fwd_matches_reference_bitwise(shape, dtype):
    rng = np.random.default_rng(4)
    x = rand(rng, (shape[0], 11), dtype)
    p = LinearParams(weight=rand(rng, (11, shape[1]), dtype), bias=rand(rng, shape[1:], dtype))
    frozen = Frozen(x, p.weight, p.bias)
    assert_bitwise(nnops.linear_fwd(x, p), ref_linear_fwd(x, p))
    frozen.check()


@CASES
def test_dropout_matches_reference_bitwise(shape, dtype):
    rng = np.random.default_rng(5)
    x, grad_y = rand(rng, shape, dtype), rand(rng, shape, dtype)
    policy = DropoutPolicy(rate=0.3, seed=7)
    samples = np.zeros(shape[0], dtype=np.int64)
    positions = np.arange(shape[0], dtype=np.int64)
    frozen = Frozen(x, grad_y)
    y, mask = nnops.dropout_fwd(x, policy, 1, "ffn_hidden", samples, positions)
    want_mask = nnops.keep_mask(
        policy, nnops.token_row_keys(policy, 1, "ffn_hidden", samples, positions), shape[1]
    )
    assert_bitwise(mask, want_mask)
    assert_bitwise(y, ref_apply_mask(x, policy, want_mask))
    mask_frozen = Frozen(mask)
    assert_bitwise(nnops.dropout_bwd(grad_y, policy, mask), ref_apply_mask(grad_y, policy, mask))
    assert_bitwise(nnops.apply_mask(x, policy, mask), ref_apply_mask(x, policy, mask))
    frozen.check()
    mask_frozen.check()


def small_params(precision):
    cfg = ModelConfig(embed_dim=12, n_layers=1, n_heads=3, ff_dim=20, vocab=17, seq_len=9,
                      precision=precision)
    return model.init_params(cfg, seed=3)


def rand_like(params, rng):
    return params.replace_arrays([rand(rng, a.shape, a.dtype) for a in params.arrays()])


@pytest.mark.parametrize("precision", ["double", "single"])
def test_sgd_step_matches_reference_bitwise(precision):
    rng = np.random.default_rng(6)
    params = small_params(precision)
    grads = rand_like(params, rng)
    frozen = Frozen(*params.arrays(), *grads.arrays())
    got = model.sgd_step(params, grads, 0.1)
    for g, p, d in zip(got.arrays(), params.arrays(), grads.arrays()):
        assert_bitwise(g, ref_sgd(p, d, 0.1))
    frozen.check()


@pytest.mark.parametrize("precision", ["double", "single"])
def test_three_adam_steps_match_reference_bitwise(precision):
    rng = np.random.default_rng(7)
    params = small_params(precision)
    state = optim.AdamState.init(params)
    want_p = params.arrays()
    want_m = [np.zeros_like(a) for a in want_p]
    want_v = [np.zeros_like(a) for a in want_p]
    for t in (1, 2, 3):
        grads = rand_like(params, rng)
        frozen = Frozen(*params.arrays(), *grads.arrays())
        params = optim.adam_step(params, grads, state, 3e-3)
        frozen.check()
        for i, g in enumerate(grads.arrays()):
            want_p[i], want_m[i], want_v[i] = ref_adam(want_p[i], g, want_m[i], want_v[i], t, 3e-3)
        assert state.t == t
        for got, want in zip(params.arrays(), want_p):
            assert_bitwise(got, want)
        for got, want in zip(state.m + state.v, want_m + want_v):
            assert_bitwise(got, want)


# --- allocation guard ---


def peak_in_outputs(fn, out_nbytes):
    """Peak bytes ``fn`` allocates in one call, in units of ``out_nbytes``."""
    fn()  # first-call set-up stays out of the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / out_nbytes


def alloc_cases():
    rng = np.random.default_rng(8)
    shape = (512, 256)
    x, grad_y = rand(rng, shape, np.float64), rand(rng, shape, np.float64)
    gain, bias = rand(rng, shape[1:], np.float64) + 1, rand(rng, shape[1:], np.float64)
    cache = nnops.layernorm_fwd(x, gain, bias)[1]
    targets = rng.integers(0, shape[1], size=shape[0])
    xin = rand(rng, (shape[0], 64), np.float64)
    p = LinearParams(weight=rand(rng, (64, shape[1]), np.float64), bias=bias)
    return {
        "gelu_fwd": (lambda: nnops.gelu_fwd(x), 2.1),
        "gelu_bwd": (lambda: nnops.gelu_bwd(x, grad_y), 4.1),
        "layernorm_fwd": (lambda: nnops.layernorm_fwd(x, gain, bias), 2.3),
        "layernorm_bwd": (lambda: nnops.layernorm_bwd(cache, gain, grad_y), 2.3),
        "cross_entropy": (lambda: nnops.cross_entropy(x, targets), 1.3),
        "linear_fwd": (lambda: nnops.linear_fwd(xin, p), 1.3),
    }


@pytest.mark.parametrize("name", list(alloc_cases()))
def test_kernel_peak_allocation_stays_within_budget(name):
    fn, budget = alloc_cases()[name]
    ratio = peak_in_outputs(fn, 512 * 256 * 8)
    assert ratio <= budget, f"{name} peaked at {ratio:.2f}x its output size"
