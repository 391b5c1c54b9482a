"""The in-place kernels against their plain references.

Each kernel in nnops (and each optimizer step) computes into its own output
and scratch buffers.  The references below are the plain numpy expressions
those kernels replace; the kernels must match them bit for bit, on both
precisions and on edge shapes, and must leave every input byte unchanged.
The grouped attention-score kernels are held to the per-block loop they
replace the same way.  A last set of tests bounds each elementwise kernel's
peak allocation, so a later edit that brings temporaries back fails here.
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


def ref_scores_fwd(q, k, v, offset, cfg, policy, layer):
    """Attention scores one (sample, head) block at a time, every keep-mask
    entry hashed: (ctx, weight stack, keep stack or None)."""
    bsz, m, _ = q.shape
    t, dk = k.shape[1], cfg.head_dim
    counters = tensor.active_counters()
    scale = 1.0 / math.sqrt(dk)
    q_pos = np.arange(offset, offset + m, dtype=np.int64)
    mask = np.arange(t)[None, :] <= q_pos[:, None] if cfg.causal else None
    blocks = bsz * cfg.n_heads
    weights = np.empty((blocks, m, t), q.dtype)
    keep = np.empty((blocks, m, t), np.bool_) if policy.active else None
    work = np.empty((m, t), q.dtype)
    ctx = np.empty_like(q)
    for b in range(bsz):
        for h in range(cfg.n_heads):
            i = b * cfg.n_heads + h
            cols = slice(h * dk, (h + 1) * dk)
            s = tensor.matmul(q[b, :, cols], k[b, :, cols].T, out=work)
            s *= scale
            if counters is not None:
                counters.add_score_flops(m, dk, t)
            aw_d = aw = tensor.softmax_rows(s, mask, out=weights[i])
            if keep is not None:
                row_keys = nnops.score_row_keys(policy, layer, b, h, q_pos)
                nnops.keep_mask(policy, row_keys, t, out=keep[i])
                aw_d = nnops.scaled_mask(policy, keep[i], aw.dtype, out=work)
                aw_d *= aw
            ctx[b, :, cols] = tensor.matmul(aw_d, v[b, :, cols])
            if counters is not None:
                counters.add_score_flops(m, t, dk)
    if counters is not None:
        counters.record_score_footprint(blocks * m * t)
        counters.add_score_cache(weights.nbytes + (0 if keep is None else keep.nbytes))
    return ctx, weights, keep


def ref_scores_bwd(weights, keep, q, k, v, grad_ctx, cfg, policy):
    """Backward of :func:`ref_scores_fwd`, one block at a time."""
    bsz, m, _ = q.shape
    t, dk = k.shape[1], cfg.head_dim
    scale = 1.0 / math.sqrt(dk)
    grad_q, grad_k, grad_v = np.empty_like(q), np.empty_like(k), np.empty_like(v)
    dt = weights.dtype
    work = np.empty((m, t), dt)
    for b in range(bsz):
        for h in range(cfg.n_heads):
            i = b * cfg.n_heads + h
            cols = slice(h * dk, (h + 1) * dk)
            aw, g_ctx = weights[i], grad_ctx[b, :, cols]
            aw_d = aw
            if keep is not None:
                aw_d = nnops.scaled_mask(policy, keep[i], dt, out=work)
                aw_d *= aw
            grad_v[b, :, cols] = tensor.matmul(aw_d.T, g_ctx)
            grad_aw = tensor.matmul(g_ctx, v[b, :, cols].T, out=work)
            if keep is not None:
                grad_aw *= keep[i]
                grad_aw *= nnops.keep_scale(policy, dt)
            grad_aw -= np.sum(grad_aw * aw, axis=1, keepdims=True)
            grad_aw *= aw
            grad_aw *= scale
            grad_q[b, :, cols] = tensor.matmul(grad_aw, k[b, :, cols])
            grad_k[b, :, cols] = tensor.matmul(grad_aw.T, q[b, :, cols])
    return grad_q, grad_k, grad_v


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


# (batch, heads, rows, keys, offset) score shapes around the group budget:
# nine 128x128 blocks make a group of eight and a group of one; 64 rows at
# offset 128 of 256 keys leave the last 64 keys visible to no row; a
# 256x512 block fills the budget alone; a 512x512 block exceeds it.
SCORE_SHAPES = {
    "B3H3-128x128": (3, 3, 128, 128, 0),
    "B3H3-64x256-offset": (3, 3, 64, 256, 128),
    "B1H2-256x512-at-budget": (1, 2, 256, 512, 0),
    "B1H2-256x512-offset": (1, 2, 256, 512, 256),
    "B1H2-512x512-above-budget": (1, 2, 512, 512, 0),
}


@pytest.mark.parametrize("shape", list(SCORE_SHAPES))
@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("causal", [True, False], ids=["causal", "full"])
@pytest.mark.parametrize("rate", [0.0, 0.1], ids=["no-dropout", "dropout"])
def test_grouped_scores_match_the_per_block_loop_bitwise(shape, precision, causal, rate):
    bsz, heads, m, t, offset = SCORE_SHAPES[shape]
    cfg = ModelConfig(embed_dim=8 * heads, n_layers=1, n_heads=heads, ff_dim=8, vocab=5,
                      seq_len=t, batch=bsz, causal=causal, precision=precision)
    policy = DropoutPolicy(rate=rate, seed=11)
    rng = np.random.default_rng(12)
    q = rand(rng, (bsz, m, cfg.embed_dim), cfg.dtype)
    k, v = (rand(rng, (bsz, t, cfg.embed_dim), cfg.dtype) for _ in range(2))
    grad_ctx = rand(rng, q.shape, cfg.dtype)
    frozen = Frozen(q, k, v, grad_ctx)

    want_counters, got_counters = tensor.StepCounters(), tensor.StepCounters()
    with tensor.counting(want_counters):
        want_ctx, want_w, want_keep = ref_scores_fwd(q, k, v, offset, cfg, policy, 3)
        want_grads = ref_scores_bwd(want_w, want_keep, q, k, v, grad_ctx, cfg, policy)
    with tensor.recycling(), tensor.counting(got_counters):
        ctx, cache = model.scores_fwd(q, k, v, offset, cfg, policy, 3)
        assert cache.nbytes == want_w.nbytes + (0 if want_keep is None else want_keep.nbytes)
        assert_bitwise(np.stack(cache.weights), want_w)
        if want_keep is None:
            assert cache.keep == [None] * bsz * heads
        else:
            keep = np.stack(cache.keep)
            if causal:  # the full mask on visible keys, a part of it beyond
                visible = np.arange(t) <= np.arange(offset, offset + m)[:, None]
                assert_bitwise(keep & visible, want_keep & visible)
                assert_bitwise(keep & want_keep, keep)
            else:
                assert_bitwise(keep, want_keep)
        grads = model.scores_bwd(cache, q, k, v, grad_ctx, cfg, policy)
    assert_bitwise(ctx, want_ctx)
    for got, want in zip(grads, want_grads):
        assert_bitwise(got, want)
    assert got_counters == want_counters
    frozen.check()


@pytest.mark.parametrize("rows,n_cols", [(7, 5), (300, 200), (40, 2000)])
def test_keep_mask_hashes_visible_keys_only(rows, n_cols):
    """Counts below, at and above the tile's width: the mask is the full mask
    within each row's count (and up to its tile's largest count), False past
    the tile's largest count."""
    policy = DropoutPolicy(rate=0.4, seed=5)
    rng = np.random.default_rng(13)
    row_keys = rng.integers(0, 2**63, size=rows, dtype=np.uint64)
    visible = rng.integers(1, n_cols + 1, size=rows)
    full = nnops.keep_mask(policy, row_keys, n_cols)
    got = nnops.keep_mask(policy, row_keys, n_cols, visible=visible)
    height, _ = nnops.row_tile(n_cols)
    for r0 in range(0, rows, height):
        stop = visible[r0 : r0 + height].max()
        assert_bitwise(got[r0 : r0 + height, :stop], full[r0 : r0 + height, :stop])
        assert not got[r0 : r0 + height, stop:].any()
    within = np.arange(n_cols) < visible[:, None]
    assert_bitwise(got & within, full & within)


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
