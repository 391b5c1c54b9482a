"""The in-place kernels against their plain references.

Each kernel in nnops (and each optimizer step) computes into its own output
and scratch buffers.  The references below are the plain numpy expressions
those kernels replace, with each row mean, row sum and column sum written as
the product the kernels take it as; the kernels must match them bit for bit,
on both precisions and on edge shapes, and must leave every input byte
unchanged.  Written with numpy's reductions instead, the references stay
within a stated rounding bound of the kernels.
The grouped attention-score kernels are held to the per-block loop they
replace the same way, and within rounding to the normalized softmax formula
they defer: weights divided by their row sums on every tile, the score scale
and the dropout keep scale on the tile, and the row-sum form of the softmax
backward.  A last set of tests bounds each elementwise kernel's
peak allocation, so a later edit that brings temporaries back fails here.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqpar import model, nnops, optim, tensor
from seqpar.errors import ShapeError
from seqpar.model import ModelConfig
from seqpar.nnops import DropoutPolicy, LinearParams

SHAPES = [(1, 7), (9, 1), (5, 13), (33, 17), (512, 256)]
DTYPES = [np.float64, np.float32]
C = math.sqrt(2.0 / math.pi)
CK = C * 0.044715
C3K = 3.0 * CK


# --- references: the plain expressions the kernels replace ---


def ref_gelu_fwd(x):
    x2 = x * x
    t = np.tanh(x * (C + CK * x2))
    return 0.5 * x * (1.0 + t)


def ref_gelu_bwd(x, grad_y):
    x2 = x * x
    t = np.tanh(x * (C + CK * x2))
    y = 0.5 * x * (1.0 + t)
    local = 0.5 * (1.0 + t) + (C + C3K * x2) * (1.0 - t) * y
    return grad_y * local


class ProductSums:
    """Row means, row sums and column sums as the kernels take them: products
    with a column of ``1/E``, a column of ones and a row of ones."""

    @staticmethod
    def row_mean(x):
        return x @ np.full((x.shape[-1], 1), 1.0 / x.shape[-1], x.dtype)

    @staticmethod
    def row_sum(x):
        return x @ np.ones((x.shape[-1], 1), x.dtype)

    @staticmethod
    def col_sum(x):
        return np.ones(x.shape[0], x.dtype) @ x


class TextbookSums:
    """The same sums as numpy reductions, which the kernels once ran."""

    @staticmethod
    def row_mean(x):
        return np.mean(x, axis=-1, keepdims=True)

    @staticmethod
    def row_sum(x):
        return np.sum(x, axis=-1, keepdims=True)

    @staticmethod
    def col_sum(x):
        return np.sum(x, axis=0)


def ref_layernorm_fwd(x, gain, bias, eps=nnops.LAYERNORM_EPS, sums=ProductSums):
    mu = sums.row_mean(x)
    var = sums.row_mean((x - mu) ** 2)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv_std
    return xhat * gain + bias, (xhat, inv_std)


def ref_layernorm_bwd(cache, gain, grad_y, sums=ProductSums):
    xhat, inv_std = cache
    grad_gain = sums.col_sum(grad_y * xhat)
    grad_bias = sums.col_sum(grad_y)
    g = grad_y * gain
    grad_x = inv_std * (g - sums.row_mean(g) - xhat * sums.row_mean(g * xhat))
    return grad_x, grad_gain, grad_bias


def ref_cross_entropy(logits, targets, sums=ProductSums):
    n = logits.shape[0]
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    exp = np.exp(shifted)
    sum_exp = sums.row_sum(exp)
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


def ref_row_factor(inv, policy):
    """What a context row is scaled by: its reciprocal row sum, times the
    keep scale with dropout."""
    return inv * nnops.keep_scale(policy, inv.dtype) if policy.active else inv


def ref_block_fwd(q, k, v, mask, e, kept, row_keys, policy):
    """The deferred forward of one block's band, from scaled queries: its
    exponentials into ``e``, its keep mask into ``kept`` (None without
    dropout); returns (context, reciprocal row sums)."""
    s = tensor.matmul(q, k.T)
    inv = 1.0 / tensor.softmax_rows(s, mask, out=e)
    pv = e
    if kept is not None:
        nnops.keep_mask(policy, row_keys, k.shape[0], out=kept)
        pv = e * kept
    return tensor.matmul(pv, v) * ref_row_factor(inv, policy), inv


def ref_block_bwd(e, kept, inv, policy, q, k, v, ctx, grad_ctx):
    """The deferred backward of one block's band: (query, key, value)
    gradients from its exponentials ``e``, keep mask ``kept`` (None without
    dropout), reciprocal row sums and its (rows, dk) scaled queries, keys,
    values, context and context gradient.  The row factors sit on ``g =
    grad_ctx * c`` and ``d = (grad_ctx . ctx) / s``, and the weight
    gradients are ``e * (keep * g V^T - d)``; the query gradient is taken
    through the score scale back to the unscaled queries."""
    g = grad_ctx * ref_row_factor(inv, policy)
    d = ProductSums.row_sum(grad_ctx * ctx) * inv
    pv = e if kept is None else e * kept
    grad_v = tensor.matmul(pv.T, g)
    grad_s = tensor.matmul(g, v.T)
    if kept is not None:
        grad_s *= kept
    grad_s -= d
    grad_s *= e
    scale = 1.0 / math.sqrt(q.shape[1])
    return tensor.matmul(grad_s, k) * scale, tensor.matmul(grad_s.T, q), grad_v


def ref_scores_fwd(q, k, v, offset, cfg, policy, layer):
    """Attention scores of scaled queries one (sample, head) block at a
    time, every keep-mask entry hashed, each row's normalization left to
    its context: (ctx, exponential stack, keep stack or None, reciprocal row
    sums)."""
    bsz, m, _ = q.shape
    t, dk = k.shape[1], cfg.head_dim
    counters = tensor.active_counters()
    q_pos = np.arange(offset, offset + m, dtype=np.int64)
    mask = np.arange(t)[None, :] <= q_pos[:, None] if cfg.causal else None
    blocks = bsz * cfg.n_heads
    exps = np.empty((blocks, m, t), q.dtype)
    inv = np.empty((blocks, m, 1), q.dtype)
    keep = np.empty((blocks, m, t), np.bool_) if policy.active else None
    ctx = np.empty_like(q)
    for b in range(bsz):
        for h in range(cfg.n_heads):
            i = b * cfg.n_heads + h
            cols = slice(h * dk, (h + 1) * dk)
            row_keys = nnops.score_row_keys(policy, layer, b, h, q_pos)
            ctx[b, :, cols], inv[i] = ref_block_fwd(
                q[b, :, cols], k[b, :, cols], v[b, :, cols], mask, exps[i],
                None if keep is None else keep[i], row_keys, policy)
            if counters is not None:
                counters.add_score_flops(2 * m, dk, t)
    if counters is not None:
        counters.record_score_footprint(exps.size)
        counters.add_score_cache(exps.nbytes + inv.nbytes + (0 if keep is None else keep.nbytes))
    return ctx, exps, keep, inv


def ref_scores_bwd(exps, keep, inv, q, k, v, ctx, grad_ctx, cfg, policy):
    """Backward of :func:`ref_scores_fwd`, one block at a time."""
    dk = cfg.head_dim
    grad_q, grad_k, grad_v = np.empty_like(q), np.empty_like(k), np.empty_like(v)
    for b in range(q.shape[0]):
        for h in range(cfg.n_heads):
            i = b * cfg.n_heads + h
            cols = slice(h * dk, (h + 1) * dk)
            grad_q[b, :, cols], grad_k[b, :, cols], grad_v[b, :, cols] = ref_block_bwd(
                exps[i], None if keep is None else keep[i], inv[i], policy, q[b, :, cols],
                k[b, :, cols], v[b, :, cols], ctx[b, :, cols], grad_ctx[b, :, cols])
    return grad_q, grad_k, grad_v


def ref_banded_scores_fwd(q, k, v, offset, cfg, policy, layer):
    """:func:`ref_scores_fwd` one (sample, head) block and one band of
    :func:`model.score_bands` at a time, against the keys the band's last
    row sees, every keep-mask entry of the band hashed: (ctx, per band a
    (blocks, band rows, visible keys) exponential array, the same of keep
    masks or None, the (blocks, rows, 1) reciprocal row sums)."""
    bsz, m, _ = q.shape
    t, dk = k.shape[1], cfg.head_dim
    counters = tensor.active_counters()
    q_pos = np.arange(offset, offset + m, dtype=np.int64)
    blocks = bsz * cfg.n_heads
    bands = model.score_bands(((offset, offset + m),), t, cfg.causal)
    exps = [np.empty((blocks, r1 - r0, vis), q.dtype) for r0, r1, vis in bands]
    keep = [np.empty(e.shape, np.bool_) for e in exps] if policy.active else None
    inv = np.empty((blocks, m, 1), q.dtype)
    ctx = np.empty_like(q)
    for n, (r0, r1, vis) in enumerate(bands):
        mask = np.arange(vis)[None, :] <= q_pos[r0:r1, None] if cfg.causal else None
        for b in range(bsz):
            for h in range(cfg.n_heads):
                i = b * cfg.n_heads + h
                cols = slice(h * dk, (h + 1) * dk)
                row_keys = nnops.score_row_keys(policy, layer, b, h, q_pos[r0:r1])
                ctx[b, r0:r1, cols], inv[i, r0:r1] = ref_block_fwd(
                    q[b, r0:r1, cols], k[b, :vis, cols], v[b, :vis, cols], mask, exps[n][i],
                    None if keep is None else keep[n][i], row_keys, policy)
                if counters is not None:
                    counters.add_score_flops(2 * (r1 - r0), dk, vis)
    if counters is not None:
        packed_size = sum(e.size for e in exps)
        counters.record_score_footprint(packed_size)
        counters.add_score_cache(packed_size * (q.dtype.itemsize + (keep is not None))
                                 + inv.nbytes)
    return ctx, exps, keep, inv


def ref_banded_scores_bwd(exps, keep, inv, q, k, v, offset, ctx, grad_ctx, cfg, policy):
    """Backward of :func:`ref_banded_scores_fwd`, one block and band at a
    time, from the widest band to the narrowest: the widest writes the key
    and value gradient rows it sees, the narrower ones add into theirs, and
    rows no band sees are zero."""
    m, t, dk = q.shape[1], k.shape[1], cfg.head_dim
    bands = model.score_bands(((offset, offset + m),), t, cfg.causal)
    grad_q, grad_k, grad_v = np.empty_like(q), np.zeros_like(k), np.zeros_like(v)
    for n in reversed(range(len(bands))):
        r0, r1, vis = bands[n]
        for b in range(q.shape[0]):
            for h in range(cfg.n_heads):
                i = b * cfg.n_heads + h
                cols = slice(h * dk, (h + 1) * dk)
                grad_q[b, r0:r1, cols], gk, gv = ref_block_bwd(
                    exps[n][i], None if keep is None else keep[n][i], inv[i, r0:r1], policy,
                    q[b, r0:r1, cols], k[b, :vis, cols], v[b, :vis, cols],
                    ctx[b, r0:r1, cols], grad_ctx[b, r0:r1, cols])
                if n == len(bands) - 1:
                    grad_v[b, :vis, cols] = gv
                    grad_k[b, :vis, cols] = gk
                else:
                    grad_v[b, :vis, cols] += gv
                    grad_k[b, :vis, cols] += gk
    return grad_q, grad_k, grad_v


def normalized_scores(q, k, v, offset, cfg, policy, layer, grad_ctx):
    """The formula the kernels defer, one dense (sample, head) block at a
    time, from unscaled queries: the score scale and the dropout keep scale
    on every (rows, keys) block, the weights normalized by their row sums,
    and the softmax backward's row sums taken from the weights.  Returns the
    context and the (query, key, value) gradients."""
    bsz, m, _ = q.shape
    t, dk = k.shape[1], cfg.head_dim
    scale = 1.0 / math.sqrt(dk)
    q_pos = np.arange(offset, offset + m, dtype=np.int64)
    visible = np.arange(t)[None, :] <= q_pos[:, None] if cfg.causal else np.ones((m, t), bool)
    ctx, grad_q, grad_k, grad_v = (np.empty_like(a) for a in (q, q, k, v))
    for b in range(bsz):
        for h in range(cfg.n_heads):
            cols = slice(h * dk, (h + 1) * dk)
            qb, kb, vb, gb = q[b, :, cols], k[b, :, cols], v[b, :, cols], grad_ctx[b, :, cols]
            s = np.where(visible, (qb @ kb.T) * scale, -np.inf)
            aw = np.exp(s - s.max(axis=1, keepdims=True))
            aw /= aw.sum(axis=1, keepdims=True)
            drop = np.ones_like(aw)
            if policy.active:
                row_keys = nnops.score_row_keys(policy, layer, b, h, q_pos)
                drop = nnops.scaled_mask(policy, nnops.keep_mask(policy, row_keys, t), aw.dtype)
            ctx[b, :, cols] = (aw * drop) @ vb
            grad_v[b, :, cols] = (aw * drop).T @ gb
            grad_aw = (gb @ vb.T) * drop
            grad_s = aw * (grad_aw - np.sum(grad_aw * aw, axis=1, keepdims=True)) * scale
            grad_q[b, :, cols] = grad_s @ kb
            grad_k[b, :, cols] = grad_s.T @ qb
    return ctx, grad_q, grad_k, grad_v


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
    y, d = nnops.gelu_fwd(x)
    assert_bitwise(y, ref_gelu_fwd(x))
    assert_bitwise(nnops.gelu_bwd(d, grad_y), ref_gelu_bwd(x, grad_y))
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


# Largest difference, in units of the dtype's eps times the output's largest
# magnitude, between a kernel and its reference written with numpy's
# reductions.  Measured over SHAPES and three more up to 256x256, 20 seeds
# each: 11.0 at worst (the bias column sum of 512 rows in double), 4.5 for
# every other output.
TEXTBOOK_BOUND_EPS = 32


def assert_within_textbook_bound(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    scale = max(float(np.max(np.abs(want))), np.finfo(np.float64).tiny)
    eps = float(np.finfo(want.dtype).eps)
    diff = np.abs(got.astype(np.float64) - want.astype(np.float64))
    assert float(np.max(diff)) <= TEXTBOOK_BOUND_EPS * eps * scale


@CASES
def test_sum_kernels_match_the_textbook_reductions_within_rounding(shape, dtype):
    """Layer norm, cross-entropy and the softmax row sums against their
    references written with np.mean and np.sum, as the kernels once ran."""
    rng = np.random.default_rng(9)
    x, grad_y = rand(rng, shape, dtype, 3.0), rand(rng, shape, dtype)
    gain, bias = rand(rng, shape[1:], dtype) + 1, rand(rng, shape[1:], dtype)
    y, cache = nnops.layernorm_fwd(x, gain, bias)
    want_y, want_cache = ref_layernorm_fwd(x, gain, bias, sums=TextbookSums)
    got = [y, *cache, *nnops.layernorm_bwd(cache, gain, grad_y)]
    want = [want_y, *want_cache, *ref_layernorm_bwd(want_cache, gain, grad_y, sums=TextbookSums)]
    targets = rng.integers(0, shape[1], size=shape[0])
    loss, grad = nnops.cross_entropy(x, targets)
    want_loss, want_grad = ref_cross_entropy(x, targets, sums=TextbookSums)
    got += [np.float64(loss), grad]
    want += [np.float64(want_loss), want_grad]
    e = np.empty((3, *shape), dtype)
    got.append(tensor.softmax_rows(rand(rng, e.shape, dtype, 4.0), out=e))
    want.append(TextbookSums.row_sum(e))
    for g, w in zip(got, want):
        assert_within_textbook_bound(g, w)


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


# Flat parameter vector lengths: part of one update chunk, and two whole
# chunks plus a ragged third.
UPDATE_LENGTHS = pytest.mark.parametrize(
    "n", [777, 2 * model.UPDATE_CHUNK + 123], ids=["one-chunk", "ragged-chunks"])


@UPDATE_LENGTHS
@pytest.mark.parametrize("dtype", DTYPES)
def test_sgd_step_matches_reference_bitwise(dtype, n):
    rng = np.random.default_rng(6)
    params, grads = rand(rng, (n,), dtype), rand(rng, (n,), dtype)
    want = ref_sgd(params, grads, 0.1)
    frozen = Frozen(grads)
    model.sgd_step(params, grads, 0.1)
    assert_bitwise(params, want)
    frozen.check()


@UPDATE_LENGTHS
@pytest.mark.parametrize("dtype", DTYPES)
def test_three_adam_steps_match_reference_bitwise(dtype, n):
    rng = np.random.default_rng(7)
    params = rand(rng, (n,), dtype)
    state = optim.AdamState.init(params)
    want_p, want_m, want_v = params.copy(), np.zeros_like(params), np.zeros_like(params)
    for t in (1, 2, 3):
        grads = rand(rng, (n,), dtype)
        frozen = Frozen(grads)
        optim.adam_step(params, grads, state, 3e-3)
        frozen.check()
        want_p, want_m, want_v = ref_adam(want_p, grads, want_m, want_v, t, 3e-3)
        assert state.t == t
        for got, want in ((params, want_p), (state.m, want_m), (state.v, want_v)):
            assert_bitwise(got, want)


@pytest.mark.parametrize("update", ["sgd", "adam"])
def test_updates_refuse_a_gradient_of_another_length(update):
    params = np.zeros(10)
    step = optim.make_update(update, params, 0.1)
    with pytest.raises(ShapeError, match="does not match"):
        step(params, np.zeros(11))


# (batch, heads, rows, keys, offset) score shapes around the bands, one
# stacked tile per band: nine 128x128 blocks make two bands; 64 rows at
# offset 128 of 256 keys are one band that leaves the last 64 keys visible
# to no row; 256x512 blocks at offsets 0 and 256 are four causal bands each
# (the "budget" in their IDs is 2^17 elements, one 256x512 block); a
# 512x512 block is eight bands; 100 rows at offset 200 of 300 keys are a
# 64-row band and a ragged 36-row one.
SCORE_SHAPES = {
    "B3H3-128x128": (3, 3, 128, 128, 0),
    "B3H3-64x256-offset": (3, 3, 64, 256, 128),
    "B1H2-256x512-at-budget": (1, 2, 256, 512, 0),
    "B1H2-256x512-offset": (1, 2, 256, 512, 256),
    "B1H2-512x512-above-budget": (1, 2, 512, 512, 0),
    "B2H2-100x300-ragged": (2, 2, 100, 300, 200),
}


def score_case(shape, precision, causal, rate):
    """(cfg, policy, q, k, v, offset, grad_ctx) of one SCORE_SHAPES case."""
    bsz, heads, m, t, offset = SCORE_SHAPES[shape]
    cfg = ModelConfig(embed_dim=8 * heads, n_layers=1, n_heads=heads, ff_dim=8, vocab=5,
                      seq_len=t, batch=bsz, causal=causal, precision=precision)
    policy = DropoutPolicy(rate=rate, seed=11)
    rng = np.random.default_rng(12)
    q = rand(rng, (bsz, m, cfg.embed_dim), cfg.dtype)
    k, v = (rand(rng, (bsz, t, cfg.embed_dim), cfg.dtype) for _ in range(2))
    grad_ctx = rand(rng, q.shape, cfg.dtype)
    return cfg, policy, q, k, v, offset, grad_ctx


def packed(arrays):
    """Per-band arrays laid one after another, as the kernels pack a stack."""
    return np.concatenate([a.reshape(-1) for a in arrays])


@pytest.mark.parametrize("shape", list(SCORE_SHAPES))
@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("causal", [True, False], ids=["causal", "full"])
@pytest.mark.parametrize("rate", [0.0, 0.1], ids=["no-dropout", "dropout"])
def test_grouped_scores_match_the_per_block_loop_bitwise(shape, precision, causal, rate):
    """Causal blocks against the banded loop, full blocks (one band of every
    key) against the dense loop."""
    cfg, policy, q, k, v, offset, grad_ctx = score_case(shape, precision, causal, rate)
    bsz, m, t = q.shape[0], q.shape[1], k.shape[1]
    frozen = Frozen(q, k, v, grad_ctx)

    want_counters, got_counters = tensor.StepCounters(), tensor.StepCounters()
    with tensor.counting(want_counters):
        if causal:
            want_ctx, want_e, want_keep, want_inv = ref_banded_scores_fwd(q, k, v, offset, cfg,
                                                                          policy, 3)
            want_grads = ref_banded_scores_bwd(want_e, want_keep, want_inv, q, k, v, offset,
                                               want_ctx, grad_ctx, cfg, policy)
        else:
            want_ctx, dense_e, dense_keep, want_inv = ref_scores_fwd(q, k, v, offset, cfg,
                                                                     policy, 3)
            want_grads = ref_scores_bwd(dense_e, dense_keep, want_inv, q, k, v, want_ctx,
                                        grad_ctx, cfg, policy)
            want_e, want_keep = [dense_e], None if dense_keep is None else [dense_keep]
    with tensor.recycling(), tensor.counting(got_counters):
        ctx, cache = model.scores_fwd(q, k, v, ((offset, offset + m),), cfg, policy, 3)
        ctx_frozen = Frozen(ctx)
        blocks = bsz * cfg.n_heads
        itemsize = cfg.dtype.itemsize
        want_packed = packed(want_e)
        assert cache.nbytes == (want_packed.size * (itemsize + (1 if rate else 0))
                                + blocks * m * itemsize)
        assert_bitwise(cache.exps, want_packed)
        assert_bitwise(cache.inv_sums, want_inv)
        if want_keep is None:
            assert cache.keep is None
        else:
            assert_bitwise(cache.keep, packed(want_keep))
        grads = model.scores_bwd(cache, q, k, v, ctx, grad_ctx, cfg, policy)
    assert_bitwise(ctx, want_ctx)
    for got, want in zip(grads, want_grads):
        assert_bitwise(got, want)
    assert got_counters == want_counters
    frozen.check()
    ctx_frozen.check()


def deferred_against_normalized(cfg, policy, q, k, v, offset, grad_ctx):
    """The kernels' (context, query, key and value gradients) from the
    scaled queries against :func:`normalized_scores` from the unscaled
    ones, as pairs."""
    scale = 1.0 / math.sqrt(cfg.head_dim)
    rows = ((offset, offset + q.shape[1]),)
    ctx, cache = model.scores_fwd(q * scale, k, v, rows, cfg, policy, 3)
    grad_q, grad_k, grad_v = model.scores_bwd(cache, q * scale, k, v, ctx, grad_ctx, cfg, policy)
    want = normalized_scores(q, k, v, offset, cfg, policy, 3, grad_ctx)
    return zip((ctx, grad_q, grad_k, grad_v), want)


@pytest.mark.parametrize("shape", list(SCORE_SHAPES))
@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("causal", [True, False], ids=["causal", "full"])
@pytest.mark.parametrize("rate", [0.0, 0.1], ids=["no-dropout", "dropout"])
def test_scores_match_the_normalized_formula_within_rounding(shape, precision, causal, rate):
    """Deferring the normalization, the score scale and the keep scale to
    (rows, dk) operands, and reading the softmax backward's row sums as
    ``grad_ctx . ctx``, are identities of the exact values, not of their
    rounding; so the context and the gradients agree with the normalized
    formula, whose row sums come from the weights, to ``64 * eps`` of each
    array's largest entry."""
    cfg, policy, q, k, v, offset, grad_ctx = score_case(shape, precision, causal, rate)
    tol = 64 * np.finfo(cfg.dtype).eps
    for got, want in deferred_against_normalized(cfg, policy, q, k, v, offset, grad_ctx):
        assert got.dtype == want.dtype
        assert np.abs(got - want).max() <= tol * np.abs(want).max()


@settings(max_examples=200, deadline=None)
@given(bsz=st.integers(1, 2), heads=st.integers(1, 3), dk=st.integers(1, 8),
       m=st.integers(1, 150), extra=st.integers(0, 80), at=st.floats(0, 1),
       causal=st.booleans(), rate=st.sampled_from([0.0, 0.1]),
       precision=st.sampled_from(["double", "single"]), seed=st.integers(0, 2**16))
def test_deferred_scores_match_the_normalized_formula_property(bsz, heads, dk, m, extra, at,
                                                               causal, rate, precision, seed):
    """:func:`test_scores_match_the_normalized_formula_within_rounding` over
    drawn shapes: ``m`` rows at an offset inside ``m + extra`` keys.  A row
    that sees one key has a query gradient of exactly zero, which the two
    forms round to zero differently, so the bound is relative to each
    array's largest entry or to 1, the scale of the drawn inputs."""
    t = m + extra
    offset = round(at * extra)
    cfg = ModelConfig(embed_dim=dk * heads, n_layers=1, n_heads=heads, ff_dim=8, vocab=5,
                      seq_len=t, batch=bsz, causal=causal, precision=precision)
    policy = DropoutPolicy(rate=rate, seed=11)
    rng = np.random.default_rng(seed)
    q, grad_ctx = (rand(rng, (bsz, m, cfg.embed_dim), cfg.dtype) for _ in range(2))
    k, v = (rand(rng, (bsz, t, cfg.embed_dim), cfg.dtype) for _ in range(2))
    tol = 64 * np.finfo(cfg.dtype).eps
    for got, want in deferred_against_normalized(cfg, policy, q, k, v, offset, grad_ctx):
        assert got.dtype == want.dtype
        assert np.abs(got - want).max() <= tol * max(np.abs(want).max(), 1.0)


@pytest.mark.parametrize("shape", list(SCORE_SHAPES))
@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("rate", [0.0, 0.1], ids=["no-dropout", "dropout"])
def test_banded_loop_matches_the_dense_loop_within_rounding(shape, precision, rate):
    """Leaving out the keys a band cannot see changes only the summation
    order of its products, so outputs agree to ``keys * eps`` relative to
    each array's largest entry: the rounding bound of a dot product over
    ``keys`` terms.  Keep masks agree bit for bit on each band's keys, and
    the dense exponentials past them are exactly zero."""
    cfg, policy, q, k, v, offset, grad_ctx = score_case(shape, precision, True, rate)
    t = k.shape[1]
    tol = t * np.finfo(cfg.dtype).eps
    ctx, exps, keep, inv = ref_banded_scores_fwd(q, k, v, offset, cfg, policy, 3)
    grads = ref_banded_scores_bwd(exps, keep, inv, q, k, v, offset, ctx, grad_ctx, cfg, policy)
    dense_ctx, dense_e, dense_keep, dense_inv = ref_scores_fwd(q, k, v, offset, cfg, policy, 3)
    dense_grads = ref_scores_bwd(dense_e, dense_keep, dense_inv, q, k, v, dense_ctx, grad_ctx,
                                 cfg, policy)
    for n, (r0, r1, vis) in enumerate(model.score_bands(((offset, offset + q.shape[1]),), t, True)):
        assert np.abs(exps[n] - dense_e[:, r0:r1, :vis]).max() <= tol
        assert not dense_e[:, r0:r1, vis:].any()
        if keep is not None:
            assert_bitwise(keep[n], dense_keep[:, r0:r1, :vis])
    for got, want in zip((inv, ctx, *grads), (dense_inv, dense_ctx, *dense_grads)):
        assert got.dtype == want.dtype
        assert np.abs(got - want).max() <= tol * np.abs(want).max()


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
    slope = nnops.gelu_fwd(x)[1]
    targets = rng.integers(0, shape[1], size=shape[0])
    xin = rand(rng, (shape[0], 64), np.float64)
    p = LinearParams(weight=rand(rng, (64, shape[1]), np.float64), bias=bias)
    return {
        "gelu_fwd": (lambda: nnops.gelu_fwd(x), 3.1),
        "gelu_bwd": (lambda: nnops.gelu_bwd(slope, grad_y), 1.1),
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
