import hashlib
import math
import re
import struct
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqpar import costs, model, nnops, tensor
from seqpar.errors import ShapeError
from seqpar.model import ModelConfig
from seqpar.nnops import DropoutPolicy

from conftest import rand_batch, sequential_sgd


OFF = DropoutPolicy.off()


def attention_oracle(q, k, v, offset, cfg):
    """Straight-from-the-definition attention: per sample, head and query row,
    explicit score loop, explicit masked softmax, explicit weighted sum."""
    bsz, m, e = q.shape
    t = k.shape[1]
    dk = cfg.head_dim
    out = np.zeros_like(q)
    for b in range(bsz):
        for h in range(cfg.n_heads):
            lo, hi = h * dk, (h + 1) * dk
            for i in range(m):
                limit = offset + i + 1 if cfg.causal else t
                scores = np.array([
                    float(np.dot(q[b, i, lo:hi], k[b, j, lo:hi])) / math.sqrt(dk)
                    for j in range(limit)
                ])
                w = np.exp(scores - np.max(scores))
                w = w / np.sum(w)
                for j in range(limit):
                    out[b, i, lo:hi] += w[j] * v[b, j, lo:hi]
    return out


def unpack(cache, stack):
    """A score cache's flat ``stack`` (its exponentials or keep masks) as one
    dense (rows, keys) array per (sample, head) block, as wide as its widest
    band and zero past each band's visible keys: each band's (blocks, band
    rows, visible keys) entries lie at its tile's start, one tile after
    another from the front of the stack, which ends with the last tile."""
    blocks, rows, _ = cache.inv_sums.shape
    keys = max(visible for _, _, visible, _ in cache.tiles)
    dense = np.zeros((blocks, rows, keys), stack.dtype)
    pos = 0
    for r0, r1, visible, start in cache.tiles:
        assert start == pos
        n = blocks * (r1 - r0) * visible
        dense[:, r0:r1, :visible] = stack[pos : pos + n].reshape(blocks, r1 - r0, visible)
        pos += n
    assert stack.shape == (pos,)
    return list(dense)


def unpack_weights(cache):
    """A score cache's softmax weights, per block as :func:`unpack` gives:
    the exponentials times their rows' reciprocal sums."""
    return [e * inv for e, inv in zip(unpack(cache, cache.exps), cache.inv_sums)]


def scaled(q, cfg):
    """Queries as the score kernels take them: times ``1/sqrt(dk)``."""
    return q * (1.0 / math.sqrt(cfg.head_dim))


# --- config and init ---


def test_config_validation():
    with pytest.raises(ShapeError):
        ModelConfig(embed_dim=10, n_layers=1, n_heads=3, ff_dim=4, vocab=7, seq_len=4)
    with pytest.raises(ValueError):
        ModelConfig(embed_dim=8, n_layers=-1, n_heads=2, ff_dim=4, vocab=7, seq_len=4)
    with pytest.raises(ValueError):
        ModelConfig(embed_dim=8, n_layers=1, n_heads=2, ff_dim=4, vocab=7, seq_len=4, dropout=1.0)
    with pytest.raises(ValueError):
        ModelConfig(embed_dim=8, n_layers=1, n_heads=2, ff_dim=4, vocab=0, seq_len=4)
    with pytest.raises(ValueError):
        ModelConfig(embed_dim=8, n_layers=1, n_heads=2, ff_dim=4, vocab=7, seq_len=4,
                    precision="quad")
    cfg = ModelConfig(embed_dim=8, n_layers=0, n_heads=2, ff_dim=4, vocab=7, seq_len=4)
    assert cfg.head_dim == 4
    assert cfg.dtype == np.float64


def test_config_round_trips_through_dict(tiny_cfg):
    assert ModelConfig.from_dict(tiny_cfg.to_dict()) == tiny_cfg


def test_config_from_dict_rejects_unknown_keys(tiny_cfg):
    with pytest.raises(ValueError, match=r"unknown model-config keys: \['foo'\]"):
        ModelConfig.from_dict({**tiny_cfg.to_dict(), "foo": 1})


@pytest.mark.parametrize("change, message", [
    ({"causal": "no"}, "'causal' must be true or false, got 'no'"),
    ({"causal": 0}, "'causal' must be true or false"),
    ({"seq_len": 16.0}, "'seq_len' must be an integer, got 16.0"),
    ({"batch": True}, "'batch' must be an integer, got True"),
    ({"dropout": "0.1"}, "'dropout' must be a number"),
    ({"dropout": False}, "'dropout' must be a number"),
    ({"precision": None}, "'precision' must be a string"),
])
def test_config_from_dict_rejects_values_of_the_wrong_type(tiny_cfg, change, message):
    with pytest.raises(ValueError, match=f"model-config key {message}"):
        ModelConfig.from_dict({**tiny_cfg.to_dict(), **change})


def test_config_from_dict_takes_an_integer_where_a_number_is_asked_for(tiny_cfg):
    assert ModelConfig.from_dict({**tiny_cfg.to_dict(), "dropout": 0}).dropout == 0


def test_config_from_dict_rejects_a_non_object():
    with pytest.raises(ValueError, match="a model-config must be an object, got list"):
        ModelConfig.from_dict([["embed_dim", 8]])


def test_init_is_deterministic(tiny_cfg):
    a = model.init_params(tiny_cfg, seed=7)
    b = model.init_params(tiny_cfg, seed=7)
    for x, y in zip(a.arrays(), b.arrays()):
        assert x.tobytes() == y.tobytes()
    c = model.init_params(tiny_cfg, seed=8)
    assert any(not np.array_equal(x, y) for x, y in zip(a.arrays(), c.arrays()))


def test_init_respects_fan_in_bounds(tiny_cfg):
    p = model.init_params(tiny_cfg, seed=0)
    e, f = tiny_cfg.embed_dim, tiny_cfg.ff_dim
    assert np.max(np.abs(p.token_table)) <= 1 / math.sqrt(e)
    assert np.max(np.abs(p.pos_table)) <= 1 / math.sqrt(e)
    lp = p.layers[0]
    assert np.max(np.abs(lp.attn_q.weight)) <= 1 / math.sqrt(e)
    assert np.max(np.abs(lp.ff_out.weight)) <= 1 / math.sqrt(f)
    assert np.all(lp.attn_q.bias == 0) and np.all(p.head.bias == 0)
    assert np.all(lp.ln1_gain == 1) and np.all(p.final_gain == 1)


def test_param_count_formula(tiny_cfg):
    e, f, v, l = tiny_cfg.embed_dim, tiny_cfg.ff_dim, tiny_cfg.vocab, tiny_cfg.seq_len
    per_layer = 2 * e + 4 * (e * e + e) + 2 * e + (e * f + f) + (f * e + e)
    expected = v * e + l * e + tiny_cfg.n_layers * per_layer + 2 * e + (e * v + v)
    assert model.param_count(model.init_params(tiny_cfg, 0)) == expected


def test_parameters_structure_round_trip(tiny_cfg):
    p = model.init_params(tiny_cfg, 3)
    q = p.replace_arrays(p.arrays())
    assert [n for n, _ in p.named_arrays()] == [n for n, _ in q.named_arrays()]
    with pytest.raises(ShapeError):
        p.replace_arrays(p.arrays() + [np.zeros(1)])
    with pytest.raises(ShapeError, match="too few"):
        p.replace_arrays(p.arrays()[:-1])

    def layout(params):
        return [(n, a.shape, a.dtype) for n, a in params.named_arrays()]

    for n_layers in range(4):
        for precision in ("double", "single"):
            cfg = replace(tiny_cfg, n_layers=n_layers, precision=precision)
            p = model.init_params(cfg, 3)
            q = p.replace_arrays(p.arrays())
            assert layout(q) == layout(p)
            assert all(x is y for x, y in zip(q.arrays(), p.arrays()))
            assert [a for _, a in p.named_arrays()] == p.arrays()
            assert {a.dtype for a in p.arrays()} == {cfg.dtype}
            shapes = model.param_shapes(cfg)
            assert layout(shapes) == layout(p)
            assert not any(a.any() for a in shapes.arrays())
            assert len(p.arrays()) == 2 + 16 * n_layers + 4


def test_named_order_is_the_documented_layout(tiny_cfg):
    """Checkpoint headers and every flat vector depend on these names."""
    names = [n for n, _ in model.param_shapes(replace(tiny_cfg, n_layers=1)).named_arrays()]
    assert names == [
        "token_table", "pos_table",
        "layer0.ln1_gain", "layer0.ln1_bias",
        "layer0.attn_q.weight", "layer0.attn_q.bias",
        "layer0.attn_k.weight", "layer0.attn_k.bias",
        "layer0.attn_v.weight", "layer0.attn_v.bias",
        "layer0.attn_out.weight", "layer0.attn_out.bias",
        "layer0.ln2_gain", "layer0.ln2_bias",
        "layer0.ff_in.weight", "layer0.ff_in.bias",
        "layer0.ff_out.weight", "layer0.ff_out.bias",
        "final_gain", "final_bias", "head.weight", "head.bias",
    ]


# sha256 of init_params(tiny_cfg, 0)'s arrays (raw bytes, named order) and of
# its checkpoint file.  A change to the layout, an init rule or the draw
# order changes them.
INIT_SHA256 = "617e7b7861b992f52ac83ac7f8f4e03b3e76f3536c35ea88e0f78a4d6a6de28a"
CHECKPOINT_SHA256 = "b034aa3afab14035b0278624ff6127b4341d80a772426c0fb3c750809103a6c2"


def test_init_and_checkpoint_bytes_are_pinned(tiny_cfg, tmp_path):
    params = model.init_params(tiny_cfg, 0)
    digest = hashlib.sha256()
    for a in params.arrays():
        digest.update(a.tobytes())
    assert digest.hexdigest() == INIT_SHA256
    path = tmp_path / "ckpt.bin"
    model.save_checkpoint(path, params, tiny_cfg, seed=0)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECKPOINT_SHA256


# --- attention core ---


def test_scores_match_naive_oracle(rng):
    cfg = ModelConfig(embed_dim=12, n_layers=1, n_heads=3, ff_dim=8, vocab=11, seq_len=6, batch=2)
    q = rng.standard_normal((2, 6, 12))
    k = rng.standard_normal((2, 6, 12))
    v = rng.standard_normal((2, 6, 12))
    ctx, _ = model.scores_fwd(scaled(q, cfg), k, v, ((0, 6),), cfg, OFF, layer=0)
    np.testing.assert_allclose(ctx, attention_oracle(q, k, v, 0, cfg), rtol=1e-12, atol=1e-12)


def test_scores_match_oracle_with_offset_block(rng):
    cfg = ModelConfig(embed_dim=8, n_layers=1, n_heads=2, ff_dim=8, vocab=11, seq_len=6, batch=1)
    q = rng.standard_normal((1, 2, 8))  # rows at global positions 2, 3
    k = rng.standard_normal((1, 6, 8))
    v = rng.standard_normal((1, 6, 8))
    ctx, _ = model.scores_fwd(scaled(q, cfg), k, v, ((2, 4),), cfg, OFF, layer=0)
    np.testing.assert_allclose(ctx, attention_oracle(q, k, v, 2, cfg), rtol=1e-12, atol=1e-12)


# 1-3 ascending, disjoint chunks of positions below 1200, gaps allowed
chunk_rows = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.integers(0, 1200), min_size=2 * n, max_size=2 * n, unique=True)
).map(sorted).map(lambda ends: tuple(zip(ends[::2], ends[1::2])))


@settings(max_examples=200, deadline=None)
@given(blocks=st.integers(1, 40), rows=chunk_rows, keys=st.integers(1, 4096),
       causal=st.booleans(), dk=st.integers(1, 8))
def test_score_tiles_pack_every_band_once(blocks, rows, keys, causal, dk):
    """The bands tile the block's rows in order, a causal band stays inside
    one chunk, holds at most SCORE_BAND_ROWS rows and sees the keys up to
    its last row; the tile plan is the band plan: one tile per band, in band
    order, over every block, packed back to back from the stack's front,
    scoring exactly the flops of the cost model."""
    count = model.row_count(rows)
    positions = model.row_positions(rows)
    chunk_of = np.repeat(np.arange(len(rows)), [stop - start for start, stop in rows])
    bands = model.score_bands(rows, keys, causal)
    assert [r0 for r0, _, _ in bands] == [0] + [r1 for _, r1, _ in bands[:-1]]
    assert bands[-1][1] == count
    for r0, r1, visible in bands:
        assert r0 < r1
        if causal:
            assert chunk_of[r0] == chunk_of[r1 - 1]
            assert r1 - r0 <= model.SCORE_BAND_ROWS
            assert visible == min(keys, positions[r1 - 1] + 1)
        else:
            assert (r0, r1, visible) == (0, count, keys)
    tiles = model.score_tiles(blocks, bands)
    assert [tile[:3] for tile in tiles] == bands
    pos = 0
    for r0, r1, visible, start in tiles:
        assert start == pos
        pos += blocks * (r1 - r0) * visible
    assert pos <= blocks * count * keys
    cfg = ModelConfig(embed_dim=dk, n_layers=1, n_heads=1, ff_dim=4, vocab=5, seq_len=keys,
                      batch=blocks, causal=causal)
    flops = sum(4 * blocks * (r1 - r0) * visible * dk for r0, r1, visible, _ in tiles)
    assert flops == costs.score_flops(cfg, rows)


def test_zero_scores_give_uniform_causal_rows():
    """130 rows are three bands: 64, 64 and a ragged 2."""
    t = 130
    cfg = ModelConfig(embed_dim=4, n_layers=1, n_heads=1, ff_dim=4, vocab=5, seq_len=t, batch=1)
    q = np.zeros((1, t, 4))
    k = np.zeros((1, t, 4))
    v = np.zeros((1, t, 4))
    _, cache = model.scores_fwd(q, k, v, ((0, t),), cfg, OFF, layer=0)
    assert len({tile[:3] for tile in cache.tiles}) == 3
    aw = unpack_weights(cache)[0]
    for i in range(t):
        np.testing.assert_allclose(aw[i, : i + 1], np.full(i + 1, 1 / (i + 1)), atol=1e-15)
        np.testing.assert_array_equal(aw[i, i + 1 :], np.zeros(t - i - 1))


def test_single_row_attention_is_identity_weight():
    cfg = ModelConfig(embed_dim=4, n_layers=1, n_heads=1, ff_dim=4, vocab=5, seq_len=1, batch=1)
    rng = np.random.default_rng(0)
    q = rng.standard_normal((1, 1, 4))
    v = rng.standard_normal((1, 1, 4))
    ctx, cache = model.scores_fwd(q, q, v, ((0, 1),), cfg, OFF, layer=0)
    aw = unpack_weights(cache)[0]
    np.testing.assert_array_equal(aw, np.array([[1.0]]))
    np.testing.assert_allclose(ctx, v, rtol=1e-15)


def test_attention_rows_sum_to_one(rng):
    """150 rows are three bands: 64, 64 and a ragged 22."""
    t = 150
    cfg = ModelConfig(embed_dim=8, n_layers=1, n_heads=2, ff_dim=8, vocab=5, seq_len=t, batch=2)
    q = rng.standard_normal((2, t, 8))
    k = rng.standard_normal((2, t, 8))
    v = rng.standard_normal((2, t, 8))
    _, cache = model.scores_fwd(q, k, v, ((0, t),), cfg, OFF, layer=0)
    for aw in unpack_weights(cache):
        np.testing.assert_allclose(np.sum(aw, axis=1), np.ones(t), atol=1e-12)


def test_score_counters_track_shapes(rng):
    cfg = ModelConfig(embed_dim=8, n_layers=1, n_heads=2, ff_dim=8, vocab=5, seq_len=6, batch=3)
    q = rng.standard_normal((3, 2, 8))
    k = rng.standard_normal((3, 6, 8))
    v = rng.standard_normal((3, 6, 8))
    counters = tensor.StepCounters()
    with tensor.counting(counters):
        model.scores_fwd(q, k, v, ((0, 2),), cfg, OFF, layer=0)
    b, h, m, dk = 3, 2, 2, 4
    visible = 2  # rows 0 and 1 see keys 0 and 1, and the stack holds only those
    assert counters.attn_score_flops == b * h * (2 * m * dk * visible + 2 * m * visible * dk)
    assert counters.attn_score_elements_peak == b * h * m * visible


def scores_bwd_with_dropped_copy(attn, q, k, v, ctx, grad_ctx, cfg, policy):
    """Score backward from a cache that also kept the dropped exponentials:
    per (sample, head) block ``(e, e_dropped, keep, inv)``, ``inv`` the rows'
    reciprocal sums.  The rows' factors go on the context gradient, ``g =
    grad_ctx * inv`` (times the keep scale with dropout), and on the
    softmax backward's row sums ``grad_ctx . ctx`` over each head, as the
    kernel applies them; the query gradient takes the score scale."""
    bsz = q.shape[0]
    dk = cfg.head_dim
    grad_q, grad_k, grad_v = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
    blocks = iter(attn)
    for b in range(bsz):
        for h in range(cfg.n_heads):
            cols = slice(h * dk, (h + 1) * dk)
            e, e_d, keep, inv = next(blocks)
            g_ctx = grad_ctx[b, :, cols]
            factor = inv if keep is None else inv * nnops.keep_scale(policy, inv.dtype)
            g = g_ctx * factor
            grad_v[b, :, cols] = tensor.matmul(tensor.transpose(e_d), g)
            grad_e = tensor.matmul(g, tensor.transpose(v[b, :, cols]))
            if keep is not None:
                grad_e = grad_e * keep
            d = ((g_ctx * ctx[b, :, cols]) @ np.ones((dk, 1), ctx.dtype)) * inv
            grad_s = (grad_e - d) * e
            grad_q[b, :, cols] = tensor.matmul(grad_s, k[b, :, cols]) * (1.0 / math.sqrt(dk))
            grad_k[b, :, cols] = tensor.matmul(tensor.transpose(grad_s), q[b, :, cols])
    return grad_q, grad_k, grad_v


@pytest.mark.parametrize("causal", [True, False], ids=["causal", "full"])
@pytest.mark.parametrize("rate", [0.0, 0.3], ids=["no-dropout", "dropout"])
@pytest.mark.parametrize("offset", [0, 4])
def test_scores_bwd_bitwise_matches_a_cache_of_dropped_weights(rng, causal, rate, offset):
    """Rebuilding the dropped exponentials in backward changes no bit of the
    gradients against a backward that kept them."""
    cfg = ModelConfig(embed_dim=12, n_layers=1, n_heads=3, ff_dim=8, vocab=11, seq_len=8,
                      batch=2, causal=causal)
    policy = DropoutPolicy(rate=rate, seed=17)
    m = cfg.seq_len - offset
    q = rng.standard_normal((2, m, 12))
    k = rng.standard_normal((2, cfg.seq_len, 12))
    v = rng.standard_normal((2, cfg.seq_len, 12))
    grad_ctx = rng.standard_normal((2, m, 12))
    ctx, cache = model.scores_fwd(q, k, v, ((offset, offset + m),), cfg, policy, layer=1)
    assert (cache.keep is None) == (rate == 0.0)
    exps = unpack(cache, cache.exps)
    keeps = [None] * len(exps) if cache.keep is None else unpack(cache, cache.keep)
    attn = [(e, e if keep is None else e * keep, keep, inv)
            for e, keep, inv in zip(exps, keeps, cache.inv_sums.copy())]
    got = model.scores_bwd(cache, q, k, v, ctx, grad_ctx, cfg, policy)
    want = scores_bwd_with_dropped_copy(attn, q, k, v, ctx, grad_ctx, cfg, policy)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("rate", [0.0, 0.25])
def test_score_cache_keeps_exponentials_keep_mask_and_reciprocals_only(rng, precision, rate):
    cfg = ModelConfig(embed_dim=8, n_layers=1, n_heads=2, ff_dim=8, vocab=5, seq_len=6,
                      batch=3, precision=precision)
    dt = cfg.dtype
    q, k, v = (rng.standard_normal((3, 6, 8)).astype(dt) for _ in range(3))
    counters = tensor.StepCounters()
    with tensor.counting(counters):
        ctx, cache = model.scores_fwd(q, k, v, ((0, 6),), cfg, DropoutPolicy(rate=rate, seed=2), 0)
    assert ctx.dtype == dt
    assert cache.exps.shape == (3 * 2 * 6 * 6,)  # one band of every key
    assert cache.inv_sums.shape == (3 * 2, 6, 1)
    assert cache.exps.dtype == cache.inv_sums.dtype == dt
    assert (cache.keep is None) == (rate == 0.0)
    elements = 3 * 2 * 6 * 6
    assert cache.nbytes == elements * (dt.itemsize + (1 if rate else 0)) + 3 * 2 * 6 * dt.itemsize
    assert counters.attn_score_bytes_cached == cache.nbytes
    assert [f.name for f in fields(cache)] == ["exps", "keep", "inv_sums", "tiles"]


def score_inputs(rng, cfg, m):
    q = rng.standard_normal((cfg.batch, m, cfg.embed_dim))
    k, v = (rng.standard_normal((cfg.batch, cfg.seq_len, cfg.embed_dim)) for _ in range(2))
    return q, k, v


def test_two_forwards_without_a_backward_get_distinct_stacks(rng):
    cfg = ModelConfig(embed_dim=8, n_layers=2, n_heads=2, ff_dim=8, vocab=5, seq_len=6,
                      batch=2, dropout=0.2)
    policy = DropoutPolicy(rate=0.2, seed=4)
    q, k, v = score_inputs(rng, cfg, 6)
    with tensor.recycling():
        _, first = model.scores_fwd(q, k, v, ((0, 6),), cfg, policy, 0)
        stacks = [first.exps, first.keep, first.inv_sums]
        kept = [a.copy() for a in stacks]
        _, second = model.scores_fwd(q, k, v, ((0, 6),), cfg, policy, 1)
        for a in stacks:
            for b in (second.exps, second.keep, second.inv_sums):
                assert not np.shares_memory(a, b)
        assert all(np.array_equal(a, b) for a, b in zip(stacks, kept))


def test_scores_bwd_spends_its_cache_and_recycles_its_stacks(rng):
    cfg = ModelConfig(embed_dim=8, n_layers=1, n_heads=2, ff_dim=8, vocab=5, seq_len=6,
                      batch=2, dropout=0.2)
    policy = DropoutPolicy(rate=0.2, seed=4)
    q, k, v = score_inputs(rng, cfg, 6)
    grad_ctx = rng.standard_normal(q.shape)
    with tensor.recycling():
        ctx, cache = model.scores_fwd(q, k, v, ((0, 6),), cfg, policy, 0)
        stack = cache.exps
        want = model.scores_bwd(cache, q, k, v, ctx, grad_ctx, cfg, policy)
        assert cache.exps is None and cache.keep is None and cache.inv_sums is None
        with pytest.raises(ValueError, match="one backward"):
            model.scores_bwd(cache, q, k, v, ctx, grad_ctx, cfg, policy)
        # the next forward reuses the stack, and the run repeats bit for bit
        ctx, again = model.scores_fwd(q, k, v, ((0, 6),), cfg, policy, 0)
        assert again.exps is stack
        got = model.scores_bwd(again, q, k, v, ctx, grad_ctx, cfg, policy)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_scores_bwd_refuses_a_spent_cache_and_a_stack_of_the_wrong_length(rng):
    """A spent cache cannot serve a second backward, and a cache whose
    stack is not exactly its tile plan's length (here, queries of another
    batch than the forward's) is refused before any tile is read."""
    cfg = ModelConfig(embed_dim=8, n_layers=1, n_heads=2, ff_dim=8, vocab=5, seq_len=130,
                      batch=2)
    q, k, v = score_inputs(rng, cfg, 130)
    grad_ctx = rng.standard_normal(q.shape)
    ctx, cache = model.scores_fwd(q, k, v, ((0, 130),), cfg, OFF, 0)
    # three bands of 64, 64 and 2 rows, over 4 blocks: 50192 elements; the
    # plan's last tile, at 2 blocks, would end at 49152 + 2 * 2 * 130
    assert cache.exps.shape == (4 * (64 * 64 + 64 * 128 + 2 * 130),)
    with pytest.raises(ValueError, match="holds 50192 elements, .* over 2 blocks packs 49672"):
        model.scores_bwd(cache, q[:1], k[:1], v[:1], ctx[:1], grad_ctx[:1], cfg, OFF)
    model.scores_bwd(cache, q, k, v, ctx, grad_ctx, cfg, OFF)
    with pytest.raises(ValueError, match="a cache serves one backward"):
        model.scores_bwd(cache, q, k, v, ctx, grad_ctx, cfg, OFF)


# (batch, heads, rows, keys, offset): a T128 block of two bands, a ragged
# T300 block (a 64-row band and a 36-row one), and 512x512 blocks of eight
# bands (one full-width band without the causal mask)
MATMUL_PLAN_SHAPES = [(4, 8, 128, 128, 0), (2, 2, 100, 300, 200), (1, 2, 512, 512, 0)]


@pytest.mark.parametrize("shape", MATMUL_PLAN_SHAPES, ids=lambda s: f"B{s[0]}H{s[1]}-{s[2]}x{s[3]}")
@pytest.mark.parametrize("causal", [True, False], ids=["causal", "full"])
@pytest.mark.parametrize("rate", [0.0, 0.1], ids=["no-dropout", "dropout"])
def test_score_kernels_make_one_stacked_product_per_tile_and_role(monkeypatch, shape, causal,
                                                                   rate):
    """Each band multiplies every block as one stack: two products forward
    (scores, context) and four backward (value, weight, query and key
    gradients), whatever the bands."""
    bsz, heads, m, t, offset = shape
    cfg = ModelConfig(embed_dim=8 * heads, n_layers=1, n_heads=heads, ff_dim=8, vocab=5,
                      seq_len=t, batch=bsz, causal=causal)
    policy = DropoutPolicy(rate=rate, seed=3)
    rng = np.random.default_rng(5)
    q, grad_ctx = (rng.standard_normal((bsz, m, cfg.embed_dim)) for _ in range(2))
    k, v = (rng.standard_normal((bsz, t, cfg.embed_dim)) for _ in range(2))
    calls = []
    real = tensor.matmul

    def counted(a, b, **kw):
        calls.append(a.shape)
        return real(a, b, **kw)

    monkeypatch.setattr(tensor, "matmul", counted)
    ctx, cache = model.scores_fwd(q, k, v, ((offset, offset + m),), cfg, policy, layer=0)
    bands = model.score_bands(((offset, offset + m),), t, causal)
    assert len(cache.tiles) == len(bands)
    assert len(calls) == 2 * len(bands)
    calls.clear()
    model.scores_bwd(cache, q, k, v, ctx, grad_ctx, cfg, policy)
    assert len(calls) == 4 * len(bands)
    assert all(len(shape) == 3 for shape in calls)


# --- whole model forward/backward ---


def test_forward_loss_matches_logits(tiny_cfg, rng):
    params = model.init_params(tiny_cfg, 1)
    tokens, targets = rand_batch(tiny_cfg, rng)
    loss, cache = model.forward(params, tiny_cfg, tokens, targets)
    assert cache.logits is None  # the loss is the output; its logits are not kept
    logits = nnops.linear_fwd(cache.head.xf, params.head)
    direct, _ = nnops.cross_entropy(logits, targets.reshape(-1))
    assert loss == direct


def test_forward_without_targets_returns_no_loss(tiny_cfg, rng):
    params = model.init_params(tiny_cfg, 1)
    tokens, _ = rand_batch(tiny_cfg, rng)
    loss, cache = model.forward(params, tiny_cfg, tokens)
    assert loss is None
    assert cache.logits.shape == (tiny_cfg.batch * tiny_cfg.seq_len, tiny_cfg.vocab)
    with pytest.raises(ValueError):
        model.backward(params, tiny_cfg, cache)


def test_explicit_local_placements_are_the_defaults(tiny_cfg, rng):
    """Local embedding and head placements passed by hand give the default
    loss and flat gradient bit for bit, and each placement's backward runs
    once per ``model.backward`` (a layer's twice, once per sublayer)."""
    params = model.init_params(tiny_cfg, 0)
    tokens, targets = rand_batch(tiny_cfg, rng)
    policy = DropoutPolicy(rate=0.1, seed=3)

    def loss_and_grads(**hooks):
        loss, cache = model.forward(params, tiny_cfg, tokens, targets, policy, **hooks)
        return loss, model.flatten_arrays(model.backward(params, tiny_cfg, cache).arrays())

    want_loss, want = loss_and_grads()
    local = model.local_place_fwd
    loss, got = loss_and_grads(embed_place_fwd=local, head_place_fwd=local)
    assert loss == want_loss and got.tobytes() == want.tobytes()

    runs = Counter()

    def counting(part):
        def place_fwd(fn, y, rows):
            out, cache, bwd = local(fn, y, rows)

            def place_bwd(*args):
                runs[part] += 1
                return bwd(*args)
            return out, cache, place_bwd
        return place_fwd

    loss, got = loss_and_grads(embed_place_fwd=counting("embed"), head_place_fwd=counting("head"),
                               layer_place_fwd=lambda li: counting(f"layer{li}"))
    assert loss == want_loss and got.tobytes() == want.tobytes()
    assert runs == {"embed": 1, "head": 1, "layer0": 2, "layer1": 2}


def test_forward_validates_token_shape(tiny_cfg):
    params = model.init_params(tiny_cfg, 1)
    with pytest.raises(ShapeError):
        model.forward(params, tiny_cfg, np.zeros(4, dtype=np.int64))


def test_zero_layer_model_is_embed_plus_head(rng):
    cfg = ModelConfig(embed_dim=8, n_layers=0, n_heads=2, ff_dim=4, vocab=13, seq_len=5, batch=2)
    params = model.init_params(cfg, 4)
    tokens = rng.integers(0, 13, size=(2, 5))
    targets = rng.integers(0, 13, size=(2, 5))
    loss, _ = model.forward(params, cfg, tokens, targets)

    x = params.token_table[tokens] + params.pos_table[None, :, :]
    xf, _ = nnops.layernorm_fwd(x.reshape(10, 8), params.final_gain, params.final_bias)
    logits = nnops.linear_fwd(xf, params.head)
    expected, _ = nnops.cross_entropy(logits, targets.reshape(-1))
    assert loss == expected


def test_zeroed_head_gives_uniform_loss(tiny_cfg, rng):
    params = model.init_params(tiny_cfg, 2)
    params.head.weight[:] = 0.0
    params.head.bias[:] = 0.0
    tokens, targets = rand_batch(tiny_cfg, rng)
    loss, _ = model.forward(params, tiny_cfg, tokens, targets)
    assert abs(loss - math.log(tiny_cfg.vocab)) < 1e-12


def test_causal_future_tokens_cannot_leak(rng):
    cfg = ModelConfig(embed_dim=16, n_layers=2, n_heads=2, ff_dim=32, vocab=50, seq_len=8, batch=1)
    params = model.init_params(cfg, 5)
    tokens = rng.integers(0, 50, size=(1, 8))
    _, cache = model.forward(params, cfg, tokens)
    logits = cache.logits.reshape(1, 8, 50)

    t0 = 5
    perturbed = tokens.copy()
    perturbed[0, t0] = (perturbed[0, t0] + 1) % 50
    _, cache2 = model.forward(params, cfg, perturbed)
    logits2 = cache2.logits.reshape(1, 8, 50)

    assert np.array_equal(logits[0, :t0], logits2[0, :t0])
    assert not np.allclose(logits[0, t0], logits2[0, t0])


def test_backward_matches_finite_differences_tiny():
    cfg = ModelConfig(embed_dim=8, n_layers=1, n_heads=2, ff_dim=8, vocab=11, seq_len=4, batch=1)
    params = model.init_params(cfg, 9)
    r = np.random.default_rng(42)
    tokens = r.integers(0, 11, size=(1, 4))
    targets = r.integers(0, 11, size=(1, 4))
    _, cache = model.forward(params, cfg, tokens, targets)
    grads = model.backward(params, cfg, cache)

    eps = 1e-6
    checked = 0
    for (name, w), (_, g) in zip(params.named_arrays(), grads.named_arrays()):
        flat_w, flat_g = w.reshape(-1), g.reshape(-1)
        # probe a few entries per array, including the largest-gradient one
        probes = {0, flat_w.size - 1, int(np.argmax(np.abs(flat_g)))}
        for i in probes:
            keep = flat_w[i]
            flat_w[i] = keep + eps
            up, _ = model.forward(params, cfg, tokens, targets)
            flat_w[i] = keep - eps
            down, _ = model.forward(params, cfg, tokens, targets)
            flat_w[i] = keep
            num = (up - down) / (2 * eps)
            assert abs(num - flat_g[i]) < 1e-5 * max(1.0, abs(flat_g[i])), name
            checked += 1
    assert checked >= 44


def test_training_reduces_loss(tiny_cfg, rng):
    params = model.init_params(tiny_cfg, 0)
    batch = rand_batch(tiny_cfg, rng)
    _, losses, _ = sequential_sgd(tiny_cfg, params, [batch] * 40, lr=0.3)
    assert losses[-1] < 0.6 * losses[0]
    assert np.mean(losses[-5:]) < np.mean(losses[:5])


def test_sgd_step_basics(tiny_cfg):
    vec, params = model.flat_view(model.init_params(tiny_cfg, 0))
    before = vec.copy()
    model.sgd_step(vec, np.zeros_like(vec), lr=0.5)
    assert vec.tobytes() == before.tobytes()
    model.sgd_step(vec, np.ones_like(vec), lr=0.25)
    np.testing.assert_allclose(vec, before - 0.25, rtol=0, atol=1e-15)
    # the update lands in the parameters, which are views of the vector
    np.testing.assert_array_equal(params.head.bias, (before - 0.25)[-params.head.bias.size:])


def test_flatten_unflatten_round_trip(tiny_cfg, rng):
    params = model.init_params(tiny_cfg, 6)
    arrays = params.arrays()
    vec = model.flatten_arrays(arrays)
    assert vec.size == model.param_count(params)
    back = model.unflatten_like(vec, arrays)
    for a, b in zip(arrays, back):
        assert a.tobytes() == b.tobytes()
    with pytest.raises(ShapeError):
        model.unflatten_like(vec[:-1], arrays)


def test_grad_norm_known_value(tiny_cfg):
    zeros = model.init_params(tiny_cfg, 0)
    vec, grads = model.flat_view(zeros.replace_arrays([np.zeros_like(a) for a in zeros.arrays()]))
    slices = model.flat_slices(grads)
    assert model.grad_norm(vec, slices.values()) == 0.0
    grads.token_table[0, 0] = 3.0  # writes the vector through the views
    grads.pos_table[0, 0] = 4.0
    assert abs(model.grad_norm(vec, slices.values()) - 5.0) < 1e-12
    assert model.grad_norm(vec, (slices["pos_table"],), squared=True) == 16.0


# --- checkpoints ---


def test_checkpoint_round_trip(tiny_cfg, tmp_path):
    params = model.init_params(tiny_cfg, 77)
    path = tmp_path / "ckpt.bin"
    model.save_checkpoint(path, params, tiny_cfg, seed=77)
    loaded, cfg2, seed2 = model.load_checkpoint(path)
    assert cfg2 == tiny_cfg
    assert seed2 == 77
    for a, b in zip(params.arrays(), loaded.arrays()):
        assert a.tobytes() == b.tobytes()


def test_checkpoint_rejects_garbage(tiny_cfg, tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="not a checkpoint"):
        model.load_checkpoint(path)


def test_checkpoint_rejects_wrong_version(tiny_cfg, tmp_path):
    params = model.init_params(tiny_cfg, 0)
    path = tmp_path / "ckpt.bin"
    model.save_checkpoint(path, params, tiny_cfg, seed=0)
    raw = bytearray(path.read_bytes())
    raw[4] = 99  # bump the little-endian version field
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"checkpoint {re.escape(str(path))} has unsupported "
                                         "version 99"):
        model.load_checkpoint(path)


def test_checkpoint_rejects_an_array_of_the_wrong_shape(tiny_cfg, tmp_path):
    params = model.init_params(tiny_cfg, 0)
    path = tmp_path / "ckpt.bin"
    model.save_checkpoint(path, params, tiny_cfg, seed=0)
    raw = bytearray(path.read_bytes())
    (header_len,) = struct.unpack_from("<I", raw, 8)
    rows, cols = params.token_table.shape
    # the first array's first dimension, after the header and its rank byte
    struct.pack_into("<Q", raw, 12 + header_len + 1, rows - 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(ShapeError, match=re.escape(
            f"checkpoint {path} array token_table is ({rows - 1}, {cols}), "
            f"its config has ({rows}, {cols})")):
        model.load_checkpoint(path)


def test_checkpoint_checks_array_names_without_drawing(tiny_cfg, tmp_path, monkeypatch):
    path = tmp_path / "ckpt.bin"
    model.save_checkpoint(path, model.init_params(tiny_cfg, 0), tiny_cfg, seed=0)

    def no_rng(*_):
        raise AssertionError("load_checkpoint drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    model.load_checkpoint(path)
    # same length, so the header length field stays valid
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b'"layer0.attn_q.weight"', b'"layer0.attn_k.weight"', 1))
    with pytest.raises(ValueError, match="array 4 is 'layer0.attn_k.weight', "
                                         "its config has 'layer0.attn_q.weight'"):
        model.load_checkpoint(path)


def _header_end(raw: bytes) -> int:
    return 12 + int.from_bytes(raw[8:12], "little")


@pytest.mark.parametrize("cut,problem", [
    (lambda raw: raw[:10], "truncated"),                    # inside the header length
    (lambda raw: raw[: _header_end(raw) - 5], "truncated"),  # inside the header
    (lambda raw: raw[:-3], "truncated"),                    # inside the last array
    (lambda raw: raw + b"\x00\x01", "trailing bytes"),
], ids=["header-length", "header", "last-array", "appended"])
def test_checkpoint_rejects_truncated_or_trailing_bytes(tiny_cfg, tmp_path, cut, problem):
    path = tmp_path / "ckpt.bin"
    model.save_checkpoint(path, model.init_params(tiny_cfg, 0), tiny_cfg, seed=0)
    path.write_bytes(cut(path.read_bytes()))
    with pytest.raises(ValueError, match=problem) as err:
        model.load_checkpoint(path)
    assert str(path) in str(err.value)


def _set_byte(raw: bytes, at: int, value: int) -> bytes:
    return raw[:at] + bytes([value]) + raw[at + 1:]


@pytest.mark.parametrize("corrupt,problem", [
    (lambda raw: _set_byte(raw, 20, raw[20] ^ 0xFF), "utf-8"),  # inside '"config"'
    (lambda raw: _set_byte(raw, 12, ord("[")), "Expecting"),   # the header's opening brace
    (lambda raw: raw.replace(b'"config"', b'"conxig"', 1), "no key 'config'"),
    (lambda raw: raw.replace(b'"seed"', b'"seex"', 1), "no key 'seed'"),
    (lambda raw: raw.replace(b'"embed_dim": 16', b'"embed_dim": -4', 1), "must be positive"),
], ids=["not-utf8", "not-json", "no-config", "no-seed", "bad-config"])
def test_checkpoint_rejects_a_corrupt_header(tiny_cfg, tmp_path, corrupt, problem):
    path = tmp_path / "ckpt.bin"
    model.save_checkpoint(path, model.init_params(tiny_cfg, 0), tiny_cfg, seed=0)
    path.write_bytes(corrupt(path.read_bytes()))
    want = rf"^checkpoint {re.escape(str(path))} has a corrupt header: .*{problem}"
    with pytest.raises(ValueError, match=want):
        model.load_checkpoint(path)
