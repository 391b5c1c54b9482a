import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqpar import nnops, tensor
from seqpar.errors import ShapeError
from seqpar.nnops import DropoutPolicy, LinearParams


def fd_error(f, x, analytic, eps=1e-5):
    """Max |central difference - analytic| normalized by the gradient scale."""
    num = np.zeros_like(x, dtype=np.float64)
    flat_x = x.reshape(-1)
    flat_num = num.reshape(-1)
    for i in range(flat_x.size):
        keep = flat_x[i]
        flat_x[i] = keep + eps
        up = f()
        flat_x[i] = keep - eps
        down = f()
        flat_x[i] = keep
        flat_num[i] = (up - down) / (2 * eps)
    scale = np.max(np.abs(analytic)) + 1e-12
    return float(np.max(np.abs(num - analytic)) / scale)


# --- linear ---


def test_linear_identity_weight():
    p = LinearParams(weight=np.eye(3), bias=np.zeros(3))
    x = np.arange(6, dtype=np.float64).reshape(2, 3)
    np.testing.assert_array_equal(nnops.linear_fwd(x, p), x)


def test_linear_known_value():
    p = LinearParams(weight=np.array([[1.0], [1.0]]), bias=np.array([3.0]))
    out = nnops.linear_fwd(np.array([[1.0, 2.0]]), p)
    np.testing.assert_array_equal(out, np.array([[6.0]]))


def test_linear_rows_independent(rng):
    p = LinearParams(weight=rng.standard_normal((4, 3)), bias=rng.standard_normal(3))
    x = rng.standard_normal((6, 4))
    whole = nnops.linear_fwd(x, p)
    split = np.concatenate([nnops.linear_fwd(x[:2], p), nnops.linear_fwd(x[2:], p)])
    np.testing.assert_allclose(whole, split, rtol=0, atol=1e-14)


def test_linear_bias_shape_validation():
    p = LinearParams(weight=np.zeros((2, 3)), bias=np.zeros(2))
    with pytest.raises(ShapeError):
        nnops.linear_fwd(np.zeros((1, 2)), p)


def test_linear_backward_matches_finite_differences(rng):
    x = rng.standard_normal((3, 4))
    p = LinearParams(weight=rng.standard_normal((4, 5)), bias=rng.standard_normal(5))
    r = rng.standard_normal((3, 5))
    gx, gw, gb = nnops.linear_bwd(x, p, r)
    assert fd_error(lambda: float(np.sum(nnops.linear_fwd(x, p) * r)), x, gx) < 1e-6
    assert fd_error(lambda: float(np.sum(nnops.linear_fwd(x, p) * r)), p.weight, gw) < 1e-6
    assert fd_error(lambda: float(np.sum(nnops.linear_fwd(x, p) * r)), p.bias, gb) < 1e-6


# --- layernorm ---


def test_layernorm_constant_row_maps_to_bias():
    gain, bias = np.ones(2), np.zeros(2)
    y, _ = nnops.layernorm_fwd(np.array([[1.0, 1.0]]), gain, bias)
    np.testing.assert_allclose(y, np.zeros((1, 2)), atol=1e-10)
    y2, _ = nnops.layernorm_fwd(np.array([[5.0, 5.0]]), gain, np.array([0.25, -0.5]))
    np.testing.assert_allclose(y2, np.array([[0.25, -0.5]]), atol=1e-10)


def test_layernorm_standardizes_known_row():
    y, _ = nnops.layernorm_fwd(np.array([[0.0, 2.0]]), np.ones(2), np.zeros(2))
    np.testing.assert_allclose(y, np.array([[-1.0, 1.0]]), atol=1e-4)


def test_layernorm_rows_standardized(rng):
    x = rng.standard_normal((6, 16)) * 3 + 1
    y, _ = nnops.layernorm_fwd(x, np.ones(16), np.zeros(16))
    np.testing.assert_allclose(np.mean(y, axis=1), np.zeros(6), atol=1e-12)
    np.testing.assert_allclose(np.std(y, axis=1), np.ones(6), atol=1e-4)


def test_layernorm_backward_matches_finite_differences(rng):
    x = rng.standard_normal((3, 8))
    gain = rng.standard_normal(8)
    bias = rng.standard_normal(8)
    r = rng.standard_normal((3, 8))

    def loss():
        y, _ = nnops.layernorm_fwd(x, gain, bias)
        return float(np.sum(y * r))

    _, cache = nnops.layernorm_fwd(x, gain, bias)
    gx, gg, gb = nnops.layernorm_bwd(cache, gain, r)
    assert fd_error(loss, x, gx) < 1e-6
    assert fd_error(loss, gain, gg) < 1e-6
    assert fd_error(loss, bias, gb) < 1e-6


# --- gelu ---


def test_gelu_fixed_points():
    assert nnops.gelu_fwd(np.array([0.0]))[0][0] == 0.0
    assert abs(nnops.gelu_fwd(np.array([10.0]))[0][0] - 10.0) < 1e-6
    assert abs(nnops.gelu_fwd(np.array([-10.0]))[0][0]) < 1e-6


def test_gelu_midpoint_slope():
    # at 0 the tanh form has value 0 and slope exactly 1/2
    eps = 1e-6
    y, _ = nnops.gelu_fwd(np.array([eps, -eps]))
    np.testing.assert_allclose((y[0] - y[1]) / (2 * eps), 0.5, atol=1e-6)


def test_gelu_backward_matches_finite_differences(rng):
    x = rng.standard_normal(40) * 2
    r = rng.standard_normal(40)
    g = nnops.gelu_bwd(nnops.gelu_fwd(x)[1], r)
    assert fd_error(lambda: float(np.sum(nnops.gelu_fwd(x)[0] * r)), x, g) < 1e-6


def gelu_fwd_pow(x):
    """GELU as first written, with the cube as ``x**3``."""
    return 0.5 * x * (1.0 + np.tanh(nnops._GELU_C * (x + 0.044715 * x**3)))


def gelu_bwd_pow(x, grad_y):
    t = np.tanh(nnops._GELU_C * (x + 0.044715 * x**3))
    local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * nnops._GELU_C * (
        1.0 + 3.0 * 0.044715 * x**2
    )
    return grad_y * local


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32), scale=st.floats(0.1, 20.0))
def test_gelu_matches_pow_formulas(seed, scale):
    r = np.random.default_rng(seed)
    x = r.standard_normal(512) * scale
    g = r.standard_normal(512)
    y, d = nnops.gelu_fwd(x)
    for got, want in ((y, gelu_fwd_pow(x)), (nnops.gelu_bwd(d, g), gelu_bwd_pow(x, g))):
        # relative to the array's scale: both outputs cross zero (the slope
        # near x = -0.75), where elementwise error only measures cancellation
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.max(np.abs(want)))


# --- dropout ---


def coords(rows):
    return np.zeros(rows, dtype=np.int64), np.arange(rows, dtype=np.int64)


def test_dropout_inactive_is_identity(rng):
    x = rng.standard_normal((4, 8))
    s, p = coords(4)
    for policy in (DropoutPolicy.off(), DropoutPolicy(rate=0.0, seed=3)):
        y, mask = nnops.dropout_fwd(x, policy, 0, "embed", s, p)
        assert mask is None
        assert y is x
        assert nnops.dropout_bwd(x, policy, None) is x


def test_dropout_scales_kept_entries(rng):
    x = np.ones((16, 32))
    policy = DropoutPolicy(rate=0.25, seed=7)
    s, p = coords(16)
    y, mask = nnops.dropout_fwd(x, policy, 0, "embed", s, p)
    np.testing.assert_array_equal(y[mask], np.full(np.sum(mask), 1 / 0.75))
    np.testing.assert_array_equal(y[~mask], np.zeros(np.sum(~mask)))
    kept = np.mean(mask)
    assert 0.6 < kept < 0.9  # 512 samples at keep-rate 0.75


def test_dropout_mask_is_deterministic(rng):
    x = rng.standard_normal((8, 16))
    policy = DropoutPolicy(rate=0.5, seed=11)
    s, p = coords(8)
    y1, m1 = nnops.dropout_fwd(x, policy, 2, "ffn_hidden", s, p)
    y2, m2 = nnops.dropout_fwd(x, policy, 2, "ffn_hidden", s, p)
    np.testing.assert_array_equal(m1, m2)
    np.testing.assert_array_equal(y1, y2)


def test_dropout_mask_is_shard_invariant(rng):
    """Splitting rows across workers must not change any row's mask."""
    x = rng.standard_normal((12, 8))
    policy = DropoutPolicy(rate=0.4, seed=5)
    s, p = coords(12)
    _, whole = nnops.dropout_fwd(x, policy, 1, "attn_out", s, p)
    _, left = nnops.dropout_fwd(x[:6], policy, 1, "attn_out", s[:6], p[:6])
    _, right = nnops.dropout_fwd(x[6:], policy, 1, "attn_out", s[6:], p[6:])
    np.testing.assert_array_equal(np.concatenate([left, right]), whole)


def test_dropout_masks_differ_across_sites(rng):
    policy = DropoutPolicy(rate=0.5, seed=9)
    s, p = coords(32)
    masks = {}
    for tag in ("embed", "attn_out", "ffn_hidden", "ffn_out"):
        _, m = nnops.dropout_fwd(np.ones((32, 16)), policy, 0, tag, s, p)
        masks[tag] = m
    tags = list(masks)
    for i in range(len(tags)):
        for j in range(i + 1, len(tags)):
            assert not np.array_equal(masks[tags[i]], masks[tags[j]])
    _, other_layer = nnops.dropout_fwd(np.ones((32, 16)), policy, 1, "embed", s, p)
    assert not np.array_equal(masks["embed"], other_layer)


def test_dropout_policy_step_and_first_sample_decorrelate():
    base = DropoutPolicy(rate=0.5, seed=21)
    s, p = coords(32)
    x = np.ones((32, 16))
    masks = [
        nnops.dropout_fwd(x, policy, 0, "embed", s, p)[1]
        for policy in (base.at_step(0), base.at_step(1), base,
                       replace(base, first_sample=1), replace(base, first_sample=2))
    ]
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            assert not np.array_equal(masks[i], masks[j])
    # deriving twice from the same coordinates is stable
    assert base.at_step(3).seed == base.at_step(3).seed
    assert base.at_step(3).first_sample == 0
    assert replace(base, first_sample=2).at_step(3).first_sample == 2


@pytest.mark.parametrize("first, sample", [(0, 0), (0, 3), (2, 0), (2, 1), (5, 3)])
def test_masks_are_keyed_by_the_global_sample(first, sample):
    """``first_sample=k`` at local sample ``b`` draws the masks of
    ``first_sample=0`` at sample ``k + b``: a worker holding rows ``[k, ...)``
    of the combined batch draws that batch's masks."""
    base = DropoutPolicy(rate=0.5, seed=13)
    local = replace(base, first_sample=first)
    x = np.ones((8, 16))
    positions = np.arange(8, dtype=np.int64)
    samples = np.full(8, sample, dtype=np.int64)
    _, got = nnops.dropout_fwd(x, local, 1, "ffn_out", samples, positions)
    _, want = nnops.dropout_fwd(x, base, 1, "ffn_out", samples + first, positions)
    assert np.array_equal(got, want)
    np.testing.assert_array_equal(nnops.score_row_keys(local, 1, sample, 1, positions),
                                  nnops.score_row_keys(base, 1, first + sample, 1, positions))
    # the next global sample draws other masks and other score keys
    _, other = nnops.dropout_fwd(x, local, 1, "ffn_out", samples + 1, positions)
    assert not np.array_equal(got, other)
    assert not np.array_equal(nnops.score_row_keys(local, 1, sample, 1, positions),
                              nnops.score_row_keys(local, 1, sample + 1, 1, positions))


def test_dropout_validation():
    with pytest.raises(ValueError):
        DropoutPolicy(rate=1.0)
    with pytest.raises(ValueError):
        DropoutPolicy(rate=-0.1)
    s, p = coords(3)
    with pytest.raises(ShapeError):
        nnops.dropout_fwd(np.zeros((3, 2, 2)), DropoutPolicy(rate=0.5), 0, "embed", s, p)
    with pytest.raises(ShapeError):
        nnops.dropout_fwd(np.zeros((4, 2)), DropoutPolicy(rate=0.5), 0, "embed", s, p)
    with pytest.raises(ValueError):
        nnops.dropout_fwd(np.zeros((3, 2)), DropoutPolicy(rate=0.5), 0, "no_such_site", s, p)


@pytest.mark.parametrize("rate", [1 - 2**-20, float(np.nextafter(1 - 2**-16, 1.0)), 0.99999])
def test_dropout_policy_refuses_rates_the_lanes_cannot_express(rate):
    # above 1 - 2**-16 the lane threshold would be 2**16: every element
    # dropped and a keep scale of 1/0
    with pytest.raises(ValueError, match=r"\[0, 1 - 2\*\*-16 = 0\.9999847412109375\]"):
        DropoutPolicy(rate=rate)
    assert DropoutPolicy(rate=1 - 2**-16).rate == nnops.MAX_RATE


def test_dropout_backward_reuses_mask(rng):
    x = rng.standard_normal((6, 10))
    g = rng.standard_normal((6, 10))
    policy = DropoutPolicy(rate=0.3, seed=2)
    s, p = coords(6)
    _, mask = nnops.dropout_fwd(x, policy, 0, "embed", s, p)
    gx = nnops.dropout_bwd(g, policy, mask)
    np.testing.assert_array_equal(gx[~mask], np.zeros(np.sum(~mask)))
    np.testing.assert_allclose(gx[mask], g[mask] * (2**16 / (2**16 - math.ceil(0.3 * 2**16))),
                               rtol=1e-15)


# --- counter-based PRF ---


def test_mix_key_is_pure_and_sensitive():
    assert nnops.mix_key(1, 2) == nnops.mix_key(1, 2)
    assert nnops.mix_key(1, 2) != nnops.mix_key(1, 3)
    assert nnops.mix_key(1, 2) != nnops.mix_key(2, 2)
    assert 0 <= nnops.mix_key(2**64 - 1, 2**63) < 2**64


def test_mix_array_matches_scalar_mix():
    h = 0xDEADBEEF
    words = np.array([0, 1, 2, 500, 2**40], dtype=np.uint64)
    vec = nnops._mix_array(np.full(words.shape, np.uint64(h), dtype=np.uint64), words)
    scalar = [nnops.mix_key(h, int(w)) for w in words]
    assert [int(v) for v in vec] == scalar


def test_keep_mask_rate_zero_keeps_everything():
    keys = nnops.token_row_keys(
        DropoutPolicy(rate=0.0, seed=1), 0, "embed",
        np.zeros(4, dtype=np.int64), np.arange(4, dtype=np.int64),
    )
    mask = nnops.keep_mask(DropoutPolicy(rate=0.0, seed=1), keys, 8)
    assert mask.all()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32), rate=st.floats(0.05, 0.9))
def test_keep_mask_hits_rate_in_expectation(seed, rate):
    policy = DropoutPolicy(rate=rate, seed=seed)
    keys = nnops.token_row_keys(
        policy, 0, "embed", np.zeros(64, dtype=np.int64), np.arange(64, dtype=np.int64)
    )
    mask = nnops.keep_mask(policy, keys, 64)
    assert abs(np.mean(mask) - (1 - rate)) < 0.08


def mix_array_reference(h, words):
    """mix_key over uint64 arrays as first written: a fresh array per op."""
    z = h + words.astype(np.uint64) * np.uint64(nnops._GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(nnops._MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(nnops._MIX_B)
    return z ^ (z >> np.uint64(31))


def lanes_reference(row_keys, n_cols, mix=mix_array_reference):
    """Each row's first ``n_cols`` 16-bit lanes by arithmetic: column 4w + j
    is ``(z >> 16j) & 0xFFFF`` of the row's hash word ``z = mix(key, w)``."""
    n_words = -(-n_cols // 4)
    words = mix(row_keys[:, None], np.arange(n_words, dtype=np.uint64)[None, :])
    lanes = [(words >> np.uint64(16 * j)) & np.uint64(0xFFFF) for j in range(4)]
    return np.stack(lanes, axis=-1).reshape(len(row_keys), 4 * n_words)[:, :n_cols]


def keep_mask_float(policy, row_keys, n_cols):
    """The keep-mask as a float uniform in [0, 1) per element (a lane over
    2**16), kept when it is at least the rate."""
    return lanes_reference(row_keys, n_cols).astype(np.float64) * 2.0**-16 >= policy.rate


EDGE_RATES = [0.0, 0.1, 1 / 3, 0.5, 1 - 2**-16]
rate_st = st.one_of(st.sampled_from(EDGE_RATES), st.floats(0.0, nnops.MAX_RATE))
row_keys_st = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8).map(
    lambda ks: np.array(ks, dtype=np.uint64)
)


@settings(max_examples=60, deadline=None)
@given(rate=rate_st, row_keys=row_keys_st)
def test_keep_mask_equals_float_formula(rate, row_keys):
    policy = DropoutPolicy(rate=rate)
    assert np.array_equal(nnops.keep_mask(policy, row_keys, 64),
                          keep_mask_float(policy, row_keys, 64))


@settings(max_examples=30, deadline=None)
@given(row_keys=row_keys_st, pick=st.integers(0, 2**16))
def test_keep_mask_threshold_is_exact_at_a_drawn_value(row_keys, pick):
    # a rate equal to one lane's value / 2**16 keeps that lane; the next
    # float up drops it, so the integer threshold has no off-by-one
    flat = lanes_reference(row_keys, 16).reshape(-1)
    i = pick % flat.size
    rate = float(flat[i]) * 2.0**-16
    for r, kept in ((rate, True), (np.nextafter(rate, 1.0), False)):
        if r > nnops.MAX_RATE:  # the lane 0xFFFF: no rate drops it
            continue
        policy = DropoutPolicy(rate=float(r))
        mask = nnops.keep_mask(policy, row_keys, 16)
        assert mask.reshape(-1)[i] == kept
        assert np.array_equal(mask, keep_mask_float(policy, row_keys, 16))


def keep_mask_untiled(policy, row_keys, n_cols):
    """The keep-mask as one whole-array hash, through _mix_array."""
    lanes = lanes_reference(row_keys, n_cols, mix=nnops._mix_array)
    return lanes >= np.uint64(math.ceil(policy.rate * 2**16))


@pytest.mark.parametrize("budget", [None, 64, 1000])
@pytest.mark.parametrize("cols", [1, 2, 7, 64, 65, 333, 512, 600])
def test_tiled_keep_mask_equals_the_whole_array_hash(monkeypatch, budget, cols):
    if budget is not None:  # small budgets: many tiles, a ragged last tile, rows longer than a tile
        monkeypatch.setattr(nnops, "ROW_TILE_WORDS", budget)
    policy = DropoutPolicy(rate=0.3, seed=11)
    height, _ = nnops.row_tile(-(-cols // 4))
    for rows in sorted({1, height - 1, height, height + 1, 3 * height + 2} - {0}):
        keys = nnops.score_row_keys(policy, 1, 0, 2, np.arange(rows, dtype=np.int64))
        want = keep_mask_untiled(policy, keys, cols)
        assert np.array_equal(nnops.keep_mask(policy, keys, cols), want)
        out = np.zeros((rows, cols), dtype=bool)
        with tensor.recycling():
            assert nnops.keep_mask(policy, keys, cols, out=out) is out
            assert np.array_equal(nnops.keep_mask(policy, keys, cols, out=out), want)


@settings(max_examples=60, deadline=None)
@given(rate=rate_st, row_keys=row_keys_st, n_cols=st.integers(1, 70))
def test_in_place_keep_mask_equals_mix_array_formula(rate, row_keys, n_cols):
    want = lanes_reference(row_keys, n_cols) >= np.uint64(math.ceil(rate * 2**16))
    assert np.array_equal(nnops.keep_mask(DropoutPolicy(rate=rate), row_keys, n_cols), want)
    counters = np.arange(n_cols, dtype=np.uint64)[None, :]
    assert np.array_equal(nnops._mix_array(row_keys[:, None], counters),
                          mix_array_reference(row_keys[:, None], counters))


@pytest.mark.parametrize("budget", [5, 8])
@pytest.mark.parametrize("n", [1, 4, 13, 32, 70])
def test_keep_mask_over_fewer_columns_is_a_prefix(monkeypatch, budget, n):
    """A row's mask over its first w columns is the first w columns of its
    mask over n >= w: score tiles of every visible width draw one mask."""
    monkeypatch.setattr(nnops, "ROW_TILE_WORDS", budget)
    policy = DropoutPolicy(rate=0.4, seed=23)
    keys = nnops.score_row_keys(policy, 0, 1, 0, np.arange(11, dtype=np.int64))
    whole = nnops.keep_mask(policy, keys, n)
    for w in range(1, n + 1):
        assert np.array_equal(nnops.keep_mask(policy, keys, w), whole[:, :w])


def _unshift(y, s):
    """x with x ^ (x >> s) == y: each pass fixes s more of x's top bits."""
    x = y
    for _ in range(64 // s):
        x = y ^ (x >> np.uint64(s))
    return x


def unmix(z):
    """The key whose hash word 0 is ``z``: mix_key's rounds inverted."""
    z = _unshift(z, 31) * np.uint64(pow(nnops._MIX_B, -1, 2**64))
    z = _unshift(z, 27) * np.uint64(pow(nnops._MIX_A, -1, 2**64))
    return _unshift(z, 30)


@settings(max_examples=30, deadline=None)
@given(rate=rate_st)
def test_keep_mask_keeps_the_top_lane_values(rate):
    # 2**14 rows whose word 0 holds the lanes i, i + 2**14, i + 2**15 and
    # i + 3 * 2**14: every 16-bit value once over the mask's 4 columns
    value = np.arange(2**16, dtype=np.uint64).reshape(4, 2**14).T
    words = value[:, 0] | value[:, 1] << np.uint64(16) | value[:, 2] << np.uint64(32) \
        | value[:, 3] << np.uint64(48)
    keys = unmix(words)
    assert np.array_equal(mix_array_reference(keys, np.zeros(1, dtype=np.uint64)), words)
    policy = DropoutPolicy(rate=rate)
    threshold = math.ceil(rate * 2**16)
    mask = nnops.keep_mask(policy, keys, 4)
    assert np.count_nonzero(mask) == 2**16 - threshold
    assert np.array_equal(mask, value >= np.uint64(threshold))
    # the scale is 2**16 / (2**16 - threshold), rounded once
    scale = nnops.keep_scale(policy, np.dtype(np.float64))
    assert scale == 2**16 / (2**16 - threshold)
    assert abs((2**16 - threshold) * scale - 2**16) <= np.spacing(2.0**16)


@pytest.mark.parametrize("rate", EDGE_RATES + [0.25, 0.2])
def test_keep_scale_undoes_the_kept_share_exactly(rate):
    # exact at these rates; across all 2**16 thresholds the double rounding
    # leaves some one ulp off (test_keep_mask_keeps_the_top_lane_values)
    threshold = math.ceil(rate * 2**16)
    scale = nnops.keep_scale(DropoutPolicy(rate=rate), np.dtype(np.float64))
    assert (2**16 - threshold) * scale == 2**16


# sha256 of keep_mask's bytes over the policy, site and keys of
# test_keep_mask_is_pinned.  Any change to the hash, its lanes or
# DROPOUT_TAGS moves every dropout artifact; update this only on purpose.
KEEP_MASK_SHA256 = "009b907009b9291c43f32aac1555236030a1f2a6a41e91bc95732672886ab6b9"


def test_keep_mask_is_pinned():
    policy = DropoutPolicy(rate=0.1, seed=2024).at_step(3)
    keys = nnops.token_row_keys(policy, 1, "ffn_hidden",
                                np.repeat(np.arange(3, dtype=np.int64), 16),
                                np.tile(np.arange(16, dtype=np.int64), 3))
    mask = nnops.keep_mask(policy, keys, 333)
    assert mask.shape == (48, 333) and mask.dtype == np.bool_
    assert hashlib.sha256(mask.tobytes()).hexdigest() == KEEP_MASK_SHA256


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("rate", [0.1, 1 / 3, 0.5])
def test_apply_mask_equals_its_first_formula(dtype, rate, rng):
    policy = DropoutPolicy(rate=rate)
    x = rng.standard_normal((7, 9)).astype(dtype)
    mask = rng.random((7, 9)) >= rate
    want = x * (mask.astype(x.dtype) * x.dtype.type(2**16 / (2**16 - math.ceil(rate * 2**16))))
    sm = nnops.scaled_mask(policy, mask, x.dtype)
    assert sm.dtype == x.dtype
    assert nnops.apply_mask(x, policy, mask).tobytes() == want.tobytes()
    assert (x * sm).tobytes() == want.tobytes()


# --- embeddings ---


def test_embed_tokens_gathers_rows():
    table = np.arange(12, dtype=np.float64).reshape(4, 3)
    ids = np.array([[3, 0], [1, 1]])
    out = nnops.embed_tokens(table, ids)
    assert out.shape == (2, 2, 3)
    np.testing.assert_array_equal(out[0, 0], table[3])
    np.testing.assert_array_equal(out[1, 1], table[1])


def test_embed_tokens_range_validation():
    table = np.zeros((4, 3))
    with pytest.raises(ValueError):
        nnops.embed_tokens(table, np.array([4]))
    with pytest.raises(ValueError):
        nnops.embed_tokens(table, np.array([-1]))


def test_embed_tokens_bwd_accumulates_duplicates():
    ids = np.array([[1, 1, 2]])
    grad_rows = np.ones((1, 3, 2))
    g = nnops.embed_tokens_bwd((4, 2), ids, grad_rows)
    np.testing.assert_array_equal(g[1], np.array([2.0, 2.0]))
    np.testing.assert_array_equal(g[2], np.array([1.0, 1.0]))
    np.testing.assert_array_equal(g[0], np.zeros(2))


def test_embed_positions_slice_and_bounds():
    pe = np.arange(10, dtype=np.float64).reshape(5, 2)
    np.testing.assert_array_equal(nnops.embed_positions(pe, 1, 3), pe[1:4])
    with pytest.raises(ValueError):
        nnops.embed_positions(pe, 3, 3)
    with pytest.raises(ValueError):
        nnops.embed_positions(pe, -1, 2)


# --- cross entropy ---


def test_cross_entropy_uniform_logits_give_log_vocab():
    logits = np.zeros((5, 17))
    targets = np.arange(5) % 17
    loss, _ = nnops.cross_entropy(logits, targets)
    assert abs(loss - math.log(17)) < 1e-12


def test_cross_entropy_gradient_closed_form(rng):
    logits = rng.standard_normal((4, 6))
    targets = np.array([0, 5, 2, 2])
    _, grad = nnops.cross_entropy(logits, targets)
    e = np.exp(logits - np.max(logits, axis=1, keepdims=True))
    soft = e / np.sum(e, axis=1, keepdims=True)
    onehot = np.zeros_like(soft)
    onehot[np.arange(4), targets] = 1.0
    np.testing.assert_allclose(grad, (soft - onehot) / 4, rtol=1e-12, atol=1e-15)


def test_cross_entropy_is_mean_of_per_row_losses(rng):
    logits = rng.standard_normal((6, 9))
    targets = rng.integers(0, 9, size=6)
    whole, _ = nnops.cross_entropy(logits, targets)
    per_row = [
        nnops.cross_entropy(logits[i : i + 1], targets[i : i + 1])[0] for i in range(6)
    ]
    assert abs(whole - np.mean(per_row)) < 1e-12


def test_cross_entropy_partial_means_recombine(rng):
    """Mean over equal-size shards averages back to the full loss."""
    logits = rng.standard_normal((8, 5))
    targets = rng.integers(0, 5, size=8)
    whole, _ = nnops.cross_entropy(logits, targets)
    first, _ = nnops.cross_entropy(logits[:4], targets[:4])
    second, _ = nnops.cross_entropy(logits[4:], targets[4:])
    assert abs(whole - (first + second) / 2) < 1e-12


def test_cross_entropy_matches_finite_differences(rng):
    logits = rng.standard_normal((3, 5))
    targets = np.array([1, 4, 0])
    _, grad = nnops.cross_entropy(logits, targets)
    err = fd_error(lambda: nnops.cross_entropy(logits, targets)[0], logits, grad)
    assert err < 1e-6


def test_cross_entropy_validation():
    with pytest.raises(ShapeError):
        nnops.cross_entropy(np.zeros(4), np.zeros(4, dtype=int))
    with pytest.raises(ShapeError):
        nnops.cross_entropy(np.zeros((2, 3)), np.zeros(3, dtype=int))
    with pytest.raises(ValueError):
        nnops.cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(ValueError):
        nnops.cross_entropy(np.zeros((2, 3)), np.array([0, -1]))
