import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqpar import nnops, tensor
from seqpar.errors import DegenerateRowError, NumericsError, ShapeError
from seqpar.tensor import StepCounters, matmul, softmax_rows, transpose


def matmul_oracle(a, b):
    """Schoolbook triple loop, written independently of the kernel."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += float(a[i, t]) * float(b[t, j])
            out[i, j] = s
    return out


# --- matmul ---


def test_matmul_identity():
    a = np.arange(12, dtype=np.float64).reshape(3, 4)
    np.testing.assert_array_equal(matmul(np.eye(3), a), a)
    np.testing.assert_array_equal(matmul(a, np.eye(4)), a)


def test_matmul_known_value():
    out = matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
    np.testing.assert_array_equal(out, np.array([[11.0]]))


def test_matmul_against_triple_loop(rng):
    a = rng.standard_normal((5, 7))
    b = rng.standard_normal((7, 3))
    np.testing.assert_allclose(matmul(a, b), matmul_oracle(a, b), rtol=1e-13, atol=1e-13)


def test_matmul_shape_validation():
    with pytest.raises(ShapeError):
        matmul(np.zeros((2, 3)), np.zeros((4, 2)))
    with pytest.raises(ShapeError):
        matmul(np.zeros(3), np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        matmul(np.zeros((2, 3)), np.zeros((3, 2, 1)))


def test_matmul_deterministic(rng):
    a = rng.standard_normal((8, 8))
    b = rng.standard_normal((8, 8))
    first = matmul(a, b)
    for _ in range(5):
        np.testing.assert_array_equal(matmul(a, b), first)


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(1, 4), k=st.integers(1, 4), n=st.integers(1, 4),
    seed=st.integers(0, 2**31),
)
def test_matmul_matches_oracle_property(m, k, n, seed):
    r = np.random.default_rng(seed)
    a = r.uniform(-2, 2, (m, k))
    b = r.uniform(-2, 2, (k, n))
    np.testing.assert_allclose(matmul(a, b), matmul_oracle(a, b), rtol=1e-12, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(c=st.floats(-10, 10, allow_nan=False), seed=st.integers(0, 2**31))
def test_matmul_scalar_pullthrough(c, seed):
    r = np.random.default_rng(seed)
    a = r.standard_normal((3, 3))
    b = r.standard_normal((3, 3))
    np.testing.assert_allclose(matmul(c * a, b), c * matmul(a, b), rtol=1e-10, atol=1e-10)


# --- transpose ---


def test_transpose_small():
    a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    np.testing.assert_array_equal(transpose(a), np.array([[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]]))


def test_transpose_involution(rng):
    a = rng.standard_normal((4, 6))
    np.testing.assert_array_equal(transpose(transpose(a)), a)


def test_transpose_rejects_non_2d():
    with pytest.raises(ShapeError):
        transpose(np.zeros(3))
    with pytest.raises(ShapeError):
        transpose(np.zeros((2, 2, 2)))


def test_transpose_is_a_view_not_a_copy(rng):
    a = rng.standard_normal((3, 5))
    out = transpose(a)
    assert out.base is a and np.shares_memory(out, a)
    assert out.shape == (5, 3) and out.flags["F_CONTIGUOUS"]


# (rows, d_in, d_out) of every nnops.linear_bwd call the benchmark workloads
# make: dense-seq, longctx-sharded (a rank's 256 rows, the keys' and values'
# 512) and deep-baseline, in double precision.
BENCH_LINEAR_SHAPES = [(512, 64, 64), (512, 64, 256), (512, 256, 64), (256, 64, 64),
                       (256, 64, 256), (256, 256, 64), (128, 32, 32), (128, 32, 64),
                       (128, 32, 256), (128, 64, 32)]


@pytest.mark.parametrize("threads", [None, 1], ids=["blas-default", "blas-1"])
@pytest.mark.parametrize("shape", BENCH_LINEAR_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_linear_bwd_through_views_equals_copied_transposes_bitwise(rng, shape, threads):
    """linear_bwd multiplies by transposed views; on the benchmark's shapes
    its products are bitwise those of contiguous transposed copies, with
    the BLAS pool at its default and capped at one thread (as sharded ranks
    run).  This is a property of the BLAS kernels, not a general one."""
    m, d_in, d_out = shape
    x, grad_y = rng.standard_normal((m, d_in)), rng.standard_normal((m, d_out))
    p = nnops.LinearParams(weight=rng.standard_normal((d_in, d_out)), bias=np.zeros(d_out))
    with tensor.blas_threads(threads):
        grad_x, grad_w, _ = nnops.linear_bwd(x, p, grad_y)
        want_x = np.matmul(grad_y, np.ascontiguousarray(p.weight.T))
        want_w = np.matmul(np.ascontiguousarray(x.T), grad_y)
    assert grad_x.tobytes() == want_x.tobytes()
    assert grad_w.tobytes() == want_w.tobytes()


# --- softmax ---


def softmax(a, mask=None):
    """The softmax that :func:`softmax_rows` leaves to its caller: the
    exponentials it writes over the row sums it returns."""
    out = np.empty_like(a)
    return out / softmax_rows(a, mask, out=out)


def test_softmax_uniform_rows():
    out = softmax(np.array([[0.0, 0.0]]))
    np.testing.assert_allclose(out, np.array([[0.5, 0.5]]), rtol=0, atol=1e-15)


def test_softmax_known_ratio():
    out = softmax(np.array([[math.log(2.0), 0.0]]))
    np.testing.assert_allclose(out, np.array([[2.0 / 3.0, 1.0 / 3.0]]), rtol=1e-14, atol=0)


def test_softmax_rows_sum_to_one(rng):
    a = rng.standard_normal((10, 17)) * 5
    sums = np.sum(softmax(a), axis=1)
    np.testing.assert_allclose(sums, np.ones(10), rtol=0, atol=1e-12)


def test_softmax_shift_invariance(rng):
    a = rng.standard_normal((4, 9))
    shifted = a + 123.456
    np.testing.assert_allclose(softmax(a), softmax(shifted), rtol=1e-12, atol=1e-14)


def test_softmax_survives_large_magnitudes():
    a = np.array([[1000.0, 1000.0], [-1000.0, -999.0]])
    out = softmax(a)
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out[0], [0.5, 0.5], atol=1e-15)


def test_softmax_masked_entries_are_exact_zero():
    a = np.array([[1.0, 2.0, 3.0]])
    mask = np.array([[True, False, True]])
    out = softmax(a, mask)
    assert out[0, 1] == 0.0
    np.testing.assert_allclose(np.sum(out), 1.0, atol=1e-15)
    # the kept entries renormalize among themselves
    e1, e3 = math.exp(1.0), math.exp(3.0)
    np.testing.assert_allclose(out[0, 0], e1 / (e1 + e3), rtol=1e-14)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_softmax_rows_writes_exponentials_with_positive_zeros_and_returns_their_sums(rng, dtype):
    """Masked entries are +0, not -0, whatever the sign of their score; each
    row's largest kept entry is exactly 1; and the sums are bitwise those of
    the exponentials written, so a caller that scales by their reciprocals
    scales exactly what it holds."""
    a = (rng.standard_normal((2, 9, 14)) * 4).astype(dtype)
    mask = rng.random((9, 14)) < 0.5
    mask[np.arange(9), rng.integers(0, 14, 9)] = True
    out = np.full_like(a, np.nan)
    sums = softmax_rows(a, mask, out=out)
    assert sums.shape == (2, 9, 1) and sums.dtype == dtype
    assert sums.tobytes() == (out @ np.ones((14, 1), dtype)).tobytes()
    dropped = out[:, ~mask]
    assert not dropped.any() and not np.signbit(dropped).any()
    assert np.all(np.max(out, axis=-1) == 1.0)


def test_softmax_causal_triangle():
    a = np.zeros((3, 3))
    mask = np.tril(np.ones((3, 3), dtype=bool))
    out = softmax(a, mask)
    expected = np.array([
        [1.0, 0.0, 0.0],
        [0.5, 0.5, 0.0],
        [1 / 3, 1 / 3, 1 / 3],
    ])
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)


def test_softmax_fully_masked_row_raises():
    a = np.zeros((2, 3))
    mask = np.array([[True, True, True], [False, False, False]])
    with pytest.raises(DegenerateRowError):
        softmax(a, mask)


def test_degenerate_row_error_names_the_first_fully_masked_row():
    a = np.zeros((5, 3))
    mask = np.ones((5, 3), dtype=bool)
    mask[[1, 3]] = False
    with pytest.raises(DegenerateRowError, match=r"softmax row 1 is fully masked"):
        softmax(a, mask)
    mask[1, 2] = True
    with pytest.raises(DegenerateRowError, match=r"softmax row 3 is fully masked"):
        softmax(a, mask)


def test_softmax_mask_validation():
    a = np.zeros((2, 3))
    with pytest.raises(ShapeError):
        softmax(a, np.ones((3, 2), dtype=bool))
    with pytest.raises(ShapeError):
        softmax(a, np.ones((2, 3), dtype=np.int64))
    with pytest.raises(ShapeError):
        softmax(np.zeros(3))


def softmax_three_wheres(a, mask):
    """Masked softmax exponentials as first written, zeroing masked entries
    by np.where."""
    neg = np.where(mask, a, -np.inf)
    shifted = neg - np.max(neg, axis=1, keepdims=True)
    return np.where(mask, np.exp(np.where(mask, shifted, 0.0)), 0.0)


def softmax_exp_of_neg_inf(a, mask):
    """Masked softmax exponentials that let exp(-inf) = 0 zero the masked
    entries."""
    neg = np.where(mask, a, -np.inf)
    return np.exp(neg - np.max(neg, axis=1, keepdims=True))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), rows=st.integers(1, 40), extra=st.integers(0, 40),
       scale=st.floats(0.1, 50.0))
def test_masked_softmax_bitwise_matches_where_formula(seed, rows, extra, scale):
    r = np.random.default_rng(seed)
    cols = rows + extra
    a = r.standard_normal((rows, cols)) * scale
    # causal: query i of a block that starts `extra` keys in sees keys [0, extra + i]
    causal = np.tril(np.ones((rows, cols), dtype=bool), k=extra)
    random = r.random((rows, cols)) < 0.5
    random[np.arange(rows), r.integers(0, cols, rows)] = True  # one kept entry per row
    for mask in (causal, random):
        out = np.empty_like(a)
        sums = softmax_rows(a, mask, out=out)
        for e in (softmax_three_wheres(a, mask), softmax_exp_of_neg_inf(a, mask)):
            assert out.tobytes() == e.tobytes()
            assert (out / sums).tobytes() == (e / (e @ np.ones((cols, 1)))).tobytes()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), rows=st.integers(1, 5), cols=st.integers(1, 8))
def test_softmax_rows_property(seed, rows, cols):
    r = np.random.default_rng(seed)
    a = r.uniform(-30, 30, (rows, cols))
    out = softmax(a)
    assert np.all(out >= 0)
    np.testing.assert_allclose(np.sum(out, axis=1), np.ones(rows), atol=1e-12)
    # monotone: larger logit, at least as large probability, per row
    for i in range(rows):
        order = np.argsort(a[i])
        assert np.all(np.diff(out[i][order]) >= -1e-15)


# --- row and column sums ---


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(st.integers(0, 40), min_size=2, max_size=3),
       dtype=st.sampled_from([np.float64, np.float32]), seed=st.integers(0, 2**31),
       scale=st.sampled_from([1.0, 0.5, 1 / 3]))
def test_row_and_col_sums_property(shape, dtype, seed, scale):
    """Dtype kept, a stack bitwise its per-item calls, within n eps sum|x| of
    np.sum, the cached fill vectors read-only, and no matmul work counted."""
    a = (np.random.default_rng(seed).standard_normal(shape) * 10).astype(dtype)
    counters = StepCounters()
    with tensor.counting(counters):
        rows, cols = tensor.row_sums(a, scale), tensor.col_sums(a)
    assert counters == StepCounters()
    assert rows.dtype == cols.dtype == dtype
    assert rows.shape == (*shape[:-1], 1) and cols.shape == (*shape[:-2], shape[-1])
    if len(shape) == 3 and shape[0]:
        per_item = [(tensor.row_sums(x, scale), tensor.col_sums(x)) for x in a]
        assert rows.tobytes() == np.stack([r for r, _ in per_item]).tobytes()
        assert cols.tobytes() == np.stack([c for _, c in per_item]).tobytes()
    eps = np.finfo(dtype).eps
    wide = a.astype(np.float64)
    for got, want, n, bound in (
        (rows, np.sum(a, axis=-1, keepdims=True) * dtype(scale), shape[-1],
         np.sum(np.abs(wide), axis=-1, keepdims=True) * scale),
        (cols, np.sum(a, axis=-2), shape[-2], np.sum(np.abs(wide), axis=-2)),
    ):
        # one more eps for the rounding of scale and of the product by it
        assert np.all(np.abs(got - want.astype(np.float64)) <= (n + 1) * eps * bound)
    for n, value, column in ((shape[-1], scale, True), (shape[-2], 1.0, False)):
        fill = tensor.fill_vector(n, np.dtype(dtype), value, column)
        assert not fill.flags.writeable and np.all(fill == dtype(value))
        with pytest.raises(ValueError):
            fill[...] = 0


# --- counters and check_finite ---


def test_counters_tally_matmul_flops():
    c = StepCounters()
    with tensor.counting(c):
        matmul(np.zeros((3, 4)), np.zeros((4, 5)))
        matmul(np.zeros((2, 2)), np.zeros((2, 2)))
    assert c.matmul_flops == 2 * 3 * 4 * 5 + 2 * 2 * 2 * 2


def test_counters_inactive_outside_context():
    c = StepCounters()
    with tensor.counting(c):
        pass
    matmul(np.ones((2, 2)), np.ones((2, 2)))
    assert c.matmul_flops == 0
    assert tensor.active_counters() is None


def test_counters_nest_and_restore():
    outer, inner = StepCounters(), StepCounters()
    with tensor.counting(outer):
        with tensor.counting(inner):
            matmul(np.ones((1, 1)), np.ones((1, 1)))
        matmul(np.ones((1, 1)), np.ones((1, 1)))
    assert inner.matmul_flops == 2
    assert outer.matmul_flops == 2


def test_score_footprint_records_peak():
    c = StepCounters()
    c.record_score_footprint(10)
    c.record_score_footprint(4)
    c.record_score_footprint(25)
    assert c.attn_score_elements_peak == 25


def test_check_finite_passes_and_raises():
    ok = np.array([1.0, -2.0])
    assert tensor.check_finite(ok, "x") is ok
    with pytest.raises(NumericsError):
        tensor.check_finite(np.array([np.nan]), "x")
    with pytest.raises(NumericsError):
        tensor.check_finite(np.array([-np.inf]), "x")


def test_resolve_dtype():
    assert tensor.resolve_dtype("double") == np.float64
    assert tensor.resolve_dtype("single") == np.float32
    with pytest.raises(ValueError):
        tensor.resolve_dtype("half")


# --- out= buffers and transposed views ---


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_matmul_into_out_equals_fresh_product(rng, dtype):
    a = rng.standard_normal((9, 5)).astype(dtype)
    b = rng.standard_normal((5, 11)).astype(dtype)
    out = np.full((9, 11), np.nan, dtype=dtype)
    got = matmul(a, b, out=out)
    assert got is out
    assert got.tobytes() == matmul(a, b).tobytes()


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_softmax_into_out_equals_fresh_softmax(rng, masked, dtype):
    a = (rng.standard_normal((7, 12)) * 4).astype(dtype)
    mask = np.tril(np.ones((7, 12), dtype=bool), k=5) if masked else None
    out = np.full_like(a, np.nan)
    sums = softmax_rows(a, mask, out=out)
    inplace = a.copy()  # out may be the operand itself
    assert softmax_rows(inplace, mask, out=inplace).tobytes() == sums.tobytes()
    assert inplace.tobytes() == out.tobytes()


@pytest.mark.parametrize("shape", [(256, 512, 64, 8), (512, 512, 64, 8), (128, 128, 64, 8),
                                   (64, 64, 32, 8)])
def test_transposed_head_views_multiply_like_contiguous_copies(rng, shape):
    """``.T`` of a strided head slice goes into matmul with no copy.  At the
    benchmark workloads' double-precision block shapes the product is bitwise
    that of the contiguous transposed copy, which is what keeps their runs
    byte-identical to the copying score path.  This is a property of the BLAS
    kernels, not a general one: some other shapes, and many in single
    precision, round differently."""
    m, t, e, dk = shape
    q, g = rng.standard_normal((m, e)), rng.standard_normal((m, e))
    k, aw = rng.standard_normal((t, e)), rng.random((m, t))
    for h in range(e // dk):
        cols = slice(h * dk, (h + 1) * dk)
        assert (matmul(q[:, cols], k[:, cols].T).tobytes()
                == matmul(q[:, cols], np.ascontiguousarray(k[:, cols].T)).tobytes())
        assert (matmul(aw.T, g[:, cols]).tobytes()
                == matmul(np.ascontiguousarray(aw.T), g[:, cols]).tobytes())


# --- recycled scratch buffers ---


def test_take_outside_recycling_returns_fresh_arrays():
    a = tensor.take((3, 4), np.float64)
    tensor.give(a)
    b = tensor.take((3, 4), np.float64)
    assert a.shape == b.shape == (3, 4) and b.dtype == np.float64
    assert b is not a and not np.shares_memory(a, b)


def test_recycling_hands_back_what_was_given_by_shape_and_dtype():
    with tensor.recycling():
        a = tensor.take((3, 4), np.float64)
        tensor.give(a)
        assert tensor.take((3, 4), np.float32) is not a
        assert tensor.take((4, 3), np.float64) is not a
        assert tensor.take((3, 4), np.float64) is a
        assert tensor.take((3, 4), np.float64) is not a  # handed out once


def test_give_refuses_views_and_buffers_already_free():
    with tensor.recycling():
        a = tensor.take((4, 4), np.float64)
        with pytest.raises(ValueError):
            tensor.give(a[1:])
        tensor.give(a)
        with pytest.raises(ValueError):
            tensor.give(a)


def test_recycling_restores_the_prior_free_list_on_exit_and_on_raise():
    with tensor.recycling():
        outer = tensor.take((2, 2), np.float64)
        tensor.give(outer)
        with tensor.recycling():  # a nested block starts empty
            assert tensor.take((2, 2), np.float64) is not outer
        with pytest.raises(RuntimeError):
            with tensor.recycling():
                raise RuntimeError("inside")
        assert tensor.take((2, 2), np.float64) is outer
    tensor.give(outer)  # outside again: dropped
    assert tensor.take((2, 2), np.float64) is not outer


# --- 3-D stacks ---


def stack_operands(rng, dtype, form, s=5, m=7, k=8, n=11):
    """(a, b) stacks of ``s`` (m, k) x (k, n) products, each operand either a
    contiguous stack or the transposed view of one (the kernels' ``.T``)."""
    a = rng.standard_normal((s, k, m) if form[0] == "T" else (s, m, k)).astype(dtype)
    b = rng.standard_normal((s, n, k) if form[1] == "T" else (s, k, n)).astype(dtype)
    return (a.transpose(0, 2, 1) if form[0] == "T" else a,
            b.transpose(0, 2, 1) if form[1] == "T" else b)


@pytest.mark.parametrize("form", ["NN", "NT", "TN", "TT"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_stacked_matmul_equals_per_item_products_bitwise(rng, dtype, form):
    a, b = stack_operands(rng, dtype, form)
    got = matmul(a, b)
    assert got.shape == (5, 7, 11) and got.dtype == dtype
    for i in range(len(a)):
        assert got[i].tobytes() == matmul(a[i], b[i]).tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_stacked_matmul_of_strided_slices_into_a_strided_out_view(rng, dtype):
    """Column slices of (batch, rows, heads * dk) arrays (row stride heads *
    dk), one transposed, multiply into a band of a larger head-major buffer:
    each item has bitwise the value of its own 2-D product, and nothing
    outside the view is written."""
    x = rng.standard_normal((3, 20, 48)).astype(dtype)
    y = rng.standard_normal((3, 30, 48)).astype(dtype)
    buf = np.full((5, 20, 25), np.nan, dtype)
    out = buf[1:4, 5:17]
    got = matmul(x[:, 5:17, 8:16], y[:, :25, 8:16].transpose(0, 2, 1), out=out)
    assert got is out
    for i in range(3):
        want = matmul(x[i, 5:17, 8:16], y[i, :25, 8:16].T)
        assert out[i].tobytes() == want.tobytes()
    assert np.isnan(buf[[0, 4]]).all()
    assert np.isnan(buf[1:4, :5]).all() and np.isnan(buf[1:4, 17:]).all()


def test_stacked_matmul_counts_each_item():
    c = StepCounters()
    with tensor.counting(c):
        matmul(np.zeros((4, 3, 5)), np.zeros((4, 5, 2)))
    assert c.matmul_flops == 4 * (2 * 3 * 5 * 2)  # stack * 2mkn


def test_stacked_matmul_shape_validation():
    with pytest.raises(ShapeError, match="stacks disagree"):
        matmul(np.zeros((3, 2, 4)), np.zeros((1, 4, 5)))  # numpy would broadcast
    with pytest.raises(ShapeError, match="inner dims"):
        matmul(np.zeros((3, 2, 4)), np.zeros((3, 5, 4)))
    with pytest.raises(ShapeError):
        matmul(np.zeros((3, 2, 4)), np.zeros((4, 5)))
    with pytest.raises(ShapeError):
        matmul(np.zeros((2, 4)), np.zeros((3, 4, 5)))
    with pytest.raises(ShapeError):
        matmul(np.zeros((2, 3, 2, 4)), np.zeros((2, 3, 4, 5)))


@pytest.mark.parametrize("mask_kind", ["none", "shared", "full"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_stacked_softmax_equals_per_item_calls_bitwise(rng, dtype, mask_kind):
    a = (rng.standard_normal((6, 9, 13)) * 4).astype(dtype)
    shared = np.tril(np.ones((9, 13), dtype=bool), k=4)
    mask = {"none": None, "shared": shared,
            "full": rng.random(a.shape) < 0.7}[mask_kind]
    if mask_kind == "full":
        mask[..., 0] = True
    item_mask = (lambda i: None) if mask is None else (
        (lambda i: shared) if mask_kind == "shared" else (lambda i: mask[i]))
    want = [np.empty_like(a[i]) for i in range(len(a))]
    want_sums = [softmax_rows(a[i], item_mask(i), out=want[i]) for i in range(len(a))]
    got = np.empty_like(a)
    sums = softmax_rows(a, mask, out=got)
    assert sums.shape == (*a.shape[:2], 1) and sums.dtype == dtype
    assert [got[i].tobytes() for i in range(len(a))] == [w.tobytes() for w in want]
    assert [sums[i].tobytes() for i in range(len(a))] == [w.tobytes() for w in want_sums]
    inplace = a.copy()
    assert softmax_rows(inplace, mask, out=inplace).tobytes() == sums.tobytes()
    assert inplace.tobytes() == got.tobytes()


def test_stacked_softmax_mask_validation():
    a = np.zeros((2, 3, 4))
    for shape in [(4, 3), (3,), (1, 3, 4), (2, 4, 4)]:
        with pytest.raises(ShapeError):
            softmax(a, np.ones(shape, dtype=bool))
    with pytest.raises(ShapeError):
        softmax(np.zeros((2, 2, 3, 4)))


def test_stacked_softmax_fully_masked_row_raises():
    a = np.zeros((2, 3, 4))
    shared = np.ones((3, 4), dtype=bool)
    shared[2] = False
    with pytest.raises(DegenerateRowError, match=r"softmax row 2 is fully masked"):
        softmax(a, shared)
    full = np.ones(a.shape, dtype=bool)
    full[1, 0] = False
    with pytest.raises(DegenerateRowError, match=r"softmax row 0 of stack item 1 is fully masked"):
        softmax(a, full)
