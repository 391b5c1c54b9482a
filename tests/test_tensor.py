import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqpar import tensor
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


def test_transpose_output_contiguous(rng):
    out = transpose(rng.standard_normal((3, 5)))
    assert out.flags["C_CONTIGUOUS"]


# --- softmax ---


def test_softmax_uniform_rows():
    out = softmax_rows(np.array([[0.0, 0.0]]))
    np.testing.assert_allclose(out, np.array([[0.5, 0.5]]), rtol=0, atol=1e-15)


def test_softmax_known_ratio():
    out = softmax_rows(np.array([[math.log(2.0), 0.0]]))
    np.testing.assert_allclose(out, np.array([[2.0 / 3.0, 1.0 / 3.0]]), rtol=1e-14, atol=0)


def test_softmax_rows_sum_to_one(rng):
    a = rng.standard_normal((10, 17)) * 5
    sums = np.sum(softmax_rows(a), axis=1)
    np.testing.assert_allclose(sums, np.ones(10), rtol=0, atol=1e-12)


def test_softmax_shift_invariance(rng):
    a = rng.standard_normal((4, 9))
    shifted = a + 123.456
    np.testing.assert_allclose(softmax_rows(a), softmax_rows(shifted), rtol=1e-12, atol=1e-14)


def test_softmax_survives_large_magnitudes():
    a = np.array([[1000.0, 1000.0], [-1000.0, -999.0]])
    out = softmax_rows(a)
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out[0], [0.5, 0.5], atol=1e-15)


def test_softmax_masked_entries_are_exact_zero():
    a = np.array([[1.0, 2.0, 3.0]])
    mask = np.array([[True, False, True]])
    out = softmax_rows(a, mask)
    assert out[0, 1] == 0.0
    np.testing.assert_allclose(np.sum(out), 1.0, atol=1e-15)
    # the kept entries renormalize among themselves
    e1, e3 = math.exp(1.0), math.exp(3.0)
    np.testing.assert_allclose(out[0, 0], e1 / (e1 + e3), rtol=1e-14)


def test_softmax_causal_triangle():
    a = np.zeros((3, 3))
    mask = np.tril(np.ones((3, 3), dtype=bool))
    out = softmax_rows(a, mask)
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
        softmax_rows(a, mask)


def test_degenerate_row_error_names_the_first_fully_masked_row():
    a = np.zeros((5, 3))
    mask = np.ones((5, 3), dtype=bool)
    mask[[1, 3]] = False
    with pytest.raises(DegenerateRowError, match=r"softmax row 1 is fully masked"):
        softmax_rows(a, mask)
    mask[1, 2] = True
    with pytest.raises(DegenerateRowError, match=r"softmax row 3 is fully masked"):
        softmax_rows(a, mask)


def test_softmax_mask_validation():
    a = np.zeros((2, 3))
    with pytest.raises(ShapeError):
        softmax_rows(a, np.ones((3, 2), dtype=bool))
    with pytest.raises(ShapeError):
        softmax_rows(a, np.ones((2, 3), dtype=np.int64))
    with pytest.raises(ShapeError):
        softmax_rows(np.zeros(3))


def softmax_three_wheres(a, mask):
    """Masked softmax as first written, zeroing masked entries by np.where."""
    neg = np.where(mask, a, -np.inf)
    shifted = neg - np.max(neg, axis=1, keepdims=True)
    e = np.where(mask, np.exp(np.where(mask, shifted, 0.0)), 0.0)
    return e / np.sum(e, axis=1, keepdims=True)


def softmax_exp_of_neg_inf(a, mask):
    """Masked softmax that lets exp(-inf) = 0 zero the masked entries."""
    neg = np.where(mask, a, -np.inf)
    e = np.exp(neg - np.max(neg, axis=1, keepdims=True))
    return e / np.sum(e, axis=1, keepdims=True)


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
        out = softmax_rows(a, mask).tobytes()
        assert out == softmax_three_wheres(a, mask).tobytes()
        assert out == softmax_exp_of_neg_inf(a, mask).tobytes()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), rows=st.integers(1, 5), cols=st.integers(1, 8))
def test_softmax_rows_property(seed, rows, cols):
    r = np.random.default_rng(seed)
    a = r.uniform(-30, 30, (rows, cols))
    out = softmax_rows(a)
    assert np.all(out >= 0)
    np.testing.assert_allclose(np.sum(out, axis=1), np.ones(rows), atol=1e-12)
    # monotone: larger logit, at least as large probability, per row
    for i in range(rows):
        order = np.argsort(a[i])
        assert np.all(np.diff(out[i][order]) >= -1e-15)


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
    want = softmax_rows(a, mask).tobytes()
    out = np.full_like(a, np.nan)
    assert softmax_rows(a, mask, out=out) is out
    assert out.tobytes() == want
    inplace = a.copy()  # out may be the operand itself
    assert softmax_rows(inplace, mask, out=inplace).tobytes() == want


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
                == matmul(q[:, cols], transpose(k[:, cols])).tobytes())
        assert (matmul(aw.T, g[:, cols]).tobytes()
                == matmul(transpose(aw), g[:, cols]).tobytes())


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
