"""Neural-net primitives with hand-written backward passes.

Every op comes as a forward/backward pair over 2-D row batches (rows are
tokens, columns are features).  The backward functions take exactly what the
forward cached, nothing hidden, so each pair can be checked in isolation
against finite differences.  GELU's forward returns its local derivative
beside its output, from the same tanh, so its backward is one multiply.

Dropout here is *counter-based*: instead of consuming a stateful RNG stream,
the keep/drop decision for an element is a pure hash of

    (seed, layer index, op tag, global sample index, global token position, channel)

so a token keeps the same mask no matter how the sequence is split across
workers or the batch across replicas (samples are rows of the combined
batch).  That property is what makes distributed training with dropout
reproduce single-worker training exactly.  One hash word serves four
columns, as in counter-based generators such as Philox (Salmon et al.,
SC'11): a row's word ``w`` is ``mix(row_key + w * GOLDEN)``, and column
``4w + j`` is kept when the 16-bit lane ``(word >> 16j) & 0xFFFF`` is at least
``ceil(rate * 2**16)``.  The rate in effect is that threshold over 2**16, and
a kept element is scaled by ``2**16 / (2**16 - threshold)``, so its
expectation is 1.  Column ``4w + j`` is lane ``j`` of word ``w`` whatever the
width of the row, so a row's mask over its first ``v`` columns does not
depend on how many columns were hashed.

The elementwise kernels (GELU, layer norm, cross-entropy, the linear bias,
dropout masks) are bound by memory traffic, not arithmetic, so each one
allocates its returned output and at most a few scratch arrays of the same
size, and every other numpy operator writes into one of those through
``out=`` or an augmented assignment.  They never write into their inputs.
Each runs the same IEEE operations on the same operands in the same order as
the plain one-line expression it replaces (at most swapping the operands of a
single ``*`` or ``+``), so results are bitwise those of that expression.
A sum along a row or down the columns, in the kernel and in the expression
alike, is a product with a fill vector (:func:`tensor.row_sums`,
:func:`tensor.col_sums`).
GELU's slope times an output gradient is bitwise the backward's expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import tensor
from .errors import NumericsError, ShapeError

LAYERNORM_EPS = 1e-5

# Stable ids for the dropout sites in the model.  Values are part of the
# checkpoint/reproducibility story: renumbering them changes every mask.
DROPOUT_TAGS = {
    "embed": 1,
    "attn_score": 2,
    "attn_out": 3,
    "ffn_hidden": 4,
    "ffn_out": 5,
}

# --- counter-based pseudo-random bits (splitmix64 flavour) ---

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_U64_GOLDEN = np.uint64(_GOLDEN)
_U64_MIX_A = np.uint64(_MIX_A)
_U64_MIX_B = np.uint64(_MIX_B)


def mix_key(h: int, word: int) -> int:
    """Fold ``word`` into hash state ``h`` (python ints, mod 2**64)."""
    z = (h + word * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _mix_rounds(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The mixing rounds of mix_key over ``z`` in place; ``tmp`` is scratch of
    the same shape."""
    for shift, mul in ((np.uint64(30), _U64_MIX_A), (np.uint64(27), _U64_MIX_B)):
        np.bitwise_xor(z, np.right_shift(z, shift, out=tmp), out=z)
        np.multiply(z, mul, out=z)
    return np.bitwise_xor(z, np.right_shift(z, np.uint64(31), out=tmp), out=z)


def _mix_array(h: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Vectorised mix_key over uint64 arrays (wraparound arithmetic).  The
    rounds run in place over the output and one scratch buffer."""
    z = np.add(h, words.astype(np.uint64) * _U64_GOLDEN)
    return _mix_rounds(z, np.empty_like(z))


# A rate is compared with 16-bit lanes: above 1 - 2**-16 the threshold
# ceil(rate * 2**16) would be 2**16, which drops every element.
MAX_RATE = 1.0 - 2.0**-16
_LANES = 4  # 16-bit lanes per hash word
_LANE_VALUES = 1 << 16


def check_rate(rate: float) -> None:
    """Raise ValueError unless ``rate`` is a dropout rate the keep-mask lanes
    express: in [0, 1 - 2**-16]."""
    if not 0.0 <= rate <= MAX_RATE:
        raise ValueError(f"dropout rate must be in [0, 1 - 2**-16 = {MAX_RATE!r}], got {rate}")


@dataclass(frozen=True)
class DropoutPolicy:
    """Dropout configuration shared by every worker in a run.

    ``seed`` is the only state; there is no stream to keep in sync.  Engines
    derive a fresh per-step policy with :meth:`at_step` so masks change from
    step to step while remaining a pure function of the coordinates.
    ``first_sample`` is the row of the worker's first sample in the step's
    combined batch, so masks are keyed by the global sample whatever the grid.
    """

    rate: float
    seed: int = 0
    first_sample: int = 0

    def __post_init__(self) -> None:
        check_rate(self.rate)

    @classmethod
    def off(cls) -> "DropoutPolicy":
        return cls(rate=0.0)

    def at_step(self, step: int) -> "DropoutPolicy":
        return replace(self, seed=mix_key(self.seed & _MASK64, step + 1))

    @property
    def active(self) -> bool:
        return self.rate > 0.0


def _site_key(policy: DropoutPolicy, layer: int, tag: str) -> int:
    try:
        tag_id = DROPOUT_TAGS[tag]
    except KeyError:
        raise ValueError(f"unknown dropout tag {tag!r}")
    return mix_key(mix_key(policy.seed & _MASK64, tag_id), layer + 1)


def token_row_keys(
    policy: DropoutPolicy, layer: int, tag: str, samples: np.ndarray, positions: np.ndarray
) -> np.ndarray:
    """One hash word per (global sample, global position) row of an activation."""
    h0 = np.uint64(_site_key(policy, layer, tag))
    h = _mix_array(np.full(samples.shape, h0, dtype=np.uint64), samples + policy.first_sample)
    return _mix_array(h, positions)


def score_row_keys(
    policy: DropoutPolicy, layer: int, sample: int, head: int, q_positions: np.ndarray
) -> np.ndarray:
    """One hash word per attention-score row (query position) of a local sample and head."""
    h0 = _site_key(policy, layer, "attn_score")
    h0 = mix_key(mix_key(h0, policy.first_sample + sample + 1), head + 1)
    return _mix_array(np.full(q_positions.shape, np.uint64(h0), dtype=np.uint64), q_positions)


# Hash words per row tile of keep_mask: a (rows, 64) activation of up to
# 2048 rows is one tile, and so is a 256x512 score block (128 words a row).
# Smaller tiles stay in cache but cost more numpy calls, and so more
# interpreter-lock handoffs when two ranks hash at once: at 2**14 elements
# (one word each, before the lanes) two concurrent ranks hashed a 256x512
# block slower than untiled.
ROW_TILE_WORDS = 1 << 15


def row_tile(n_words: int) -> tuple[int, int]:
    """(rows per tile, size of the flat buffer that holds one tile) for rows
    of ``n_words`` hash words.  The buffer size is the same for every width
    up to the budget, so one buffer serves them all."""
    return max(1, ROW_TILE_WORDS // max(1, n_words)), max(ROW_TILE_WORDS, n_words)


def lane_threshold(policy: DropoutPolicy) -> int:
    """The least 16-bit lane value that is kept: a lane ``u`` is kept when
    ``u / 2**16 >= rate``, that is when ``u >= ceil(rate * 2**16)`` (the
    product is exact, 2**16 being a power of two)."""
    return math.ceil(policy.rate * _LANE_VALUES)


def keep_mask(
    policy: DropoutPolicy,
    row_keys: np.ndarray,
    n_cols: int,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Boolean keep-mask of shape (len(row_keys), n_cols), into ``out`` if
    given.  Each row hashes ``ceil(n_cols / 4)`` words and keeps the first
    ``n_cols`` of their 16-bit lanes (see the module docstring).  Rows are
    hashed a tile at a time through two scratch buffers of ROW_TILE_WORDS
    words (see :func:`row_tile`), taken from ``tensor.take``."""
    rows = row_keys.shape[0]
    if out is None:
        out = np.empty((rows, n_cols), dtype=np.bool_)
    threshold = np.uint16(lane_threshold(policy))
    n_words = -(-n_cols // _LANES)
    word_cols = np.arange(n_words, dtype=np.uint64) * _U64_GOLDEN
    height, words = row_tile(n_words)
    z, tmp = tiles = [tensor.take((words,), np.uint64) for _ in range(2)]
    for r0 in range(0, rows, height):
        n = min(height, rows - r0)
        zt = np.add(row_keys[r0 : r0 + n, None], word_cols, out=z[: n * n_words].reshape(n, n_words))
        tt = tmp[: n * n_words].reshape(n, n_words)
        # little-endian lanes: lane j of a word is its bits 16j .. 16j + 15
        # on every host (the astype copies only on a big-endian one)
        lanes = _mix_rounds(zt, tt).astype("<u8", copy=False).view("<u2")
        np.greater_equal(lanes[:, :n_cols], threshold, out=out[r0 : r0 + n])
    tensor.give(*tiles)
    return out


def scaled_mask(policy: DropoutPolicy, mask: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``mask`` as ``dtype`` values: :func:`keep_scale` where kept, 0 where
    dropped."""
    return np.multiply(mask, keep_scale(policy, dtype), dtype=dtype)


def keep_scale(policy: DropoutPolicy, dtype: np.dtype):
    """The factor ``2**16 / (2**16 - threshold)`` a kept element is scaled
    by, as a ``dtype`` scalar: one over the share of lane values kept
    (:func:`lane_threshold`), so a kept element's expectation is 1."""
    return dtype.type(_LANE_VALUES / (_LANE_VALUES - lane_threshold(policy)))


def apply_mask(x: np.ndarray, policy: DropoutPolicy, mask: np.ndarray) -> np.ndarray:
    """``x * scaled_mask(...)``, computed in the scaled mask's buffer."""
    scaled = scaled_mask(policy, mask, x.dtype)
    return np.multiply(x, scaled, out=scaled)


def dropout_fwd(
    x: np.ndarray,
    policy: DropoutPolicy,
    layer: int,
    tag: str,
    samples: np.ndarray,
    positions: np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Position-keyed dropout over a (rows, channels) activation.

    ``samples``/``positions`` give the global coordinates of each row.  When
    the policy is inactive the input is returned untouched with a None mask.
    """
    if x.ndim != 2:
        raise ShapeError(f"dropout_fwd expects 2-D activations, got shape {x.shape}")
    if samples.shape != (x.shape[0],) or positions.shape != (x.shape[0],):
        raise ShapeError("dropout coordinates must supply one (sample, position) per row")
    if not policy.active:
        return x, None
    mask = keep_mask(policy, token_row_keys(policy, layer, tag, samples, positions), x.shape[1])
    return apply_mask(x, policy, mask), mask


def dropout_bwd(grad_y: np.ndarray, policy: DropoutPolicy, mask: np.ndarray | None) -> np.ndarray:
    if mask is None:
        return grad_y
    return apply_mask(grad_y, policy, mask)


# --- linear ---


@dataclass(frozen=True)
class LinearParams:
    """Affine map parameters; weight has shape (d_in, d_out)."""

    weight: np.ndarray
    bias: np.ndarray


def linear_fwd(x: np.ndarray, p: LinearParams) -> np.ndarray:
    if p.bias.shape != (p.weight.shape[1],):
        raise ShapeError(f"bias shape {p.bias.shape} does not match weight {p.weight.shape}")
    y = tensor.matmul(x, p.weight)
    y += p.bias
    return y


def linear_bwd(
    x: np.ndarray, p: LinearParams, grad_y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (grad_x, grad_weight, grad_bias)."""
    grad_x = tensor.matmul(grad_y, tensor.transpose(p.weight))
    grad_w = tensor.matmul(tensor.transpose(x), grad_y)
    grad_b = tensor.col_sums(grad_y)
    return grad_x, grad_w, grad_b


# --- layer normalization ---


def layernorm_fwd(
    x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = LAYERNORM_EPS
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Per-row normalization; cache is (xhat, inv_std).  The row means are
    products with a column of ``1/E`` (:func:`tensor.row_sums`)."""
    inv_e = 1.0 / x.shape[1]
    mu = tensor.row_sums(x, inv_e)
    xhat = x - mu
    y = np.square(xhat)  # the squared deviations, later the output
    var = tensor.row_sums(y, inv_e)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    np.multiply(xhat, gain, out=y)
    y += bias
    return y, (xhat, inv_std)


def layernorm_bwd(
    cache: tuple[np.ndarray, np.ndarray], gain: np.ndarray, grad_y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (grad_x, grad_gain, grad_bias).

    Standard result of differentiating through the row mean and variance:
        grad_x = inv_std * (g - mean(g) - xhat * mean(g * xhat))
    with g = grad_y * gain, means taken per row; the means and the column
    sums are products (:func:`tensor.row_sums`, :func:`tensor.col_sums`).
    """
    xhat, inv_std = cache
    inv_e = 1.0 / xhat.shape[1]
    tmp = grad_y * xhat  # scratch: grad_y * xhat, then g * xhat, then xhat * mean(g * xhat)
    grad_gain = tensor.col_sums(tmp)
    grad_bias = tensor.col_sums(grad_y)
    grad_x = grad_y * gain  # g
    np.multiply(grad_x, xhat, out=tmp)
    mean_gx = tensor.row_sums(tmp, inv_e)
    grad_x -= tensor.row_sums(grad_x, inv_e)
    grad_x -= np.multiply(xhat, mean_gx, out=tmp)
    grad_x *= inv_std
    return grad_x, grad_gain, grad_bias


# --- GeLU (tanh approximation) ---

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_CK = _GELU_C * 0.044715  # c * k, so that c * (1 + k * x * x) is c + ck * x * x
_GELU_C3K = 3.0 * _GELU_CK


def gelu_fwd(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(y, d): the tanh GELU ``0.5 * x * (1 + tanh(c * (x + k * x**3)))``
    (``c = sqrt(2 / pi)``, ``k = 0.044715``) and its local derivative, which
    :func:`gelu_bwd` multiplies the output gradient by, as

        x2 = x * x; t = tanh(x * (c + ck * x2)); y = 0.5 * x * (1 + t)
        d = 0.5 * (1 + t) + (c + c3k * x2) * (1 - t) * y

    with ``ck = c * k`` and ``c3k = 3 * ck`` folded into constants: the tanh's
    argument is ``x * c * (1 + k * x2)``, and the second term of ``d`` is
    ``0.5 * x * (1 - t * t) * c * (1 + 3 * k * x2)`` with ``1 - t * t``
    written ``(1 - t) * (1 + t)`` and ``0.5 * x * (1 + t)`` being ``y``.
    Both come from one tanh in 15 passes, in two output buffers and one
    scratch: ``s`` holds ``x2``, then ``c + c3k * x2``, then the second term
    of ``d``; ``y`` holds ``1 - t`` before the output."""
    s = x * x
    t = np.multiply(s, _GELU_CK)
    t += _GELU_C
    t *= x
    np.tanh(t, out=t)
    s *= _GELU_C3K
    s += _GELU_C
    y = np.subtract(1.0, t)
    s *= y
    t += 1.0
    np.multiply(x, 0.5, out=y)
    y *= t
    s *= y
    t *= 0.5
    t += s  # the local derivative
    return y, t


def gelu_bwd(d: np.ndarray, grad_y: np.ndarray) -> np.ndarray:
    """grad_y * d, d the local derivative :func:`gelu_fwd` returned."""
    return np.multiply(grad_y, d)


# --- embeddings ---


def embed_tokens(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Row gather: ids of any shape -> embeddings of shape ids.shape + (E,)."""
    if np.any(ids < 0) or np.any(ids >= table.shape[0]):
        raise ValueError(f"token id out of range for vocab {table.shape[0]}")
    return table[ids]


def embed_tokens_bwd(table_shape: tuple[int, int], ids: np.ndarray, grad_rows: np.ndarray) -> np.ndarray:
    """Scatter-add of row gradients back into a dense table gradient."""
    grad_table = np.zeros(table_shape, dtype=grad_rows.dtype)
    np.add.at(grad_table, ids.reshape(-1), grad_rows.reshape(-1, table_shape[1]))
    return grad_table


def embed_positions(pe: np.ndarray, offset: int, length: int) -> np.ndarray:
    """Contiguous slice of the position table for one sequence segment."""
    if offset < 0 or offset + length > pe.shape[0]:
        raise ValueError(
            f"position window [{offset}, {offset + length}) outside table of {pe.shape[0]} rows"
        )
    return pe[offset : offset + length]


# --- loss ---


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over rows, with the gradient w.r.t. the logits.

    The loss is the *mean* of the per-token losses, so a partial loss over a
    token subset averages back to the full loss, and the gradient is simply
    (softmax - onehot) / n_rows.
    """
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects 2-D logits, got shape {logits.shape}")
    n, v = logits.shape
    if targets.shape != (n,):
        raise ShapeError(f"targets shape {targets.shape} does not match {n} logit rows")
    if np.any(targets < 0) or np.any(targets >= v):
        raise ValueError(f"target id out of range for vocab {v}")
    rows = np.arange(n)
    # One buffer holds the shifted logits, their exponentials, the softmax
    # and the gradient; the targets' shifted logits are gathered first.
    grad = logits - np.max(logits, axis=1, keepdims=True)
    picked = grad[rows, targets]
    np.exp(grad, out=grad)
    sum_exp = tensor.row_sums(grad)
    loss = float(-np.mean(picked - np.log(sum_exp)[:, 0]))
    grad /= sum_exp
    grad[rows, targets] -= 1.0
    grad /= n
    if not math.isfinite(loss):
        raise NumericsError("cross_entropy produced a non-finite loss")
    return loss, tensor.check_finite(grad, "cross_entropy grad")
