"""Neural-net primitives with hand-written backward passes.

Every op comes as a forward/backward pair over 2-D row batches (rows are
tokens, columns are features).  The backward functions take exactly what the
forward cached, nothing hidden, so each pair can be checked in isolation
against finite differences.

Dropout here is *counter-based*: instead of consuming a stateful RNG stream,
the keep/drop decision for an element is a pure hash of

    (seed, layer index, op tag, sample index, global token position, channel)

so a token keeps the same mask no matter how the sequence is split across
workers.  That property is what makes distributed training with dropout
reproduce single-worker training exactly.

The elementwise kernels (GELU, layer norm, cross-entropy, the linear bias,
dropout masks) are bound by memory traffic, not arithmetic, so each one
allocates its returned output and at most a few scratch arrays of the same
size, and every other numpy operator writes into one of those through
``out=`` or an augmented assignment.  They never write into their inputs.
Each runs the same IEEE operations on the same operands in the same order as
the plain one-line expression it replaces (at most swapping the operands of a
single ``*`` or ``+``), so results are bitwise those of that expression.
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


@dataclass(frozen=True)
class DropoutPolicy:
    """Dropout configuration shared by every worker in a run.

    ``seed`` is the only state; there is no stream to keep in sync.  Engines
    derive a fresh per-step policy with :meth:`at_step` so masks change from
    step to step while remaining a pure function of the coordinates.
    """

    rate: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {self.rate}")

    @classmethod
    def off(cls) -> "DropoutPolicy":
        return cls(rate=0.0)

    def at_step(self, step: int) -> "DropoutPolicy":
        return replace(self, seed=mix_key(self.seed & _MASK64, step + 1))

    def fork(self, lane: int) -> "DropoutPolicy":
        """Decorrelated sub-policy for an independent lane of work (e.g. a
        data-parallel replica); workers sharing one sequence must not fork."""
        return replace(self, seed=mix_key(mix_key(self.seed & _MASK64, 0x666F726B), lane + 1))

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
    """One hash word per (sample, global position) row of an activation."""
    h0 = np.uint64(_site_key(policy, layer, tag))
    h = _mix_array(np.full(samples.shape, h0, dtype=np.uint64), samples)
    return _mix_array(h, positions)


def score_row_keys(
    policy: DropoutPolicy, layer: int, sample: int, head: int, q_positions: np.ndarray
) -> np.ndarray:
    """One hash word per attention-score row (query position within a head)."""
    h0 = _site_key(policy, layer, "attn_score")
    h0 = mix_key(mix_key(h0, sample + 1), head + 1)
    return _mix_array(np.full(q_positions.shape, np.uint64(h0), dtype=np.uint64), q_positions)


# Elements per row tile of a row-wise pass (the keep_mask hash, the score
# backward's row sums): a (rows, 64) activation of up to 512 rows is one
# tile, a 256x512 score block four tiles of 64 rows.  Smaller tiles stay in
# cache but cost more numpy calls, and so more interpreter-lock handoffs
# when two ranks hash at once: at 2**14 words two concurrent ranks hashed a
# 256x512 block slower than untiled.
ROW_TILE_WORDS = 1 << 15


def row_tile(n_cols: int) -> tuple[int, int]:
    """(rows per tile, size of the flat buffer that holds one tile) for rows
    of ``n_cols`` elements.  The buffer size is the same for every width up
    to the budget, so one buffer serves them all."""
    return max(1, ROW_TILE_WORDS // max(1, n_cols)), max(ROW_TILE_WORDS, n_cols)


def keep_mask(
    policy: DropoutPolicy,
    row_keys: np.ndarray,
    n_cols: int,
    *,
    out: np.ndarray | None = None,
    visible: np.ndarray | None = None,
) -> np.ndarray:
    """Boolean keep-mask of shape (len(row_keys), n_cols), into ``out`` if
    given.  Rows are hashed a tile at a time through two scratch buffers of
    ROW_TILE_WORDS words (see :func:`row_tile`), taken from ``tensor.take``.

    ``visible`` (one count per row) limits the hash to each row's first
    ``visible`` columns: a tile is hashed up to its largest count, and every
    column past that is False.  Entries within a row's count are those of the
    full mask; a caller passes counts only where the entries past them are
    never read (a causal score row's future keys, whose weights are zero)."""
    rows = row_keys.shape[0]
    if out is None:
        out = np.empty((rows, n_cols), dtype=np.bool_)
    # (words >> 11) * 2**-53 >= rate exactly when words >> 11 >= ceil(rate * 2**53),
    # that is when words >= ceil(rate * 2**53) << 11 (below 2**64, as rate < 1)
    threshold = np.uint64(math.ceil(policy.rate * 2.0**53) << 11)
    col_words = np.arange(n_cols, dtype=np.uint64) * _U64_GOLDEN
    height, words = row_tile(n_cols)
    z, tmp = tiles = [tensor.take((words,), np.uint64) for _ in range(2)]
    for r0 in range(0, rows, height):
        n = min(height, rows - r0)
        stop = n_cols if visible is None else min(n_cols, int(visible[r0 : r0 + n].max()))
        zt = np.add(row_keys[r0 : r0 + n, None], col_words[:stop],
                    out=z[: n * stop].reshape(n, stop))
        tt = tmp[: n * stop].reshape(n, stop)
        np.greater_equal(_mix_rounds(zt, tt), threshold, out=out[r0 : r0 + n, :stop])
        if stop < n_cols:
            out[r0 : r0 + n, stop:] = False
    tensor.give(*tiles)
    return out


def scaled_mask(
    policy: DropoutPolicy, mask: np.ndarray, dtype: np.dtype, *, out: np.ndarray | None = None
) -> np.ndarray:
    """``mask`` as ``dtype`` values: :func:`keep_scale` where kept, 0 where
    dropped; into ``out`` if given."""
    return np.multiply(mask, keep_scale(policy, dtype), dtype=dtype, out=out)


def keep_scale(policy: DropoutPolicy, dtype: np.dtype):
    """The factor 1 / (1 - rate) a kept element is scaled by, as a ``dtype``
    scalar."""
    return dtype.type(1.0 / (1.0 - policy.rate))


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
    grad_b = np.sum(grad_y, axis=0)
    return grad_x, grad_w, grad_b


# --- layer normalization ---


def layernorm_fwd(
    x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = LAYERNORM_EPS
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Per-row normalization; cache is (xhat, inv_std)."""
    mu = np.mean(x, axis=1, keepdims=True)
    xhat = x - mu
    y = np.square(xhat)  # the squared deviations, later the output
    var = np.mean(y, axis=1, keepdims=True)
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
    with g = grad_y * gain, means taken per row.
    """
    xhat, inv_std = cache
    tmp = grad_y * xhat  # scratch: grad_y * xhat, then g * xhat, then xhat * mean(g * xhat)
    grad_gain = np.sum(tmp, axis=0)
    grad_bias = np.sum(grad_y, axis=0)
    grad_x = grad_y * gain  # g
    np.multiply(grad_x, xhat, out=tmp)
    mean_gx = np.mean(tmp, axis=1, keepdims=True)
    grad_x -= np.mean(grad_x, axis=1, keepdims=True)
    grad_x -= np.multiply(xhat, mean_gx, out=tmp)
    grad_x *= inv_std
    return grad_x, grad_gain, grad_bias


# --- GeLU (tanh approximation) ---

_GELU_C = math.sqrt(2.0 / math.pi)


def gelu_fwd(x: np.ndarray) -> np.ndarray:
    """0.5 * x * (1 + tanh(c * (x + 0.044715 * x**3))), with the cube as
    ``x * x * x`` (far cheaper than pow)."""
    t = x * x
    t *= x
    t *= 0.044715
    np.add(x, t, out=t)
    t *= _GELU_C
    np.tanh(t, out=t)
    t += 1.0
    y = 0.5 * x
    y *= t
    return y


def gelu_bwd(x: np.ndarray, grad_y: np.ndarray) -> np.ndarray:
    """grad_y * (0.5 * (1 + t) + 0.5 * x * (1 - t * t) * c * (1 + 3 * 0.044715 * x * x)),
    t the forward's tanh."""
    x2 = x * x
    t = x2 * x
    t *= 0.044715
    np.add(x, t, out=t)
    t *= _GELU_C
    np.tanh(t, out=t)
    s = t * t
    np.subtract(1.0, s, out=s)  # sech2
    u = 0.5 * x
    u *= s
    u *= _GELU_C
    x2 *= 3.0 * 0.044715
    x2 += 1.0
    u *= x2
    t += 1.0
    t *= 0.5
    t += u  # the local derivative
    return np.multiply(grad_y, t, out=t)


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
    sum_exp = np.sum(grad, axis=1, keepdims=True)
    loss = float(-np.mean(picked - np.log(sum_exp)[:, 0]))
    grad /= sum_exp
    grad[rows, targets] -= 1.0
    grad /= n
    if not math.isfinite(loss):
        raise NumericsError("cross_entropy produced a non-finite loss")
    return loss, tensor.check_finite(grad, "cross_entropy grad")
