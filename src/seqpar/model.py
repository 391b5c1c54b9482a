"""Decoder-only transformer with hand-rolled autodiff, plus the sequential
(single-worker) reference engine.

The per-layer forward/backward are written once, here, and parameterized at
the two places where distributed execution differs from sequential:

* how keys and values for the whole sequence are produced from each worker's
  local activation block (``kv_fwd``), and how gradients flow back through
  that production (``kv_bwd``).  Locally it is two linear maps; the sharded
  engine additionally all-gathers activations forward and reduce-scatters
  gradients backward.
* where each of the layer's two sublayers (attention, feed-forward) runs
  (``place_fwd``/``place_bwd``).  By default on the worker's own block; the
  baseline engine gathers the sublayer input onto one worker, runs it over
  the whole sequence and scatters the output back.

Because every engine executes the same kernel calls in the same order, a
distributed run with a single worker is bit-for-bit identical to the
sequential engine, and multi-worker runs differ only by float rounding.

Shapes follow one convention throughout: activations are (batch, rows,
features); token ids and targets are (batch, rows); ``offset`` is the global
sequence position of a block's first row, which drives both the causal mask
and the position-keyed dropout.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, fields
from functools import cache, partial
from itertools import zip_longest
from operator import attrgetter

import numpy as np

from . import nnops, tensor
from .errors import ShapeError
from .nnops import DropoutPolicy, LinearParams

CHECKPOINT_MAGIC = b"SQPR"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int
    n_layers: int
    n_heads: int
    ff_dim: int
    vocab: int
    seq_len: int
    batch: int = 1
    dropout: float = 0.0
    causal: bool = True
    precision: str = "double"

    def __post_init__(self) -> None:
        if self.embed_dim < 1 or self.n_heads < 1 or self.ff_dim < 1:
            raise ValueError("model dimensions must be positive")
        if self.embed_dim % self.n_heads != 0:
            raise ShapeError(
                f"embed_dim {self.embed_dim} is not divisible by n_heads {self.n_heads}"
            )
        if self.n_layers < 0:
            raise ValueError("n_layers must be non-negative")
        if self.vocab < 1 or self.seq_len < 1 or self.batch < 1:
            raise ValueError("vocab, seq_len and batch must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        tensor.resolve_dtype(self.precision)

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.n_heads

    @property
    def dtype(self) -> np.dtype:
        return tensor.resolve_dtype(self.precision)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        extra = set(d) - set(cls.__dataclass_fields__)
        if extra:
            raise ValueError(f"unknown model-config keys: {sorted(extra)}")
        return cls(**d)


@dataclass
class LayerParams:
    ln1_gain: np.ndarray
    ln1_bias: np.ndarray
    attn_q: LinearParams
    attn_k: LinearParams
    attn_v: LinearParams
    attn_out: LinearParams
    ln2_gain: np.ndarray
    ln2_bias: np.ndarray
    ff_in: LinearParams
    ff_out: LinearParams


@dataclass
class Parameters:
    """Full parameter set.  The same container carries gradients.

    The field order here, in :class:`LayerParams` and in
    :class:`~seqpar.nnops.LinearParams`, is the flat layout gradient sync,
    optimizers, the gradient norm and checkpoints all walk; nothing else
    restates it.

    On a distributed worker ``pos_table`` holds only that worker's contiguous
    rows of the position table; everything else is a full replica.
    """

    token_table: np.ndarray
    pos_table: np.ndarray
    layers: list[LayerParams]
    final_gain: np.ndarray
    final_bias: np.ndarray
    head: LinearParams

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        """(name, array) for every array, depth-first in field order.  Nested
        fields join with ".", a list's items take the field name without its
        plural "s" plus their index: ``layer0.attn_q.weight``."""
        out: list[tuple[str, np.ndarray]] = []
        _collect(self, "", out)
        return out

    def arrays(self) -> list[np.ndarray]:
        return [a for _, a in self.named_arrays()]

    def replace_arrays(self, arrays) -> "Parameters":
        """Rebuild the same structure from a flat list in named order."""
        it = iter(arrays)
        try:
            rebuilt = _rebuild(self, it)
        except StopIteration:
            raise ShapeError("too few arrays when rebuilding parameters") from None
        rest = list(it)
        if rest:
            raise ShapeError(f"{len(rest)} extra arrays when rebuilding parameters")
        return rebuilt

    def copy(self) -> "Parameters":
        return self.replace_arrays([a.copy() for a in self.arrays()])

    def zip_map(self, other: "Parameters", fn) -> "Parameters":
        return self.replace_arrays([fn(a, b) for a, b in zip(self.arrays(), other.arrays())])


@cache
def _layout(cls) -> tuple[tuple[str, ...], attrgetter]:
    """A dataclass's field names and one getter returning their values."""
    names = tuple(f.name for f in fields(cls))
    return names, attrgetter(*names)


def _collect(node, prefix: str, out: list) -> None:
    """Append ``node``'s (name, array) pairs to ``out`` in field order."""
    names, values = _layout(type(node))
    for name, value in zip(names, values(node)):
        if isinstance(value, np.ndarray):
            out.append((prefix + name, value))
        elif isinstance(value, list):
            for i, item in enumerate(value):
                _collect(item, f"{prefix}{name.removesuffix('s')}{i}.", out)
        else:
            _collect(value, f"{prefix}{name}.", out)


def _rebuild(node, arrays):
    """``node``'s structure with each array replaced by the next of ``arrays``."""
    if isinstance(node, np.ndarray):
        return next(arrays)
    if isinstance(node, list):
        return [_rebuild(item, arrays) for item in node]
    return type(node)(*[_rebuild(value, arrays) for value in _layout(type(node))[1](node)])


def param_shapes(cfg: ModelConfig) -> Parameters:
    """The parameter structure ``cfg`` describes: the one place shapes are
    derived from a config.  Every array is a read-only view of one zero, so
    it costs no memory.  Weights are (d_in, d_out), tables (rows, embed_dim)."""
    e, f, dt = cfg.embed_dim, cfg.ff_dim, cfg.dtype
    zero = np.zeros((), dt)

    @cache  # read-only, so fields of one shape can share a view
    def zeros(*shape: int) -> np.ndarray:
        view = np.ndarray(shape, dt, buffer=zero, strides=(0,) * len(shape))
        view.flags.writeable = False
        return view

    def linear(d_in: int, d_out: int) -> LinearParams:
        return LinearParams(weight=zeros(d_in, d_out), bias=zeros(d_out))

    layers = [LayerParams(
        ln1_gain=zeros(e), ln1_bias=zeros(e), attn_q=linear(e, e), attn_k=linear(e, e),
        attn_v=linear(e, e), attn_out=linear(e, e), ln2_gain=zeros(e), ln2_bias=zeros(e),
        ff_in=linear(e, f), ff_out=linear(f, e),
    ) for _ in range(cfg.n_layers)]
    return Parameters(token_table=zeros(cfg.vocab, e), pos_table=zeros(cfg.seq_len, e),
                      layers=layers, final_gain=zeros(e), final_bias=zeros(e),
                      head=linear(e, cfg.vocab))


def param_count(params: Parameters) -> int:
    return sum(int(a.size) for a in params.arrays())


def init_params(cfg: ModelConfig, seed: int) -> Parameters:
    """Scaled-uniform init of :func:`param_shapes`, one rule per array name,
    drawn in named order.

    Layernorm gains start at one, biases at zero.  Weights and embedding
    tables are U(-1/sqrt(fan_in), +1/sqrt(fan_in)) with fan_in the input
    feature count: ``shape[0]`` of a weight, the embedding width of a table.
    Draw order is therefore: token table, position table, then per layer q,
    k, v, out, ff_in, ff_out weights, then the head weight.
    """
    rng = np.random.default_rng(seed)

    def draw(name: str, a: np.ndarray) -> np.ndarray:
        if name.endswith("_gain"):
            return np.ones(a.shape, a.dtype)
        if name.endswith("bias"):
            return np.zeros(a.shape, a.dtype)
        bound = 1.0 / np.sqrt(a.shape[1] if name.endswith("_table") else a.shape[0])
        return rng.uniform(-bound, bound, a.shape).astype(a.dtype)

    template = param_shapes(cfg)
    return template.replace_arrays([draw(n, a) for n, a in template.named_arrays()])


# --- small shape helpers shared by every engine ---


def row_coords(batch: int, rows: int, offset: int) -> tuple[np.ndarray, np.ndarray]:
    """(sample, global position) for each row of a flattened (B*rows, E) block."""
    samples = np.repeat(np.arange(batch, dtype=np.int64), rows)
    positions = np.tile(np.arange(offset, offset + rows, dtype=np.int64), batch)
    return samples, positions


def linear3(x: np.ndarray, p: LinearParams) -> np.ndarray:
    b, m, e = x.shape
    return nnops.linear_fwd(x.reshape(b * m, e), p).reshape(b, m, -1)


def linear3_bwd(x: np.ndarray, p: LinearParams, grad_y: np.ndarray):
    b, m, _ = grad_y.shape
    gx, gw, gb = nnops.linear_bwd(x.reshape(b * m, x.shape[2]), p, grad_y.reshape(b * m, -1))
    return gx.reshape(x.shape), gw, gb


def norm3(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    b, m, e = x.shape
    y, cache = nnops.layernorm_fwd(x.reshape(b * m, e), gain, bias)
    return y.reshape(b, m, e), cache


def norm3_bwd(cache, gain: np.ndarray, grad_y: np.ndarray):
    b, m, e = grad_y.shape
    gx, gg, gb = nnops.layernorm_bwd(cache, gain, grad_y.reshape(b * m, e))
    return gx.reshape(b, m, e), gg, gb


def dropout3(x, policy, layer, tag, samples, positions):
    b, m, e = x.shape
    y, mask = nnops.dropout_fwd(x.reshape(b * m, e), policy, layer, tag, samples, positions)
    return y.reshape(b, m, e), mask


def dropout3_bwd(grad_y, policy, mask):
    b, m, e = grad_y.shape
    return nnops.dropout_bwd(grad_y.reshape(b * m, e), policy, mask).reshape(b, m, e)


# --- attention score block ---


@dataclass
class ScoreCache:
    """What one layer's attention keeps for its backward, per (sample, head)
    block in sample-major order: the softmax weights, and with dropout the
    boolean keep mask (None without).  The dropped weights are not kept;
    backward rebuilds them from these two.  Each list holds views into one
    (blocks, rows, keys) stack; :func:`scores_bwd` empties both lists."""

    weights: list[np.ndarray]
    keep: list[np.ndarray | None]

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.weights) + sum(
            k.nbytes for k in self.keep if k is not None
        )


# Elements of score blocks that one pass of a row-wise op covers: one 256x512
# block, or eight 128x128 ones.  Small blocks cost numpy call overhead more
# than arithmetic, so consecutive (sample, head) blocks up to this budget go
# through the scaling, the softmax, the keep-mask hash and the backward's
# elementwise passes together, as one (blocks * rows, keys) view; a block
# above the budget is a group of its own.  The matmuls stay per block.
SCORE_GROUP_WORDS = 1 << 17


def score_groups(blocks: int, block_words: int) -> tuple[int, list[range]]:
    """(the largest group's block count, each group's range of block
    indices) for ``blocks`` blocks of ``block_words`` elements each."""
    size = max(1, min(blocks, SCORE_GROUP_WORDS // max(1, block_words)))
    return size, [range(i, min(i + size, blocks)) for i in range(0, blocks, size)]


def _block_slices(bsz: int, heads: int, dk: int) -> list[tuple[int, slice]]:
    """(sample, feature columns) of each (sample, head) block, sample-major."""
    return [(b, slice(h * dk, (h + 1) * dk)) for b in range(bsz) for h in range(heads)]


def scores_fwd(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    offset: int,
    cfg: ModelConfig,
    policy: DropoutPolicy,
    layer: int,
) -> tuple[np.ndarray, ScoreCache]:
    """Masked, scaled dot-product attention over per-head slices.

    ``q`` holds the local block's rows (global positions offset..offset+m),
    ``k``/``v`` hold the whole sequence; a causal row attends to keys at or
    before its own global position.  Scores are materialized per head and
    sample, which is exactly the activation footprint the counters track.

    The weights (and keep masks) of all blocks go into one stack each, taken
    through ``tensor.take``.  Each block's scores are multiplied straight
    into the weight stack; the row-wise ops then run once per group of
    blocks (:data:`SCORE_GROUP_WORDS`), and with dropout one group-sized
    work buffer holds the group's dropped weights.  With a causal mask the
    keep mask is hashed, a row tile at a time, only up to the last key the
    tile's rows can see, and is False beyond it, where every weight is
    exactly zero.
    """
    bsz, m, e = q.shape
    t = k.shape[1]
    dk, heads = cfg.head_dim, cfg.n_heads
    counters = tensor.active_counters()
    scale = 1.0 / math.sqrt(dk)  # a python float keeps single precision single
    q_pos = np.arange(offset, offset + m, dtype=np.int64)
    blocks = bsz * heads
    size, groups = score_groups(blocks, m * t)
    mask = visible = None
    if cfg.causal:
        mask = np.tile(np.arange(t)[None, :] <= q_pos[:, None], (size, 1))
        visible = np.tile(q_pos + 1, size)
    weights = tensor.take((blocks, m, t), q.dtype)
    keep = None
    if policy.active:
        keep = tensor.take((blocks, m, t), np.bool_)
        work = tensor.take((size * m, t), q.dtype)
    ctx = np.empty_like(q)
    where = _block_slices(bsz, heads, dk)
    for group in groups:
        rows = len(group) * m
        for i in group:
            b, cols = where[i]
            tensor.matmul(q[b, :, cols], k[b, :, cols].T, out=weights[i])
            if counters is not None:
                counters.add_score_flops(m, dk, t)
        aw_d = aw = weights[group.start : group.stop].reshape(rows, t)
        aw *= scale
        tensor.softmax_rows(aw, None if mask is None else mask[:rows], out=aw)
        if keep is not None:
            row_keys = np.concatenate(
                [nnops.score_row_keys(policy, layer, *divmod(i, heads), q_pos) for i in group]
            )
            kept = nnops.keep_mask(
                policy, row_keys, t, out=keep[group.start : group.stop].reshape(rows, t),
                visible=None if visible is None else visible[:rows],
            )
            aw_d = nnops.scaled_mask(policy, kept, aw.dtype, out=work[:rows])
            aw_d *= aw
        for j, i in enumerate(group):
            b, cols = where[i]
            ctx[b, :, cols] = tensor.matmul(aw_d[j * m : (j + 1) * m], v[b, :, cols])
            if counters is not None:
                counters.add_score_flops(m, t, dk)
    if keep is not None:
        tensor.give(work)
    cache = ScoreCache(weights=list(weights), keep=[None] * blocks if keep is None else list(keep))
    if counters is not None:
        counters.record_score_footprint(blocks * m * t)
        counters.add_score_cache(cache.nbytes)
    return ctx, cache


def scores_bwd(
    cache: ScoreCache,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    grad_ctx: np.ndarray,
    cfg: ModelConfig,
    policy: DropoutPolicy,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per group of blocks (as in :func:`scores_fwd`), the dropped weights
    are rebuilt as ``aw * scaled mask`` in a group-sized work buffer for the
    value gradients only; the weight gradients then take that buffer, are
    scaled by the same mask and run through the softmax backward in place.
    The cache's stacks go back to ``tensor.give`` and its lists are emptied,
    so a spent cache cannot be read again."""
    bsz, m, e = q.shape
    t = k.shape[1]
    dk, heads = cfg.head_dim, cfg.n_heads
    blocks = bsz * heads
    if len(cache.weights) != blocks or len(cache.keep) != blocks:
        raise ValueError(f"score cache holds {len(cache.weights)} blocks, expected {blocks}; "
                         "a cache serves one backward")
    scale = 1.0 / math.sqrt(dk)
    grad_q = np.empty_like(q)
    grad_k = np.empty_like(k)
    grad_v = np.empty_like(v)
    # every block is a view into one weight stack (and one keep stack)
    weights = cache.weights[0].base
    keep = None if cache.keep[0] is None else cache.keep[0].base
    dt = weights.dtype
    size, groups = score_groups(blocks, m * t)
    work = tensor.take((size * m, t), dt)
    height, words = nnops.row_tile(t)
    tile = tensor.take((words,), dt)
    row_sums = np.empty((size * m, 1), dt)
    where = _block_slices(bsz, heads, dk)
    for group in groups:
        rows = len(group) * m
        aw_d = aw = weights[group.start : group.stop].reshape(rows, t)
        grad_aw = work[:rows]
        if keep is not None:
            kept = keep[group.start : group.stop].reshape(rows, t)
            aw_d = nnops.scaled_mask(policy, kept, dt, out=grad_aw)
            aw_d *= aw
        for j, i in enumerate(group):
            b, cols = where[i]
            grad_v[b, :, cols] = tensor.matmul(aw_d[j * m : (j + 1) * m].T, grad_ctx[b, :, cols])
        for j, i in enumerate(group):
            b, cols = where[i]
            tensor.matmul(grad_ctx[b, :, cols], v[b, :, cols].T, out=grad_aw[j * m : (j + 1) * m])
        if keep is not None:
            # times the scaled mask, bitwise: a kept entry is scaled by
            # 1 * c, a dropped one becomes a zero of its own sign
            grad_aw *= kept
            grad_aw *= nnops.keep_scale(policy, dt)
        # softmax backward, in place: grad_s = aw * (grad_aw - rowsum(grad_aw * aw))
        # * scale; masked-out entries have aw == 0, so they stay 0.  The
        # row sums go a tile of rows at a time, which leaves each row's sum
        # as it was.
        for r0 in range(0, rows, height):
            r1 = min(r0 + height, rows)
            prod = tile[: (r1 - r0) * t].reshape(r1 - r0, t)
            np.multiply(grad_aw[r0:r1], aw[r0:r1], out=prod)
            np.sum(prod, axis=1, keepdims=True, out=row_sums[r0:r1])
        grad_aw -= row_sums[:rows]
        grad_aw *= aw
        grad_aw *= scale
        for j, i in enumerate(group):
            b, cols = where[i]
            grad_s = grad_aw[j * m : (j + 1) * m]
            grad_q[b, :, cols] = tensor.matmul(grad_s, k[b, :, cols])
            grad_k[b, :, cols] = tensor.matmul(grad_s.T, q[b, :, cols])
    tensor.give(work, tile, *[a for a in (weights, keep) if a is not None])
    cache.weights.clear()
    cache.keep.clear()
    return grad_q, grad_k, grad_v


# --- the two sublayers: fwd(y, offset) -> (out, cache) with out shaped like
# y, bwd(cache, grad_out) -> (grad_y, tuple of LinearParams weight grads) ---


@dataclass
class AttentionCache:
    xh: np.ndarray
    kv_ctx: object
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    scores: ScoreCache
    ctx: np.ndarray


def local_kv_fwd(xh: np.ndarray, lp: LayerParams):
    """Single-worker key/value production: project the block itself."""
    return linear3(xh, lp.attn_k), linear3(xh, lp.attn_v), xh


def local_kv_bwd(kv_ctx, lp: LayerParams, grad_k: np.ndarray, grad_v: np.ndarray):
    grad_kx, k_wg, k_bg = linear3_bwd(kv_ctx, lp.attn_k, grad_k)
    grad_vx, v_wg, v_bg = linear3_bwd(kv_ctx, lp.attn_v, grad_v)
    return grad_kx + grad_vx, k_wg, k_bg, v_wg, v_bg


def attention_fwd(xh, offset, lp: LayerParams, cfg, policy, layer, kv_fwd=local_kv_fwd):
    """Keys and values (through ``kv_fwd``), queries, scores and the output
    projection."""
    k, v, kv_ctx = kv_fwd(xh, lp)
    q = linear3(xh, lp.attn_q)
    ctx, score_cache = scores_fwd(q, k, v, offset, cfg, policy, layer)
    return linear3(ctx, lp.attn_out), AttentionCache(xh, kv_ctx, q, k, v, score_cache, ctx)


def attention_bwd(cache: AttentionCache, grad_out, lp: LayerParams, cfg, policy,
                  kv_bwd=local_kv_bwd):
    """Weight grads in the order q, k, v, out."""
    grad_ctx, out_wg, out_bg = linear3_bwd(cache.ctx, lp.attn_out, grad_out)
    grad_q, grad_k, grad_v = scores_bwd(
        cache.scores, cache.q, cache.k, cache.v, grad_ctx, cfg, policy
    )
    grad_xh_q, q_wg, q_bg = linear3_bwd(cache.xh, lp.attn_q, grad_q)
    grad_xh_kv, k_wg, k_bg, v_wg, v_bg = kv_bwd(cache.kv_ctx, lp, grad_k, grad_v)
    grads = (LinearParams(q_wg, q_bg), LinearParams(k_wg, k_bg), LinearParams(v_wg, v_bg),
             LinearParams(out_wg, out_bg))
    return grad_xh_q + grad_xh_kv, grads


@dataclass
class FfnCache:
    yh_flat: np.ndarray
    h_pre: np.ndarray
    h_drop: np.ndarray
    hidden_mask: np.ndarray | None


def ffn_fwd(yh, offset, lp: LayerParams, policy, layer):
    b, m, e = yh.shape
    samples, positions = row_coords(b, m, offset)
    yh_flat = yh.reshape(b * m, e)
    h_pre = nnops.linear_fwd(yh_flat, lp.ff_in)
    h_act = nnops.gelu_fwd(h_pre)
    h_drop, hidden_mask = nnops.dropout_fwd(h_act, policy, layer, "ffn_hidden", samples, positions)
    out = nnops.linear_fwd(h_drop, lp.ff_out).reshape(b, m, e)
    return out, FfnCache(yh_flat, h_pre, h_drop, hidden_mask)


def ffn_bwd(cache: FfnCache, grad_out, lp: LayerParams, policy):
    """Weight grads in the order ff_in, ff_out."""
    b, m, e = grad_out.shape
    g = grad_out.reshape(b * m, e)
    grad_h_drop, ff_out_wg, ff_out_bg = nnops.linear_bwd(cache.h_drop, lp.ff_out, g)
    grad_h_act = nnops.dropout_bwd(grad_h_drop, policy, cache.hidden_mask)
    grad_h_pre = nnops.gelu_bwd(cache.h_pre, grad_h_act)
    grad_yh, ff_in_wg, ff_in_bg = nnops.linear_bwd(cache.yh_flat, lp.ff_in, grad_h_pre)
    grads = (LinearParams(ff_in_wg, ff_in_bg), LinearParams(ff_out_wg, ff_out_bg))
    return grad_yh.reshape(b, m, e), grads


def local_place_fwd(sublayer, y, offset):
    """Default sublayer placement: run it on the worker's own block."""
    return sublayer(y, offset)


def local_place_bwd(sublayer_bwd, cache, grad_out, weights):
    """Backward of :func:`local_place_fwd`.  ``weights`` (the LinearParams the
    weight grads mirror) serve placements where a worker returns zeros."""
    return sublayer_bwd(cache, grad_out)


# --- one full pre-norm layer ---


@dataclass
class LayerCache:
    ln1: tuple
    attn: AttentionCache | None  # None where the placement ran it elsewhere
    att_mask: np.ndarray | None
    ln2: tuple
    ffn: FfnCache | None
    ff_mask: np.ndarray | None


def layer_fwd(
    lp: LayerParams,
    cfg: ModelConfig,
    policy: DropoutPolicy,
    layer: int,
    x: np.ndarray,
    offset: int,
    kv_fwd=local_kv_fwd,
    place_fwd=local_place_fwd,
) -> tuple[np.ndarray, LayerCache]:
    """norm -> attention -> dropout -> residual, norm -> ffn -> dropout -> residual.

    ``kv_fwd(xh, lp)`` returns whole-sequence keys and values plus an opaque
    context for the matching ``kv_bwd``.  Locally that is two projections of
    the block itself; distributed it involves an all-gather.

    ``place_fwd(sublayer, y, offset)`` runs each sublayer and returns its
    ``(out, cache)`` for this worker's block; by default on the block itself.
    Norms, dropout and residuals always run on the block.

    The output is checked for NaN and Inf (:class:`~seqpar.errors.NumericsError`
    names the layer); the kernels inside the layer do not check theirs.
    """
    bsz, m, e = x.shape
    samples, positions = row_coords(bsz, m, offset)
    xh, ln1_cache = norm3(x, lp.ln1_gain, lp.ln1_bias)
    attention = partial(attention_fwd, lp=lp, cfg=cfg, policy=policy, layer=layer, kv_fwd=kv_fwd)
    att, att_cache = place_fwd(attention, xh, offset)
    att_drop, att_mask = dropout3(att, policy, layer, "attn_out", samples, positions)
    x_mid = x + att_drop
    yh, ln2_cache = norm3(x_mid, lp.ln2_gain, lp.ln2_bias)
    ff, ffn_cache = place_fwd(partial(ffn_fwd, lp=lp, policy=policy, layer=layer), yh, offset)
    ff_drop, ff_mask = dropout3(ff, policy, layer, "ffn_out", samples, positions)
    cache = LayerCache(ln1_cache, att_cache, att_mask, ln2_cache, ffn_cache, ff_mask)
    return tensor.check_finite(x_mid + ff_drop, f"layer {layer} output"), cache


def layer_bwd(
    lp: LayerParams,
    cfg: ModelConfig,
    policy: DropoutPolicy,
    layer: int,
    cache: LayerCache,
    grad_out: np.ndarray,
    kv_bwd=local_kv_bwd,
    place_bwd=local_place_bwd,
) -> tuple[np.ndarray, LayerParams]:
    """Reverse of :func:`layer_fwd`; returns (grad_x_in, per-layer grads).

    ``kv_bwd(kv_ctx, lp, grad_k, grad_v)`` must return the key/value path's
    gradient w.r.t. this worker's own normalized block (plus the four
    projection grads); distributed it reduce-scatters before returning.
    ``place_bwd(sublayer_bwd, cache, grad_out, weights)`` mirrors the
    ``place_fwd`` the forward ran with.  The input gradient is checked for
    NaN and Inf, as :func:`layer_fwd` checks its output.
    """
    g_ff = dropout3_bwd(grad_out, policy, cache.ff_mask)
    ffn = partial(ffn_bwd, lp=lp, policy=policy)
    grad_yh, (ff_in_g, ff_out_g) = place_bwd(ffn, cache.ffn, g_ff, (lp.ff_in, lp.ff_out))
    g_ln2_x, ln2_gain_g, ln2_bias_g = norm3_bwd(cache.ln2, lp.ln2_gain, grad_yh)
    grad_mid = grad_out + g_ln2_x
    g_att = dropout3_bwd(grad_mid, policy, cache.att_mask)
    attention = partial(attention_bwd, lp=lp, cfg=cfg, policy=policy, kv_bwd=kv_bwd)
    grad_xh, (q_g, k_g, v_g, out_g) = place_bwd(
        attention, cache.attn, g_att, (lp.attn_q, lp.attn_k, lp.attn_v, lp.attn_out)
    )
    g_ln1_x, ln1_gain_g, ln1_bias_g = norm3_bwd(cache.ln1, lp.ln1_gain, grad_xh)
    grads = LayerParams(
        ln1_gain=ln1_gain_g, ln1_bias=ln1_bias_g, attn_q=q_g, attn_k=k_g, attn_v=v_g,
        attn_out=out_g, ln2_gain=ln2_gain_g, ln2_bias=ln2_bias_g, ff_in=ff_in_g, ff_out=ff_out_g,
    )
    return tensor.check_finite(grad_mid + g_ln1_x, f"layer {layer} input gradient"), grads


# --- embedding and output head ---


@dataclass
class EmbedCache:
    tokens: np.ndarray
    mask: np.ndarray | None


def embed_fwd(params: Parameters, cfg: ModelConfig, tokens: np.ndarray, offset: int, policy):
    """Token + position embeddings for one contiguous block of the sequence.

    ``params.pos_table`` must hold exactly this block's rows (the full table
    sequentially, the local shard on a distributed worker).
    """
    bsz, m = tokens.shape
    if params.pos_table.shape[0] != m:
        raise ShapeError(
            f"position table has {params.pos_table.shape[0]} rows, block has {m}"
        )
    tok = nnops.embed_tokens(params.token_table, tokens)
    pe = nnops.embed_positions(params.pos_table, 0, m)
    x = tok + pe
    samples, positions = row_coords(bsz, m, offset)
    x, mask = dropout3(x, policy, 0, "embed", samples, positions)
    return x, EmbedCache(tokens=tokens, mask=mask)


def embed_bwd(cache: EmbedCache, vocab: int, policy, grad_x: np.ndarray):
    g = dropout3_bwd(grad_x, policy, cache.mask)
    grad_pe = np.sum(g, axis=0)
    grad_tok = nnops.embed_tokens_bwd((vocab, g.shape[2]), cache.tokens, g)
    return grad_tok, grad_pe


@dataclass
class HeadCache:
    lnf: tuple
    xf: np.ndarray
    logits: np.ndarray | None  # both None once head_bwd has run
    grad_logits: np.ndarray | None
    shape3: tuple


def head_fwd(x: np.ndarray, params: Parameters, targets: np.ndarray | None):
    """Final layernorm, vocabulary projection and (optionally) the loss."""
    bsz, m, e = x.shape
    xf, lnf_cache = nnops.layernorm_fwd(x.reshape(bsz * m, e), params.final_gain, params.final_bias)
    logits = nnops.linear_fwd(xf, params.head)
    if targets is None:
        return None, HeadCache(lnf_cache, xf, logits, None, (bsz, m, e))
    loss, grad_logits = nnops.cross_entropy(logits, targets.reshape(bsz * m))
    return loss, HeadCache(lnf_cache, xf, logits, grad_logits, (bsz, m, e))


def head_bwd(cache: HeadCache, params: Parameters):
    """Backward of :func:`head_fwd`.  It spends the cache's logits and their
    gradient (None afterwards), so neither is held through the layers'
    backward, and a spent cache cannot be read again."""
    if cache.grad_logits is None:
        raise ValueError("head_bwd requires a forward pass that computed the loss")
    cache.logits = None
    grad_xf, head_wg, head_bg = nnops.linear_bwd(cache.xf, params.head, cache.grad_logits)
    cache.grad_logits = None
    grad_x, final_gain_g, final_bias_g = nnops.layernorm_bwd(cache.lnf, params.final_gain, grad_xf)
    return grad_x.reshape(cache.shape3), final_gain_g, final_bias_g, head_wg, head_bg


# --- the whole stack: sequential reference engine ---


@dataclass
class StackCache:
    """What a forward pass over the whole stack holds for its backward; the
    sequential and the sharded forward both return one."""

    embed: EmbedCache
    layers: list[LayerCache]
    head: HeadCache
    policy: DropoutPolicy

    @property
    def logits(self) -> np.ndarray:
        return self.head.logits


def forward(
    params: Parameters,
    cfg: ModelConfig,
    tokens: np.ndarray,
    targets: np.ndarray | None = None,
    policy: DropoutPolicy | None = None,
) -> tuple[float | None, StackCache]:
    """Whole-sequence forward pass on one worker."""
    policy = policy if policy is not None else DropoutPolicy.off()
    if tokens.ndim != 2:
        raise ShapeError(f"tokens must be (batch, seq_len), got shape {tokens.shape}")
    x, e_cache = embed_fwd(params, cfg, tokens, 0, policy)
    layer_caches = []
    for li, lp in enumerate(params.layers):
        x, c = layer_fwd(lp, cfg, policy, li, x, 0)
        layer_caches.append(c)
    loss, h_cache = head_fwd(x, params, targets)
    return loss, StackCache(e_cache, layer_caches, h_cache, policy)


def backward(params: Parameters, cfg: ModelConfig, cache: StackCache, kv_bwd=None) -> Parameters:
    """Gradients of the mean-over-tokens loss w.r.t. every parameter.
    ``kv_bwd(layer)``, when given, returns the hook :func:`layer_bwd` runs
    that layer with, matching the ``kv_fwd`` its forward ran with."""
    policy = cache.policy
    grad_x, final_gain_g, final_bias_g, head_wg, head_bg = head_bwd(cache.head, params)
    layer_grads: list[LayerParams | None] = [None] * len(params.layers)
    for li in range(len(params.layers) - 1, -1, -1):
        hook = local_kv_bwd if kv_bwd is None else kv_bwd(li)
        grad_x, layer_grads[li] = layer_bwd(
            params.layers[li], cfg, policy, li, cache.layers[li], grad_x, hook
        )
    grad_tok, grad_pe = embed_bwd(cache.embed, cfg.vocab, policy, grad_x)
    return Parameters(token_table=grad_tok, pos_table=grad_pe, layers=layer_grads,
                      final_gain=final_gain_g, final_bias=final_bias_g,
                      head=LinearParams(head_wg, head_bg))


def sgd_step(params: Parameters, grads: Parameters, lr: float) -> Parameters:
    """Plain SGD; returns fresh parameters, inputs untouched."""

    def update(w: np.ndarray, g: np.ndarray) -> np.ndarray:
        d = g * lr
        return np.subtract(w, d, out=d)  # w - lr * g, in the product's buffer

    return params.zip_map(grads, update)


# --- flat vector helpers (gradient sync, optimizers) ---


def flatten_arrays(arrays: list[np.ndarray], *tail: float) -> np.ndarray:
    """Every array raveled in order, then the ``tail`` scalars, in one copy."""
    parts = [a.ravel() for a in arrays]
    if tail:
        parts.append(np.array(tail, dtype=parts[0].dtype if parts else np.float64))
    return np.concatenate(parts) if parts else np.zeros(0)


def unflatten_like(vec: np.ndarray, arrays: list[np.ndarray]) -> list[np.ndarray]:
    needed = sum(a.size for a in arrays)
    if vec.size != needed:
        raise ShapeError(f"flat vector has {vec.size} elements, structure needs {needed}")
    out = []
    pos = 0
    for a in arrays:
        out.append(vec[pos : pos + a.size].reshape(a.shape))
        pos += a.size
    return out


def square_sum(a: np.ndarray) -> float:
    return float(np.sum(np.asarray(a, dtype=np.float64) ** 2))


def grad_norm(grads: Parameters, *, squared: bool = False) -> float:
    """Euclidean norm over every gradient array, its squares folded in
    parameter order; ``squared`` returns the fold itself."""
    total = 0.0
    for g in grads.arrays():
        total += square_sum(g)
    return total if squared else float(np.sqrt(total))


# --- checkpoints ---


def save_checkpoint(path, params: Parameters, cfg: ModelConfig, seed: int) -> None:
    """Binary layout: magic, u32 version, u32 header length, JSON header
    (config, seed, dtype, array names), then per array a u8 rank, u64
    little-endian dims, and raw little-endian element bytes."""
    dt = cfg.dtype.newbyteorder("<").str
    names = [n for n, _ in params.named_arrays()]
    header = json.dumps(
        {"config": cfg.to_dict(), "seed": seed, "dtype": dt, "arrays": names}
    ).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        for _, a in params.named_arrays():
            f.write(struct.pack("<B", a.ndim))
            f.write(struct.pack(f"<{a.ndim}Q", *a.shape))
            f.write(np.ascontiguousarray(a, dtype=dt).tobytes())


def load_checkpoint(path) -> tuple[Parameters, ModelConfig, int]:
    """Parameters, config and seed of a :func:`save_checkpoint` file.  Array
    names and shapes must be those of the header's config."""
    with open(path, "rb") as f:

        def read(n: int) -> bytes:
            chunk = f.read(n)
            if len(chunk) < n:
                raise ValueError(f"checkpoint {path} is truncated")
            return chunk

        if read(4) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path} is not a checkpoint file")
        (version,) = struct.unpack("<I", read(4))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        (header_len,) = struct.unpack("<I", read(4))
        header = json.loads(read(header_len).decode("utf-8"))
        cfg = ModelConfig.from_dict(header["config"])
        template = param_shapes(cfg)
        expected = template.named_arrays()
        for i, (got, want) in enumerate(zip_longest(header["arrays"], [n for n, _ in expected])):
            if got != want:
                raise ValueError(f"checkpoint {path} array {i} is {got!r}, its config has {want!r}")
        dt = np.dtype(header["dtype"])
        arrays = []
        for name, want in expected:
            (rank,) = struct.unpack("<B", read(1))
            shape = struct.unpack(f"<{rank}Q", read(8 * rank))
            if shape != want.shape:
                raise ShapeError(f"checkpoint array {name} is {shape}, its config has {want.shape}")
            data = np.frombuffer(read(want.size * dt.itemsize), dtype=dt).reshape(shape)
            arrays.append(data.astype(cfg.dtype, copy=True))
        if f.read(1):
            raise ValueError(f"checkpoint {path} has trailing bytes")
    return template.replace_arrays(arrays), cfg, header["seed"]
