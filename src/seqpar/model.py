"""Decoder-only transformer with hand-rolled autodiff, plus the sequential
(single-worker) reference engine.

The layer's and the whole stack's forward/backward are written once, here,
and every engine runs them.  Only :func:`forward` takes hooks, where
distributed execution differs from sequential, and each hook returns its
backward for the cache:

* how keys and values for the whole sequence are produced from the
  worker's normalized input (``kv_fwd``).  Locally it is two linear maps of
  the worker's rows.  The fused sharded engine first all-gathers every
  worker's normalized rows; the unfused one all-gathers keys and values.
* where the embedding, each of a layer's two sublayers (attention,
  feed-forward) and the loss head run (a placement, ``place_fwd``).  By
  default on the worker's own rows; the baseline engine runs each of them
  over the whole sequence on one worker, gathering its input there and
  scattering its output back where the input or output is a block.

Because every engine executes the same kernel calls in the same order, a
distributed run with a single worker is bit-for-bit identical to the
sequential engine, and multi-worker runs differ only by float rounding.

Shapes follow one convention throughout: activations are (batch, rows,
features); token ids and targets are (batch, rows).  ``rows`` (:data:`Rows`)
names the global sequence positions of a block's rows as ascending chunks,
which drive both the causal mask and the position-keyed dropout.  A block's
rows need not be contiguous: a sharded rank owns two chunks of the sequence
(:attr:`seqpar.grid.ShardSpec.balanced_rows`).

The attention scores are the only state quadratic in the sequence, so no
per-row constant is applied to them: the queries carry ``1/sqrt(dk)`` from
their projection on, the score tiles hold unnormalized softmax exponentials,
and each row's ``1/rowsum`` and the dropout keep scale go on the (rows, dk)
context and context gradient instead (:func:`scores_fwd`,
:func:`scores_bwd`).
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

# Field annotation of a config or a JSONL record -> (the JSON values it
# takes, their name).  Python counts bools as ints, so check_config_dict
# rejects them separately.
_FIELD_TYPES = {
    "bool": (bool, "true or false"),
    "int": (int, "an integer"),
    "int | None": ((int, type(None)), "an integer or null"),
    "float": ((int, float), "a number"),
    "str": (str, "a string"),
    "str | None": ((str, type(None)), "a string or null"),
    "ModelConfig": (dict, "an object"),
    "dict[str, int]": (dict, "an object"),
}


def check_config_dict(cls, d, what: str) -> None:
    """Raise ValueError unless ``d`` is a dict whose keys are fields of the
    dataclass ``cls`` (a config, or a JSONL record) and whose values have
    those fields' types.  Absent fields are not checked; ``what`` names the
    config in messages."""
    if not isinstance(d, dict):
        raise ValueError(f"a {what} must be an object, got {type(d).__name__}")
    extra = set(d) - set(cls.__dataclass_fields__)
    if extra:
        raise ValueError(f"unknown {what} keys: {sorted(extra)}")
    for f in fields(cls):
        if f.name in d:
            types, name = _FIELD_TYPES[f.type]
            value = d[f.name]
            if not isinstance(value, types) or (isinstance(value, bool) and f.type != "bool"):
                raise ValueError(f"{what} key {f.name!r} must be {name}, got {value!r}")


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
        nnops.check_rate(self.dropout)
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
        check_config_dict(cls, d, "model-config")
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

    On a sharded worker ``pos_table`` holds only the position-table rows
    at that worker's balanced rows, in their order
    (:func:`seqpar.grid.shard_params`); everything else is a full replica.
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
        plural "s" plus their index: ``layer0.attn_q.weight``.  A field that
        is None (a gradient the worker did not compute) is left out."""
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
        elif value is not None:
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


# A block's rows: ascending, disjoint (start, stop) chunks of global positions.
Rows = tuple[tuple[int, int], ...]


def row_count(rows: Rows) -> int:
    return sum(stop - start for start, stop in rows)


def row_positions(rows: Rows) -> np.ndarray:
    """The global position of each row, in block order."""
    return np.concatenate([np.arange(start, stop, dtype=np.int64) for start, stop in rows])


def row_coords(batch: int, rows: Rows) -> tuple[np.ndarray, np.ndarray]:
    """(sample, global position) for each row of a flattened (B*rows, E) block."""
    at = row_positions(rows)
    samples = np.repeat(np.arange(batch, dtype=np.int64), len(at))
    return samples, np.tile(at, batch)


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
    """What one layer's attention keeps for its backward: the unnormalized
    softmax exponentials and, with dropout, the boolean keep mask (None
    without), each in one (blocks, rows, keys) stack of (sample, head)
    blocks in sample-major order; the (blocks, rows, 1) reciprocals of the
    exponentials' row sums; and the tile plan (:func:`score_tiles`) the
    forward walked.  Each band's exponentials and keep mask, over every
    block, lie packed at its tile's ``start`` in the stacks (see
    :func:`_tile`); the rest of each stack is unused.  Neither the weights
    nor the dropped weights are kept: a weight is an exponential times its
    row's reciprocal, and both scores kernels move that factor onto the
    (rows, dk) operands instead of the tile.  :func:`scores_bwd` gives both
    stacks back and sets them and the reciprocals to None, so a spent cache
    cannot be read again.  ``nbytes`` counts all three arrays."""

    exps: np.ndarray | None
    keep: np.ndarray | None
    inv_sums: np.ndarray | None
    tiles: list[tuple[int, int, int, int]]

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.exps, self.keep, self.inv_sums) if a is not None)


# Query rows per band of a causal score block.  Each band is scored only
# against the keys its last row can see; 32 and 128 rows measured slower.
SCORE_BAND_ROWS = 64


def score_bands(rows: Rows, keys: int, causal: bool) -> list[tuple[int, int, int]]:
    """(first row, end row, visible keys) of each band of a score block whose
    query rows sit at the global positions ``rows`` and whose ``keys`` keys
    start at position 0.  A causal block cuts each chunk of ``rows`` on its
    own into bands of :data:`SCORE_BAND_ROWS` rows (a chunk's last band may
    be shorter), numbered through the block's rows, and a band's rows see at
    most ``min(keys, position of its last row + 1)`` keys.  A non-causal
    block is one band of every key."""
    if not causal:
        return [(0, row_count(rows), keys)]
    bands, at = [], 0
    for start, stop in rows:
        for r0 in range(start, stop, SCORE_BAND_ROWS):
            r1 = min(r0 + SCORE_BAND_ROWS, stop)
            bands.append((at, at + r1 - r0, min(keys, r1)))
            at += r1 - r0
    return bands


def score_tiles(blocks: int, bands) -> list[tuple[int, int, int, int]]:
    """The tiles ``blocks`` (sample, head) blocks are scored in, in the
    order the forward runs them: one per band of ``bands``
    (:func:`score_bands`), covering every block, as ``(first row, end row,
    visible keys, start)``.  A tile's weights are a (blocks, band rows,
    visible keys) array packed at flat offset ``start`` of the layer's
    score stack, right after the tile before it."""
    tiles, start = [], 0
    for r0, r1, visible in bands:
        tiles.append((r0, r1, visible, start))
        start += blocks * (r1 - r0) * visible
    return tiles


def _tile(stack: np.ndarray, tile) -> np.ndarray:
    """The (blocks, band rows, visible keys) view of ``tile`` in ``stack``."""
    r0, r1, visible, start = tile
    shape = (len(stack), r1 - r0, visible)
    return stack.reshape(-1)[start : start + math.prod(shape)].reshape(shape)


def _tile_words(blocks: int, tiles) -> int:
    """The most elements one tile holds: the work buffer that serves them all."""
    return blocks * max((r1 - r0) * visible for r0, r1, visible, _ in tiles)


def _split_heads(x: np.ndarray, heads: int, factor: np.ndarray | None = None) -> np.ndarray:
    """``x`` head-major: (batch, rows, heads * dk) becomes (batch * heads,
    rows, dk), one (sample, head) block per item, sample-major.  A copy for
    a batch above one, but a strided view of ``x`` itself for a batch of
    one, so the result is never written into.  With ``factor``, a (batch *
    heads, rows, 1) array, the result is the fresh product of the blocks
    and their rows' factors, made in the same pass as the copy."""
    b, rows, e = x.shape
    xh = x.reshape(b, rows, heads, e // heads).transpose(0, 2, 1, 3)
    if factor is None:
        return xh.reshape(b * heads, rows, -1)
    out = np.empty((b * heads, rows, e // heads), x.dtype)
    np.multiply(xh, factor.reshape(b, heads, rows, 1), out=out.reshape(xh.shape))
    return out


def _merge_heads(xh: np.ndarray, bsz: int, factor=None) -> np.ndarray:
    """The inverse of :func:`_split_heads`, as a fresh (batch, rows, heads *
    dk) array; with ``factor``, a (blocks, rows, 1) array of the rows'
    factors or one python float, times it in the same pass."""
    blocks, rows, dk = xh.shape
    xh = xh.reshape(bsz, blocks // bsz, rows, dk)
    if factor is None:
        return xh.transpose(0, 2, 1, 3).reshape(bsz, rows, -1)
    if np.ndim(factor):
        factor = factor.reshape(bsz, -1, rows, 1)
    out = np.empty((bsz, rows, blocks * dk // bsz), xh.dtype)
    np.multiply(xh, factor, out=out.reshape(bsz, rows, -1, dk).transpose(0, 2, 1, 3))
    return out


def _row_factor(cache: ScoreCache, policy: DropoutPolicy) -> np.ndarray:
    """What a context row is scaled by, from its (blocks, rows, 1)
    reciprocal: ``1/s``, times the keep scale with dropout."""
    if cache.keep is None:
        return cache.inv_sums
    return cache.inv_sums * nnops.keep_scale(policy, cache.inv_sums.dtype)


def scores_fwd(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    rows: Rows,
    cfg: ModelConfig,
    policy: DropoutPolicy,
    layer: int,
) -> tuple[np.ndarray, ScoreCache]:
    """Masked dot-product attention over per-head slices, of queries ``q``
    that already carry the score scale ``1/sqrt(dk)`` (:func:`attention_fwd`
    puts it on them once, as it projects them).

    ``q`` holds the local block's rows (at the global positions ``rows``),
    ``k``/``v`` must hold the whole sequence; a causal row attends to keys at or
    before its own global position.  Each (sample, head) block is scored a
    band of rows at a time (:func:`score_bands`), against only the keys the
    band's last row can see: the keys past them carry weights of exactly
    zero, so they are neither multiplied, exponentiated, hashed nor kept.

    ``q``, ``k`` and ``v`` are first laid out head-major (one (sample, head)
    block per item of a stack, :func:`_split_heads`).  The forward builds
    the tile plan (:func:`score_tiles`, one tile per band) once and walks
    it.  Per tile, every block's band is multiplied as one stack straight
    into the tile's packed view of the exponential stack, which is taken
    through ``tensor.take`` at the full (blocks, m, keys) size; the softmax
    exponentials (under the band's (rows, keys) causal mask, shared by every
    block) and the keep-mask hash then run once over the whole tile, and
    with dropout one tile-sized work buffer holds ``exps * keep`` for the
    stacked product with the values.  The tile is never normalized: the
    rows' reciprocal sums ``1/s``, times the keep scale with dropout, go on
    the head-major context once, in the pass that lays it back out (as
    FlashAttention-2, arXiv 2307.08691, scales its output once at the end).
    The plan and the reciprocals go into the cache for :func:`scores_bwd`.
    """
    bsz, m, _ = q.shape
    t = k.shape[1]
    dk, heads = cfg.head_dim, cfg.n_heads
    counters = tensor.active_counters()
    q_pos = row_positions(rows)
    if t != cfg.seq_len:
        raise ShapeError(f"a query row is at position {q_pos[-1]}, but there are {t} keys, "
                         f"not the sequence's {cfg.seq_len}")
    blocks = bsz * heads
    tiles = score_tiles(blocks, score_bands(rows, t, cfg.causal))
    exps = tensor.take((blocks, m, t), q.dtype)
    inv_sums = np.empty((blocks, m, 1), q.dtype)
    keep = None
    if policy.active:
        keep = tensor.take((blocks, m, t), np.bool_)
        work = tensor.take((_tile_words(blocks, tiles),), q.dtype)
        row_keys = np.stack(
            [nnops.score_row_keys(policy, layer, *divmod(i, heads), q_pos) for i in range(blocks)]
        )
    qh, kh, vh = (_split_heads(x, heads) for x in (q, k, v))
    ctxh = np.empty_like(qh)
    for tile in tiles:
        r0, r1, visible, _ = tile
        pv = e = _tile(exps, tile)
        tensor.matmul(qh[:, r0:r1], kh[:, :visible].transpose(0, 2, 1), out=e)
        mask = np.arange(visible) <= q_pos[r0:r1, None] if cfg.causal else None
        np.reciprocal(tensor.softmax_rows(e, mask, out=e), out=inv_sums[:, r0:r1])
        if keep is not None:
            kept = _tile(keep, tile)
            nnops.keep_mask(policy, row_keys[:, r0:r1].reshape(-1), visible,
                            out=kept.reshape(-1, visible))
            pv = np.multiply(e, kept, out=work[: e.size].reshape(e.shape))
        tensor.matmul(pv, vh[:, :visible], out=ctxh[:, r0:r1])
        if counters is not None:
            counters.add_score_flops(2 * blocks * (r1 - r0), dk, visible)  # QK^T and PV
    if keep is not None:
        tensor.give(work)
    cache = ScoreCache(exps=exps, keep=keep, inv_sums=inv_sums, tiles=tiles)
    if counters is not None:
        counters.record_score_footprint(blocks * m * t)
        counters.add_score_cache(cache.nbytes)
    return _merge_heads(ctxh, bsz, _row_factor(cache, policy)), cache


def scores_bwd(
    cache: ScoreCache,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    ctx: np.ndarray,
    grad_ctx: np.ndarray,
    cfg: ModelConfig,
    policy: DropoutPolicy,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the queries before their score scale (``q`` is the
    scaled queries, as for :func:`scores_fwd`; the scale goes on the query
    gradient in the pass that lays it back out), the keys and the values,
    from the forward's cache and output ``ctx``.  Walks the forward's tile
    plan (``cache.tiles``) backwards, over head-major ``q``, ``k``, ``v``
    and context gradient (:func:`_split_heads`), with four stacked products
    per tile.

    The softmax backward needs each row's sum of ``grad_aw * aw``, and that
    is ``D = grad_ctx . ctx`` over the row's head, read once per (block,
    row) from the forward's output (as FlashAttention-2, arXiv 2307.08691,
    does) instead of from every score tile.  With dropout it holds too:
    ``ctx`` is the dropped weights times the values, and ``grad_aw`` takes
    the same scaled mask.  The tiles hold exponentials ``e``, not weights
    ``e/s``, so each row's factors go on (rows, dk) operands instead: the
    context gradient becomes ``g' = grad_ctx * c``, ``c`` the forward's
    context factor (``1/s``, times the keep scale with dropout), in the pass
    that lays it out head-major, and ``D`` becomes ``D' = D/s``.  Per tile,
    with dropout, ``e * keep`` is built in a tile-sized work buffer for the
    value gradients (without, ``e`` itself serves); the weight gradients
    ``G = g' V^T`` then take that buffer, are multiplied by the keep mask,
    and become ``e * (G - D')`` in place, which is ``aw * (grad_aw - D)`` up
    to rounding.  The key and value gradients start at zero and every tile
    adds into each block's rows up to its visible keys; rows no query sees
    stay zero.  The cache's stacks go back to ``tensor.give`` and are
    dropped from it with the reciprocals, so a spent cache cannot be read
    again."""
    bsz, m, _ = q.shape
    dk, heads = cfg.head_dim, cfg.n_heads
    blocks = bsz * heads
    held = 0 if cache.exps is None else cache.exps.shape[0]
    if held != blocks:
        raise ValueError(f"score cache holds {held} blocks, expected {blocks}; "
                         "a cache serves one backward")
    exps, keep, inv_sums, tiles = cache.exps, cache.keep, cache.inv_sums, cache.tiles
    row_dots = tensor.row_sums(np.multiply(grad_ctx, ctx).reshape(-1, dk)).reshape(bsz, m, heads)
    d = np.empty_like(inv_sums)
    np.multiply(row_dots.transpose(0, 2, 1), inv_sums.reshape(bsz, heads, m),
                out=d.reshape(bsz, heads, m))
    gh = _split_heads(grad_ctx, heads, _row_factor(cache, policy))
    qh, kh, vh = (_split_heads(x, heads) for x in (q, k, v))
    grad_q = np.empty_like(qh)
    grad_k = np.zeros_like(kh)
    grad_v = np.zeros_like(vh)
    work = tensor.take((_tile_words(blocks, tiles),), exps.dtype)
    for tile in reversed(tiles):
        r0, r1, visible, _ = tile
        pv = e = _tile(exps, tile)
        grad_aw = work[: e.size].reshape(e.shape)
        if keep is not None:
            kept = _tile(keep, tile)
            pv = np.multiply(e, kept, out=grad_aw)
        grad_v[:, :visible] += tensor.matmul(pv.transpose(0, 2, 1), gh[:, r0:r1])
        tensor.matmul(gh[:, r0:r1], vh[:, :visible].transpose(0, 2, 1), out=grad_aw)
        if keep is not None:
            grad_aw *= kept  # a dropped entry becomes a zero of its own sign
        # softmax backward, in place: masked-out entries have e == 0, so
        # they stay 0
        grad_aw -= d[:, r0:r1]
        grad_aw *= e
        tensor.matmul(grad_aw, kh[:, :visible], out=grad_q[:, r0:r1])
        grad_k[:, :visible] += tensor.matmul(grad_aw.transpose(0, 2, 1), qh[:, r0:r1])
    tensor.give(work, *[a for a in (exps, keep) if a is not None])
    cache.exps = cache.keep = cache.inv_sums = None
    scale = 1.0 / math.sqrt(dk)  # a python float keeps single precision single
    return _merge_heads(grad_q, bsz, scale), _merge_heads(grad_k, bsz), _merge_heads(grad_v, bsz)


# --- the two sublayers: fwd(y, rows) -> (out, cache) with out shaped like
# y, the block at ``rows``; bwd(cache, grad_out) -> (grad_y, tuple of
# LinearParams weight grads) with grad_y shaped like y ---


@dataclass
class AttentionCache:
    xh: np.ndarray  # the normalized input, which the queries are projected from
    kv_ctx: object
    kv_bwd: object  # the backward the key/value hook returned with kv_ctx
    q: np.ndarray  # the queries, scaled by 1/sqrt(dk)
    k: np.ndarray
    v: np.ndarray
    scores: ScoreCache
    ctx: np.ndarray


def local_kv_fwd(xh: np.ndarray, lp: LayerParams):
    """Single-worker key/value production: project the rows themselves.
    Its backward is :func:`local_kv_bwd`."""
    return linear3(xh, lp.attn_k), linear3(xh, lp.attn_v), xh, local_kv_bwd


def local_kv_bwd(kv_ctx, lp: LayerParams, grad_k: np.ndarray, grad_v: np.ndarray):
    grad_kx, k_wg, k_bg = linear3_bwd(kv_ctx, lp.attn_k, grad_k)
    grad_vx, v_wg, v_bg = linear3_bwd(kv_ctx, lp.attn_v, grad_v)
    return grad_kx + grad_vx, k_wg, k_bg, v_wg, v_bg


def attention_fwd(xh, rows: Rows, lp: LayerParams, cfg, policy, layer, kv_fwd=None):
    """Keys and values of the whole sequence from ``xh``, the block at
    ``rows`` (through ``kv_fwd``, by default :func:`local_kv_fwd`, looked up
    at call time); queries, scores and the output projection over the
    block.  The score scale ``1/sqrt(dk)`` goes on the queries once, here,
    and both score kernels use the scaled queries."""
    k, v, kv_ctx, kv_bwd = (local_kv_fwd if kv_fwd is None else kv_fwd)(xh, lp)
    q = linear3(xh, lp.attn_q)
    q *= 1.0 / math.sqrt(cfg.head_dim)  # a python float keeps single precision single
    ctx, score_cache = scores_fwd(q, k, v, rows, cfg, policy, layer)
    cache = AttentionCache(xh, kv_ctx, kv_bwd, q, k, v, score_cache, ctx)
    return linear3(ctx, lp.attn_out), cache


def attention_bwd(cache: AttentionCache, grad_out, lp: LayerParams, cfg, policy):
    """Weight grads in the order q, k, v, out."""
    grad_ctx, out_wg, out_bg = linear3_bwd(cache.ctx, lp.attn_out, grad_out)
    grad_q, grad_k, grad_v = scores_bwd(
        cache.scores, cache.q, cache.k, cache.v, cache.ctx, grad_ctx, cfg, policy
    )
    grad_xq, q_wg, q_bg = linear3_bwd(cache.xh, lp.attn_q, grad_q)
    grad_xh, k_wg, k_bg, v_wg, v_bg = cache.kv_bwd(cache.kv_ctx, lp, grad_k, grad_v)
    grads = (LinearParams(q_wg, q_bg), LinearParams(k_wg, k_bg), LinearParams(v_wg, v_bg),
             LinearParams(out_wg, out_bg))
    return grad_xh + grad_xq, grads


@dataclass
class FfnCache:
    """The feed-forward sublayer's input, its GELU's local derivative (in
    place of the pre-activation, and the same size), the dropped hidden
    activation and the hidden keep mask (None without dropout)."""

    yh_flat: np.ndarray
    gelu_slope: np.ndarray
    h_drop: np.ndarray
    hidden_mask: np.ndarray | None


def ffn_fwd(yh, rows: Rows, lp: LayerParams, policy, layer):
    b, m, e = yh.shape
    samples, at = row_coords(b, rows)
    yh_flat = yh.reshape(b * m, e)
    h_act, gelu_slope = nnops.gelu_fwd(nnops.linear_fwd(yh_flat, lp.ff_in))
    h_drop, hidden_mask = nnops.dropout_fwd(h_act, policy, layer, "ffn_hidden", samples, at)
    out = nnops.linear_fwd(h_drop, lp.ff_out).reshape(b, m, e)
    return out, FfnCache(yh_flat, gelu_slope, h_drop, hidden_mask)


def ffn_bwd(cache: FfnCache, grad_out, lp: LayerParams, policy):
    """Weight grads in the order ff_in, ff_out."""
    b, m, e = grad_out.shape
    g = grad_out.reshape(b * m, e)
    grad_h_drop, ff_out_wg, ff_out_bg = nnops.linear_bwd(cache.h_drop, lp.ff_out, g)
    grad_h_act = nnops.dropout_bwd(grad_h_drop, policy, cache.hidden_mask)
    grad_h_pre = nnops.gelu_bwd(cache.gelu_slope, grad_h_act)
    grad_yh, ff_in_wg, ff_in_bg = nnops.linear_bwd(cache.yh_flat, lp.ff_in, grad_h_pre)
    grads = (LinearParams(ff_in_wg, ff_in_bg), LinearParams(ff_out_wg, ff_out_bg))
    return grad_yh.reshape(b, m, e), grads


def local_place_fwd(sublayer, y, rows):
    """Default placement of any part of the model: run it on the worker itself."""
    return *sublayer(y, rows), local_place_bwd


def local_place_bwd(sublayer_bwd, cache, grad_out):
    """Backward of :func:`local_place_fwd`.  A placement's backward returns
    (input gradient, weight gradients), None for those it did not compute."""
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
    place_bwd: object  # the backward the placement returned


def layer_fwd(
    lp: LayerParams,
    cfg: ModelConfig,
    policy: DropoutPolicy,
    layer: int,
    x: np.ndarray,
    rows: Rows,
    kv_fwd=None,
    place_fwd=local_place_fwd,
) -> tuple[np.ndarray, LayerCache]:
    """norm -> attention -> dropout -> residual, norm -> ffn -> dropout -> residual,
    for ``x``, the block at ``rows``.

    ``kv_fwd(xh, lp)`` returns whole-sequence keys and values from the
    block's normalized input ``xh``, a context and the backward that takes
    it.  Locally (None, the default) that is :func:`local_kv_fwd`, two
    projections of ``xh`` itself; the sharded engine all-gathers either
    ``xh`` before projecting it (fused) or the projections (unfused).

    ``place_fwd(sublayer, y, rows)`` runs each sublayer and returns its
    ``(out, cache)`` for this worker's block and its backward; by default
    on the worker itself.  Norms, dropout and residuals run on the worker.

    The output is checked for NaN and Inf (:class:`~seqpar.errors.NumericsError`
    names the layer); the kernels inside the layer do not check theirs.
    """
    samples, at = row_coords(x.shape[0], rows)
    xh, ln1_cache = norm3(x, lp.ln1_gain, lp.ln1_bias)
    attention = partial(attention_fwd, lp=lp, cfg=cfg, policy=policy, layer=layer, kv_fwd=kv_fwd)
    att, att_cache, place_bwd = place_fwd(attention, xh, rows)
    att_drop, att_mask = dropout3(att, policy, layer, "attn_out", samples, at)
    x_mid = x + att_drop
    yh, ln2_cache = norm3(x_mid, lp.ln2_gain, lp.ln2_bias)
    ff, ffn_cache, _ = place_fwd(partial(ffn_fwd, lp=lp, policy=policy, layer=layer), yh, rows)
    ff_drop, ff_mask = dropout3(ff, policy, layer, "ffn_out", samples, at)
    cache = LayerCache(ln1_cache, att_cache, att_mask, ln2_cache, ffn_cache, ff_mask, place_bwd)
    return tensor.check_finite(x_mid + ff_drop, f"layer {layer} output"), cache


def layer_bwd(
    lp: LayerParams,
    cfg: ModelConfig,
    policy: DropoutPolicy,
    layer: int,
    cache: LayerCache,
    grad_out: np.ndarray,
) -> tuple[np.ndarray, LayerParams]:
    """Reverse of :func:`layer_fwd`, through the backwards its hooks
    returned; returns (grad_x_in, per-layer grads, a sublayer's None where
    its placement did not compute them).  The input gradient is checked for
    NaN and Inf, as :func:`layer_fwd` checks its output."""
    g_ff = dropout3_bwd(grad_out, policy, cache.ff_mask)
    ffn = partial(ffn_bwd, lp=lp, policy=policy)
    grad_yh, ffn_g = cache.place_bwd(ffn, cache.ffn, g_ff)
    g_ln2_x, ln2_gain_g, ln2_bias_g = norm3_bwd(cache.ln2, lp.ln2_gain, grad_yh)
    grad_mid = grad_out + g_ln2_x
    g_att = dropout3_bwd(grad_mid, policy, cache.att_mask)
    attention = partial(attention_bwd, lp=lp, cfg=cfg, policy=policy)
    grad_xh, att_g = cache.place_bwd(attention, cache.attn, g_att)
    g_ln1_x, ln1_gain_g, ln1_bias_g = norm3_bwd(cache.ln1, lp.ln1_gain, grad_xh)
    (q_g, k_g, v_g, out_g), (ff_in_g, ff_out_g) = att_g or (None,) * 4, ffn_g or (None,) * 2
    grads = LayerParams(
        ln1_gain=ln1_gain_g, ln1_bias=ln1_bias_g, attn_q=q_g, attn_k=k_g, attn_v=v_g,
        attn_out=out_g, ln2_gain=ln2_gain_g, ln2_bias=ln2_bias_g, ff_in=ff_in_g, ff_out=ff_out_g,
    )
    return tensor.check_finite(g_ln1_x + grad_mid, f"layer {layer} input gradient"), grads


# --- embedding and output head ---


@dataclass
class EmbedCache:
    tokens: np.ndarray
    mask: np.ndarray | None


def embed_fwd(params: Parameters, cfg: ModelConfig, tokens: np.ndarray, rows: Rows, policy):
    """Token + position embeddings of ``tokens``, the block of the sequence at ``rows``.

    ``params.pos_table`` must hold exactly this block's rows (the full table
    sequentially, the local shard on a sharded worker).
    """
    bsz, m = tokens.shape
    if row_count(rows) != m:
        raise ShapeError(f"token block has {m} columns, its rows {row_count(rows)}")
    if params.pos_table.shape[0] != m:
        raise ShapeError(f"position table has {params.pos_table.shape[0]} rows, block has {m}")
    tok = nnops.embed_tokens(params.token_table, tokens)
    pe = nnops.embed_positions(params.pos_table, 0, m)
    x = tok + pe
    samples, at = row_coords(bsz, rows)
    x, mask = dropout3(x, policy, 0, "embed", samples, at)
    return x, EmbedCache(tokens=tokens, mask=mask)


def embed_bwd(cache: EmbedCache, grad_x: np.ndarray, vocab: int, policy):
    """(None, (token table, position table) gradients): token ids take none."""
    g = dropout3_bwd(grad_x, policy, cache.mask)
    grad_pe = np.sum(g, axis=0)
    grad_tok = nnops.embed_tokens_bwd((vocab, g.shape[2]), cache.tokens, g)
    return None, (grad_tok, grad_pe)


@dataclass
class HeadCache:
    lnf: tuple
    xf: np.ndarray
    logits: np.ndarray | None  # kept only without targets, as the forward's output
    grad_logits: np.ndarray | None  # None without targets and once head_bwd has run
    shape3: tuple


def head_fwd(x: np.ndarray, params: Parameters, targets: np.ndarray | None):
    """Final layernorm, vocabulary projection and (optionally) the loss."""
    bsz, m, e = x.shape
    xf, lnf_cache = nnops.layernorm_fwd(x.reshape(bsz * m, e), params.final_gain, params.final_bias)
    logits = nnops.linear_fwd(xf, params.head)
    if targets is None:
        return None, HeadCache(lnf_cache, xf, logits, None, (bsz, m, e))
    if targets.shape != (bsz, m):
        raise ShapeError(f"targets have shape {targets.shape}, tokens {(bsz, m)}")
    loss, grad_logits = nnops.cross_entropy(logits, targets.reshape(bsz * m))
    return loss, HeadCache(lnf_cache, xf, None, grad_logits, (bsz, m, e))


def head_bwd(cache: HeadCache, params: Parameters):
    """Backward of :func:`head_fwd`: (input gradient, (final gain, final
    bias, head) gradients).  It spends the cache's logit gradient (None
    afterwards), so it is not held through the layers' backward, and a spent
    cache cannot be read again."""
    if cache.grad_logits is None:
        raise ValueError("head_bwd requires a forward pass that computed the loss")
    grad_xf, head_wg, head_bg = nnops.linear_bwd(cache.xf, params.head, cache.grad_logits)
    cache.grad_logits = None
    grad_x, final_gain_g, final_bias_g = nnops.layernorm_bwd(cache.lnf, params.final_gain, grad_xf)
    return grad_x.reshape(cache.shape3), (final_gain_g, final_bias_g,
                                          LinearParams(head_wg, head_bg))


# --- the whole stack, over a block's rows ---


@dataclass
class StackCache:
    """What :func:`forward` over any block's rows holds for :func:`backward`:
    each part's cache (None where it ran elsewhere) and placement backward."""

    embed: EmbedCache | None
    embed_place_bwd: object
    layers: list[LayerCache]
    head: HeadCache | None
    head_place_bwd: object
    policy: DropoutPolicy

    @property
    def logits(self) -> np.ndarray | None:
        return self.head.logits


def forward(
    params: Parameters,
    cfg: ModelConfig,
    tokens: np.ndarray,
    targets: np.ndarray | None = None,
    policy: DropoutPolicy | None = None,
    *,
    rows: Rows | None = None,
    layer_kv_fwd=None,
    layer_place_fwd=None,
    embed_place_fwd=local_place_fwd,
    head_place_fwd=local_place_fwd,
) -> tuple[float | None, StackCache]:
    """Forward over the block at ``rows`` (by default every column of
    ``tokens``).  ``layer_kv_fwd(layer)`` and ``layer_place_fwd(layer)``
    return a layer's ``kv_fwd`` and ``place_fwd`` (:func:`layer_fwd`);
    ``embed_place_fwd`` and ``head_place_fwd`` place the embedding and the
    loss head the same way.  All are local by default.  The loss is the mean
    cross-entropy over the head's tokens, None where the head did not run."""
    policy = policy if policy is not None else DropoutPolicy.off()
    if tokens.ndim != 2:
        raise ShapeError(f"tokens must be (batch, seq_len), got shape {tokens.shape}")
    rows = ((0, tokens.shape[1]),) if rows is None else rows
    embed = partial(embed_fwd, params, cfg, policy=policy)
    x, e_cache, e_bwd = embed_place_fwd(embed, tokens, rows)
    layer_caches = []
    for li, lp in enumerate(params.layers):
        kv_fwd = None if layer_kv_fwd is None else layer_kv_fwd(li)
        place_fwd = local_place_fwd if layer_place_fwd is None else layer_place_fwd(li)
        x, c = layer_fwd(lp, cfg, policy, li, x, rows, kv_fwd=kv_fwd, place_fwd=place_fwd)
        layer_caches.append(c)
    loss, h_cache, h_bwd = head_place_fwd(lambda x, _: head_fwd(x, params, targets), x, rows)
    return loss, StackCache(e_cache, e_bwd, layer_caches, h_cache, h_bwd, policy)


def backward(params: Parameters, cfg: ModelConfig, cache: StackCache) -> Parameters:
    """Gradients of the mean-over-tokens loss w.r.t. every parameter, through
    the backwards the forward's placements returned.  A gradient is None
    where its placement did not compute it on this worker."""
    policy = cache.policy
    grad_x, head_grads = cache.head_place_bwd(lambda c, _: head_bwd(c, params), cache.head, None)
    layer_grads: list[LayerParams | None] = [None] * len(params.layers)
    for li in range(len(params.layers) - 1, -1, -1):
        grad_x, layer_grads[li] = layer_bwd(params.layers[li], cfg, policy, li,
                                            cache.layers[li], grad_x)
    embed = partial(embed_bwd, vocab=cfg.vocab, policy=policy)
    _, embed_g = cache.embed_place_bwd(embed, cache.embed, grad_x)
    grad_tok, grad_pe = embed_g or (None, None)
    final_gain_g, final_bias_g, head_g = head_grads or (None,) * 3
    return Parameters(token_table=grad_tok, pos_table=grad_pe, layers=layer_grads,
                      final_gain=final_gain_g, final_bias=final_bias_g, head=head_g)


# Optimizers walk the flat parameter vector in chunks of this many elements,
# so each chunk's operands and scratch stay in cache between passes.
UPDATE_CHUNK = 1 << 15


def update_chunks(n: int):
    """Slices of ``[0, n)`` in order, :data:`UPDATE_CHUNK` elements each
    (the last one shorter)."""
    return (slice(lo, lo + UPDATE_CHUNK) for lo in range(0, n, UPDATE_CHUNK))


def sgd_step(params: np.ndarray, grads: np.ndarray, lr: float) -> None:
    """Plain SGD on flat vectors: ``params -= lr * grads`` in place, chunk
    by chunk (:func:`update_chunks`), the product rounded before the
    subtraction; ``grads`` is only read."""
    if grads.shape != params.shape:
        raise ShapeError(f"gradient vector {grads.shape} does not match parameters {params.shape}")
    scratch = tensor.take((min(params.size, UPDATE_CHUNK),), params.dtype)
    for chunk in update_chunks(params.size):
        w = params[chunk]
        d = np.multiply(grads[chunk], lr, out=scratch[:w.size])
        np.subtract(w, d, out=w)
    tensor.give(scratch)


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


def flat_view(params: Parameters) -> tuple[np.ndarray, Parameters]:
    """One flat copy of ``params`` in named order, and the same structure
    made of views into it: writing either writes both."""
    arrays = params.arrays()
    vec = flatten_arrays(arrays)
    return vec, params.replace_arrays(unflatten_like(vec, arrays))


def flat_slices(params: Parameters) -> dict[str, slice]:
    """Each array's slice of the flat vector of ``params``, by name, in
    named order."""
    slices, pos = {}, 0
    for name, a in params.named_arrays():
        slices[name] = slice(pos, pos + a.size)
        pos += a.size
    return slices


def square_sum(a: np.ndarray) -> float:
    """The sum of squares of ``a``'s entries in double precision, as one
    dot product."""
    v = np.asarray(a, dtype=np.float64).ravel()
    return float(np.dot(v, v))


def grad_norm(grads: np.ndarray, slices, *, squared: bool = False) -> float:
    """Euclidean norm of the flat gradient ``grads``: the squares of each
    array's slice of it (``slices``, :func:`flat_slices` in named order)
    folded in that order; ``squared`` returns the fold itself."""
    total = 0.0
    for part in slices:
        total += square_sum(grads[part])
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
            raise ValueError(f"checkpoint {path} has unsupported version {version}")
        (header_len,) = struct.unpack("<I", read(4))
        raw = read(header_len)
        try:
            header = json.loads(raw.decode("utf-8"))
            cfg = ModelConfig.from_dict(header["config"])
            names, dt, seed = header["arrays"], np.dtype(header["dtype"]), header["seed"]
        except KeyError as exc:
            raise ValueError(f"checkpoint {path} has a corrupt header: no key {exc}") from None
        except (ValueError, TypeError) as exc:  # decode and JSON errors are ValueErrors
            raise ValueError(f"checkpoint {path} has a corrupt header: {exc}") from None
        template = param_shapes(cfg)
        expected = template.named_arrays()
        for i, (got, want) in enumerate(zip_longest(names, [n for n, _ in expected])):
            if got != want:
                raise ValueError(f"checkpoint {path} array {i} is {got!r}, its config has {want!r}")
        arrays = []
        for name, want in expected:
            (rank,) = struct.unpack("<B", read(1))
            shape = struct.unpack(f"<{rank}Q", read(8 * rank))
            if shape != want.shape:
                raise ShapeError(f"checkpoint {path} array {name} is {shape}, "
                                 f"its config has {want.shape}")
            data = np.frombuffer(read(want.size * dt.itemsize), dtype=dt).reshape(shape)
            arrays.append(data.astype(cfg.dtype, copy=True))
        if f.read(1):
            raise ValueError(f"checkpoint {path} has trailing bytes")
    return template.replace_arrays(arrays), cfg, seed
