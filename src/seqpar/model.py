"""Decoder-only transformer with hand-rolled autodiff, plus the sequential
(single-worker) reference engine.

The per-layer forward/backward are written once, here, and parameterized at
the three places where distributed execution differs from sequential:

* what the layer's input is (``gather``/``scatter``).  By default the
  worker's own block; the fused sharded engine all-gathers the whole
  sequence's input, so the layer can compute any rows of it, and
  reduce-scatters the input gradient back.
* how keys and values for the whole sequence are produced from the
  normalized input (``kv_fwd``), and how gradients flow back through that
  production (``kv_bwd``).  Locally it is two linear maps; the unfused
  sharded engine additionally all-gathers keys and values forward and
  reduce-scatters their gradients backward.
* where each of the layer's two sublayers (attention, feed-forward) runs
  (``place_fwd``/``place_bwd``).  By default on the worker's own block; the
  baseline engine gathers the sublayer input onto one worker, runs it over
  the whole sequence and scatters the output back.

Because every engine executes the same kernel calls in the same order, a
distributed run with a single worker is bit-for-bit identical to the
sequential engine, and multi-worker runs differ only by float rounding.

Shapes follow one convention throughout: activations are (batch, rows,
features); token ids and targets are (batch, rows).  ``rows`` (:data:`Rows`)
names the global sequence positions of a block's rows as ascending chunks,
which drive both the causal mask and the position-keyed dropout; an int is
shorthand for one chunk that starts at that position.  A block's rows need
not be contiguous: the fused sharded engine computes each layer on two
chunks per rank (:attr:`seqpar.grid.ShardSpec.balanced_rows`).
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

# Config-field annotation -> (the JSON values it takes, their name).  Python
# counts bools as ints, so check_config_dict rejects them separately.
_FIELD_TYPES = {
    "bool": (bool, "true or false"),
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "str": (str, "a string"),
    "str | None": ((str, type(None)), "a string or null"),
    "ModelConfig": (dict, "an object"),
}


def check_config_dict(cls, d, what: str) -> None:
    """Raise ValueError unless ``d`` is a dict whose keys are fields of the
    config dataclass ``cls`` and whose values have those fields' types.
    Absent fields are not checked; ``what`` names the config in messages."""
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


# A block's rows: ascending, disjoint (start, stop) chunks of global positions.
Rows = tuple[tuple[int, int], ...]


def as_rows(rows: Rows | int, count: int) -> Rows:
    """``rows`` as chunks: an int is one chunk of ``count`` rows from there."""
    if isinstance(rows, (int, np.integer)):
        return ((int(rows), int(rows) + count),)
    return tuple(rows)


def row_count(rows: Rows) -> int:
    return sum(stop - start for start, stop in rows)


def row_positions(rows: Rows) -> np.ndarray:
    """The global position of each row, in block order."""
    return np.concatenate([np.arange(start, stop, dtype=np.int64) for start, stop in rows])


def take_rows(x: np.ndarray, rows: Rows) -> np.ndarray:
    """The block of ``rows`` of ``x`` (batch, rows, ...).  ``x`` holds either
    exactly those rows, and comes back as it is, or the whole sequence in
    position order, whose rows at ``rows`` come back as one fresh block."""
    if x.shape[1] == row_count(rows):
        return x
    return np.concatenate([x[:, start:stop] for start, stop in rows], axis=1)


def add_rows(full: np.ndarray, rows: Rows, block: np.ndarray) -> np.ndarray:
    """``full + block`` where ``block`` holds ``rows`` of ``full``'s rows:
    the backward of :func:`take_rows`, plus the gradient ``full`` already
    holds.  Returns a fresh array, or ``full`` itself updated in place when
    it is the whole sequence."""
    if full.shape[1] == block.shape[1]:
        return full + block
    at = 0
    for start, stop in rows:
        full[:, start:stop] += block[:, at : at + stop - start]
        at += stop - start
    return full


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
    """What one layer's attention keeps for its backward: the softmax weights
    and, with dropout, the boolean keep mask (None without), each in one
    (blocks, rows, keys) stack of (sample, head) blocks in sample-major
    order, and the tile plan (:func:`score_tiles`) the forward walked.  Each
    band's weights and keep mask, over every block, lie packed at its tile's
    ``start`` in the stacks (see :func:`_tile`); the rest of each stack is
    unused.  The dropped weights are not kept; backward rebuilds them from
    these two.  :func:`scores_bwd` gives both stacks back and sets them to
    None, so a spent cache cannot be read again."""

    weights: np.ndarray | None
    keep: np.ndarray | None
    tiles: list[tuple[int, int, int, int]]

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.weights, self.keep) if a is not None)


# Query rows per band of a causal score block.  Each band is scored only
# against the keys its last row can see; 32 and 128 rows measured slower.
SCORE_BAND_ROWS = 64


def score_bands(rows: int, keys: int, offset: int, causal: bool) -> list[tuple[int, int, int]]:
    """(first row, end row, visible keys) of each band of a score block whose
    ``rows`` query rows sit at global positions ``offset``.. and whose
    ``keys`` keys start at position 0.  A causal block is cut into bands of
    :data:`SCORE_BAND_ROWS` rows (the last may be shorter), and a band's
    rows see at most ``min(keys, offset + end row)`` keys.  A non-causal
    block is one band of every key."""
    if not causal:
        return [(0, rows, keys)]
    bands = []
    for r0 in range(0, rows, SCORE_BAND_ROWS):
        r1 = min(r0 + SCORE_BAND_ROWS, rows)
        bands.append((r0, r1, min(keys, offset + r1)))
    return bands


def rows_bands(rows: Rows, keys: int, causal: bool) -> list[tuple[int, int, int]]:
    """:func:`score_bands` of a block whose rows are the chunks ``rows``:
    each chunk is cut on its own, and the bands number the block's rows
    through every chunk.  A non-causal block is one band of every key."""
    if not causal:
        return [(0, row_count(rows), keys)]
    bands, at = [], 0
    for start, stop in rows:
        bands += [(at + r0, at + r1, visible)
                  for r0, r1, visible in score_bands(stop - start, keys, start, True)]
        at += stop - start
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


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """A head-major copy of ``x``: (batch, rows, heads * dk) becomes
    (batch * heads, rows, dk), one (sample, head) block per item, sample-major."""
    b, rows, e = x.shape
    return x.reshape(b, rows, heads, e // heads).transpose(0, 2, 1, 3).reshape(b * heads, rows, -1)


def _merge_heads(xh: np.ndarray, bsz: int) -> np.ndarray:
    """The inverse of :func:`_split_heads`, as a fresh (batch, rows, heads * dk) array."""
    blocks, rows, dk = xh.shape
    return xh.reshape(bsz, blocks // bsz, rows, dk).transpose(0, 2, 1, 3).reshape(bsz, rows, -1)


def scores_fwd(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    rows: Rows | int,
    cfg: ModelConfig,
    policy: DropoutPolicy,
    layer: int,
) -> tuple[np.ndarray, ScoreCache]:
    """Masked, scaled dot-product attention over per-head slices.

    ``q`` holds the local block's rows (at the global positions ``rows``),
    ``k``/``v`` hold the whole sequence; a causal row attends to keys at or
    before its own global position.  Each (sample, head) block is scored a
    band of rows at a time (:func:`rows_bands`), against only the keys the
    band's last row can see: the keys past them carry weights of exactly
    zero, so they are neither multiplied, normalized, hashed nor kept.

    ``q``, ``k`` and ``v`` are first copied head-major (one (sample, head)
    block per item of a stack).  The forward builds the tile plan
    (:func:`score_tiles`, one tile per band) once and walks it.  Per tile,
    every block's band is multiplied as one stack straight into the tile's
    packed view of the weight stack, which is taken through ``tensor.take``
    at the full (blocks, m, keys) size; the scaling, the softmax (under the
    band's (rows, keys) causal mask, shared by every block) and the
    keep-mask hash then run once over the whole tile, and with dropout one
    tile-sized work buffer holds the dropped weights for the stacked product
    with the values.  The plan goes into the cache for :func:`scores_bwd`.
    """
    bsz, m, _ = q.shape
    t = k.shape[1]
    dk, heads = cfg.head_dim, cfg.n_heads
    counters = tensor.active_counters()
    scale = 1.0 / math.sqrt(dk)  # a python float keeps single precision single
    rows = as_rows(rows, m)
    q_pos = row_positions(rows)
    blocks = bsz * heads
    tiles = score_tiles(blocks, rows_bands(rows, t, cfg.causal))
    weights = tensor.take((blocks, m, t), q.dtype)
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
        aw_d = aw = _tile(weights, tile)
        tensor.matmul(qh[:, r0:r1], kh[:, :visible].transpose(0, 2, 1), out=aw)
        aw *= scale
        mask = np.arange(visible) <= q_pos[r0:r1, None] if cfg.causal else None
        tensor.softmax_rows(aw, mask, out=aw)
        if keep is not None:
            kept = _tile(keep, tile)
            nnops.keep_mask(policy, row_keys[:, r0:r1].reshape(-1), visible,
                            out=kept.reshape(-1, visible))
            aw_d = nnops.scaled_mask(policy, kept, aw.dtype, out=work[: aw.size].reshape(aw.shape))
            aw_d *= aw
        tensor.matmul(aw_d, vh[:, :visible], out=ctxh[:, r0:r1])
        if counters is not None:
            counters.add_score_flops(2 * blocks * (r1 - r0), dk, visible)  # QK^T and PV
    if keep is not None:
        tensor.give(work)
    cache = ScoreCache(weights=weights, keep=keep, tiles=tiles)
    if counters is not None:
        counters.record_score_footprint(blocks * m * t)
        counters.add_score_cache(cache.nbytes)
    return _merge_heads(ctxh, bsz), cache


def scores_bwd(
    cache: ScoreCache,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    grad_ctx: np.ndarray,
    cfg: ModelConfig,
    policy: DropoutPolicy,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walks the forward's tile plan (``cache.tiles``) backwards, over
    head-major copies of ``q``, ``k``, ``v`` and ``grad_ctx``, with one
    stacked product per tile for each of the four gradients.  Per tile,
    the dropped weights are rebuilt as ``aw * scaled mask`` in a tile-sized
    work buffer for the value gradients only; the weight gradients then take
    that buffer, are scaled by the same mask and run through the softmax
    backward in place.  The key and value gradients start at zero and every
    tile adds into each block's rows up to its visible keys; rows no query
    sees stay zero.  The cache's stacks go back to ``tensor.give`` and are
    dropped from it, so a spent cache cannot be read again."""
    bsz = q.shape[0]
    dk, heads = cfg.head_dim, cfg.n_heads
    blocks = bsz * heads
    held = 0 if cache.weights is None else cache.weights.shape[0]
    if held != blocks:
        raise ValueError(f"score cache holds {held} blocks, expected {blocks}; "
                         "a cache serves one backward")
    scale = 1.0 / math.sqrt(dk)
    weights, keep, tiles = cache.weights, cache.keep, cache.tiles
    dt = weights.dtype
    qh, kh, vh, gh = (_split_heads(x, heads) for x in (q, k, v, grad_ctx))
    grad_q = np.empty_like(qh)
    grad_k = np.zeros_like(kh)
    grad_v = np.zeros_like(vh)
    work = tensor.take((_tile_words(blocks, tiles),), dt)
    prod_buf = tensor.take((nnops.row_tile(k.shape[1])[1],), dt)
    row_sums = np.empty((blocks * max(r1 - r0 for r0, r1, _, _ in tiles), 1), dt)
    for tile in reversed(tiles):
        r0, r1, visible, _ = tile
        aw_d = aw = _tile(weights, tile)
        grad_aw = work[: aw.size].reshape(aw.shape)
        if keep is not None:
            kept = _tile(keep, tile)
            aw_d = nnops.scaled_mask(policy, kept, dt, out=grad_aw)
            aw_d *= aw
        grad_v[:, :visible] += tensor.matmul(aw_d.transpose(0, 2, 1), gh[:, r0:r1])
        tensor.matmul(gh[:, r0:r1], vh[:, :visible].transpose(0, 2, 1), out=grad_aw)
        if keep is not None:
            # times the scaled mask, bitwise: a kept entry is scaled by
            # 1 * c, a dropped one becomes a zero of its own sign
            grad_aw *= kept
            grad_aw *= nnops.keep_scale(policy, dt)
        # softmax backward, in place: grad_s = aw * (grad_aw - rowsum(grad_aw * aw))
        # * scale; masked-out entries have aw == 0, so they stay 0.  The
        # row sums go an nnops.row_tile of rows at a time, which leaves
        # each row's sum as it was.
        aw_rows, grad_rows = aw.reshape(-1, visible), grad_aw.reshape(-1, visible)
        rows = len(aw_rows)
        height, _ = nnops.row_tile(visible)
        for t0 in range(0, rows, height):
            t1 = min(t0 + height, rows)
            prod = prod_buf[: (t1 - t0) * visible].reshape(t1 - t0, visible)
            np.multiply(grad_rows[t0:t1], aw_rows[t0:t1], out=prod)
            np.sum(prod, axis=1, keepdims=True, out=row_sums[t0:t1])
        grad_rows -= row_sums[:rows]
        grad_aw *= aw
        grad_aw *= scale
        tensor.matmul(grad_aw, kh[:, :visible], out=grad_q[:, r0:r1])
        grad_k[:, :visible] += tensor.matmul(grad_aw.transpose(0, 2, 1), qh[:, r0:r1])
    tensor.give(work, prod_buf, *[a for a in (weights, keep) if a is not None])
    cache.weights = cache.keep = None
    return tuple(_merge_heads(a, bsz) for a in (grad_q, grad_k, grad_v))


# --- the two sublayers: fwd(y, rows) -> (out, cache) with out the block of
# y's shape at ``rows`` (take_rows), bwd(cache, grad_out) -> (grad_y, tuple
# of LinearParams weight grads) with grad_y shaped like y ---


@dataclass
class AttentionCache:
    xq: np.ndarray  # the query rows of the normalized input
    rows: Rows
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


def attention_fwd(xh, rows: Rows, lp: LayerParams, cfg, policy, layer, kv_fwd=None):
    """Keys and values from every row of ``xh`` (through ``kv_fwd``, by
    default :func:`local_kv_fwd`, looked up at call time); queries, scores
    and the output projection over its block at ``rows``."""
    k, v, kv_ctx = (local_kv_fwd if kv_fwd is None else kv_fwd)(xh, lp)
    xq = take_rows(xh, rows)
    q = linear3(xq, lp.attn_q)
    ctx, score_cache = scores_fwd(q, k, v, rows, cfg, policy, layer)
    return linear3(ctx, lp.attn_out), AttentionCache(xq, rows, kv_ctx, q, k, v, score_cache, ctx)


def attention_bwd(cache: AttentionCache, grad_out, lp: LayerParams, cfg, policy, kv_bwd=None):
    """Weight grads in the order q, k, v, out; ``kv_bwd`` defaults to
    :func:`local_kv_bwd`, looked up at call time."""
    grad_ctx, out_wg, out_bg = linear3_bwd(cache.ctx, lp.attn_out, grad_out)
    grad_q, grad_k, grad_v = scores_bwd(
        cache.scores, cache.q, cache.k, cache.v, grad_ctx, cfg, policy
    )
    grad_xq, q_wg, q_bg = linear3_bwd(cache.xq, lp.attn_q, grad_q)
    kv_bwd = local_kv_bwd if kv_bwd is None else kv_bwd
    grad_xh, k_wg, k_bg, v_wg, v_bg = kv_bwd(cache.kv_ctx, lp, grad_k, grad_v)
    grads = (LinearParams(q_wg, q_bg), LinearParams(k_wg, k_bg), LinearParams(v_wg, v_bg),
             LinearParams(out_wg, out_bg))
    return add_rows(grad_xh, cache.rows, grad_xq), grads


@dataclass
class FfnCache:
    yh_flat: np.ndarray
    h_pre: np.ndarray
    h_drop: np.ndarray
    hidden_mask: np.ndarray | None


def ffn_fwd(yh, rows: Rows, lp: LayerParams, policy, layer):
    b, m, e = yh.shape
    samples, at = row_coords(b, rows)
    yh_flat = yh.reshape(b * m, e)
    h_pre = nnops.linear_fwd(yh_flat, lp.ff_in)
    h_act = nnops.gelu_fwd(h_pre)
    h_drop, hidden_mask = nnops.dropout_fwd(h_act, policy, layer, "ffn_hidden", samples, at)
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


def local_place_fwd(sublayer, y, rows):
    """Default sublayer placement: run it on the worker itself."""
    return sublayer(y, rows)


def local_place_bwd(sublayer_bwd, cache, grad_out, weights):
    """Backward of :func:`local_place_fwd`.  ``weights`` (the LinearParams the
    weight grads mirror) serve placements where a worker returns zeros."""
    return sublayer_bwd(cache, grad_out)


# --- one full pre-norm layer ---


@dataclass
class LayerCache:
    rows: Rows
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
    rows: Rows | int,
    kv_fwd=None,
    place_fwd=local_place_fwd,
    gather=None,
) -> tuple[np.ndarray, LayerCache]:
    """norm -> attention -> dropout -> residual, norm -> ffn -> dropout -> residual,
    for the block at ``rows``.

    ``gather(x)``, when given, returns the whole sequence's layer input in
    position order (the fused sharded engine all-gathers it).  The first
    norm then runs over every row, keys and values come from every row, and
    the rest of the layer runs on the rows at ``rows`` (:func:`take_rows`),
    which ``x`` itself need not hold.  Without it (None, the default) ``x``
    is the block at ``rows``.

    ``kv_fwd(xh, lp)`` returns whole-sequence keys and values plus an opaque
    context for the matching ``kv_bwd``.  Locally (None, the default) that is
    :func:`local_kv_fwd`, two projections of the normalized input itself;
    the unfused sharded engine all-gathers those projections.

    ``place_fwd(sublayer, y, rows)`` runs each sublayer and returns its
    ``(out, cache)`` for this worker's block; by default on the worker
    itself.  Norms, dropout and residuals always run on the worker.

    The output is checked for NaN and Inf (:class:`~seqpar.errors.NumericsError`
    names the layer); the kernels inside the layer do not check theirs.
    """
    rows = as_rows(rows, x.shape[1])
    samples, at = row_coords(x.shape[0], rows)
    x_in = x if gather is None else gather(x)
    xh, ln1_cache = norm3(x_in, lp.ln1_gain, lp.ln1_bias)
    x = take_rows(x_in, rows)
    attention = partial(attention_fwd, lp=lp, cfg=cfg, policy=policy, layer=layer, kv_fwd=kv_fwd)
    att, att_cache = place_fwd(attention, xh, rows)
    att_drop, att_mask = dropout3(att, policy, layer, "attn_out", samples, at)
    x_mid = x + att_drop
    yh, ln2_cache = norm3(x_mid, lp.ln2_gain, lp.ln2_bias)
    ff, ffn_cache = place_fwd(partial(ffn_fwd, lp=lp, policy=policy, layer=layer), yh, rows)
    ff_drop, ff_mask = dropout3(ff, policy, layer, "ffn_out", samples, at)
    cache = LayerCache(rows, ln1_cache, att_cache, att_mask, ln2_cache, ffn_cache, ff_mask)
    return tensor.check_finite(x_mid + ff_drop, f"layer {layer} output"), cache


def layer_bwd(
    lp: LayerParams,
    cfg: ModelConfig,
    policy: DropoutPolicy,
    layer: int,
    cache: LayerCache,
    grad_out: np.ndarray,
    kv_bwd=None,
    place_bwd=local_place_bwd,
    scatter=None,
) -> tuple[np.ndarray, LayerParams]:
    """Reverse of :func:`layer_fwd`; returns (grad_x_in, per-layer grads).

    ``kv_bwd(kv_ctx, lp, grad_k, grad_v)`` must return the key/value path's
    gradient w.r.t. the normalized input the forward projected keys and
    values from (plus the four projection grads); unfused sharded, it
    reduce-scatters the keys' and values' gradients first.
    ``place_bwd(sublayer_bwd, cache, grad_out, weights)`` mirrors the
    ``place_fwd`` the forward ran with, and ``scatter(grad)``, the backward
    of its ``gather``, turns the gradient w.r.t. the gathered input into
    the one w.r.t. the forward's ``x``.  The input gradient is checked for
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
    grad_x = add_rows(g_ln1_x, cache.rows, grad_mid)
    if scatter is not None:
        grad_x = scatter(grad_x)
    return tensor.check_finite(grad_x, f"layer {layer} input gradient"), grads


# --- embedding and output head ---


@dataclass
class EmbedCache:
    tokens: np.ndarray
    mask: np.ndarray | None


def embed_fwd(params: Parameters, cfg: ModelConfig, tokens: np.ndarray, rows: Rows, policy):
    """Token + position embeddings for the block of the sequence at ``rows``.

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
    samples, at = row_coords(bsz, rows)
    x, mask = dropout3(x, policy, 0, "embed", samples, at)
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
    rows = ((0, tokens.shape[1]),)
    x, e_cache = embed_fwd(params, cfg, tokens, rows, policy)
    layer_caches = []
    for li, lp in enumerate(params.layers):
        x, c = layer_fwd(lp, cfg, policy, li, x, rows)
        layer_caches.append(c)
    loss, h_cache = head_fwd(x, params, targets)
    return loss, StackCache(e_cache, layer_caches, h_cache, policy)


def backward(params: Parameters, cfg: ModelConfig, cache: StackCache, hooks=None) -> Parameters:
    """Gradients of the mean-over-tokens loss w.r.t. every parameter.
    ``hooks(layer)``, when given, returns the keyword hooks (``kv_bwd``,
    ``scatter``) :func:`layer_bwd` runs that layer with, matching those its
    forward ran with."""
    policy = cache.policy
    grad_x, final_gain_g, final_bias_g, head_wg, head_bg = head_bwd(cache.head, params)
    layer_grads: list[LayerParams | None] = [None] * len(params.layers)
    for li in range(len(params.layers) - 1, -1, -1):
        grad_x, layer_grads[li] = layer_bwd(
            params.layers[li], cfg, policy, li, cache.layers[li], grad_x,
            **({} if hooks is None else hooks(li)),
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
