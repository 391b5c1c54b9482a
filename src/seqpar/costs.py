"""Closed-form per-step cost estimates for each engine.

The formulas mirror what the runtime counters in :mod:`seqpar.tensor`
measure, so an estimate for a config can be checked against an instrumented
run to the last flop.  Score flops accumulate over layers and count only the
keys each band of query rows can see (:func:`seqpar.model.score_bands`), so
under a causal mask a row's share grows with its position in the sequence.
:func:`score_flops` gives a contiguous run of rows its figure,
:func:`rows_score_flops` a worker's chunks theirs, and
:func:`rank_score_flops` every worker of a sequence group its own.  A fused
sharded worker computes one early and one late chunk, so all workers score
near-equal shares; an unfused worker computes its own block, so the last
worker does the most.  The estimate gives the busiest worker's figure.
The score-element figure is the footprint of one layer's score stack, the
same on every worker of a sequence group, so it carries no layer factor.
A training step keeps every layer's scores until its backward: the
cached-bytes figure counts those, L times the score elements at ``itemsize``
bytes each for the softmax weights, plus one byte each for the dropout keep
mask when dropout is on (the dropped weights are rebuilt in backward, not
kept).  Collective counts and payload elements are totals over the whole
grid, as the ledger records them; payload sizes come from
:func:`seqpar.model.param_shapes`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .grid import GridLayout, ShardSpec, check_grid
from .model import ModelConfig, Rows, param_count, param_shapes, score_bands

# Worker-count / sequence-length pairs that hold the per-worker attention
# workload ratio to small integers: with block length l/n, per-worker score
# elements are (l/n) * l, giving exactly 1 : 6 : 18 : 54 : 144 across the
# schedule.
WEAK_SCALING_SCHEDULE = (
    (6, 348),
    (36, 2088),
    (108, 6264),
    (324, 18792),
    (864, 50112),
)


@dataclass(frozen=True)
class CostEstimate:
    """Per-step costs: compute and memory figures for the busiest worker,
    collective figures for the whole grid."""

    engine: str
    workers: int
    seq_len: int
    block: int

    score_flops: int            # forward QK^T + weights@V over visible keys, all layers
    score_elements_peak: int    # score entries of one layer
    score_cache_bytes: int      # every layer's score caches, held until backward
    proj_flops: int             # q/k/v/out projections, forward, all layers
    ffn_flops: int              # both ffn matmuls, forward, all layers
    head_flops: int             # vocabulary projection, forward

    collectives_per_step: int   # ledger records one training step produces
    comm_elements_per_step: int # payload elements crossing workers per step

    complexity: dict


def estimate(
    cfg: ModelConfig, workers: int, engine: str = "sharded", *, fused: bool = True,
    replicas: int = 1,
) -> CostEstimate:
    """Closed-form cost of one training step of ``engine`` on ``workers``
    (times ``replicas`` for the hybrid grid).

    Figures describe the busiest worker.  For the sharded and hybrid engines
    every worker holds the same score footprint and does the same
    projection, ffn and head work, but a causal worker scores only the keys
    its rows can see, so ``score_flops`` is the largest of
    :func:`rank_score_flops`, which depends on ``fused``.  For the
    baseline, rank 0 does all attention/ffn/head work and holds the full
    score footprint.
    """
    check_grid(engine, GridLayout(replicas, workers), cfg.seq_len)
    l, b, h, e, f, layers = (
        cfg.seq_len, cfg.batch, cfg.n_heads, cfg.embed_dim, cfg.ff_dim, cfg.n_layers,
    )
    block = l // workers
    # Rows this worker pushes through attention scores / ffn / head, and the
    # rows its key/value projections see.
    if engine in ("sharded", "hybrid"):
        # Fused gathers the layer input and projects keys/values over the
        # whole sequence; unfused projects its own block, then gathers K and V.
        q_rows, kv_rows, ffn_rows, head_rows = block, (l if fused else block), block, block
        per_layer = 2 if fused else 4
        # Per sequence group: one b*l*e payload per layer-tagged collective
        # (fused gathers the layer input; unfused gathers keys and
        # values separately), plus the flat gradient sync (replicated params
        # + 1 piggybacked loss).
        shared = sum(a.size for n, a in param_shapes(cfg).named_arrays() if n != "pos_table")
        collectives = replicas * (per_layer * layers + 1)
        comm_elements = replicas * (per_layer * layers * b * l * e + shared + 1)
        if replicas > 1:
            # One data-group all-reduce per block position: the replicated
            # params, that block's position rows and the loss.
            collectives += workers
            comm_elements += workers * (shared + block * e + 1)
    elif engine == "baseline":
        q_rows, kv_rows, ffn_rows, head_rows = l, l, l, l
        collectives = 8 * layers + 5
        comm_elements = (8 * layers + 4) * b * l * e + param_count(param_shapes(cfg))
    else:
        q_rows, kv_rows, ffn_rows, head_rows = l, l, l, l
        collectives = 0
        comm_elements = 0

    score_elements_peak = b * h * q_rows * l
    score_cache_bytes = layers * score_elements_peak * (
        cfg.dtype.itemsize + (1 if cfg.dropout > 0 else 0)
    )
    proj_flops = layers * (2 * b * q_rows * e * e * 2 + 2 * b * kv_rows * e * e * 2)
    ffn_flops = layers * (2 * b * ffn_rows * e * f) * 2
    head_flops = 2 * b * head_rows * e * cfg.vocab

    return CostEstimate(
        engine=engine,
        workers=workers,
        seq_len=l,
        block=block,
        score_flops=max(rank_score_flops(cfg, workers, engine, fused=fused)),
        score_elements_peak=score_elements_peak,
        score_cache_bytes=score_cache_bytes,
        proj_flops=proj_flops,
        ffn_flops=ffn_flops,
        head_flops=head_flops,
        collectives_per_step=collectives,
        comm_elements_per_step=comm_elements,
        complexity=_complexity(engine),
    )


def score_flops(cfg: ModelConfig, rows: int, offset: int) -> int:
    """Forward score flops of one training step, over every layer, of
    ``rows`` contiguous query rows from global position ``offset`` (a
    worker's block, or one chunk of its rows): per (sample, head) block and
    band of :func:`seqpar.model.score_bands`,
    QK^T and weights@V over the band's rows and its visible keys."""
    dk = cfg.head_dim
    per_block = sum(4 * (r1 - r0) * visible * dk
                    for r0, r1, visible in score_bands(rows, cfg.seq_len, offset, cfg.causal))
    return cfg.n_layers * cfg.batch * cfg.n_heads * per_block


def rows_score_flops(cfg: ModelConfig, rows: Rows) -> int:
    """:func:`score_flops` of a worker whose query rows are the chunks
    ``rows``: each chunk's bands are cut on their own, so it is the sum over
    the chunks."""
    return sum(score_flops(cfg, stop - start, start) for start, stop in rows)


def rank_score_flops(
    cfg: ModelConfig, workers: int, engine: str = "sharded", *, fused: bool = True
) -> list[int]:
    """Forward score flops of one training step on each worker of a sequence
    group, in rank order: the closed form over the rows each one computes
    (:meth:`seqpar.grid.ShardSpec.compute_rows` for the sharded and hybrid
    engines; the baseline's rank 0 scores the whole sequence)."""
    if engine in ("sharded", "hybrid"):
        return [rows_score_flops(cfg, ShardSpec(r, workers, cfg.seq_len).compute_rows(fused))
                for r in range(workers)]
    return [score_flops(cfg, cfg.seq_len, 0)] + [0] * (workers - 1)


def _complexity(engine: str) -> dict:
    per_worker_scores = "O(seq^2 / workers)" if engine in ("sharded", "hybrid") else "O(seq^2)"
    return {
        "score_compute_per_worker": per_worker_scores,
        "score_memory_per_worker": per_worker_scores,
        "comm_per_step": "O(layers * seq * embed)" if engine != "sequential" else "O(1)",
    }


def weak_scaling_ratios(
    cfg: ModelConfig, schedule=WEAK_SCALING_SCHEDULE
) -> list[int]:
    """Per-worker attention workload of each schedule point relative to the
    first, using the peak score-element figure.  The schedule is built so
    these come out as exact integers; a non-integer ratio means the schedule
    or the estimate is wrong, so it raises."""
    elements = []
    for workers, seq_len in schedule:
        point = replace(cfg, seq_len=seq_len)
        elements.append(estimate(point, workers, "sharded").score_elements_peak)
    base = elements[0]
    ratios = []
    for e in elements:
        if e % base != 0:
            raise ValueError(f"non-integer workload ratio {e}/{base}")
        ratios.append(e // base)
    return ratios
