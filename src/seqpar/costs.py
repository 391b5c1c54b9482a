"""Closed-form per-step cost estimates for each engine.

The formulas mirror what the runtime counters in :mod:`seqpar.tensor`
measure, so an estimate for a config can be checked against an instrumented
run to the last flop.  Score flops accumulate over layers and count only the
keys each band of query rows can see (:func:`seqpar.model.score_bands`), so
under a causal mask a row's share grows with its position in the sequence.
:func:`score_flops` gives a worker's rows (:data:`seqpar.model.Rows`,
ascending chunks of positions, each cut into bands on its own) their figure,
and :func:`rank_score_flops` every worker of a sequence group its own.  A
sharded worker, fused or not, owns one early and one late chunk
(:attr:`seqpar.grid.ShardSpec.balanced_rows`), so all workers score
equal shares when the block is even, and near-equal ones when it is odd.  The estimate gives the busiest worker's figure.
The score-element figure is the footprint of one layer's score stack, the
same on every worker of a sequence group, so it carries no layer factor (and
is 0 for a model without layers).
A training step keeps every layer's scores until its backward: the
cached-bytes figure counts those, L times the score elements at ``itemsize``
bytes each for the softmax exponentials, plus one byte each for the dropout
keep mask when dropout is on, plus ``itemsize`` bytes for the reciprocal sum
of each (sample, head) block's query row (neither the weights nor the
dropped weights are kept: both are the exponentials times per-row factors,
which the score kernels apply to (rows, dk) operands).  Collective counts
and payload elements are totals over the whole grid, as the ledger records
them; payload sizes come from :func:`seqpar.model.param_shapes`.
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
    :func:`rank_score_flops`.  ``fused`` moves only the key/value
    projections (fused, over the gathered whole sequence; unfused, over the
    worker's own rows) and the layer-tagged collectives (two per layer
    fused, four unfused).  For the baseline, rank 0 does all
    attention/ffn/head work and holds the full score footprint.
    """
    check_grid(engine, GridLayout(replicas, workers), cfg.seq_len)
    l, b, h, e, f, layers = (
        cfg.seq_len, cfg.batch, cfg.n_heads, cfg.embed_dim, cfg.ff_dim, cfg.n_layers,
    )
    block = l // workers
    # Rows this worker pushes through queries, scores, ffn and head, and the
    # rows its key/value projections see.
    rows = kv_rows = l
    if engine in ("sharded", "hybrid"):
        # Fused gathers the normalized input and projects keys/values over
        # the whole sequence; unfused projects its own rows, then gathers K
        # and V.
        rows, kv_rows = block, (l if fused else block)
        per_layer = 2 if fused else 4
        # Per sequence group: one b*l*e payload per layer-tagged collective
        # (fused gathers the normalized input; unfused gathers keys and
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
        collectives = 8 * layers + 5
        comm_elements = (8 * layers + 4) * b * l * e + param_count(param_shapes(cfg))
    else:
        collectives = 0
        comm_elements = 0

    score_elements_peak = b * h * rows * l if layers else 0
    score_cache_bytes = layers * (
        score_elements_peak * (cfg.dtype.itemsize + (1 if cfg.dropout > 0 else 0))
        + b * h * rows * cfg.dtype.itemsize
    )
    proj_flops = layers * (2 * b * rows * e * e * 2 + 2 * b * kv_rows * e * e * 2)
    ffn_flops = layers * (2 * b * rows * e * f) * 2
    head_flops = 2 * b * rows * e * cfg.vocab

    return CostEstimate(
        engine=engine,
        workers=workers,
        seq_len=l,
        block=block,
        score_flops=max(rank_score_flops(cfg, workers, engine)),
        score_elements_peak=score_elements_peak,
        score_cache_bytes=score_cache_bytes,
        proj_flops=proj_flops,
        ffn_flops=ffn_flops,
        head_flops=head_flops,
        collectives_per_step=collectives,
        comm_elements_per_step=comm_elements,
        complexity=_complexity(engine),
    )


def score_flops(cfg: ModelConfig, rows: Rows) -> int:
    """Forward score flops of one training step, over every layer, of the
    query rows at the global positions ``rows`` (a worker's block, or its
    chunks): per (sample, head) block and band of
    :func:`seqpar.model.score_bands`, QK^T and weights@V over the band's
    rows and its visible keys."""
    dk = cfg.head_dim
    per_block = sum(4 * (r1 - r0) * visible * dk
                    for r0, r1, visible in score_bands(rows, cfg.seq_len, cfg.causal))
    return cfg.n_layers * cfg.batch * cfg.n_heads * per_block


def rank_score_flops(cfg: ModelConfig, workers: int, engine: str = "sharded") -> list[int]:
    """Forward score flops of one training step on each worker of a sequence
    group, in rank order: the closed form over the rows each one computes
    (:attr:`seqpar.grid.ShardSpec.balanced_rows` for the sharded and hybrid
    engines; the baseline's rank 0 scores the whole sequence)."""
    if engine in ("sharded", "hybrid"):
        return [score_flops(cfg, ShardSpec(r, workers, cfg.seq_len).balanced_rows)
                for r in range(workers)]
    return [score_flops(cfg, ((0, cfg.seq_len),))] + [0] * (workers - 1)


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
    or the estimate is wrong, so it raises.  A model of zero layers holds no
    scores, so it has no ratios and raises too."""
    if cfg.n_layers == 0:
        raise ValueError("weak scaling needs at least one layer, got 0 layers")
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
