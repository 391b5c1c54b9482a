"""Closed-form per-step cost estimates for each engine.

The formulas mirror what the runtime counters in :mod:`seqpar.tensor`
measure, so an estimate for a config can be checked against an instrumented
run to the last flop.  Score flops accumulate over layers and count only the
keys each band of query rows can see (:func:`seqpar.model.score_bands`), so
under a causal mask a row's share grows with its position in the sequence.
:func:`score_flops` gives a worker's rows (:data:`seqpar.model.Rows`,
ascending chunks of positions, each cut into bands on its own) their figure.
A sharded worker, fused or not, owns one early and one late chunk
(:attr:`seqpar.grid.ShardSpec.balanced_rows`), so all workers score
equal shares when the block is even, and near-equal ones when it is odd.
The score-element figure is the footprint of one layer's score stack, which
packs only the entries its bands score (:func:`seqpar.model.score_stack_size`):
per layer, ``b·h·Σ band rows × visible keys``, a worker's score flops
divided by ``4·dk·L``.  :func:`score_elements` gives a worker's rows their
figure; it carries no layer factor (and the estimate's is 0 for a model
without layers).
A training step keeps every layer's scores until its backward: the
cached-bytes figure counts those, L times the score elements at ``itemsize``
bytes each for the softmax exponentials, plus one byte each for the dropout
keep mask when dropout is on, plus ``itemsize`` bytes for the reciprocal sum
of each (sample, head) block's query row (neither the weights nor the
dropped weights are kept: both are the exponentials times per-row factors,
which the score kernels apply to (rows, dk) operands).
:func:`estimate` gives these three figures for every world rank, in rank
order (:class:`CostEstimate`'s ``*_by_rank`` lists), and their largest as
the busiest rank's.  Collective counts and payload elements are totals over
the whole grid, as the ledger records them; payload sizes come from
:func:`seqpar.model.param_shapes`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .grid import GridLayout, ShardSpec, check_grid
from .model import ModelConfig, Rows, param_count, param_shapes, row_count, score_bands

# Worker-count / sequence-length pairs that hold the per-worker attention
# workload ratio to small integers: with block length l/n, the full score
# rectangle of a worker's rows is (l/n) * l elements, giving exactly
# 1 : 6 : 18 : 54 : 144 across the schedule.
WEAK_SCALING_SCHEDULE = (
    (6, 348),
    (36, 2088),
    (108, 6264),
    (324, 18792),
    (864, 50112),
)


@dataclass(frozen=True)
class CostEstimate:
    """Per-step costs: score figures for every world rank, in rank order
    (replica-major, so a hybrid sequence group's list repeats once per
    replica), with the busiest rank's as properties; the other compute
    figures for the busiest worker; collective figures for the whole grid."""

    engine: str
    workers: int
    seq_len: int
    block: int

    score_flops_by_rank: list[int]        # forward QK^T + weights@V over visible keys, all layers
    score_elements_by_rank: list[int]     # entries of one layer's score stack
    score_cache_bytes_by_rank: list[int]  # every layer's score caches, held until backward
    proj_flops: int             # q/k/v/out projections, forward, all layers
    ffn_flops: int              # both ffn matmuls, forward, all layers
    head_flops: int             # vocabulary projection, forward

    collectives_per_step: int   # ledger records one training step produces
    comm_elements_per_step: int # payload elements crossing workers per step

    complexity: dict

    @property
    def score_flops(self) -> int:
        return max(self.score_flops_by_rank)

    @property
    def score_elements_peak(self) -> int:
        return max(self.score_elements_by_rank)

    @property
    def score_cache_bytes(self) -> int:
        return max(self.score_cache_bytes_by_rank)


def estimate(
    cfg: ModelConfig, workers: int, engine: str = "sharded", *, fused: bool = True,
    replicas: int = 1,
) -> CostEstimate:
    """Closed-form cost of one training step of ``engine`` on ``workers``
    (times ``replicas`` for the hybrid grid).

    The score figures are listed for every world rank.  A sharded or
    hybrid rank scores its balanced rows, and a causal one scores and keeps
    only the keys those rows can see; on the other engines rank 0 scores
    the whole sequence and every other rank nothing.  The other compute figures describe the busiest worker: for
    the sharded and hybrid engines every worker does the same projection,
    ffn and head work.  ``fused`` moves only the key/value projections
    (fused, over the gathered whole sequence; unfused, over the worker's
    own rows) and the layer-tagged collectives (two per layer fused, four
    unfused).  For the baseline, rank 0 does all attention/ffn/head work
    and holds every score.
    """
    check_grid(engine, GridLayout(replicas, workers), cfg.seq_len)
    l, b, e, f, layers = cfg.seq_len, cfg.batch, cfg.embed_dim, cfg.ff_dim, cfg.n_layers
    block = l // workers
    # Rows this worker pushes through queries, scores, ffn and head, and the
    # rows its key/value projections see; the query rows each rank of a
    # sequence group scores.
    rows = kv_rows = l
    group_rows = [((0, l),)] + [()] * (workers - 1)
    if engine in ("sharded", "hybrid"):
        # Fused gathers the normalized input and projects keys/values over
        # the whole sequence; unfused projects its own rows, then gathers K
        # and V.
        rows, kv_rows = block, (l if fused else block)
        group_rows = [ShardSpec(r, workers, l).balanced_rows for r in range(workers)]
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

    elements = [score_elements(cfg, r) if layers else 0 for r in group_rows]
    itemsize = cfg.dtype.itemsize
    per_element = itemsize + (1 if cfg.dropout > 0 else 0)
    cache_bytes = [layers * (n * per_element + b * cfg.n_heads * row_count(r) * itemsize)
                   for n, r in zip(elements, group_rows)]
    proj_flops = layers * (2 * b * rows * e * e * 2 + 2 * b * kv_rows * e * e * 2)
    ffn_flops = layers * (2 * b * rows * e * f) * 2
    head_flops = 2 * b * rows * e * cfg.vocab

    return CostEstimate(
        engine=engine,
        workers=workers,
        seq_len=l,
        block=block,
        score_flops_by_rank=[4 * cfg.head_dim * layers * n for n in elements] * replicas,
        score_elements_by_rank=elements * replicas,
        score_cache_bytes_by_rank=cache_bytes * replicas,
        proj_flops=proj_flops,
        ffn_flops=ffn_flops,
        head_flops=head_flops,
        collectives_per_step=collectives,
        comm_elements_per_step=comm_elements,
        complexity=_complexity(engine),
    )


def score_elements(cfg: ModelConfig, rows: Rows) -> int:
    """Entries of one layer's score stack for the query rows at the global
    positions ``rows`` (a worker's block, or its chunks): per (sample, head)
    block and band of :func:`seqpar.model.score_bands`, the band's rows
    times its visible keys."""
    per_block = sum((r1 - r0) * visible
                    for r0, r1, visible in score_bands(rows, cfg.seq_len, cfg.causal))
    return cfg.batch * cfg.n_heads * per_block


def score_flops(cfg: ModelConfig, rows: Rows) -> int:
    """Forward score flops of one training step, over every layer, of the
    query rows at ``rows``: QK^T and weights@V over each of
    :func:`score_elements`' entries, ``4·dk`` flops per entry and layer."""
    return 4 * cfg.head_dim * cfg.n_layers * score_elements(cfg, rows)


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
    first, using the peak score-element figure of the paper's schedule: the
    full score rectangle of a worker's rows (``causal=False``), since a
    causal stack keeps only the bands its rows see and those shares are no
    longer small integers.  The schedule is built so these come out as
    exact integers; a non-integer ratio means the schedule or the estimate
    is wrong, so it raises.  A model of zero layers holds no scores, so it
    has no ratios and raises too."""
    if cfg.n_layers == 0:
        raise ValueError("weak scaling needs at least one layer, got 0 layers")
    elements = []
    for workers, seq_len in schedule:
        point = replace(cfg, seq_len=seq_len, causal=False)
        elements.append(estimate(point, workers, "sharded").score_elements_peak)
    base = elements[0]
    ratios = []
    for e in elements:
        if e % base != 0:
            raise ValueError(f"non-integer workload ratio {e}/{base}")
        ratios.append(e // base)
    return ratios
