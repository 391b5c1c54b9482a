"""Sequence-parallel engine: the model's own stack, with each layer drawing
on the whole sequence.

Each worker owns a contiguous block of the sequence: its token ids, its rows
of the position table, and a full replica of every other parameter.  The
forward pass is :func:`seqpar.model.layer_fwd` per layer and the backward
pass is :func:`seqpar.model.backward`; the engine only supplies each layer's
matched hooks (:func:`layer_hooks`).  Forward, the fused hook all-gathers
the layer's input once, so every worker holds the whole sequence's input:
it runs the first layernorm and the key/value projections over all of it
(row-wise work that gives every row what its owner would compute) and the
rest of the layer over its compute rows
(:meth:`seqpar.grid.ShardSpec.compute_rows`).  Those are two chunks of the
sequence, one early and one late, so under a causal mask every worker scores
an equal share of the keys.  Layer 0 gathers the workers' embedded blocks,
every later layer the compute rows of the layer before, and the loss head
runs on the compute rows too.  Backward, the hook's twin reduce-scatters the
input gradient once, in the order the gather received the rows, so each
worker gets the gradient of the rows it contributed.  Gradients of
replicated parameters are averaged in a single flat all-reduce per step;
position rows never cross the sequence group.

Communication per training step with L layers:
    forward   L all-gathers
    backward  L reduce-scatters
    sync      1 all-reduce, plus 1 across the data group on a grid with
              more than one replica (the hybrid engine)
Nothing else crosses worker boundaries.  :func:`sync` is the whole sync
phase, built on :func:`seqpar.grid.all_reduce_grads`.

The ``fused=False`` ablation gathers keys and values separately (two
all-gathers forward, two reduce-scatters backward per layer) instead of
gathering the input they are projected from, so every worker computes its
own block; results agree to rounding.

The engine is :func:`train_step`; :func:`run_steps` drives it on a 1xN grid
through :func:`seqpar.grid.train`.
"""

from __future__ import annotations

from functools import cache, partial

import numpy as np

from . import grid, model
from .collectives import run_workers
from .errors import ShapeError
from .grid import GridLayout, Run, ShardSpec, Worker
from .model import ModelConfig, Parameters, Rows, StackCache
from .nnops import DropoutPolicy


def _compute_rows(spec: ShardSpec, cfg: ModelConfig, fused: bool) -> Rows:
    """The rows a worker runs its layers past the gather and its loss head
    on.  With no layer there is nothing to gather, so it keeps its block."""
    return spec.compute_rows(fused and cfg.n_layers > 0)


@cache
def _gather_order(workers: int, seq_len: int) -> tuple[np.ndarray, np.ndarray]:
    """For a gather of every worker's balanced rows, in rank order: the
    global position of each gathered row, and the gathered index of each
    position."""
    order = np.concatenate([model.row_positions(ShardSpec(r, workers, seq_len).balanced_rows)
                            for r in range(workers)])
    return order, np.argsort(order)


def layer_hooks(worker: Worker, step: int, layer: int, fused: bool) -> tuple[dict, dict]:
    """One layer's matched hooks, as keyword arguments for
    :func:`seqpar.model.layer_fwd` and :func:`~seqpar.model.layer_bwd`.

    Fused, the forward all-gathers the layer's input (every worker's block
    at layer 0, its balanced rows later, put back in position order) and
    the backward reduce-scatters the input gradient in the gather's order.
    Unfused, keys and values are projected locally and gathered (and their
    gradients reduce-scattered) one at a time."""
    comm, group, rank = worker.comm, worker.seq_group, worker.rank
    tag = dict(dim=1, step=step, layer=layer)
    gather = partial(comm.all_gather, group, rank, phase="forward", **tag)
    scatter = partial(comm.reduce_scatter, group, rank, phase="backward", **tag)
    if fused:
        # layer 0 gathers the owners' blocks, which arrive in position order
        order, inverse = ((None, None) if layer == 0
                          else _gather_order(group.size, worker.spec.seq_len))

        def gather_input(x):
            full = gather(x)
            return full if inverse is None else full[:, inverse]

        def scatter_input(grad):
            return scatter(grad if order is None else grad[:, order])

        return dict(gather=gather_input), dict(scatter=scatter_input)

    def kv_fwd(xh, lp):
        k, v, _ = model.local_kv_fwd(xh, lp)
        return gather(k), gather(v), xh

    def kv_bwd(kv_ctx, lp, grad_k, grad_v):
        return model.local_kv_bwd(kv_ctx, lp, scatter(grad_k), scatter(grad_v))

    return dict(kv_fwd=kv_fwd), dict(kv_bwd=kv_bwd)


def forward(
    worker: Worker,
    params: Parameters,
    cfg: ModelConfig,
    tokens_seg: np.ndarray,
    targets_seg: np.ndarray | None,
    *,
    policy: DropoutPolicy | None = None,
    step: int = 0,
    fused: bool = True,
) -> tuple[float | None, StackCache]:
    """Forward over this worker's block of tokens; ``targets_seg`` are the
    targets of its compute rows (:meth:`~seqpar.grid.ShardSpec.compute_rows`).
    Returns its partial loss (the mean cross-entropy over the tokens of its
    compute rows)."""
    spec = worker.spec
    policy = policy if policy is not None else DropoutPolicy.off()
    if tokens_seg.shape[1] != spec.block:
        raise ShapeError(f"token block has {tokens_seg.shape[1]} columns, expected {spec.block}")
    x, e_cache = model.embed_fwd(params, cfg, tokens_seg, spec.block_rows, policy)
    rows = _compute_rows(spec, cfg, fused)
    caches = []
    for li, lp in enumerate(params.layers):
        hooks, _ = layer_hooks(worker, step, li, fused)
        x, c = model.layer_fwd(lp, cfg, policy, li, x, rows, **hooks)
        caches.append(c)
    partial_loss, h_cache = model.head_fwd(x, params, targets_seg)
    return partial_loss, StackCache(e_cache, caches, h_cache, policy)


def sync(
    worker: Worker, grads: Parameters, loss: float, *, step: int
) -> tuple[Parameters, float]:
    """The step's gradient sync: average every gradient except the position
    rows, and the partial loss, across the sequence group; then, on a grid
    with more than one replica, average everything across the data group.

    Position rows cross the data group only: its members own the same rows
    of different replicas of the position table.  Afterwards every worker
    holds the loss averaged over the whole grid.
    """
    comm, rank = worker.comm, worker.rank
    grads, loss = grid.all_reduce_grads(
        comm, worker.seq_group, rank, grads, loss, step=step, local=("pos_table",)
    )
    if worker.data_group.size > 1:
        grads, loss = grid.all_reduce_grads(comm, worker.data_group, rank, grads, loss, step=step)
    return grads, loss


def train_step(
    worker: Worker,
    params: Parameters,
    cfg: ModelConfig,
    tokens: np.ndarray,
    targets: np.ndarray,
    *,
    policy: DropoutPolicy | None = None,
    step: int = 0,
    fused: bool = True,
) -> tuple[float, Parameters]:
    """forward -> backward -> gradient sync on one worker, which takes its
    block of the (batch, seq_len) ``tokens`` and the ``targets`` of its
    compute rows.  Returns the loss averaged over the grid, identical on
    every worker, and the synced gradients.

    The reduce-scatters hand each worker the *sum* of every worker's credit
    to its position rows, so it divides that gradient by the group size
    once; like the replicated parameters after averaging, it is then the
    gradient of the group-mean loss.
    """
    spec = worker.spec
    partial_loss, cache = forward(
        worker, params, cfg, grid.slice_batch(tokens, spec),
        grid.slice_batch(targets, spec, _compute_rows(spec, cfg, fused)),
        policy=policy, step=step, fused=fused,
    )
    grads = model.backward(params, cfg, cache,
                           hooks=lambda li: layer_hooks(worker, step, li, fused)[1])
    if worker.seq_group.size > 1:
        grads.pos_table = grads.pos_table / worker.seq_group.size
    grads, loss = sync(worker, grads, partial_loss, step=step)
    return loss, grads


def run_steps(
    cfg: ModelConfig,
    params_full: Parameters,
    n_workers: int,
    batches: list[tuple[np.ndarray, np.ndarray]],
    *,
    fused: bool = True,
    **kw,
) -> Run:
    """Drive ``len(batches)`` training steps on ``n_workers`` worker threads,
    each on its columns of the full-width batches (:func:`train_step`).  ``kw``
    (lr, policy, optimizer, timeout) is passed to :func:`seqpar.grid.train`."""
    return grid.train(
        partial(train_step, fused=fused), cfg, params_full, GridLayout(1, n_workers), batches,
        run_workers=run_workers, **kw,
    )
