"""Sequence-parallel engine: the model's own stack, with each layer's keys
and values drawn from the whole sequence.

Each worker owns a contiguous block of the sequence: its token ids, its rows
of the position table, and a full replica of every other parameter.  The
forward pass is :func:`seqpar.model.layer_fwd` per layer and the backward
pass is :func:`seqpar.model.backward`; the engine only supplies each layer's
matched key/value hooks (:func:`kv_hooks`).  Forward, the hook all-gathers
the post-layernorm activation once and recomputes keys/values from it
locally, so attention for the worker's own query rows runs against the whole
sequence; backward, its twin reduce-scatters the key/value path's gradient
once.  Gradients of replicated parameters are averaged in a single flat
all-reduce per step; position rows never cross the sequence group.

Communication per training step with L layers:
    forward   L all-gathers
    backward  L reduce-scatters
    sync      1 all-reduce, plus 1 across the data group on a grid with
              more than one replica (the hybrid engine)
Nothing else crosses worker boundaries.  :func:`sync` is the whole sync
phase, built on :func:`seqpar.grid.all_reduce_grads`.

The ``fused=False`` ablation gathers keys and values separately (two
all-gathers forward, two reduce-scatters backward per layer) instead of
gathering the activation they are projected from; results agree to rounding.

The engine is :func:`train_step`; :func:`run_steps` drives it on a 1xN grid
through :func:`seqpar.grid.train`.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import grid, model
from .collectives import run_workers
from .errors import ShapeError
from .grid import GridLayout, Run, Worker
from .model import ModelConfig, Parameters, StackCache
from .nnops import DropoutPolicy


def kv_hooks(worker: Worker, step: int, layer: int, fused: bool):
    """One layer's matched ``(kv_fwd, kv_bwd)`` hooks for
    :func:`seqpar.model.layer_fwd`/:func:`~seqpar.model.layer_bwd`.  Fused,
    the forward all-gathers the normalized block and projects keys and values
    over the whole sequence, and the backward reduce-scatters that block's
    gradient; unfused, keys and values are projected locally and gathered
    (and their gradients reduce-scattered) one at a time."""
    comm, group, rank = worker.comm, worker.seq_group, worker.rank
    tag = dict(dim=1, step=step, layer=layer)
    gather = partial(comm.all_gather, group, rank, phase="forward", **tag)
    scatter = partial(comm.reduce_scatter, group, rank, phase="backward", **tag)
    if fused:
        def kv_fwd(xh, lp):
            return model.local_kv_fwd(gather(xh), lp)

        def kv_bwd(kv_ctx, lp, grad_k, grad_v):
            grad_full, *weight_grads = model.local_kv_bwd(kv_ctx, lp, grad_k, grad_v)
            return scatter(grad_full), *weight_grads
    else:
        def kv_fwd(xh, lp):
            k, v, _ = model.local_kv_fwd(xh, lp)
            return gather(k), gather(v), xh

        def kv_bwd(kv_ctx, lp, grad_k, grad_v):
            return model.local_kv_bwd(kv_ctx, lp, scatter(grad_k), scatter(grad_v))
    return kv_fwd, kv_bwd


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
    """Forward over this worker's block; returns its partial loss (the mean
    cross-entropy over its own tokens)."""
    spec = worker.spec
    policy = policy if policy is not None else DropoutPolicy.off()
    if tokens_seg.shape[1] != spec.block:
        raise ShapeError(f"token block has {tokens_seg.shape[1]} columns, expected {spec.block}")
    x, e_cache = model.embed_fwd(params, cfg, tokens_seg, spec.offset, policy)
    caches = []
    for li, lp in enumerate(params.layers):
        kv_fwd, _ = kv_hooks(worker, step, li, fused)
        x, c = model.layer_fwd(lp, cfg, policy, li, x, spec.offset, kv_fwd)
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
    tokens_seg: np.ndarray,
    targets_seg: np.ndarray,
    *,
    policy: DropoutPolicy | None = None,
    step: int = 0,
    fused: bool = True,
) -> tuple[float, Parameters]:
    """forward -> backward -> gradient sync on one worker's block.  Returns
    the loss averaged over the grid, identical on every worker, and the
    synced gradients.

    The reduce-scatters hand each worker the *sum* of every worker's credit
    to its position rows, so it divides that gradient by the group size
    once; like the replicated parameters after averaging, it is then the
    gradient of the group-mean loss.
    """
    partial_loss, cache = forward(
        worker, params, cfg, tokens_seg, targets_seg,
        policy=policy, step=step, fused=fused,
    )
    grads = model.backward(params, cfg, cache,
                           kv_bwd=lambda li: kv_hooks(worker, step, li, fused)[1])
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
    """Drive ``len(batches)`` training steps on ``n_workers`` worker threads;
    each trains on its own block of columns of the full-width batches.  ``kw``
    (lr, policy, optimizer, timeout) is passed to :func:`seqpar.grid.train`."""
    return grid.train(
        partial(train_step, fused=fused), cfg, params_full, GridLayout(1, n_workers), batches,
        run_workers=run_workers, **kw,
    )
