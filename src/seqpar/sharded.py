"""Sequence-parallel engine with distributed attention.

Each worker owns a contiguous block of the sequence: its token ids, its rows
of the position table, and a full replica of every other parameter.  Per
layer, the forward pass all-gathers the post-layernorm activation once and
recomputes keys/values from it locally, so attention for the worker's own
query rows runs against the whole sequence; the backward pass reduce-scatters
the key/value path's gradient once.  Gradients of replicated parameters are
averaged in a single flat all-reduce per step; position rows never cross
the sequence group.

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

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import grid, model
from .collectives import run_workers
from .errors import ShapeError
from .grid import GridLayout, Run, Worker
from .model import ModelConfig, Parameters
from .nnops import DropoutPolicy


@dataclass
class ShardedCache:
    embed: model.EmbedCache
    layers: list[model.LayerCache]
    head: model.HeadCache
    policy: DropoutPolicy
    fused: bool


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
) -> tuple[float | None, ShardedCache]:
    """Forward over this worker's block; returns its partial loss (the mean
    cross-entropy over its own tokens)."""
    comm, group, spec, wrank = worker.comm, worker.seq_group, worker.spec, worker.rank
    policy = policy if policy is not None else DropoutPolicy.off()
    if tokens_seg.shape[1] != spec.block:
        raise ShapeError(f"token block has {tokens_seg.shape[1]} columns, expected {spec.block}")
    x, e_cache = model.embed_fwd(params, cfg, tokens_seg, spec.offset, policy)
    caches = []
    for li, lp in enumerate(params.layers):
        gather = partial(comm.all_gather, group, wrank, dim=1, step=step, phase="forward", layer=li)
        if fused:
            def kv_fwd(xh, lp, gather=gather):
                return model.local_kv_fwd(gather(xh), lp)
        else:
            def kv_fwd(xh, lp, gather=gather):
                k, v, _ = model.local_kv_fwd(xh, lp)
                return gather(k), gather(v), xh
        x, c = model.layer_fwd(lp, cfg, policy, li, x, spec.offset, kv_fwd)
        caches.append(c)
    partial_loss, h_cache = model.head_fwd(x, params, targets_seg)
    return partial_loss, ShardedCache(e_cache, caches, h_cache, policy, fused)


def backward(
    worker: Worker,
    params: Parameters,
    cfg: ModelConfig,
    cache: ShardedCache,
    *,
    step: int = 0,
) -> Parameters:
    """Gradients of this worker's partial loss, with cross-worker credit
    collected through one reduce-scatter per layer.

    The returned position-row gradient is already scaled so that, like the
    replicated parameters after averaging, it equals the gradient of the
    group-mean loss: the reduce-scatter hands the owner the *sum* of every
    worker's contribution to its rows, so the owner divides by the group
    size once.
    """
    comm, group, wrank = worker.comm, worker.seq_group, worker.rank
    policy = cache.policy
    grad_x, final_gain_g, final_bias_g, head_wg, head_bg = model.head_bwd(cache.head, params)
    layer_grads: list[model.LayerParams | None] = [None] * len(params.layers)
    for li in range(len(params.layers) - 1, -1, -1):
        scatter = partial(
            comm.reduce_scatter, group, wrank, dim=1, step=step, phase="backward", layer=li
        )
        if cache.fused:
            def kv_bwd(kv_ctx, lp, grad_k, grad_v, scatter=scatter):
                grad_full, *weight_grads = model.local_kv_bwd(kv_ctx, lp, grad_k, grad_v)
                return scatter(grad_full), *weight_grads
        else:
            def kv_bwd(kv_ctx, lp, grad_k, grad_v, scatter=scatter):
                return model.local_kv_bwd(kv_ctx, lp, scatter(grad_k), scatter(grad_v))
        grad_x, layer_grads[li] = model.layer_bwd(
            params.layers[li], cfg, policy, li, cache.layers[li], grad_x, kv_bwd
        )
    grad_tok, grad_pe = model.embed_bwd(cache.embed, cfg.vocab, policy, grad_x)
    if group.size > 1:
        grad_pe = grad_pe / group.size
    return Parameters(token_table=grad_tok, pos_table=grad_pe, layers=layer_grads,
                      final_gain=final_gain_g, final_bias=final_bias_g,
                      head=model.LinearParams(head_wg, head_bg))


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
    synced gradients."""
    partial_loss, cache = forward(
        worker, params, cfg, tokens_seg, targets_seg,
        policy=policy, step=step, fused=fused,
    )
    grads = backward(worker, params, cfg, cache, step=step)
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
