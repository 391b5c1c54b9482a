"""Sequence-parallel engine with distributed attention.

Each worker owns a contiguous block of the sequence: its token ids, its rows
of the position table, and a full replica of every other parameter.  Per
layer, the forward pass all-gathers the post-layernorm activation once and
recomputes keys/values from it locally, so attention for the worker's own
query rows runs against the whole sequence; the backward pass reduce-scatters
the key/value path's gradient once.  Gradients of replicated parameters are
averaged in a single flat all-reduce per step; position rows never leave
their owner.

Communication per training step with L layers:
    forward   L all-gathers
    backward  L reduce-scatters
    sync      1 all-reduce
Nothing else crosses worker boundaries.  On a grid with more than one
replica (the hybrid engine) :func:`train_step` adds one more all-reduce per
step across each data group, :func:`vertical_sync`.

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
from .collectives import Communicator, WorkerGroup, run_workers
from .errors import ShapeError
from .grid import GridLayout, Run, Worker
from .model import ModelConfig, Parameters
from .nnops import DropoutPolicy
from .tensor import StepCounters


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
    counters: StepCounters | None = None,
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
        if fused:
            def kv_fwd(xh, lp, _li=li):
                xh_full = comm.all_gather(
                    group, wrank, xh, dim=1, step=step, phase="forward", layer=_li
                )
                return model.linear3(xh_full, lp.attn_k), model.linear3(xh_full, lp.attn_v), xh_full
        else:
            def kv_fwd(xh, lp, _li=li):
                k = comm.all_gather(
                    group, wrank, model.linear3(xh, lp.attn_k),
                    dim=1, step=step, phase="forward", layer=_li,
                )
                v = comm.all_gather(
                    group, wrank, model.linear3(xh, lp.attn_v),
                    dim=1, step=step, phase="forward", layer=_li,
                )
                return k, v, xh
        x, c = model.layer_fwd(lp, cfg, policy, li, x, spec.offset, kv_fwd, counters)
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
        if cache.fused:
            def kv_bwd(kv_ctx, lp, grad_k, grad_v, _li=li):
                grad_full, k_wg, k_bg, v_wg, v_bg = model.local_kv_bwd(kv_ctx, lp, grad_k, grad_v)
                grad_seg = comm.reduce_scatter(
                    group, wrank, grad_full, dim=1, step=step, phase="backward", layer=_li
                )
                return grad_seg, k_wg, k_bg, v_wg, v_bg
        else:
            def kv_bwd(kv_ctx, lp, grad_k, grad_v, _li=li):
                gk_seg = comm.reduce_scatter(
                    group, wrank, grad_k, dim=1, step=step, phase="backward", layer=_li
                )
                gv_seg = comm.reduce_scatter(
                    group, wrank, grad_v, dim=1, step=step, phase="backward", layer=_li
                )
                grad_kx, k_wg, k_bg = model.linear3_bwd(kv_ctx, lp.attn_k, gk_seg)
                grad_vx, v_wg, v_bg = model.linear3_bwd(kv_ctx, lp.attn_v, gv_seg)
                return grad_kx + grad_vx, k_wg, k_bg, v_wg, v_bg
        grad_x, layer_grads[li] = model.layer_bwd(
            params.layers[li], cfg, policy, li, cache.layers[li], grad_x, kv_bwd
        )
    grad_tok, grad_pe = model.embed_bwd(cache.embed, cfg.vocab, policy, grad_x)
    if group.size > 1:
        grad_pe = grad_pe / group.size
    return Parameters(
        token_table=grad_tok,
        pos_table=grad_pe,
        layers=layer_grads,
        final_gain=final_gain_g,
        final_bias=final_bias_g,
        head=model.LinearParams(head_wg, head_bg),
    )


def sync(
    comm: Communicator,
    group: WorkerGroup,
    rank: int,
    grads: Parameters,
    *,
    step: int = 0,
    extra: float | None = None,
) -> tuple[Parameters, float | None]:
    """Average every gradient except the position rows across the group.

    All gradients travel in one flat all-reduce, so the ledger gains exactly
    one sync record per step.  ``extra`` (typically this worker's partial
    loss) rides along as a single trailing element and comes back averaged.
    """
    shared = [(n, a) for n, a in grads.named_arrays() if n != "pos_table"]
    vec = model.flatten_arrays([a for _, a in shared])
    if extra is not None:
        vec = np.concatenate([vec, np.array([extra], dtype=vec.dtype)])
    out = comm.all_reduce_mean(group, rank, vec, step=step, phase="sync")
    extra_mean = float(out[-1]) if extra is not None else None
    if extra is not None:
        out = out[: vec.size - 1]
    averaged = iter(model.unflatten_like(out, [a for _, a in shared]))
    merged = [a if n == "pos_table" else next(averaged) for n, a in grads.named_arrays()]
    return grads.replace_arrays(merged), extra_mean


def vertical_sync(
    comm: Communicator,
    data_group: WorkerGroup,
    rank: int,
    grads: Parameters,
    loss: float,
    *,
    step: int = 0,
) -> tuple[Parameters, float]:
    """Average all gradients (position rows included) and the loss across
    the replicas that share this worker's sequence block.

    Position rows travel too because data-group peers own the same rows of
    different replicas of the position table.  One flat all-reduce; the loss
    rides along as a trailing element, so afterwards every worker knows the
    loss averaged over the whole grid.
    """
    arrays = grads.arrays()
    flat = model.flatten_arrays(arrays)
    vec = np.concatenate([flat, np.array([loss], dtype=flat.dtype)])
    out = comm.all_reduce_mean(data_group, rank, vec, step=step, phase="sync")
    averaged = model.unflatten_like(out[:-1], arrays)
    return grads.replace_arrays(averaged), float(out[-1])


def train_step(
    worker: Worker,
    params: Parameters,
    cfg: ModelConfig,
    tokens_seg: np.ndarray,
    targets_seg: np.ndarray,
    *,
    policy: DropoutPolicy | None = None,
    step: int = 0,
    counters: StepCounters | None = None,
    fused: bool = True,
) -> tuple[float, Parameters]:
    """forward -> backward -> gradient sync on one worker's block, plus the
    vertical sync when the grid has more than one replica.  Returns the loss
    averaged over the group (over the grid, with replicas), identical on
    every worker, and the synced gradients."""
    partial_loss, cache = forward(
        worker, params, cfg, tokens_seg, targets_seg,
        policy=policy, step=step, counters=counters, fused=fused,
    )
    grads = backward(worker, params, cfg, cache, step=step)
    comm, rank = worker.comm, worker.rank
    grads, loss = sync(comm, worker.seq_group, rank, grads, step=step, extra=partial_loss)
    if worker.data_group.size > 1:
        grads, loss = vertical_sync(comm, worker.data_group, rank, grads, loss, step=step)
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
