"""Gather/scatter baseline: distribute the cheap elementwise steps, run
attention and the feed-forward whole on one worker.

Every worker holds a full parameter replica (including all position rows)
and a sequence block of the activations.  The layers are the shared
:func:`seqpar.model.layer_fwd`/:func:`~seqpar.model.layer_bwd`, placed so
that layernorm, dropout and residual adds run on the blocks while both
sublayers (attention, feed-forward) run on group rank 0: it receives the
sublayer's full input through a gather, runs it over the whole sequence and
hands each worker its block of the output back through a scatter.  The
embedding and the loss head also run on rank 0 only.  The placement hands
each layer's cache its backward, which gathers where the forward scattered
and reduce-scatters where it gathered (workers other than rank 0
contribute zeros).

Communication per training step with L layers:
    forward   1 scatter (embedding out) + per layer [gather, scatter] x 2
    backward  1 reduce-scatter + per layer [gather, reduce-scatter] x 2 + 1 gather
    sync      1 all-reduce (sum; zeros stand in for gradients a worker
              did not compute)
Eight layer-tagged records per layer per step, four each way.

The engine is :func:`train_step`; :func:`run_steps` drives it on a 1xN grid
through :func:`seqpar.grid.train`.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import grid, model
from .collectives import run_workers
from .grid import GridLayout, Run, Worker
from .model import ModelConfig, Parameters
from .nnops import DropoutPolicy, LinearParams


def _on_rank0_fwd(worker: Worker, step: int, layer: int, sublayer, y, rows):
    """Sublayer placement: gather ``y`` (the block at ``rows``) onto rank 0,
    run ``sublayer`` there over the whole sequence, scatter its output
    back.  Only rank 0 holds a cache; the backward is :func:`_on_rank0_bwd`."""
    comm, group, rank = worker.comm, worker.seq_group, worker.spec.rank
    tag = dict(dim=1, step=step, phase="forward", layer=layer)
    y_full = comm.gather(group, rank, y, dst=0, **tag)
    whole = ((0, worker.spec.seq_len),)
    out_full, cache = sublayer(y_full, whole) if rank == 0 else (None, None)
    out = comm.scatter(group, rank, out_full, src=0, **tag)
    return out, cache, partial(_on_rank0_bwd, worker, step, layer)


def _on_rank0_bwd(worker: Worker, step: int, layer: int, sublayer_bwd, cache, grad_out,
                  weights):
    """Backward of :func:`_on_rank0_fwd`: gather the output gradient onto
    rank 0, run the backward there and reduce-scatter the input gradient.
    Other ranks send zeros and return zero weight gradients."""
    comm, group, rank = worker.comm, worker.seq_group, worker.spec.rank
    tag = dict(dim=1, step=step, phase="backward", layer=layer)
    grad_full = comm.gather(group, rank, grad_out, dst=0, **tag)
    if rank == 0:
        grad_in, grads = sublayer_bwd(cache, grad_full)
    else:  # a sublayer's input has its output's shape
        b, m, e = grad_out.shape
        grad_in = np.zeros((b, m * group.size, e), dtype=grad_out.dtype)
        grads = tuple(LinearParams(*map(np.zeros_like, (w.weight, w.bias))) for w in weights)
    return comm.reduce_scatter(group, rank, grad_in, **tag), grads


def train_step(
    worker: Worker,
    params: Parameters,
    cfg: ModelConfig,
    tokens: np.ndarray,
    targets: np.ndarray,
    *,
    policy: DropoutPolicy | None = None,
    step: int = 0,
) -> tuple[float | None, np.ndarray]:
    """forward -> backward -> gradient sync on one worker; ``tokens`` and
    ``targets`` are the full-width batch (only rank 0 reads them).  Returns
    (the loss on rank 0, else None; the synced gradients as one flat
    vector, the all-reduce's output that every worker shares)."""
    comm, group, spec = worker.comm, worker.seq_group, worker.spec
    rank = spec.rank
    policy = policy if policy is not None else DropoutPolicy.off()
    fwd = dict(dim=1, step=step, phase="forward")
    bwd = dict(dim=1, step=step, phase="backward")

    # ---- forward -----------------------------------------------------
    x_full, e_cache = (model.embed_fwd(params, cfg, tokens, ((0, cfg.seq_len),), policy)
                       if rank == 0 else (None, None))
    x = comm.scatter(group, rank, x_full, src=0, **fwd)
    caches = []
    for li, lp in enumerate(params.layers):
        place = partial(_on_rank0_fwd, worker, step, li)
        x, c = model.layer_fwd(lp, cfg, policy, li, x, spec.block_rows, place_fwd=place)
        caches.append(c)
    x_full = comm.gather(group, rank, x, dst=0, **fwd)
    loss, h_cache = model.head_fwd(x_full, params, targets) if rank == 0 else (None, None)

    # ---- backward ----------------------------------------------------
    if rank == 0:
        grad_full, final_gain_g, final_bias_g, head_wg, head_bg = model.head_bwd(h_cache, params)
    else:
        grad_full = np.zeros((tokens.shape[0], cfg.seq_len, cfg.embed_dim), dtype=cfg.dtype)
        final_gain_g, final_bias_g = map(np.zeros_like, (params.final_gain, params.final_bias))
        head_wg, head_bg = map(np.zeros_like, (params.head.weight, params.head.bias))
    grad_x = comm.reduce_scatter(group, rank, grad_full, **bwd)
    layer_grads: list[model.LayerParams | None] = [None] * len(params.layers)
    for li in range(len(params.layers) - 1, -1, -1):
        grad_x, layer_grads[li] = model.layer_bwd(params.layers[li], cfg, policy, li,
                                                  caches[li], grad_x)
    grad_full = comm.gather(group, rank, grad_x, dst=0, **bwd)
    if rank == 0:
        grad_tok, grad_pe = model.embed_bwd(e_cache, cfg.vocab, policy, grad_full)
    else:
        grad_tok, grad_pe = map(np.zeros_like, (params.token_table, params.pos_table))
    grads = Parameters(token_table=grad_tok, pos_table=grad_pe, layers=layer_grads,
                       final_gain=final_gain_g, final_bias=final_bias_g,
                       head=LinearParams(head_wg, head_bg))

    # ---- sync ----------------------------------------------------------
    # Summing (not averaging) completes the gradients: exactly one worker
    # computed each entry, everyone else contributed zeros, except the
    # layernorm gain/bias grads where each worker's partial sum over its
    # own rows is a genuine addend.
    return loss, comm.all_reduce(group, rank, model.flatten_arrays(grads.arrays()), op="sum",
                                 step=step, phase="sync")


def run_steps(
    cfg: ModelConfig,
    params_full: Parameters,
    n_workers: int,
    batches: list[tuple[np.ndarray, np.ndarray]],
    **kw,
) -> Run:
    """Drive ``len(batches)`` steps on ``n_workers`` threads; the loss comes
    off rank 0, which is the only worker that computes it.  ``kw`` (lr,
    policy, optimizer, timeout) is passed to :func:`seqpar.grid.train`."""
    return grid.train(
        train_step, cfg, params_full, GridLayout(1, n_workers), batches,
        split=False, run_workers=run_workers, **kw,
    )
