"""Gather/scatter baseline: distribute the cheap elementwise steps, run
attention and the feed-forward whole on one worker.

Every worker holds a full parameter replica (including all position rows)
and a contiguous block of the activations.  The step is the model's own
:func:`~seqpar.model.forward` and :func:`~seqpar.model.backward` (imported
by name, so perfbench/spans.py roots the step at :func:`train_step` alone)
with one placement, :func:`_on_rank0`, which runs a part of the model on
group rank 0 over the whole sequence.  Both sublayers of each layer
(attention, feed-forward) gather their input there and scatter their output
back, so layernorm, dropout and residual adds run on the blocks.  The
embedding only scatters, as rank 0 already holds every token; the loss head
only gathers, as the loss is a scalar on rank 0.  Each backward gathers
where its forward scattered and reduce-scatters where it gathered.

Communication per training step with L layers:
    forward   1 scatter (embedding out) + per layer [gather, scatter] x 2 + 1 gather
    backward  1 reduce-scatter + per layer [gather, reduce-scatter] x 2 + 1 gather
    sync      1 all-reduce (sum; a worker's flat gradient is zero where it
              computed none)
Eight layer-tagged records per layer per step, four each way.

The engine is :func:`train_step`; :func:`run_steps` drives it on a 1xN grid
through :func:`seqpar.grid.train`.
"""

from __future__ import annotations

from functools import cache, partial

import numpy as np

from . import grid, model
from .collectives import run_workers
from .grid import GridLayout, Run, Worker
from .model import ModelConfig, Parameters, backward, forward
from .nnops import DropoutPolicy


def _on_rank0(worker: Worker, step: int, layer: int | None, part, y, rows, *,
              gather: bool = True, scatter: bool = True):
    """Run ``part`` (a sublayer, the embedding or the loss head) on rank 0
    over the whole sequence, gathering its input ``y`` (the block at
    ``rows``) and scattering its output as switched; the backward mirrors
    both.  The other ranks hold no cache and compute no weight gradients."""
    comm, group, rank = worker.comm, worker.seq_group, worker.spec.rank
    tag = dict(dim=1, step=step, layer=layer)
    whole = (y.shape[0], worker.spec.seq_len, *y.shape[2:]), y.dtype
    if gather:
        y = comm.gather(group, rank, y, dst=0, phase="forward", **tag)
    out, cache = part(y, ((0, worker.spec.seq_len),)) if rank == 0 else (None, None)
    if scatter:
        out = comm.scatter(group, rank, out, src=0, phase="forward", **tag)

    def place_bwd(part_bwd, cache, grad_out):
        if scatter:
            grad_out = comm.gather(group, rank, grad_out, dst=0, phase="backward", **tag)
        grad_in, grads = (part_bwd(cache, grad_out) if rank == 0
                          else (np.zeros(*whole) if gather else None, None))
        if gather:
            grad_in = comm.reduce_scatter(group, rank, grad_in, phase="backward", **tag)
        return grad_in, grads

    return out, cache, place_bwd


@cache
def _flat_layout(cfg: ModelConfig) -> tuple[dict[str, slice], int]:
    """Each gradient's slice of a rank's flat vector, by name, and its length."""
    shapes = model.param_shapes(cfg)
    return model.flat_slices(shapes), model.param_count(shapes)


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
    comm, group, rank = worker.comm, worker.seq_group, worker.spec.rank

    def on_rank0(layer, **switches):
        return partial(_on_rank0, worker, step, layer, **switches)

    loss, cache = forward(params, cfg, tokens, targets, policy, rows=worker.spec.block_rows,
                          layer_place_fwd=on_rank0, embed_place_fwd=on_rank0(None, gather=False),
                          head_place_fwd=on_rank0(None, scatter=False))
    grads = backward(params, cfg, cache)
    # Summing (not averaging) completes the gradients: one worker computed
    # each entry and the others left it zero, except the layernorm gain/bias
    # grads, where each worker's partial sum over its own rows is an addend.
    at, size = _flat_layout(cfg)
    vec = np.zeros(size, cfg.dtype)
    for name, g in grads.named_arrays():
        vec[at[name]] = g.reshape(-1)
    return loss, comm.all_reduce(group, rank, vec, op="sum", step=step, phase="sync")


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
