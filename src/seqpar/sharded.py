"""Sequence-parallel engine: the model's own stack, with each layer's keys
and values drawn from the whole sequence.

Each worker owns one set of rows of the sequence, its balanced rows
(:attr:`seqpar.grid.ShardSpec.balanced_rows`), from the embedding to the
loss: their tokens and targets, their rows of the position table, their
activations, and a full replica of every other parameter.  The rows are two
chunks of the sequence, one early and one late, so under a causal mask
every worker scores an equal share of the keys.  The forward pass is
:func:`seqpar.model.forward` over those rows (imported as ``forward``, the
name perfbench/spans.py wraps as the sharded step's root) and the backward
pass is :func:`seqpar.model.backward`; the engine only supplies each layer's
key/value hook (:func:`layer_kv_fwd`), built on two collectives: ``whole``
all-gathers every worker's rows and puts them in position order, ``own``
reduce-scatters a whole-sequence gradient in the order the gather received
the rows, so each worker gets the summed gradient of its own rows.  Fused,
a layer gathers its normalized input once and projects keys and values over
the whole sequence; its backward hands the key/value path's input gradient
to ``own``.  Unfused, a worker projects its own rows and gathers keys and
values one at a time.  Gradients of replicated parameters are averaged in a
single flat all-reduce per step; position rows never cross the sequence
group.

Communication per training step with L layers:
    forward   L all-gathers (2L unfused)
    backward  L reduce-scatters (2L unfused)
    sync      1 all-reduce, plus 1 across the data group on a grid with
              more than one replica (the hybrid engine)
Nothing else crosses worker boundaries.  :func:`sync` is the whole sync
phase, both all-reduces and the position rows' average.  Every collective
carries ``batch * seq_len * embed_dim`` elements, and the two forms agree
to rounding.

The engine is :func:`train_step`; :func:`run_steps` drives it on a 1xN grid
through :func:`seqpar.grid.train`.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import grid, model
from .collectives import run_workers
from .grid import GridLayout, Run, Worker
from .model import ModelConfig, Parameters, forward
from .nnops import DropoutPolicy


def layer_kv_fwd(worker: Worker, step: int, layer: int, fused: bool):
    """One layer's key/value hook, the ``kv_fwd`` of
    :func:`seqpar.model.layer_fwd`, which also returns its backward.

    Fused, the forward projects keys and values from the whole normalized
    input, ``whole(xh)``, and the backward applies ``own`` to that
    projection's input gradient.  Unfused, keys and values are projected
    from the worker's own rows and gathered (and their gradients
    reduce-scattered) one at a time.  ``model.local_kv_fwd`` and
    ``local_kv_bwd`` are looked up at call time."""
    comm, group, rank = worker.comm, worker.seq_group, worker.rank
    tag = dict(dim=1, step=step, layer=layer)
    order, inverse = grid.gather_order(group.size, worker.spec.seq_len)

    def whole(a):
        """Every worker's rows of ``a``, in position order."""
        return comm.all_gather(group, rank, a, phase="forward", **tag)[:, inverse]

    def own(g):
        """Every worker's whole-sequence gradient ``g``, summed, at this
        worker's rows."""
        return comm.reduce_scatter(group, rank, g[:, order], phase="backward", **tag)

    if fused:
        def kv_fwd(xh, lp):
            k, v, kv_ctx, _ = model.local_kv_fwd(whole(xh), lp)
            return k, v, kv_ctx, kv_bwd

        def kv_bwd(kv_ctx, lp, grad_k, grad_v):
            grad_x, *weight_grads = model.local_kv_bwd(kv_ctx, lp, grad_k, grad_v)
            return own(grad_x), *weight_grads
    else:
        def kv_fwd(xh, lp):
            k, v, _, _ = model.local_kv_fwd(xh, lp)
            return whole(k), whole(v), xh, kv_bwd

        def kv_bwd(kv_ctx, lp, grad_k, grad_v):
            return model.local_kv_bwd(kv_ctx, lp, own(grad_k), own(grad_v))

    return kv_fwd


def sync(
    worker: Worker, grads: Parameters, loss: float, *, step: int
) -> tuple[np.ndarray, float]:
    """The step's gradient sync of ``model.backward``'s ``grads`` and the
    partial loss: average every gradient except the position rows, and the
    loss, across the sequence group; then, on a grid with more than one
    replica, average everything across the data group.  Returns the synced
    gradients as one flat vector in named order and the loss.

    Position rows cross the data group only: its members own the same rows
    of different replicas of the position table.  The reduce-scatters hand
    each worker the *sum* of every worker's credit to its position rows, so
    that gradient is divided by the group size once as it is spliced into
    the averaged vector at its offset; like the replicated parameters, it is
    then the gradient of the group-mean loss.  Afterwards every worker holds
    the loss averaged over the whole grid.  The data group's all-reduce
    takes the spliced vector with its loss slot as it is, and its output,
    shared by the data group, is the gradient.
    """
    comm, rank, group = worker.comm, worker.rank, worker.seq_group
    at = model.flat_slices(grads)["pos_table"].start
    # no name holds the input, so it is freed before the splice below copies
    out = comm.all_reduce(
        group, rank,
        model.flatten_arrays([a for n, a in grads.named_arrays() if n != "pos_table"], loss),
        step=step, phase="sync")
    vec = model.flatten_arrays([out[:at], grads.pos_table / group.size, out[at:]])
    if worker.data_group.size > 1:
        vec = comm.all_reduce(worker.data_group, rank, vec, step=step, phase="sync")
    return vec[:-1], float(vec[-1])


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
) -> tuple[float, np.ndarray]:
    """forward -> backward -> gradient sync on one worker, which takes the
    columns at its balanced rows of the (batch, seq_len) ``tokens`` and
    ``targets``, and runs the model's forward over those rows with its
    key/value hooks.  Returns the loss averaged over the grid, identical on
    every worker, and the synced gradients as one flat vector (:func:`sync`).
    """
    spec = worker.spec
    partial_loss, cache = forward(
        params, cfg, grid.slice_batch(tokens, spec), grid.slice_batch(targets, spec), policy,
        rows=spec.balanced_rows, layer_kv_fwd=partial(layer_kv_fwd, worker, step, fused=fused),
    )
    grads = model.backward(params, cfg, cache)
    grad_vec, loss = sync(worker, grads, partial_loss, step=step)
    return loss, grad_vec


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
