"""Gather/scatter baseline: distribute the cheap elementwise steps, run
attention and the feed-forward whole on one worker.

Every worker holds a full parameter replica (including all position rows)
and a sequence block of the activations.  Layernorm, dropout and residual
adds run on the blocks; attention, the feed-forward and the loss head only
run on group rank 0, which receives the full activation through a gather
and hands each worker its block back through a scatter.  The backward pass
mirrors this with a gather where the forward scattered and a reduce-scatter
where it gathered (workers other than rank 0 contribute zeros).

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

from dataclasses import dataclass

import numpy as np

from . import grid, model
from .collectives import run_workers
from .errors import ShapeError
from .grid import GridLayout, Run, Worker
from .model import ModelConfig, Parameters
from .nnops import DropoutPolicy
from .tensor import StepCounters


def _zeros_like_params(params: Parameters) -> list[np.ndarray]:
    return [np.zeros_like(a) for a in params.arrays()]


@dataclass
class _LayerTape:
    """Per-layer activations a worker needs for its share of the backward."""

    ln1: tuple
    att_mask: np.ndarray | None
    ln2: tuple
    ff_mask: np.ndarray | None
    # rank 0 only:
    xh_full: np.ndarray | None = None
    q: np.ndarray | None = None
    k: np.ndarray | None = None
    v: np.ndarray | None = None
    scores: model.ScoreCache | None = None
    ctx: np.ndarray | None = None
    ffn: model.FfnCache | None = None


def train_step(
    worker: Worker,
    params: Parameters,
    cfg: ModelConfig,
    tokens: np.ndarray,
    targets: np.ndarray,
    *,
    policy: DropoutPolicy | None = None,
    step: int = 0,
    counters: StepCounters | None = None,
) -> tuple[float | None, Parameters]:
    """forward -> backward -> gradient sync on one worker; ``tokens`` and
    ``targets`` are the full-width batch (only rank 0 reads them).  Returns
    (the loss on rank 0, else None; the synced gradients)."""
    comm, group, spec = worker.comm, worker.seq_group, worker.spec
    rank = spec.rank
    policy = policy if policy is not None else DropoutPolicy.off()
    if rank == 0 and tokens.shape[1] != cfg.seq_len:
        raise ShapeError(f"expected {cfg.seq_len} token columns, got {tokens.shape[1]}")
    batch = tokens.shape[0]
    seg_samples, seg_positions = model.row_coords(batch, spec.block, spec.offset)
    full_shape = (batch, cfg.seq_len, cfg.embed_dim)

    # ---- forward -----------------------------------------------------
    if rank == 0:
        x_full, e_cache = model.embed_fwd(params, cfg, tokens, 0, policy)
    else:
        x_full, e_cache = None, None
    x_seg = comm.scatter(group, rank, x_full, src=0, dim=1, step=step, phase="forward")

    tapes = []
    for li, lp in enumerate(params.layers):
        xh_seg, ln1_c = model.norm3(x_seg, lp.ln1_gain, lp.ln1_bias)
        xh_full = comm.gather(
            group, rank, xh_seg, dst=0, dim=1, step=step, phase="forward", layer=li
        )
        tape = _LayerTape(ln1=ln1_c, att_mask=None, ln2=None, ff_mask=None)
        if rank == 0:
            k = model.linear3(xh_full, lp.attn_k)
            v = model.linear3(xh_full, lp.attn_v)
            q = model.linear3(xh_full, lp.attn_q)
            ctx, score_c = model.scores_fwd(q, k, v, 0, cfg, policy, li, counters)
            att_full = model.linear3(ctx, lp.attn_out)
            tape.xh_full, tape.q, tape.k, tape.v = xh_full, q, k, v
            tape.scores, tape.ctx = score_c, ctx
        else:
            att_full = None
        att_seg = comm.scatter(
            group, rank, att_full, src=0, dim=1, step=step, phase="forward", layer=li
        )
        att_seg, tape.att_mask = model.dropout3(
            att_seg, policy, li, "attn_out", seg_samples, seg_positions
        )
        x_mid = x_seg + att_seg

        yh_seg, tape.ln2 = model.norm3(x_mid, lp.ln2_gain, lp.ln2_bias)
        yh_full = comm.gather(
            group, rank, yh_seg, dst=0, dim=1, step=step, phase="forward", layer=li
        )
        if rank == 0:
            full_samples, full_positions = model.row_coords(batch, cfg.seq_len, 0)
            ff_full, tape.ffn = model.ffn_fwd(
                yh_full, lp, policy, li, full_samples, full_positions
            )
        else:
            ff_full = None
        ff_seg = comm.scatter(
            group, rank, ff_full, src=0, dim=1, step=step, phase="forward", layer=li
        )
        ff_seg, tape.ff_mask = model.dropout3(
            ff_seg, policy, li, "ffn_out", seg_samples, seg_positions
        )
        x_seg = x_mid + ff_seg
        tapes.append(tape)

    xL_full = comm.gather(group, rank, x_seg, dst=0, dim=1, step=step, phase="forward")
    if rank == 0:
        loss, h_cache = model.head_fwd(xL_full, params, targets)
    else:
        loss, h_cache = None, None

    # ---- backward ----------------------------------------------------
    grads = _zeros_like_params(params)
    names = [n for n, _ in params.named_arrays()]
    slot = {n: i for i, n in enumerate(names)}

    if rank == 0:
        grad_full, fg, fb, hw, hb = model.head_bwd(h_cache, params)
        grads[slot["final_gain"]] = fg
        grads[slot["final_bias"]] = fb
        grads[slot["head.weight"]] = hw
        grads[slot["head.bias"]] = hb
    else:
        grad_full = np.zeros(full_shape, dtype=cfg.dtype)
    grad_seg = comm.reduce_scatter(
        group, rank, grad_full, dim=1, step=step, phase="backward"
    )

    for li in range(len(params.layers) - 1, -1, -1):
        lp = params.layers[li]
        tape = tapes[li]
        pfx = f"layer{li}."

        g_ff_seg = model.dropout3_bwd(grad_seg, policy, tape.ff_mask)
        g_ff_full = comm.gather(
            group, rank, g_ff_seg, dst=0, dim=1, step=step, phase="backward", layer=li
        )
        if rank == 0:
            g_yh_full, (in_wg, in_bg, out_wg, out_bg) = model.ffn_bwd(
                tape.ffn, lp, policy, g_ff_full
            )
            grads[slot[pfx + "ff_in.weight"]] = in_wg
            grads[slot[pfx + "ff_in.bias"]] = in_bg
            grads[slot[pfx + "ff_out.weight"]] = out_wg
            grads[slot[pfx + "ff_out.bias"]] = out_bg
        else:
            g_yh_full = np.zeros(full_shape, dtype=cfg.dtype)
        g_yh_seg = comm.reduce_scatter(
            group, rank, g_yh_full, dim=1, step=step, phase="backward", layer=li
        )
        g_ln2_x, ln2_gg, ln2_bg = model.norm3_bwd(tape.ln2, lp.ln2_gain, g_yh_seg)
        grads[slot[pfx + "ln2_gain"]] = ln2_gg
        grads[slot[pfx + "ln2_bias"]] = ln2_bg
        grad_mid = grad_seg + g_ln2_x

        g_att_seg = model.dropout3_bwd(grad_mid, policy, tape.att_mask)
        g_att_full = comm.gather(
            group, rank, g_att_seg, dst=0, dim=1, step=step, phase="backward", layer=li
        )
        if rank == 0:
            grad_ctx, ow, ob = model.linear3_bwd(tape.ctx, lp.attn_out, g_att_full)
            gq, gk, gv = model.scores_bwd(
                tape.scores, tape.q, tape.k, tape.v, grad_ctx, cfg, policy
            )
            g_xh_q, qw, qb = model.linear3_bwd(tape.xh_full, lp.attn_q, gq)
            g_xh_kv, kw, kb, vw, vb = model.local_kv_bwd(tape.xh_full, lp, gk, gv)
            g_xh_full = g_xh_q + g_xh_kv
            for name, g in (
                ("attn_q.weight", qw), ("attn_q.bias", qb),
                ("attn_k.weight", kw), ("attn_k.bias", kb),
                ("attn_v.weight", vw), ("attn_v.bias", vb),
                ("attn_out.weight", ow), ("attn_out.bias", ob),
            ):
                grads[slot[pfx + name]] = g
        else:
            g_xh_full = np.zeros(full_shape, dtype=cfg.dtype)
        g_xh_seg = comm.reduce_scatter(
            group, rank, g_xh_full, dim=1, step=step, phase="backward", layer=li
        )
        g_ln1_x, ln1_gg, ln1_bg = model.norm3_bwd(tape.ln1, lp.ln1_gain, g_xh_seg)
        grads[slot[pfx + "ln1_gain"]] = ln1_gg
        grads[slot[pfx + "ln1_bias"]] = ln1_bg
        grad_seg = grad_mid + g_ln1_x

    g_x0_full = comm.gather(group, rank, grad_seg, dst=0, dim=1, step=step, phase="backward")
    if rank == 0:
        grad_tok, grad_pe = model.embed_bwd(e_cache, cfg.vocab, policy, g_x0_full)
        grads[slot["token_table"]] = grad_tok
        grads[slot["pos_table"]] = grad_pe

    # ---- sync ----------------------------------------------------------
    # Summing (not averaging) completes the gradients: exactly one worker
    # computed each entry, everyone else contributed zeros, except the
    # layernorm gain/bias grads where each worker's partial sum over its
    # own rows is a genuine addend.
    vec = model.flatten_arrays(grads)
    vec = comm.all_reduce(group, rank, vec, op="sum", step=step, phase="sync")
    full_grads = params.replace_arrays(model.unflatten_like(vec, grads))
    return loss, full_grads


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
