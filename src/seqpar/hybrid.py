"""Two-level parallelism: the sequence-parallel engine on a replicas x workers grid.

A grid of R x N workers trains R sequences at once (rank layout in
:class:`seqpar.grid.GridLayout`).  The engine is the sharded step,
:func:`seqpar.sharded.train_step`: the ordinary sequence-parallel step inside
every replica, followed by :func:`seqpar.sharded.vertical_sync`, which
averages all gradients and the loss across the replicas.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import grid, sharded
from .collectives import run_workers
from .grid import GridLayout, Run
from .model import ModelConfig, Parameters


def run_steps(
    cfg: ModelConfig,
    params_full: Parameters,
    layout: GridLayout,
    batches: list[tuple[np.ndarray, np.ndarray]],
    *,
    fused: bool = True,
    **kw,
) -> Run:
    """Drive ``len(batches)`` steps on an R x N thread grid; ``batches[s]``
    is one combined batch of ``R*B`` rows.  ``kw`` (lr, policy, optimizer,
    timeout) is passed to :func:`seqpar.grid.train`."""
    return grid.train(
        partial(sharded.train_step, fused=fused), cfg, params_full, layout, batches,
        run_workers=run_workers, **kw,
    )
