"""Deterministic sequence-parallel transformer training on worker threads.

A small decoder-only transformer (numpy, hand-written backward) that can be
trained four ways with bit-for-bit reproducibility and, between engines,
exact numerical agreement:

- ``sequential``: one worker, the oracle.
- ``sharded``: the sequence is split across workers; attention runs against
  an all-gathered whole sequence; two collectives per layer plus one
  gradient average per step.
- ``baseline``: gather/scatter around rank-0 attention; eight collectives
  per layer, the reference point the sharded engine's schedule is measured
  against.
- ``hybrid``: data-parallel replicas of sharded groups with two-level
  gradient averaging.

Each engine is one per-step function driven by the same loop,
:func:`seqpar.grid.train`, on a replicas x workers grid, and every run
returns the same :class:`seqpar.grid.Run` record.

Entry points: :func:`seqpar.runner.run_experiment` or the ``seqpar`` CLI.
"""

from .collectives import CommLedger, CommRecord, Communicator, WorkerGroup, run_workers
from .costs import WEAK_SCALING_SCHEDULE, CostEstimate, estimate, weak_scaling_ratios
from .errors import (
    CommAborted,
    CommTimeout,
    DegenerateRowError,
    NumericsError,
    PartitionError,
    ShapeError,
)
from .grid import GridLayout, Run, ShardSpec
from .model import (
    ModelConfig,
    Parameters,
    init_params,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from .nnops import DropoutPolicy
from .runner import RunConfig, RunResult, run_experiment, verify_equivalence
from .tensor import StepCounters

__version__ = "0.1.0"

__all__ = [
    "CommAborted",
    "CommLedger",
    "CommRecord",
    "CommTimeout",
    "Communicator",
    "CostEstimate",
    "DegenerateRowError",
    "DropoutPolicy",
    "GridLayout",
    "ModelConfig",
    "NumericsError",
    "Parameters",
    "PartitionError",
    "Run",
    "RunConfig",
    "RunResult",
    "ShapeError",
    "ShardSpec",
    "StepCounters",
    "WEAK_SCALING_SCHEDULE",
    "WorkerGroup",
    "estimate",
    "init_params",
    "load_checkpoint",
    "param_count",
    "run_experiment",
    "run_workers",
    "save_checkpoint",
    "verify_equivalence",
    "weak_scaling_ratios",
    "__version__",
]
