"""The worker grid and the one training loop every engine runs on.

A run is a grid of R data-parallel replicas x N sequence workers
(:class:`GridLayout`): the sequential engine is the 1x1 grid, sharded and
baseline are 1xN, hybrid is RxN.  Ranks are laid out replica-major: replica
``d`` owns ranks ``[d*N, (d+1)*N)``, which form its sequence group; the ranks
holding sequence block ``s`` across all replicas (``s, N+s, 2N+s, ...``) form
data group ``s``.  An engine is nothing but its per-step function (forward,
backward, gradient sync); :func:`train` owns everything else, and every
engine's gradient sync is :func:`all_reduce_grads`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model, optim, tensor
from .collectives import Communicator, WorkerGroup
from .errors import PartitionError, ShapeError
from .model import ModelConfig, Parameters, Rows
from .nnops import DropoutPolicy
from .tensor import StepCounters


@dataclass(frozen=True)
class GridLayout:
    """Replica-major rank layout for R data-parallel copies of an N-worker
    sequence group."""

    replicas: int
    seq_workers: int

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError(f"replicas must be positive, got {self.replicas}")
        if self.seq_workers < 1:
            raise ValueError(f"workers must be positive, got {self.seq_workers}")

    @property
    def world(self) -> int:
        return self.replicas * self.seq_workers

    def coords(self, rank: int) -> tuple[int, int]:
        """(replica index, sequence index) of a world rank."""
        return divmod(rank, self.seq_workers)

    def seq_members(self, replica: int) -> tuple[int, ...]:
        base = replica * self.seq_workers
        return tuple(range(base, base + self.seq_workers))

    def data_members(self, seq_index: int) -> tuple[int, ...]:
        return tuple(seq_index + d * self.seq_workers for d in range(self.replicas))


ENGINES = ("sequential", "sharded", "baseline", "hybrid")


def check_grid(engine: str, layout: GridLayout, seq_len: int) -> None:
    """Raise unless ``engine`` runs on ``layout`` with sequences of ``seq_len``:
    only hybrid takes more than one replica, sequential takes one worker, and
    the workers split the sequence evenly."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}, expected one of {ENGINES}")
    if engine != "hybrid" and layout.replicas != 1:
        raise ValueError(f"the {engine} engine takes replicas=1; use engine=hybrid")
    if engine == "sequential" and layout.seq_workers != 1:
        raise ValueError("the sequential engine runs on a single worker")
    if seq_len % layout.seq_workers:
        raise PartitionError(
            f"sequence length {seq_len} not divisible by {layout.seq_workers} workers"
        )


def make_groups(
    comm: Communicator, layout: GridLayout
) -> tuple[list[WorkerGroup], list[WorkerGroup]]:
    """All sequence groups (indexed by replica) and data groups (indexed by
    sequence position).  Build once, orchestrator-side."""
    seq_groups = [comm.group("sequence", layout.seq_members(d)) for d in range(layout.replicas)]
    data_groups = [
        comm.group("data", layout.data_members(s)) for s in range(layout.seq_workers)
    ]
    return seq_groups, data_groups


@dataclass(frozen=True)
class ShardSpec:
    """Which rows of the sequence a worker owns and which it computes.

    A worker owns a contiguous block (:attr:`block_rows`): its tokens, its
    rows of the position table, its embeddings.  It computes its layers
    (past any input gather) and its loss on :meth:`compute_rows`.  Unfused
    those are its own block.  Fused, each layer all-gathers its whole
    input, so any rows will do, and the worker computes its
    :attr:`balanced_rows`, which give every worker of a causal group an
    equal share of the score work."""

    rank: int
    workers: int
    seq_len: int

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("worker count must be positive")
        if not 0 <= self.rank < self.workers:
            raise ValueError(f"rank {self.rank} outside worker range [0, {self.workers})")
        if self.seq_len % self.workers != 0:
            raise PartitionError(
                f"sequence length {self.seq_len} not divisible by {self.workers} workers"
            )

    @property
    def block(self) -> int:
        return self.seq_len // self.workers

    @property
    def offset(self) -> int:
        return self.rank * self.block

    @property
    def block_rows(self) -> Rows:
        return ((self.offset, self.offset + self.block),)

    @property
    def balanced_rows(self) -> Rows:
        """Chunks ``rank`` and ``2N-1-rank`` of the sequence cut into 2N
        chunks: N front chunks of ``block // 2`` rows, then N back chunks of
        the rest of a block.  Rows early in a causal sequence see few keys
        and late rows many, so every worker pairs one of each and all score
        equal shares, up to the band rounding.  Adjacent chunks (the last
        worker's, so every chunk at N=1) merge and empty ones drop."""
        n, front = self.workers, self.block // 2
        back = self.block - front
        late = n * front + (n - 1 - self.rank) * back
        chunks = ((self.rank * front, (self.rank + 1) * front), (late, late + back))
        if chunks[0][1] == late:
            chunks = ((chunks[0][0], late + back),)
        return tuple((start, stop) for start, stop in chunks if stop > start)

    def compute_rows(self, fused: bool) -> Rows:
        """The rows this worker computes: :attr:`balanced_rows` when its
        layers gather their whole input (``fused``), else its own block."""
        return self.balanced_rows if fused else self.block_rows


def shard_params(full: Parameters, spec: ShardSpec) -> Parameters:
    """A worker's parameters: a deep copy of ``full`` except the position
    table, of which only the worker's own rows are kept."""
    if full.pos_table.shape[0] != spec.seq_len:
        raise ShapeError(
            f"position table has {full.pos_table.shape[0]} rows, expected {spec.seq_len}"
        )
    p = full.copy()
    p.pos_table = np.ascontiguousarray(full.pos_table[spec.offset : spec.offset + spec.block])
    return p


def slice_batch(x: np.ndarray, spec: ShardSpec, rows: Rows | None = None) -> np.ndarray:
    """This worker's columns of a (batch, seq_len) token or target array: its
    own block, or the columns at ``rows``."""
    if x.shape[1] != spec.seq_len:
        raise ShapeError(f"expected {spec.seq_len} columns, got {x.shape[1]}")
    return np.ascontiguousarray(model.take_rows(x, spec.block_rows if rows is None else rows))


def reassemble_params(shards: list[Parameters]) -> Parameters:
    """Full parameter set from one sequence group's shards in block order:
    the first shard's replicated parameters plus every block of position rows."""
    full = shards[0].copy()
    full.pos_table = np.concatenate([p.pos_table for p in shards], axis=0)
    return full


@dataclass(frozen=True)
class Worker:
    """One rank's place in the grid, as an engine step sees it."""

    comm: Communicator
    spec: ShardSpec           # its block of the sequence within its replica
    seq_group: WorkerGroup    # its replica's sequence workers
    data_group: WorkerGroup   # the ranks holding the same block in every replica

    @property
    def rank(self) -> int:
        """World rank, the id collectives address this worker by (``spec.rank``
        is its position inside the sequence group)."""
        return self.seq_group.members[self.spec.rank]


def all_reduce_grads(
    comm: Communicator,
    group: WorkerGroup,
    rank: int,
    grads: Parameters,
    loss: float | None,
    *,
    step: int,
    op: str = "mean",
    local: tuple[str, ...] = (),
) -> tuple[Parameters, float | None]:
    """Reduce every gradient not named in ``local`` across ``group`` in one
    flat all-reduce, so the ledger gains exactly one sync record.  Gradients
    named in ``local`` come back untouched; a ``loss`` rides along as one
    trailing element and comes back reduced too."""
    named = grads.named_arrays()
    shared = [a for n, a in named if n not in local]
    tail = () if loss is None else (loss,)  # its slot joins the one copy
    vec = model.flatten_arrays(shared, *tail)
    out = comm.all_reduce(group, rank, vec, op=op, step=step, phase="sync")
    if loss is not None:
        loss, out = float(out[-1]), out[:-1]
    reduced = iter(model.unflatten_like(out, shared))
    merged = [a if n in local else next(reduced) for n, a in named]
    return grads.replace_arrays(merged), loss


@dataclass
class Run:
    """Everything a training run hands back, for every engine and grid."""

    comm: Communicator                  # ``comm.ledger`` holds every collective
    step_losses: list[float]            # per step, as rank 0 reports it
    grad_norms: list[float]             # [step], of the whole synced gradient
    counters: list[list[StepCounters]]  # [rank][step]
    last_grads: list[Parameters]        # [rank], synced gradients of the final step
    workers: list[Parameters]           # [rank], the parameters each rank ends with
    final_params: Parameters            # the whole trained parameter set


def train(
    step,
    cfg: ModelConfig,
    params: Parameters,
    layout: GridLayout,
    batches: list[tuple[np.ndarray, np.ndarray]],
    *,
    lr: float,
    run_workers,
    policy: DropoutPolicy | None = None,
    optimizer: str = "sgd",
    split: bool = True,
    timeout: float = 60.0,
) -> Run:
    """Drive ``len(batches)`` training steps of ``step`` on a ``layout`` grid.

    Every rank runs the same loop: per step it takes its replica's rows of
    the combined batch, derives the dropout key, calls ``step(worker, params,
    cfg, tokens, targets, *, policy, step)`` for ``(loss, synced grads)``,
    checks the gradients for NaN and Inf in one pass and applies the
    optimizer update; ``tensor.counting`` collects the step's
    counters around the call.  Each rank's whole loop runs inside
    ``tensor.recycling``, so the score path's scratch buffers are reused
    from step to step and layer to layer for the run.  ``batches[s]`` holds
    ``R*B`` rows; replica ``d`` trains on rows ``[d*B, (d+1)*B)``, every
    column of them: a step takes the columns it needs itself.  With
    ``split`` a rank owns only its block of the position table; without
    it, rank 0's whole copy of the parameters is the result.
    ``run_workers`` (normally :func:`seqpar.collectives.run_workers`)
    starts one thread per rank; each engine passes the name bound in its
    own module, which is where perfbench/spans.py wraps it to trace the
    worker threads.  When ``split`` puts more than one rank to work at
    once, the ranks share the usable CPUs for BLAS threads (``cpus //
    world`` each, through ``tensor.blas_threads``); the count is restored
    on return or raise.

    The reported gradient norm covers the whole parameter set whatever the
    layout: rank 0's squared norm plus the position-row squares of the other
    ranks of its sequence group (which own the rest of the table when
    ``split``), one square root at the end.
    """
    for tokens, _ in batches:
        if tokens.shape[0] % layout.replicas:
            raise ValueError(
                f"batch of {tokens.shape[0]} rows does not split into "
                f"{layout.replicas} replica batches"
            )
    comm = Communicator(layout.world, timeout=timeout)
    seq_groups, data_groups = make_groups(comm, layout)
    policy = policy if policy is not None else DropoutPolicy.off()

    @tensor.recycling()  # each call, so each rank thread, gets its own free list
    def rank_loop(rank: int):
        replica, seq_index = layout.coords(rank)
        spec = ShardSpec(seq_index, layout.seq_workers, cfg.seq_len)
        worker = Worker(comm, spec, seq_groups[replica], data_groups[seq_index])
        own = shard_params(params, spec) if split else params.copy()
        update = optim.make_update(optimizer, own, lr)
        losses, counts, squares, grads = [], [], [], None
        for s, (tokens, targets) in enumerate(batches):
            step_policy = policy.at_step(s)
            if layout.replicas > 1:  # replicas draw independent masks
                step_policy = step_policy.fork(replica)
            rows = tokens.shape[0] // layout.replicas
            tokens = tokens[replica * rows : (replica + 1) * rows]
            targets = targets[replica * rows : (replica + 1) * rows]
            counters = StepCounters()
            with tensor.counting(counters):
                loss, grads = step(worker, own, cfg, tokens, targets, policy=step_policy, step=s)
                tensor.check_finite(model.flatten_arrays(grads.arrays()),
                                    f"rank {rank} step {s} gradients")
                own = update(own, grads)
            losses.append(loss)
            counts.append(counters)
            # rank 0 folds every gradient, the others only their position rows
            squares.append(model.grad_norm(grads, squared=True) if rank == 0
                           else model.square_sum(grads.pos_table))
        return own, losses, counts, squares, grads

    # only split ranks compute at once; baseline's rank 0 computes while the
    # others wait, so it keeps every core
    cap = tensor.usable_cpus() // layout.world if split and layout.world > 1 else None
    with tensor.blas_threads(cap):
        results = run_workers(layout.world, rank_loop, comm=comm)
    owned = [r[0] for r in results]
    peers = layout.seq_members(0)[1:] if split else ()
    norms = [float(np.sqrt(total + sum(results[r][3][s] for r in peers)))
             for s, total in enumerate(results[0][3])]
    return Run(
        comm=comm,
        step_losses=results[0][1],
        counters=[r[2] for r in results],
        grad_norms=norms,
        last_grads=[r[4] for r in results],
        workers=owned,
        final_params=(
            reassemble_params([owned[r] for r in layout.seq_members(0)]) if split else owned[0]
        ),
    )
