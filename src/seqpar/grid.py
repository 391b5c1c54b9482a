"""The worker grid and the one training loop every engine runs on.

A run is a grid of R data-parallel replicas x N sequence workers
(:class:`GridLayout`): the sequential engine is the 1x1 grid, sharded and
baseline are 1xN, hybrid is RxN.  Ranks are laid out replica-major: replica
``d`` owns ranks ``[d*N, (d+1)*N)``, which form its sequence group; the ranks
at sequence index ``s`` across all replicas (``s, N+s, 2N+s, ...``) form
data group ``s``.  An engine is nothing but its per-step function (forward,
backward, gradient sync); :func:`train` owns everything else.  Each
engine's sync makes its own all-reduces, and every step hands :func:`train`
its gradient as one flat vector, which the finite check, the optimizer
update and the gradient norm read as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

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
    """The rows of the sequence a worker owns: its :attr:`balanced_rows`.

    From the embedding to the loss a worker holds only those rows: their
    tokens and targets, their rows of the position table, their
    activations.  Under a causal mask the balanced rows give every worker
    of a group an equal share of the score work.  :attr:`block` is their
    count and :attr:`block_rows` the contiguous block of that size at the
    worker's index, which the baseline engine scatters and gathers."""

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
        equal shares (at an even block).  The last worker's two chunks are
        adjacent but stay apart, so no score band straddles their seam; one
        worker keeps the whole sequence as one chunk, and empty chunks drop."""
        n, front = self.workers, self.block // 2
        if n == 1:
            return ((0, self.seq_len),)
        late = n * front + (n - 1 - self.rank) * (self.block - front)
        chunks = ((self.rank * front, (self.rank + 1) * front), (late, late + self.block - front))
        return tuple((start, stop) for start, stop in chunks if stop > start)


@cache
def gather_order(workers: int, seq_len: int) -> tuple[np.ndarray, np.ndarray]:
    """For every worker's balanced rows stacked in rank order (what an
    all-gather receives): the position of each stacked row, and the stacked
    index of each position.  Every caller shares them, so both are
    read-only."""
    order = np.concatenate([model.row_positions(ShardSpec(r, workers, seq_len).balanced_rows)
                            for r in range(workers)])
    inverse = np.argsort(order)
    order.flags.writeable = inverse.flags.writeable = False
    return order, inverse


def shard_params(full: Parameters, spec: ShardSpec) -> Parameters:
    """A worker's parameters: a deep copy of ``full`` except the position
    table, of which only (a copy of) the rows at the worker's balanced rows
    is kept, in their order."""
    if full.pos_table.shape[0] != spec.seq_len:
        raise ShapeError(
            f"position table has {full.pos_table.shape[0]} rows, expected {spec.seq_len}"
        )
    p = full.copy()
    p.pos_table = full.pos_table[model.row_positions(spec.balanced_rows)]
    return p


def slice_batch(x: np.ndarray, spec: ShardSpec) -> np.ndarray:
    """This worker's columns of a (batch, seq_len) token or target array: the
    columns at its balanced rows, in their order."""
    if x.shape[1] != spec.seq_len:
        raise ShapeError(f"expected {spec.seq_len} columns, got {x.shape[1]}")
    return np.ascontiguousarray(x[:, model.row_positions(spec.balanced_rows)])


def reassemble_params(shards: list[Parameters]) -> Parameters:
    """Full parameter set from one sequence group's shards in rank order:
    the first shard's replicated parameters plus every shard's position
    rows, put back in position order (:func:`gather_order`)."""
    full = shards[0].copy()
    stacked = np.concatenate([p.pos_table for p in shards], axis=0)
    full.pos_table = stacked[gather_order(len(shards), len(stacked))[1]]
    return full


@dataclass(frozen=True)
class Worker:
    """One rank's place in the grid, as an engine step sees it."""

    comm: Communicator
    spec: ShardSpec           # its rows of the sequence within its replica
    seq_group: WorkerGroup    # its replica's sequence workers
    data_group: WorkerGroup   # the ranks holding the same rows in every replica

    @property
    def rank(self) -> int:
        """World rank, the id collectives address this worker by (``spec.rank``
        is its position inside the sequence group)."""
        return self.seq_group.members[self.spec.rank]


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

    Every rank runs the same loop.  It flattens its parameters once into one
    vector in named order, of which the ``Parameters`` it hands the step are
    views (:func:`seqpar.model.flat_view`).  Per step it takes its replica's
    rows of the combined batch, keys the step's dropout masks by those rows'
    indices in it (``first_sample``, so any grid draws one worker's masks),
    calls ``step(worker, params, cfg, tokens, targets, *, policy, step)``
    for ``(loss, grad_vec)``, the synced gradient as one flat vector in the
    same layout, checks that vector for NaN and Inf in one pass and applies
    the optimizer update to the parameter vector in place
    (:func:`seqpar.optim.make_update`).  ``grad_vec`` may be a collective's
    output that every member of a group shares, so nothing writes it.
    ``tensor.counting`` collects the step's counters around the step and
    the update.  Each rank's whole loop runs inside ``tensor.recycling``, so
    the score path's and the optimizer's scratch buffers are reused from
    step to step and layer to layer for the run.  ``batches[s]`` holds
    ``R*B`` rows; replica ``d`` trains on rows ``[d*B, (d+1)*B)``, every
    column of them: a step takes the columns it needs itself.  With
    ``split`` a rank owns only its rows of the position table; without
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
    ``split``), one square root at the end.  ``Run.last_grads`` views one
    copy of each rank's final ``grad_vec``, made here: it shares no buffer
    between ranks, and the rank thread's buffers are freed on return, not
    by whoever drops the ``Run``.
    """
    if not batches:
        raise ValueError("no batches to train on")
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
        flat, own = model.flat_view(shard_params(params, spec) if split else params)
        slices = model.flat_slices(own)
        # rank 0 folds every gradient, the others only their position rows
        norm_slices = slices.values() if rank == 0 else (slices["pos_table"],)
        update = optim.make_update(optimizer, flat, lr)
        losses, counts, squares, grad_vec = [], [], [], None
        for s, (tokens, targets) in enumerate(batches):
            grad_vec = None  # the previous step's gradient is not held through this step
            rows = tokens.shape[0] // layout.replicas
            step_policy = replace(policy.at_step(s), first_sample=replica * rows)
            tokens = tokens[replica * rows : (replica + 1) * rows]
            targets = targets[replica * rows : (replica + 1) * rows]
            counters = StepCounters()
            with tensor.counting(counters):
                loss, grad_vec = step(worker, own, cfg, tokens, targets,
                                      policy=step_policy, step=s)
                tensor.check_finite(grad_vec, f"rank {rank} step {s} gradients")
                update(flat, grad_vec)
            losses.append(loss)
            counts.append(counters)
            squares.append(model.grad_norm(grad_vec, norm_slices, squared=True))
        return own, losses, counts, squares, grad_vec

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
        last_grads=[own.replace_arrays(model.unflatten_like(grad_vec.copy(), own.arrays()))
                    for own, _, _, _, grad_vec in results],
        workers=owned,
        final_params=(
            reassemble_params([owned[r] for r in layout.seq_members(0)]) if split else owned[0]
        ),
    )
