"""In-process communicator: blocking collectives over worker threads.

Workers are plain threads; a collective is a rendezvous where every member of
a group deposits its payload, the last arrival computes the combined result
exactly once, and everyone picks up its share.  Reductions fold contributions
in ascending rank order, so results are bit-for-bit reproducible no matter
how the threads happen to interleave.

Correctness conventions:

* arrays handed to or received from a collective are treated as immutable;
* every member passes the same (step, phase, layer) metadata and the same
  root, ``dim`` or ``op`` (whichever the collective takes), all validated at
  the rendezvous, so no result depends on which thread arrives last;
* the rendezvous, not the collective, writes the ledger: one record per
  call, after the combine succeeds;
* the ledger lists records by step, then by group creation order, then in
  call order within the group, so it is byte-stable however the threads of
  different groups interleave;
* a worker that dies aborts the communicator so its peers unblock with
  :class:`CommAborted` instead of deadlocking.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, fields

import numpy as np

from .errors import CommAborted, CommTimeout, PartitionError, ShapeError
from .model import check_config_dict

GROUP_KINDS = {"sequence": "seq", "data": "data"}


@dataclass(frozen=True)
class WorkerGroup:
    """A named, ordered set of worker ranks that communicates collectively."""

    group_id: str
    kind: str
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    def index_of(self, rank: int) -> int:
        try:
            return self.members.index(rank)
        except ValueError:
            raise ValueError(f"rank {rank} is not a member of group {self.group_id}")


@dataclass(frozen=True)
class CommRecord:
    """One ledger entry per collective call (not per participating worker)."""

    step: int
    group: str
    kind: str
    phase: str  # "forward", "backward" or "sync"
    layer: int | None
    elements: int  # size of the full logical tensor moved or reduced


def json_record(cls, line: str, what: str):
    """The dataclass ``cls`` from one JSON line; ValueError, naming ``what``,
    unless it is a JSON object with exactly cls's fields, each holding a
    value of its field's type (:func:`seqpar.model.check_config_dict`)."""
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("not a JSON object")
    names = [f.name for f in fields(cls)]
    unexpected = [k for k in obj if k not in names]
    missing = [n for n in names if n not in obj]
    if unexpected or missing:
        raise ValueError(f"not a {what}: unexpected fields {unexpected}, "
                         f"missing fields {missing}")
    check_config_dict(cls, obj, what)
    return cls(**obj)


def jsonl_records(cls, text: str, what: str) -> list:
    """One :func:`json_record` per non-blank line of ``text``; a line that is
    none raises ValueError naming its number."""
    records = []
    for number, line in enumerate(text.splitlines(), 1):
        if line.strip():
            try:
                records.append(json_record(cls, line, what))
            except ValueError as exc:
                raise ValueError(f"line {number}: {exc}") from None
    return records


class CommLedger:
    """Append-only log of collective calls with simple count queries."""

    def __init__(self) -> None:
        self._records: list[CommRecord] = []

    def append(self, record: CommRecord) -> None:
        self._records.append(record)

    @property
    def records(self) -> list[CommRecord]:
        return list(self._records)

    def select(
        self,
        *,
        step: int | None = None,
        kind: str | None = None,
        phase: str | None = None,
        layer: int | None = None,
        layer_tagged: bool | None = None,
        group: str | None = None,
    ) -> list[CommRecord]:
        want = {k: v for k, v in (("step", step), ("kind", kind), ("phase", phase),
                                  ("layer", layer), ("group", group)) if v is not None}
        return [
            r for r in self._records
            if all(getattr(r, k) == v for k, v in want.items())
            and (layer_tagged is None or (r.layer is not None) == layer_tagged)
        ]

    def count(self, **filters) -> int:
        return len(self.select(**filters))

    def to_jsonl(self) -> str:
        """One ``json.dumps(vars(record))`` line per record.  A run repeats a
        few (group, kind, phase, layer) combinations thousands of times, so
        each is encoded once and ``step`` and ``elements`` are formatted as
        the integers they are."""
        middles: dict[tuple, str] = {}
        lines = []
        for r in self._records:
            key = (r.group, r.kind, r.phase, r.layer)
            middle = middles.get(key)
            if middle is None:
                middle = middles[key] = json.dumps(
                    {"group": r.group, "kind": r.kind, "phase": r.phase, "layer": r.layer}
                )[1:-1]
            lines.append(f'{{"step": {r.step:d}, {middle}, "elements": {r.elements:d}}}\n')
        return "".join(lines)

    @classmethod
    def from_jsonl(cls, text: str) -> "CommLedger":
        """The ledger :meth:`to_jsonl` wrote; a line that is no record raises
        ValueError naming its number."""
        ledger = cls()
        ledger._records = jsonl_records(CommRecord, text, "ledger record")
        return ledger


class _Slot:
    """Rendezvous state and ledger records of one group."""

    def __init__(self) -> None:
        self.cond = threading.Condition()
        self.inbox: dict[int, tuple] = {}
        self.outbox: dict[int, object] = {}
        self.generation = 0
        # Appended only by the last arrival, under ``cond``: call order.
        self.records: list[CommRecord] = []


@dataclass(frozen=True)
class _Meta:
    kind: str
    step: int
    phase: str
    layer: int | None
    args: tuple  # the call's arguments that shape the result (root, dim, op)


def _sum(name: str, group: WorkerGroup, payloads: dict[int, np.ndarray]) -> np.ndarray:
    """Elementwise sum of equal-shaped contributions, folded in the group's
    (ascending) rank order: the one fold every reduction uses, which makes
    results bit-for-bit reproducible."""
    shapes = {payloads[r].shape for r in group.members}
    if len(shapes) != 1:
        raise ShapeError(f"{name} contributions disagree on shape: {shapes}")
    acc = payloads[group.members[0]]
    for r in group.members[1:]:
        acc = acc + payloads[r]
    return acc


def _deal(group: WorkerGroup, x: np.ndarray, dim: int) -> dict[int, np.ndarray]:
    """Split ``x`` into equal blocks along ``dim``; member i gets block i."""
    if x.shape[dim] % group.size != 0:
        raise PartitionError(
            f"dimension {dim} of size {x.shape[dim]} not divisible by {group.size} workers"
        )
    parts = np.split(x, group.size, axis=dim)
    return {r: np.ascontiguousarray(p) for r, p in zip(group.members, parts)}


class Communicator:
    """Rendezvous hub shared by all workers of one simulated job."""

    def __init__(self, world_size: int, *, timeout: float = 60.0) -> None:
        if world_size < 1:
            raise ValueError("world_size must be at least 1")
        self.world_size = world_size
        self._timeout = timeout
        self._slots: dict[str, _Slot] = {}  # by group id, in creation order
        self._kind_counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._abort_exc: BaseException | None = None

    # -- group management (call from the orchestrating thread) --

    def group(self, kind: str, members: tuple[int, ...] | list[int]) -> WorkerGroup:
        if kind not in GROUP_KINDS:
            raise ValueError(f"unknown group kind {kind!r}, expected one of {sorted(GROUP_KINDS)}")
        members = tuple(members)
        if len(set(members)) != len(members) or not members:
            raise ValueError("group members must be a non-empty set of distinct ranks")
        if any(r < 0 or r >= self.world_size for r in members):
            raise ValueError(f"group members {members} outside world of {self.world_size}")
        with self._lock:
            n = self._kind_counts.get(kind, 0)
            self._kind_counts[kind] = n + 1
            group_id = f"{GROUP_KINDS[kind]}{n}"
            self._slots[group_id] = _Slot()
        return WorkerGroup(group_id=group_id, kind=kind, members=members)

    @property
    def ledger(self) -> CommLedger:
        """Every collective so far, ordered by step, then group creation
        order, then call order within the group."""
        ledger = CommLedger()
        with self._lock:
            records = [r for slot in self._slots.values() for r in slot.records]
        for r in sorted(records, key=lambda r: r.step):  # stable: keeps group and call order
            ledger.append(r)
        return ledger

    # -- failure handling --

    def abort(self, exc: BaseException) -> None:
        """Unblock every waiting worker; they raise CommAborted."""
        self._abort_exc = exc
        for slot in list(self._slots.values()):
            with slot.cond:
                slot.cond.notify_all()

    def _check_abort(self) -> None:
        if self._abort_exc is not None:
            raise CommAborted("communicator aborted") from self._abort_exc

    # -- rendezvous core --

    def _rendezvous(self, group: WorkerGroup, rank: int, payload, meta: _Meta, combine):
        """Block until all members arrive with the same ``meta``.  The last
        arrival runs ``combine`` exactly once: it maps {rank: payload} to
        ``(full, shares)``, where ``full`` is the logical tensor moved or
        reduced and ``shares`` is {rank: result}.  The call's one ledger
        record is written here, after the combine succeeds."""
        group.index_of(rank)
        slot = self._slots[group.group_id]
        with slot.cond:
            self._check_abort()
            if rank in slot.inbox:
                raise RuntimeError(f"rank {rank} deposited twice in group {group.group_id}")
            slot.inbox[rank] = (payload, meta)
            if len(slot.inbox) == group.size:
                metas = {m for _, m in slot.inbox.values()}
                if len(metas) != 1:
                    exc = RuntimeError(
                        f"collective metadata mismatch in group {group.group_id}: {sorted(map(str, metas))}"
                    )
                    self.abort(exc)
                    raise exc
                payloads = {r: p for r, (p, _) in slot.inbox.items()}
                try:
                    full, slot.outbox = combine(payloads)
                except BaseException as exc:
                    self.abort(exc)
                    raise
                slot.records.append(CommRecord(
                    step=meta.step, group=group.group_id, kind=meta.kind,
                    phase=meta.phase, layer=meta.layer, elements=int(full.size),
                ))
                slot.inbox = {}
                slot.generation += 1
                slot.cond.notify_all()
            else:
                generation = slot.generation
                deadline = time.monotonic() + self._timeout
                while slot.generation == generation and self._abort_exc is None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        exc = CommTimeout(
                            f"rank {rank} waited over {self._timeout}s in group {group.group_id}"
                        )
                        self.abort(exc)
                        raise exc
                    slot.cond.wait(timeout=remaining)
                self._check_abort()
            return slot.outbox[rank]

    # -- collectives --

    def scatter(
        self,
        group: WorkerGroup,
        rank: int,
        x: np.ndarray | None,
        *,
        src: int,
        dim: int = 0,
        step: int,
        phase: str,
        layer: int | None = None,
    ) -> np.ndarray:
        """Split ``x`` (supplied by ``src`` only) into equal blocks along
        ``dim``; member i receives block i in rank order."""
        group.index_of(src)
        meta = _Meta("scatter", step, phase, layer, (src, dim))

        def combine(payloads):
            full = payloads[src]
            if full is None:
                raise ShapeError(f"scatter source rank {src} supplied no tensor")
            return full, _deal(group, full, dim)

        return self._rendezvous(group, rank, x if rank == src else None, meta, combine)

    def gather(
        self,
        group: WorkerGroup,
        rank: int,
        shard: np.ndarray,
        *,
        dst: int,
        dim: int = 0,
        step: int,
        phase: str,
        layer: int | None = None,
    ) -> np.ndarray | None:
        """Concatenate shards in rank order; only ``dst`` receives the result."""
        group.index_of(dst)
        meta = _Meta("gather", step, phase, layer, (dst, dim))

        def combine(payloads):
            full = np.concatenate([payloads[r] for r in group.members], axis=dim)
            return full, {r: (full if r == dst else None) for r in group.members}

        return self._rendezvous(group, rank, shard, meta, combine)

    def all_gather(
        self,
        group: WorkerGroup,
        rank: int,
        shard: np.ndarray,
        *,
        dim: int = 0,
        step: int,
        phase: str,
        layer: int | None = None,
    ) -> np.ndarray:
        """Concatenate shards in rank order; every member receives the result."""
        meta = _Meta("all-gather", step, phase, layer, (dim,))

        def combine(payloads):
            full = np.concatenate([payloads[r] for r in group.members], axis=dim)
            return full, dict.fromkeys(group.members, full)

        return self._rendezvous(group, rank, shard, meta, combine)

    def reduce_scatter(
        self,
        group: WorkerGroup,
        rank: int,
        x: np.ndarray,
        *,
        dim: int = 0,
        step: int,
        phase: str,
        layer: int | None = None,
    ) -> np.ndarray:
        """Sum full-size contributions (ascending rank order), then hand
        member i block i of the sum."""
        meta = _Meta("reduce-scatter", step, phase, layer, (dim,))

        def combine(payloads):
            acc = _sum("reduce_scatter", group, payloads)
            return acc, _deal(group, acc, dim)

        return self._rendezvous(group, rank, x, meta, combine)

    def all_reduce(
        self,
        group: WorkerGroup,
        rank: int,
        x: np.ndarray,
        *,
        op: str = "mean",
        step: int,
        phase: str,
        layer: int | None = None,
    ) -> np.ndarray:
        """Elementwise sum over members (ascending rank order); ``op='mean'``
        divides once by the group size at the end."""
        if op not in ("mean", "sum"):
            raise ValueError(f"unknown all_reduce op {op!r}")
        meta = _Meta("all-reduce", step, phase, layer, (op,))

        def combine(payloads):
            acc = _sum("all_reduce", group, payloads)
            if op == "mean":
                acc = acc / group.size
            return acc, dict.fromkeys(group.members, acc)

        return self._rendezvous(group, rank, x, meta, combine)


def run_workers(world_size: int, fn, *, comm: Communicator | None = None) -> list:
    """Run ``fn(rank)`` on one thread per rank and return results by rank.

    The first worker exception aborts the communicator (so peers blocked in a
    collective unwind instead of deadlocking) and is re-raised here.
    """
    results: list = [None] * world_size
    errors: list[tuple[int, BaseException]] = []
    lock = threading.Lock()

    def body(rank: int) -> None:
        try:
            results[rank] = fn(rank)
        except BaseException as exc:  # noqa: BLE001 - must not kill the process silently
            with lock:
                errors.append((rank, exc))
            if comm is not None:
                comm.abort(exc)

    threads = [threading.Thread(target=body, args=(r,), name=f"worker-{r}") for r in range(world_size)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        errors.sort(key=lambda pair: pair[0])
        rank, exc = errors[0]
        primary = [e for _, e in errors if not isinstance(e, CommAborted)]
        if primary:
            raise primary[0]
        raise exc
    return results
