"""In-process communicator: blocking collectives over worker threads.

Workers are plain threads; a collective is a rendezvous where every member of
a group deposits its payload, the last arrival computes the combined result
exactly once, and everyone picks up its share.  Reductions fold contributions
in ascending rank order, so results are bit-for-bit reproducible no matter
how the threads happen to interleave.

Correctness conventions:

* arrays handed to or received from a collective are treated as immutable;
* every member passes the same (step, phase, layer) metadata, which is
  validated at the rendezvous and then written to the ledger exactly once
  per collective call;
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
from dataclasses import dataclass

import numpy as np

from .errors import CommAborted, CommTimeout, PartitionError, ShapeError

GROUP_KINDS = {"sequence": "seq", "data": "data", "world": "world"}


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
    group_id: str
    kind: str
    phase: str  # "forward", "backward" or "sync"
    layer: int | None
    elements: int  # size of the full logical tensor moved or reduced

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "step": self.step,
                "group": self.group_id,
                "kind": self.kind,
                "phase": self.phase,
                "layer": self.layer,
                "elements": self.elements,
            }
        )

    @classmethod
    def from_json_line(cls, line: str) -> "CommRecord":
        d = json.loads(line)
        return cls(
            step=d["step"],
            group_id=d["group"],
            kind=d["kind"],
            phase=d["phase"],
            layer=d["layer"],
            elements=d["elements"],
        )


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
        group_id: str | None = None,
    ) -> list[CommRecord]:
        out = []
        for r in self.records:
            if step is not None and r.step != step:
                continue
            if kind is not None and r.kind != kind:
                continue
            if phase is not None and r.phase != phase:
                continue
            if layer is not None and r.layer != layer:
                continue
            if layer_tagged is not None and (r.layer is not None) != layer_tagged:
                continue
            if group_id is not None and r.group_id != group_id:
                continue
            out.append(r)
        return out

    def count(self, **filters) -> int:
        return len(self.select(**filters))

    def to_jsonl(self) -> str:
        return "".join(r.to_json_line() + "\n" for r in self.records)

    @classmethod
    def from_jsonl(cls, text: str) -> "CommLedger":
        ledger = cls()
        for line in text.splitlines():
            if line.strip():
                ledger.append(CommRecord.from_json_line(line))
        return ledger


class _Slot:
    """Reusable rendezvous state for one group."""

    def __init__(self) -> None:
        self.cond = threading.Condition()
        self.inbox: dict[int, tuple] = {}
        self.outbox: dict[int, object] = {}
        self.generation = 0


@dataclass(frozen=True)
class _Meta:
    kind: str
    step: int
    phase: str
    layer: int | None


class Communicator:
    """Rendezvous hub shared by all workers of one simulated job."""

    def __init__(self, world_size: int, *, timeout: float = 60.0) -> None:
        if world_size < 1:
            raise ValueError("world_size must be at least 1")
        self.world_size = world_size
        self._timeout = timeout
        self._slots: dict[str, _Slot] = {}
        self._groups: dict[str, WorkerGroup] = {}
        # Ledger records per group, in creation order; a group's list is only
        # appended to by its combine, which runs under the group's slot lock.
        self._records: dict[str, list[CommRecord]] = {}
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
            group_id = GROUP_KINDS[kind] if kind == "world" else f"{GROUP_KINDS[kind]}{n}"
            group = WorkerGroup(group_id=group_id, kind=kind, members=members)
            self._groups[group_id] = group
            self._slots[group_id] = _Slot()
            self._records[group_id] = []
        return group

    @property
    def ledger(self) -> CommLedger:
        """Every collective so far, ordered by step, then group creation
        order, then call order within the group."""
        ledger = CommLedger()
        with self._lock:
            records = [r for group_records in self._records.values() for r in group_records]
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
        """Block until all members arrive; ``combine`` maps {rank: payload}
        to {rank: result} and runs exactly once, on the last arriving thread."""
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
                    slot.outbox = combine(payloads)
                except BaseException as exc:
                    self.abort(exc)
                    raise
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

    def _record(self, group: WorkerGroup, meta: _Meta, elements: int) -> None:
        self._records[group.group_id].append(
            CommRecord(
                step=meta.step,
                group_id=group.group_id,
                kind=meta.kind,
                phase=meta.phase,
                layer=meta.layer,
                elements=elements,
            )
        )

    @staticmethod
    def _split(x: np.ndarray, parts: int, dim: int) -> list[np.ndarray]:
        if x.shape[dim] % parts != 0:
            raise PartitionError(
                f"dimension {dim} of size {x.shape[dim]} not divisible by {parts} workers"
            )
        return [np.ascontiguousarray(p) for p in np.split(x, parts, axis=dim)]

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
        meta = _Meta("scatter", step, phase, layer)

        def combine(payloads):
            data = payloads[src]
            if data is None:
                raise ShapeError(f"scatter source rank {src} supplied no tensor")
            parts = self._split(data, group.size, dim)
            self._record(group, meta, int(data.size))
            return {r: parts[i] for i, r in enumerate(group.members)}

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
        meta = _Meta("gather", step, phase, layer)

        def combine(payloads):
            full = np.concatenate([payloads[r] for r in group.members], axis=dim)
            self._record(group, meta, int(full.size))
            return {r: (full if r == dst else None) for r in group.members}

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
        meta = _Meta("all-gather", step, phase, layer)

        def combine(payloads):
            full = np.concatenate([payloads[r] for r in group.members], axis=dim)
            self._record(group, meta, int(full.size))
            return {r: full for r in group.members}

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
        meta = _Meta("reduce-scatter", step, phase, layer)

        def combine(payloads):
            shapes = {payloads[r].shape for r in group.members}
            if len(shapes) != 1:
                raise ShapeError(f"reduce_scatter contributions disagree on shape: {shapes}")
            acc = payloads[group.members[0]]
            for r in group.members[1:]:
                acc = acc + payloads[r]
            parts = self._split(acc, group.size, dim)
            self._record(group, meta, int(acc.size))
            return {r: parts[i] for i, r in enumerate(group.members)}

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
        meta = _Meta("all-reduce", step, phase, layer)

        def combine(payloads):
            shapes = {payloads[r].shape for r in group.members}
            if len(shapes) != 1:
                raise ShapeError(f"all_reduce contributions disagree on shape: {shapes}")
            acc = payloads[group.members[0]]
            for r in group.members[1:]:
                acc = acc + payloads[r]
            if op == "mean":
                acc = acc / group.size
            self._record(group, meta, int(acc.size))
            return {r: acc for r in group.members}

        return self._rendezvous(group, rank, x, meta, combine)

    def all_reduce_mean(self, group: WorkerGroup, rank: int, x: np.ndarray, **kw) -> np.ndarray:
        return self.all_reduce(group, rank, x, op="mean", **kw)

    def barrier(self, group: WorkerGroup, rank: int) -> None:
        """Pure synchronization point; moves no payload, writes no record."""
        meta = _Meta("barrier", -1, "sync", None)
        self._rendezvous(group, rank, None, meta, lambda payloads: {r: None for r in payloads})


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
