"""Outside-in tracing of seqpar.

A :class:`Tracer` replaces public functions of seqpar's modules (and the
collective methods of ``Communicator``) with wrappers that record one span
per call: name, start, end, parent span, thread and step.  Spans stay in
memory and are reduced to per-layer figures after the run; nothing in
``src/`` is edited.  Every module calls its peers through module attributes
(``tensor.matmul``, ``nnops.gelu_fwd``, ``model.layer_fwd`` ...), so patching
the attribute reaches every caller.

Reductions:

* self time of a span is its duration minus the part of it covered by child
  spans of the same thread;
* for a collective, each rank's *wait* is the last member's entry time minus
  its own entry time, and its *combine* is its exit time minus that last
  entry.  The k-th call a thread makes on a group is matched with the k-th
  call of every other member, which holds because each thread issues its
  collectives in program order.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

from seqpar import baseline, data, hybrid, model, nnops, optim, reporting, runner, sharded, tensor
from seqpar.collectives import Communicator

# Entry points of each engine's training loop; one of them runs once per
# run_experiment call, on the calling thread.
LOOP_TARGETS = (
    (runner, "_sequential_steps"),
    (sharded, "run_steps"),
    (baseline, "run_steps"),
    (hybrid, "run_steps"),
)

# A thread starts a new training step when it enters one of these.
STEP_ROOTS = ("model.forward", "sharded.forward", "baseline.train_step")

COLLECTIVE_METHODS = ("scatter", "gather", "all_gather", "reduce_scatter", "all_reduce")
COLLECTIVE_KINDS = ("scatter", "gather", "all-gather", "reduce-scatter", "all-reduce")

# Forward functions whose second return value is activation state held
# until the backward pass.
CACHE_RETURNING = (
    "model.embed_fwd", "model.layer_fwd", "model.head_fwd", "model.norm3",
    "model.scores_fwd", "model.ffn_fwd", "model.dropout3",
)

TRACE_TARGETS = {
    tensor: ("matmul", "transpose", "softmax_rows", "check_finite"),
    nnops: (
        "linear_fwd", "linear_bwd", "layernorm_fwd", "layernorm_bwd", "gelu_fwd", "gelu_bwd",
        "dropout_fwd", "dropout_bwd", "keep_mask", "apply_mask", "token_row_keys",
        "score_row_keys", "embed_tokens", "embed_tokens_bwd", "embed_positions", "cross_entropy",
    ),
    model: (
        "forward", "backward", "embed_fwd", "embed_bwd", "layer_fwd", "layer_bwd",
        "scores_fwd", "scores_bwd", "ffn_fwd", "ffn_bwd", "head_fwd", "head_bwd",
        "linear3", "linear3_bwd", "norm3", "norm3_bwd", "dropout3", "dropout3_bwd",
        "local_kv_fwd", "local_kv_bwd", "row_coords", "sgd_step", "grad_norm",
        "flatten_arrays", "unflatten_like", "save_checkpoint", "init_params",
    ),
    sharded: ("forward", "backward", "sync", "shard_params", "slice_batch", "reassemble_params"),
    baseline: ("train_step",),
    hybrid: ("train_step", "vertical_sync", "reassemble_params"),
    optim: ("adam_step", "make_update"),
    data: ("batch_at", "read_bytes"),
    reporting: ("from_counters", "write_jsonl"),
}

# Per-layer self-time metrics: metric name -> span names whose self time it sums.
SELF_TIME = {
    "tensor.matmul_ms": ("tensor.matmul",),
    "tensor.check_finite_ms": ("tensor.check_finite",),
    "tensor.transpose_ms": ("tensor.transpose",),
    "tensor.softmax_ms": ("tensor.softmax_rows",),
    "nnops.gelu_ms": ("nnops.gelu_fwd", "nnops.gelu_bwd"),
    "nnops.layernorm_ms": ("nnops.layernorm_fwd", "nnops.layernorm_bwd"),
    "nnops.linear_ms": ("nnops.linear_fwd", "nnops.linear_bwd"),
    "nnops.dropout_ms": (
        "nnops.dropout_fwd", "nnops.dropout_bwd", "nnops.keep_mask", "nnops.apply_mask",
        "nnops.token_row_keys", "nnops.score_row_keys",
    ),
    "nnops.cross_entropy_ms": ("nnops.cross_entropy",),
    "nnops.embed_ms": ("nnops.embed_tokens", "nnops.embed_tokens_bwd", "nnops.embed_positions"),
    "model.embed_ms": ("model.embed_fwd", "model.embed_bwd"),
    "model.attention_fwd_ms": ("model.scores_fwd",),
    "model.attention_bwd_ms": ("model.scores_bwd",),
    "model.ffn_fwd_ms": ("model.ffn_fwd",),
    "model.ffn_bwd_ms": ("model.ffn_bwd",),
    "model.head_ms": ("model.head_fwd", "model.head_bwd"),
    "model.layer_glue_ms": (
        "model.layer_fwd", "model.layer_bwd", "model.linear3", "model.linear3_bwd",
        "model.norm3", "model.norm3_bwd", "model.dropout3", "model.dropout3_bwd",
        "model.local_kv_fwd", "model.local_kv_bwd", "model.row_coords",
    ),
    "reporting.write_ms": ("reporting.from_counters", "reporting.write_jsonl"),
}

# Per-step inclusive-time metrics of the engines.  The baseline engine does
# forward, backward and sync inside one train_step; see _baseline_phases.
INCLUSIVE = {
    "engine.fwd_ms": ("model.forward", "sharded.forward"),
    "engine.bwd_ms": ("model.backward", "sharded.backward"),
    "engine.sync_ms": ("sharded.sync", "hybrid.vertical_sync"),
    "engine.grad_norm_ms": ("model.grad_norm",),
    "optim.update_ms": ("model.sgd_step", "optim.adam_step"),
    "data.batch_ms": ("data.batch_at",),
}

# Span names whose total per run_experiment call (not per step) is reported.
PER_RUN = {"model.checkpoint_ms": ("model.save_checkpoint",)}

WORKER_ROOT = "engine.worker"


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: str
    step: int
    attrs: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def cache_bytes(obj, seen: dict) -> None:
    """Record in ``seen`` (buffer id -> bytes) every distinct array buffer
    reachable from ``obj`` through dataclass fields, lists and tuples.  Views
    count once, as the buffer they share."""
    if isinstance(obj, np.ndarray):
        base = obj
        while isinstance(base.base, np.ndarray):
            base = base.base
        seen[id(base)] = base.nbytes
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            cache_bytes(item, seen)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            cache_bytes(getattr(obj, f.name), seen)


class Tracer:
    """Records spans for the functions it wraps while installed.

    ``full=False`` wraps only the training-loop entry points, which is all an
    untraced run needs to time its loop; ``full=True`` wraps everything in
    :data:`TRACE_TARGETS`, the collectives and the worker threads.
    """

    def __init__(self, *, full: bool) -> None:
        self.full = full
        self.spans: list[Span] = []
        self.missing: list[str] = []
        # (thread, step) -> {buffer id: bytes} of activation caches; and the
        # largest single score cache seen.
        self.activation: dict[tuple[str, int], dict] = defaultdict(dict)
        self.score_bytes_peak = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- installation --

    def __enter__(self) -> "Tracer":
        for owner, attr in LOOP_TARGETS:
            self._patch(owner, attr, f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}", loop=True)
        if self.full:
            for module, names in TRACE_TARGETS.items():
                short = module.__name__.rsplit(".", 1)[-1]
                for attr in names:
                    self._patch(module, attr, f"{short}.{attr}")
            for method in COLLECTIVE_METHODS:
                self._patch(Communicator, method, f"collectives.{method}", collective=True)
            for module in (sharded, baseline, hybrid):
                if hasattr(module, "run_workers"):
                    self._patch_run_workers(module)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr: str, name: str, *, loop=False, collective=False) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(name)
            return
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(fn, name, loop=loop, collective=collective))

    def _patch_run_workers(self, module) -> None:
        original = module.run_workers

        def run_workers(world_size, fn, **kwargs):
            return original(world_size, self._wrap(fn, WORKER_ROOT), **kwargs)

        self._undo.append((module, "run_workers", original))
        module.run_workers = run_workers

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []
            st.step = -1
            st.thread = threading.current_thread().name
        return st

    def _wrap(self, fn, name: str, *, loop=False, collective=False):
        step_root = name in STEP_ROOTS
        keeps_cache = name in CACHE_RETURNING
        is_scores = name == "model.scores_fwd"
        is_matmul = name == "tensor.matmul"
        spans, ids = self.spans, self._ids

        def traced(*args, **kwargs):
            st = self._state()
            if step_root:
                st.step += 1
            attrs = None
            if collective:
                group = args[1]
                attrs = {"group": group.group_id, "size": group.size,
                         "phase": kwargs.get("phase"), "method": name}
            elif loop:
                attrs = {"loop": True}
            parent = st.stack[-1] if st.stack else None
            sid = next(ids)
            st.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                st.stack.pop()
                if loop:  # what follows the loop belongs to no step
                    st.step = -1
            if is_matmul:
                attrs = {"flops": 2 * result.shape[0] * args[0].shape[1] * result.shape[1]}
            spans.append(Span(sid, name, start, end, parent, st.thread, st.step, attrs))
            if keeps_cache:
                self._count_cache(st, result[1], is_scores)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_cache(self, st, cache, is_scores: bool) -> None:
        """Tally the cache's buffers; the time this takes is its own span so
        that no layer's self time absorbs it."""
        start = time.perf_counter()
        if is_scores:
            own: dict = {}
            cache_bytes(cache, own)
            self.score_bytes_peak = max(self.score_bytes_peak, sum(own.values()))
        cache_bytes(cache, self.activation[(st.thread, st.step)])
        end = time.perf_counter()
        self.spans.append(Span(next(self._ids), "trace.cache_bytes", start, end,
                               st.stack[-1] if st.stack else None, st.thread, st.step, None))

    # -- results --

    def loop_spans(self) -> list[Span]:
        return [s for s in self.spans if s.attrs and s.attrs.get("loop")]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its same-thread children's
    intervals (clipped to the span)."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def collective_waits(spans: list[Span]) -> list[dict]:
    """One row per (collective call, rank): thread, wait and combine seconds."""
    calls: dict[tuple[str, int], list[Span]] = defaultdict(list)
    counters: dict[tuple[str, str], int] = defaultdict(int)
    for s in sorted((s for s in spans if s.attrs and "group" in s.attrs), key=lambda s: s.start):
        key = (s.thread, s.attrs["group"])
        calls[(s.attrs["group"], counters[key])].append(s)
        counters[key] += 1
    rows = []
    for (group, index), members in calls.items():
        if len(members) != members[0].attrs["size"]:
            raise ValueError(f"collective {index} on {group} has {len(members)} of "
                             f"{members[0].attrs['size']} members")
        last_entry = max(m.start for m in members)
        for m in members:
            rows.append({"thread": m.thread, "group": group, "index": index,
                         "wait": last_entry - m.start, "combine": m.end - last_entry})
    return rows


def _within(span: Span, spans: list[Span]) -> list[Span]:
    """Spans of ``span``'s thread that lie inside its interval, itself excluded."""
    return [s for s in spans if s.thread == span.thread and s.start >= span.start
            and s.end <= span.end and s.id != span.id]


def _baseline_phases(step_span: Span, step_spans: list[Span]) -> dict[str, float]:
    """Split one baseline.train_step at its first backward marker (the loss
    head's backward or a backward-phase collective) and its first
    sync-phase collective; the parameter update is left out of sync.
    ``step_spans`` are the spans of the same thread and step."""
    inner = _within(step_span, step_spans)
    bwd_marks = [s.start for s in inner if s.name == "model.head_bwd"
                 or (s.attrs and s.attrs.get("phase") == "backward")]
    sync_marks = [s.start for s in inner if s.attrs and s.attrs.get("phase") == "sync"]
    update = sum(s.duration for s in inner if s.name == "model.sgd_step")
    bwd_start = min(bwd_marks, default=step_span.end)
    sync_start = min(sync_marks, default=step_span.end)
    return {
        "engine.fwd_ms": bwd_start - step_span.start,
        "engine.bwd_ms": sync_start - bwd_start,
        "engine.sync_ms": step_span.end - sync_start - update,
    }


def worker_roots(spans: list[Span]) -> list[Span]:
    """The span that covers each worker's training loop: the worker-thread
    roots of a multi-worker engine, else the sequential loop itself."""
    roots = [s for s in spans if s.name == WORKER_ROOT]
    return roots or [s for s in spans if s.name == "runner._sequential_steps"]


def self_time_residual(spans: list[Span], selfs: dict[int, float]) -> float:
    """Largest |sum of self times under a worker root - root duration|,
    relative to the root duration; 0 when every span nests properly."""
    worst = 0.0
    for root in worker_roots(spans):
        inside = _within(root, spans) + [root]
        total = sum(selfs[s.id] for s in inside)
        worst = max(worst, abs(total - root.duration) / root.duration)
    return worst


def step_times(spans: list[Span]) -> list[float]:
    """Seconds per training step: for each thread, from the first span it
    starts in the step to the last one it ends; the slowest thread counts."""
    first: dict[tuple[str, int], float] = {}
    last: dict[tuple[str, int], float] = {}
    for s in spans:
        if s.step >= 0:
            key = (s.thread, s.step)
            first[key] = min(first.get(key, s.start), s.start)
            last[key] = max(last.get(key, s.end), s.end)
    per_step: dict[int, float] = defaultdict(float)
    for (thread, step), start in first.items():
        per_step[step] = max(per_step[step], last[(thread, step)] - start)
    return [per_step[k] for k in sorted(per_step)]


def layer_metrics(tracers: list[Tracer], steps: int) -> dict[str, float]:
    """Per-layer figures from the spans of one or more traced run_experiment
    calls: times in ms per step summed over threads, counts per step."""
    per_step = steps * len(tracers)
    totals: dict[str, float] = defaultdict(float)
    busy: dict[str, float] = defaultdict(float)
    flops = 0
    loop_time = 0.0
    residual = 0.0
    for tr in tracers:
        spans = tr.spans
        selfs = self_times(spans)
        residual = max(residual, self_time_residual(spans, selfs))
        by_name: dict[str, list[Span]] = defaultdict(list)
        by_step: dict[tuple[str, int], list[Span]] = defaultdict(list)
        for s in spans:
            by_name[s.name].append(s)
            by_step[(s.thread, s.step)].append(s)
        for metric, names in SELF_TIME.items():
            totals[metric] += sum(selfs[s.id] for n in names for s in by_name[n])
        for metric, names in {**INCLUSIVE, **PER_RUN}.items():
            totals[metric] += sum(s.duration for n in names for s in by_name[n])
        for s in by_name["baseline.train_step"]:
            for metric, value in _baseline_phases(s, by_step[(s.thread, s.step)]).items():
                totals[metric] += value
        totals["tensor.matmul_calls"] += len(by_name["tensor.matmul"])
        totals["tensor.check_finite_calls"] += len(by_name["tensor.check_finite"])
        flops += sum(s.attrs["flops"] for s in by_name["tensor.matmul"])
        for row in collective_waits(spans):
            totals["collectives.wait_ms"] += row["wait"]
            totals["collectives.combine_ms"] += row["combine"]
            busy[row["thread"]] -= row["wait"]
        for root in worker_roots(spans):
            busy[root.thread] += root.duration
            loop_time += root.duration
        totals["model.activation_bytes_peak"] = max(
            [totals["model.activation_bytes_peak"]]
            + [sum(seen.values()) for seen in tr.activation.values()])
        totals["model.score_bytes_peak"] = max(totals["model.score_bytes_peak"], tr.score_bytes_peak)
    out = {}
    for metric in (*SELF_TIME, *INCLUSIVE, "collectives.wait_ms", "collectives.combine_ms"):
        out[metric] = 1000.0 * totals[metric] / per_step
    for metric in PER_RUN:
        out[metric] = 1000.0 * totals[metric] / len(tracers)
    for metric in ("tensor.matmul_calls", "tensor.check_finite_calls"):
        out[metric] = totals[metric] / per_step
    matmul_s = totals["tensor.matmul_ms"]
    out["tensor.matmul_gflops"] = flops / matmul_s / 1e9 if matmul_s > 0 else 0.0
    out["model.activation_bytes_peak"] = totals["model.activation_bytes_peak"]
    out["model.score_bytes_peak"] = totals["model.score_bytes_peak"]
    out["collectives.wait_share"] = totals["collectives.wait_ms"] / loop_time if loop_time else 0.0
    out["engine.worker_imbalance"] = max(busy.values()) / min(busy.values()) if busy else 1.0
    out["trace.self_time_residual"] = residual
    return out
