"""Experiment runner: one entry point that builds a model, drives the
chosen engine for a number of steps, and writes every artifact of the run.

Every engine returns the same :class:`seqpar.grid.Run` from the same loop,
so reports, the ledger, the checkpoint and the oracle check share one path.

Output files (all under the run's output directory):
    steps.jsonl     one StepReport per training step
    ledger.jsonl    every collective the run performed
    summary.json    machine-readable run summary (incl. estimate-vs-measured)
    summary.txt     the same, human-readable, with a coarse loss curve
    checkpoint.bin  final parameters with config header
    synthetic_corpus.txt   only when no dataset path was given

Config precedence, weakest to strongest: RunConfig defaults, CLI flags,
config-file values, then the ``SEQPAR_OUTPUT_DIR`` environment variable for
the output directory alone.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from . import baseline, costs, data, grid, hybrid, model, optim, reporting, sharded
from .collectives import CommRecord, run_workers
from .errors import PartitionError
from .grid import GridLayout, Run
from .model import ModelConfig, Parameters
from .nnops import DropoutPolicy
from .reporting import StepReport

OUTPUT_DIR_ENV = "SEQPAR_OUTPUT_DIR"

# Trailing-window width for the smoothed loss in summaries.
SMOOTH_WINDOW = 50

# The oracle check passes when max |delta param| is below this many units of
# the precision's machine epsilon, and never asks for less than 1e-8.
# Parameters are O(1), so an ulp of 1 is the scale of a rounding difference;
# correct single-precision grids measure 0.25-2 ulps after 3-30 SGD steps.
# Double precision keeps exactly 1e-8 (64 ulps there are 1.4e-14).
EQUIVALENCE_ULPS = 64


def equivalence_tolerance(dtype) -> float:
    """The largest max |delta param| the oracle check still calls a pass,
    for parameters of ``dtype``."""
    return max(1e-8, EQUIVALENCE_ULPS * float(np.finfo(dtype).eps))


def default_model() -> ModelConfig:
    """Small byte-level config that trains visibly in a few hundred steps."""
    return ModelConfig(
        embed_dim=64, n_layers=2, n_heads=8, ff_dim=256,
        vocab=256, seq_len=128, batch=4, dropout=0.0,
    )


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; flags, config files and tests all build this."""

    model: ModelConfig = field(default_factory=default_model)
    engine: str = "sequential"
    workers: int = 1          # sequence-group size
    replicas: int = 1         # data-parallel grid rows (hybrid only)
    steps: int = 10
    lr: float = 0.1
    optimizer: str = "sgd"
    seed: int = 0
    dataset: str | None = None
    synthetic_bytes: int = 1_000_000
    out_dir: str = "runs/latest"
    fused: bool = True
    equivalence_check: bool = False

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if not math.isfinite(self.lr):
            raise ValueError(f"lr must be finite, got {self.lr}")
        if self.optimizer not in optim.OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        grid.check_grid(self.engine, GridLayout(self.replicas, self.workers), self.model.seq_len)
        need = self.replicas * self.model.batch * (self.model.seq_len + 1)
        if self.dataset is None and self.synthetic_bytes < need:
            raise ValueError(f"synthetic_bytes {self.synthetic_bytes} is too small for one "
                             f"batch; need at least {need}")
        if self.equivalence_check and self.replicas > 1 and self.model.dropout > 0:
            raise ValueError("the equivalence check requires dropout off when replicas > 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        model.check_config_dict(cls, d, "run-config")
        d = dict(d)
        if "model" in d:
            d["model"] = ModelConfig.from_dict(d["model"])
        return cls(**d)


@dataclass
class RunResult:
    config: RunConfig
    out_dir: str
    reports: list[StepReport]
    summary: dict
    final_params: Parameters


def _resolve_out_dir(rc: RunConfig) -> str:
    return os.environ.get(OUTPUT_DIR_ENV) or rc.out_dir


def _corpus(rc: RunConfig, out_dir: str) -> np.ndarray:
    if rc.dataset is not None:
        return data.read_bytes(rc.dataset)
    path = os.path.join(out_dir, "synthetic_corpus.txt")
    data.write_synthetic_corpus(path, n_bytes=rc.synthetic_bytes, seed=rc.seed)
    return data.read_bytes(path)


def _sequential_step(worker, params, cfg, tokens, targets, *, policy, step):
    """The sequential engine: forward and backward over the whole batch."""
    loss, cache = model.forward(params, cfg, tokens, targets, policy=policy)
    return loss, model.backward(params, cfg, cache)


def _sequential_steps(cfg: ModelConfig, params: Parameters, batches, **kw) -> Run:
    """Single-worker training on the 1x1 grid; the oracle everything else is
    judged by.  ``kw`` (lr, policy, optimizer) is passed to grid.train."""
    return grid.train(_sequential_step, cfg, params, GridLayout(1, 1), batches, split=False,
                      run_workers=run_workers, **kw)


def _train(engine: str, cfg: ModelConfig, params: Parameters, layout: GridLayout, batches,
           *, fused: bool = True, **kw) -> Run:
    """Train ``engine`` on ``layout`` through the engine's entry point."""
    grid.check_grid(engine, layout, cfg.seq_len)
    if engine == "sequential":
        return _sequential_steps(cfg, params, batches, **kw)
    if engine == "baseline":
        return baseline.run_steps(cfg, params, layout.seq_workers, batches, **kw)
    if engine == "sharded":
        return sharded.run_steps(cfg, params, layout.seq_workers, batches, fused=fused, **kw)
    return hybrid.run_steps(cfg, params, layout, batches, fused=fused, **kw)


def _collectives_per_step(records: list[CommRecord], steps: int) -> list[dict[str, int]]:
    """Collective count by kind for every step, from one pass over the ledger."""
    counts = [Counter() for _ in range(steps)]
    for r in records:
        counts[r.step][r.kind] += 1
    return [dict(sorted(c.items())) for c in counts]


def run_experiment(rc: RunConfig, *, echo=None) -> RunResult:
    """Execute ``rc`` and write all report files.  ``echo`` (e.g. ``print``)
    receives progress lines; None keeps the run silent."""
    say = echo or (lambda *_: None)
    out_dir = _resolve_out_dir(rc)
    os.makedirs(out_dir, exist_ok=True)
    cfg = rc.model
    corpus = _corpus(rc, out_dir)
    policy = DropoutPolicy(rate=cfg.dropout, seed=rc.seed)
    params0 = model.init_params(cfg, rc.seed)
    say(f"engine={rc.engine} workers={rc.workers} replicas={rc.replicas} "
        f"steps={rc.steps} params={model.param_count(params0)}")

    # One batch of replicas * batch rows per step: replica d's rows are what
    # window s * replicas + d holds at the base batch size (data.batch_at).
    batches = [data.batch_at(corpus, cfg.seq_len, rc.replicas * cfg.batch, s)
               for s in range(rc.steps)]
    t0 = time.perf_counter()
    run = _train(
        rc.engine, cfg, params0, GridLayout(rc.replicas, rc.workers), batches,
        lr=rc.lr, policy=policy, optimizer=rc.optimizer, fused=rc.fused, timeout=600.0,
    )
    elapsed = time.perf_counter() - t0
    losses, norms, counts = run.step_losses, run.grad_norms, run.counters[0]
    ledger = run.comm.ledger
    records = ledger.records
    collectives = _collectives_per_step(records, rc.steps)

    reports = [
        reporting.from_counters(s, rc.engine, losses[s], norms[s], counts[s], collectives[s])
        for s in range(rc.steps)
    ]
    stride = max(1, rc.steps // 10)
    for r in reports[::stride]:
        say(f"step {r.step:5d}  loss {r.loss:.4f}")

    window = losses[-min(SMOOTH_WINDOW, len(losses)):]
    est = costs.estimate(cfg, rc.workers, rc.engine, fused=rc.fused, replicas=rc.replicas)
    # every rank's step-0 score flops, in world-rank order.  The estimate is
    # the busiest rank's: causal ranks of an unfused sharded grid score
    # unequal shares, fused ones near-equal, and only the baseline's rank 0
    # scores at all.
    rank_score_flops = [c[0].attn_score_flops for c in run.counters]
    busiest_score_flops = max(rank_score_flops)
    summary = {
        "engine": rc.engine,
        "workers": rc.workers,
        "replicas": rc.replicas,
        "steps": rc.steps,
        "seed": rc.seed,
        "optimizer": rc.optimizer,
        "lr": rc.lr,
        "param_count": model.param_count(params0),
        "initial_loss": losses[0],
        "final_loss": losses[-1],
        "smoothed_final_loss": float(sum(window) / len(window)),
        "elapsed_seconds": round(elapsed, 3),
        "ledger_records": len(records),
        "collectives_step0": collectives[0],
        "measured_score_flops": busiest_score_flops,
        "measured_score_flops_by_rank": rank_score_flops,
        "estimated_score_flops": est.score_flops,
        "score_flops_delta": busiest_score_flops - est.score_flops,
        "measured_score_elements_peak": counts[0].attn_score_elements_peak,
        "estimated_score_elements_peak": est.score_elements_peak,
        "measured_score_cache_bytes": counts[0].attn_score_bytes_cached,
        "estimated_score_cache_bytes": est.score_cache_bytes,
        "estimated_collectives_per_step": est.collectives_per_step,
    }

    if rc.equivalence_check:
        oracle = _sequential_steps(
            cfg, params0, batches, lr=rc.lr, policy=policy, optimizer=rc.optimizer
        )
        summary["max_param_delta"] = _max_param_delta(run.final_params, oracle.final_params)
        summary["equivalence_tolerance"] = equivalence_tolerance(cfg.dtype)
        summary["equivalence_pass"] = bool(
            summary["max_param_delta"] < summary["equivalence_tolerance"]
        )
        say(f"equivalence max |delta param| = {summary['max_param_delta']:.3e}"
            f" (tolerance {summary['equivalence_tolerance']:.3e})")

    _write_outputs(out_dir, rc, reports, ledger, summary, run.final_params)
    say(f"final loss {losses[-1]:.4f} (smoothed {summary['smoothed_final_loss']:.4f}) "
        f"in {elapsed:.1f}s; artifacts in {out_dir}")
    return RunResult(rc, out_dir, reports, summary, run.final_params)


def _max_param_delta(got: Parameters, want: Parameters) -> float:
    return max(
        float(np.max(np.abs(a - b))) if a.size else 0.0
        for a, b in zip(got.arrays(), want.arrays())
    )


def _write_outputs(out_dir, rc, reports, ledger, summary, final_params) -> None:
    reporting.write_jsonl(os.path.join(out_dir, "steps.jsonl"), reports)
    with open(os.path.join(out_dir, "ledger.jsonl"), "w", encoding="ascii") as f:
        f.write(ledger.to_jsonl())
    summary = dict(summary)
    summary["files"] = ["steps.jsonl", "ledger.jsonl", "summary.json", "summary.txt",
                        "checkpoint.bin"]
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="ascii") as f:
        json.dump({"config": rc.to_dict(), "summary": summary}, f, indent=2, sort_keys=True)
        f.write("\n")
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="ascii") as f:
        f.write(_summary_text(rc, reports, summary))
    model.save_checkpoint(os.path.join(out_dir, "checkpoint.bin"), final_params, rc.model, rc.seed)


def _summary_text(rc, reports, summary) -> str:
    lines = [
        f"engine            {summary['engine']}",
        f"grid              {summary['replicas']} x {summary['workers']} workers",
        f"steps             {summary['steps']}",
        f"optimizer         {summary['optimizer']} (lr {summary['lr']})",
        f"parameters        {summary['param_count']}",
        f"initial loss      {summary['initial_loss']:.6f}",
        f"final loss        {summary['final_loss']:.6f}",
        f"smoothed loss     {summary['smoothed_final_loss']:.6f}",
        f"elapsed           {summary['elapsed_seconds']} s",
        f"ledger records    {summary['ledger_records']}",
        f"collectives/step  {summary['collectives_step0']}"
        f" (estimated total {summary['estimated_collectives_per_step']})",
        f"score flops       measured {summary['measured_score_flops']}"
        f" estimated {summary['estimated_score_flops']}"
        f" delta {summary['score_flops_delta']}"
        f" by rank {summary['measured_score_flops_by_rank']}",
        f"score elements    measured {summary['measured_score_elements_peak']}"
        f" estimated {summary['estimated_score_elements_peak']}",
        f"score cache bytes measured {summary['measured_score_cache_bytes']}"
        f" estimated {summary['estimated_score_cache_bytes']}",
    ]
    if "max_param_delta" in summary:
        lines.append(
            f"equivalence       max |delta param| {summary['max_param_delta']:.3e}"
            f" ({'pass' if summary['equivalence_pass'] else 'FAIL'}"
            f" below {summary['equivalence_tolerance']:.3e})"
        )
    lines.append("")
    lines.append("loss curve:")
    stride = max(1, len(reports) // 20)
    for r in reports[::stride]:
        lines.append(f"  step {r.step:5d}  loss {r.loss:.6f}")
    if reports[-1].step % stride != 0:
        lines.append(f"  step {reports[-1].step:5d}  loss {reports[-1].loss:.6f}")
    return "\n".join(lines) + "\n"


def verify_equivalence(
    cfg: ModelConfig,
    *,
    engines: tuple[str, ...] = ("sharded", "baseline"),
    workers: tuple[int, ...] = (1, 2, 4),
    replicas: tuple[int, ...] = (2,),
    steps: int = 3,
    lr: float = 0.2,
    seed: int = 0,
    tolerance: float | None = None,
) -> list[dict]:
    """Train each engine/grid combination against the sequential oracle on
    identical batches; one row per combination, each a :class:`RunConfig`
    built before any trains.  R replicas train on R * cfg.batch rows, and so
    does their oracle.  ``tolerance`` defaults to :func:`equivalence_tolerance`
    of cfg's precision.  Grids whose workers do not split the sequence are
    skipped; if none is left, :class:`PartitionError` says why."""
    tolerance = equivalence_tolerance(cfg.dtype) if tolerance is None else tolerance
    if not tolerance > 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    for name, counts in (("workers", workers), ("replicas", replicas)):
        if any(n < 1 for n in counts):
            raise ValueError(f"{name} must all be positive, got {counts}")
    grids, skipped = [], []  # every grid is checked before any trains
    for engine in engines:
        for d in replicas if engine == "hybrid" else (1,):
            for n in workers:
                try:
                    grids.append(RunConfig(model=cfg, engine=engine, workers=n, replicas=d,
                                           steps=steps, lr=lr, seed=seed, equivalence_check=True))
                except PartitionError as exc:
                    skipped.append(f"skipped {engine} {d}x{n} ({exc})")
    if not grids:
        given = (("engines", engines), ("workers", workers), ("replicas", replicas))
        empty = next((name for name, values in given if not values), None)
        raise PartitionError("no grid to verify: " + ("; ".join(skipped) or f"no {empty} given"))
    rng = np.random.default_rng(seed)
    policy = DropoutPolicy(rate=cfg.dropout, seed=seed)
    params0 = model.init_params(cfg, seed)
    oracles: dict[int, tuple[list, Run]] = {}  # replicas -> (batches, oracle run)

    rows = []
    for rc in grids:
        d, n = rc.replicas, rc.workers
        if d not in oracles:
            shape = (d * cfg.batch, cfg.seq_len)
            batches = [
                (rng.integers(0, cfg.vocab, size=shape), rng.integers(0, cfg.vocab, size=shape))
                for _ in range(rc.steps)
            ]
            oracles[d] = batches, _sequential_steps(cfg, params0, batches, lr=rc.lr, policy=policy)
        batches, oracle = oracles[d]
        run = _train(rc.engine, cfg, params0, GridLayout(d, n), batches, lr=rc.lr, policy=policy)
        delta = _max_param_delta(run.final_params, oracle.final_params)
        rows.append({
            "engine": rc.engine,
            "workers": n,
            "replicas": d,
            "max_param_delta": delta,
            "pass": bool(delta < tolerance),
            "loss_delta": abs(run.step_losses[-1] - oracle.step_losses[-1]),
        })
    return rows
