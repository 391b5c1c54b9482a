"""seqpar benchmark: run one workload through ``seqpar.run_experiment``.

    python3 perfbench/run.py --workload dense-seq --seed 3 --seconds 10 --trace 0

The seed makes the corpus (the program's only input besides the workload's
RunConfig).  After one warm-up call, the run repeats ``run_experiment`` with
the workload's fixed step count until ``--seconds`` have passed (at least
three calls), then checks every call outside the timed region:

* final parameters match a sequential ``run_experiment`` oracle on the same
  batches to 1e-8 (the oracle of an R x B hybrid grid is sequential with
  batch R*B; the sequential workload is checked against a 1-worker sharded
  run, which is bitwise identical to it by construction);
* ``steps.jsonl``, ``ledger.jsonl`` and the final parameters are identical
  across the calls of one seed.

A call that raises, outlasts CALL_TIMEOUT_S or fails a check counts as
failed.  ``--trace 0`` reports the end-to-end metrics with tracing off;
``--trace 1`` splits the time between untraced calls and calls traced by
:mod:`spans`, and reports the per-layer metrics.  Per-layer times are ms per
training step summed over worker threads, except ``runner.post_loop_ms`` and
``model.checkpoint_ms``, which are ms per ``run_experiment`` call.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with the workload config, the environment fingerprint (compare
results only when fingerprints match), the per-call samples and every
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import faulthandler
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import seqpar  # noqa: E402

if Path(seqpar.__file__).resolve().parent.parent != ROOT / "src":
    raise SystemExit(f"seqpar imported from {seqpar.__file__}, not from this checkout's src/")

from seqpar import CommLedger, Parameters, costs, reporting  # noqa: E402
from seqpar.runner import OUTPUT_DIR_ENV  # noqa: E402
from spans import COLLECTIVE_KINDS, Tracer, layer_metrics, step_times  # noqa: E402
from stats import summarize  # noqa: E402
from workloads import WORKLOADS, Workload, write_corpus  # noqa: E402

TOLERANCE = 1e-8          # the tier-1 suite's parameter tolerance
CALL_TIMEOUT_S = 90.0     # one run_experiment call slower than this has failed
WATCHDOG_S = 170          # a hung run exits nonzero before the 180 s limit
RESIDUAL_LIMIT = 1e-6     # self times must add up to each worker's loop time

END_TO_END = {
    "tokens_per_s": "tokens/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "loss_final": "nats",
    "score_elements_peak": "count",
}
# Exact per-step figures that read 0 on the sequential workload (and
# error_rate, 0 on a correct run); they are printed with the end-to-end
# metrics and reported as per-layer metrics.
EXACT = {
    "comm_bytes_per_step": "bytes",
    "collectives_per_step": "count",
    "error_rate": "ratio",
}
PER_LAYER = {
    "tensor.matmul_ms": "ms",
    "tensor.matmul_calls": "count",
    "tensor.matmul_gflops": "GFLOP/s",
    "tensor.check_finite_ms": "ms",
    "tensor.check_finite_calls": "count",
    "tensor.transpose_ms": "ms",
    "tensor.softmax_ms": "ms",
    "nnops.gelu_ms": "ms",
    "nnops.layernorm_ms": "ms",
    "nnops.linear_ms": "ms",
    "nnops.dropout_ms": "ms",
    "nnops.cross_entropy_ms": "ms",
    "nnops.embed_ms": "ms",
    "model.embed_ms": "ms",
    "model.attention_fwd_ms": "ms",
    "model.attention_bwd_ms": "ms",
    "model.ffn_fwd_ms": "ms",
    "model.ffn_bwd_ms": "ms",
    "model.head_ms": "ms",
    "model.layer_glue_ms": "ms",
    "model.activation_bytes_peak": "bytes",
    "model.score_bytes_peak": "bytes",
    **{f"collectives.calls.{k}": "count" for k in COLLECTIVE_KINDS},
    **{f"collectives.bytes.{k}": "bytes" for k in COLLECTIVE_KINDS},
    "collectives.wait_ms": "ms",
    "collectives.combine_ms": "ms",
    "collectives.wait_share": "ratio",
    "engine.fwd_ms": "ms",
    "engine.bwd_ms": "ms",
    "engine.sync_ms": "ms",
    "engine.grad_norm_ms": "ms",
    "engine.worker_imbalance": "ratio",
    "optim.update_ms": "ms",
    "data.batch_ms": "ms",
    "runner.post_loop_ms": "ms",
    "reporting.write_ms": "ms",
    "model.checkpoint_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "costs.score_flops_delta": "count",
    "costs.collectives_delta": "count",
    "costs.comm_elements_delta": "count",
    **EXACT,
}
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS",
)


@dataclass
class Call:
    """One run_experiment call and what the gate needs to judge it."""

    wall_s: float
    loop_s: float = 0.0
    post_loop_s: float = 0.0
    out_dir: str = ""
    # sha256 of steps.jsonl, ledger.jsonl and the final parameters.
    artifacts: dict = field(default_factory=dict)
    # Final parameters; timed_calls drops them when they are bitwise equal to
    # the first call's, so that the run's memory does not grow per call.
    params: Parameters | None = None
    tracer: Tracer | None = None
    error: str | None = None


def run_call(rc, *, full_trace: bool) -> Call:
    """One timed run_experiment call.  Only the training-loop entry points
    are wrapped unless ``full_trace``."""
    gc.collect()
    tracer = Tracer(full=full_trace)
    start = time.perf_counter()
    try:
        with tracer:
            result = seqpar.run_experiment(rc)
    except Exception as exc:  # a failing call is counted, and the run goes on
        return Call(wall_s=time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
    end = time.perf_counter()
    loops = tracer.loop_spans()
    if len(loops) != 1:
        raise RuntimeError(f"expected one training-loop span per run_experiment call, got "
                           f"{len(loops)}; the engines' run_steps entry points have moved")
    loop_s, post_loop_s = loops[0].duration, end - loops[0].end
    artifacts = {name: hashlib.sha256(Path(result.out_dir, name).read_bytes()).hexdigest()
                 for name in ("steps.jsonl", "ledger.jsonl")}
    digest = hashlib.sha256()
    for a in result.final_params.arrays():
        digest.update(np.ascontiguousarray(a).tobytes())
    artifacts["final params"] = digest.hexdigest()
    return Call(end - start, loop_s, post_loop_s, result.out_dir, artifacts,
                result.final_params, tracer)


def timed_calls(rc, seconds: float, *, full_trace: bool, min_calls: int) -> list[Call]:
    calls: list[Call] = []
    first: Call | None = None
    start = time.perf_counter()
    while len(calls) < min_calls or time.perf_counter() - start < seconds:
        call = run_call(rc, full_trace=full_trace)
        if call.error is None:
            if first is None:
                first = call
            elif call.artifacts["final params"] == first.artifacts["final params"]:
                call.params = None
        calls.append(call)
    return calls


def max_param_delta(a, b) -> float:
    """Largest |a - b| over all parameters; NaN anywhere makes it NaN."""
    return float(np.max([np.max(np.abs(x - y), initial=0.0) for x, y in zip(a.arrays(), b.arrays())]))


class Gate:
    """Judges calls against the oracle's parameters and against the first
    passing call (bitwise repeatability)."""

    def __init__(self, oracle) -> None:
        self.oracle = oracle
        self.reference: Call | None = None
        self._deltas: dict[str, float] = {}  # params digest -> oracle delta

    def judge(self, call: Call) -> str | None:
        """None when the call passes, else the reason it failed.  A call
        whose params were dropped shares its digest with a call judged
        before it."""
        if call.error is not None:
            return call.error
        if call.wall_s > CALL_TIMEOUT_S:
            return f"timed out: {call.wall_s:.1f} s > {CALL_TIMEOUT_S} s"
        if call.params is not None:
            if len(call.params.arrays()) != len(self.oracle.arrays()):
                return "final params have a different structure than the oracle's"
            delta = max_param_delta(call.params, self.oracle)
            self._deltas.setdefault(call.artifacts["final params"], delta)
        else:
            delta = self._deltas[call.artifacts["final params"]]
        if not delta <= TOLERANCE:
            return f"final params differ from the oracle by {delta:.3e}"
        if self.reference is None:
            self.reference = call
            return None
        changed = [n for n, d in call.artifacts.items() if d != self.reference.artifacts[n]]
        if changed:
            return f"{' and '.join(changed)} not byte-identical between calls of one seed"
        return None


def oracle_params(w: Workload, rc):
    """Final parameters of the workload's sequential oracle (see module doc)."""
    out_dir = str(Path(rc.out_dir).with_name("oracle"))
    if w.engine == "sequential":
        orc = replace(rc, engine="sharded", workers=1, out_dir=out_dir)
    else:
        model = replace(rc.model, batch=rc.model.batch * w.replicas)
        orc = replace(rc, engine="sequential", workers=1, replicas=1, model=model, out_dir=out_dir)
    return seqpar.run_experiment(orc).final_params


def exact_metrics(w: Workload, rc, out_dir: str) -> dict[str, float]:
    """Figures read from a call's steps.jsonl and ledger.jsonl, plus the
    cost-model deltas (measured minus ``costs.estimate``)."""
    reports = reporting.read_jsonl(Path(out_dir, "steps.jsonl"))
    ledger = CommLedger.from_jsonl(Path(out_dir, "ledger.jsonl").read_text(encoding="ascii"))
    steps = len(reports)
    itemsize = rc.model.dtype.itemsize
    records = ledger.records
    out = {
        "loss_final": reports[-1].loss,
        "score_elements_peak": max(r.score_elements_peak for r in reports),
        "comm_bytes_per_step": sum(r.elements for r in records) * itemsize / steps,
        "collectives_per_step": len(records) / steps,
    }
    for kind in COLLECTIVE_KINDS:
        of_kind = [r for r in records if r.kind == kind]
        out[f"collectives.calls.{kind}"] = len(of_kind) / steps
        out[f"collectives.bytes.{kind}"] = sum(r.elements for r in of_kind) * itemsize / steps
    # The runner estimates a hybrid grid with the sharded formula for one
    # sequence group, so its deltas show the vertical sync and the other
    # replicas' traffic; that known gap is reported, not gated.
    est = costs.estimate(rc.model, rc.workers, "sharded" if w.engine == "hybrid" else w.engine,
                         fused=rc.fused)
    step0 = ledger.select(step=0)
    out["costs.score_flops_delta"] = reports[0].attn_score_flops - est.score_flops
    out["costs.collectives_delta"] = len(step0) - est.collectives_per_step
    out["costs.comm_elements_delta"] = sum(r.elements for r in step0) - est.comm_elements_per_step
    return out


def fingerprint() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    """Returns (result object, report)."""
    w = WORKLOADS[name]
    corpus = str(work / "corpus.txt")
    write_corpus(corpus, seed)
    rc = w.run_config(dataset=corpus, out_dir=str(work / "run"), seed=seed)
    # Warm-up: first-use costs (lazy imports, allocator growth, BLAS thread
    # start) are paid once per process, not once per training run.
    seqpar.run_experiment(replace(rc, steps=1, out_dir=str(work / "warmup")))

    if trace:
        untraced = timed_calls(rc, seconds / 2, full_trace=False, min_calls=2)
        traced = timed_calls(rc, seconds / 2, full_trace=True, min_calls=2)
    else:
        untraced = timed_calls(rc, seconds, full_trace=False, min_calls=3)
        traced = []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    gate = Gate(oracle_params(w, rc))
    calls = untraced + traced
    failures = [(i, reason) for i, c in enumerate(calls) if (reason := gate.judge(c)) is not None]
    done_untraced = [c for c in untraced if c.error is None]
    done_traced = [c for c in traced if c.error is None]
    if not done_untraced or (trace and not done_traced):
        raise SystemExit(f"no call of {name} completed: {failures[0][1]}")

    tokens = w.steps * w.tokens_per_step
    tps = statistics.median(tokens / c.loop_s for c in done_untraced)
    exact = exact_metrics(w, rc, done_untraced[0].out_dir)
    exact["error_rate"] = len(failures) / len(calls)
    metrics = {
        "tokens_per_s": tps,
        "setup_s": statistics.median(c.wall_s - c.loop_s for c in done_untraced),
        "peak_rss_mb": peak_rss_mb,
        **exact,
    }
    correct = not failures
    report = {
        "workload": name,
        "seed": seed,
        "config": w.to_dict(),
        "fingerprint": fingerprint(),
        "loop_ms_per_step": summarize(1000.0 * c.loop_s / w.steps for c in done_untraced),
        "calls": [{"wall_s": c.wall_s, "loop_s": c.loop_s} for c in calls],
        "setup_ms": summarize(1000.0 * (c.wall_s - c.loop_s) for c in done_untraced),
        "failures": [f"call {i}: {reason}" for i, reason in failures],
    }
    if trace:
        layers = layer_metrics([c.tracer for c in done_traced], w.steps)
        residual = layers.pop("trace.self_time_residual")
        if residual > RESIDUAL_LIMIT:
            correct = False
            report["failures"].append(f"self times miss a worker's loop time by {residual:.2e}")
        layers["runner.post_loop_ms"] = 1000.0 * statistics.median(c.post_loop_s for c in done_traced)
        layers["trace.overhead_ratio"] = statistics.median(
            tokens / c.loop_s for c in done_traced) / tps
        metrics.update(layers)
        report["traced_step_ms"] = summarize(
            1000.0 * t for c in done_traced for t in step_times(c.tracer.spans))
        report["untraced_targets"] = sorted({m for c in done_traced for m in c.tracer.missing})
        report["self_time_residual"] = residual
    report["metrics"] = {k: {"value": v, "unit": {**END_TO_END, **PER_LAYER}[k]}
                         for k, v in metrics.items()}
    wanted = PER_LAYER if trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": len(calls),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in wanted.items()},
    }
    return result, report


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    os.environ.pop(OUTPUT_DIR_ENV, None)
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
        faulthandler.cancel_dump_traceback_later()
    for k, m in report["metrics"].items():
        print(f"{k:<34} {m['value']:.6g} {m['unit']}")
    for line in report["failures"]:
        print(f"FAILED {line}")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
