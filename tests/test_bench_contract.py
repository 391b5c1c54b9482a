"""The names the benchmark's tracer patches must exist in the program, and
the program figures the benchmark reads must hold.

perfbench/spans.py wraps seqpar functions by name.  A rename there makes
every benchmark call fail with "expected one training-loop span" or silently
drops the worker-thread roots, so the contract is checked here, in the
ordinary test suite, without touching perfbench/.  perfbench/run.py reads
``costs.estimate`` for its cost-model deltas, which read 0 on correct code.
"""

import importlib
import importlib.util
import inspect
import pathlib
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from seqpar import model, run_experiment, runner, tensor
from seqpar.collectives import Communicator
from seqpar.grid import GridLayout
from seqpar.model import ModelConfig
from seqpar.nnops import DropoutPolicy

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans_contract", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(dotted: str):
    module, attr = dotted.split(".")
    return getattr(importlib.import_module(f"seqpar.{module}"), attr, None)


def test_loop_targets_are_callable(spans):
    for owner, attr in spans.LOOP_TARGETS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_step_roots_are_callable(spans):
    for name in spans.STEP_ROOTS:
        assert callable(resolve(name)), name


def test_self_time_names_are_callable(spans):
    for metric, names in spans.SELF_TIME.items():
        for name in names:
            assert callable(resolve(name)), f"{metric}: {name}"


def test_every_inclusive_metric_has_a_live_name(spans):
    for metric, names in {**spans.INCLUSIVE, **spans.PER_RUN}.items():
        assert any(callable(resolve(n)) for n in names), f"{metric}: none of {names}"


@pytest.mark.parametrize("name", ["sharded.run_workers", "baseline.run_workers",
                                  "hybrid.run_workers"])
def test_worker_roots_are_patchable(name):
    assert callable(resolve(name)), name


def test_collective_methods_match_the_tracer(spans):
    """The tracer wraps each Communicator method and reads the group from its
    second positional argument (after self) and the phase from its keywords;
    a mismatch would silently zero every collectives.* metric."""
    for name in spans.COLLECTIVE_METHODS:
        method = getattr(Communicator, name, None)
        assert callable(method), name
        params = inspect.signature(method).parameters
        assert list(params)[1] == "group", name
        assert "phase" in params and params["phase"].kind is inspect.Parameter.KEYWORD_ONLY, name


@pytest.mark.parametrize("engine, replicas, workers, fused", [
    ("sequential", 1, 1, True), ("sharded", 1, 2, True), ("sharded", 1, 2, False),
    ("baseline", 1, 2, True), ("hybrid", 2, 2, True),
])
def test_tracer_counts_one_step_per_rank_and_never_nests_an_engine_phase(
        spans, engine, replicas, workers, fused):
    """The tracer starts a step at each entry into a STEP_ROOTS name and sums
    the inclusive time of every engine.fwd_ms and engine.bwd_ms name, so each
    rank must enter exactly one root per step, and no name of either list may
    run inside another of the same list (say, sharded.forward calling
    model.forward): either would count a step or a phase twice."""
    cfg = ModelConfig(embed_dim=8, n_layers=2, n_heads=2, ff_dim=16, vocab=32, seq_len=8,
                      batch=2)
    rng = np.random.default_rng(0)
    shape = (replicas * cfg.batch, cfg.seq_len)
    batches = [(rng.integers(0, cfg.vocab, size=shape), rng.integers(0, cfg.vocab, size=shape))
               for _ in range(2)]
    with spans.Tracer(full=True) as tracer:
        runner._train(engine, cfg, model.init_params(cfg, 0), GridLayout(replicas, workers),
                      batches, lr=0.1, fused=fused)
    recorded = tracer.spans
    steps: dict[str, list[int]] = {}
    for s in recorded:
        if s.name in spans.STEP_ROOTS:
            steps.setdefault(s.thread, []).append(s.step)
    assert len(steps) == replicas * workers
    assert all(sorted(seen) == [0, 1] for seen in steps.values()), steps
    by_id = {s.id: s for s in recorded}
    for metric in ("engine.fwd_ms", "engine.bwd_ms"):
        names = spans.INCLUSIVE[metric]
        for s in recorded:
            if s.name not in names:
                continue
            outer = by_id.get(s.parent)
            while outer is not None:
                assert outer.name not in names, f"{metric}: {s.name} inside {outer.name}"
                outer = by_id.get(outer.parent)
    if engine != "baseline":  # its train_step is split into phases instead
        bwd = Counter(s.thread for s in recorded if s.name in spans.INCLUSIVE["engine.bwd_ms"])
        assert bwd == Counter(dict.fromkeys(steps, 2))


@pytest.mark.parametrize("engine, workers, fused", [
    ("sequential", 1, True), ("sharded", 2, True), ("sharded", 2, False), ("baseline", 2, True),
])
def test_every_self_time_name_is_reached(spans, engine, workers, fused):
    """Each self-time name the tracer patches must run in a training step.  A
    function the program binds early (a default argument, a local alias)
    keeps calling the original when the tracer replaces the module
    attribute, and its metric silently reads zero."""
    cfg = ModelConfig(embed_dim=8, n_layers=2, n_heads=2, ff_dim=16, vocab=32, seq_len=8,
                      batch=2, dropout=0.1)
    rng = np.random.default_rng(0)
    shape = (cfg.batch, cfg.seq_len)
    batches = [(rng.integers(0, cfg.vocab, size=shape), rng.integers(0, cfg.vocab, size=shape))]
    with spans.Tracer(full=True) as tracer:
        runner._train(engine, cfg, model.init_params(cfg, 0), GridLayout(1, workers), batches,
                      lr=0.1, policy=DropoutPolicy(rate=cfg.dropout, seed=0), fused=fused)
    reached = {s.name for s in tracer.spans}
    missing = [name for metric, names in spans.SELF_TIME.items()
               if not metric.startswith("reporting.") for name in names if name not in reached]
    assert not missing, missing


@pytest.mark.parametrize("causal", [True, False], ids=["causal", "full"])
@pytest.mark.parametrize("rate", [0.0, 0.1], ids=["no-dropout", "dropout"])
def test_scores_fwd_sends_each_tile_through_softmax_rows(spans, monkeypatch, causal, rate):
    """``tensor.softmax_ms`` is the self time of ``tensor.softmax_rows``, so
    it measures the score softmax only while ``model.scores_fwd`` looks the
    kernel up on the module at call time and runs it once per tile, over
    the whole (blocks, band rows, visible keys) stack."""
    assert "tensor.softmax_rows" in spans.SELF_TIME["tensor.softmax_ms"]
    cfg = ModelConfig(embed_dim=16, n_layers=1, n_heads=2, ff_dim=8, vocab=5, seq_len=200,
                      batch=2, causal=causal)
    rng = np.random.default_rng(0)
    q, k, v = (rng.standard_normal((cfg.batch, cfg.seq_len, cfg.embed_dim)) for _ in range(3))
    calls = []
    real = tensor.softmax_rows

    def counted(a, mask=None, *, out):
        calls.append(a.shape)
        return real(a, mask, out=out)

    monkeypatch.setattr(tensor, "softmax_rows", counted)
    _, cache = model.scores_fwd(q, k, v, ((0, cfg.seq_len),), cfg,
                                DropoutPolicy(rate=rate, seed=1), 0)
    blocks = cfg.batch * cfg.n_heads
    assert len(cache.tiles) == (4 if causal else 1)
    assert calls == [(blocks, r1 - r0, visible) for r0, r1, visible, _ in cache.tiles]


@pytest.fixture
def bench(monkeypatch):
    """perfbench/run.py, loaded with perfbench/ on sys.path for this test
    only; the perfbench modules it imports leave sys.modules after it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delenv(runner.OUTPUT_DIR_ENV, raising=False)
    fresh = [name for name in ("spans", "stats", "workloads") if name not in sys.modules]
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run_contract",
                                                      PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
        spec.loader.exec_module(module)
        yield module
    finally:
        for name in fresh:
            sys.modules.pop(name, None)


def test_every_workloads_cost_deltas_read_zero(bench, tmp_path):
    """One step of each benchmark workload on the seed-1 corpus: every
    ``costs.*_delta`` that ``exact_metrics`` reports is 0."""
    corpus = str(tmp_path / "corpus.txt")
    bench.write_corpus(corpus, 1)
    for name, w in bench.WORKLOADS.items():
        out_dir = str(tmp_path / name)
        rc = replace(w.run_config(dataset=corpus, out_dir=out_dir, seed=1), steps=1)
        run_experiment(rc)
        deltas = {k: v for k, v in bench.exact_metrics(w, rc, out_dir).items()
                  if k.startswith("costs.")}
        assert deltas == {"costs.score_flops_delta": 0, "costs.collectives_delta": 0,
                          "costs.comm_elements_delta": 0}, name
