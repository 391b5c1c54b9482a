"""The names the benchmark's tracer patches must exist in the program.

perfbench/spans.py wraps seqpar functions by name.  A rename there makes
every benchmark call fail with "expected one training-loop span" or silently
drops the worker-thread roots, so the contract is checked here, in the
ordinary test suite, without touching perfbench/.
"""

import importlib
import importlib.util
import inspect
import pathlib
from collections import Counter

import numpy as np
import pytest

from seqpar import model, runner
from seqpar.collectives import Communicator
from seqpar.grid import GridLayout
from seqpar.model import ModelConfig

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
