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

import pytest

from seqpar.collectives import Communicator

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
