"""Single precision as a checked mode.

Every multi-worker engine matches the sequential oracle within
``runner.equivalence_tolerance(np.float32)``, 1-worker grids match it bit for
bit, and no float64 array appears in any rank's activation caches, its
gradients or its collective payloads when the config says single.
"""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest

from seqpar import model, runner
from seqpar.collectives import Communicator
from seqpar.grid import GridLayout
from seqpar.nnops import DropoutPolicy

from conftest import max_param_delta

COLLECTIVES = ("scatter", "gather", "all_gather", "reduce_scatter", "all_reduce")


def single(cfg, dropout):
    return replace(cfg, precision="single", dropout=dropout)


def grid_batches(cfg, rng, replicas, steps=3):
    shape = (replicas * cfg.batch, cfg.seq_len)
    return [(rng.integers(0, cfg.vocab, size=shape), rng.integers(0, cfg.vocab, size=shape))
            for _ in range(steps)]


def policy_of(cfg):
    return DropoutPolicy(rate=cfg.dropout, seed=7)


@pytest.mark.parametrize("engine, replicas, workers, dropout", [
    ("sharded", 1, 2, 0.1), ("sharded", 1, 4, 0.1), ("baseline", 1, 2, 0.1),
    ("hybrid", 2, 2, 0.0), ("hybrid", 2, 2, 0.1),
])
def test_multi_worker_grids_match_the_oracle_within_the_single_tolerance(
        tiny_cfg, rng, engine, replicas, workers, dropout):
    cfg = single(tiny_cfg, dropout)
    params = model.init_params(cfg, 0)
    batches = grid_batches(cfg, rng, replicas)
    oracle = runner._sequential_steps(cfg, params, batches, lr=0.2, policy=policy_of(cfg))
    run = runner._train(engine, cfg, params, GridLayout(replicas, workers), batches, lr=0.2,
                        policy=policy_of(cfg))
    tolerance = runner.equivalence_tolerance(np.float32)
    assert all(a.dtype == np.float32 for a in run.final_params.arrays())
    assert max_param_delta(run.final_params, oracle.final_params) < tolerance
    np.testing.assert_allclose(run.step_losses, oracle.step_losses, rtol=tolerance)


@pytest.mark.parametrize("engine", ["sharded", "baseline"])
def test_one_worker_grids_are_bitwise_sequential(tiny_cfg, rng, engine):
    cfg = single(tiny_cfg, 0.1)
    params = model.init_params(cfg, 0)
    batches = grid_batches(cfg, rng, 1)
    oracle = runner._sequential_steps(cfg, params, batches, lr=0.2, policy=policy_of(cfg))
    run = runner._train(engine, cfg, params, GridLayout(1, 1), batches, lr=0.2,
                        policy=policy_of(cfg))
    for got, want in zip(run.final_params.arrays(), oracle.final_params.arrays()):
        np.testing.assert_array_equal(got, want)
    assert run.step_losses == oracle.step_losses


def float_arrays(obj, path, out):
    """Append ``(path, array)`` for every floating-point array reachable from
    ``obj`` through dataclass fields, lists and tuples."""
    if isinstance(obj, np.ndarray):
        if np.issubdtype(obj.dtype, np.floating):
            out.append((path, obj))
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            float_arrays(item, f"{path}[{i}]", out)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            float_arrays(getattr(obj, f.name), f"{path}.{f.name}", out)


@pytest.mark.parametrize("engine, replicas, workers, fused", [
    ("sequential", 1, 1, True), ("sharded", 1, 2, True), ("sharded", 1, 2, False),
    ("baseline", 1, 2, True), ("hybrid", 2, 2, True),
])
def test_no_float64_in_caches_gradients_or_payloads(
        tiny_cfg, rng, monkeypatch, engine, replicas, workers, fused):
    """Walk each forward stage's cache as it is made, every StackCache and
    gradient set ``model.backward`` sees and returns, each rank's synced
    gradients, and every array passed into or out of a collective."""
    cfg = single(tiny_cfg, 0.1)
    seen: list[tuple[str, np.ndarray]] = []

    def walking_cache(name, fn):
        def wrapped(*args, **kw):
            out, cache = fn(*args, **kw)
            float_arrays((out, cache), name, seen)
            return out, cache
        monkeypatch.setattr(model, name, wrapped)

    for name in ("embed_fwd", "layer_fwd", "head_fwd"):
        walking_cache(name, getattr(model, name))
    backward = model.backward

    def walking_backward(params, cfg, cache, *args, **kw):
        float_arrays(cache, "StackCache", seen)
        grads = backward(params, cfg, cache, *args, **kw)
        float_arrays(grads, "backward grads", seen)
        return grads

    monkeypatch.setattr(model, "backward", walking_backward)
    payloads = []
    for name in COLLECTIVES:
        method = getattr(Communicator, name)

        def recording(self, group, rank, x, *args, _name=name, _method=method, **kw):
            out = _method(self, group, rank, x, *args, **kw)
            float_arrays((x, out), _name, payloads)
            return out
        monkeypatch.setattr(Communicator, name, recording)

    run = runner._train(engine, cfg, model.init_params(cfg, 0), GridLayout(replicas, workers),
                        grid_batches(cfg, rng, replicas, steps=2), lr=0.1,
                        policy=policy_of(cfg), fused=fused)
    float_arrays(run.last_grads, "synced grads", seen)
    float_arrays(run.workers, "params", seen)
    assert seen and (payloads or workers == 1)
    wide = [(path, a.shape) for path, a in seen + payloads if a.dtype != np.float32]
    assert wide == []
