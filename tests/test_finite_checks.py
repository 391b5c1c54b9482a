"""Where non-finite values are caught.

The kernels do not scan their outputs; a layer checks its output in the
forward pass and its input gradient in the backward pass, and each rank
checks its step's gradients before the optimizer applies them.  NaN and Inf
propagate through every op, so a bad value still raises before it reaches
the parameters, on every engine.
"""

import numpy as np
import pytest

from seqpar import baseline, grid, model, runner, sharded
from seqpar.errors import NumericsError
from seqpar.grid import GridLayout
from seqpar.nnops import DropoutPolicy

from conftest import rand_batch

# (engine, workers, its step function, whether a rank owns only its block)
ENGINES = {
    "sequential": (1, runner._sequential_step, False),
    "sharded": (2, sharded.train_step, True),
    "baseline": (2, baseline.train_step, False),
}


@pytest.fixture
def setup(tiny_cfg, rng):
    params = model.init_params(tiny_cfg, 0)
    batches = [rand_batch(tiny_cfg, rng) for _ in range(2)]
    return tiny_cfg, params, batches


@pytest.fixture
def updates(monkeypatch):
    """Every gradient set the SGD update is applied to."""
    seen = []
    step = model.sgd_step

    def recording(params, grads, lr):
        seen.append(grads)
        return step(params, grads, lr)

    monkeypatch.setattr(model, "sgd_step", recording)
    return seen


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("engine", list(ENGINES))
def test_inf_in_a_layer_weight_raises_in_that_layers_forward(engine, setup, updates):
    cfg, params, batches = setup
    params.layers[1].attn_q.weight[0, 0] = np.inf
    workers = ENGINES[engine][0]
    with pytest.raises(NumericsError, match="layer 1 output"):
        runner._train(engine, cfg, params, GridLayout(1, workers), batches, lr=0.1,
                      timeout=10.0)
    assert updates == []


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("engine", list(ENGINES))
def test_non_finite_logits_raise_numerics_error_before_the_update(engine, setup, updates):
    cfg, params, batches = setup
    params.head.weight[0, 0] = np.inf
    workers = ENGINES[engine][0]
    with pytest.raises(NumericsError, match="non-finite loss"):
        runner._train(engine, cfg, params, GridLayout(1, workers), batches, lr=0.1,
                      timeout=10.0)
    assert updates == []


@pytest.mark.parametrize("engine", list(ENGINES))
def test_non_finite_gradient_raises_before_the_update(engine, setup, updates):
    """The last rank's step returns one NaN gradient entry; that rank raises
    and never applies it."""
    cfg, params, batches = setup
    workers, step, split = ENGINES[engine]
    last = workers - 1

    def poisoned(worker, *args, **kw):
        loss, grads = step(worker, *args, **kw)
        if worker.rank == last:
            arrays = grads.arrays()  # a fresh array: collectives may share buffers
            arrays[-1] = np.full_like(arrays[-1], np.nan)
            grads = grads.replace_arrays(arrays)
        return loss, grads

    with pytest.raises(NumericsError, match=f"rank {last} step 0 gradients"):
        grid.train(poisoned, cfg, params, GridLayout(1, workers), batches, lr=0.1,
                   split=split, run_workers=runner.run_workers, timeout=10.0)
    assert all(np.isfinite(g).all() for grads in updates for g in grads.arrays())


def test_non_finite_gradient_raises_in_that_layers_backward(tiny_cfg, rng):
    params = model.init_params(tiny_cfg, 0)
    x = rng.standard_normal((tiny_cfg.batch, tiny_cfg.seq_len, tiny_cfg.embed_dim))
    off = DropoutPolicy.off()
    _, cache = model.layer_fwd(params.layers[0], tiny_cfg, off, 0, x, 0)
    grad_out = np.ones_like(x)
    grad_out[0, 3, 1] = np.nan
    with pytest.raises(NumericsError, match="layer 0 input gradient"):
        model.layer_bwd(params.layers[0], tiny_cfg, off, 0, cache, grad_out)
