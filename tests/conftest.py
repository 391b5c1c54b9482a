import numpy as np
import pytest

from seqpar import model, optim
from seqpar.model import ModelConfig
from seqpar.nnops import DropoutPolicy


@pytest.fixture
def tiny_cfg():
    """Small two-layer config every equivalence test shares."""
    return ModelConfig(
        embed_dim=16, n_layers=2, n_heads=2, ff_dim=32,
        vocab=256, seq_len=24, batch=2,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def rand_batch(cfg, rng):
    tokens = rng.integers(0, cfg.vocab, size=(cfg.batch, cfg.seq_len))
    targets = rng.integers(0, cfg.vocab, size=(cfg.batch, cfg.seq_len))
    return tokens, targets


def max_param_delta(a, b) -> float:
    """Largest absolute elementwise difference over two parameter sets."""
    return max(
        float(np.max(np.abs(x - y))) if x.size else 0.0
        for x, y in zip(a.arrays(), b.arrays())
    )


def assert_param_sets_close(got, want, rtol, atol, skip=()):
    for (name, x), (_, y) in zip(got.named_arrays(), want.named_arrays()):
        if name in skip:
            continue
        np.testing.assert_allclose(x, y, rtol=rtol, atol=atol, err_msg=name)


def sequential_sgd(cfg, params, batches, lr, policy=None):
    """Reference training loop; returns (final params, losses, last grads)."""
    policy = policy if policy is not None else DropoutPolicy.off()
    losses, grads = [], None
    for s, (tokens, targets) in enumerate(batches):
        step_policy = policy.at_step(s) if policy.active else policy
        loss, cache = model.forward(params, cfg, tokens, targets, policy=step_policy)
        grads = model.backward(params, cfg, cache)
        params = model.sgd_step(params, grads, lr)
        losses.append(loss)
    return params, losses, grads


def sequential_adam(cfg, params, batches, lr):
    """Reference Adam training loop; returns the final params."""
    update = optim.make_update("adam", params, lr)
    for tokens, targets in batches:
        _, cache = model.forward(params, cfg, tokens, targets)
        params = update(params, model.backward(params, cfg, cache))
    return params
