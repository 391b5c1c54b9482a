import threading
from collections import Counter

import numpy as np
import pytest

from seqpar import baseline, grid, model, sharded
from seqpar.collectives import Communicator, run_workers
from seqpar.grid import GridLayout, ShardSpec, Worker
from seqpar.model import ModelConfig

from conftest import max_param_delta, rand_batch, sequential_adam, sequential_sgd


def make_batches(cfg, rng, steps):
    return [rand_batch(cfg, rng) for _ in range(steps)]


def test_single_worker_run_is_bitwise_sequential(tiny_cfg, rng):
    params = model.init_params(tiny_cfg, 0)
    batches = make_batches(tiny_cfg, rng, 3)
    run = baseline.run_steps(tiny_cfg, params, 1, batches, lr=0.2)
    oracle, oracle_losses, _ = sequential_sgd(tiny_cfg, params, batches, lr=0.2)
    assert run.step_losses == oracle_losses
    for a, b in zip(run.workers[0].arrays(), oracle.arrays()):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [2, 3])
def test_multi_worker_matches_sequential(tiny_cfg, rng, n):
    params = model.init_params(tiny_cfg, 1)
    batches = make_batches(tiny_cfg, rng, 3)
    run = baseline.run_steps(tiny_cfg, params, n, batches, lr=0.2)
    oracle, oracle_losses, oracle_grads = sequential_sgd(tiny_cfg, params, batches, lr=0.2)

    for got, want in zip(run.step_losses, oracle_losses):
        assert abs(got - want) <= 1e-12 * abs(want)
    assert max_param_delta(run.workers[0], oracle) < 1e-12

    # every worker ends the step with the complete, identical gradient set
    for g in run.last_grads:
        for (name, a), (_, b) in zip(g.named_arrays(), oracle_grads.named_arrays()):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12, err_msg=name)


def test_workers_stay_in_lockstep(tiny_cfg, rng):
    params = model.init_params(tiny_cfg, 2)
    run = baseline.run_steps(tiny_cfg, params, 3, make_batches(tiny_cfg, rng, 2), lr=0.1)
    reference = run.workers[0]
    for other in run.workers[1:]:
        for a, b in zip(reference.arrays(), other.arrays()):
            assert a.tobytes() == b.tobytes()


def test_ledger_schedule_per_step(tiny_cfg, rng):
    n, steps = 3, 2
    params = model.init_params(tiny_cfg, 0)
    run = baseline.run_steps(tiny_cfg, params, n, make_batches(tiny_cfg, rng, steps), lr=0.1)
    ledger = run.comm.ledger
    L = tiny_cfg.n_layers
    assert len(ledger.records) == (8 * L + 5) * steps
    for s in range(steps):
        assert ledger.count(step=s) == 8 * L + 5
        assert ledger.count(step=s, layer_tagged=True) == 8 * L
        assert ledger.count(step=s, kind="gather") == 4 * L + 2
        assert ledger.count(step=s, kind="scatter") == 2 * L + 1
        assert ledger.count(step=s, kind="reduce-scatter") == 2 * L + 1
        assert ledger.count(step=s, kind="all-reduce", phase="sync") == 1
        for li in range(L):
            assert ledger.count(step=s, layer=li) == 8


def test_only_rank_zero_holds_the_score_footprint(tiny_cfg, rng):
    n = 2
    params = model.init_params(tiny_cfg, 0)
    run = baseline.run_steps(tiny_cfg, params, n, make_batches(tiny_cfg, rng, 1), lr=0.1)
    full = tiny_cfg.batch * tiny_cfg.n_heads * tiny_cfg.seq_len * tiny_cfg.seq_len
    assert run.counters[0][0].attn_score_elements_peak == full
    for w in range(1, n):
        assert run.counters[w][0].attn_score_elements_peak == 0
        assert run.counters[w][0].attn_score_flops == 0


def test_score_footprint_is_workers_times_sharded(tiny_cfg, rng):
    n = 4
    params = model.init_params(tiny_cfg, 0)
    batches = make_batches(tiny_cfg, rng, 1)
    base = baseline.run_steps(tiny_cfg, params, n, batches, lr=0.1)
    shard = sharded.run_steps(tiny_cfg, params, n, batches, lr=0.1)
    assert (
        base.counters[0][0].attn_score_elements_peak
        == n * shard.counters[0][0].attn_score_elements_peak
    )


def test_loss_only_materializes_on_rank_zero(tiny_cfg, rng):
    n = 2
    params = model.init_params(tiny_cfg, 3)
    tokens, targets = rand_batch(tiny_cfg, rng)
    comm = Communicator(n)
    seq_groups, data_groups = grid.make_groups(comm, GridLayout(1, n))

    def worker(rank):
        w = Worker(comm, ShardSpec(rank, n, tiny_cfg.seq_len), seq_groups[0], data_groups[rank])
        loss, _ = baseline.train_step(w, params, tiny_cfg, tokens, targets)
        return loss

    losses = run_workers(n, worker, comm=comm)
    assert losses[0] is not None
    assert losses[1] is None


def test_other_ranks_build_no_zero_gradients(rng, monkeypatch):
    """Rank 0 alone runs the embedding, both sublayers and the head; the
    other ranks leave those gradients zero in the flat vector they sum, and
    build no zero array shaped like a parameter.  The model is the deep
    benchmark workload's (E32 L8 H4 FF64 T64 B2)."""
    cfg = ModelConfig(embed_dim=32, n_layers=8, n_heads=4, ff_dim=64, vocab=256, seq_len=64,
                      batch=2)
    n = 2
    params = model.init_params(cfg, 0)
    tokens, targets = rand_batch(cfg, rng)
    comm = Communicator(n)
    seq_groups, data_groups = grid.make_groups(comm, GridLayout(1, n))
    calls = Counter()
    zeros_like = np.zeros_like

    def counting(*args, **kw):
        calls[threading.current_thread().name] += 1
        return zeros_like(*args, **kw)

    def worker(rank):
        w = Worker(comm, ShardSpec(rank, n, cfg.seq_len), seq_groups[0], data_groups[rank])
        return baseline.train_step(w, params, cfg, tokens, targets)

    monkeypatch.setattr(np, "zeros_like", counting)
    run_workers(n, worker, comm=comm)
    assert calls["worker-0"] > 0  # the count is live: the score backward makes some
    assert calls["worker-1"] == 0


def test_rank_zero_validates_batch_width(tiny_cfg, rng):
    tokens, targets = rand_batch(tiny_cfg, rng)
    comm = Communicator(1)
    seq_groups, data_groups = grid.make_groups(comm, GridLayout(1, 1))
    w = Worker(comm, ShardSpec(0, 1, tiny_cfg.seq_len), seq_groups[0], data_groups[0])
    from seqpar.errors import ShapeError

    with pytest.raises(ShapeError):
        baseline.train_step(
            w, model.init_params(tiny_cfg, 0), tiny_cfg, tokens[:, :12], targets[:, :12],
        )


def test_dropout_matches_sequential(tiny_cfg, rng):
    from seqpar.nnops import DropoutPolicy

    policy = DropoutPolicy(rate=0.1, seed=9)
    params = model.init_params(tiny_cfg, 4)
    batches = make_batches(tiny_cfg, rng, 2)
    run = baseline.run_steps(tiny_cfg, params, 2, batches, lr=0.2, policy=policy)
    oracle, oracle_losses, _ = sequential_sgd(tiny_cfg, params, batches, lr=0.2, policy=policy)
    for got, want in zip(run.step_losses, oracle_losses):
        assert abs(got - want) <= 1e-12 * abs(want)
    assert max_param_delta(run.workers[0], oracle) < 1e-10


@pytest.mark.parametrize("n", [2, 4])
def test_adam_run_matches_sequential_adam(tiny_cfg, rng, n):
    params = model.init_params(tiny_cfg, 5)
    batches = make_batches(tiny_cfg, rng, 3)
    run = baseline.run_steps(tiny_cfg, params, n, batches, lr=1e-3, optimizer="adam")
    oracle = sequential_adam(tiny_cfg, params, batches, lr=1e-3)
    assert max_param_delta(run.final_params, oracle) < 1e-10
