import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqpar import costs, grid, model, optim, runner, sharded, tensor
from seqpar.collectives import Communicator, run_workers
from seqpar.errors import PartitionError, ShapeError
from seqpar.model import ModelConfig
from seqpar.nnops import DropoutPolicy

from conftest import max_param_delta, rand_batch, sequential_adam, sequential_sgd


def make_batches(cfg, rng, steps):
    return [rand_batch(cfg, rng) for _ in range(steps)]


# --- sharding plumbing ---


def test_shard_spec_geometry():
    spec = grid.ShardSpec(rank=2, workers=4, seq_len=24)
    assert spec.block == 6
    assert spec.offset == 12
    with pytest.raises(PartitionError):
        grid.ShardSpec(rank=0, workers=5, seq_len=24)
    with pytest.raises(ValueError):
        grid.ShardSpec(rank=4, workers=4, seq_len=24)
    with pytest.raises(ValueError):
        grid.ShardSpec(rank=0, workers=0, seq_len=24)


def test_shard_params_slices_position_rows(tiny_cfg):
    full = model.init_params(tiny_cfg, 0)
    spec = grid.ShardSpec(rank=1, workers=3, seq_len=tiny_cfg.seq_len)
    own = grid.shard_params(full, spec)
    assert own.pos_table.shape == (8, tiny_cfg.embed_dim)
    np.testing.assert_array_equal(own.pos_table, full.pos_table[8:16])
    # everything else is a full, independent copy
    assert own.token_table.shape == full.token_table.shape
    own.token_table[0, 0] += 1.0
    assert own.token_table[0, 0] != full.token_table[0, 0]
    with pytest.raises(ShapeError):
        grid.shard_params(full, grid.ShardSpec(rank=0, workers=2, seq_len=48))


def test_slice_batch_extracts_own_columns(tiny_cfg, rng):
    tokens, _ = rand_batch(tiny_cfg, rng)
    spec = grid.ShardSpec(rank=2, workers=4, seq_len=tiny_cfg.seq_len)
    seg = grid.slice_batch(tokens, spec)
    np.testing.assert_array_equal(seg, tokens[:, 12:18])
    with pytest.raises(ShapeError):
        grid.slice_batch(tokens[:, :12], spec)


def test_reassemble_positions_restores_table(tiny_cfg):
    full = model.init_params(tiny_cfg, 3)
    shards = [
        grid.shard_params(full, grid.ShardSpec(r, 4, tiny_cfg.seq_len)) for r in range(4)
    ]
    rebuilt = grid.reassemble_params(shards)
    for a, b in zip(rebuilt.arrays(), full.arrays()):
        assert a.tobytes() == b.tobytes()


# --- balanced compute rows ---


@settings(max_examples=300, deadline=None)
@given(workers=st.integers(1, 16), block=st.integers(1, 64))
def test_balanced_rows_pair_chunk_r_with_chunk_2n_minus_1_minus_r(workers, block):
    """The sequence cut into 2N chunks, N front chunks of block // 2 rows and
    N back chunks of the rest: rank r holds chunks r and 2N-1-r, merged
    when adjacent, and the ranks' rows partition the sequence."""
    seq_len = workers * block
    front, back = block // 2, block - block // 2
    chunks = ([(i * front, (i + 1) * front) for i in range(workers)]
              + [(workers * front + i * back, workers * front + (i + 1) * back)
                 for i in range(workers)])
    covered = []
    for r in range(workers):
        rows = grid.ShardSpec(r, workers, seq_len).balanced_rows
        assert model.row_count(rows) == block
        early, late = chunks[r], chunks[2 * workers - 1 - r]
        if early[1] == late[0]:
            assert rows == ((early[0], late[1]),)
        else:
            assert rows == tuple(c for c in (early, late) if c[1] > c[0])
        covered += model.row_positions(rows).tolist()
    assert sorted(covered) == list(range(seq_len))
    assert grid.ShardSpec(0, 1, seq_len).balanced_rows == ((0, seq_len),)


def test_compute_rows_follow_fusion():
    spec = grid.ShardSpec(rank=1, workers=3, seq_len=300)
    assert spec.compute_rows(False) == spec.block_rows == ((100, 200),)
    assert spec.compute_rows(True) == spec.balanced_rows == ((50, 100), (200, 250))
    assert grid.ShardSpec(2, 3, 300).balanced_rows == ((100, 200),)
    odd = [grid.ShardSpec(r, 2, 30).balanced_rows for r in range(2)]  # blocks of 15
    assert odd == [((0, 7), (22, 30)), ((7, 22),)]


@pytest.mark.parametrize("dropout", [0.0, 0.1], ids=["no-dropout", "dropout"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_balanced_rows_train_like_the_oracle(rng, n, dropout):
    """240 positions: each rank's chunks straddle 64-row score bands.  One
    worker is bitwise sequential; more match it at acceptance-01 tolerances,
    every rank's position rows included."""
    cfg = ModelConfig(embed_dim=16, n_layers=2, n_heads=2, ff_dim=16, vocab=64, seq_len=240,
                      batch=2, dropout=dropout)
    params = model.init_params(cfg, 7)
    batches = make_batches(cfg, rng, 2)
    policy = DropoutPolicy(rate=dropout, seed=3)
    run = sharded.run_steps(cfg, params, n, batches, lr=0.2, policy=policy)
    oracle, oracle_losses, oracle_grads = sequential_sgd(cfg, params, batches, lr=0.2,
                                                         policy=policy)
    if n == 1:
        assert run.step_losses == oracle_losses
        for (name, a), (_, b) in zip(run.final_params.named_arrays(), oracle.named_arrays()):
            assert a.tobytes() == b.tobytes(), name
        return
    for got, want in zip(run.step_losses, oracle_losses):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    assert max_param_delta(run.final_params, oracle) <= 1e-8
    for g in run.last_grads:
        for (name, a), (_, b) in zip(g.named_arrays(), oracle_grads.named_arrays()):
            if name != "pos_table":
                assert np.all(np.abs(a - b) <= 1e-10 + 1e-10 * np.abs(b)), name
    stitched = np.concatenate([g.pos_table for g in run.last_grads], axis=0)
    want = oracle_grads.pos_table
    assert np.all(np.abs(stitched - want) <= 1e-10 + 1e-10 * np.abs(want))


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "unfused"])
def test_each_layer_computes_the_ranks_compute_rows(tiny_cfg, rng, fused):
    """Fused ranks run their layers on their balanced rows; the unfused
    ablation never gathers the layer input, so it computes its own block."""
    n = 3
    params = model.init_params(tiny_cfg, 0)
    tokens, targets = rand_batch(tiny_cfg, rng)
    comm = Communicator(n)
    seq_groups, data_groups = grid.make_groups(comm, grid.GridLayout(1, n))

    def layer_rows(rank):
        spec = grid.ShardSpec(rank, n, tiny_cfg.seq_len)
        worker = grid.Worker(comm, spec, seq_groups[0], data_groups[rank])
        counters = tensor.StepCounters()
        with tensor.counting(counters):
            _, cache = sharded.forward(
                worker, grid.shard_params(params, spec), tiny_cfg,
                grid.slice_batch(tokens, spec),
                grid.slice_batch(targets, spec, spec.compute_rows(fused)), fused=fused)
        return [c.rows for c in cache.layers], counters.attn_score_flops

    for rank, (rows, flops) in enumerate(run_workers(n, layer_rows, comm=comm)):
        spec = grid.ShardSpec(rank, n, tiny_cfg.seq_len)
        want = spec.balanced_rows if fused else spec.block_rows
        assert rows == [want] * tiny_cfg.n_layers
        assert flops == costs.rows_score_flops(tiny_cfg, want)


# --- single-worker identity ---


def test_single_worker_run_is_bitwise_sequential(tiny_cfg, rng):
    params = model.init_params(tiny_cfg, 0)
    batches = make_batches(tiny_cfg, rng, 3)
    run = sharded.run_steps(tiny_cfg, params, 1, batches, lr=0.2)
    oracle, oracle_losses, _ = sequential_sgd(tiny_cfg, params, batches, lr=0.2)
    assert run.step_losses == oracle_losses
    got = run.final_params
    for a, b in zip(got.arrays(), oracle.arrays()):
        assert a.tobytes() == b.tobytes()


def test_single_worker_run_is_bitwise_sequential_across_bands(rng):
    """512 positions are eight bands of causal score rows; with dropout the
    keep masks of every band take part too."""
    cfg = ModelConfig(embed_dim=16, n_layers=2, n_heads=2, ff_dim=16, vocab=64, seq_len=512,
                      batch=1, dropout=0.1)
    params = model.init_params(cfg, 0)
    batches = make_batches(cfg, rng, 2)
    policy = DropoutPolicy(rate=0.1, seed=6)
    run = sharded.run_steps(cfg, params, 1, batches, lr=0.2, policy=policy)
    oracle, oracle_losses, _ = sequential_sgd(cfg, params, batches, lr=0.2, policy=policy)
    assert run.step_losses == oracle_losses
    for (name, a), (_, b) in zip(run.final_params.named_arrays(), oracle.named_arrays()):
        assert a.tobytes() == b.tobytes(), name


# --- multi-worker exactness ---


@pytest.mark.parametrize("n", [2, 3, 4])
def test_multi_worker_matches_sequential(tiny_cfg, rng, n):
    params = model.init_params(tiny_cfg, 1)
    batches = make_batches(tiny_cfg, rng, 3)
    run = sharded.run_steps(tiny_cfg, params, n, batches, lr=0.2)
    oracle, oracle_losses, oracle_grads = sequential_sgd(tiny_cfg, params, batches, lr=0.2)

    for got, want in zip(run.step_losses, oracle_losses):
        assert abs(got - want) <= 1e-12 * abs(want)
    assert max_param_delta(run.final_params, oracle) < 1e-12

    # synced gradients agree with the oracle on every worker (atol soaks up
    # gradients that are mathematically zero, like the key-projection bias)
    for g in run.last_grads:
        for (name, a), (_, b) in zip(g.named_arrays(), oracle_grads.named_arrays()):
            if name == "pos_table":
                continue
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12, err_msg=name)


def test_position_gradients_concat_to_sequential(tiny_cfg, rng):
    n = 3
    params = model.init_params(tiny_cfg, 2)
    batches = make_batches(tiny_cfg, rng, 1)
    run = sharded.run_steps(tiny_cfg, params, n, batches, lr=0.1)
    _, _, oracle_grads = sequential_sgd(tiny_cfg, params, batches, lr=0.1)
    stitched = np.concatenate([g.pos_table for g in run.last_grads], axis=0)
    np.testing.assert_allclose(stitched, oracle_grads.pos_table, rtol=1e-10, atol=1e-14)
    # each worker's shard stays shard-sized
    block = tiny_cfg.seq_len // n
    for g in run.last_grads:
        assert g.pos_table.shape == (block, tiny_cfg.embed_dim)


def test_partial_losses_average_to_step_loss(tiny_cfg, rng):
    from seqpar.collectives import Communicator, run_workers

    n = 4
    params = model.init_params(tiny_cfg, 3)
    batches = make_batches(tiny_cfg, rng, 2)
    comm = Communicator(n)
    seq_groups, data_groups = grid.make_groups(comm, grid.GridLayout(1, n))

    def partial_losses(rank):
        spec = grid.ShardSpec(rank, n, tiny_cfg.seq_len)
        worker = grid.Worker(comm, spec, seq_groups[0], data_groups[rank])
        own = grid.shard_params(params, spec)
        out = []
        for tokens, targets in batches:
            loss, _ = sharded.forward(
                worker, own, tiny_cfg,
                grid.slice_batch(tokens, spec),
                grid.slice_batch(targets, spec, spec.compute_rows(True)),
            )
            out.append(loss)
        return out

    partials = run_workers(n, partial_losses, comm=comm)
    for s, (tokens, targets) in enumerate(batches):
        run = sharded.run_steps(tiny_cfg, params, n, [(tokens, targets)], lr=0.1)
        assert abs(np.mean([p[s] for p in partials]) - run.step_losses[0]) < 1e-12


def test_dropout_training_still_matches_sequential(tiny_cfg, rng):
    policy = DropoutPolicy(rate=0.1, seed=5)
    params = model.init_params(tiny_cfg, 4)
    batches = make_batches(tiny_cfg, rng, 2)
    run = sharded.run_steps(tiny_cfg, params, 2, batches, lr=0.2, policy=policy)
    oracle, oracle_losses, _ = sequential_sgd(tiny_cfg, params, batches, lr=0.2, policy=policy)
    for got, want in zip(run.step_losses, oracle_losses):
        assert abs(got - want) <= 1e-12 * abs(want)
    assert max_param_delta(run.final_params, oracle) < 1e-10


# --- communication schedule ---


def test_ledger_schedule_per_step(tiny_cfg, rng):
    n, steps = 2, 2
    params = model.init_params(tiny_cfg, 0)
    run = sharded.run_steps(tiny_cfg, params, n, make_batches(tiny_cfg, rng, steps), lr=0.1)
    ledger = run.comm.ledger
    L = tiny_cfg.n_layers
    assert len(ledger.records) == (2 * L + 1) * steps
    for s in range(steps):
        assert ledger.count(step=s, kind="all-gather", phase="forward") == L
        assert ledger.count(step=s, kind="reduce-scatter", phase="backward") == L
        assert ledger.count(step=s, kind="all-reduce", phase="sync") == 1
        for li in range(L):
            assert ledger.count(step=s, layer=li) == 2
        assert ledger.count(step=s, layer_tagged=False) == 1


def test_forward_gathers_move_full_activation(tiny_cfg, rng):
    n = 2
    params = model.init_params(tiny_cfg, 0)
    run = sharded.run_steps(tiny_cfg, params, n, make_batches(tiny_cfg, rng, 1), lr=0.1)
    for r in run.comm.ledger.select(kind="all-gather"):
        assert r.elements == tiny_cfg.batch * tiny_cfg.seq_len * tiny_cfg.embed_dim


def test_unfused_ablation_doubles_layer_traffic(tiny_cfg, rng):
    n = 2
    params = model.init_params(tiny_cfg, 1)
    batches = make_batches(tiny_cfg, rng, 1)
    fused = sharded.run_steps(tiny_cfg, params, n, batches, lr=0.2, fused=True)
    unfused = sharded.run_steps(tiny_cfg, params, n, batches, lr=0.2, fused=False)
    L = tiny_cfg.n_layers
    assert fused.comm.ledger.count(kind="all-gather") == L
    assert unfused.comm.ledger.count(kind="all-gather") == 2 * L
    assert fused.comm.ledger.count(kind="reduce-scatter") == L
    assert unfused.comm.ledger.count(kind="reduce-scatter") == 2 * L
    # both schedules train the same model
    assert abs(fused.step_losses[0] - unfused.step_losses[0]) <= 1e-12
    a = fused.final_params
    b = unfused.final_params
    assert max_param_delta(a, b) < 1e-12


# --- gradient sync plumbing ---


def test_sync_without_extra_payload(tiny_cfg, rng):
    from seqpar.collectives import Communicator

    params = model.init_params(tiny_cfg, 0)
    grads = params.zip_map(params, lambda a, b: np.ones_like(a))
    comm = Communicator(1)
    group = comm.group("sequence", (0,))
    out, extra = grid.all_reduce_grads(comm, group, 0, grads, None, step=0, local=("pos_table",))
    assert extra is None
    for a in out.arrays():
        np.testing.assert_array_equal(a, np.ones_like(a))
    assert comm.ledger.count(kind="all-reduce", phase="sync") == 1


def test_sync_leaves_position_rows_alone(tiny_cfg):
    from seqpar.collectives import Communicator, run_workers

    params = model.init_params(tiny_cfg, 0)
    comm = Communicator(2)
    group = comm.group("sequence", (0, 1))

    def worker(rank):
        grads = params.zip_map(params, lambda a, b: np.full_like(a, float(rank)))
        out, mean = grid.all_reduce_grads(comm, group, rank, grads, float(rank), step=0,
                                          local=("pos_table",))
        return out, mean

    outs = run_workers(2, worker, comm=comm)
    for rank, (out, mean) in enumerate(outs):
        assert mean == 0.5
        np.testing.assert_array_equal(out.token_table, np.full_like(out.token_table, 0.5))
        # pos rows keep the worker-local value: they were never reduced
        np.testing.assert_array_equal(out.pos_table, np.full_like(out.pos_table, float(rank)))


# --- optimizers ---


def test_adam_run_matches_sequential_adam(tiny_cfg, rng):
    params = model.init_params(tiny_cfg, 5)
    batches = make_batches(tiny_cfg, rng, 3)
    run = sharded.run_steps(tiny_cfg, params, 2, batches, lr=1e-3, optimizer="adam")
    oracle = sequential_adam(tiny_cfg, params, batches, lr=1e-3)
    assert max_param_delta(run.final_params, oracle) < 1e-10


def test_unknown_optimizer_rejected(tiny_cfg):
    with pytest.raises(ValueError):
        optim.make_update("rmsprop", model.init_params(tiny_cfg, 0), 0.1)


# --- recycled score buffers ---


@pytest.mark.parametrize("engine", ["sequential", "sharded-1"])
def test_recycling_grid_runs_match_the_unrecycled_oracle_bitwise(tiny_cfg, rng, engine):
    """grid.train recycles score buffers across layers and steps; a stale or
    shared buffer would change a bit of the losses or parameters."""
    cfg = ModelConfig(**{**tiny_cfg.to_dict(), "dropout": 0.2})
    params0 = model.init_params(cfg, 3)
    batches = make_batches(cfg, rng, 4)
    policy = DropoutPolicy(rate=0.2, seed=9)
    want_params, want_losses, want_grads = sequential_sgd(cfg, params0, batches, 0.1, policy)
    if engine == "sequential":
        run = runner._sequential_steps(cfg, params0, batches, lr=0.1, policy=policy)
    else:
        run = sharded.run_steps(cfg, params0, 1, batches, lr=0.1, policy=policy)
    assert run.step_losses == want_losses
    for got, want in ((run.final_params, want_params), (run.last_grads[0], want_grads)):
        for (name, a), (_, b) in zip(got.named_arrays(), want.named_arrays()):
            assert a.tobytes() == b.tobytes(), name
