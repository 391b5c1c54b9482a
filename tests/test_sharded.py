import re
import threading
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqpar import baseline, costs, grid, hybrid, model, optim, runner, sharded, tensor
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


@pytest.mark.parametrize("workers", [1, 3])
def test_shard_params_slices_position_rows(tiny_cfg, workers):
    full = model.init_params(tiny_cfg, 0)
    before = full.pos_table.copy()
    spec = grid.ShardSpec(rank=workers // 2, workers=workers, seq_len=tiny_cfg.seq_len)
    own = grid.shard_params(full, spec)
    assert own.pos_table.shape == (spec.block, tiny_cfg.embed_dim)
    at = model.row_positions(spec.balanced_rows)
    np.testing.assert_array_equal(own.pos_table, full.pos_table[at])
    # the position rows are a copy too: writing a rank's table leaves the
    # caller's alone
    assert not np.shares_memory(own.pos_table, full.pos_table)
    own.pos_table[...] += 1.0
    assert full.pos_table.tobytes() == before.tobytes()
    # everything else is a full, independent copy
    assert own.token_table.shape == full.token_table.shape
    own.token_table[0, 0] += 1.0
    assert own.token_table[0, 0] != full.token_table[0, 0]
    with pytest.raises(ShapeError):
        grid.shard_params(full, grid.ShardSpec(rank=0, workers=2, seq_len=48))


def test_slice_batch_extracts_own_columns(tiny_cfg, rng):
    tokens, _ = rand_batch(tiny_cfg, rng)
    spec = grid.ShardSpec(rank=2, workers=4, seq_len=tiny_cfg.seq_len)
    assert spec.balanced_rows == ((6, 9), (15, 18))
    seg = grid.slice_batch(tokens, spec)
    np.testing.assert_array_equal(seg, tokens[:, [6, 7, 8, 15, 16, 17]])
    with pytest.raises(ShapeError):
        grid.slice_batch(tokens[:, :12], spec)


@settings(max_examples=60, deadline=None)
@given(workers=st.integers(1, 6), block=st.integers(1, 9), seed=st.integers(0, 2**16))
@example(workers=2, block=15, seed=0)  # odd blocks: chunks of 7 and 8 rows
@example(workers=5, block=1, seed=0)   # a block of one row
@example(workers=1, block=24, seed=0)  # one worker holds the whole table
def test_reassemble_positions_restores_table(workers, block, seed):
    """Sharding then reassembling is the identity, bit for bit; rank r holds
    the table's rows at its balanced rows and the batch's columns there."""
    seq_len = workers * block
    cfg = ModelConfig(embed_dim=4, n_layers=1, n_heads=1, ff_dim=4, vocab=8, seq_len=seq_len)
    full = model.init_params(cfg, seed)
    tokens = np.random.default_rng(seed).integers(0, cfg.vocab, size=(2, seq_len))
    specs = [grid.ShardSpec(r, workers, seq_len) for r in range(workers)]
    shards = [grid.shard_params(full, spec) for spec in specs]
    for spec, shard in zip(specs, shards):
        at = model.row_positions(spec.balanced_rows)
        assert shard.pos_table.tobytes() == full.pos_table[at].tobytes()
        np.testing.assert_array_equal(grid.slice_batch(tokens, spec), tokens[:, at])
    rebuilt = grid.reassemble_params(shards)
    for (name, a), b in zip(rebuilt.named_arrays(), full.arrays()):
        assert a.tobytes() == b.tobytes(), name


# --- balanced rows ---


@settings(max_examples=300, deadline=None)
@given(workers=st.integers(1, 16), block=st.integers(1, 64))
def test_balanced_rows_pair_chunk_r_with_chunk_2n_minus_1_minus_r(workers, block):
    """The sequence cut into 2N chunks, N front chunks of block // 2 rows and
    N back chunks of the rest: rank r holds chunks r and 2N-1-r, apart even
    when adjacent (one worker holds one chunk), and the ranks' rows
    partition the sequence."""
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
        if workers > 1:
            assert rows == tuple(c for c in (early, late) if c[1] > c[0])
        covered += model.row_positions(rows).tolist()
    assert sorted(covered) == list(range(seq_len))
    assert grid.ShardSpec(0, 1, seq_len).balanced_rows == ((0, seq_len),)


def test_balanced_rows_at_uneven_shapes():
    spec = grid.ShardSpec(rank=1, workers=3, seq_len=300)
    assert spec.block_rows == ((100, 200),)
    assert spec.balanced_rows == ((50, 100), (200, 250))
    assert grid.ShardSpec(2, 3, 300).balanced_rows == ((100, 150), (150, 200))
    odd = [grid.ShardSpec(r, 2, 30).balanced_rows for r in range(2)]  # blocks of 15
    assert odd == [((0, 7), (22, 30)), ((7, 14), (14, 22))]


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
    stitched = grid.reassemble_params(run.last_grads).pos_table
    want = oracle_grads.pos_table
    assert np.all(np.abs(stitched - want) <= 1e-10 + 1e-10 * np.abs(want))


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "unfused"])
def test_each_layer_computes_the_ranks_balanced_rows(tiny_cfg, rng, fused):
    """Fused or not, every layer of a rank scores the queries at its
    balanced rows: each layer's score plan is that of those rows."""
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
                grid.shard_params(params, spec), tiny_cfg,
                grid.slice_batch(tokens, spec), grid.slice_batch(targets, spec),
                rows=spec.balanced_rows,
                layer_kv_fwd=partial(sharded.layer_kv_fwd, worker, 0, fused=fused))
        return [c.attn.scores.tiles for c in cache.layers], counters.attn_score_flops

    blocks = tiny_cfg.batch * tiny_cfg.n_heads
    for rank, (tiles, flops) in enumerate(run_workers(n, layer_rows, comm=comm)):
        want = grid.ShardSpec(rank, n, tiny_cfg.seq_len).balanced_rows
        plan = model.score_tiles(blocks, model.score_bands(want, tiny_cfg.seq_len, tiny_cfg.causal))
        assert tiles == [plan] * tiny_cfg.n_layers
        assert flops == costs.score_flops(tiny_cfg, want)


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "unfused"])
def test_forward_cache_carries_its_backward(tiny_cfg, rng, monkeypatch, fused):
    """A rank's ``sharded.forward`` cache holds every layer's key/value
    backward, so ``model.backward`` with no hook gives the gradients
    ``train_step`` hands to its sync, bitwise."""
    n = 2
    params = model.init_params(tiny_cfg, 0)
    tokens, targets = rand_batch(tiny_cfg, rng)
    policy = DropoutPolicy(rate=0.1, seed=3)
    comm = Communicator(n)
    seq_groups, data_groups = grid.make_groups(comm, grid.GridLayout(1, n))
    synced = {}
    real_sync = sharded.sync

    def recording_sync(worker, grads, loss, *, step):
        synced[worker.rank] = grads.copy()
        return real_sync(worker, grads, loss, step=step)

    monkeypatch.setattr(sharded, "sync", recording_sync)

    def both(rank):
        spec = grid.ShardSpec(rank, n, tiny_cfg.seq_len)
        worker = grid.Worker(comm, spec, seq_groups[0], data_groups[rank])
        own = grid.shard_params(params, spec)
        _, cache = sharded.forward(
            own, tiny_cfg, grid.slice_batch(tokens, spec),
            grid.slice_batch(targets, spec), policy, rows=spec.balanced_rows,
            layer_kv_fwd=partial(sharded.layer_kv_fwd, worker, 0, fused=fused))
        grads = model.backward(own, tiny_cfg, cache)
        sharded.train_step(worker, own, tiny_cfg, tokens, targets, policy=policy, step=1,
                           fused=fused)
        return grads

    for rank, grads in enumerate(run_workers(n, both, comm=comm)):
        for (name, got), want in zip(grads.named_arrays(), synced[rank].arrays()):
            np.testing.assert_array_equal(got, want, err_msg=name)


def test_a_ranks_rows_need_a_key_value_hook(tiny_cfg, rng):
    """Without a hook a layer projects keys from its own rows alone; rank 0
    of two at T16 holds rows 0-3 and 12-15, so its last query would see 8
    keys as if they were positions 0-7.  Both the layer and the stack
    refuse, naming the position and the key count."""
    cfg = replace(tiny_cfg, seq_len=16)
    spec = grid.ShardSpec(0, 2, cfg.seq_len)
    own = grid.shard_params(model.init_params(cfg, 0), spec)
    tokens, targets = (grid.slice_batch(a, spec) for a in rand_batch(cfg, rng))
    message = "a query row is at position 15, but there are 8 keys"
    x = rng.standard_normal((cfg.batch, spec.block, cfg.embed_dim))
    with pytest.raises(ShapeError, match=message):
        model.layer_fwd(own.layers[0], cfg, DropoutPolicy.off(), 0, x, spec.balanced_rows)
    with pytest.raises(ShapeError, match=message):
        model.forward(own, cfg, tokens, targets, rows=spec.balanced_rows)


def test_forward_rows_must_count_the_token_columns(tiny_cfg, rng):
    params = model.init_params(tiny_cfg, 0)
    tokens, targets = rand_batch(tiny_cfg, rng)
    with pytest.raises(ShapeError, match="token block has 24 columns, its rows 12"):
        model.forward(params, tiny_cfg, tokens, targets, rows=((0, 12),))


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
    stitched = grid.reassemble_params(run.last_grads).pos_table
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
                own, tiny_cfg,
                grid.slice_batch(tokens, spec), grid.slice_batch(targets, spec),
                rows=spec.balanced_rows,
                layer_kv_fwd=partial(sharded.layer_kv_fwd, worker, 0, fused=True),
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


@pytest.mark.parametrize("replicas,workers", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_sync_averages_over_the_sequence_then_the_data_group(tiny_cfg, replicas, workers):
    """``sharded.sync`` on real grid workers whose gradient and loss are each
    filled with their world rank: replicated slices and the loss slot come
    out as the sequence-group mean, then the data-group mean; position
    slices as the rank's own value / N, then the data-group mean."""
    layout = grid.GridLayout(replicas, workers)
    comm = Communicator(layout.world)
    seq_groups, data_groups = grid.make_groups(comm, layout)
    params = model.init_params(tiny_cfg, 0)

    def rank_sync(rank):
        replica, seq_index = layout.coords(rank)
        spec = grid.ShardSpec(seq_index, workers, tiny_cfg.seq_len)
        worker = grid.Worker(comm, spec, seq_groups[replica], data_groups[seq_index])
        own = grid.shard_params(params, spec)
        grads = own.replace_arrays([np.full_like(a, float(rank)) for a in own.arrays()])
        vec, loss = sharded.sync(worker, grads, float(rank), step=0)
        return own.replace_arrays(model.unflatten_like(vec, own.arrays())), loss

    seq_means = [sum(layout.seq_members(d)) / workers for d in range(replicas)]
    replicated = sum(seq_means) / replicas
    for rank, (synced, loss) in enumerate(run_workers(layout.world, rank_sync, comm=comm)):
        members = layout.data_members(layout.coords(rank)[1])
        pos = sum(m / workers for m in members) / replicas
        assert loss == replicated
        for name, a in synced.named_arrays():
            want = pos if name == "pos_table" else replicated
            np.testing.assert_array_equal(a, np.full_like(a, want), err_msg=name)
    groups = {r.group for r in comm.ledger.records}
    sync_groups = seq_groups + (data_groups if replicas > 1 else [])
    assert groups == {g.group_id for g in sync_groups}
    assert comm.ledger.count(kind="all-reduce", phase="sync") == len(sync_groups)


@pytest.mark.parametrize("engine,replicas,workers,most", [
    ("sequential", 1, 1, 1),
    ("baseline", 1, 2, 1),  # the all-reduce's own output
    ("sharded", 1, 2, 2),   # the all-reduce input, then the position rows spliced in
    ("hybrid", 2, 2, 2),    # the same, and the data group reduces the spliced vector as is
])
def test_gradient_copies_per_rank_per_step(tiny_cfg, rng, monkeypatch, engine, replicas,
                                           workers, most):
    """Every rank thread flattens its parameters once per run and makes at
    most ``most`` flat gradient copies per step: the finite check, the
    update and the norm read the vector the step returns."""
    calls = Counter()
    flatten = model.flatten_arrays

    def counting(*args):
        calls[threading.current_thread().name] += 1
        return flatten(*args)

    monkeypatch.setattr(model, "flatten_arrays", counting)
    steps, shape = 2, (replicas * tiny_cfg.batch, tiny_cfg.seq_len)
    batches = [(rng.integers(0, tiny_cfg.vocab, size=shape),
                rng.integers(0, tiny_cfg.vocab, size=shape)) for _ in range(steps)]
    runner._train(engine, tiny_cfg, model.init_params(tiny_cfg, 0),
                  grid.GridLayout(replicas, workers), batches, lr=0.1)
    assert len(calls) == replicas * workers
    per_step = {name: (n - 1) / steps for name, n in calls.items()}  # less the parameters
    assert max(per_step.values()) <= most, per_step


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


# --- bad input ---


@pytest.mark.parametrize("engine, workers, cut, message", [
    ("sequential", 1, np.s_[:1], "targets have shape (1, 24), tokens (2, 24)"),
    ("sharded", 2, np.s_[:1], "targets have shape (1, 12), tokens (2, 12)"),
    ("baseline", 2, np.s_[:, :20], "targets have shape (2, 20), tokens (2, 24)"),
], ids=["sequential", "sharded", "baseline"])
def test_targets_that_do_not_match_the_tokens_raise(tiny_cfg, rng, engine, workers, cut,
                                                     message):
    """Fewer target rows, or narrower targets, than tokens: the head names
    both shapes (on a sharded rank, those of its columns; baseline's head
    runs on rank 0 over the whole sequence)."""
    params = model.init_params(tiny_cfg, 0)
    tokens, targets = rand_batch(tiny_cfg, rng)
    with pytest.raises(ShapeError, match=re.escape(message)):
        runner._train(engine, tiny_cfg, params, grid.GridLayout(1, workers),
                      [(tokens, targets[cut])], lr=0.1, timeout=10.0)


@pytest.mark.parametrize("engine", ["sequential", "sharded", "baseline", "hybrid"])
def test_training_on_no_batches_raises(tiny_cfg, engine):
    params = model.init_params(tiny_cfg, 0)
    entry = {
        "sequential": lambda: runner._sequential_steps(tiny_cfg, params, [], lr=0.1),
        "sharded": lambda: sharded.run_steps(tiny_cfg, params, 2, [], lr=0.1),
        "baseline": lambda: baseline.run_steps(tiny_cfg, params, 2, [], lr=0.1),
        "hybrid": lambda: hybrid.run_steps(tiny_cfg, params, grid.GridLayout(2, 2), [], lr=0.1),
    }[engine]
    with pytest.raises(ValueError, match="no batches to train on"):
        entry()


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
