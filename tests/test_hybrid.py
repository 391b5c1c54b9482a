import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqpar import grid, hybrid, model, runner, sharded
from seqpar.grid import GridLayout
from seqpar.model import ModelConfig
from seqpar.nnops import DropoutPolicy

from conftest import max_param_delta, rand_batch, sequential_adam, sequential_sgd


def combine(rows):
    return (
        np.concatenate([t for t, _ in rows], axis=0),
        np.concatenate([g for _, g in rows], axis=0),
    )


def grid_batches(cfg, rng, steps, replicas):
    """Combined (replicas * batch)-row batches, one per step."""
    return [combine([rand_batch(cfg, rng) for _ in range(replicas)]) for _ in range(steps)]


# --- layout ---


def test_grid_layout_geometry():
    g = GridLayout(replicas=3, seq_workers=2)
    assert g.world == 6
    assert g.coords(0) == (0, 0)
    assert g.coords(5) == (2, 1)
    assert g.seq_members(1) == (2, 3)
    assert g.data_members(0) == (0, 2, 4)
    assert g.data_members(1) == (1, 3, 5)
    with pytest.raises(ValueError):
        GridLayout(replicas=0, seq_workers=2)


def test_make_groups_shapes_and_kinds():
    from seqpar.collectives import Communicator

    layout = GridLayout(replicas=2, seq_workers=3)
    comm = Communicator(layout.world)
    seq_groups, data_groups = grid.make_groups(comm, layout)
    assert [g.members for g in seq_groups] == [(0, 1, 2), (3, 4, 5)]
    assert [g.members for g in data_groups] == [(0, 3), (1, 4), (2, 5)]
    assert all(g.kind == "sequence" for g in seq_groups)
    assert all(g.kind == "data" for g in data_groups)


# --- degenerate grids ---


def test_single_replica_grid_matches_sharded_bitwise(tiny_cfg, rng):
    """A 1xN grid is the sharded engine, dropout masks included: its one
    replica's samples start at row 0 of the combined batch."""
    params = model.init_params(tiny_cfg, 1)
    batches = [rand_batch(tiny_cfg, rng) for _ in range(2)]
    for policy in (None, DropoutPolicy(rate=0.1, seed=3)):
        run_h = hybrid.run_steps(tiny_cfg, params, GridLayout(1, 2), batches, lr=0.2,
                                 policy=policy)
        run_s = sharded.run_steps(tiny_cfg, params, 2, batches, lr=0.2, policy=policy)
        assert run_h.step_losses == run_s.step_losses
        for x, y in zip(run_h.final_params.arrays(), run_s.final_params.arrays()):
            assert x.tobytes() == y.tobytes()


# Dropout masks are keyed by each sample's row in the combined batch, so a
# grid with dropout on draws the masks of the sequential run over that batch.
DROPOUT = pytest.mark.parametrize("rate", [0.0, 0.1])
FUSED = pytest.mark.parametrize("fused", [True, False])


@DROPOUT
@FUSED
def test_pure_data_parallel_matches_combined_batch(tiny_cfg, rng, rate, fused):
    params = model.init_params(tiny_cfg, 2)
    batches = grid_batches(tiny_cfg, rng, 2, replicas=2)
    policy = DropoutPolicy(rate=rate, seed=3)
    run = hybrid.run_steps(tiny_cfg, params, GridLayout(2, 1), batches, lr=0.2,
                           policy=policy, fused=fused)
    oracle, oracle_losses, _ = sequential_sgd(tiny_cfg, params, batches, lr=0.2, policy=policy)
    for got, want in zip(run.step_losses, oracle_losses):
        assert abs(got - want) <= 1e-12 * abs(want)
    assert max_param_delta(run.final_params, oracle) < 1e-12


# --- full grid ---


@DROPOUT
@FUSED
@pytest.mark.parametrize("replicas,workers", [(2, 2), (2, 3), (3, 2)])
def test_grid_matches_combined_batch_oracle(tiny_cfg, rng, replicas, workers, rate, fused):
    params = model.init_params(tiny_cfg, 3)
    batches = grid_batches(tiny_cfg, rng, 2, replicas)
    policy = DropoutPolicy(rate=rate, seed=3)
    run = hybrid.run_steps(tiny_cfg, params, GridLayout(replicas, workers), batches, lr=0.2,
                           policy=policy, fused=fused)
    oracle, oracle_losses, _ = sequential_sgd(tiny_cfg, params, batches, lr=0.2, policy=policy)
    for got, want in zip(run.step_losses, oracle_losses):
        assert abs(got - want) <= 1e-12 * abs(want)
    assert max_param_delta(run.final_params, oracle) < 1e-12


# seq_len 12 splits into 1, 2 or 3 blocks, and into 2N balanced chunks of
# whole rows for each
PROPERTY_CFG = ModelConfig(embed_dim=8, n_layers=1, n_heads=2, ff_dim=16,
                           vocab=256, seq_len=12, batch=1)


@settings(max_examples=40, deadline=None)
@given(replicas=st.integers(1, 3), workers=st.sampled_from([1, 2, 3]),
       fused=st.booleans(), rate=st.sampled_from([0.0, 0.1]), seed=st.integers(0, 2**16))
def test_any_grid_is_the_combined_batch_run(replicas, workers, fused, rate, seed):
    """Every R x N grid, with dropout on or off, trains the sequential run
    over its combined batch within the oracle tolerance, and a rerun writes
    the same ledger byte for byte."""
    cfg = PROPERTY_CFG
    params = model.init_params(cfg, seed)
    batches = grid_batches(cfg, np.random.default_rng(seed), 2, replicas)
    policy = DropoutPolicy(rate=rate, seed=seed)
    runs = [hybrid.run_steps(cfg, params, GridLayout(replicas, workers), batches, lr=0.2,
                             policy=policy, fused=fused) for _ in range(2)]
    oracle, _, _ = sequential_sgd(cfg, params, batches, lr=0.2, policy=policy)
    assert max_param_delta(runs[0].final_params, oracle) < runner.equivalence_tolerance(cfg.dtype)
    assert runs[0].comm.ledger.to_jsonl() == runs[1].comm.ledger.to_jsonl()


def test_position_shards_agree_across_replicas(tiny_cfg, rng):
    layout = GridLayout(replicas=3, seq_workers=2)
    params = model.init_params(tiny_cfg, 4)
    run = hybrid.run_steps(
        tiny_cfg, params, layout, grid_batches(tiny_cfg, rng, 2, 3), lr=0.3
    )
    for seq_index in range(layout.seq_workers):
        tables = [
            run.workers[r].pos_table for r in layout.data_members(seq_index)
        ]
        for other in tables[1:]:
            assert other.tobytes() == tables[0].tobytes()
    # and different sequence positions own different (disjoint) rows
    blocks = [run.workers[r].pos_table for r in layout.seq_members(0)]
    assert not np.array_equal(blocks[0], blocks[1])


def test_traffic_stays_inside_groups(tiny_cfg, rng):
    layout = GridLayout(replicas=2, seq_workers=2)
    steps = 2
    params = model.init_params(tiny_cfg, 0)
    run = hybrid.run_steps(
        tiny_cfg, params, layout, grid_batches(tiny_cfg, rng, steps, 2), lr=0.1
    )
    ledger = run.comm.ledger
    L = tiny_cfg.n_layers
    seq_ids = {f"seq{d}" for d in range(layout.replicas)}
    data_ids = {f"data{s}" for s in range(layout.seq_workers)}
    assert {r.group for r in ledger.records} == seq_ids | data_ids
    for gid in seq_ids:
        assert ledger.count(group=gid) == (2 * L + 1) * steps
    for gid in data_ids:
        assert ledger.count(group=gid) == steps
    # world-wide records would show up as a bare "world" id
    assert ledger.count(group="world") == 0


def test_replica_batch_rows_are_validated(tiny_cfg, rng):
    params = model.init_params(tiny_cfg, 0)
    rows = grid_batches(tiny_cfg, rng, 1, replicas=1)  # 2 rows cannot feed 3 replicas
    with pytest.raises(ValueError, match="replica batches"):
        hybrid.run_steps(tiny_cfg, params, GridLayout(3, 1), rows, lr=0.1)


def test_dropout_replicas_draw_independent_masks(tiny_cfg, rng):
    """With dropout on, replicas holding the same tokens still draw different
    masks, since each keys its masks by its own rows of the combined batch;
    position tables still agree across replicas after the vertical sync."""
    policy = DropoutPolicy(rate=0.2, seed=7)
    layout = GridLayout(replicas=2, seq_workers=1)
    params = model.init_params(tiny_cfg, 5)
    tokens, targets = rand_batch(tiny_cfg, rng)
    same_row = [combine([(tokens, targets), (tokens, targets)])]
    run = hybrid.run_steps(tiny_cfg, params, layout, same_row, lr=0.2, policy=policy)
    assert np.isfinite(run.step_losses[0])
    # identical data, different masks: the two replicas' forward counters match
    # but their parameters after sync are identical (single shared update)
    p0, p1 = run.workers[0], run.workers[1]
    for a, b in zip(p0.arrays(), p1.arrays()):
        assert a.tobytes() == b.tobytes()
    # and the run differs from a one-replica run on one copy of the batch,
    # which is what decorrelated masks imply
    solo = sharded.run_steps(tiny_cfg, params, 1, [(tokens, targets)], lr=0.2, policy=policy)
    assert run.step_losses[0] != solo.step_losses[0]


def test_adam_grid_matches_combined_batch_adam(tiny_cfg, rng):
    params = model.init_params(tiny_cfg, 6)
    batches = grid_batches(tiny_cfg, rng, 3, replicas=2)
    run = hybrid.run_steps(tiny_cfg, params, GridLayout(2, 2), batches, lr=1e-3,
                           optimizer="adam")
    oracle = sequential_adam(tiny_cfg, params, batches, lr=1e-3)
    assert max_param_delta(run.final_params, oracle) < 1e-10
