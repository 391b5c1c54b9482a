import numpy as np
import pytest

from seqpar import grid, hybrid, model, sharded
from seqpar.grid import GridLayout
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


def test_vertical_sync_averages_everything(tiny_cfg):
    from seqpar.collectives import Communicator, run_workers

    params = model.init_params(tiny_cfg, 0)
    comm = Communicator(2)
    group = comm.group("data", (0, 1))

    def worker(rank):
        grads = params.zip_map(params, lambda a, b: np.full_like(a, float(rank)))
        return sharded.vertical_sync(comm, group, rank, grads, loss=float(rank), step=0)

    outs = run_workers(2, worker, comm=comm)
    for out, loss in outs:
        assert loss == 0.5
        for a in out.arrays():  # position rows included
            np.testing.assert_array_equal(a, np.full_like(a, 0.5))
    assert comm.ledger.count(kind="all-reduce", phase="sync") == 1


# --- degenerate grids ---


def test_single_replica_grid_matches_sharded_bitwise(tiny_cfg, rng):
    """A 1xN grid is the sharded engine, dropout masks included: a single
    replica does not fork its dropout key."""
    params = model.init_params(tiny_cfg, 1)
    batches = [rand_batch(tiny_cfg, rng) for _ in range(2)]
    for policy in (None, DropoutPolicy(rate=0.1, seed=3)):
        run_h = hybrid.run_steps(tiny_cfg, params, GridLayout(1, 2), batches, lr=0.2,
                                 policy=policy)
        run_s = sharded.run_steps(tiny_cfg, params, 2, batches, lr=0.2, policy=policy)
        assert run_h.step_losses == run_s.step_losses
        for x, y in zip(run_h.final_params.arrays(), run_s.final_params.arrays()):
            assert x.tobytes() == y.tobytes()


def test_pure_data_parallel_matches_combined_batch(tiny_cfg, rng):
    params = model.init_params(tiny_cfg, 2)
    batches = grid_batches(tiny_cfg, rng, 2, replicas=2)
    run = hybrid.run_steps(tiny_cfg, params, GridLayout(2, 1), batches, lr=0.2)
    oracle, oracle_losses, _ = sequential_sgd(tiny_cfg, params, batches, lr=0.2)
    for got, want in zip(run.step_losses, oracle_losses):
        assert abs(got - want) <= 1e-12 * abs(want)
    assert max_param_delta(run.final_params, oracle) < 1e-12


# --- full grid ---


@pytest.mark.parametrize("replicas,workers", [(2, 2), (2, 3), (3, 2)])
def test_grid_matches_combined_batch_oracle(tiny_cfg, rng, replicas, workers):
    params = model.init_params(tiny_cfg, 3)
    batches = grid_batches(tiny_cfg, rng, 2, replicas)
    run = hybrid.run_steps(tiny_cfg, params, GridLayout(replicas, workers), batches, lr=0.2)
    oracle, oracle_losses, _ = sequential_sgd(tiny_cfg, params, batches, lr=0.2)
    for got, want in zip(run.step_losses, oracle_losses):
        assert abs(got - want) <= 1e-12 * abs(want)
    assert max_param_delta(run.final_params, oracle) < 1e-12


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
    assert {r.group_id for r in ledger.records} == seq_ids | data_ids
    for gid in seq_ids:
        assert ledger.count(group_id=gid) == (2 * L + 1) * steps
    for gid in data_ids:
        assert ledger.count(group_id=gid) == steps
    # world-wide records would show up as a bare "world" id
    assert ledger.count(group_id="world") == 0


def test_replica_batch_rows_are_validated(tiny_cfg, rng):
    params = model.init_params(tiny_cfg, 0)
    rows = grid_batches(tiny_cfg, rng, 1, replicas=1)  # 2 rows cannot feed 3 replicas
    with pytest.raises(ValueError, match="replica batches"):
        hybrid.run_steps(tiny_cfg, params, GridLayout(3, 1), rows, lr=0.1)


def test_dropout_replicas_draw_independent_masks(tiny_cfg, rng):
    """With dropout on, each replica forks its own mask lane, yet position
    tables still agree across replicas after the vertical sync."""
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
    # and the run differs from a no-fork sharded run on the same batch, which
    # is what decorrelated masks imply
    solo = sharded.run_steps(tiny_cfg, params, 1, [(tokens, targets)], lr=0.2, policy=policy)
    assert run.step_losses[0] != solo.step_losses[0]


def test_adam_grid_matches_combined_batch_adam(tiny_cfg, rng):
    params = model.init_params(tiny_cfg, 6)
    batches = grid_batches(tiny_cfg, rng, 3, replicas=2)
    run = hybrid.run_steps(tiny_cfg, params, GridLayout(2, 2), batches, lr=1e-3,
                           optimizer="adam")
    oracle = sequential_adam(tiny_cfg, params, batches, lr=1e-3)
    assert max_param_delta(run.final_params, oracle) < 1e-10
