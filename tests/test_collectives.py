import itertools
import json
import time

import numpy as np
import pytest

from seqpar.collectives import CommLedger, CommRecord, Communicator, run_workers
from seqpar.errors import CommAborted, CommTimeout, PartitionError


def make(world, **kw):
    comm = Communicator(world, **kw)
    group = comm.group("sequence", tuple(range(world)))
    return comm, group


# --- basic semantics ---


def test_scatter_hands_out_rank_ordered_blocks():
    comm, group = make(3)
    full = np.arange(12, dtype=np.float64).reshape(6, 2)

    def worker(rank):
        x = full if rank == 1 else None
        return comm.scatter(group, rank, x, src=1, dim=0, step=0, phase="forward")

    parts = run_workers(3, worker, comm=comm)
    for i, part in enumerate(parts):
        np.testing.assert_array_equal(part, full[2 * i : 2 * i + 2])


def test_gather_concatenates_in_rank_order():
    comm, group = make(3)

    def worker(rank):
        shard = np.full((1, 2), rank, dtype=np.float64)
        return comm.gather(group, rank, shard, dst=0, dim=0, step=0, phase="forward")

    out = run_workers(3, worker, comm=comm)
    np.testing.assert_array_equal(out[0], np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
    assert out[1] is None and out[2] is None


def test_all_gather_delivers_everywhere():
    comm, group = make(2)

    def worker(rank):
        shard = np.array([[rank, rank + 10.0]])
        return comm.all_gather(group, rank, shard, dim=0, step=0, phase="forward")

    outs = run_workers(2, worker, comm=comm)
    expected = np.array([[0.0, 10.0], [1.0, 11.0]])
    np.testing.assert_array_equal(outs[0], expected)
    np.testing.assert_array_equal(outs[1], expected)


def test_scatter_then_gather_is_bitwise_identity(rng):
    comm, group = make(4)
    full = rng.standard_normal((8, 3))

    def worker(rank):
        part = comm.scatter(group, rank, full if rank == 0 else None,
                            src=0, dim=0, step=0, phase="forward")
        return comm.gather(group, rank, part, dst=2, dim=0, step=0, phase="forward")

    outs = run_workers(4, worker, comm=comm)
    assert outs[2].tobytes() == full.tobytes()


def test_reduce_scatter_equals_scatter_of_sum(rng):
    comm, group = make(3)
    contribs = [rng.standard_normal((6, 2)) for _ in range(3)]
    # the oracle folds in the same ascending-rank order the communicator uses
    total = (contribs[0] + contribs[1]) + contribs[2]

    def worker(rank):
        return comm.reduce_scatter(group, rank, contribs[rank], dim=0, step=0, phase="backward")

    outs = run_workers(3, worker, comm=comm)
    for i, out in enumerate(outs):
        assert out.tobytes() == total[2 * i : 2 * i + 2].tobytes()


def test_all_reduce_mean_matches_gather_mean_oracle(rng):
    comm, group = make(4)
    contribs = [rng.standard_normal(10) for _ in range(4)]
    acc = contribs[0]
    for c in contribs[1:]:
        acc = acc + c
    oracle = acc / 4

    def worker(rank):
        return comm.all_reduce(group, rank, contribs[rank], op="mean", step=0, phase="sync")

    outs = run_workers(4, worker, comm=comm)
    for out in outs:
        assert out.tobytes() == oracle.tobytes()


def test_all_reduce_sum(rng):
    comm, group = make(2)
    contribs = [rng.standard_normal(5) for _ in range(2)]

    def worker(rank):
        return comm.all_reduce(group, rank, contribs[rank], op="sum", step=0, phase="sync")

    outs = run_workers(2, worker, comm=comm)
    np.testing.assert_array_equal(outs[0], contribs[0] + contribs[1])
    with pytest.raises(ValueError):
        comm.all_reduce(group, 0, contribs[0], op="max", step=0, phase="sync")


def test_all_gather_reduce_scatter_adjoint_pairing(rng):
    """all-gather and reduce-scatter are adjoint linear maps: pairing an
    all-gathered shard set against per-worker cotangents equals pairing the
    shards against the reduce-scattered cotangents."""
    n, block, cols = 3, 2, 4
    comm, group = make(n)
    xs = [rng.standard_normal((block, cols)) for _ in range(n)]
    ys = [rng.standard_normal((n * block, cols)) for _ in range(n)]

    def worker(rank):
        g = comm.all_gather(group, rank, xs[rank], dim=0, step=0, phase="forward")
        r = comm.reduce_scatter(group, rank, ys[rank], dim=0, step=0, phase="backward")
        return float(np.sum(g * ys[rank])), float(np.sum(xs[rank] * r))

    outs = run_workers(n, worker, comm=comm)
    lhs = sum(a for a, _ in outs)
    rhs = sum(b for _, b in outs)
    assert abs(lhs - rhs) < 1e-12


def test_single_member_group_collectives_are_copies(rng):
    comm = Communicator(1)
    group = comm.group("sequence", (0,))
    x = rng.standard_normal((4, 2))
    assert comm.all_gather(group, 0, x, dim=0, step=0, phase="forward").tobytes() == x.tobytes()
    assert comm.reduce_scatter(group, 0, x, dim=0, step=0, phase="backward").tobytes() == x.tobytes()
    assert comm.all_reduce(group, 0, x, op="mean", step=0, phase="sync").tobytes() == x.tobytes()
    assert comm.scatter(group, 0, x, src=0, dim=0, step=0, phase="forward").tobytes() == x.tobytes()
    assert comm.gather(group, 0, x, dst=0, dim=0, step=0, phase="forward").tobytes() == x.tobytes()


def test_split_dimension_choice(rng):
    comm, group = make(2)
    full = rng.standard_normal((2, 6, 3))

    def worker(rank):
        return comm.scatter(group, rank, full if rank == 0 else None,
                            src=0, dim=1, step=0, phase="forward")

    outs = run_workers(2, worker, comm=comm)
    np.testing.assert_array_equal(outs[0], full[:, :3])
    np.testing.assert_array_equal(outs[1], full[:, 3:])


# --- ledger ---


def test_each_collective_writes_one_record():
    comm, group = make(2)

    def worker(rank):
        x = np.ones((4, 2))
        comm.all_gather(group, rank, x, dim=0, step=3, phase="forward", layer=1)
        comm.reduce_scatter(group, rank, np.ones((4, 2)), dim=0, step=3, phase="backward", layer=1)
        comm.all_reduce(group, rank, np.ones(5), op="mean", step=3, phase="sync")
        return None

    run_workers(2, worker, comm=comm)
    records = comm.ledger.records
    assert len(records) == 3
    ag, rs, ar = records
    assert (ag.kind, ag.step, ag.phase, ag.layer, ag.elements) == ("all-gather", 3, "forward", 1, 16)
    assert (rs.kind, rs.phase, rs.elements) == ("reduce-scatter", "backward", 8)
    assert (ar.kind, ar.phase, ar.layer, ar.elements) == ("all-reduce", "sync", None, 5)
    assert all(r.group == group.group_id for r in records)


def test_ledger_select_and_count():
    ledger = CommLedger()
    ledger.append(CommRecord(0, "seq0", "all-gather", "forward", 0, 10))
    ledger.append(CommRecord(0, "seq0", "all-reduce", "sync", None, 4))
    ledger.append(CommRecord(1, "seq0", "all-gather", "forward", 1, 10))
    assert ledger.count(step=0) == 2
    assert ledger.count(kind="all-gather") == 2
    assert ledger.count(phase="sync") == 1
    assert ledger.count(layer_tagged=True) == 2
    assert ledger.count(layer_tagged=False) == 1
    assert ledger.count(step=1, kind="all-gather", layer=1) == 1
    assert ledger.count(group="seq0") == 3
    assert ledger.count(group="data0") == 0


def test_ledger_jsonl_round_trip_is_byte_identical():
    ledger = CommLedger()
    ledger.append(CommRecord(0, "seq0", "all-gather", "forward", 2, 1024))
    ledger.append(CommRecord(0, "data1", "all-reduce", "sync", None, 77))
    text = ledger.to_jsonl()
    again = CommLedger.from_jsonl(text)
    assert again.to_jsonl() == text
    assert again.records == ledger.records


@pytest.mark.parametrize("line,problem", [
    ('{"step": 0, "engine": "sharded", "loss": 1.5}',
     r"unexpected fields \['engine', 'loss'\], missing fields "
     r"\['group', 'kind', 'phase', 'layer', 'elements'\]"),
    ('[0, "seq0"]', "not a JSON object"),
    ('{"step": 0, "group": "seq0"', "Expecting"),
    ('{"step": 0, "group": "seq0", "kind": "all-reduce", "phase": "sync", "layer": null, '
     '"elements": "512"}', "ledger record key 'elements' must be an integer, got '512'"),
    ('{"step": null, "group": "seq0", "kind": "all-reduce", "phase": "sync", "layer": null, '
     '"elements": 512}', "ledger record key 'step' must be an integer, got None"),
    ('{"step": 0, "group": "seq0", "kind": "all-reduce", "phase": "sync", "layer": true, '
     '"elements": 512}', "ledger record key 'layer' must be an integer or null, got True"),
], ids=["other-record", "not-an-object", "not-json", "string-count", "null-step", "bool-layer"])
def test_ledger_jsonl_names_the_line_that_is_no_record(line, problem):
    good = CommLedger()
    good.append(CommRecord(0, "seq0", "all-gather", "forward", 2, 1024))
    with pytest.raises(ValueError, match=rf"^line 3: .*{problem}"):
        CommLedger.from_jsonl(good.to_jsonl() + "\n" + line + "\n")


def test_ledger_jsonl_is_json_dumps_of_each_record():
    ledger = CommLedger()
    kinds = ("scatter", "gather", "all-gather", "reduce-scatter", "all-reduce")
    groups = ("seq0", "seq1", "data0", "data3", "seq12")
    cases = itertools.product(groups, kinds, ("forward", "backward", "sync"), (None, 0, 7))
    for i, (group, kind, phase, layer) in enumerate(cases):
        ledger.append(CommRecord(i % 11, group, kind, phase, layer, i * 4099 + 1))
    ledger.append(CommRecord(10**6, "seq0", "all-reduce", "sync", None, 2**40))
    want = "".join(json.dumps(vars(r)) + "\n" for r in ledger.records)
    assert ledger.to_jsonl() == want


# --- validation and failure paths ---


def test_group_validation():
    comm = Communicator(2)
    with pytest.raises(ValueError):
        comm.group("banana", (0,))
    with pytest.raises(ValueError):
        comm.group("sequence", ())
    with pytest.raises(ValueError):
        comm.group("sequence", (0, 0))
    with pytest.raises(ValueError):
        comm.group("sequence", (0, 5))
    with pytest.raises(ValueError):
        Communicator(0)


def test_group_ids_count_per_kind():
    comm = Communicator(4)
    assert comm.group("sequence", (0, 1)).group_id == "seq0"
    assert comm.group("sequence", (2, 3)).group_id == "seq1"
    assert comm.group("data", (0, 2)).group_id == "data0"
    g = comm.group("sequence", (0, 1))
    assert g.index_of(1) == 1
    with pytest.raises(ValueError):
        g.index_of(3)


def test_non_member_rank_rejected():
    comm = Communicator(3)
    group = comm.group("sequence", (0, 1))
    with pytest.raises(ValueError):
        comm.all_gather(group, 2, np.ones(2), dim=0, step=0, phase="forward")


def test_indivisible_scatter_raises_partition_error():
    comm, group = make(2)

    def worker(rank):
        x = np.ones((3, 2)) if rank == 0 else None
        return comm.scatter(group, rank, x, src=0, dim=0, step=0, phase="forward")

    with pytest.raises(PartitionError):
        run_workers(2, worker, comm=comm)


# Each call has rank 0 and rank 1 disagree on one argument; without the check
# the result would depend on which of them arrives last.
DISAGREEMENTS = {
    "step": lambda comm, g, r: comm.all_gather(g, r, np.ones((2, 2)), dim=0,
                                               step=r, phase="forward"),
    "op": lambda comm, g, r: comm.all_reduce(g, r, np.ones(2), op=("mean", "sum")[r],
                                             step=0, phase="sync"),
    "all_gather_dim": lambda comm, g, r: comm.all_gather(g, r, np.ones((2, 2)), dim=r,
                                                         step=0, phase="forward"),
    "reduce_scatter_dim": lambda comm, g, r: comm.reduce_scatter(g, r, np.ones((2, 2)), dim=r,
                                                                 step=0, phase="backward"),
    "scatter_src": lambda comm, g, r: comm.scatter(g, r, np.ones((2, 2)), src=r, dim=0,
                                                   step=0, phase="forward"),
    "gather_dst": lambda comm, g, r: comm.gather(g, r, np.ones((2, 2)), dst=r, dim=0,
                                                 step=0, phase="forward"),
}


@pytest.mark.parametrize("call", DISAGREEMENTS.values(), ids=DISAGREEMENTS.keys())
def test_metadata_mismatch_aborts_everyone(call):
    comm, group = make(2)

    def worker(rank):
        return call(comm, group, rank)

    with pytest.raises(RuntimeError, match="metadata mismatch"):
        run_workers(2, worker, comm=comm)
    assert comm.ledger.records == []


def test_root_outside_group_fails_fast():
    comm = Communicator(3)
    group = comm.group("sequence", (0, 1))

    def gather(rank):
        return comm.gather(group, rank, np.ones(2), dst=7, dim=0, step=0, phase="forward")

    def scatter(rank):
        return comm.scatter(group, rank, np.ones(2), src=5, dim=0, step=0, phase="forward")

    with pytest.raises(ValueError, match="rank 7 is not a member of group seq0"):
        run_workers(2, gather, comm=comm)
    with pytest.raises(ValueError, match="rank 5 is not a member of group seq0"):
        run_workers(2, scatter, comm=comm)
    assert comm.ledger.records == []


def test_shape_disagreement_in_reduction_raises():
    comm, group = make(2)

    def worker(rank):
        x = np.ones(3) if rank == 0 else np.ones(4)
        return comm.all_reduce(group, rank, x, op="sum", step=0, phase="sync")

    with pytest.raises(Exception, match="disagree on shape"):
        run_workers(2, worker, comm=comm)


def test_timeout_when_a_peer_never_arrives():
    comm, group = make(2, timeout=0.2)

    def worker(rank):
        if rank == 1:
            return None  # never joins the collective
        return comm.all_gather(group, rank, np.ones(1), dim=0, step=0, phase="forward")

    with pytest.raises(CommTimeout):
        run_workers(2, worker, comm=comm)


def test_peer_crash_surfaces_original_error_not_deadlock():
    comm, group = make(2, timeout=30.0)

    def worker(rank):
        if rank == 1:
            time.sleep(0.05)
            raise ValueError("worker 1 exploded")
        return comm.all_gather(group, rank, np.ones(1), dim=0, step=0, phase="forward")

    t0 = time.monotonic()
    with pytest.raises(ValueError, match="exploded"):
        run_workers(2, worker, comm=comm)
    assert time.monotonic() - t0 < 10.0


def test_collectives_refuse_after_abort():
    comm, group = make(1)
    comm.abort(RuntimeError("gone"))
    with pytest.raises(CommAborted):
        comm.all_gather(group, 0, np.ones(1), dim=0, step=0, phase="forward")
