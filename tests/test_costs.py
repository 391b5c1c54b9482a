from dataclasses import replace

import numpy as np
import pytest

from seqpar import baseline, costs, grid, hybrid, model, runner, sharded, tensor
from seqpar.collectives import Communicator, run_workers
from seqpar.costs import (WEAK_SCALING_SCHEDULE, estimate, rows_score_flops, score_flops,
                          weak_scaling_ratios)
from seqpar.errors import PartitionError
from seqpar.model import ModelConfig
from seqpar.nnops import DropoutPolicy

from conftest import rand_batch


def test_weak_scaling_schedule_divides_evenly():
    for n, l in WEAK_SCALING_SCHEDULE:
        assert l % n == 0


def test_weak_scaling_ratios_are_the_documented_integers(tiny_cfg):
    assert weak_scaling_ratios(tiny_cfg) == [1, 6, 18, 54, 144]


def test_weak_scaling_ratios_from_first_principles(tiny_cfg):
    """block * seq_len per worker, written out by hand."""
    per_worker = [(l // n) * l for n, l in WEAK_SCALING_SCHEDULE]
    base = per_worker[0]
    assert [p / base for p in per_worker] == [1, 6, 18, 54, 144]
    # and the estimate only adds the batch * heads factor, which cancels
    est = [
        estimate(ModelConfig(
            embed_dim=tiny_cfg.embed_dim, n_layers=tiny_cfg.n_layers,
            n_heads=tiny_cfg.n_heads, ff_dim=tiny_cfg.ff_dim,
            vocab=tiny_cfg.vocab, seq_len=l, batch=tiny_cfg.batch,
        ), n, "sharded").score_elements_peak
        for n, l in WEAK_SCALING_SCHEDULE
    ]
    assert [e / est[0] for e in est] == [1, 6, 18, 54, 144]


def test_weak_scaling_rejects_non_integer_ratio(tiny_cfg):
    with pytest.raises(ValueError, match="non-integer"):
        weak_scaling_ratios(tiny_cfg, schedule=((6, 348), (6, 354)))


def test_doubling_workers_halves_score_footprint(tiny_cfg):
    one = estimate(tiny_cfg, 1, "sharded")
    two = estimate(tiny_cfg, 2, "sharded")
    four = estimate(tiny_cfg, 4, "sharded")
    assert one.score_elements_peak == 2 * two.score_elements_peak
    assert two.score_elements_peak == 2 * four.score_elements_peak
    # the busier of two balanced ranks scores rows 6..18: 216 of one
    # worker's 576 (rows x visible keys)
    assert 3 * one.score_flops == 8 * two.score_flops


def test_score_flops_count_each_bands_visible_keys():
    """300 positions on 3 workers, written out: a worker's 100 rows are a
    64-row band and a ragged 36-row one, each seeing the keys up to its last
    row; 2 layers x 3 samples x 2 heads of 4-wide QK^T and weights@V."""
    cfg = ModelConfig(embed_dim=8, n_layers=2, n_heads=2, ff_dim=8, vocab=16, seq_len=300,
                      batch=3)

    def by_hand(*bands):
        return 2 * 3 * 2 * sum(2 * 2 * rows * keys * 4 for rows, keys in bands)

    assert score_flops(cfg, 100, 0) == by_hand((64, 64), (36, 100))
    assert score_flops(cfg, 100, 200) == by_hand((64, 264), (36, 300))
    assert estimate(cfg, 3, "sharded").score_flops == score_flops(cfg, 100, 100)
    assert estimate(cfg, 1, "sequential").score_flops == by_hand(
        (64, 64), (64, 128), (64, 192), (64, 256), (44, 300))
    full = replace(cfg, causal=False)
    assert score_flops(full, 100, 0) == score_flops(full, 100, 200) == by_hand((100, 300))


def test_single_worker_sharded_matches_sequential_compute(tiny_cfg):
    sh = estimate(tiny_cfg, 1, "sharded")
    se = estimate(tiny_cfg, 1, "sequential")
    assert sh.score_flops == se.score_flops
    assert sh.score_elements_peak == se.score_elements_peak
    assert sh.proj_flops == se.proj_flops
    assert sh.ffn_flops == se.ffn_flops
    assert se.collectives_per_step == 0
    assert se.comm_elements_per_step == 0


def test_baseline_footprint_is_workers_times_sharded(tiny_cfg):
    for n in (2, 4):
        base = estimate(tiny_cfg, n, "baseline")
        shard = estimate(tiny_cfg, n, "sharded")
        assert base.score_elements_peak == n * shard.score_elements_peak
    # and the baseline's peak never depends on the worker count
    assert (
        estimate(tiny_cfg, 2, "baseline").score_elements_peak
        == estimate(tiny_cfg, 4, "baseline").score_elements_peak
    )


def test_collective_counts_per_engine(tiny_cfg):
    L = tiny_cfg.n_layers
    assert estimate(tiny_cfg, 2, "sharded").collectives_per_step == 2 * L + 1
    assert estimate(tiny_cfg, 2, "sharded", fused=False).collectives_per_step == 4 * L + 1
    assert estimate(tiny_cfg, 2, "baseline").collectives_per_step == 8 * L + 5


def test_validation():
    cfg = ModelConfig(embed_dim=8, n_layers=1, n_heads=2, ff_dim=8, vocab=11, seq_len=10)
    with pytest.raises(PartitionError):
        estimate(cfg, 3)
    with pytest.raises(ValueError, match="unknown engine"):
        estimate(cfg, 1, "turbo")
    with pytest.raises(ValueError, match="single worker"):
        estimate(cfg, 2, "sequential")


def test_replicas_are_hybrid_only(tiny_cfg):
    for engine in ("sequential", "sharded", "baseline"):
        with pytest.raises(ValueError, match="replicas=1"):
            estimate(tiny_cfg, 1, engine, replicas=2)
    with pytest.raises(ValueError, match="replicas must be positive"):
        estimate(tiny_cfg, 2, "hybrid", replicas=0)
    # one replica is the sharded engine
    one, sharded_est = estimate(tiny_cfg, 2, "hybrid"), estimate(tiny_cfg, 2, "sharded")
    assert vars(one) == {**vars(sharded_est), "engine": "hybrid"}


@pytest.mark.parametrize("workers", [0, -2])
@pytest.mark.parametrize("engine", ["sequential", "sharded", "baseline"])
def test_estimate_rejects_non_positive_workers(tiny_cfg, engine, workers):
    with pytest.raises(ValueError, match="workers must be positive"):
        estimate(tiny_cfg, workers, engine)


# --- estimates against instrumented runs ---


def test_sequential_measurement_matches_estimate(tiny_cfg, rng):
    params = model.init_params(tiny_cfg, 0)
    tokens, targets = rand_batch(tiny_cfg, rng)
    counters = tensor.StepCounters()
    with tensor.counting(counters):
        model.forward(params, tiny_cfg, tokens, targets)
    est = estimate(tiny_cfg, 1, "sequential")
    assert counters.attn_score_flops == est.score_flops
    assert counters.attn_score_elements_peak == est.score_elements_peak


@pytest.mark.parametrize("n,fused", [(1, True), (2, True), (3, True), (2, False)])
def test_sharded_measurement_matches_estimate(tiny_cfg, rng, n, fused):
    params = model.init_params(tiny_cfg, 0)
    batches = [rand_batch(tiny_cfg, rng)]
    run = sharded.run_steps(tiny_cfg, params, n, batches, lr=0.1, fused=fused)
    est = estimate(tiny_cfg, n, "sharded", fused=fused)
    for w in range(n):
        rows = grid.ShardSpec(w, n, tiny_cfg.seq_len).compute_rows(fused)
        assert run.counters[w][0].attn_score_flops == rows_score_flops(tiny_cfg, rows)
        assert run.counters[w][0].attn_score_elements_peak == est.score_elements_peak
    assert run.counters[-1][0].attn_score_flops == est.score_flops  # the busiest rank
    assert len(run.comm.ledger.records) == est.collectives_per_step
    assert sum(r.elements for r in run.comm.ledger.records) == est.comm_elements_per_step


@pytest.mark.parametrize("engine,n,fused", [
    ("sequential", 1, True),
    ("sharded", 2, True), ("sharded", 3, True),
    ("sharded", 2, False), ("sharded", 3, False),
])
def test_forward_matmul_flops_match_estimate(tiny_cfg, rng, engine, n, fused):
    """Every forward matmul is a projection, ffn, head or score product, so
    a rank's counted total is the sum of the three estimated figures every
    rank shares and that rank's score flops."""
    params = model.init_params(tiny_cfg, 0)
    tokens, targets = rand_batch(tiny_cfg, rng)
    est = estimate(tiny_cfg, n, engine, fused=fused)
    shared = est.proj_flops + est.ffn_flops + est.head_flops
    if engine == "sequential":
        counters = tensor.StepCounters()
        with tensor.counting(counters):
            model.forward(params, tiny_cfg, tokens, targets)
        assert counters.matmul_flops == shared + est.score_flops
        return
    comm = Communicator(n)
    seq_groups, data_groups = grid.make_groups(comm, grid.GridLayout(1, n))

    def forward_flops(rank):
        spec = grid.ShardSpec(rank, n, tiny_cfg.seq_len)
        worker = grid.Worker(comm, spec, seq_groups[0], data_groups[rank])
        counters = tensor.StepCounters()
        with tensor.counting(counters):
            sharded.forward(worker, grid.shard_params(params, spec), tiny_cfg,
                            grid.slice_batch(tokens, spec), grid.slice_batch(targets, spec),
                            fused=fused)
        return counters.matmul_flops

    expected = [shared + rows_score_flops(
        tiny_cfg, grid.ShardSpec(r, n, tiny_cfg.seq_len).compute_rows(fused)) for r in range(n)]
    assert run_workers(n, forward_flops, comm=comm) == expected


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "unfused"])
@pytest.mark.parametrize("replicas,workers", [(2, 2), (3, 2)], ids=["2x2", "3x2"])
def test_hybrid_measurement_matches_estimate(tiny_cfg, rng, replicas, workers, fused):
    """Every record of step 0, over every sequence and data group."""
    params = model.init_params(tiny_cfg, 0)
    shape = (replicas * tiny_cfg.batch, tiny_cfg.seq_len)
    batches = [(rng.integers(0, tiny_cfg.vocab, size=shape),
                rng.integers(0, tiny_cfg.vocab, size=shape))]
    run = hybrid.run_steps(tiny_cfg, params, grid.GridLayout(replicas, workers), batches,
                           lr=0.1, fused=fused)
    est = estimate(tiny_cfg, workers, "hybrid", fused=fused, replicas=replicas)
    layout = grid.GridLayout(replicas, workers)
    for rank, counters in enumerate(run.counters):
        spec = grid.ShardSpec(layout.coords(rank)[1], workers, tiny_cfg.seq_len)
        assert counters[0].attn_score_flops == rows_score_flops(tiny_cfg, spec.compute_rows(fused))
        assert counters[0].attn_score_elements_peak == est.score_elements_peak
    assert max(c[0].attn_score_flops for c in run.counters) == est.score_flops
    step0 = run.comm.ledger.select(step=0)
    assert len(step0) == est.collectives_per_step
    assert sum(r.elements for r in step0) == est.comm_elements_per_step


def test_baseline_measurement_matches_estimate(tiny_cfg, rng):
    n = 3
    params = model.init_params(tiny_cfg, 0)
    run = baseline.run_steps(tiny_cfg, params, n, [rand_batch(tiny_cfg, rng)], lr=0.1)
    est = estimate(tiny_cfg, n, "baseline")
    assert run.counters[0][0].attn_score_flops == est.score_flops
    assert run.counters[0][0].attn_score_elements_peak == est.score_elements_peak
    assert len(run.comm.ledger.records) == est.collectives_per_step
    assert sum(r.elements for r in run.comm.ledger.records) == est.comm_elements_per_step


@pytest.mark.parametrize("engine,replicas,workers,seq_len,causal", [
    ("sequential", 1, 1, 240, True),
    ("sharded", 1, 1, 240, True), ("sharded", 1, 2, 240, True),
    ("sharded", 1, 3, 240, True), ("sharded", 1, 4, 240, True),
    ("sharded", 1, 3, 300, True),  # 100-row blocks: bands of 64 and a ragged 36
    ("hybrid", 2, 2, 240, True), ("baseline", 1, 3, 240, True),
    ("sharded", 1, 3, 240, False), ("baseline", 1, 2, 240, False),
])
def test_every_rank_scores_its_closed_form(engine, replicas, workers, seq_len, causal):
    """Each rank's counted score flops equal ``score_flops`` summed over the
    chunks of its compute rows, and the estimate is the busiest rank's."""
    cfg = ModelConfig(embed_dim=8, n_layers=2, n_heads=2, ff_dim=8, vocab=16,
                      seq_len=seq_len, batch=1, causal=causal)
    rng = np.random.default_rng(3)
    shape = (replicas * cfg.batch, seq_len)
    batches = [(rng.integers(0, cfg.vocab, size=shape), rng.integers(0, cfg.vocab, size=shape))]
    layout = grid.GridLayout(replicas, workers)
    run = runner._train(engine, cfg, model.init_params(cfg, 0), layout, batches, lr=0.1)
    for rank, counters in enumerate(run.counters):
        if engine == "baseline":  # rank 0 scores the whole sequence
            want = score_flops(cfg, seq_len, 0) if rank == 0 else 0
        else:
            rows = grid.ShardSpec(layout.coords(rank)[1], workers, seq_len).compute_rows(True)
            want = rows_score_flops(cfg, rows)
        assert counters[0].attn_score_flops == want
    busiest = max(c[0].attn_score_flops for c in run.counters)
    assert busiest == estimate(cfg, workers, engine, replicas=replicas).score_flops


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("dropout", [0.0, 0.2], ids=["no-dropout", "dropout"])
@pytest.mark.parametrize("engine,replicas,workers", [
    ("sequential", 1, 1), ("sharded", 1, 1), ("sharded", 1, 2), ("sharded", 1, 4),
    ("baseline", 1, 2), ("hybrid", 2, 2),
])
def test_cached_score_bytes_match_estimate(tiny_cfg, rng, engine, replicas, workers,
                                           dropout, precision):
    """Every layer's score caches, on every rank of every step."""
    cfg = replace(tiny_cfg, dropout=dropout, precision=precision)
    params = model.init_params(cfg, 0)
    shape = (replicas * cfg.batch, cfg.seq_len)
    batches = [(rng.integers(0, cfg.vocab, size=shape),
                rng.integers(0, cfg.vocab, size=shape)) for _ in range(2)]
    run = runner._train(engine, cfg, params, grid.GridLayout(replicas, workers), batches,
                        lr=0.1, policy=DropoutPolicy(rate=dropout, seed=5))
    est = estimate(cfg, workers, engine, replicas=replicas)
    itemsize = 8 if precision == "double" else 4
    assert est.score_cache_bytes == (cfg.n_layers * est.score_elements_peak
                                     * (itemsize + (1 if dropout else 0)))
    for rank, counters in enumerate(run.counters):
        # the baseline's rank 0 runs every sublayer, the others hold no scores
        want = 0 if engine == "baseline" and rank > 0 else est.score_cache_bytes
        assert [c.attn_score_bytes_cached for c in counters] == [want, want]


def test_complexity_labels(tiny_cfg):
    assert "seq^2 / workers" in estimate(tiny_cfg, 2, "sharded").complexity[
        "score_compute_per_worker"
    ]
    assert estimate(tiny_cfg, 2, "baseline").complexity["score_compute_per_worker"] == "O(seq^2)"


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "unfused"])
@pytest.mark.parametrize("engine,replicas,workers,seq_len", [
    ("sequential", 1, 1, 240),
    ("sharded", 1, 1, 240), ("sharded", 1, 2, 240), ("sharded", 1, 3, 240),
    ("sharded", 1, 4, 240),
    ("sharded", 1, 3, 300),  # rank 2's merged 100 rows: bands of 64 and a ragged 36
    ("sharded", 1, 2, 30),   # blocks of 15: chunks of 7 and 8 rows
    ("hybrid", 2, 2, 240), ("baseline", 1, 3, 240),
])
def test_every_rank_scores_the_closed_form_over_its_chunks(engine, replicas, workers, seq_len,
                                                           fused):
    """Each rank's counted score flops are ``rank_score_flops``'s figure for
    its sequence index: the closed form summed over the chunks it computes
    (its balanced rows fused, its block unfused), and the estimate is the
    largest."""
    cfg = ModelConfig(embed_dim=8, n_layers=2, n_heads=2, ff_dim=8, vocab=16,
                      seq_len=seq_len, batch=1)
    rng = np.random.default_rng(5)
    shape = (replicas * cfg.batch, seq_len)
    batches = [(rng.integers(0, cfg.vocab, size=shape), rng.integers(0, cfg.vocab, size=shape))]
    layout = grid.GridLayout(replicas, workers)
    run = runner._train(engine, cfg, model.init_params(cfg, 0), layout, batches, lr=0.1,
                        fused=fused)
    per_rank = costs.rank_score_flops(cfg, workers, engine, fused=fused)
    for rank, counters in enumerate(run.counters):
        seq_index = layout.coords(rank)[1]
        if engine in ("sharded", "hybrid"):
            rows = grid.ShardSpec(seq_index, workers, seq_len).compute_rows(fused)
            assert per_rank[seq_index] == sum(score_flops(cfg, stop - start, start)
                                              for start, stop in rows)
        assert counters[0].attn_score_flops == per_rank[seq_index]
    est = estimate(cfg, workers, engine, fused=fused, replicas=replicas)
    assert est.score_flops == max(per_rank)


def test_longctx_ranks_score_equal_shares():
    """The benchmark's long-context grid: T512 on two workers, dropout on.
    Contiguous blocks scored 20,971,520 and 54,525,952 flops a step; the
    balanced rows score 37,748,736 each."""
    cfg = ModelConfig(embed_dim=64, n_layers=2, n_heads=8, ff_dim=256, vocab=256, seq_len=512,
                      batch=1, dropout=0.1)
    assert costs.rank_score_flops(cfg, 2, fused=False) == [20_971_520, 54_525_952]
    assert costs.rank_score_flops(cfg, 2) == [37_748_736, 37_748_736]
    rng = np.random.default_rng(0)
    run = sharded.run_steps(cfg, model.init_params(cfg, 0), 2, [rand_batch(cfg, rng)], lr=0.1,
                            policy=DropoutPolicy(rate=0.1, seed=0))
    assert [c[0].attn_score_flops for c in run.counters] == [37_748_736, 37_748_736]
    assert estimate(cfg, 2, "sharded").score_flops == 37_748_736
