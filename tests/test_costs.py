from dataclasses import replace

import pytest

from seqpar import baseline, grid, hybrid, model, runner, sharded, tensor
from seqpar.collectives import Communicator, run_workers
from seqpar.costs import WEAK_SCALING_SCHEDULE, estimate, weak_scaling_ratios
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
    assert one.score_flops == 2 * two.score_flops


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
        assert run.counters[w][0].attn_score_flops == est.score_flops
        assert run.counters[w][0].attn_score_elements_peak == est.score_elements_peak
    assert len(run.comm.ledger.records) == est.collectives_per_step
    assert sum(r.elements for r in run.comm.ledger.records) == est.comm_elements_per_step


@pytest.mark.parametrize("engine,n,fused", [
    ("sequential", 1, True),
    ("sharded", 2, True), ("sharded", 3, True),
    ("sharded", 2, False), ("sharded", 3, False),
])
def test_forward_matmul_flops_match_estimate(tiny_cfg, rng, engine, n, fused):
    """Every forward matmul is a projection, ffn, head or score product, so
    the counted total is the sum of the four estimated figures."""
    params = model.init_params(tiny_cfg, 0)
    tokens, targets = rand_batch(tiny_cfg, rng)
    est = estimate(tiny_cfg, n, engine, fused=fused)
    expected = est.proj_flops + est.ffn_flops + est.head_flops + est.score_flops
    if engine == "sequential":
        counters = tensor.StepCounters()
        with tensor.counting(counters):
            model.forward(params, tiny_cfg, tokens, targets)
        assert counters.matmul_flops == expected
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

    assert run_workers(n, forward_flops, comm=comm) == [expected] * n


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
    for counters in run.counters:
        assert counters[0].attn_score_flops == est.score_flops
        assert counters[0].attn_score_elements_peak == est.score_elements_peak
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
