import tempfile
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqpar import baseline, costs, grid, hybrid, model, reporting, runner, sharded, tensor
from seqpar.collectives import Communicator, run_workers
from seqpar.costs import WEAK_SCALING_SCHEDULE, estimate, score_flops, weak_scaling_ratios
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
    # and the estimate of the full score rectangle only adds the batch *
    # heads factor, which cancels
    est = [
        estimate(ModelConfig(
            embed_dim=tiny_cfg.embed_dim, n_layers=tiny_cfg.n_layers,
            n_heads=tiny_cfg.n_heads, ff_dim=tiny_cfg.ff_dim,
            vocab=tiny_cfg.vocab, seq_len=l, batch=tiny_cfg.batch, causal=False,
        ), n, "sharded").score_elements_peak
        for n, l in WEAK_SCALING_SCHEDULE
    ]
    assert [e / est[0] for e in est] == [1, 6, 18, 54, 144]
    # causal, the first point's ranks keep only their bands: rank 0's
    # 29-row chunks 0..29 and 319..348 hold 29*29 + 29*348 elements per
    # (sample, head) block
    causal = estimate(replace(tiny_cfg, seq_len=348), 6, "sharded")
    assert causal.score_elements_peak == 2 * 2 * (29 * 29 + 29 * 348)


def test_weak_scaling_rejects_non_integer_ratio(tiny_cfg):
    with pytest.raises(ValueError, match="non-integer"):
        weak_scaling_ratios(tiny_cfg, schedule=((6, 348), (6, 354)))


def test_doubling_workers_halves_score_footprint(tiny_cfg):
    full = replace(tiny_cfg, causal=False)
    one = estimate(full, 1, "sharded")
    two = estimate(full, 2, "sharded")
    four = estimate(full, 4, "sharded")
    assert one.score_elements_peak == 2 * two.score_elements_peak
    assert two.score_elements_peak == 2 * four.score_elements_peak
    # causal, each of two balanced ranks scores and keeps two 6-row chunks,
    # one band each: 6*6 + 6*24 = 180 of one worker's 24*24 = 576 (rows x
    # visible keys) per (sample, head) block; four ranks keep 3*3 + 3*24
    one, two, four = (estimate(tiny_cfg, n, "sharded") for n in (1, 2, 4))
    assert 16 * two.score_flops == 5 * one.score_flops
    assert [e.score_elements_peak for e in (one, two, four)] == [4 * 576, 4 * 180, 4 * 81]


def test_score_flops_count_each_bands_visible_keys():
    """300 positions on 3 workers, written out: a worker's 100 rows are a
    64-row band and a ragged 36-row one, each seeing the keys up to its last
    row; 2 layers x 3 samples x 2 heads of 4-wide QK^T and weights@V."""
    cfg = ModelConfig(embed_dim=8, n_layers=2, n_heads=2, ff_dim=8, vocab=16, seq_len=300,
                      batch=3)

    def by_hand(*bands):
        return 2 * 3 * 2 * sum(2 * 2 * rows * keys * 4 for rows, keys in bands)

    assert score_flops(cfg, ((0, 100),)) == by_hand((64, 64), (36, 100))
    assert score_flops(cfg, ((200, 300),)) == by_hand((64, 264), (36, 300))
    # balanced ranks hold two 50-row chunks, one band each, and score equal shares
    assert estimate(cfg, 3, "sharded").score_flops_by_rank == [by_hand((50, 50), (50, 300))] * 3
    assert estimate(cfg, 3, "sharded").score_flops == score_flops(cfg, ((100, 150), (150, 200)))
    assert estimate(cfg, 1, "sequential").score_flops == by_hand(
        (64, 64), (64, 128), (64, 192), (64, 256), (44, 300))
    full = replace(cfg, causal=False)
    assert (score_flops(full, ((0, 100),)) == score_flops(full, ((200, 300),))
            == by_hand((100, 300)))


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
    full = replace(tiny_cfg, causal=False)
    for n in (2, 4):
        base = estimate(full, n, "baseline")
        shard = estimate(full, n, "sharded")
        assert base.score_elements_peak == n * shard.score_elements_peak
    # and the baseline's peak never depends on the worker count
    for cfg in (full, tiny_cfg):
        assert (
            estimate(cfg, 2, "baseline").score_elements_peak
            == estimate(cfg, 4, "baseline").score_elements_peak
        )
    # causal, rank 0 of 4 keeps its chunks 0..3 and 21..24 (3*3 + 3*24 = 81
    # per (sample, head) block), the baseline its one 24-row band of 24*24
    assert estimate(tiny_cfg, 4, "sharded").score_elements_peak == 4 * 81
    assert estimate(tiny_cfg, 4, "baseline").score_elements_peak == 4 * 576


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
        rows = grid.ShardSpec(w, n, tiny_cfg.seq_len).balanced_rows
        assert run.counters[w][0].attn_score_flops == score_flops(tiny_cfg, rows)
        assert run.counters[w][0].attn_score_elements_peak == est.score_elements_peak
    assert max(c[0].attn_score_flops for c in run.counters) == est.score_flops
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
            sharded.forward(grid.shard_params(params, spec), tiny_cfg,
                            grid.slice_batch(tokens, spec), grid.slice_batch(targets, spec),
                            rows=spec.balanced_rows,
                            layer_kv_fwd=partial(sharded.layer_kv_fwd, worker, 0, fused=fused))
        return counters.matmul_flops

    expected = [shared + score_flops(
        tiny_cfg, grid.ShardSpec(r, n, tiny_cfg.seq_len).balanced_rows) for r in range(n)]
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
        assert counters[0].attn_score_flops == score_flops(tiny_cfg, spec.balanced_rows)
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
    chunks of its balanced rows, and the estimate is the busiest rank's."""
    cfg = ModelConfig(embed_dim=8, n_layers=2, n_heads=2, ff_dim=8, vocab=16,
                      seq_len=seq_len, batch=1, causal=causal)
    rng = np.random.default_rng(3)
    shape = (replicas * cfg.batch, seq_len)
    batches = [(rng.integers(0, cfg.vocab, size=shape), rng.integers(0, cfg.vocab, size=shape))]
    layout = grid.GridLayout(replicas, workers)
    run = runner._train(engine, cfg, model.init_params(cfg, 0), layout, batches, lr=0.1)
    for rank, counters in enumerate(run.counters):
        if engine == "baseline":  # rank 0 scores the whole sequence
            want = score_flops(cfg, ((0, seq_len),)) if rank == 0 else 0
        else:
            rows = grid.ShardSpec(layout.coords(rank)[1], workers, seq_len).balanced_rows
            want = score_flops(cfg, rows)
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
    rows = cfg.seq_len // workers if engine in ("sharded", "hybrid") else cfg.seq_len
    assert est.score_cache_bytes == cfg.n_layers * (
        est.score_elements_peak * (itemsize + (1 if dropout else 0))
        + cfg.batch * cfg.n_heads * rows * itemsize)
    for rank, counters in enumerate(run.counters):
        # the baseline's rank 0 runs every sublayer, the others hold no scores
        want = 0 if engine == "baseline" and rank > 0 else est.score_cache_bytes
        assert [c.attn_score_bytes_cached for c in counters] == [want, want]


# (engine, replicas, workers, fused): each engine on grids of up to 3 sequence
# workers; hybrid with at most 2 replicas
SMALL_GRIDS = [
    ("sequential", 1, 1, True), ("sharded", 1, 1, True), ("sharded", 1, 2, True),
    ("sharded", 1, 3, True), ("sharded", 1, 2, False), ("sharded", 1, 3, False),
    ("baseline", 1, 2, True), ("baseline", 1, 3, True),
    ("hybrid", 2, 1, True), ("hybrid", 2, 2, True), ("hybrid", 2, 2, False),
]


@settings(max_examples=30, deadline=None)
@given(grid_=st.sampled_from(SMALL_GRIDS), length=st.integers(1, 96), batch=st.integers(1, 3),
       heads=st.integers(1, 3), causal=st.booleans(), dropout=st.sampled_from([0.0, 0.2]),
       precision=st.sampled_from(["double", "single"]))
@example(grid_=("sharded", 1, 2, True), length=30, batch=1, heads=1, causal=True, dropout=0.0,
         precision="double")  # blocks of 15: chunks of 7 and 8 rows
def test_every_ranks_score_stack_is_its_closed_form(grid_, length, batch, heads, causal, dropout,
                                                     precision):
    """Every world rank's step-0 score flops, score elements and cached
    score bytes are the estimate's figures for that rank, and the run's
    summary measures what it estimates, rank by rank."""
    engine, replicas, workers, fused = grid_
    seq_len = workers * max(1, length // workers)
    cfg = ModelConfig(embed_dim=4 * heads, n_layers=2, n_heads=heads, ff_dim=8, vocab=256,
                      seq_len=seq_len, batch=batch, causal=causal, dropout=dropout,
                      precision=precision)
    layout = grid.GridLayout(replicas, workers)
    rng = np.random.default_rng(seq_len)
    shape = (replicas * batch, seq_len)
    batches = [(rng.integers(0, cfg.vocab, size=shape), rng.integers(0, cfg.vocab, size=shape))]
    run = runner._train(engine, cfg, model.init_params(cfg, 0), layout, batches, lr=0.1,
                        policy=DropoutPolicy(rate=dropout, seed=5), fused=fused)
    est = estimate(cfg, workers, engine, fused=fused, replicas=replicas)
    step0 = [c[0] for c in run.counters]
    assert [c.attn_score_flops for c in step0] == est.score_flops_by_rank
    assert [c.attn_score_elements_peak for c in step0] == est.score_elements_by_rank
    assert [c.attn_score_bytes_cached for c in step0] == est.score_cache_bytes_by_rank

    with tempfile.TemporaryDirectory() as out:
        rc = runner.RunConfig(model=cfg, engine=engine, workers=workers, replicas=replicas,
                              steps=1, synthetic_bytes=4096, fused=fused, out_dir=out)
        summary = runner.run_experiment(rc).summary
        assert summary["measured_score_elements_by_rank"] == est.score_elements_by_rank
        for figure in ("score_elements_peak", "score_cache_bytes", "score_flops"):
            assert summary[f"measured_{figure}"] == summary[f"estimated_{figure}"], figure
        for figure in ("score_flops", "score_elements", "score_cache_bytes"):
            assert (summary[f"measured_{figure}_by_rank"]
                    == summary[f"estimated_{figure}_by_rank"]), figure
        assert reporting.report(out)[1] == []


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
    ("sharded", 1, 3, 300),  # rank 2's adjacent chunks of 50 rows, one band each
    ("sharded", 1, 2, 30),   # blocks of 15: chunks of 7 and 8 rows
    ("hybrid", 2, 2, 240), ("baseline", 1, 3, 240),
])
def test_every_rank_scores_the_closed_form_over_its_chunks(engine, replicas, workers, seq_len,
                                                           fused):
    """Each rank's counted score flops are the estimate's
    ``score_flops_by_rank`` figure for it: the closed form summed over the
    chunks of its balanced rows, fused or not, and the estimate is the
    largest."""
    cfg = ModelConfig(embed_dim=8, n_layers=2, n_heads=2, ff_dim=8, vocab=16,
                      seq_len=seq_len, batch=1)
    rng = np.random.default_rng(5)
    shape = (replicas * cfg.batch, seq_len)
    batches = [(rng.integers(0, cfg.vocab, size=shape), rng.integers(0, cfg.vocab, size=shape))]
    layout = grid.GridLayout(replicas, workers)
    run = runner._train(engine, cfg, model.init_params(cfg, 0), layout, batches, lr=0.1,
                        fused=fused)
    per_rank = estimate(cfg, workers, engine, fused=fused, replicas=replicas).score_flops_by_rank
    for rank, counters in enumerate(run.counters):
        seq_index = layout.coords(rank)[1]
        if engine in ("sharded", "hybrid"):
            rows = grid.ShardSpec(seq_index, workers, seq_len).balanced_rows
            assert per_rank[seq_index] == sum(score_flops(cfg, ((start, stop),))
                                              for start, stop in rows)
        assert counters[0].attn_score_flops == per_rank[seq_index]
    est = estimate(cfg, workers, engine, fused=fused, replicas=replicas)
    assert est.score_flops == max(per_rank)


@pytest.mark.parametrize("seq_len,workers,heads,each", [
    (128, 2, 8, 10_485_760),  # the default model: merged chunks gave rank 1 12,582,912
    (128, 4, 8, 4_718_592),
    (192, 3, 8, 14_680_064),
    (300, 3, 4, 35_840_000),
])
def test_balanced_ranks_score_equal_shares(seq_len, workers, heads, each):
    cfg = ModelConfig(embed_dim=64, n_layers=2, n_heads=heads, ff_dim=256, vocab=256,
                      seq_len=seq_len, batch=4)
    assert estimate(cfg, workers).score_flops_by_rank == [each] * workers


@settings(max_examples=200, deadline=None)
@given(workers=st.integers(2, 8), half=st.integers(1, 100), causal=st.booleans())
def test_every_even_block_scores_equal_shares(workers, half, causal):
    """A rank's front and back chunks are both ``half`` rows long, cut into
    the same bands, and start at positions that sum to ``(2N-1)·half``, so
    every rank scores the same, whether or not the chunks fill whole bands."""
    cfg = ModelConfig(embed_dim=4, n_layers=1, n_heads=1, ff_dim=4, vocab=8,
                      seq_len=2 * half * workers, causal=causal)
    assert len(set(estimate(cfg, workers).score_flops_by_rank)) == 1


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "unfused"])
def test_longctx_ranks_score_equal_shares(fused):
    """The benchmark's long-context grid: T512 on two workers, dropout on.
    Contiguous blocks would score 20,971,520 and 54,525,952 flops a step;
    the balanced rows score 37,748,736 each, fused or not."""
    cfg = ModelConfig(embed_dim=64, n_layers=2, n_heads=8, ff_dim=256, vocab=256, seq_len=512,
                      batch=1, dropout=0.1)
    blocks = [costs.score_flops(cfg, grid.ShardSpec(r, 2, 512).block_rows) for r in range(2)]
    assert blocks == [20_971_520, 54_525_952]
    assert estimate(cfg, 2).score_flops_by_rank == [37_748_736, 37_748_736]
    rng = np.random.default_rng(0)
    run = sharded.run_steps(cfg, model.init_params(cfg, 0), 2, [rand_batch(cfg, rng)], lr=0.1,
                            policy=DropoutPolicy(rate=0.1, seed=0), fused=fused)
    assert [c[0].attn_score_flops for c in run.counters] == [37_748_736, 37_748_736]
    assert estimate(cfg, 2, "sharded", fused=fused).score_flops == 37_748_736
    per_layer = 2 if fused else 4
    for layer in range(cfg.n_layers):
        assert run.comm.ledger.count(step=0, layer=layer) == per_layer
