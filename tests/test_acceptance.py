"""End-to-end acceptance gate.

Each test covers one numbered acceptance check and prints a single
``acceptance NN <label>: PASS|FAIL`` line (visible even under pytest's
capture) in addition to its asserts.  Every check also carries a wall-clock
budget; blowing the budget fails the check.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from conftest import max_param_delta, rand_batch, sequential_sgd
from seqpar import baseline, costs, data, hybrid, model, runner, sharded
from seqpar.grid import GridLayout
from seqpar.model import ModelConfig
from seqpar.nnops import DropoutPolicy

ACFG = ModelConfig(
    embed_dim=16, n_layers=2, n_heads=2, ff_dim=32,
    vocab=256, seq_len=24, batch=2,
)

WORKER_MATRIX = (1, 2, 3, 4, 6)


@contextmanager
def criterion(capsys, number, label, limit_seconds):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"acceptance {number} {label}: FAIL")
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed < limit_seconds
    with capsys.disabled():
        print(f"acceptance {number} {label}: {'PASS' if ok else 'FAIL'}"
              f" ({elapsed:.1f}s)")
    assert ok, f"wall clock {elapsed:.1f}s exceeded the {limit_seconds}s budget"


def close_lists(got, want, rel):
    return all(abs(g - w) <= rel * max(1.0, abs(w)) for g, w in zip(got, want))


def grads_close(got, want, tol, skip=()):
    """Elementwise |a - b| <= tol + tol*|b| over named arrays.

    The additive term matters: a few gradient components (for one, the key
    projection bias, which softmax's shift invariance zeroes out exactly)
    are mathematically zero, so a pure relative test would divide by zero.
    """
    for (name, a), (_, b) in zip(got.named_arrays(), want.named_arrays()):
        if name in skip:
            continue
        if not np.all(np.abs(a - b) <= tol + tol * np.abs(b)):
            return False
    return True


def test_01_sharded_matches_sequential(capsys):
    with criterion(capsys, "01",
                   "sharded engine reproduces single-worker training"
                   " (1,2,3,4,6 workers)", 30.0):
        rng = np.random.default_rng(11)
        batches = [rand_batch(ACFG, rng) for _ in range(10)]
        params0 = model.init_params(ACFG, 0)
        oracle, oracle_losses, oracle_grads = sequential_sgd(ACFG, params0, batches, lr=0.2)
        for n in WORKER_MATRIX:
            run = sharded.run_steps(ACFG, params0, n, batches, lr=0.2)
            assert close_lists(run.step_losses, oracle_losses, 1e-12), f"losses, n={n}"
            assert max_param_delta(run.final_params, oracle) <= 1e-8, f"params, n={n}"
            for g in run.last_grads:
                assert grads_close(g, oracle_grads, 1e-10,
                                   skip=("pos_table",)), f"grads, n={n}"
            stitched = np.concatenate([g.pos_table for g in run.last_grads], axis=0)
            want = oracle_grads.pos_table
            assert np.all(np.abs(stitched - want) <= 1e-10 + 1e-10 * np.abs(want))


def test_02_dropout_training_is_shard_invariant(capsys):
    with criterion(capsys, "02",
                   "dropout training is shard invariant (2 workers)", 30.0):
        policy = DropoutPolicy(rate=0.1, seed=7)
        rng = np.random.default_rng(21)
        batches = [rand_batch(ACFG, rng) for _ in range(6)]
        params0 = model.init_params(ACFG, 1)
        oracle, oracle_losses, _ = sequential_sgd(ACFG, params0, batches, lr=0.2,
                                                  policy=policy)
        run = sharded.run_steps(ACFG, params0, 2, batches, lr=0.2, policy=policy)
        assert close_lists(run.step_losses, oracle_losses, 1e-10)
        assert max_param_delta(run.final_params, oracle) <= 1e-10


def test_03_baseline_matches_sequential(capsys):
    with criterion(capsys, "03",
                   "baseline engine reproduces single-worker training"
                   " (1,2,3,4,6 workers)", 30.0):
        rng = np.random.default_rng(31)
        batches = [rand_batch(ACFG, rng) for _ in range(10)]
        params0 = model.init_params(ACFG, 0)
        oracle, oracle_losses, oracle_grads = sequential_sgd(ACFG, params0, batches, lr=0.2)
        for n in WORKER_MATRIX:
            run = baseline.run_steps(ACFG, params0, n, batches, lr=0.2)
            assert close_lists(run.step_losses, oracle_losses, 1e-12), f"losses, n={n}"
            assert max_param_delta(run.workers[0], oracle) <= 1e-8, f"params, n={n}"
            for g in run.last_grads:
                assert grads_close(g, oracle_grads, 1e-10), f"grads, n={n}"


def test_04_per_layer_collective_schedule(capsys):
    with criterion(capsys, "04",
                   "collective schedule per layer (baseline 8 vs sharded 2)", 10.0):
        cfg = replace(ACFG, n_layers=6)
        rng = np.random.default_rng(41)
        batches = [rand_batch(cfg, rng)]
        params0 = model.init_params(cfg, 0)

        srun = sharded.run_steps(cfg, params0, 2, batches, lr=0.1)
        s_records = srun.comm.ledger.records
        s_tagged = [r for r in s_records if r.layer is not None]
        assert len(s_tagged) == 2 * 6
        assert len(s_records) == 2 * 6 + 1
        sync = [r for r in s_records if r.layer is None]
        assert len(sync) == 1 and sync[0].kind == "all-reduce"

        brun = baseline.run_steps(cfg, params0, 2, batches, lr=0.1)
        b_records = brun.comm.ledger.records
        b_tagged = [r for r in b_records if r.layer is not None]
        assert len(b_tagged) == 8 * 6
        assert len(b_records) == 8 * 6 + 5

        for layer in range(6):
            n_base = sum(1 for r in b_tagged if r.layer == layer)
            n_shard = sum(1 for r in s_tagged if r.layer == layer)
            assert (n_base, n_shard) == (8, 2), f"layer {layer}"


def test_05_fusion_halves_forward_collectives(capsys):
    with criterion(capsys, "05",
                   "gather fusion halves collectives without changing results", 30.0):
        rng = np.random.default_rng(51)
        batches = [rand_batch(ACFG, rng) for _ in range(3)]
        params0 = model.init_params(ACFG, 0)
        fused = sharded.run_steps(ACFG, params0, 2, batches, lr=0.2, fused=True)
        split = sharded.run_steps(ACFG, params0, 2, batches, lr=0.2, fused=False)

        L, steps = ACFG.n_layers, len(batches)
        for run, per_layer in ((fused, 1), (split, 2)):
            for s in range(steps):
                fwd = run.comm.ledger.count(kind="all-gather", phase="forward", step=s)
                bwd = run.comm.ledger.count(kind="reduce-scatter", phase="backward", step=s)
                assert fwd == per_layer * L and bwd == per_layer * L

        assert close_lists(split.step_losses, fused.step_losses, 1e-12)
        assert max_param_delta(split.final_params, fused.final_params) <= 1e-12


def test_06_weak_scaling_ratios(capsys):
    with criterion(capsys, "06",
                   "weak-scaling workload ratios, estimated and measured", 60.0):
        assert costs.weak_scaling_ratios(ACFG) == [1, 6, 18, 54, 144]

        measured = []
        for n, seq_len in ((1, 48), (2, 96), (4, 192)):
            cfg = replace(ACFG, seq_len=seq_len)
            rng = np.random.default_rng(61)
            run = sharded.run_steps(cfg, model.init_params(cfg, 0), n,
                                    [rand_batch(cfg, rng)], lr=0.1)
            peaks = {run.counters[w][0].attn_score_elements_peak
                     for w in range(n)}
            assert len(peaks) == 1, "workers should carry equal score footprints"
            est = costs.estimate(cfg, n, "sharded")
            assert peaks == {est.score_elements_peak}
            measured.append(peaks.pop())
        assert [p / measured[0] for p in measured] == [1, 2, 4]

        cfg = replace(ACFG, seq_len=48)
        rng = np.random.default_rng(62)
        run = sharded.run_steps(cfg, model.init_params(cfg, 0), 1,
                                [rand_batch(cfg, rng)], lr=0.1)
        est = costs.estimate(cfg, 1, "sharded")
        c = run.counters[0][0]
        assert c.attn_score_flops == est.score_flops
        assert c.attn_score_elements_peak == est.score_elements_peak


def test_07_score_memory_splits_across_workers(capsys):
    with criterion(capsys, "07",
                   "attention score memory splits across workers", 10.0):
        cfg = replace(ACFG, seq_len=48)
        est1 = costs.estimate(cfg, 1, "sharded")
        est4 = costs.estimate(cfg, 4, "sharded")
        assert 4 * est4.score_elements_peak == est1.score_elements_peak
        base2 = costs.estimate(cfg, 2, "baseline")
        base4 = costs.estimate(cfg, 4, "baseline")
        assert base2.score_elements_peak == base4.score_elements_peak
        assert base4.score_elements_peak == 4 * est4.score_elements_peak

        rng = np.random.default_rng(71)
        batches = [rand_batch(cfg, rng)]
        params0 = model.init_params(cfg, 0)
        srun = sharded.run_steps(cfg, params0, 4, batches, lr=0.1)
        for w in range(4):
            assert srun.counters[w][0].attn_score_elements_peak == est4.score_elements_peak
        brun = baseline.run_steps(cfg, params0, 4, batches, lr=0.1)
        assert brun.counters[0][0].attn_score_elements_peak == base4.score_elements_peak
        for w in (1, 2, 3):
            assert brun.counters[w][0].attn_score_elements_peak == 0


def test_08_hybrid_grid_matches_combined_batch(capsys):
    with criterion(capsys, "08",
                   "hybrid 2x2 grid reproduces combined-batch training", 60.0):
        rng = np.random.default_rng(81)
        steps = 3
        grid_batches = [[rand_batch(ACFG, rng) for _ in range(2)] for _ in range(steps)]
        combined = [
            (np.concatenate([t for t, _ in row], axis=0),
             np.concatenate([g for _, g in row], axis=0))
            for row in grid_batches
        ]
        params0 = model.init_params(ACFG, 0)
        oracle, oracle_losses, _ = sequential_sgd(ACFG, params0, combined, lr=0.2)

        run = hybrid.run_steps(ACFG, params0, GridLayout(2, 2), combined, lr=0.2)
        assert close_lists(run.step_losses, oracle_losses, 1e-10)
        assert max_param_delta(run.final_params, oracle) <= 1e-10

        group_ids = {r.group_id for r in run.comm.ledger.records}
        assert group_ids == {"seq0", "seq1", "data0", "data1"}
        assert "world" not in group_ids


def test_09_gradients_match_finite_differences_everywhere(capsys):
    with criterion(capsys, "09",
                   "analytic gradients match finite differences everywhere", 120.0):
        cfg = ModelConfig(embed_dim=8, n_layers=1, n_heads=2, ff_dim=16,
                          vocab=11, seq_len=4, batch=1)
        rng = np.random.default_rng(91)
        tokens = rng.integers(0, cfg.vocab, size=(1, 4))
        targets = rng.integers(0, cfg.vocab, size=(1, 4))
        params = model.init_params(cfg, 3)
        loss, cache = model.forward(params, cfg, tokens, targets)
        grads = model.backward(params, cfg, cache)

        arrays = params.arrays()

        def loss_with(which, flat_index, delta):
            work = list(arrays)
            bumped = arrays[which].copy()
            bumped.reshape(-1)[flat_index] += delta
            work[which] = bumped
            value, _ = model.forward(params.replace_arrays(work), cfg, tokens, targets)
            return value

        eps = 1e-6
        worst = 0.0
        checked = 0
        for which, g in enumerate(grads.arrays()):
            flat_g = g.reshape(-1)
            for i in range(flat_g.size):
                numeric = (loss_with(which, i, +eps) - loss_with(which, i, -eps)) / (2 * eps)
                err = abs(numeric - flat_g[i]) / max(1.0, abs(flat_g[i]))
                worst = max(worst, err)
                checked += 1
        assert checked == model.param_count(params)
        assert worst < 1e-5, f"worst relative error {worst:.3e}"


def test_10_demo_run_trains_and_repeats_bitwise(capsys, tmp_path):
    with criterion(capsys, "10",
                   "500-step demo trains below target, identical on rerun", 600.0):
        cfg = runner.default_model()
        corpus_path = tmp_path / "corpus.txt"
        data.write_synthetic_corpus(corpus_path, n_bytes=200_000, seed=0)
        corpus = data.read_bytes(corpus_path)
        steps = 500
        batches = [data.batch_at(corpus, cfg.seq_len, cfg.batch, s) for s in range(steps)]
        params0 = model.init_params(cfg, 0)

        first = sharded.run_steps(cfg, params0, 2, batches, lr=0.1, timeout=600.0)
        smoothed = sum(first.step_losses[-50:]) / 50
        assert smoothed < 0.8 * math.log(256.0), f"smoothed loss {smoothed:.4f}"

        second = sharded.run_steps(cfg, params0, 2, batches, lr=0.1, timeout=600.0)
        assert second.step_losses == first.step_losses
        a = first.final_params
        b = second.final_params
        for x, y in zip(a.arrays(), b.arrays()):
            assert x.tobytes() == y.tobytes()
