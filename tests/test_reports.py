import json
import os
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from seqpar import cli, model, reporting, runner
from seqpar.errors import PartitionError
from seqpar.grid import GridLayout
from seqpar.model import ModelConfig
from seqpar.reporting import StepReport
from seqpar.runner import RunConfig
from seqpar.tensor import StepCounters


def small_model(**kw):
    base = dict(embed_dim=16, n_layers=1, n_heads=2, ff_dim=32,
                vocab=256, seq_len=16, batch=2)
    base.update(kw)
    return ModelConfig(**base)


def small_run(tmp_path, **kw):
    args = dict(model=small_model(), steps=2, lr=0.1, seed=0,
                synthetic_bytes=4096, out_dir=str(tmp_path / "run"))
    args.update(kw)
    return RunConfig(**args)


# --- step reports ---


def test_step_report_round_trip_is_byte_identical():
    r = StepReport(
        step=3, engine="sharded", loss=5.125, grad_norm=0.25,
        matmul_flops=1024, attn_score_flops=256, score_elements_peak=64,
        collectives={"all-gather": 2, "all-reduce": 1},
    )
    line = r.to_json_line()
    again = StepReport.from_json_line(line)
    assert again == r
    assert again.to_json_line() == line


def test_step_report_orders_keys_stably():
    a = StepReport(0, "sequential", 1.0, 2.0, 3, 4, 5, {"b": 1, "a": 2})
    b = StepReport(0, "sequential", 1.0, 2.0, 3, 4, 5, {"a": 2, "b": 1})
    assert a.to_json_line() == b.to_json_line()
    keys = list(json.loads(a.to_json_line()).keys())
    assert keys == ["step", "engine", "loss", "grad_norm", "matmul_flops",
                    "attn_score_flops", "score_elements_peak", "collectives"]


def test_from_counters():
    c = StepCounters(matmul_flops=10, attn_score_flops=20, attn_score_elements_peak=30)
    r = reporting.from_counters(1, "baseline", np.float64(2.5), 0.5, c, {"gather": 4})
    assert r.loss == 2.5 and isinstance(r.loss, float)
    assert (r.matmul_flops, r.attn_score_flops, r.score_elements_peak) == (10, 20, 30)
    assert r.collectives == {"gather": 4}


def test_step_report_takes_an_integer_loss_and_refuses_a_bool_count():
    line = ('{"step": 0, "engine": "sequential", "loss": 5, "grad_norm": 1.0, "matmul_flops": 3, '
            '"attn_score_flops": 4, "score_elements_peak": 5, "collectives": {}}')
    assert StepReport.from_json_line(line).loss == 5
    with pytest.raises(ValueError, match="'matmul_flops' must be an integer, got True"):
        StepReport.from_json_line(line.replace('"matmul_flops": 3', '"matmul_flops": true'))


def test_jsonl_file_round_trip(tmp_path):
    reports = [
        StepReport(s, "sequential", 5.0 - s, 1.0, 10, 20, 30, {}) for s in range(4)
    ]
    path = tmp_path / "steps.jsonl"
    reporting.write_jsonl(path, reports)
    assert reporting.read_jsonl(path) == reports


# --- run config ---


def test_run_config_dict_round_trip(tmp_path):
    rc = small_run(tmp_path, engine="sharded", workers=2)
    assert RunConfig.from_dict(rc.to_dict()) == rc


def test_run_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown run-config keys"):
        RunConfig.from_dict({"steps": 3, "turbo": True})


def test_run_config_validation(tmp_path):
    with pytest.raises(ValueError, match="unknown engine"):
        small_run(tmp_path, engine="warp")
    with pytest.raises(ValueError, match="single worker"):
        small_run(tmp_path, engine="sequential", workers=2)
    with pytest.raises(ValueError, match="replicas=1"):
        small_run(tmp_path, engine="sharded", workers=2, replicas=2)
    with pytest.raises(ValueError, match="not divisible"):
        small_run(tmp_path, engine="sharded", workers=5)
    with pytest.raises(ValueError, match="steps"):
        small_run(tmp_path, steps=0)
    # masks are keyed by the sample's row in the combined batch, so hybrid
    # grids with dropout are checked against the sequential oracle
    for replicas in (1, 2):
        rc = small_run(tmp_path / f"r{replicas}", engine="hybrid", workers=2,
                       replicas=replicas, model=small_model(dropout=0.1), equivalence_check=True)
        assert runner.run_experiment(rc).summary["equivalence_pass"] is True


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), float("-inf")])
def test_run_config_rejects_non_finite_lr(tmp_path, lr):
    with pytest.raises(ValueError, match="lr must be finite"):
        small_run(tmp_path, lr=lr)


def test_run_config_rejects_a_negative_seed(tmp_path):
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        small_run(tmp_path, seed=-1)


@pytest.mark.parametrize("d, message", [
    ({"model": {"causal": "no"}}, "model-config key 'causal' must be true or false, got 'no'"),
    ({"model": 5}, "run-config key 'model' must be an object, got 5"),
    ({"workers": 2.0}, "run-config key 'workers' must be an integer, got 2.0"),
    ({"steps": "3"}, "run-config key 'steps' must be an integer, got '3'"),
    ({"steps": True}, "run-config key 'steps' must be an integer, got True"),
    ({"lr": "0.1"}, "run-config key 'lr' must be a number, got '0.1'"),
    ({"engine": 1}, "run-config key 'engine' must be a string, got 1"),
    ({"dataset": 3}, "run-config key 'dataset' must be a string or null, got 3"),
    ({"fused": 1}, "run-config key 'fused' must be true or false, got 1"),
    ([["steps", 3]], "a run-config must be an object, got list"),
])
def test_run_config_from_dict_rejects_values_of_the_wrong_type(d, message):
    if isinstance(d, dict) and isinstance(d.get("model"), dict):
        d = {"model": {**small_model().to_dict(), **d["model"]}}
    with pytest.raises(ValueError, match=message):
        RunConfig.from_dict(d)


def test_run_config_rejects_a_synthetic_corpus_too_small_for_one_batch(tmp_path):
    grid2x2 = dict(engine="hybrid", workers=2, replicas=2)
    need = 2 * 2 * (16 + 1)  # replicas x batch x (seq_len + 1)
    with pytest.raises(ValueError, match=f"synthetic_bytes {need - 1} is too small"):
        small_run(tmp_path, synthetic_bytes=need - 1, **grid2x2)
    runner.run_experiment(small_run(tmp_path, synthetic_bytes=need, steps=1, **grid2x2))
    small_run(tmp_path, synthetic_bytes=0, dataset=str(tmp_path / "corpus.txt"))


def test_run_config_from_dict_takes_ints_for_numbers_and_null_for_no_dataset(tmp_path):
    rc = RunConfig.from_dict({**small_run(tmp_path).to_dict(), "lr": 1, "dataset": None})
    assert (rc.lr, rc.dataset) == (1, None)


# --- experiment runner ---


def test_run_experiment_writes_every_artifact(tmp_path):
    rc = small_run(tmp_path, engine="sharded", workers=2, equivalence_check=True)
    result = runner.run_experiment(rc)
    out = result.out_dir
    for name in ("steps.jsonl", "ledger.jsonl", "summary.json", "checkpoint.bin",
                 "synthetic_corpus.txt"):
        assert os.path.exists(os.path.join(out, name)), name

    reports = reporting.read_jsonl(os.path.join(out, "steps.jsonl"))
    assert len(reports) == rc.steps
    assert reports[0].engine == "sharded"
    assert reports[0].collectives["all-gather"] == rc.model.n_layers

    with open(os.path.join(out, "summary.json")) as f:
        written = json.load(f)
    assert written["config"]["engine"] == "sharded"
    s = written["summary"]
    assert sorted(os.listdir(out)) == sorted(s["files"] + ["synthetic_corpus.txt"])
    for key in ("initial_loss", "final_loss", "smoothed_final_loss", "param_count",
                "ledger_records", "measured_score_flops", "estimated_score_flops",
                "score_flops_delta", "estimated_collectives_per_step",
                "estimated_comm_elements_per_step"):
        assert key in s, key
    assert s["score_flops_delta"] == 0
    assert s["equivalence_pass"] is True
    assert s["max_param_delta"] < 1e-8

    params, cfg, seed = model.load_checkpoint(os.path.join(out, "checkpoint.bin"))
    assert cfg == rc.model and seed == rc.seed
    for a, b in zip(params.arrays(), result.final_params.arrays()):
        assert a.tobytes() == b.tobytes()

    text, problems = reporting.report(out)
    assert "loss curve:" in text and "engine" in text
    assert problems == []


@pytest.mark.parametrize("engine,workers,elements", [
    # a sharded rank's chunks 0..4 + 12..16 (or 4..8 + 8..12) keep 4*4 +
    # 4*16 = 80 (rows x visible keys) of a (sample, head) block's scores;
    # the baseline's rank 0 keeps one 16-row band of 16*16
    ("sharded", 2, 80), ("baseline", 2, 16 * 16),
])
def test_summary_shows_cached_score_bytes_against_the_estimate(tmp_path, engine, workers,
                                                                elements):
    rc = small_run(tmp_path, model=small_model(dropout=0.1), engine=engine, workers=workers)
    summary = runner.run_experiment(rc).summary
    cfg = rc.model
    rows = cfg.seq_len // workers if engine == "sharded" else cfg.seq_len
    want = cfg.n_layers * cfg.batch * cfg.n_heads * (elements * (8 + 1) + rows * 8)
    assert summary["measured_score_cache_bytes"] == want
    assert summary["estimated_score_cache_bytes"] == want
    text, _ = reporting.report(rc.out_dir)
    assert f"score cache bytes measured {want} estimated {want}" in text


@pytest.mark.parametrize("engine,workers,want", [
    # L1 x B2 x H2 blocks of 8-wide QK^T and weights@V: 128 flops per
    # (row, visible key).  Sharded ranks score rows 0..4 + 12..16 and
    # 4..8 + 8..12, each chunk one band.
    ("sharded", 2, [(4 * 4 + 4 * 16) * 128, (4 * 8 + 4 * 12) * 128]),
    ("baseline", 2, [16 * 16 * 128, 0]),
])
def test_summary_reports_every_ranks_score_flops(tmp_path, engine, workers, want):
    rc = small_run(tmp_path, engine=engine, workers=workers)
    summary = runner.run_experiment(rc).summary
    assert summary["measured_score_flops_by_rank"] == want
    assert summary["measured_score_flops"] == max(want) == summary["estimated_score_flops"]
    text, _ = reporting.report(rc.out_dir)
    assert f"delta 0 by rank {want}\n" in text


@pytest.mark.parametrize("figure,edited", [
    # the default model at T30 on two workers: rank 0 scores rows 0..7 +
    # 22..30, 7*7 + 8*30 = 289 (row, visible key) pairs per (sample, head)
    # block, 4*8 blocks, 2 layers of 8-wide heads
    ("score_flops", [591872, 7]),
    ("score_elements", [9248, 1]),
    ("score_cache_bytes", [2 * (9248 * 8 + 4 * 8 * 15 * 8), 3]),
])
def test_report_checks_every_ranks_score_figures(tmp_path, capsys, figure, edited):
    """A summary whose rank 1 figure is wrong fails ``seqpar report``, even
    though the busiest rank's figure still matches its estimate."""
    rc = small_run(tmp_path, model=replace(runner.default_model(), seq_len=30),
                   engine="sharded", workers=2, steps=1)
    runner.run_experiment(rc)
    path = Path(rc.out_dir) / "summary.json"
    written = json.loads(path.read_text())
    key = f"measured_{figure}_by_rank"
    assert written["summary"][key][0] == edited[0]
    written["summary"][key] = edited
    path.write_text(json.dumps(written))
    assert run_cli("report", rc.out_dir) == 1
    captured = capsys.readouterr()
    assert f"error: {key} {edited} differs from estimated_{figure}_by_rank" in captured.err
    assert "every figure matches its estimate" not in captured.out


def test_zero_layer_run_measures_the_score_footprint_it_estimates(tmp_path):
    rc = small_run(tmp_path, model=small_model(n_layers=0), engine="sharded", workers=2,
                   equivalence_check=True)
    summary = runner.run_experiment(rc).summary
    for figure in ("score_elements_peak", "score_cache_bytes", "score_flops"):
        assert summary[f"measured_{figure}"] == summary[f"estimated_{figure}"] == 0, figure
    text, _ = reporting.report(rc.out_dir)
    assert "score elements    measured 0 estimated 0\n" in text


def test_run_experiment_sequential_and_baseline(tmp_path):
    seq = runner.run_experiment(small_run(tmp_path / "a", engine="sequential"))
    assert seq.summary["ledger_records"] == 0
    base = runner.run_experiment(
        small_run(tmp_path / "b", engine="baseline", workers=2, equivalence_check=True)
    )
    assert base.summary["equivalence_pass"] is True
    assert base.summary["ledger_records"] == (8 * 1 + 5) * 2


def test_run_experiment_hybrid(tmp_path):
    rc = small_run(tmp_path, engine="hybrid", workers=2, replicas=2,
                   equivalence_check=True)
    result = runner.run_experiment(rc)
    assert result.summary["equivalence_pass"] is True


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "unfused"])
def test_run_experiment_estimates_the_whole_hybrid_grid(tmp_path, fused):
    rc = small_run(tmp_path, engine="hybrid", workers=2, replicas=2, steps=1, fused=fused)
    summary = runner.run_experiment(rc).summary
    assert summary["estimated_collectives_per_step"] == summary["ledger_records"]
    assert summary["ledger_records"] == sum(summary["collectives_step0"].values())
    assert summary["score_flops_delta"] == 0


@pytest.mark.parametrize("engine,workers,replicas,dropout", [
    ("sequential", 1, 1, 0.1),
    ("sharded", 2, 1, 0.1),
    ("baseline", 2, 1, 0.1),
    ("hybrid", 2, 2, 0.0),
])
def test_run_experiment_reruns_byte_identically(tmp_path, engine, workers, replicas, dropout):
    texts = []
    for name in ("first", "second"):
        rc = small_run(tmp_path / name, model=small_model(dropout=dropout), engine=engine,
                       workers=workers, replicas=replicas, equivalence_check=True)
        result = runner.run_experiment(rc)
        assert result.summary["equivalence_pass"] is True
        texts.append([(tmp_path / name / "run" / f).read_bytes()
                      for f in ("steps.jsonl", "ledger.jsonl")])
    assert texts[0] == texts[1]


@pytest.mark.parametrize("engine,workers,replicas", [
    ("sharded", 2, 1), ("sharded", 3, 1), ("sharded", 4, 1),
    ("baseline", 2, 1), ("baseline", 3, 1), ("hybrid", 2, 2),
])
def test_grad_norm_is_layout_invariant(tiny_cfg, rng, engine, workers, replicas):
    shape = (replicas * tiny_cfg.batch, tiny_cfg.seq_len)
    batches = [(rng.integers(0, tiny_cfg.vocab, size=shape),
                rng.integers(0, tiny_cfg.vocab, size=shape)) for _ in range(2)]
    params = model.init_params(tiny_cfg, 1)
    oracle = runner._sequential_steps(tiny_cfg, params, batches, lr=0.1)
    run = runner._train(engine, tiny_cfg, params, GridLayout(replicas, workers), batches, lr=0.1)
    np.testing.assert_allclose(run.step_losses, oracle.step_losses, rtol=1e-10)
    np.testing.assert_allclose(run.grad_norms, oracle.grad_norms, rtol=1e-10)


def test_run_experiment_reads_dataset_file(tmp_path):
    corpus = tmp_path / "corpus.bin"
    corpus.write_bytes(bytes(np.random.default_rng(3).integers(0, 256, 2000).astype(np.uint8)))
    rc = small_run(tmp_path, dataset=str(corpus))
    result = runner.run_experiment(rc)
    assert not os.path.exists(os.path.join(result.out_dir, "synthetic_corpus.txt"))


def test_output_dir_env_override(tmp_path, monkeypatch):
    override = tmp_path / "env_dir"
    monkeypatch.setenv(runner.OUTPUT_DIR_ENV, str(override))
    result = runner.run_experiment(small_run(tmp_path))
    assert result.out_dir == str(override)
    assert os.path.exists(override / "summary.json")


def test_verify_equivalence_grid(tmp_path):
    cfg = small_model()
    rows = runner.verify_equivalence(
        cfg, engines=("sharded", "baseline"), workers=(1, 2), steps=2
    )
    assert len(rows) == 4
    assert all(r["pass"] for r in rows)
    solo = [r for r in rows if r["workers"] == 1]
    assert all(r["max_param_delta"] == 0.0 for r in solo)


def test_verify_equivalence_skips_non_dividing_grids():
    cfg = small_model(seq_len=10)
    rows = runner.verify_equivalence(cfg, engines=("sharded",), workers=(1, 2, 3), steps=1)
    assert [r["workers"] for r in rows] == [1, 2]


def test_verify_equivalence_refuses_when_every_grid_is_skipped():
    """Skipping every grid would check nothing, so it is an error that
    names what was skipped."""
    cfg = small_model(seq_len=10)
    with pytest.raises(PartitionError, match=r"no grid to verify.*sharded 1x3.*sharded 1x4"):
        runner.verify_equivalence(cfg, engines=("sharded",), workers=(3, 4), steps=1)


@pytest.mark.parametrize("steps", [0, -1])
def test_verify_equivalence_rejects_non_positive_steps(steps):
    with pytest.raises(ValueError, match="steps must be positive"):
        runner.verify_equivalence(small_model(), engines=("sharded",), workers=(1,), steps=steps)


@pytest.mark.parametrize("field, kw", [
    ("workers", dict(workers=(0,))),
    ("workers", dict(workers=(2, -1))),
    ("replicas", dict(engines=("hybrid",), replicas=(0,))),
    ("replicas", dict(engines=("sharded",), replicas=(-2,))),
])
def test_verify_equivalence_rejects_non_positive_grids(field, kw):
    with pytest.raises(ValueError, match=f"{field} must all be positive"):
        runner.verify_equivalence(small_model(), steps=1, **kw)


def _forbid_training(monkeypatch):
    def train(*args, **kw):
        raise AssertionError("a grid trained")
    monkeypatch.setattr(runner, "_train", train)
    monkeypatch.setattr(runner, "_sequential_steps", train)


@pytest.mark.parametrize("tolerance", [-1.0, 0.0, float("nan")])
def test_verify_equivalence_rejects_a_tolerance_that_passes_nothing(monkeypatch, tolerance):
    _forbid_training(monkeypatch)
    with pytest.raises(ValueError, match="tolerance must be positive"):
        runner.verify_equivalence(small_model(), engines=("sharded",), workers=(1,), steps=1,
                                  tolerance=tolerance)


@pytest.mark.parametrize("kw, message", [
    (dict(lr=float("nan")), "^lr must be finite, got nan$"),
    (dict(seed=-1), "^seed must be non-negative, got -1$"),
    (dict(steps=0), "^steps must be positive$"),
])
def test_verify_equivalence_checks_every_grid_as_a_run_config_before_training(
        monkeypatch, kw, message):
    """The bad value is named even on a grid that would be skipped."""
    _forbid_training(monkeypatch)
    with pytest.raises(ValueError, match=message):
        runner.verify_equivalence(small_model(seq_len=10), engines=("sharded",),
                                  workers=(3,), **{"steps": 1, **kw})


@pytest.mark.parametrize("kw, empty", [
    (dict(engines=()), "engines"),
    (dict(workers=()), "workers"),
    (dict(engines=("hybrid",), replicas=()), "replicas"),
    (dict(engines=(), workers=()), "engines"),
])
def test_verify_equivalence_names_the_empty_list(kw, empty):
    with pytest.raises(PartitionError, match=f"^no grid to verify: no {empty} given$"):
        runner.verify_equivalence(small_model(), steps=1, **kw)


def test_verify_equivalence_ignores_replicas_for_engines_that_take_none():
    rows = runner.verify_equivalence(small_model(), engines=("sharded",), workers=(1,),
                                     replicas=(), steps=1)
    assert [(r["replicas"], r["workers"]) for r in rows] == [(1, 1)]


def test_verify_equivalence_runs_sequential_on_one_worker_only():
    with pytest.raises(ValueError, match="single worker"):
        runner.verify_equivalence(small_model(), engines=("sequential",), workers=(1, 2), steps=1)
    rows = runner.verify_equivalence(small_model(), engines=("sequential",), workers=(1,), steps=1)
    assert [(r["replicas"], r["workers"], r["max_param_delta"]) for r in rows] == [(1, 1, 0.0)]


def test_verify_equivalence_passes_dropout_on_hybrid_grids_of_several_replicas():
    cfg = small_model(dropout=0.1)
    rows = runner.verify_equivalence(cfg, engines=("hybrid",), workers=(2,), replicas=(1, 2),
                                     steps=1)
    assert [(r["replicas"], r["workers"], r["pass"]) for r in rows] == [(1, 2, True),
                                                                         (2, 2, True)]


# --- CLI ---


def run_cli(*argv):
    return cli.main(list(argv))


def test_cli_train_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "cli_run"
    rc = run_cli(
        "train", "--engine", "sharded", "--workers", "2",
        "--embed-dim", "16", "--layers", "1", "--heads", "2", "--ff-dim", "32",
        "--seq-len", "16", "--batch", "2", "--steps", "2",
        "--synthetic-bytes", "4096", "--out", str(out),
    )
    assert rc == 0
    assert os.path.exists(out / "summary.json")
    assert "final loss" in capsys.readouterr().out


def test_cli_check_passes_a_correct_single_precision_run(tmp_path):
    """The oracle check's bound follows the precision: this correct float32
    run misses its oracle by about one ulp of 1, far above double's 1e-8."""
    out = tmp_path / "single"
    rc = run_cli(
        "train", "--engine", "sharded", "--workers", "2", "--precision", "single", "--check",
        "--embed-dim", "32", "--layers", "2", "--heads", "4", "--ff-dim", "64",
        "--seq-len", "48", "--batch", "2", "--steps", "3", "--out", str(out),
    )
    with open(out / "summary.json") as f:
        summary = json.load(f)["summary"]
    assert 1e-8 < summary["max_param_delta"] < summary["equivalence_tolerance"]
    assert summary["equivalence_tolerance"] == runner.equivalence_tolerance(np.float32)
    assert rc == 0
    assert "(pass below 7.629e-06)" in reporting.report(out)[0]


def test_equivalence_tolerance_keeps_double_at_1e_8():
    assert runner.equivalence_tolerance(np.float64) == 1e-8
    eps32 = float(np.finfo(np.float32).eps)
    assert runner.equivalence_tolerance(np.float32) == runner.EQUIVALENCE_ULPS * eps32


def test_cli_config_file_overrides_flags(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "steps": 2, "engine": "sequential",
        "model": {"seq_len": 16, "embed_dim": 16, "n_layers": 1, "n_heads": 2,
                  "ff_dim": 32, "batch": 2},
        "out_dir": str(tmp_path / "from_config"),
        "synthetic_bytes": 4096,
    }))
    rc = run_cli("train", "--steps", "99", "--engine", "sharded", "--workers", "1",
                 "--config", str(cfg_path))
    assert rc == 0
    with open(tmp_path / "from_config" / "summary.json") as f:
        written = json.load(f)
    assert written["summary"]["steps"] == 2
    assert written["summary"]["engine"] == "sequential"


@pytest.mark.parametrize("config, message", [
    ({"steps": 0}, "steps must be positive"),
    ({"model": {"embed_dim": -4}}, "model dimensions must be positive"),
])
def test_cli_config_value_out_of_range_names_its_file(tmp_path, capsys, config, message):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg_path), "--out", str(out)) == 1
    assert f"error: {cfg_path}: {message}\n" == capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config", [None, {"lr": 0.2}], ids=["no-file", "file-without-steps"])
def test_cli_flag_out_of_range_names_no_file(tmp_path, capsys, config):
    argv = ["train", "--steps", "0", "--out", str(tmp_path / "run")]
    if config is not None:
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        argv += ["--config", str(cfg_path)]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == "error: steps must be positive\n"


def test_cli_config_value_mends_a_flag_out_of_range(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"steps": 1}))
    out = tmp_path / "run"
    assert run_cli("train", "--steps", "0", "--config", str(cfg_path), "--out", str(out),
                   "--embed-dim", "16", "--layers", "1", "--heads", "2", "--ff-dim", "32",
                   "--seq-len", "16", "--batch", "2", "--synthetic-bytes", "4096") == 0
    with open(out / "summary.json") as f:
        assert json.load(f)["summary"]["steps"] == 1


def test_cli_config_value_mends_a_model_flag_out_of_range(tmp_path):
    """The model flags are range-checked only after the file's values are
    merged, like the run flags."""
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"model": {"embed_dim": 16}}))
    out = tmp_path / "run"
    assert run_cli("train", "--embed-dim", "-4", "--config", str(cfg_path), "--out", str(out),
                   "--steps", "1", "--layers", "1", "--heads", "2", "--ff-dim", "32",
                   "--seq-len", "16", "--batch", "2", "--synthetic-bytes", "4096") == 0
    with open(out / "summary.json") as f:
        assert json.load(f)["config"]["model"]["embed_dim"] == 16


def test_cli_verify(tmp_path, capsys):
    rc = run_cli(
        "verify", "--engines", "sharded", "--workers", "1,2", "--steps", "2",
        "--embed-dim", "16", "--layers", "1", "--heads", "2", "--ff-dim", "32",
        "--seq-len", "16", "--batch", "2",
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" not in out


def test_cli_verify_rejects_sequential_multi_worker_grids(capsys):
    rc = run_cli(
        "verify", "--engines", "sequential", "--workers", "1,2,4", "--steps", "1",
        "--embed-dim", "16", "--layers", "1", "--heads", "2", "--ff-dim", "32",
        "--seq-len", "16", "--batch", "2",
    )
    assert rc == 1
    captured = capsys.readouterr()
    assert "single worker" in captured.err and "1x2" not in captured.out


def test_cli_verify_fails_when_no_grid_divides_the_sequence(capsys):
    assert run_cli("verify", "--workers", "3", "--seq-len", "128") == 1
    captured = capsys.readouterr()
    assert "no grid to verify" in captured.err
    assert "sharded 1x3" in captured.err and "baseline 1x3" in captured.err
    assert captured.out == ""


def test_cli_verify_rejects_zero_steps(capsys):
    assert run_cli("verify", "--engines", "sharded", "--workers", "1", "--steps", "0",
                   "--seq-len", "16") == 1
    assert "error: steps must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("--lr", "nan"), "error: lr must be finite, got nan"),
    (("--seed", "-1"), "error: seed must be non-negative, got -1"),
    (("--tolerance", "-1"), "error: tolerance must be positive, got -1.0"),
    (("--tolerance", "0"), "error: tolerance must be positive, got 0.0"),
    (("--workers", ","), "error: no grid to verify: no workers given"),
])
def test_cli_verify_rejects_bad_input_before_any_grid_trains(monkeypatch, capsys, argv, message):
    _forbid_training(monkeypatch)
    assert run_cli("verify", "--engines", "sharded", "--seq-len", "16", *argv) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_cli_train_rejects_a_negative_seed_without_creating_the_output(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("train", "--seed", "-1", "--out", str(out)) == 1
    assert "error: seed must be non-negative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_train_rejects_a_dropout_rate_the_keep_mask_cannot_express(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("train", "--dropout", "0.99999", "--steps", "1", "--out", str(out)) == 1
    assert "error: dropout rate must be in [0, 1 - 2**-16" in capsys.readouterr().err
    assert not out.exists()


def test_cli_train_rejects_a_too_small_synthetic_corpus_without_creating_the_output(
        tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("train", "--synthetic-bytes", "0", "--steps", "1", "--out", str(out)) == 1
    assert "error: synthetic_bytes 0 is too small for one batch" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("corpus, message", [
    (None, "No such file or directory"),
    (b"abc", "corpus has 3 bytes, need at least 516"),
], ids=["missing", "too-short"])
def test_cli_train_rejects_a_bad_dataset_without_creating_the_output(tmp_path, capsys, corpus,
                                                                     message):
    dataset = tmp_path / "corpus.bin"
    if corpus is not None:
        dataset.write_bytes(corpus)
    out = tmp_path / "run"
    assert run_cli("train", "--dataset", str(dataset), "--steps", "1", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert message in err and str(dataset) in err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ('{"model": {"causal": "no"}}', "model-config key 'causal' must be true or false"),
    ('{"workers": 2.0}', "run-config key 'workers' must be an integer, got 2.0"),
    ('{"model": 5}', "run-config key 'model' must be an object, got 5"),
    ('[1, 2]', "a run-config must be an object, got list"),
    ('{"workers": 2,}', "Expecting property name enclosed in double quotes"),
    ('\xff{}', "'ascii' codec can't decode byte 0xff in position 0"),
])
def test_cli_config_rejects_values_of_the_wrong_type(tmp_path, capsys, text, message):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(text, encoding="latin-1")  # one byte per character
    out = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg_path), "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert f"error: {cfg_path}: " in captured.err and captured.out == ""
    assert message in captured.err
    assert not out.exists()


def test_cli_train_defaults_are_the_run_config_defaults():
    args = cli.build_parser().parse_args(["train"])
    rc = RunConfig()
    assert args.engine == rc.engine
    assert (args.workers, args.replicas, args.steps) == (rc.workers, rc.replicas, rc.steps)
    assert (args.lr, args.optimizer, args.seed) == (rc.lr, rc.optimizer, rc.seed)
    assert (args.dataset, args.synthetic_bytes) == (rc.dataset, rc.synthetic_bytes)
    assert args.out == rc.out_dir
    assert args.no_fuse == (not rc.fused)
    assert args.check == rc.equivalence_check
    assert cli._model_from(args) == rc.model


def test_cli_config_rejects_unknown_model_keys(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"model": {"foo": 1}}))
    assert run_cli("train", "--config", str(cfg_path)) == 1
    assert f"error: {cfg_path}: unknown model-config keys: ['foo']" in capsys.readouterr().err


def test_cli_cost_and_weak_scaling(capsys):
    assert run_cli("cost", "--workers", "1,2", "--seq-len", "16") == 0
    out = capsys.readouterr().out
    assert "collectives per step" in out
    assert run_cli("cost", "--weak-scaling") == 0
    table = capsys.readouterr().out
    for ratio in ("1", "6", "18", "54", "144"):
        assert f" {ratio}\n" in table or f" {ratio} " in table
    # flags set to their defaults are not set at all
    assert run_cli("cost", "--weak-scaling", "--engine", "sharded", "--workers", "1") == 0
    assert capsys.readouterr().out == table


@pytest.mark.parametrize("flags,named", [
    (("--engine", "baseline", "--workers", "5"), "--engine, --workers"),
    (("--workers", "2"), "--workers"),
    (("--no-fuse",), "--no-fuse"),
])
def test_cli_cost_weak_scaling_refuses_the_flags_it_does_not_read(capsys, flags, named):
    assert run_cli("cost", "--weak-scaling", *flags) == 1
    captured = capsys.readouterr()
    assert f"error: --weak-scaling takes no {named}\n" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("workers", ["", ","])
def test_cli_cost_rejects_an_empty_worker_list(capsys, workers):
    assert run_cli("cost", "--workers", workers) == 1
    captured = capsys.readouterr()
    assert "error: no workers given" in captured.err
    assert captured.out == ""


def test_cli_cost_of_zero_layers_has_no_scores_and_no_weak_scaling(capsys):
    assert run_cli("cost", "--layers", "0", "--workers", "2") == 0
    assert "score elements (peak)   0  (busiest; by rank [0, 0])\n" in capsys.readouterr().out
    assert run_cli("cost", "--weak-scaling", "--layers", "0") == 1
    captured = capsys.readouterr()
    assert "error: weak scaling needs at least one layer, got 0 layers" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("engine", ["sharded", "hybrid"])
def test_cli_cost_prints_each_sequence_ranks_score_flops(capsys, engine):
    argv = ("cost", "--engine", engine, "--seq-len", "512", "--batch", "1", "--workers", "2")
    assert run_cli(*argv) == 0
    assert ("score flops (fwd)       37748736  (busiest; by rank [37748736, 37748736])\n"
            in capsys.readouterr().out)
    assert run_cli(*argv, "--no-fuse") == 0
    assert ("score flops (fwd)       37748736  (busiest; by rank [37748736, 37748736])\n"
            in capsys.readouterr().out)


def test_cli_cost_prints_cached_score_bytes(capsys):
    assert run_cli("cost", "--workers", "2", "--seq-len", "16", "--dropout", "0.1",
                   "--precision", "single") == 0
    m = runner.default_model()
    # each rank keeps 4*4 + 4*16 = 80 scores of its 8 rows per (sample, head) block
    want = m.n_layers * m.batch * m.n_heads * (80 * (4 + 1) + 8 * 4)
    assert (f"score cache bytes       {want}  (busiest; by rank [{want}, {want}])\n"
            in capsys.readouterr().out)


@pytest.mark.parametrize("engine", ["sharded", "hybrid"])
def test_cli_cost_prints_each_sequence_ranks_score_elements_at_an_odd_block(capsys, engine):
    """T30 on 2 workers: rank 0's chunks 0..7 and 22..30 keep 7*7 + 8*30 =
    289 scores per (sample, head) block, rank 1's 7..14 and 14..22 7*14 +
    8*22 = 274; the default model has 4 x 8 blocks, 15 rows and 2 layers."""
    assert run_cli("cost", "--engine", engine, "--seq-len", "30", "--workers", "2") == 0
    out = capsys.readouterr().out
    elements = [32 * 289, 32 * 274]
    cache = [2 * (e * 8 + 32 * 15 * 8) for e in elements]
    assert f"score elements (peak)   {elements[0]}  (busiest; by rank {elements})\n" in out
    assert f"score cache bytes       {cache[0]}  (busiest; by rank {cache})\n" in out


@pytest.mark.parametrize("kw", [
    dict(engine="sequential"),
    dict(engine="sharded", workers=2, equivalence_check=True),
    dict(engine="sharded", workers=2, fused=False),
    dict(engine="baseline", workers=2, equivalence_check=True),
    dict(engine="hybrid", workers=2, replicas=2, equivalence_check=True),
], ids=["sequential", "sharded", "sharded-no-fuse", "baseline", "hybrid-2x2"])
def test_cli_report_finds_every_figure_equal_to_its_estimate(tmp_path, capsys, kw):
    result = runner.run_experiment(small_run(tmp_path, **kw))
    capsys.readouterr()
    assert run_cli("report", result.out_dir) == 0
    out = capsys.readouterr().out
    assert "check             every figure matches its estimate\n" in out
    records = result.summary["ledger_records"]
    assert (f"ledger: {records} records over steps 0..1\n" if records
            else "ledger: no records\n") in out
    assert out.endswith("loss curve:\n"
                        f"  step     0  loss {result.reports[0].loss:.6f}\n"
                        f"  step     1  loss {result.reports[1].loss:.6f}\n")


@pytest.mark.parametrize("key,edit,problem", [
    ("estimated_score_flops", lambda v: v + 1,
     "measured_score_flops 10240 differs from estimated_score_flops 10241"),
    ("estimated_comm_elements_per_step", lambda v: v * 2,
     "measured_comm_elements_per_step 11729 differs from estimated_comm_elements_per_step 23458"),
    ("equivalence_pass", lambda v: False, "equivalence_pass is false"),
], ids=["score-flops", "comm-elements", "equivalence"])
def test_cli_report_names_the_figure_that_differs(tmp_path, capsys, key, edit, problem):
    rc = small_run(tmp_path, engine="sharded", workers=2, equivalence_check=True)
    runner.run_experiment(rc)
    path = os.path.join(rc.out_dir, "summary.json")
    with open(path) as f:
        written = json.load(f)
    written["summary"][key] = edit(written["summary"][key])
    with open(path, "w") as f:
        json.dump(written, f)
    capsys.readouterr()
    assert run_cli("report", rc.out_dir) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {problem}\n"
    assert f"check             {problem}\n" in captured.out
    assert reporting.report(rc.out_dir)[1] == [problem]


def test_cli_report_summarizes_the_whole_ledger(tmp_path, capsys):
    result = runner.run_experiment(small_run(tmp_path, engine="sharded", workers=2))
    capsys.readouterr()
    assert run_cli("report", result.out_dir) == 0
    out = capsys.readouterr().out
    assert ("ledger: 6 records over steps 0..1\n"
            "  all-gather       2\n"
            "  all-reduce       2\n"
            "  reduce-scatter   2\n"
            "records per step: 3\n"
            "layer-tagged: 4 (2 per step)\n") in out
    assert "comm elements     measured 11729 estimated 11729\n" in out


@pytest.mark.parametrize("written,read,problem", [
    ("steps.jsonl", "ledger.jsonl", "not a ledger record: unexpected fields ['engine'"),
    ("ledger.jsonl", "steps.jsonl", "not a step report: unexpected fields ['group'"),
])
def test_cli_report_of_a_swapped_file_names_the_path_and_line(tmp_path, capsys, written, read,
                                                               problem):
    result = runner.run_experiment(small_run(tmp_path, engine="sharded", workers=2))
    capsys.readouterr()
    path = os.path.join(result.out_dir, read)
    with open(os.path.join(result.out_dir, written)) as f:
        text = f.read()
    with open(path, "w") as f:
        f.write(text)
    assert run_cli("report", result.out_dir) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line 1: {problem}")
    missing = ("['group', 'kind', 'phase', 'layer', 'elements']" if read == "ledger.jsonl" else
               "['engine', 'loss', 'grad_norm', 'matmul_flops', 'attn_score_flops', "
               "'score_elements_peak', 'collectives']")
    assert f"missing fields {missing}" in err


@pytest.mark.parametrize("name,field,value,problem", [
    ("ledger.jsonl", "elements", '"512"', "ledger record key 'elements' must be an integer, "
                                          "got '512'"),
    ("ledger.jsonl", "step", "null", "ledger record key 'step' must be an integer, got None"),
    ("steps.jsonl", "loss", '"x"', "step report key 'loss' must be a number, got 'x'"),
])
def test_cli_report_of_a_mistyped_value_names_the_path_line_and_field(tmp_path, capsys, name,
                                                                      field, value, problem):
    result = runner.run_experiment(small_run(tmp_path, engine="sharded", workers=2))
    capsys.readouterr()
    path = os.path.join(result.out_dir, name)
    with open(path) as f:
        lines = f.read().splitlines(keepends=True)
    record = json.loads(lines[1])
    lines[1] = json.dumps({**record, field: json.loads(value)}) + "\n"
    with open(path, "w") as f:
        f.write("".join(lines))
    assert run_cli("report", result.out_dir) == 1
    assert capsys.readouterr().err == f"error: {path}: line 2: {problem}\n"


def test_readme_cli_lines_parse():
    """Every ``seqpar`` line of the README's CLI block parses, so a removed
    or renamed subcommand or flag cannot linger in the docs."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("seqpar ")]
    assert lines
    for line in lines:
        cli.build_parser().parse_args(shlex.split(line)[1:])


def test_cli_errors_exit_nonzero(tmp_path, capsys):
    assert run_cli("train", "--engine", "sharded", "--workers", "5",
                   "--seq-len", "16", "--steps", "1") == 1
    assert "error:" in capsys.readouterr().err
    missing = str(tmp_path / "missing")
    assert run_cli("report", missing) == 1
    assert capsys.readouterr().err == f"error: {missing} is not a run directory\n"
