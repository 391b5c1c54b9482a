"""Tests of the benchmark's own arithmetic and gate."""

import json
import re
import statistics

import numpy as np
import pytest

import run
from spans import Span, Tracer, collective_waits, self_time_residual, self_times, step_times
from stats import percentile, quartile_spread, summarize
from workloads import WORKLOADS, Workload, write_corpus

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def span(id, name, start, end, parent=None, thread="w0", step=0, attrs=None):
    return Span(id, name, start, end, parent, thread, step, attrs)


def test_self_time_on_hand_built_tree():
    spans = [
        span(1, "engine.worker", 0.0, 10.0),
        span(2, "a", 1.0, 4.0, parent=1),
        span(3, "b", 5.0, 9.0, parent=1),
        span(4, "c", 6.0, 7.0, parent=3),
        # Another thread's span caused by the root covers none of its time.
        span(5, "x", 2.0, 8.0, parent=1, thread="w1"),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({1: 3.0, 2: 3.0, 3: 3.0, 4: 1.0, 5: 6.0})
    assert self_time_residual(spans[:4], selfs) == pytest.approx(0.0, abs=1e-12)


def test_self_time_counts_overlapping_children_once():
    spans = [span(1, "p", 0.0, 10.0), span(2, "a", 1.0, 5.0, parent=1),
             span(3, "b", 3.0, 12.0, parent=1)]
    # Children cover [1, 10] of the parent once, clipped at its end.
    assert self_times(spans)[1] == pytest.approx(1.0)


def test_wait_and_combine_on_two_rank_rendezvous():
    g = {"group": "seq0", "size": 2, "phase": "forward"}
    spans = [
        span(1, "collectives.all_gather", 1.0, 3.5, thread="w0", attrs=g),
        span(2, "collectives.all_gather", 3.0, 3.6, thread="w1", attrs=g),
        # Second collective on the group: rank 1 arrives first this time.
        span(3, "collectives.reduce_scatter", 5.0, 5.2, thread="w0", attrs=g),
        span(4, "collectives.reduce_scatter", 4.0, 5.3, thread="w1", attrs=g),
    ]
    rows = {(r["index"], r["thread"]): r for r in collective_waits(spans)}
    assert rows[(0, "w0")]["wait"] == pytest.approx(2.0)
    assert rows[(0, "w1")]["wait"] == pytest.approx(0.0)
    assert rows[(0, "w0")]["combine"] == pytest.approx(0.5)
    assert rows[(0, "w1")]["combine"] == pytest.approx(0.6)
    assert rows[(1, "w1")]["wait"] == pytest.approx(1.0)
    assert rows[(1, "w0")]["combine"] == pytest.approx(0.2)


def test_rendezvous_missing_a_member_is_an_error():
    g = {"group": "seq0", "size": 2, "phase": "forward"}
    with pytest.raises(ValueError):
        collective_waits([span(1, "collectives.all_gather", 1.0, 2.0, attrs=g)])


def test_step_times_take_the_slowest_thread():
    spans = [span(1, "s", 0.0, 1.0, thread="w0", step=0), span(2, "s", 0.5, 2.5, thread="w1", step=0),
             span(3, "s", 3.0, 3.5, thread="w0", step=1), span(4, "loop", 0.0, 4.0, step=-1)]
    assert step_times(spans) == pytest.approx([2.0, 0.5])


def test_median_and_tail_percentile_with_sample_count():
    values = list(range(1, 101))
    s = summarize(values)
    assert s["n"] == 100 and s["median"] == 50.5
    # 99.9, 99 and 95 leave fewer than ten samples beyond them; 90 leaves ten.
    assert s["tail_p"] == 90.0
    assert s["tail"] == pytest.approx(percentile(values, 90.0)) == pytest.approx(90.1)
    assert summarize(range(40))["tail_p"] == 75.0
    few = summarize([3.0, 1.0, 2.0])
    assert few == {"n": 3, "median": 2.0}


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


def test_metric_names_units_and_workloads_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert all(NAME.match(n) for n in run.PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(UNIT.match(u) for u in {**run.END_TO_END, **run.PER_LAYER}.values())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_corpus_is_a_function_of_the_seed(tmp_path):
    paths = [tmp_path / n for n in ("a", "b", "c")]
    for p, seed in zip(paths, (7, 7, 8)):
        write_corpus(str(p), seed)
    assert paths[0].read_bytes() == paths[1].read_bytes() != paths[2].read_bytes()


TINY = Workload(model=dict(embed_dim=16, n_layers=2, n_heads=2, ff_dim=32, seq_len=24, batch=2),
                engine="sharded", workers=2, steps=2)


@pytest.fixture
def tiny_rc(tmp_path):
    corpus = str(tmp_path / "corpus.txt")
    write_corpus(corpus, 3)
    return TINY.run_config(dataset=corpus, out_dir=str(tmp_path / "run"), seed=3)


def test_injected_wrong_parameter_counts_as_a_failure(tiny_rc):
    gate = run.Gate(run.oracle_params(TINY, tiny_rc))
    first = run.run_call(tiny_rc, full_trace=False)
    second = run.run_call(tiny_rc, full_trace=False)
    assert gate.judge(first) is None and gate.judge(second) is None
    wrong = run.run_call(tiny_rc, full_trace=False)
    wrong.params.head.bias[0] += 1e-6
    assert "oracle" in gate.judge(wrong)
    nan = run.run_call(tiny_rc, full_trace=False)
    nan.params.head.bias[0] = np.nan
    assert gate.judge(nan) is not None
    # A call whose params were dropped as duplicates is judged by its digest.
    dropped = run.run_call(tiny_rc, full_trace=False)
    dropped.params = None
    assert gate.judge(dropped) is None
    changed = run.run_call(tiny_rc, full_trace=False)
    changed.artifacts["ledger.jsonl"] = "different"
    assert "ledger.jsonl not byte-identical" in gate.judge(changed)
    raised = run.Call(wall_s=0.1, error="RuntimeError: boom")
    assert gate.judge(raised) == "RuntimeError: boom"


def test_tracing_leaves_results_bitwise_unchanged(tiny_rc):
    plain = run.run_call(tiny_rc, full_trace=False)
    traced = run.run_call(tiny_rc, full_trace=True)
    assert traced.artifacts == plain.artifacts
    spans = traced.tracer.spans
    assert {"tensor.matmul", "sharded.forward", "collectives.all_gather"} <= {s.name for s in spans}
    assert self_time_residual(spans, self_times(spans)) < 1e-9
    # Every wrapper was removed again.
    assert not hasattr(run.seqpar.tensor.matmul, "__wrapped__")
    assert len(plain.tracer.loop_spans()) == 1 and not Tracer(full=False).spans


def test_a_call_without_exactly_one_loop_span_fails_the_run(tiny_rc, monkeypatch):
    monkeypatch.setattr(run.Tracer, "loop_spans", lambda self: [])
    with pytest.raises(RuntimeError, match="training-loop span"):
        run.run_call(tiny_rc, full_trace=False)
