"""Per-step run reports, their JSONL serialization, and :func:`report`,
the one reader of a whole run directory.

One :class:`StepReport` per training step captures the loss, a gradient
norm, the measured compute counters and the step's collective traffic.
Serialization writes the keys in field order so that re-serializing a parsed
line reproduces it byte for byte.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field

from .collectives import CommRecord, json_record, jsonl_records
from .tensor import StepCounters


@dataclass
class StepReport:
    step: int
    engine: str
    loss: float
    grad_norm: float
    matmul_flops: int
    attn_score_flops: int
    score_elements_peak: int
    collectives: dict[str, int] = field(default_factory=dict)

    def to_json_line(self) -> str:
        """One JSON object, keys in field order, collectives sorted by kind."""
        values = {**vars(self), "collectives": dict(sorted(self.collectives.items()))}
        return json.dumps(values, separators=(", ", ": "))

    @classmethod
    def from_json_line(cls, line: str) -> "StepReport":
        """One :meth:`to_json_line` line (see :func:`~seqpar.collectives.json_record`)."""
        return json_record(cls, line, "step report")


def from_counters(
    step: int,
    engine: str,
    loss: float,
    grad_norm: float,
    counters: StepCounters,
    collectives: dict[str, int] | None = None,
) -> StepReport:
    return StepReport(
        step=step,
        engine=engine,
        loss=float(loss),
        grad_norm=float(grad_norm),
        matmul_flops=counters.matmul_flops,
        attn_score_flops=counters.attn_score_flops,
        score_elements_peak=counters.attn_score_elements_peak,
        collectives=dict(collectives or {}),
    )


def write_jsonl(path, reports: list[StepReport]) -> None:
    with open(path, "w", encoding="ascii") as f:
        for r in reports:
            f.write(r.to_json_line() + "\n")


def read_jsonl(path) -> list[StepReport]:
    """The reports of a :func:`write_jsonl` file; a line that is no report
    raises ValueError naming the path and the line."""
    return read_text(path, lambda text: jsonl_records(StepReport, text, "step report"))


def read_text(path, parse):
    """``parse`` of the ASCII text of the file at ``path``; a ValueError it
    raises, or a byte that is not ASCII, names the path."""
    try:
        with open(path, "r", encoding="ascii") as f:
            return parse(f.read())
    except ValueError as exc:  # a decode error is one too
        raise ValueError(f"{path}: {exc}") from None


SUMMARY_LINES = """\
engine            {engine}
grid              {replicas} x {workers} workers
steps             {steps}
optimizer         {optimizer} (lr {lr})
parameters        {param_count}
initial loss      {initial_loss:.6f}
final loss        {final_loss:.6f}
smoothed loss     {smoothed_final_loss:.6f}
elapsed           {elapsed_seconds} s
ledger records    {ledger_records}
collectives/step  {collectives_step0} (estimated total {estimated_collectives_per_step})
comm elements     measured {measured_comm_elements_per_step} \
estimated {estimated_comm_elements_per_step}
score flops       measured {measured_score_flops} estimated {estimated_score_flops} \
delta {score_flops_delta} by rank {measured_score_flops_by_rank}
score elements    measured {measured_score_elements_peak} \
estimated {estimated_score_elements_peak}
score cache bytes measured {measured_score_cache_bytes} estimated {estimated_score_cache_bytes}
"""


def report(run_dir) -> tuple[str, list[str]]:
    """The text of the run in ``run_dir`` (its summary figures, the ledger's
    counts over the whole run and a coarse loss curve) and the figures that
    disagree, from ``summary.json``, ``steps.jsonl`` and ``ledger.jsonl``
    alone.  Every ``estimated_X`` of the summary is compared with its
    ``measured_X``: the summary's own, or for ``collectives_per_step`` and
    ``comm_elements_per_step`` the count and payload elements of the
    ledger's step-0 records.  A failed oracle check disagrees too."""
    if not os.path.isdir(run_dir):
        raise FileNotFoundError(f"{run_dir} is not a run directory")
    path = os.path.join(run_dir, "summary.json")
    written = read_text(path, json.loads)
    if not isinstance(written, dict) or not isinstance(written.get("summary"), dict):
        raise ValueError(f"{path}: no \"summary\" object")
    summary = written["summary"]
    reports = read_jsonl(os.path.join(run_dir, "steps.jsonl"))
    records = read_text(os.path.join(run_dir, "ledger.jsonl"),
                        lambda text: jsonl_records(CommRecord, text, "ledger record"))
    step0 = [r for r in records if r.step == 0]
    figures = {**summary, "measured_collectives_per_step": len(step0),
               "measured_comm_elements_per_step": sum(r.elements for r in step0)}
    problems = []
    for key, value in summary.items():
        measured = "measured_" + key.removeprefix("estimated_")
        if key.startswith("estimated_") and figures.get(measured) != value:
            problems.append(f"{measured} {figures.get(measured)} differs from {key} {value}")
    if summary.get("equivalence_pass") is False:
        problems.append("equivalence_pass is false")
    try:
        text = SUMMARY_LINES.format_map(figures)
        if "max_param_delta" in summary:
            text += (f"equivalence       max |delta param| {summary['max_param_delta']:.3e}"
                     f" ({'pass' if summary['equivalence_pass'] else 'FAIL'}"
                     f" below {summary['equivalence_tolerance']:.3e})\n")
    except KeyError as exc:
        raise ValueError(f"{path}: no summary figure {exc}") from None
    text += f"check             {'; '.join(problems) or 'every figure matches its estimate'}\n"
    return "\n".join([text, *_ledger_lines(records), "", *_loss_curve(reports)]) + "\n", problems


def _ledger_lines(records: list[CommRecord]) -> list[str]:
    if not records:
        return ["ledger: no records"]
    per_step = Counter(r.step for r in records)
    sizes = sorted(set(per_step.values()))
    tagged = sum(r.layer is not None for r in records)
    return [
        f"ledger: {len(records)} records over steps {min(per_step)}..{max(per_step)}",
        *(f"  {kind:<16} {n}" for kind, n in sorted(Counter(r.kind for r in records).items())),
        f"records per step: {sizes[0]}" + (f"..{sizes[-1]}" if len(sizes) > 1 else ""),
        f"layer-tagged: {tagged} ({tagged // len(per_step)} per step)",
        *(f"  phase {phase:<10} {n}"
          for phase, n in sorted(Counter(r.phase for r in records).items())),
    ]


def _loss_curve(reports: list[StepReport]) -> list[str]:
    stride = max(1, len(reports) // 20)
    shown = reports[::stride] + (reports[-1:] if (len(reports) - 1) % stride else [])
    return ["loss curve:", *(f"  step {r.step:5d}  loss {r.loss:.6f}" for r in shown)]
