"""Per-step run reports and their JSONL serialization.

One :class:`StepReport` per training step captures the loss, a gradient
norm, the measured compute counters and the step's collective traffic.
Serialization writes the keys in field order so that re-serializing a parsed
line reproduces it byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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
        return cls(**json.loads(line))


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
    out = []
    with open(path, "r", encoding="ascii") as f:
        for line in f:
            line = line.strip()
            if line:
                out.append(StepReport.from_json_line(line))
    return out
