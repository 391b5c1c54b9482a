"""The benchmark's workloads and the corpus it feeds them.

Each workload is one ``RunConfig`` without its dataset, output directory and
seed, plus the number of training steps one ``run_experiment`` call takes.
The steps are chosen so one call lasts about a second on a 2-core x86 box,
so a 30-second run holds 20 to 30 calls and its medians rest on that many
samples.  deep-baseline is the exception: its calls take 100 steps (about
5 s, so six calls a run), because the runner's post-loop ledger scan (each step's report scans
the whole ledger) should be a visible share of its setup time, and because
its step time is noisy over short calls.  ``BENCHMARK.json`` says in one line
why each workload is there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from seqpar import ModelConfig, RunConfig

CORPUS_BYTES = 1 << 16


@dataclass(frozen=True)
class Workload:
    model: dict
    engine: str
    steps: int
    optimizer: str = "sgd"
    lr: float = 0.1
    workers: int = 1
    replicas: int = 1

    def run_config(self, *, dataset: str, out_dir: str, seed: int) -> RunConfig:
        """The program's input for this workload."""
        return RunConfig(
            model=ModelConfig(vocab=256, **self.model), engine=self.engine,
            workers=self.workers, replicas=self.replicas, steps=self.steps,
            lr=self.lr, optimizer=self.optimizer, seed=seed, dataset=dataset,
            out_dir=out_dir,
        )

    @property
    def tokens_per_step(self) -> int:
        return self.replicas * self.model["batch"] * self.model["seq_len"]

    def to_dict(self) -> dict:
        return {"model": self.model, "engine": self.engine, "workers": self.workers,
                "replicas": self.replicas, "optimizer": self.optimizer, "lr": self.lr,
                "steps_per_call": self.steps}


DEFAULT_MODEL = dict(embed_dim=64, n_layers=2, n_heads=8, ff_dim=256, seq_len=128, batch=4)
DEEP_MODEL = dict(embed_dim=32, n_layers=8, n_heads=4, ff_dim=64, seq_len=64, batch=2)

# Multi-worker workloads train with SGD on purpose: sharded training with
# Adam drifts from the sequential oracle (1.5e-11 after one step, 0.04 after
# 40 steps at T512) because Adam's normalisation amplifies rounding in
# near-zero gradients, so no fixed tolerance would hold.
#
# There is no hybrid workload: a hybrid grid's sequence groups append to the
# shared ledger in the order their threads arrive, so ledger.jsonl is not
# byte-identical between runs of one seed and every repeat call fails the
# gate.  Once the program writes its ledger in a fixed order, restore
#     "deep-hybrid": Workload(model=DEEP_MODEL, engine="hybrid", workers=2,
#                             replicas=2, steps=4),
# here and in BENCHMARK.json; run.py already builds its R x B oracle.
WORKLOADS = {
    "dense-seq": Workload(
        model=DEFAULT_MODEL, engine="sequential", optimizer="adam", lr=3e-3, steps=8,
    ),
    "longctx-sharded": Workload(
        model={**DEFAULT_MODEL, "seq_len": 512, "batch": 1, "dropout": 0.1},
        engine="sharded", workers=2, steps=3,
    ),
    "deep-baseline": Workload(model=DEEP_MODEL, engine="baseline", workers=2, steps=100),
}


def write_corpus(path: str, seed: int) -> None:
    """Word-like ASCII text drawn from ``seed``: a 400-word vocabulary with
    Zipf-like frequencies, separated by spaces, commas and line breaks."""
    rng = np.random.default_rng([seed, 0x5EC9A])
    letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)
    words = [rng.choice(letters, size=int(n)).tobytes() for n in rng.integers(1, 10, size=400)]
    weights = 1.0 / np.arange(1, len(words) + 1) ** 1.1
    n_words = CORPUS_BYTES // 4
    picks = rng.choice(len(words), size=n_words, p=weights / weights.sum())
    seps = rng.choice(3, size=n_words, p=[0.86, 0.06, 0.08])
    sep_bytes = (b" ", b", ", b".\n")
    text = b"".join(words[w] + sep_bytes[s] for w, s in zip(picks, seps))
    if len(text) < CORPUS_BYTES:
        raise ValueError("corpus came out short; raise the word count")
    with open(path, "wb") as f:
        f.write(text[:CORPUS_BYTES])
