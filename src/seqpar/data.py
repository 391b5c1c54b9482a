"""Byte-level corpus handling.

Training data is any file on disk, read as raw bytes (vocabulary 256).  A
batch row at step ``s`` is the window of ``seq_len`` bytes starting at

    (s * seq_len * batch + row * seq_len) mod (file_size - seq_len)

with targets shifted one byte ahead, so successive steps stream through the
file and wrap deterministically.  There is also a synthetic corpus writer
for self-contained runs: word-like ASCII text with a skewed vocabulary, easy
enough for a small model to compress well below the uniform-byte entropy.
"""

from __future__ import annotations

import os

import numpy as np


def read_bytes(path: str | os.PathLike) -> np.ndarray:
    """Whole file as a uint8 array."""
    with open(path, "rb") as f:
        return np.frombuffer(f.read(), dtype=np.uint8)


def batch_at(
    data: np.ndarray, seq_len: int, batch: int, step: int
) -> tuple[np.ndarray, np.ndarray]:
    """(tokens, targets) int64 arrays of shape (batch, seq_len) for a step."""
    if data.ndim != 1:
        raise ValueError("corpus must be a flat byte array")
    if data.size < batch * (seq_len + 1):
        raise ValueError(
            f"corpus has {data.size} bytes, need at least {batch * (seq_len + 1)} "
            f"for batch={batch}, seq_len={seq_len}"
        )
    span = data.size - seq_len
    base = step * seq_len * batch
    tokens = np.empty((batch, seq_len), dtype=np.int64)
    targets = np.empty((batch, seq_len), dtype=np.int64)
    for row in range(batch):
        off = (base + row * seq_len) % span
        tokens[row] = data[off : off + seq_len]
        targets[row] = data[off + 1 : off + seq_len + 1]
    return tokens, targets


def write_synthetic_corpus(
    path: str | os.PathLike, n_bytes: int = 1_000_000, seed: int = 0
) -> str:
    """Write ~``n_bytes`` of deterministic word-like ASCII text to ``path``.

    A fixed 64-word vocabulary is drawn once from the seed, then sampled with
    a heavy head (probability proportional to 1/rank) into space-separated
    runs with occasional punctuation and newlines.  Repetition this strong
    makes next-byte prediction learnable within a few hundred steps.
    """
    rng = np.random.default_rng(seed)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    words = []
    while len(words) < 64:
        length = int(rng.integers(2, 9))
        w = "".join(rng.choice(letters, size=length))
        if w not in words:
            words.append(w)
    ranks = np.arange(1, len(words) + 1, dtype=np.float64)
    probs = (1.0 / ranks) / np.sum(1.0 / ranks)

    chunks: list[str] = []
    size = 0
    sentence_len = 0
    while size < n_bytes:
        w = words[int(rng.choice(len(words), p=probs))]
        sentence_len += 1
        if sentence_len >= int(rng.integers(6, 14)):
            piece = w + ".\n"
            sentence_len = 0
        elif rng.random() < 0.08:
            piece = w + ", "
        else:
            piece = w + " "
        chunks.append(piece)
        size += len(piece)
    text = "".join(chunks)[:n_bytes]
    with open(path, "w", encoding="ascii") as f:
        f.write(text)
    return os.fspath(path)
