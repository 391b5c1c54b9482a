import numpy as np
import pytest

from seqpar import data


def test_batch_windows_and_shifted_targets():
    corpus = np.arange(256, dtype=np.uint8)
    tokens, targets = data.batch_at(corpus, seq_len=4, batch=2, step=0)
    assert tokens.dtype == np.int64 and targets.dtype == np.int64
    np.testing.assert_array_equal(tokens, [[0, 1, 2, 3], [4, 5, 6, 7]])
    np.testing.assert_array_equal(targets, [[1, 2, 3, 4], [5, 6, 7, 8]])


def test_batches_stride_through_the_file():
    corpus = np.arange(256, dtype=np.uint8)
    tokens, _ = data.batch_at(corpus, seq_len=4, batch=2, step=1)
    np.testing.assert_array_equal(tokens, [[8, 9, 10, 11], [12, 13, 14, 15]])
    tokens2, _ = data.batch_at(corpus, seq_len=4, batch=2, step=3)
    np.testing.assert_array_equal(tokens2[0], [24, 25, 26, 27])


def test_windows_wrap_at_file_end():
    corpus = np.arange(16, dtype=np.uint8)
    # span = 16 - 4 = 12, so step 3 with batch 1 wraps to offset 0
    tokens, targets = data.batch_at(corpus, seq_len=4, batch=1, step=3)
    np.testing.assert_array_equal(tokens, [[0, 1, 2, 3]])
    np.testing.assert_array_equal(targets, [[1, 2, 3, 4]])
    # the last in-range offset still has room for the shifted target
    tokens, targets = data.batch_at(corpus, seq_len=4, batch=1, step=2)
    np.testing.assert_array_equal(tokens, [[8, 9, 10, 11]])
    np.testing.assert_array_equal(targets, [[9, 10, 11, 12]])


def test_batch_is_deterministic():
    corpus = np.random.default_rng(0).integers(0, 256, size=1000).astype(np.uint8)
    a = data.batch_at(corpus, 16, 3, 5)
    b = data.batch_at(corpus, 16, 3, 5)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_tokens_stay_in_byte_vocab():
    corpus = np.full(100, 255, dtype=np.uint8)
    tokens, targets = data.batch_at(corpus, 8, 2, 0)
    assert tokens.min() >= 0 and tokens.max() < 256
    assert targets.min() >= 0 and targets.max() < 256


def test_too_small_corpus_rejected():
    with pytest.raises(ValueError, match="need at least"):
        data.batch_at(np.zeros(9, dtype=np.uint8), seq_len=4, batch=2, step=0)
    with pytest.raises(ValueError, match="flat"):
        data.batch_at(np.zeros((4, 4), dtype=np.uint8), seq_len=2, batch=1, step=0)


def test_read_bytes_round_trip(tmp_path):
    blob = bytes(range(256)) * 3
    path = tmp_path / "corpus.bin"
    path.write_bytes(blob)
    arr = data.read_bytes(path)
    assert arr.dtype == np.uint8
    assert arr.tobytes() == blob


def test_synthetic_corpus_is_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    data.write_synthetic_corpus(a, n_bytes=3000, seed=5)
    data.write_synthetic_corpus(b, n_bytes=3000, seed=5)
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.txt"
    data.write_synthetic_corpus(c, n_bytes=3000, seed=6)
    assert a.read_bytes() != c.read_bytes()


def test_synthetic_corpus_shape_and_texture(tmp_path):
    path = tmp_path / "text.txt"
    data.write_synthetic_corpus(path, n_bytes=5000, seed=0)
    raw = path.read_bytes()
    assert len(raw) == 5000
    assert max(raw) < 128  # pure ASCII
    text = raw.decode("ascii")
    assert " " in text and "\n" in text and "." in text
    # a skewed 64-word vocabulary repeats heavily (the final word may be
    # truncated by the byte budget, hence the one-word allowance)
    words = [w.strip(".,\n") for w in text.split()]
    assert len(set(words)) <= 65
    top = max(set(words), key=words.count)
    assert words.count(top) > len(words) / 64
