import sys
import threading

import pytest

from seqpar import baseline, model, runner, sharded, tensor
from seqpar.errors import NumericsError

from conftest import rand_batch

pytestmark = pytest.mark.skipif(
    tensor.blas_thread_count() is None, reason="no OpenBLAS thread control found"
)


def recording(step, seen):
    """``step`` that first notes the BLAS thread count its rank computes with."""
    def wrapped(worker, *args, **kw):
        seen.append(tensor.blas_thread_count())
        return step(worker, *args, **kw)
    return wrapped


def counts_inside(monkeypatch, module, name, run):
    seen = []
    monkeypatch.setattr(module, name, recording(getattr(module, name), seen))
    run()
    return seen


@pytest.fixture
def setup(tiny_cfg, rng):
    return tiny_cfg, model.init_params(tiny_cfg, 0), [rand_batch(tiny_cfg, rng) for _ in range(2)]


def test_sharded_ranks_share_the_cpus(monkeypatch, setup):
    cfg, params, batches = setup
    before = tensor.blas_thread_count()
    seen = counts_inside(monkeypatch, sharded, "train_step",
                         lambda: sharded.run_steps(cfg, params, 2, batches, lr=0.1))
    assert seen == [max(1, min(before, tensor.usable_cpus() // 2))] * 4
    assert tensor.blas_thread_count() == before


@pytest.mark.parametrize("engine", ["sequential", "sharded-1", "baseline"])
def test_ranks_that_do_not_split_keep_the_default(monkeypatch, setup, engine):
    cfg, params, batches = setup
    before = tensor.blas_thread_count()
    module, name, run = {
        "sequential": (runner, "_sequential_step",
                       lambda: runner._sequential_steps(cfg, params, batches, lr=0.1)),
        "sharded-1": (sharded, "train_step",
                      lambda: sharded.run_steps(cfg, params, 1, batches, lr=0.1)),
        "baseline": (baseline, "train_step",
                     lambda: baseline.run_steps(cfg, params, 2, batches, lr=0.1)),
    }[engine]
    seen = counts_inside(monkeypatch, module, name, run)
    assert seen and set(seen) == {before}
    assert tensor.blas_thread_count() == before


def test_count_restored_when_a_worker_raises(monkeypatch, setup):
    cfg, params, batches = setup
    before = tensor.blas_thread_count()
    step = sharded.train_step

    def failing(worker, *args, **kw):
        if worker.rank == 1:
            raise NumericsError("injected")
        return step(worker, *args, **kw)

    monkeypatch.setattr(sharded, "train_step", failing)
    with pytest.raises(NumericsError, match="injected"):
        sharded.run_steps(cfg, params, 2, batches, lr=0.1, timeout=10.0)
    assert tensor.blas_thread_count() == before


def test_nested_blocks_restore_the_outer_value():
    before = tensor.blas_thread_count()
    with tensor.blas_threads(None):
        assert tensor.blas_thread_count() == before
    with tensor.blas_threads(before + 3):  # never raised above the saved count
        assert tensor.blas_thread_count() == before
        with tensor.blas_threads(1):
            assert tensor.blas_thread_count() == 1
            with tensor.blas_threads(0):  # a cap below one still leaves one thread
                assert tensor.blas_thread_count() == 1
            assert tensor.blas_thread_count() == 1
        assert tensor.blas_thread_count() == before
    assert tensor.blas_thread_count() == before


def test_overlapping_blocks_keep_the_smallest_open_cap():
    before = tensor.blas_thread_count()
    outer, inner = tensor.blas_threads(before), tensor.blas_threads(1)
    outer.__enter__()
    inner.__enter__()
    outer.__exit__(None, None, None)  # closes first: the smaller cap still holds
    assert tensor.blas_thread_count() == 1
    inner.__exit__(None, None, None)
    assert tensor.blas_thread_count() == before


def test_block_restores_on_raise():
    before = tensor.blas_thread_count()
    with pytest.raises(RuntimeError):
        with tensor.blas_threads(1):
            raise RuntimeError("boom")
    assert tensor.blas_thread_count() == before


def test_blocks_from_many_threads_never_lose_the_saved_count():
    before = tensor.blas_thread_count()
    errors = []

    def body(cap):
        try:
            for _ in range(200):
                with tensor.blas_threads(cap):
                    assert 1 <= tensor.blas_thread_count() <= max(1, min(cap, before))
        except AssertionError as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=body, args=(cap,)) for cap in (1, 2, 3, 1, 2, 3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert tensor.blas_thread_count() == before


def test_results_do_not_depend_on_the_cap(rng):
    # large enough products that the library splits them across its threads
    cfg = model.ModelConfig(embed_dim=64, n_layers=1, n_heads=4, ff_dim=256,
                            vocab=256, seq_len=128, batch=2)
    params = model.init_params(cfg, 0)
    batches = [rand_batch(cfg, rng) for _ in range(2)]
    free = runner._sequential_steps(cfg, params, batches, lr=0.1)
    with tensor.blas_threads(1):
        capped = runner._sequential_steps(cfg, params, batches, lr=0.1)
    assert capped.step_losses == free.step_losses
    for a, b in zip(capped.final_params.arrays(), free.final_params.arrays()):
        assert a.tobytes() == b.tobytes()
