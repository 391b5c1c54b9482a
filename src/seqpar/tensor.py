"""Dense numeric kernels and per-step instrumentation.

Arrays are plain ``numpy.ndarray`` values in row-major layout, rank 1 to 3,
float64 by default (float32 opt-in through :func:`resolve_dtype`).  Kernels
treat their inputs as immutable and return fresh arrays, which is what makes
them safe to hand across worker threads, unless the caller passes ``out=``:
:func:`matmul` and :func:`softmax_rows` then write into that buffer and return
it, with bitwise the values a fresh call gives.  Kernels do not scan their
outputs for NaN/Inf: NaN and Inf propagate through every op, so the model
checks with :func:`check_finite` once per layer boundary instead (see
:mod:`seqpar.errors`).

Scratch buffers that a hot loop would otherwise allocate anew every time can
be recycled: inside a :func:`recycling` block, :func:`take` hands out an array
that :func:`give` returned earlier on the same thread (same shape and dtype),
and the block's free list is dropped when it closes.  Outside such a block
``take`` is ``np.empty`` and ``give`` does nothing.  Only buffers private to
one thread's computation go through it, never one returned to a caller or
handed to a collective.

A thread-local :class:`StepCounters` can be installed with :func:`counting`;
while active, :func:`matmul` tallies the floating point work of every product
it actually performs (2*m*k*n per call, from the runtime shapes).

Worker ranks that compute at the same time share the machine's cores with
the BLAS library's own thread pool.  :func:`blas_threads` caps that pool for
the duration of a block (numpy's bundled OpenBLAS, reached through
``ctypes``; a no-op where it cannot be found) and restores it afterwards.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateRowError, NumericsError, ShapeError

DTYPES = {"double": np.float64, "single": np.float32}


def resolve_dtype(precision: str) -> np.dtype:
    """Map a precision name ("double" or "single") to a numpy dtype."""
    try:
        return np.dtype(DTYPES[precision])
    except KeyError:
        raise ValueError(f"unknown precision {precision!r}, expected one of {sorted(DTYPES)}")


@dataclass
class StepCounters:
    """Per-worker, per-step tallies of compute and activation footprint.

    matmul_flops counts every matrix product routed through :func:`matmul`.
    The attention-score fields are filled in by the attention core from the
    shapes it actually multiplies and the arrays it caches, so they can be
    compared exactly against closed-form estimates.
    """

    matmul_flops: int = 0
    attn_score_flops: int = 0
    attn_score_elements_peak: int = 0
    attn_score_bytes_cached: int = 0  # every layer's score caches, held until backward

    def add_matmul(self, m: int, k: int, n: int) -> None:
        self.matmul_flops += 2 * m * k * n

    def add_score_flops(self, m: int, k: int, n: int) -> None:
        self.attn_score_flops += 2 * m * k * n

    def add_score_cache(self, nbytes: int) -> None:
        self.attn_score_bytes_cached += nbytes

    def record_score_footprint(self, elements: int) -> None:
        """Track the largest set of attention-score elements live at once."""
        if elements > self.attn_score_elements_peak:
            self.attn_score_elements_peak = elements


_active = threading.local()


@contextmanager
def counting(counters: StepCounters):
    """Install ``counters`` as this thread's matmul tally for the duration."""
    previous = getattr(_active, "counters", None)
    _active.counters = counters
    try:
        yield counters
    finally:
        _active.counters = previous


def active_counters() -> StepCounters | None:
    return getattr(_active, "counters", None)


@contextmanager
def recycling():
    """Give this thread a free list of scratch buffers for the duration: what
    :func:`give` returns, :func:`take` hands out again.  The previous free
    list (usually none) is restored on exit, also when the block raises."""
    previous = getattr(_active, "free", None)
    _active.free = {}
    try:
        yield
    finally:
        _active.free = previous


def take(shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialized array: one given back earlier on this thread inside
    :func:`recycling`, else a fresh ``np.empty``."""
    free = getattr(_active, "free", None)
    if free:
        stack = free.get((tuple(shape), np.dtype(dtype)))
        if stack:
            return stack.pop()
    return np.empty(shape, dtype)


def give(*arrays: np.ndarray) -> None:
    """Return buffers from :func:`take` for reuse; the caller must hold no
    view of them any more.  A no-op outside :func:`recycling`."""
    free = getattr(_active, "free", None)
    if free is None:
        return
    for a in arrays:
        stack = free.setdefault((a.shape, a.dtype), [])
        if a.base is not None or any(x is a for x in stack):
            raise ValueError("give() takes each owned buffer once, not a view")
        stack.append(a)


def _find_blas_controls():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None.

    Opening the library numpy has already loaded only takes another reference
    to it; nothing about its state changes here.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


_BLAS = _find_blas_controls()
_blas_lock = threading.Lock()
_blas_caps: list[int] = []  # caps of the blas_threads blocks now open
_blas_saved = 0             # the count before the outermost open block


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def blas_thread_count() -> int | None:
    """The BLAS library's current thread count, or None if it is out of reach."""
    return None if _BLAS is None else _BLAS[0]()


@contextmanager
def blas_threads(cap: int | None):
    """Run the block with the BLAS thread pool capped at ``cap`` threads.

    None leaves the count alone; a cap below one means one.  Blocks may
    nest, or overlap across threads: the count is the smallest cap open,
    never above the count saved when the first block opened, and the last
    block to close restores that count, also when it raises.
    """
    global _blas_saved
    if cap is None or _BLAS is None:
        yield
        return
    get, set_ = _BLAS
    cap = max(1, cap)
    with _blas_lock:
        if not _blas_caps:
            _blas_saved = get()
        _blas_caps.append(cap)
        set_(min([_blas_saved, *_blas_caps]))
    try:
        yield
    finally:
        with _blas_lock:
            _blas_caps.remove(cap)
            set_(min([_blas_saved, *_blas_caps]))


def check_finite(x: np.ndarray, label: str = "tensor") -> np.ndarray:
    """``x`` itself; raises :class:`NumericsError` naming ``label`` if any
    entry is NaN or Inf."""
    if not np.all(np.isfinite(x)):
        raise NumericsError(f"non-finite values in {label}")
    return x


def matmul(a: np.ndarray, b: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """2-D matrix product with shape validation and flop accounting.  Either
    operand may be a transposed or strided view; ``out`` receives the product
    when given."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} x {b.shape}")
    out = np.matmul(a, b, out=out)
    counters = getattr(_active, "counters", None)
    if counters is not None:
        counters.add_matmul(a.shape[0], a.shape[1], b.shape[1])
    return out


def transpose(a: np.ndarray) -> np.ndarray:
    if a.ndim != 2:
        raise ShapeError(f"transpose expects a 2-D operand, got shape {a.shape}")
    return np.ascontiguousarray(a.T)


def softmax_rows(
    a: np.ndarray, mask: np.ndarray | None = None, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Row-wise softmax with optional boolean keep-mask, into ``out`` if given
    (which may be ``a`` itself).

    ``mask[i, j] == False`` forces entry (i, j) to exactly zero and excludes
    it from the row's normalization.  A row with no kept entry has no valid
    distribution and raises :class:`DegenerateRowError`.  The max-subtraction
    stabilisation keeps exp() in range for any finite input.
    """
    if a.ndim != 2:
        raise ShapeError(f"softmax_rows expects a 2-D operand, got shape {a.shape}")
    if out is None:
        out = np.empty_like(a)
    if mask is None:
        np.subtract(a, np.max(a, axis=1, keepdims=True), out=out)
        np.exp(out, out=out)
        out /= np.sum(out, axis=1, keepdims=True)
        return out
    if mask.shape != a.shape:
        raise ShapeError(f"mask shape {mask.shape} does not match operand {a.shape}")
    if mask.dtype != np.bool_:
        raise ShapeError("softmax mask must be boolean")
    live = mask.any(axis=1)
    if not live.all():
        raise DegenerateRowError(f"softmax row {int(np.argmin(live))} is fully masked")
    top = np.max(a, axis=1, keepdims=True, where=mask, initial=-np.inf)
    # exp(-inf) is exactly 0, but numpy's exp takes a slow path over any array
    # that holds -inf; so the mask zeroes masked entries before exp and again
    # after.  The output is bitwise what exp(-inf) would give.
    np.subtract(a, top, out=out)
    out *= mask
    np.exp(out, out=out)
    out *= mask
    out /= np.sum(out, axis=1, keepdims=True)
    return out
