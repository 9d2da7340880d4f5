"""One OpenBLAS thread for a block of work, process-wide.

numpy's bundled OpenBLAS keeps one thread count for the whole process.
Training and encoding run their products under :func:`_single_blas_thread`,
which sets that count to 1 while any caller holds it: at 784-d a product
split over threads rounds differently, and OpenBLAS's spinning threads stall
small products on a busy machine.  The count is read and set through the
library's own symbols (:func:`_openblas_threads`); without them the guard
does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading

import numpy as np


@functools.cache
def _openblas_threads():
    """(getter, setter) of numpy's bundled OpenBLAS thread count, or None.

    None when numpy bundles no OpenBLAS or the library lacks either symbol.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_-*.so")):
        try:
            lib = ctypes.CDLL(path)
            getter = lib.scipy_openblas_get_num_threads64_
            setter = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.argtypes, getter.restype = [], ctypes.c_int
        setter.argtypes, setter.restype = [ctypes.c_int], None
        return getter, setter
    return None


# holders of _single_blas_thread, and the OpenBLAS count the first of them
# found; _BLAS_LOCK guards both while they change, never across a block, and
# is taken across a fork, so a pool worker starts with it free
_BLAS_LOCK = threading.Lock()
_blas_holders = 0
_blas_count_before = 1
os.register_at_fork(before=_BLAS_LOCK.acquire, after_in_parent=_BLAS_LOCK.release,
                    after_in_child=_BLAS_LOCK.release)


@contextlib.contextmanager
def _single_blas_thread():
    """Run the block with one OpenBLAS thread, then restore the caller's count.

    An encode's products are small (a few anchors or node features by one
    batch), yet OpenBLAS splits each over all its threads, which spin while
    they wait for the slowest, so another process on any core stalls every
    product.  On a 2-core machine beside one busy loop, a 16-d, 24-tree
    forest encoded about 3x slower with OpenBLAS's two threads and no slower
    with one.  That finding is about OpenBLAS's own threads: Python threads
    that each run one-thread BLAS calls on trees of their own
    (:func:`_leaf_rows`) encode large 16-d batches about 1.3-1.9x faster.
    Two OpenBLAS threads do encode 784-d batches about a quarter faster on a
    quiet machine.  Training runs under it too, serial or pooled, so the
    thread count cannot change a tree.

    The count is process-wide, so the guard counts its holders: the first
    records the count and sets 1, and the last restores it.  Threads that
    enter it at once, and entries nested in one thread, all run on one
    OpenBLAS thread until the last of them leaves; other threads' BLAS calls
    meanwhile run on one too.
    """
    global _blas_holders, _blas_count_before
    threads = _openblas_threads()
    with _BLAS_LOCK:
        if _blas_holders == 0 and threads is not None:
            _blas_count_before = threads[0]()
            threads[1](1)
        _blas_holders += 1
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _blas_holders -= 1
            if _blas_holders == 0 and threads is not None:
                threads[1](_blas_count_before)
