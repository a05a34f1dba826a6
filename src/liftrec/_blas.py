"""Process-wide BLAS thread caps: one per CLI invocation, one per sweep.

``cli.main`` runs every command on one BLAS thread, except ``calderon
recover`` and ``selftest``, which keep the process's thread count.  The
other commands make many small dense BLAS calls (factorizations of a few
hundred rows, whitening mat-vecs, the Gauss-Newton steps, the PSD prox).  On
two OpenBLAS threads such a call is slower than on one, and on a busy
2-core host it can stall for about 0.1 s.  ``calderon recover`` multiplies
by the dense lifted operator (2164 x 4624 at 17^2), and on two threads
criterion 11's four solves at 17^2 take 5.6 s against 7.6 s on one;
``selftest`` runs that pipeline in criterion 11 and caps its own
pre-certificates, which the gate also calls outside the CLI.

A sweep runs its rows on ``jobs`` pool threads.  If every row's BLAS calls
also spread over all cores, the pool threads and the BLAS threads compete
for the same cores and ``--jobs 2`` runs slower than ``--jobs 1``.  So
:func:`map_rows` runs every row, serial or pooled, under a cap of one BLAS
thread: the parallelism comes from the pool alone, and the serial and pooled
paths do the same arithmetic, which keeps their outputs byte-identical.

The cap is set through the OpenBLAS libraries loaded into the process
(numpy's and scipy's bundled copies export differently named setters),
found through ``/proc/self/maps`` on the first cap and kept for the life of
the process; ``liftrec`` imports ``scipy.linalg`` before any cap, so both
copies are loaded by then.  Where none is found (another BLAS, another
platform, no ``/proc``) the cap does nothing; no result depends on it for
correctness.

OpenBLAS keeps its thread count in one process-wide variable.  The cap is
therefore set and restored only in the thread that starts the work, around
all of it, never per task: a worker restoring the count while another
worker is still computing would change that worker's arithmetic.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import ctypes
import functools
import os

MAPS = "/proc/self/maps"

# (setter, getter) pairs exported by the OpenBLAS builds this code has met:
# upstream OpenBLAS, scipy's bundled copy and numpy's 64-bit-integer copy
_SYMBOLS = (
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
)


@functools.cache
def _loaded_controls():
    """(setter, getter) of every OpenBLAS library mapped into this process
    at the first call; later calls return the same tuple."""
    try:
        with open(MAPS, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError:
        return ()
    controls, seen = [], set()
    for line in lines:
        parts = line.split(maxsplit=5)
        path = parts[5].strip() if len(parts) == 6 else ""
        if "openblas" not in os.path.basename(path).lower() or path in seen:
            continue
        seen.add(path)
        try:
            lib = ctypes.CDLL(path)       # already loaded: the same handle
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
                break
    return tuple(controls)


@contextlib.contextmanager
def blas_threads(count):
    """Cap every loaded OpenBLAS library at ``count`` threads for the block.

    The previous counts come back when the block exits, also on an
    exception.  The setting is process-wide, so enter the block from one
    thread, around all the work it should cover.
    """
    controls = _loaded_controls()
    previous = [getter() for _, getter in controls]
    for setter, _ in controls:
        setter(count)
    try:
        yield
    finally:
        for (setter, _), n in zip(controls, previous):
            setter(n)


def map_rows(fn, tasks, jobs):
    """``[fn(t) for t in tasks]`` on ``jobs`` threads, each on one BLAS thread.

    Rows come back in task order whatever ``jobs`` is; the first exception
    a row raises propagates.
    """
    with blas_threads(1):
        if jobs > 1:
            with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
                return list(pool.map(fn, tasks))
        return [fn(t) for t in tasks]
