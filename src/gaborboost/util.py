"""Small shared helpers: a running median, serial and threaded maps."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dataio import plain_number
from .errors import ConfigError

THREADS_ENV = "GABORBOOST_THREADS"


def thread_count() -> int:
    """Worker cap from GABORBOOST_THREADS, read as ``dataio.plain_number``
    reads an int; unset or 0 means the CPU count."""
    raw = os.environ.get(THREADS_ENV, "0")
    try:
        n = plain_number(raw, int)
    except ValueError:
        n = -1
    if n < 0:
        raise ConfigError(f"{THREADS_ENV} must be a positive integer or 0, got {raw!r}")
    return n or os.cpu_count() or 1


def running_median(data: np.ndarray, window: int) -> np.ndarray:
    """Running median along the last axis, ``window`` rounded up to odd and
    the edges padded with the edge value.

    A median is a selection, not arithmetic, so this equals
    ``scipy.ndimage.median_filter`` with ``mode="nearest"`` and size 1 on
    every other axis, bit for bit but for the sign of a zero median.
    """
    half = window // 2
    padded = np.pad(data, [(0, 0)] * (data.ndim - 1) + [(half, half)], mode="edge")
    windows = np.partition(sliding_window_view(padded, 2 * half + 1, axis=-1), half, axis=-1)
    return windows[..., half].copy()


def serial_map(fn, items):
    """map() as a list, on the calling thread."""
    return [fn(it) for it in items]


def parallel_map(fn, items):
    """map() preserving order, threaded when more than one worker is allowed.

    Each item must be independent; results are collected in input order, so
    the output is identical to a serial map regardless of worker count.
    """
    items = list(items)
    workers = min(thread_count(), len(items)) or 1
    if workers == 1:
        return serial_map(fn, items)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
