"""Small shared helpers: a running median, serial and threaded maps, key=value config files."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ParseError

THREADS_ENV = "GABORBOOST_THREADS"


def thread_count() -> int:
    """Worker cap from GABORBOOST_THREADS; 0, unset, or junk means auto."""
    raw = os.environ.get(THREADS_ENV, "0")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n <= 0:
        n = os.cpu_count() or 1
    return n


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


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Parse a plain key=value file; '#' starts a comment, blanks ignored,
    and a key may appear once."""
    result: dict[str, str] = {}
    lines: dict[str, int] = {}
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a text file: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}: line {lineno}: expected key=value")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}: line {lineno}: empty key")
        value = value.strip()
        if not value:
            raise ConfigError(f"{path}: line {lineno}: empty value for {key!r}")
        if (first := lines.setdefault(key, lineno)) != lineno:
            raise ConfigError(f"{path}: {key!r} set twice, at lines {first} and {lineno}")
        result[key] = value
    return result
