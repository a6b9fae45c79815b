"""Small shared helpers: serial and thread-pool mapping, key=value config files."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .errors import ConfigError

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
    """Parse a plain key=value file; '#' starts a comment, blanks ignored."""
    result: dict[str, str] = {}
    text = Path(path).read_text()
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
        result[key] = value.strip()
    return result
