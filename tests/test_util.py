import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.ndimage import median_filter

from gaborboost.errors import ConfigError
from gaborboost.util import parallel_map, running_median, thread_count

# Quantized levels, so windows hold many ties, with both signs of zero.
TIED = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0])
FINITE = st.floats(-1e6, 1e6, allow_nan=False)


@given(st.data())
def test_running_median_is_median_filter_nearest(data):
    shape = data.draw(st.one_of(
        st.tuples(st.integers(1, 40)),
        st.tuples(st.integers(1, 4), st.integers(1, 40)),
    ))
    x = data.draw(arrays(np.float64, shape, elements=data.draw(st.sampled_from([TIED, FINITE]))))
    window = data.draw(st.integers(1, 2 * shape[-1] + 3))  # up to wider than the row
    ours = running_median(x, window)
    odd = window | 1  # an even window rounds up
    ref = median_filter(x, size=(1,) * (x.ndim - 1) + (odd,), mode="nearest")
    assert ours.shape == x.shape
    assert np.array_equal(ours, ref)
    # Equal values are equal bits, except 0.0 and -0.0: where a window
    # holds both, either may be its median, and the two routines may
    # choose differently.  With one sign of zero the results are bitwise
    # equal.
    zero_signs = np.signbit(x[x == 0])
    if zero_signs.all() or not zero_signs.any():
        assert ours.tobytes() == ref.tobytes()


def test_parallel_map_preserves_order():
    items = list(range(57))
    assert parallel_map(lambda v: v * v, items) == [v * v for v in items]


def test_parallel_map_empty():
    assert parallel_map(lambda v: v, []) == []


def test_parallel_map_matches_serial_under_thread_cap(monkeypatch):
    """Output must not depend on the worker count."""
    items = [3, 1, 4, 1, 5, 9, 2, 6]
    monkeypatch.setenv("GABORBOOST_THREADS", "1")
    serial = parallel_map(str, items)
    monkeypatch.setenv("GABORBOOST_THREADS", "4")
    threaded = parallel_map(str, items)
    assert serial == threaded == [str(v) for v in items]


def test_thread_count_env(monkeypatch):
    monkeypatch.setenv("GABORBOOST_THREADS", "3")
    assert thread_count() == 3
    monkeypatch.setenv("GABORBOOST_THREADS", " 2 ")
    assert thread_count() == 2
    monkeypatch.setenv("GABORBOOST_THREADS", "0")
    assert thread_count() == (os.cpu_count() or 1)
    monkeypatch.delenv("GABORBOOST_THREADS")
    assert thread_count() == (os.cpu_count() or 1)


@pytest.mark.parametrize("raw", ["junk", "1_0", "\u0663", "-2", "1.5", ""])
def test_thread_count_rejects_anything_but_a_plain_count(monkeypatch, raw):
    """GABORBOOST_THREADS follows the CSV cells' number rule: digit-group
    underscores and non-ASCII digits (an Arabic-Indic three) are errors, as
    are junk, negative and fractional counts."""
    monkeypatch.setenv("GABORBOOST_THREADS", raw)
    with pytest.raises(ConfigError, match=f"GABORBOOST_THREADS .* got {raw!r}"):
        thread_count()

