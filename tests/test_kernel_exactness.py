"""The fast kernels against numpy's general ones, bit for bit.

`frobenius` is one dot of the raveled entries; it must give exactly the
bits numpy's `norm` gives wherever that is finite and normal.
`as_real_matrix` must raise exactly what it raised when its finiteness test
was `np.all(np.isfinite(m))`, shape first and finiteness second.
"""

import math

import numpy as np
import pytest

from realqm.linalg import as_real_matrix, frobenius

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=200)

LAYOUTS = ("C", "F", "transposed", "strided")

# Up to 16 x 16 entries of size 2^k, k in [-400, 400], keep every sum of
# squares inside the normal range, so numpy's norm is exact there.
matrices = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 16), st.integers(1, 16),
                     st.sampled_from(LAYOUTS), st.integers(-400, 400))


def build(case):
    seed, rows, cols, layout, k = case
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((2 * rows, cols) if layout == "strided" else (rows, cols))
    m *= 2.0 ** k
    if layout == "F":
        return np.asfortranarray(m)
    if layout == "transposed":
        return m.T
    if layout == "strided":
        return m[::2]
    return m


def is_normal(x):
    return np.isfinite(x) and x >= np.finfo(float).tiny


@SETTINGS
@given(matrices)
def test_frobenius_is_numpy_norm_bit_for_bit(case):
    m = build(case)
    want = np.linalg.norm(m, "fro")
    assert is_normal(want)
    got = frobenius(m)
    assert type(got) is float
    assert got == float(want)


@SETTINGS
@given(matrices, st.one_of(st.integers(-1000, -560), st.integers(560, 1000)))
def test_frobenius_rescales_outside_the_normal_range(case, e):
    """Entries of size 2^e with |e| > 512 are normal floats whose squares
    are not; the norm still follows the exact scaling by 2^e.  The first
    dot overflows for e > 0, and numpy warns of that, as its norm did."""
    m = build(case[:4] + (0,))
    scaled = np.ldexp(m, e)
    assume(np.all(np.isfinite(scaled)) and np.all(np.abs(scaled) >= np.finfo(float).tiny))
    with np.errstate(over="ignore"):
        got = frobenius(scaled)
    assert got == pytest.approx(math.ldexp(frobenius(m), e), rel=1e-13, abs=0.0)


def test_frobenius_of_zero_and_non_finite_entries():
    assert frobenius(np.zeros((3, 3))) == 0.0
    assert frobenius(np.array([[5e-324]])) == 5e-324
    assert frobenius(np.array([[np.inf, 1.0], [0.0, 0.0]])) == np.inf
    assert np.isnan(frobenius(np.array([[np.nan, 1.0], [0.0, 0.0]])))


def reference_as_real_matrix(a):
    """`as_real_matrix` as it was written before its finiteness test used
    the `.all()` method."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


entries = st.one_of(st.integers(-10**6, 10**6),
                    st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from([np.nan, np.inf, -np.inf, 0.0]))


@st.composite
def candidates(draw):
    """Nested lists of every depth 0-3 (ragged ones excluded), their int
    arrays when every entry is an int, and float arrays."""
    shape = draw(st.lists(st.integers(0, 4), min_size=0, max_size=3))
    size = int(np.prod(shape)) if shape else 1
    flat = draw(st.lists(entries, min_size=size, max_size=size))
    nested = np.array(flat, dtype=object).reshape(shape).tolist()
    kind = draw(st.sampled_from(["list", "array"]))
    if kind == "list":
        return nested
    ints = all(isinstance(x, int) for x in flat)
    return np.array(nested, dtype=np.int64 if ints else float)


def outcome(fn, a):
    try:
        return fn(a)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


@SETTINGS
@given(candidates())
def test_as_real_matrix_raises_what_it_raised(a):
    got, want = outcome(as_real_matrix, a), outcome(reference_as_real_matrix, a)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("a, message", [
    ([[1.0, np.nan, 0.0]], "expected a square matrix"),
    (np.full((2, 3), np.inf), "expected a square matrix"),
    (np.zeros((0, 0)), "dimension must be at least 1"),
    (np.array([[1.0, np.inf], [1.0, 1.0]]), "must be finite"),
    ([[1.0, -np.inf], [0.0, 1.0]], "must be finite"),
])
def test_shape_is_checked_before_finiteness(a, message):
    with pytest.raises(ValueError, match=message):
        as_real_matrix(a)
