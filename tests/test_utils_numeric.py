"""The shared sigmoid is bitwise equal to the classic two-branch form."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.utils.numeric import sigmoid

TINY = np.finfo(np.float64).tiny
SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
            TINY, -TINY, TINY / 3, -TINY / 3, 800.0, -800.0, 709.8, -745.2]

elements = st.one_of(
    st.sampled_from(SPECIALS),
    st.floats(min_value=-800.0, max_value=800.0, allow_subnormal=True),
    st.floats(min_value=-1e-300, max_value=1e-300, allow_subnormal=True),
)


def two_branch(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _assert_bitwise(got: np.ndarray, want: np.ndarray) -> None:
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, array_shapes(max_dims=2, max_side=40), elements=elements))
def test_sigmoid_matches_two_branch_bitwise(x):
    with np.errstate(over="ignore", invalid="ignore"):
        want = two_branch(x)
        _assert_bitwise(sigmoid(x), want)
        inplace = x.copy()
        assert sigmoid(inplace, out=inplace) is inplace
        _assert_bitwise(inplace, want)


def test_sigmoid_specials():
    x = np.array(SPECIALS)
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_bitwise(sigmoid(x), two_branch(x))
    assert sigmoid(np.array([0.0, -0.0, np.inf, -np.inf]))[:4].tolist() == [
        0.5, 0.5, 1.0, 0.0
    ]
