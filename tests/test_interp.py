"""Tests for the interpolation substrate."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from repro.errors import NotFittedError, ValidationError
from repro.interp import ARForecaster, CubicSplineInterpolator, LinearInterpolator
from repro.interp.spline import fit_stack, predict_stack


class TestCubicSpline:
    def test_matches_scipy_natural_spline(self, rng):
        x = np.sort(rng.uniform(0, 20, 15))
        y = np.sin(x) + 0.2 * x
        ours = CubicSplineInterpolator().fit(x, y)
        ref = CubicSpline(x, y, bc_type="natural")
        xq = np.linspace(x[0], x[-1], 300)
        np.testing.assert_allclose(ours.predict(xq), ref(xq), atol=1e-10)

    def test_interpolates_knots_exactly(self, rng):
        x = np.arange(8.0)
        y = rng.normal(size=8)
        s = CubicSplineInterpolator().fit(x, y)
        np.testing.assert_allclose(s.predict(x), y, atol=1e-12)

    def test_two_knots_is_linear(self):
        s = CubicSplineInterpolator().fit([0.0, 10.0], [0.0, 20.0])
        np.testing.assert_allclose(s.predict([5.0]), [10.0])

    def test_unsorted_input_handled(self):
        s = CubicSplineInterpolator().fit([3.0, 1.0, 2.0], [9.0, 1.0, 4.0])
        np.testing.assert_allclose(s.predict([1.0, 2.0, 3.0]), [1, 4, 9], atol=1e-12)

    def test_linear_extrapolation_is_finite_and_continuous(self):
        x = np.arange(5.0)
        y = x**2
        s = CubicSplineInterpolator().fit(x, y)
        left = s.predict([-1.0, -0.001, 0.0])
        assert np.isfinite(left).all()
        assert abs(left[1] - left[2]) < 0.01

    def test_clamp_extrapolation(self):
        s = CubicSplineInterpolator(extrapolate="clamp").fit([0.0, 1.0, 2.0], [5.0, 7.0, 6.0])
        np.testing.assert_allclose(s.predict([-3.0, 9.0]), [5.0, 6.0])

    def test_duplicate_knots_rejected(self):
        with pytest.raises(ValidationError):
            CubicSplineInterpolator().fit([1.0, 1.0, 2.0], [0.0, 1.0, 2.0])

    def test_single_knot_rejected(self):
        with pytest.raises(ValidationError):
            CubicSplineInterpolator().fit([1.0], [2.0])

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            CubicSplineInterpolator().predict([0.0])

    def test_invalid_extrapolate_mode(self):
        with pytest.raises(ValidationError):
            CubicSplineInterpolator(extrapolate="wild")

    def test_smoother_than_linear_on_smooth_signal(self, rng):
        t = np.linspace(0, 6 * np.pi, 400)
        y = 50 + 10 * np.sin(t)
        knots = np.arange(0, 400, 10)
        xq = np.arange(400, dtype=float)
        spline_err = np.abs(
            CubicSplineInterpolator().fit(knots.astype(float), y[knots]).predict(xq) - y
        ).mean()
        linear_err = np.abs(
            LinearInterpolator().fit(knots.astype(float), y[knots]).predict(xq) - y
        ).mean()
        assert spline_err < linear_err


    @pytest.mark.parametrize("which", ["x", "y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_knots_rejected(self, which, bad):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([5.0, 7.0, 6.0, 8.0])
        (x if which == "x" else y)[1] = bad
        with pytest.raises(ValidationError, match="finite"):
            CubicSplineInterpolator().fit(x, y)
        with pytest.raises(ValidationError, match="finite"):
            fit_stack([(np.arange(4.0), np.ones(4)), (x, y)])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValidationError, match="inconsistent lengths"):
            CubicSplineInterpolator().fit([0.0, 1.0, 2.0], [1.0, 2.0])


def _queries(x: np.ndarray, rng) -> np.ndarray:
    """At every knot, between knots, below and above the range."""
    lo, hi = x.min(), x.max()
    span = hi - lo
    return np.concatenate([
        x, rng.uniform(lo, hi, 9), [lo - 0.5 * span, lo - 1e-9],
        [hi + 1e-9, hi + 0.5 * span],
    ])


class TestSplineStack:
    """The stacked fit and evaluation are bitwise equal to single splines."""

    @staticmethod
    def _knots(rng, n: int, shuffled: bool):
        x = np.cumsum(rng.uniform(0.5, 20.0, n))
        y = rng.normal(300.0, 40.0, n)
        if shuffled:
            order = rng.permutation(n)
            x, y = x[order], y[order]
        return x, y

    def test_stack_equals_single_fits_bitwise(self, rng):
        # Mixed knot counts in one call, several sets per count, some
        # shuffled (the sort path) beside sorted ones.
        counts = [2, 3, 4, 5, 6, 180, 4, 6, 2, 180, 3, 5]
        knots = [self._knots(rng, n, shuffled=i % 3 == 1)
                 for i, n in enumerate(counts)]
        stacked = fit_stack(knots)
        queries = [_queries(x, rng) for x, _ in knots]
        singles = [CubicSplineInterpolator().fit(x, y) for x, y in knots]
        batched = predict_stack(stacked, queries)
        for single, spline, xq, out in zip(singles, stacked, queries, batched):
            assert spline.extrapolate == "linear"
            assert spline._m.tobytes() == single._m.tobytes()
            assert spline._coef.tobytes() == single._coef.tobytes()
            want = single.predict(xq)
            assert spline.predict(xq).tobytes() == want.tobytes()
            assert out.tobytes() == want.tobytes()


    def test_stack_matches_scipy(self, rng):
        knots = [self._knots(rng, n, shuffled=False) for n in (4, 4, 9)]
        for (x, y), spline in zip(knots, fit_stack(knots)):
            xq = np.linspace(x[0], x[-1], 50)
            np.testing.assert_allclose(
                spline.predict(xq), CubicSpline(x, y, bc_type="natural")(xq),
                atol=1e-9,
            )

    def test_malformed_set_fails_the_whole_stack(self):
        good = (np.arange(4.0), np.ones(4))
        with pytest.raises(ValidationError, match="at least two knots"):
            fit_stack([good, ([1.0], [2.0])])
        with pytest.raises(ValidationError, match="distinct"):
            fit_stack([good, ([0.0, 2.0, 2.0, 3.0], np.ones(4))])
        assert fit_stack([]) == []

    def test_predict_stack_validates(self, rng):
        spline = CubicSplineInterpolator().fit(np.arange(4.0), np.ones(4))
        assert predict_stack([], []) == []
        with pytest.raises(NotFittedError):
            predict_stack([CubicSplineInterpolator()], [np.zeros(2)])
        with pytest.raises(ValidationError, match="query arrays"):
            predict_stack([spline], [])
        clamped = CubicSplineInterpolator("clamp").fit(np.arange(4.0), np.ones(4))
        with pytest.raises(ValidationError, match="linear extrapolation"):
            predict_stack([spline, clamped], [np.zeros(2), np.zeros(2)])


class TestLinearInterpolator:
    def test_midpoint(self):
        li = LinearInterpolator().fit([0.0, 2.0], [0.0, 4.0])
        np.testing.assert_allclose(li.predict([1.0]), [2.0])

    def test_clamps_outside_range(self):
        li = LinearInterpolator().fit([0.0, 1.0], [3.0, 5.0])
        np.testing.assert_allclose(li.predict([-1.0, 2.0]), [3.0, 5.0])

    def test_duplicate_x_rejected(self):
        with pytest.raises(ValidationError):
            LinearInterpolator().fit([1.0, 1.0], [0.0, 1.0])

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            LinearInterpolator().predict([0.0])


class TestARForecaster:
    def test_recovers_ar1_coefficient(self, rng):
        n = 2000
        y = np.zeros(n)
        for i in range(1, n):
            y[i] = 0.8 * y[i - 1] + rng.normal(0, 0.1)
        model = ARForecaster(order=1).fit(y)
        assert model.coef_[0] == pytest.approx(0.8, abs=0.05)

    def test_forecast_constant_series(self):
        model = ARForecaster(order=2).fit(np.full(50, 7.0))
        np.testing.assert_allclose(model.forecast(5), np.full(5, 7.0), atol=1e-6)

    def test_forecast_length(self, rng):
        model = ARForecaster(order=3).fit(rng.normal(size=100))
        assert model.forecast(12).shape == (12,)

    def test_in_sample_prediction_tracks(self, rng):
        t = np.linspace(0, 8 * np.pi, 500)
        y = np.sin(t)
        model = ARForecaster(order=5).fit(y)
        pred = model.predict_in_sample(y)
        assert np.abs(pred[5:] - y[5:]).mean() < 0.05

    def test_too_short_series(self):
        with pytest.raises(ValidationError):
            ARForecaster(order=10).fit(np.arange(5.0))

    def test_forecast_before_fit(self):
        with pytest.raises(NotFittedError):
            ARForecaster().forecast(3)

    def test_forecast_needs_history(self, rng):
        model = ARForecaster(order=4).fit(rng.normal(size=50))
        with pytest.raises(ValidationError):
            model.forecast(2, history=np.ones(2))
