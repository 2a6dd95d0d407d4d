"""Natural cubic spline interpolation, implemented from scratch.

Given knots ``(x_k, y_k)`` the natural cubic spline is the C² piecewise
cubic with zero second derivative at both ends. Its second derivatives at
the knots solve a symmetric tridiagonal system, which we solve with the
Thomas algorithm in O(n) — no dense linear algebra.

This is the trend model inside StaticTRR: the sparse IPMI readings are the
knots, and evaluating the spline at 1 Sa/s restores the long-term power
trend (:class:`repro.core.static_trr.StaticTRR` adds the residual model on
top for short-term fluctuations).

Fitting is stacked. :func:`fit_stack` fits many knot sets at once: sets
with equal knot counts share ``(R, n)`` arrays for the knot spacings, the
right-hand side, the Thomas solve and the Horner compile, so a fleet that
opens hundreds of short runs pays a few array operations per knot count
instead of a few dozen per spline. Every step is elementwise along the
stack axis, and the Thomas recurrence runs per row on Python floats (the
same IEEE-754 doubles), so each stacked spline is bitwise equal to fitting
it alone. :meth:`CubicSplineInterpolator.fit` is the stack of one — there
is one fit path. Stacked splines extrapolate linearly (StaticTRR's trend);
:func:`predict_stack` evaluates many of them, each at its own query
points, in one pass, and a :class:`SplineStack` keeps their concatenated
coefficients for callers that evaluate the same splines repeatedly. Knots
must be finite: a NaN knot would otherwise fit and predict NaN everywhere.
"""

from __future__ import annotations

import numpy as np

from ..errors import NotFittedError, ValidationError
from ..utils.validation import check_1d

def _thomas_solve(off: np.ndarray, diag: np.ndarray,
                  rhs: np.ndarray) -> np.ndarray:
    """Solve ``R`` symmetric tridiagonal systems in O(R·m) (Thomas).

    Row ``i`` of a system reads ``off[i-1]·x[i-1] + diag[i]·x[i] +
    off[i]·x[i+1] = rhs[i]``; ``off`` has ``m − 1`` columns. The matrix
    must be diagonally dominant (true for the spline system, whose diagonal
    is 2·(h_i + h_{i+1}) against off-diagonals h). The recurrence steps
    along the unknowns: across all ``R`` systems at once (one array call
    per unknown) when there are at least as many systems as unknowns, else
    per system on Python floats (a single long fit would pay one array call
    per knot). Both perform the same IEEE-754 double operations in the same
    order, so every system's solution is bitwise the same either way.
    """
    r, m = diag.shape
    if r >= m:
        c = np.zeros((r, m))
        d = np.empty((r, m))
        if m > 1:
            c[:, 0] = off[:, 0] / diag[:, 0]
        d[:, 0] = rhs[:, 0] / diag[:, 0]
        for i in range(1, m):
            denom = diag[:, i] - off[:, i - 1] * c[:, i - 1]
            if i < m - 1:
                c[:, i] = off[:, i] / denom
            d[:, i] = (rhs[:, i] - off[:, i - 1] * d[:, i - 1]) / denom
        x = d
        for i in range(m - 2, -1, -1):
            x[:, i] = d[:, i] - c[:, i] * x[:, i + 1]
        return x
    out = []
    for o, dg, b in zip(off.tolist(), diag.tolist(), rhs.tolist()):
        c = [o[0] / dg[0] if m > 1 else 0.0]
        d = [b[0] / dg[0]]
        for i in range(1, m):
            denom = dg[i] - o[i - 1] * c[i - 1]
            c.append(o[i] / denom if i < m - 1 else 0.0)
            d.append((b[i] - o[i - 1] * d[i - 1]) / denom)
        x = [d[-1]] * m
        for i in range(m - 2, -1, -1):
            x[i] = d[i] - c[i] * x[i + 1]
        out.append(x)
    return np.array(out)


def _fit_group(x: np.ndarray, y: np.ndarray, extrapolate: str):
    """Fit ``R`` natural splines over ``(R, n)`` knot arrays.

    Returns ``(x, y, m, coef)``: the knots sorted per row, the knot second
    derivatives and the ``(R, 4, n)`` Horner coefficients. Interval ``k <
    n-1`` covers ``[x_k, x_{k+1})`` with the cubic ``c0 + dx·(c1 + dx·(c2 +
    dx·c3))`` in ``dx = xq − x_k``. Slot ``n-1`` is a boundary sentinel for
    ``xq ≥ x_{n-1}``: constant ``y_{n-1}`` under clamp extrapolation, the
    right-tangent line under linear — so knot queries land at ``dx = 0``
    and reproduce ``y`` exactly, and above-range queries need no separate
    mask. ``c1`` of interval 0 is the first derivative at ``x_0``, which
    below-range queries extrapolate with.
    """
    if not np.isfinite(np.concatenate((x, y))).all():
        raise ValidationError("spline knots must be finite")
    h = x[:, 1:] - x[:, :-1]
    if h.min() <= 0:
        # Slow path: callers with unsorted knots (the common case —
        # reading indices — arrives already ascending and skips the sort).
        order = np.argsort(x, axis=1)
        x = np.take_along_axis(x, order, axis=1)
        y = np.take_along_axis(y, order, axis=1)
        h = x[:, 1:] - x[:, :-1]
        if h.min() <= 0:
            raise ValidationError("spline knots must have distinct x values")
    r, n = x.shape
    m = np.zeros((r, n))
    m0, m1 = m[:, :-1], m[:, 1:]  # views: each interval's left and right knot
    dy = (y[:, 1:] - y[:, :-1]) / h
    coef = np.zeros((r, 4, n))
    coef[:, 0] = y
    if n > 2:
        # Interior rows of the tridiagonal system for second derivatives:
        # row k (knot i=k+1): h[k]·M_k + 2(h[k]+h[k+1])·M_{k+1} + h[k+1]·M_{k+2}.
        m[:, 1:-1] = _thomas_solve(h[:, 1:-1], 2.0 * (h[:, :-1] + h[:, 1:]),
                                   6.0 * (dy[:, 1:] - dy[:, :-1]))
        # With two knots m is zero, and so are these (0/2 and 0/(6h)).
        coef[:, 2, :-1] = m0 / 2.0
        coef[:, 3, :-1] = (m1 - m0) / (6.0 * h)
    coef[:, 1, :-1] = dy - h * (2.0 * m0 + m1) / 6.0
    if extrapolate == "linear":
        # The right-tangent slope at x_{n-1}, from the last interval.
        coef[:, 1, -1] = (dy + h * (2.0 * m1 + m0) / 6.0)[:, -1]
    return x, y, m, coef


def _knots(x, y) -> "tuple[np.ndarray, np.ndarray]":
    """Validate one knot set (the per-set checks of :func:`_fit_group`)."""
    x = check_1d(x, "x")
    y = check_1d(y, "y")
    if x.shape != y.shape:
        raise ValidationError(
            f"inconsistent lengths: x={x.shape[0]}, y={y.shape[0]}"
        )
    if x.shape[0] < 2:
        raise ValidationError("spline needs at least two knots")
    return x, y


def fit_stack(knots) -> "list[CubicSplineInterpolator]":
    """Fit one natural spline per ``(x, y)`` knot set, in input order.

    Knot sets with equal counts fit as one ``(R, n)`` stack; each spline is
    bitwise equal to ``CubicSplineInterpolator().fit(x, y)`` (linear
    extrapolation). Raises :class:`ValidationError` if any set is malformed
    (fewer than two knots, mismatched lengths, non-finite knots or repeated
    ``x``), in which case no spline is returned.
    """
    sets = []
    groups: "dict[int, list[int]]" = {}
    for x, y in knots:
        x, y = _knots(x, y)
        groups.setdefault(x.shape[0], []).append(len(sets))
        sets.append((x, y))
    out: "list[CubicSplineInterpolator]" = [None] * len(sets)
    for rows in groups.values():
        n = sets[rows[0]][0].shape[0]
        fitted = _fit_group(
            np.concatenate([sets[i][0] for i in rows]).reshape(-1, n),
            np.concatenate([sets[i][1] for i in rows]).reshape(-1, n),
            "linear",
        )
        for row, i in enumerate(rows):
            spline = CubicSplineInterpolator()
            spline._set(*(a[row] for a in fitted))
            out[i] = spline
    return out


def fit_predict_stack(knots, queries) -> "list[np.ndarray]":
    """Fit one natural spline per ``(x, y)`` knot set and evaluate it at
    its own query points, without building the splines.

    Bitwise equal to ``predict_stack(fit_stack(knots), queries)``: sets
    with equal knot counts fit as one :func:`fit_stack` group, and each
    group's queries evaluate on the group's coefficient arrays in one pass.
    For callers that need the values only (StaticTRR's cross-fit folds).
    Raises :class:`ValidationError` as :func:`fit_stack` does, or if the
    query count does not match.
    """
    sets = [_knots(x, y) for x, y in knots]
    queries = [check_1d(np.atleast_1d(q), "xq") for q in queries]
    if len(queries) != len(sets):
        raise ValidationError(
            f"{len(queries)} query arrays for {len(sets)} knot sets"
        )
    groups: "dict[int, list[int]]" = {}
    for i, (x, _) in enumerate(sets):
        groups.setdefault(x.shape[0], []).append(i)
    out: "list[np.ndarray]" = [None] * len(sets)
    for rows in groups.values():
        n = sets[rows[0]][0].shape[0]
        x, _, _, coef = _fit_group(
            np.concatenate([sets[i][0] for i in rows]).reshape(-1, n),
            np.concatenate([sets[i][1] for i in rows]).reshape(-1, n),
            "linear",
        )
        counts = np.array([queries[i].shape[0] for i in rows], dtype=np.intp)
        xq = np.concatenate([queries[i] for i in rows])
        first = (np.arange(len(rows)) * n).repeat(counts)  # each row's x_0
        # The interval of each query: the row's inner knots at or below it.
        if n <= _BROADCAST_KNOTS:
            inner = x[:, 1:].repeat(counts, axis=0)
            idx = np.count_nonzero(inner <= xq[:, None], axis=1)
        else:
            bounds = np.cumsum(counts).tolist()
            idx = np.concatenate([
                row[1:].searchsorted(xq[b - c:b], side="right")
                for row, c, b in zip(x, counts.tolist(), bounds)
            ])
        values = _horner(x.ravel(), coef.transpose(1, 0, 2).reshape(4, -1),
                         first, first + idx, xq)
        bounds = [0, *np.cumsum(counts).tolist()]
        for i, a, b in zip(rows, bounds, bounds[1:]):
            out[i] = values[a:b]
    return out


#: Up to this many knots a group finds its queries' intervals by comparing
#: against every knot at once; above it, by one search per spline.
_BROADCAST_KNOTS = 16


def _horner(x, coef, first, idx, xq) -> np.ndarray:
    """Linear-extrapolating splines laid end to end, evaluated at ``xq``:
    ``x`` holds the knots, ``coef`` the ``(4, ·)`` Horner rows (see
    :func:`_fit_group`), ``idx`` each query's interval and ``first`` its
    spline's knot 0, both as positions in ``x``."""
    dx = xq - x[idx]
    # c0 + dx * (c1 + dx * (c2 + dx * c3)), one coefficient row at a time
    out = dx * coef[3, idx]
    for row in (2, 1):
        out += coef[row, idx]
        out *= dx
    out += coef[0, idx]
    below = xq < x[first]
    if below.any():
        start = first[below]
        # c1 of each spline's interval 0 is its first derivative at x_0.
        out[below] = coef[0, start] + coef[1, start] * (xq[below] - x[start])
    return out


def predict_stack(splines, queries) -> "list[np.ndarray]":
    """Evaluate each fitted linear-extrapolating spline (as
    :func:`fit_stack` fits them) at its own query points, in one pass.

    Bitwise equal to ``[s.predict(q) for s, q in zip(splines, queries)]``;
    the :class:`SplineStack` of ``splines``, used once.
    """
    if not splines:
        return []
    return SplineStack(splines).predict(queries)


class SplineStack:
    """Fitted linear-extrapolating splines evaluated as one.

    The members' compiled coefficients are concatenated once, at
    construction, so a caller that evaluates the same splines again and
    again (the fleet's static restore, once per tick) pays for the
    concatenation once. Each query is mapped to its member's interval, and
    the Horner evaluation and below-range extrapolation run once over every
    query; each member's values are bitwise equal to its own ``predict``.
    """

    def __init__(self, splines) -> None:
        splines = tuple(splines)
        if any(s._x is None for s in splines):
            raise NotFittedError("SplineStack before fit")
        if any(s.extrapolate != "linear" for s in splines):
            raise ValidationError("a spline stack needs linear extrapolation")
        #: the member splines, in stack order (the identity a cache checks).
        self.splines = splines
        self._offsets = np.cumsum([0] + [s._x.shape[0] for s in splines[:-1]])
        self._inner = [s._x_inner for s in splines]
        self._x = np.concatenate([s._x for s in splines])
        self._coef = np.concatenate([s._coef for s in splines], axis=1)

    def predict(self, queries) -> "list[np.ndarray]":
        """Each member at its own query points (one array per member)."""
        queries = [check_1d(np.atleast_1d(q), "xq") for q in queries]
        if len(queries) != len(self.splines):
            raise ValidationError(
                f"{len(queries)} query arrays for {len(self.splines)} splines"
            )
        counts = [q.shape[0] for q in queries]
        out = self.predict_concat(np.concatenate(queries), counts)
        return np.split(out, np.cumsum(counts)[:-1])

    def predict_concat(self, xq: np.ndarray, counts) -> np.ndarray:
        """Evaluate member ``i`` at its ``counts[i]`` consecutive points of
        the concatenated, already validated float queries ``xq``; returns
        the values concatenated the same way."""
        bounds = np.cumsum(counts).tolist()
        first = np.repeat(self._offsets, counts)
        idx = np.concatenate([
            inner.searchsorted(xq[b - c:b], side="right")
            for inner, c, b in zip(self._inner, counts, bounds)
        ])
        idx += first
        return _horner(self._x, self._coef, first, idx, xq)


class CubicSplineInterpolator:
    """Natural cubic spline through ``(x, y)`` knots.

    Follows the estimator convention of the rest of the library:
    :meth:`fit` then :meth:`predict`. Evaluation outside the knot range is
    clamped to the boundary cubic's linear extension (constant second
    derivative zero ⇒ linear extrapolation), which keeps extrapolated power
    finite — important because StaticTRR post-processing clamps against
    physical power limits anyway.
    """

    def __init__(self, extrapolate: str = "linear") -> None:
        if extrapolate not in ("linear", "clamp"):
            raise ValidationError("extrapolate must be 'linear' or 'clamp'")
        self.extrapolate = extrapolate
        self._x: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._m: np.ndarray | None = None  # second derivatives at the knots
        # Per-interval polynomial coefficients (rows c0..c3), compiled at
        # fit time so evaluation is one searchsorted + Horner (no a/b/h
        # re-derivation).
        self._coef: np.ndarray | None = None
        self._c0 = self._c1 = self._c2 = self._c3 = None
        self._x_inner: np.ndarray | None = None  # knots sans x_0 (interval lookup)

    @property
    def is_fitted(self) -> bool:
        return self._x is not None

    def fit(self, x, y) -> "CubicSplineInterpolator":
        """Compute knot second derivatives from sparse readings (the
        :func:`fit_stack` of one)."""
        x, y = _knots(x, y)
        x, y, m, coef = _fit_group(x[None], y[None], self.extrapolate)
        self._set(x[0], y[0], m[0], coef[0])
        return self

    def _set(self, x, y, m, coef) -> None:
        self._x, self._y, self._m, self._coef = x, y, m, coef
        # Row views: four 1-D gathers per evaluation beat one 2-D gather.
        self._c0, self._c1, self._c2, self._c3 = coef
        # Searching the knots without x_0 maps xq directly to its interval
        # (count of interior knots ≤ xq), replacing the searchsorted−1 plus
        # clip of the naive lookup with a single call.
        self._x_inner = x[1:]

    def predict(self, xq) -> np.ndarray:
        """Evaluate the spline at query points ``xq`` (vectorised)."""
        if self._x is None:
            raise NotFittedError("CubicSplineInterpolator.predict before fit")
        xq = check_1d(np.atleast_1d(xq), "xq")
        return self._eval_compiled(xq)

    def _eval_compiled(self, xq: np.ndarray) -> np.ndarray:
        """Validation-free Horner evaluation over the compiled coefficients.

        Above-range queries fall into the sentinel interval (see
        :func:`_fit_group`); only below-range queries need a mask.
        """
        x = self._x
        idx = self._x_inner.searchsorted(xq, side="right")
        dx = xq - x[idx]
        out = self._c0[idx] + dx * (
            self._c1[idx] + dx * (self._c2[idx] + dx * self._c3[idx])
        )
        below = xq < x[0]
        if below.any():
            y = self._y
            if self.extrapolate == "clamp":
                out[below] = y[0]
            else:
                # c1 of interval 0 is the first derivative at x_0.
                out[below] = y[0] + self._c1[0] * (xq[below] - x[0])
        return out

    def evaluator(self):
        """The validation-free compiled evaluator, for trusted hot callers.

        Chunked restoration (:class:`repro.core.static_trr.StaticTRRStream`)
        calls the spline once per chunk with indices it generated itself;
        binding the evaluator once per run skips the per-call validation.
        """
        if self._x is None:
            raise NotFittedError("CubicSplineInterpolator.evaluator before fit")
        return self._eval_compiled

    def fit_predict(self, x, y, xq) -> np.ndarray:
        return self.fit(x, y).predict(xq)
