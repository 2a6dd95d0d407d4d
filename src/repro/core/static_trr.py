"""StaticTRR: offline temporal-resolution restoration (paper §4.2.1).

Pipeline:

1. **Spline model** — a natural cubic spline through the sparse IM readings
   recovers the long-term power trend ``P_splined``.
2. **ResModel** — a decision tree over PMCs predicts the deviation of true
   power from the trend (the short-term fluctuation the spline cannot see),
   yielding ``P_residual = P_splined + residual``. Residual targets are
   obtained by 2-fold cross-fitting over the labeled readings: the spline
   is fitted on one half of the knots and residuals measured on the other,
   so the tree never learns from residuals the final spline has already
   absorbed. (The paper trains on a 50 % subset; cross-fitting is the
   symmetric version of the same idea.)
3. **Post-processing** — Algorithm 1 fuses the two estimates using the
   physical power limits and the α/β agreement thresholds.

Many runs fit as one (:func:`fit_streams`, or :func:`fit_checked_streams`
for runs already checked, as in the fleet's round open; a single run is
the stack of one): trend and fold splines as spline stacks, and every
default ResModel in one level-synchronous tree pass per PMC width
(:func:`~repro.ml.tree.fit_trees`), written straight into the compiled
pool the runs' chunks are then restored through. Each run is bitwise
what it would be fitted alone.

Faithfulness note: Operation 1 in the paper's Algorithm 1 triggers on
``P_splined[i] ≥ 30 % · (P_upper − P_bottom)``, which for any loaded node is
always true and would flatten the whole trace. We trigger on the *predicted
mutation magnitude* ``|P_residual[i] − P_splined[i]|`` instead — the reading
of the operation that matches its stated purpose (spreading a detected
sustained phase change across the surrounding half-window). This deviation
is recorded in DESIGN.md.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ..errors import ValidationError
from ..interp.spline import (
    CubicSplineInterpolator,
    SplineStack,
    fit_predict_stack,
    fit_stack,
)
from ..ml.tree import fit_trees
from ..obs import current_tracer
from ..perf import precompile
from ..perf.batch import TreeStack, single_tree_of
from ..sensors.base import SparseReadings
from ..utils.validation import check_2d
from .config import HighRPMConfig


#: The default ResModel: a regression tree over the PMCs. The residual set
#: is small (one row per IM reading), so the tree is kept shallow — at
#: depth 12 it memorises reading noise.
RES_MODEL = dict(max_depth=4, min_samples_leaf=4)


@dataclass(frozen=True)
class StaticTRRResult:
    """All intermediate and final estimates from one restoration."""

    p_splined: np.ndarray
    p_residual: np.ndarray
    p_trr: np.ndarray
    reading_indices: np.ndarray

    def __len__(self) -> int:
        return int(self.p_trr.shape[0])


class StaticTRR:
    """Spline + ResModel + Algorithm-1 fusion.

    Parameters
    ----------
    config:
        Framework configuration (α, β, spike threshold, miss_interval).
    p_upper / p_bottom:
        Physical node-power limits; override the config's values. These are
        platform constants (e.g. ``spec.max_node_power_w``).
    """

    def __init__(
        self,
        config: "HighRPMConfig | None" = None,
        p_upper: "float | None" = None,
        p_bottom: "float | None" = None,
        res_model_factory=None,
        trend_factory=None,
    ) -> None:
        self.config = config or HighRPMConfig()
        self.p_upper = p_upper if p_upper is not None else self.config.p_upper
        self.p_bottom = p_bottom if p_bottom is not None else self.config.p_bottom
        # None: the default ResModel (``RES_MODEL``), fitted in tree
        # stacks; a pluggable learner (the ablations) fits on its own.
        self._res_model_factory = res_model_factory
        # The trend model is pluggable for ablations (spline vs. linear
        # interpolation); anything with fit(x, y)/predict(xq) works.
        self._trend_factory = trend_factory or CubicSplineInterpolator
        self.res_model_ = None
        self.spline_ = None

    # ------------------------------------------------------------------ fit
    def _limits(self, readings: SparseReadings) -> tuple[float, float]:
        """Resolve (p_bottom, p_upper), falling back to data-driven bounds."""
        lo = self.p_bottom
        hi = self.p_upper
        if lo is None:
            lo = float(readings.values.min()) * 0.8
        if hi is None:
            hi = float(readings.values.max()) * 1.2
        if hi <= lo:
            raise ValidationError(f"invalid power limits: [{lo}, {hi}]")
        return float(lo), float(hi)

    def _check_trace(self, readings: SparseReadings, n: int) -> None:
        if readings.n_dense != n:
            raise ValidationError(
                f"readings cover {readings.n_dense} samples but pmcs has {n}"
            )
        if len(readings) < 4:
            raise ValidationError("StaticTRR needs at least four IM readings")

    def fit_restore(
        self, pmcs: np.ndarray, readings: SparseReadings
    ) -> StaticTRRResult:
        """Fit on one trace's sparse readings and restore it to 1 Sa/s."""
        pmcs = check_2d(pmcs, "pmcs")
        n = pmcs.shape[0]
        self._check_trace(readings, n)
        idx = readings.indices
        vals = readings.values
        _fit_all([self], [pmcs[idx]], [readings])
        t_all = np.arange(n, dtype=np.float64)
        tracer = current_tracer()

        with tracer.span("trr.spline"):
            p_splined = self.spline_.predict(t_all)

        with tracer.span("trr.resmodel"):
            residual_hat = self.res_model_.predict(pmcs)
            if not self.config.residual_signed:
                # Unsigned mode (the paper's ABS target): apply the magnitude
                # in the direction of the local spline curvature error proxy.
                residual_hat = residual_hat * np.sign(
                    np.gradient(p_splined) + 1e-12
                )
            p_residual = p_splined + residual_hat

        # Step 3: Algorithm-1 fusion.
        with tracer.span("trr.fusion"):
            p_trr = self._post_process(p_splined.copy(), p_residual.copy())
            # Observed instants keep their readings — they are measurements.
            p_trr[idx] = vals
        return StaticTRRResult(
            p_splined=p_splined,
            p_residual=p_residual,
            p_trr=p_trr,
            reading_indices=idx.copy(),
        )

    # ---------------------------------------------------- Algorithm 1 fusion
    def _post_process(
        self, p_splined: np.ndarray, p_residual: np.ndarray
    ) -> np.ndarray:
        cfg = self.config
        lo, hi = self._lo, self._hi
        n = p_splined.shape[0]
        half = cfg.miss_interval // 2

        # Operation 1: large predicted mutations are sustained phase changes;
        # hold the mutated level across the half-window (see module note).
        mutation = p_residual - p_splined
        big = np.flatnonzero(np.abs(mutation) >= cfg.spike_fraction * (hi - lo))
        # repro-lint: disable=per-sample-loop — holds overlap and later holds
        # must read earlier holds' writes (in-place propagation is the
        # reference semantics); iterations are O(spikes), not O(samples).
        for i in big:
            start, stop = max(0, i - half), min(n, i + half)
            p_splined[start:stop] = p_splined[i]

        # Operations 2 & 3: out-of-range ResModel output is distrusted.
        out_of_range = (p_residual >= hi) | (p_residual <= lo)
        p_residual[out_of_range] = p_splined[out_of_range]

        # Fusion by agreement band. Within the α band the estimators agree
        # and the spline is kept; beyond the β band the ResModel is
        # distrusted and the spline is kept too — so the spline is the
        # default on both sides and only the mid band blends the two.
        gap = np.abs(p_splined - p_residual)
        floor = np.minimum(np.abs(p_splined), np.abs(p_residual))
        mid = (gap > cfg.alpha * floor) & (gap <= cfg.beta * floor)
        p_trr = np.where(mid, 0.5 * (p_splined + p_residual), p_splined)
        return np.clip(p_trr, lo, hi)

    # -------------------------------------------------------------- predict
    def restore(self, pmcs: np.ndarray, readings: SparseReadings) -> np.ndarray:
        """Convenience: fit_restore and return only the fused estimate."""
        return self.fit_restore(pmcs, readings).p_trr

    # ------------------------------------------------------------- streaming
    def fit_stream(
        self, pmcs_rows: np.ndarray, readings: SparseReadings
    ) -> "StaticTRRStream":
        """Fit from the readings alone and return a bounded-memory stream.

        ``pmcs_rows`` are the PMC rows *at the reading instants* (shape
        ``(len(readings), d)``) — the only dense data the fit needs. The
        returned stream restores the trace chunk by chunk; concatenating
        its outputs is bit-identical to ``fit_restore(...).p_trr`` on the
        same trace.
        """
        rows = check_2d(pmcs_rows, "pmcs_rows")
        return fit_streams([self], [rows], [readings])[0]

    def check_stream(self, pmcs_rows: np.ndarray,
                     readings: SparseReadings) -> np.ndarray:
        """Check one run's :meth:`fit_stream` inputs without fitting: the
        readings cover a trace and hold at least four values, there is one
        finite PMC row per reading, and the power limits resolve. Returns
        the rows as a 2-D array; raises
        :class:`~repro.errors.ValidationError`."""
        pmcs_rows = check_2d(pmcs_rows, "pmcs_rows")
        self._check_trace(readings, int(readings.n_dense))
        if pmcs_rows.shape[0] != len(readings):
            raise ValidationError(
                f"fit_stream needs one PMC row per reading: got "
                f"{pmcs_rows.shape[0]} rows for {len(readings)} readings"
            )
        if not np.isfinite(pmcs_rows).all():
            raise ValidationError("PMC rows at the readings must be finite")
        self._limits(readings)
        return pmcs_rows


def fit_streams(trrs, pmcs_rows, readings) -> "list[StaticTRRStream]":
    """:meth:`StaticTRR.fit_stream` for many runs in one pass.

    ``trrs``, ``pmcs_rows`` and ``readings`` are parallel sequences, one
    entry per run. Every run's default spline trend fits as one stack per
    knot count, its two cross-fit fold splines fit and evaluate at their
    held-out knots as stacks too, and every default ResModel fits in one
    level-synchronous tree pass per PMC width
    (:func:`~repro.ml.tree.fit_trees`), compiled into one pool that the
    first restore's :class:`~repro.perf.TreeStack` reads without
    concatenating the trees. Each returned stream
    is bitwise equal to the run's own ``fit_stream``. A run that fails
    :meth:`StaticTRR.check_stream` raises before any run is fitted.
    """
    rows = [trr.check_stream(p, r)
            for trr, p, r in zip(trrs, pmcs_rows, readings)]
    return fit_checked_streams(trrs, rows, readings)


def fit_checked_streams(trrs, pmcs_rows, readings
                        ) -> "list[StaticTRRStream]":
    """:func:`fit_streams` for runs whose inputs already passed
    :meth:`StaticTRR.check_stream`: ``pmcs_rows`` are the 2-D arrays it
    returned. The caller that checks each run on its own first (the
    fleet's round open, so a malformed run is lost alone) fits the runs
    that passed here, and nothing is checked twice."""
    _fit_all(trrs, pmcs_rows, readings)
    return [StaticTRRStream(trr, r) for trr, r in zip(trrs, readings)]


def _fit_all(trrs, pmcs_rows, readings) -> None:
    """Steps 1 and 2 for many runs: trend splines, cross-fitted residual
    targets and ResModels (the dense predictions come later).

    Runs with the default trend model fit as spline stacks
    (:func:`~repro.interp.spline.fit_stack`), and their fold splines fit
    and evaluate without being kept
    (:func:`~repro.interp.spline.fit_predict_stack`); a pluggable trend
    model fits and predicts on its own. The default ResModels fit as tree
    stacks, one per PMC width; a pluggable one fits on its own.
    """
    tracer = current_tracer()
    knots, folds, held_out = [], [], []
    for trr, r in zip(trrs, readings):
        trr._lo, trr._hi = trr._limits(r)
        x = r.indices.astype(float)
        vals = r.values
        # Step 1: the trend from all readings. Step 2's 2-fold cross-fit:
        # each fold spline fits one parity of the readings and is measured
        # on the other (at least four readings, so each fold has >= 2).
        knots.append((x, vals))
        folds += [(x[0::2], vals[0::2]), (x[1::2], vals[1::2])]
        held_out += [x[1::2], x[0::2]]
    with tracer.span("trr.spline"):
        for trr, spline in zip(trrs, _fit_trends(
                [trr._trend_factory for trr in trrs], knots)):
            trr.spline_ = spline
    with tracer.span("trr.resmodel"):
        fold_preds = _fold_predictions(
            [trr._trend_factory for trr in trrs for _ in range(2)], folds,
            held_out)
        targets = []
        for k, (trr, r) in enumerate(zip(trrs, readings)):
            vals = r.values
            residual_targets = np.empty(len(r))
            residual_targets[1::2] = vals[1::2] - fold_preds[2 * k]
            residual_targets[0::2] = vals[0::2] - fold_preds[2 * k + 1]
            if not trr.config.residual_signed:
                residual_targets = np.abs(residual_targets)
            targets.append(residual_targets)
        _fit_res_models(trrs, pmcs_rows, targets)


def _fit_trends(factories, knots) -> list:
    """One fitted trend model per knot set; default splines as one stack."""
    stacked = [i for i, f in enumerate(factories) if f is CubicSplineInterpolator]
    models = [None] * len(knots)
    for i, spline in zip(stacked, fit_stack([knots[i] for i in stacked])):
        models[i] = spline
    for i, factory in enumerate(factories):
        if models[i] is None:
            models[i] = factory().fit(*knots[i])
    return models


def _fold_predictions(factories, knots, queries) -> list:
    """Each knot set's trend model at its own queries, the model discarded;
    default splines as stacks."""
    stacked = [i for i, f in enumerate(factories) if f is CubicSplineInterpolator]
    preds = [None] * len(knots)
    for i, pred in zip(stacked, fit_predict_stack(
            [knots[i] for i in stacked], [queries[i] for i in stacked])):
        preds[i] = pred
    for i, factory in enumerate(factories):
        if preds[i] is None:
            preds[i] = factory().fit(*knots[i]).predict(queries[i])
    return preds


def _fit_res_models(trrs, pmcs_rows, targets) -> None:
    """Fit every run's ResModel. Default ResModels fit in one
    :func:`~repro.ml.tree.fit_trees` pass, which groups them by PMC width
    and builds their compiled form as it fits; a pluggable one fits on its
    own and is flattened eagerly, since the dense prediction runs over
    whole traces or fleet-stacked chunks, the batch shapes the compiled
    descent is built for."""
    default = [i for i, trr in enumerate(trrs) if trr._res_model_factory is None]
    if default:
        for i, tree in zip(default, fit_trees([pmcs_rows[i] for i in default],
                                              [targets[i] for i in default],
                                              **RES_MODEL)):
            trrs[i].res_model_ = tree
    for i, trr in enumerate(trrs):
        if trr._res_model_factory is not None:
            trr.res_model_ = trr._res_model_factory()
            trr.res_model_.fit(pmcs_rows[i], targets[i])
            precompile(trr.res_model_)


class _FusionScan:
    """One run's state in the streaming, bit-exact replay of
    :meth:`StaticTRR._post_process` (see :func:`restore_streams`).

    Operation 1 is the only non-elementwise step of Algorithm 1: a hold at
    sample ``i`` copies the (already mutated) spline level across the
    window ``[i − half, i + half)``, and later holds read earlier holds'
    writes. The scan keeps the not-yet-final span ``[emitted, fed)`` of the
    working spline values and of the original residual estimates, and
    applies holds in global ascending order — forward writes that spill
    past the fed frontier are queued in ``pending`` and land before the
    next chunk's own holds. A position is final once every hold that can
    reach it has been applied, i.e. with a lag of ``half`` samples behind
    the feed. Operations 2/3, the agreement-band fusion, the clip and the
    measured-sample override are elementwise and run at finalisation.
    """

    __slots__ = ("half", "band", "thresh", "idx", "marks", "vals", "n",
                 "fed", "emitted", "sel", "w_tail", "r_tail", "pending")

    def __init__(self, config: HighRPMConfig, lo: float, hi: float,
                 readings: SparseReadings) -> None:
        self.half = config.miss_interval // 2
        #: the power clamps and the α/β agreement-band factors.
        self.band = (lo, hi, config.alpha, config.beta)
        self.thresh = config.spike_fraction * (hi - lo)
        self.idx = readings.indices
        #: the reading positions as ints, for a bisect per pass.
        self.marks = self.idx.tolist()
        self.vals = readings.values
        self.n = int(readings.n_dense)
        self.fed = 0
        self.emitted = 0
        #: readings before ``emitted`` (already written over their samples).
        self.sel = 0
        #: working spline values and original residual estimates of the
        #: unfinalised span ``[emitted, fed)``.
        self.w_tail = np.empty(0)
        self.r_tail = np.empty(0)
        #: forward hold writes beyond the fed frontier, in hold order.
        self.pending: "list[tuple[int, int, float]]" = []


class StaticTRRStream:
    """Bounded-memory chunked restoration from a fitted :class:`StaticTRR`.

    Obtained via :meth:`StaticTRR.fit_stream`. Feed the trace's PMC rows in
    order with :meth:`restore_chunk`; outputs lag inputs by half a
    miss-interval (an Operation-1 hold at ``i`` rewrites ``[i − half,
    i + half)``, so a sample is final only once the scan has advanced
    ``half`` samples past it). :meth:`finish` flushes the tail. State is
    O(chunk + miss_interval) regardless of trace length. Both are the
    :func:`restore_streams` of one.
    """

    def __init__(self, trr: StaticTRR, readings: SparseReadings) -> None:
        self._trr = trr
        self.n = int(readings.n_dense)
        self._scan = _FusionScan(trr.config, trr._lo, trr._hi, readings)
        self._unsigned = not trr.config.residual_signed
        # The default spline trend evaluates in spline stacks; a pluggable
        # trend model is called on its own, through its compiled evaluator
        # when it has one (every query is an index range this stream
        # generates itself, so predict's validation is pure overhead).
        spline = trr.spline_
        self._spline = spline if _stackable(spline) else None
        get_eval = getattr(spline, "evaluator", None)
        self._trend_eval = get_eval() if get_eval is not None else spline.predict
        #: the SplineStack and TreeStack this run last evaluated in (each
        #: reused while its members stay the same).
        self._spline_stack: "SplineStack | None" = None
        self._tree = single_tree_of(trr.res_model_)
        self._tree_stack: "TreeStack | None" = None

    @property
    def samples_fed(self) -> int:
        return self._scan.fed

    @property
    def samples_emitted(self) -> int:
        return self._scan.emitted

    def restore_chunk(
        self, pmc_chunk: np.ndarray, residual_hat: "np.ndarray | None" = None
    ) -> tuple[int, np.ndarray]:
        """Feed the next chunk; returns ``(start, p_trr_part)`` finalised.

        ``residual_hat`` optionally supplies the raw ResModel prediction
        for the chunk; it must equal ``res_model_.predict(pmc_chunk)``.
        """
        return restore_streams([self], [pmc_chunk], [False], [residual_hat])[0]

    def finish(self) -> tuple[int, np.ndarray]:
        """Flush the trailing half-window once the whole trace is fed."""
        return restore_streams([self], [np.empty((0, 0))], [True])[0]


def restore_streams(streams, pmc_chunks, finals, residual_hats=None
                    ) -> "list[tuple[int, np.ndarray]]":
    """:meth:`StaticTRRStream.restore_chunk` for many runs in one pass.

    ``streams``, ``pmc_chunks`` and ``finals`` are parallel sequences, one
    entry per run (each stream at most once); ``residual_hats`` optionally
    supplies each chunk's raw ResModel prediction (``None`` entries are
    predicted here, single trees as one :class:`~repro.perf.TreeStack`
    per PMC width). A run whose ``finals`` entry is true must be fed to
    its end by its chunk, and is flushed in the same pass, as if
    :meth:`~StaticTRRStream.finish` followed. Returns each run's newly
    final ``(start, p_trr_part)``, bitwise equal to the run's own
    ``restore_chunk`` (then ``finish``) output.

    Every run's default spline trend evaluates in one
    :class:`~repro.interp.spline.SplineStack` (cached on the streams while
    the member set is unchanged); the Operation-1 spike mask is computed
    for every run at once, and holds propagate per run only where a spike
    or a spilled hold is; the final spans are fused in one elementwise
    pass, in place, with each run's limits and thresholds broadcast over
    its samples. A malformed entry raises before any run advances.
    """
    if residual_hats is None:
        residual_hats = [None] * len(streams)
    if not len(streams) == len(pmc_chunks) == len(finals) == len(residual_hats):
        raise ValidationError(
            f"restore_streams needs one chunk, final flag and residual entry "
            f"per stream: got {len(streams)} streams, {len(pmc_chunks)} "
            f"chunks, {len(finals)} flags, {len(residual_hats)} residuals"
        )
    if len({id(stream) for stream in streams}) != len(streams):
        raise ValidationError("restore_streams got a stream more than once")
    chunks, hats = [], []
    for stream, chunk, final, hat in zip(streams, pmc_chunks, finals,
                                         residual_hats):
        chunk = check_2d(chunk, "pmc_chunk")
        start = stream._scan.fed
        stop = start + chunk.shape[0]
        if stop > stream.n:
            raise ValidationError(
                f"chunk [{start}, {stop}) overruns the {stream.n}-sample trace"
            )
        if final and stop != stream.n:
            raise ValidationError(
                f"flush before the trace is complete: fed {stop} of {stream.n}"
            )
        if hat is not None:
            hat = np.asarray(hat, dtype=np.float64)
            if hat.shape != (chunk.shape[0],):
                raise ValidationError(
                    f"residual_hat has shape {hat.shape}, "
                    f"expected ({chunk.shape[0]},)"
                )
        chunks.append(chunk)
        hats.append(hat)
    if not streams:
        return []
    counts = [chunk.shape[0] for chunk in chunks]
    tracer = current_tracer()
    with tracer.span("trr.spline"):
        p_splined, gradients = _trend(streams, counts)
    with tracer.span("trr.resmodel"):
        residual = np.concatenate(_residuals(streams, chunks, hats))
        at = 0
        for m, grad in zip(counts, gradients):
            if grad is not None:
                # Unsigned mode (the paper's ABS target): apply the magnitude
                # in the direction of the local spline curvature error proxy.
                residual[at:at + m] *= np.sign(grad + 1e-12)
            at += m
        p_residual = np.add(residual, p_splined, out=residual)
    with tracer.span("trr.fusion"):
        return _fuse([stream._scan for stream in streams], p_splined,
                     p_residual, counts, finals)


def _residuals(streams, chunks, hats) -> "list[np.ndarray]":
    """Each run's raw ResModel output for its chunk: its ``hats`` entry if
    given, else from one :class:`~repro.perf.TreeStack` descent per PMC
    width over the runs whose ResModel is a single tree, else its model's
    own ``predict``.

    A stack concatenates its members' feature slots, so only trees over
    the same PMC width fuse (CPU hosts with CPU hosts, GPU nodes with GPU
    nodes); the trees of one :func:`~repro.ml.tree.fit_trees` pass, in
    order, already lie in one pool, which the stack reads as it is. Like
    the spline stack, it is cached on its member streams and reused while
    the width's members stay the same trees."""
    out = list(hats)
    groups: "dict[int, list[int]]" = {}
    for i, (stream, chunk, hat) in enumerate(zip(streams, chunks, hats)):
        if hat is None and stream._tree is not None:
            groups.setdefault(chunk.shape[1], []).append(i)
        elif hat is None:
            out[i] = stream._trr.res_model_.predict(chunk) if chunk.shape[0] \
                else np.empty(0)
    for members in groups.values():
        trees = [streams[i]._tree for i in members]
        stack = streams[members[0]]._tree_stack
        if stack is None or stack.trees != trees:
            stack = TreeStack(trees)
            for i in members:
                streams[i]._tree_stack = stack
        for i, part in zip(members, stack.predict([chunks[i] for i in members])):
            out[i] = part
    return out


def _stackable(trend) -> bool:
    """Whether a fitted trend model evaluates in spline stacks."""
    return type(trend) is CubicSplineInterpolator and trend.extrapolate == "linear"


def _trend(streams, counts) -> "tuple[np.ndarray, list]":
    """Every run's trend over its next ``counts`` samples, concatenated, and
    per run ``np.gradient`` of the dense trend there (``None`` unless the
    run's residuals are unsigned)."""
    spans = []
    for stream, m in zip(streams, counts):
        start = stream._scan.fed
        if stream._unsigned and m:
            # One extra trend point on each side supplies the centred
            # differences of the gradient.
            spans.append((max(0, start - 1), min(stream.n, start + m + 1)))
        else:
            spans.append((start, start + m))
    values = [None] * len(streams)
    stacked = [i for i, stream in enumerate(streams) if stream._spline is not None]
    if stacked:
        members = [streams[i] for i in stacked]
        splines = tuple(stream._spline for stream in members)
        stack = members[0]._spline_stack
        if stack is None or stack.splines != splines:
            stack = SplineStack(splines)
            for stream in members:
                stream._spline_stack = stack
        lo = np.array([spans[i][0] for i in stacked], dtype=np.intp)
        sizes = np.array([spans[i][1] - spans[i][0] for i in stacked],
                         dtype=np.intp)
        ends = np.cumsum(sizes)
        # Every member's index range, as one float array.
        xq = (np.arange(ends[-1], dtype=np.intp)
              + np.repeat(lo - (ends - sizes), sizes)).astype(np.float64)
        flat = stack.predict_concat(xq, sizes)
        if len(stacked) == len(streams) and not any(
                stream._unsigned for stream in streams):
            return flat, [None] * len(streams)
        parts = np.split(flat, ends[:-1])
        for i, part in zip(stacked, parts):
            values[i] = part
    parts, gradients = [], []
    for stream, m, (a, b), s in zip(streams, counts, spans, values):
        if s is None:
            s = stream._trend_eval(np.arange(a, b, dtype=np.float64))
        start = stream._scan.fed
        parts.append(s[start - a:start - a + m])
        gradients.append(_gradient(s, a, start, start + m, stream.n)
                         if stream._unsigned else None)
    return np.concatenate(parts), gradients


def _gradient(s: np.ndarray, a: int, start: int, stop: int, n: int
              ) -> np.ndarray:
    """``np.gradient`` of an ``n``-sample dense trend, restricted to
    ``[start, stop)``, from the trend ``s`` over ``[a, min(n, stop + 1))``
    (``a = max(0, start - 1)``).

    Bit-identical to ``np.gradient(trend)[start:stop]``: the extra point on
    each side supplies the centred differences, and the trace edges fall
    back to the same one-sided differences.
    """
    if stop == start:
        return np.empty(0)
    pos = np.arange(start, stop) - a
    left = np.maximum(pos - 1, 0)
    right = np.minimum(pos + 1, s.shape[0] - 1)
    g = (s[right] - s[left]) / 2.0
    if start == 0:
        g[0] = s[1] - s[0]
    if stop == n:
        g[-1] = s[-1] - s[-2]
    return g


def _fuse(scans, p_splined, p_residual, counts, finals
          ) -> "list[tuple[int, np.ndarray]]":
    """Feed every run's next span into its scan and finalise what became
    final, in one pass; ``p_splined``/``p_residual`` concatenate the runs'
    new spans (``counts[i]`` samples each) and belong to the pass (they may
    be fused in place).

    Each run's working span is its unfinalised tail followed by its new
    samples; the spans are laid end to end, so the holds write into one
    array and the elementwise fusion runs once over all of it, in place
    (the unfinalised tails are copied out first, fused too, and the
    result discarded).
    """
    # Operation 1's trigger, over every run's newly fed samples at once.
    hits = np.flatnonzero(np.abs(p_residual - p_splined) >= np.repeat(
        [scan.thresh for scan in scans], counts))
    tails = [scan.fed - scan.emitted for scan in scans]
    lengths = [t + m for t, m in zip(tails, counts)]
    seg0 = list(accumulate(lengths, initial=0))  # run r's span starts here
    new_at = list(accumulate(counts, initial=0))
    tail_at = list(accumulate(tails, initial=0))
    if tail_at[-1]:
        w = np.empty(seg0[-1])
        res = np.empty(seg0[-1])
        into = np.arange(new_at[-1]) + np.repeat(
            np.subtract(seg0[:-1], new_at[:-1]) + tails, counts)
        w[into] = p_splined
        res[into] = p_residual
        into = np.arange(tail_at[-1]) + np.repeat(
            np.subtract(seg0[:-1], tail_at[:-1]), tails)
        w[into] = np.concatenate([scan.w_tail for scan in scans])
        res[into] = np.concatenate([scan.r_tail for scan in scans])
        del into
    else:  # no unfinalised tails: the new spans are the working spans
        w, res = p_splined, p_residual
    stops = [scan.fed + m for scan, m in zip(scans, counts)]
    # Earlier chunks' holds whose windows spill into (or past) a new span.
    pending = []
    for scan, s0, stop in zip(scans, seg0, stops):
        still = []
        off = s0 - scan.emitted  # w index of trace position p: p + off
        for w_start, w_stop, v in scan.pending:
            w[w_start + off:min(w_stop, stop) + off] = v
            if w_stop > stop:
                still.append((stop, w_stop, v))
        pending.append(still)
    if hits.size:
        owners = np.searchsorted(new_at, hits, side="right") - 1
        # repro-lint: disable=per-sample-loop — ascending in-place hold
        # propagation is the bit-identity reference semantics (overlapping
        # holds must see earlier writes); O(spikes) per pass, not O(samples).
        for r, h in zip(owners.tolist(), hits.tolist()):
            scan = scans[r]
            i = scan.fed + h - new_at[r]
            off = seg0[r] - scan.emitted
            v = w[i + off]
            w_stop = min(scan.n, i + scan.half)
            w[max(0, i - scan.half) + off:min(w_stop, stops[r]) + off] = v
            if w_stop > stops[r]:
                pending[r].append((stops[r], w_stop, v))
    out, marks, offsets, n_marks, measured = [], [], [], [], []
    for scan, s0, s1, stop, final, still in zip(
            scans, seg0, seg0[1:], stops, finals, pending):
        base = scan.emitted
        to = scan.n if final else max(base, stop - scan.half)
        k = to - base
        sel = bisect_left(scan.marks, to, scan.sel)
        if sel > scan.sel:
            marks.append(scan.idx[scan.sel:sel])
            measured.append(scan.vals[scan.sel:sel])
            offsets.append(s0 - base)
            n_marks.append(sel - scan.sel)
        # w fuses in place below, so the run's output is a view of it.
        out.append((base, w[s0:s0 + k]))
        scan.sel = sel
        # Copies, so a run's tail does not keep the whole pass alive.
        scan.w_tail = w[s0 + k:s1].copy()
        scan.r_tail = res[s0 + k:s1].copy()
        scan.pending = still
        scan.fed = stop
        scan.emitted = to
    _band(w, res, np.array([scan.band for scan in scans]).T, lengths)
    if marks:
        # Observed instants keep their readings — they are measurements.
        w[np.concatenate(marks) + np.repeat(offsets, n_marks)] = \
            np.concatenate(measured)
    return out


def _band(w, res, band, lengths) -> None:
    """Operations 2 & 3, the agreement-band fusion and the clamp, in place:
    ``w`` (working spline values) becomes the fused estimate and ``res``
    (ResModel estimates) is overwritten. ``band`` holds each run's
    ``(lo, hi, alpha, beta)`` as columns, broadcast over its ``lengths[r]``
    samples; at most three other span-sized arrays are alive at once."""
    def per_sample(k: int) -> np.ndarray:
        return np.repeat(band[k], lengths)

    # Out-of-range ResModel output is distrusted (the spline replaces it).
    distrust = res >= per_sample(1)
    distrust |= res <= per_sample(0)
    np.copyto(res, w, where=distrust)
    # Fusion by agreement band (spline wins outside the mid band).
    gap = np.subtract(w, res)
    np.abs(gap, out=gap)
    floor = np.abs(w)
    np.minimum(floor, np.abs(res), out=floor)
    threshold = per_sample(2)
    threshold *= floor
    mid = gap > threshold
    del threshold
    np.multiply(floor, per_sample(3), out=floor)
    mid &= gap <= floor
    np.add(w, res, out=gap)
    gap *= 0.5
    np.copyto(w, gap, where=mid)
    np.minimum(w, per_sample(1), out=w)
    np.maximum(w, per_sample(0), out=w)
