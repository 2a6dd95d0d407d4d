"""FleetMonitor and the cross-node batched inference primitives.

The fleet contract is strict: interleaving N nodes' runs and batching
their ResModel/SRR predictions must be bit-identical, node for node, to N
sequential ``observe_run`` calls — the batched compiled predictors are
batch-size independent, so fusing work across nodes changes cost, never
values.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.dynamic_trr import run_fine_tunes
from repro.core.highrpm import PROV_MODEL_ONLY, provenance_from_readings
from repro.core.static_trr import StaticTRR, fit_streams, restore_streams
from repro.errors import ConvergenceError, NotFittedError, ValidationError
from repro.faults import FaultySensor, OutageWindow
from repro.gpu import AcceleratedNodeSimulator, gpu_workload
from repro.ml.tree import DecisionTreeRegressor
from repro.monitor import (
    FleetMonitor,
    GPUSRRHead,
    MemoryLogSink,
    NodeProfile,
    PowerMonitorService,
    ResiliencePolicy,
    SamplingGovernor,
)
from repro.monitor import pipeline as pipeline_module
from repro.monitor.pipeline import GateStage, IngestStage
from repro.obs import MetricsRegistry
from repro.perf import CompiledTree, TreeStack, single_tree_of
from repro.sensors import IPMISensor
from repro.serve import ServeConfig
from repro.stream import Sink


@pytest.fixture(scope="module")
def fitted_trees(rng_module):
    trees, parts = [], []
    for i, (n, depth, leaf) in enumerate([(200, 4, 4), (150, 8, 1), (60, 1, 60)]):
        X = rng_module.normal(size=(n, 5))
        y = rng_module.normal(size=n)
        trees.append(
            DecisionTreeRegressor(max_depth=depth, min_samples_leaf=leaf).fit(X, y)
        )
        parts.append(rng_module.normal(size=(17 + 13 * i, 5)))
    return trees, parts


@pytest.fixture(scope="module")
def rng_module():
    return np.random.default_rng(99)


class TestTreeStack:
    def test_matches_per_tree_predict_bitwise(self, fitted_trees):
        trees, parts = fitted_trees
        compiled = [single_tree_of(t) for t in trees]
        assert all(isinstance(c, CompiledTree) for c in compiled)
        outs = TreeStack(compiled).predict(parts)
        for tree, X, out in zip(trees, parts, outs):
            np.testing.assert_array_equal(out, tree.predict(X))

    def test_handles_empty_parts(self, fitted_trees):
        trees, _ = fitted_trees
        stack = TreeStack([single_tree_of(t) for t in trees])
        outs = stack.predict([np.empty((0, 5)) for _ in trees])
        assert all(out.shape == (0,) for out in outs)

    def test_part_count_must_match_tree_count(self, fitted_trees):
        trees, parts = fitted_trees
        stack = TreeStack([single_tree_of(t) for t in trees])
        with pytest.raises(NotFittedError):
            stack.predict(parts[:1])

    def test_single_tree_of_rejects_non_trees(self):
        assert single_tree_of(object()) is None


class TestPredictBatched:
    def test_matches_per_part_predict_bitwise(self, chaos_reference):
        reference, bundle = chaos_reference
        srr = reference.model.srr
        pmcs, p_node = bundle.pmcs.matrix, bundle.node.values
        parts = [(pmcs[:11], p_node[:11]), (pmcs[11:30], p_node[11:30]),
                 (pmcs[30:], p_node[30:])]
        for (pm, pn), (b_cpu, b_mem) in zip(parts, srr.predict_batched(parts)):
            s_cpu, s_mem = srr.predict(pm, pn)
            np.testing.assert_array_equal(b_cpu, s_cpu)
            np.testing.assert_array_equal(b_mem, s_mem)

    def test_empty_input(self, chaos_reference):
        assert chaos_reference[0].model.srr.predict_batched([]) == []

    def test_unfitted_raises(self):
        from repro.core.srr import SRR

        with pytest.raises(NotFittedError):
            SRR().predict_batched([])


def _twin_services(chaos_reference, node_ids, dead=(), policy=None,
                   sinks=None, outages=None, gpu=None):
    """Two identical services, each logging into its own MemoryLogSink
    (read with ``_log``) in front of ``sinks``; ``dead`` nodes' feeds never
    answer and ``outages`` maps a node to the window its feed goes silent
    in. With ``gpu`` (a trained ``(HighRPM, GPUSRR)`` pair), nodes named
    ``gpu-*`` join a GPU device class and both services run a sampling
    governor."""
    reference, _ = chaos_reference
    outages = outages or {}
    services = []
    for _ in range(2):
        svc = PowerMonitorService(reference.model, reference.spec,
                                  policy=policy, registry=MetricsRegistry(),
                                  sinks=[MemoryLogSink(), *(sinks or [])])
        if gpu is not None:
            svc.register_device_class("gpu", gpu[0], head=GPUSRRHead(gpu[1]))
            svc.set_governor(SamplingGovernor(
                ServeConfig(governor=True).governor_policy()
            ))
        for i, nid in enumerate(node_ids):
            if nid.startswith("gpu-"):
                svc.register_node(nid, profile=NodeProfile(
                    device_class="gpu", seed=400 + i
                ))
            elif nid in dead:
                svc.register_node(nid, sensor=FaultySensor(
                    IPMISensor(reference.spec, seed=41),
                    faults=[OutageWindow(0, 10_000_000)], seed=42,
                ))
            elif nid in outages:
                svc.register_node(nid, sensor=FaultySensor(
                    IPMISensor(reference.spec, seed=400 + i),
                    faults=[outages[nid]], seed=43,
                ))
            else:
                svc.register_node(nid, seed=400 + i)
        services.append(svc)
    return services


def _log(svc, node_id):
    """One node's log in the MemoryLogSink ``_twin_services`` attaches."""
    return svc.sinks[0].log(node_id)


#: Every family a run's close writes.
RUN_FAMILIES = (
    "repro_sched_stride", "repro_sched_interval_seconds",
    "repro_sched_decisions_total", "repro_monitor_runs_total",
    "repro_monitor_samples_total", "repro_monitor_readings_per_run",
    "repro_monitor_component_energy_joules_total",
    "repro_monitor_retries_total", "repro_monitor_gated_readings_total",
    "repro_monitor_outage_runs_total", "repro_monitor_degraded_runs_total",
)


def _run_families(svc) -> dict:
    """The run-level families' samples, in a label-order-free form."""
    snapshot = svc.registry.snapshot()
    return {
        name: sorted((sorted(s["labels"].items()), repr(s))
                     for s in snapshot[name]["samples"])
        for name in RUN_FAMILIES if name in snapshot
    }


def _online_counts(svc) -> tuple:
    """The service's online fine-tune and re-sync counters."""
    finetunes = svc.registry.counter(
        "repro_online_finetune_total", "", ("kind",)
    )
    return (finetunes.labels(kind="regular").value,
            finetunes.labels(kind="resync").value,
            svc.registry.counter("repro_online_resyncs_total", "").value)


class TestFleetMonitor:
    NODE_IDS = ("fl-a", "fl-b", "fl-c")
    #: the mixed-stack fleet: fl-b's feed is dead (model-only), fl-c's goes
    #: silent mid-run and recovers, the rest read on their own seeds.
    STACK_IDS = ("fl-a", "fl-b", "fl-c", "fl-d", "fl-e")
    #: CPU and GPU nodes opened together; fl-b's feed is dead.
    HETERO_IDS = ("fl-a", "fl-b", "gpu-a", "fl-c", "gpu-b", "fl-d")

    @pytest.mark.parametrize(
        "online, seq_chunk, strict_dead, mixed",
        [(True, 16, None, False), (False, 16, None, False),
         (True, None, None, False), (False, None, None, False),
         (True, 16, "fl-b", False), (True, 16, None, True),
         (False, 16, None, "hetero"), (False, 16, None, "late")],
        ids=["online", "offline", "online-whole-run", "offline-whole-run",
             "strict-dead-feed", "online-mixed-stacks",
             "offline-hetero-submit-all", "offline-late-submit"],
    )
    def test_fleet_equals_sequential_observe_run(
        self, chaos_reference, monkeypatch, request, online, seq_chunk,
        strict_dead, mixed,
    ):
        _, bundle = chaos_reference
        policy = ResiliencePolicy(degrade_to_model_only=False) \
            if strict_dead else None
        hetero = mixed == "hetero"
        #: the last node's static run opens three ticks into the round,
        #: beside static runs already under way.
        late = mixed == "late"
        node_ids = self.HETERO_IDS if hetero else \
            self.STACK_IDS if mixed else self.NODE_IDS
        failing = {strict_dead} if strict_dead else set()
        seq_svc, fleet_svc = _twin_services(
            chaos_reference, node_ids, policy=policy,
            dead=failing | ({"fl-b"} if mixed else set()),
            outages={"fl-c": OutageWindow(40, 40)} if mixed is True else None,
            gpu=request.getfixturevalue("serve_gpu_models") if hetero else None,
        )
        bundles = {nid: bundle for nid in node_ids}
        if hetero:
            accel = AcceleratedNodeSimulator(host_spec=chaos_reference[0].spec,
                                             seed=5)
            for nid in node_ids:
                if nid.startswith("gpu-"):
                    bundles[nid] = accel.run(gpu_workload("gemm", seed=5),
                                             duration_s=len(bundle))
        # Record how each tick's fine-tunes split into stacks, how each
        # round open's stacked StaticTRR fit grouped its runs, and at which
        # positions each stacked static restore found its runs.
        rounds, opens, positions = [], [], []

        def spy(jobs):
            rounds.append(Counter(job.key for job in jobs))
            run_fine_tunes(jobs)

        def fit_spy(trrs, pmcs_rows, readings):
            opens.append(sorted(len(r) for r in readings))
            return fit_streams(trrs, pmcs_rows, readings)

        def restore_spy(streams, pmc_chunks, finals, residual_hats=None):
            positions.append({s.samples_fed for s in streams})
            return restore_streams(streams, pmc_chunks, finals, residual_hats)

        monkeypatch.setattr(pipeline_module, "run_fine_tunes", spy)
        monkeypatch.setattr(pipeline_module, "fit_streams", fit_spy)
        monkeypatch.setattr(pipeline_module, "restore_streams", restore_spy)
        # The governor thins the feeds from the second round on.
        n_rounds = 2 if hetero else 1
        seq, seq_errors = [], {}
        for _ in range(n_rounds):
            seq.append({})
            for nid in node_ids:
                try:
                    seq[-1][nid] = seq_svc.observe_run(
                        nid, bundles[nid], online=online, chunk_size=seq_chunk
                    )
                except Exception as exc:  # the strict dead feed raises
                    seq_errors[nid] = type(exc)
        # a fleet of one opens and restores through stacks of one; only
        # the fleet's stacks are inspected below
        rounds.clear()
        opens.clear()
        positions.clear()
        fleet = FleetMonitor(fleet_svc, chunk_size=16)
        closes = []  # how many runs each of the fleet's close passes carried
        close_all = fleet._close_all

        def close_spy(runs):
            closes.append(len(runs))
            return close_all(runs)

        fleet._close_all = close_spy
        fleet_errors, results = {}, []
        for _ in range(n_rounds):
            if hetero:
                fleet.submit_all(bundles, online=online)
            else:
                early = {}
                for nid in node_ids:
                    if late and nid == node_ids[-1]:
                        for _ in range(3):
                            early.update(fleet.tick())
                    try:
                        fleet.submit(nid, bundle, online=online)
                    except Exception as exc:
                        fleet_errors[nid] = type(exc)
            results.append(fleet.observe_all([]))
            if not hetero:
                results[-1].update(early)
        assert fleet_errors == seq_errors
        assert set(seq_errors) == failing
        assert all(set(r) == set(node_ids) - failing for r in results)
        assert _online_counts(seq_svc) == _online_counts(fleet_svc)
        # The fleet's batched closes write every run-level family exactly
        # as the sequential service's closes of one do.
        assert _run_families(seq_svc) == _run_families(fleet_svc)
        if mixed:
            assert results[0]["fl-b"].mode == "model_only"
        if mixed is True:
            assert _online_counts(fleet_svc)[1:] == (1.0, 1.0)  # fl-c's recovery
            # Some round trained a stack of several nodes beside a stack
            # with another buffer length or step budget.
            assert any(len(keys) >= 2 and max(keys.values()) >= 2
                       for keys in rounds)
        if hetero:
            # Each round opened its CPU and GPU static runs in one stacked
            # fit, and the governor thinned the second round's feeds.
            assert len(opens) == n_rounds
            assert all(len(counts) == len(node_ids) - 1 for counts in opens)
            assert opens[1] != opens[0]
            assert len(set(opens[1])) >= 2
            # ... and every round's runs closed in one pass, whose governor
            # decisions and health deltas the families above compared.
            assert [n for n in closes if n] == [len(node_ids)] * n_rounds
            families = _run_families(fleet_svc)
            assert {"repro_sched_stride", "repro_sched_decisions_total",
                    "repro_monitor_outage_runs_total"} <= set(families)
            assert len(families["repro_sched_stride"]) == len(node_ids)
            registry = fleet_svc.registry
            decided = registry.counter("repro_sched_decisions_total", "",
                                       ("node", "direction"))
            for nid in node_ids:
                stride = fleet_svc.sampling_stride(nid)
                assert registry.gauge("repro_sched_stride", "", ("node",)) \
                    .labels(node=nid).value == stride
                assert registry.gauge(
                    "repro_sched_interval_seconds", "", ("node",)
                ).labels(node=nid).value \
                    == fleet_svc.sensor(nid).interval_s * stride
                assert sum(decided.labels(node=nid, direction=d).value
                           for d in ("denser", "sparser", "hold")) == n_rounds
        if late:
            # Some stacked restore carried the late run beside runs that
            # were further along.
            assert any(len(fed) >= 2 for fed in positions)
        if not online and seq_chunk is not None:
            assert positions  # the static chunks restored as stacks
        for nid in node_ids:
            for svc in (seq_svc, fleet_svc):
                assert svc.registry.counter(
                    "repro_monitor_failed_runs_total", "", ("node",)
                ).labels(node=nid).value == (1.0 if nid in failing else 0.0)
            assert seq_svc.health(nid).status == fleet_svc.health(nid).status
            assert seq_svc.health(nid).outages == fleet_svc.health(nid).outages
            assert seq_svc.sampling_stride(nid) == \
                fleet_svc.sampling_stride(nid)
            if nid in failing:
                continue
            for seq_round, fleet_round in zip(seq, results):
                want, got = seq_round[nid], fleet_round[nid]
                np.testing.assert_array_equal(want.p_node, got.p_node)
                np.testing.assert_array_equal(want.p_cpu, got.p_cpu)
                np.testing.assert_array_equal(want.p_mem, got.p_mem)
                if want.p_gpu is not None or got.p_gpu is not None:
                    np.testing.assert_array_equal(want.p_gpu, got.p_gpu)
                np.testing.assert_array_equal(want.provenance, got.provenance)
                assert want.mode == got.mode
            np.testing.assert_array_equal(_log(seq_svc, nid).p_node,
                                          _log(fleet_svc, nid).p_node)

    def test_failed_tick_loses_only_the_runs_it_was_carrying(
        self, chaos_reference
    ):
        class FailsOnSecondWrite(Sink):
            def __init__(self) -> None:
                self.writes = 0

            def write(self, chunk) -> None:
                self.writes += 1
                if self.writes == 2:
                    raise OSError("sink full")

            def end_run(self, node_id, workload, mode) -> None:
                pass

        _, bundle = chaos_reference
        _, svc = _twin_services(chaos_reference, self.NODE_IDS,
                                sinks=[FailsOnSecondWrite()])
        fleet = FleetMonitor(svc, chunk_size=16)
        for nid in self.NODE_IDS:
            fleet.submit(nid, bundle)
        # fl-a's first chunk is written; fl-b's write raises; fl-c's
        # restored chunk never reaches the sinks.
        with pytest.raises(OSError, match="sink full"):
            fleet.tick()
        failed = svc.registry.counter(
            "repro_monitor_failed_runs_total", "", ("node",)
        )
        assert [failed.labels(node=nid).value for nid in self.NODE_IDS] \
            == [0.0, 1.0, 1.0]
        assert fleet.active_nodes == ("fl-a",)
        results = fleet.observe_all([])
        assert set(results) == {"fl-a"}
        assert len(results["fl-a"]) == len(bundle)
        assert len(_log(svc, "fl-a")) == len(bundle)
        assert failed.labels(node="fl-a").value == 0.0
        # the lost runs never reach end-of-run bookkeeping
        assert svc.health("fl-b").runs == svc.health("fl-c").runs == 0

    def test_failed_close_loses_every_run_it_carried(self, chaos_reference):
        class FailsOnSecondEnd(Sink):
            def __init__(self) -> None:
                self.ends = 0

            def write(self, chunk) -> None:
                pass

            def end_run(self, node_id, workload, mode) -> None:
                self.ends += 1
                if self.ends == 2:
                    raise OSError("sink full")

        _, bundle = chaos_reference
        short = bundle.slice(0, 16)  # one chunk: finishes on the first tick
        closing = ("fl-s", "fl-t")
        _, svc = _twin_services(chaos_reference, self.NODE_IDS + closing,
                                sinks=[FailsOnSecondEnd()])
        fleet = FleetMonitor(svc, chunk_size=16)
        for nid in self.NODE_IDS:
            fleet.submit(nid, bundle)
        fleet.submit_all({nid: short for nid in closing})
        # fl-s's run ends in every sink; fl-t's end raises in the second:
        # the close loses both, and the tick returns nothing.
        with pytest.raises(OSError, match="sink full"):
            fleet.tick()
        failed = svc.registry.counter(
            "repro_monitor_failed_runs_total", "", ("node",)
        )
        assert [failed.labels(node=nid).value
                for nid in self.NODE_IDS + closing] == [0.0] * 3 + [1.0] * 2
        assert fleet.active_nodes == self.NODE_IDS
        assert all(svc.health(nid).runs == 0 for nid in closing)
        assert _run_families(svc) == {}  # nothing of the close was recorded
        results = fleet.observe_all([])
        assert set(results) == set(self.NODE_IDS)
        assert all(len(result) == len(bundle) for result in results.values())
        assert [failed.labels(node=nid).value
                for nid in self.NODE_IDS + closing] == [0.0] * 3 + [1.0] * 2

    def test_failed_stacked_fine_tune_loses_only_the_runs_its_tick_carried(
        self, chaos_reference
    ):
        _, bundle = chaos_reference
        short = bundle.slice(0, 16)  # one chunk: finishes on the first tick
        _, svc = _twin_services(chaos_reference, self.NODE_IDS + ("fl-s",))
        fleet = FleetMonitor(svc, chunk_size=16)
        for nid in self.NODE_IDS:
            fleet.submit(nid, bundle)
        fleet.submit("fl-s", short)
        first = fleet.tick()
        assert set(first) == {"fl-s"} and len(first["fl-s"]) == len(short)
        # Poison fl-a's private model: its next fine-tune diverges, and the
        # stack it trains in raises for every node of the tick.
        fleet._runs["fl-a"].ctx.restorer._model.head_w_[:] = np.nan
        with pytest.raises(ConvergenceError, match="diverged"):
            while fleet.active_nodes:
                fleet.tick()
        failed = svc.registry.counter(
            "repro_monitor_failed_runs_total", "", ("node",)
        )
        assert [failed.labels(node=nid).value for nid in self.NODE_IDS] \
            == [1.0, 1.0, 1.0]
        assert failed.labels(node="fl-s").value == 0.0
        assert fleet.active_nodes == ()
        assert all(svc.health(nid).runs == 0 for nid in self.NODE_IDS)
        # The fleet keeps serving: a fresh run restores the whole bundle.
        again = fleet.observe_all({"fl-b": bundle})
        assert len(again["fl-b"]) == len(bundle)

    def test_failed_stacked_static_restore_loses_the_runs_its_tick_carried(
        self, chaos_reference
    ):
        _, bundle = chaos_reference
        short = bundle.slice(0, 16)  # one chunk: finishes on the first tick
        _, svc = _twin_services(chaos_reference, self.NODE_IDS + ("fl-s",))
        fleet = FleetMonitor(svc, chunk_size=16)
        for nid in self.NODE_IDS:
            fleet.submit(nid, bundle, online=False)
        fleet.submit("fl-s", short, online=False)
        first = fleet.tick()
        assert set(first) == {"fl-s"} and len(first["fl-s"]) == len(short)
        # Corrupt fl-a's stream position: its next chunk overruns its trace,
        # and the stacked restore it is part of raises for every run.
        fleet._runs["fl-a"].ctx.restorer._scan.fed = len(bundle)
        with pytest.raises(ValidationError, match="overruns"):
            fleet.tick()
        failed = svc.registry.counter(
            "repro_monitor_failed_runs_total", "", ("node",)
        )
        assert [failed.labels(node=nid).value for nid in self.NODE_IDS] \
            == [1.0, 1.0, 1.0]
        assert failed.labels(node="fl-s").value == 0.0
        assert fleet.active_nodes == ()
        # The fleet keeps serving: a fresh run restores the whole bundle.
        again = fleet.observe_all({"fl-b": bundle}, online=False)
        assert len(again["fl-b"]) == len(bundle)

    def test_failed_pre_restore_stage_loses_the_runs_its_tick_carried(
        self, chaos_reference, monkeypatch
    ):
        _, bundle = chaos_reference
        short = bundle.slice(0, 16)  # one chunk: finishes on the first tick
        _, svc = _twin_services(chaos_reference, self.NODE_IDS + ("fl-s",))
        fleet = FleetMonitor(svc, chunk_size=16)
        for nid in self.NODE_IDS:
            fleet.submit(nid, bundle)
        fleet.submit("fl-s", short)
        first = fleet.tick()
        assert set(first) == {"fl-s"}
        ingest = IngestStage.process

        def breaks_on_b(stage, ctx, chunk):
            if ctx.node_id == "fl-b":
                raise RuntimeError("PMC read failed")
            return ingest(stage, ctx, chunk)

        # The ingest batch raises part-way through the tick's chunks: every
        # run the tick carried is lost, before and after fl-b alike.
        monkeypatch.setattr(IngestStage, "process", breaks_on_b)
        with pytest.raises(RuntimeError, match="PMC read failed"):
            fleet.tick()
        monkeypatch.setattr(IngestStage, "process", ingest)
        failed = svc.registry.counter(
            "repro_monitor_failed_runs_total", "", ("node",)
        )
        assert [failed.labels(node=nid).value for nid in self.NODE_IDS] \
            == [1.0, 1.0, 1.0]
        assert failed.labels(node="fl-s").value == 0.0
        assert fleet.active_nodes == ()
        assert all(svc.health(nid).runs == 0 for nid in self.NODE_IDS)
        # The fleet keeps serving: fresh runs restore the whole bundle, and
        # the earlier losses are not counted again.
        again = fleet.observe_all({"fl-a": bundle, "fl-b": bundle})
        assert all(len(again[nid]) == len(bundle) for nid in ("fl-a", "fl-b"))
        assert [failed.labels(node=nid).value for nid in self.NODE_IDS] \
            == [1.0, 1.0, 1.0]

    def test_submit_all_loses_only_the_runs_whose_feed_raised(
        self, chaos_reference, monkeypatch
    ):
        _, bundle = chaos_reference
        node_ids = ("fl-a", "fl-b", "fl-c", "fl-d")
        seq_svc, svc = _twin_services(chaos_reference, node_ids)
        opened = IngestStage.open_run

        def breaks_for_b_and_d(stage, ctx):
            if ctx.node_id in ("fl-b", "fl-d"):
                raise RuntimeError(f"feed of {ctx.node_id} broke")
            opened(stage, ctx)

        monkeypatch.setattr(IngestStage, "open_run", breaks_for_b_and_d)
        fleet = FleetMonitor(svc, chunk_size=16)
        # Both failures are counted; the first one re-raises after the
        # pass, which still opened the healthy runs (in one stacked fit).
        with pytest.raises(RuntimeError, match="feed of fl-b broke"):
            fleet.submit_all({nid: bundle for nid in node_ids}, online=False)
        failed = svc.registry.counter(
            "repro_monitor_failed_runs_total", "", ("node",)
        )
        assert [failed.labels(node=nid).value for nid in node_ids] \
            == [0.0, 1.0, 0.0, 1.0]
        assert fleet.active_nodes == ("fl-a", "fl-c")
        results = fleet.observe_all([])
        for nid in ("fl-a", "fl-c"):
            want = seq_svc.observe_run(nid, bundle, online=False, chunk_size=16)
            np.testing.assert_array_equal(want.p_node, results[nid].p_node)
            np.testing.assert_array_equal(want.p_cpu, results[nid].p_cpu)
        assert svc.health("fl-b").runs == svc.health("fl-d").runs == 0

    def test_failed_stacked_fit_loses_only_the_run_at_fault(
        self, chaos_reference, monkeypatch
    ):
        """A run whose StaticTRR inputs fail their check is lost alone; the
        other runs of its pass still fit as one stack."""
        _, bundle = chaos_reference
        node_ids = ("fl-a", "fl-b", "fl-c")
        seq_svc, svc = _twin_services(chaos_reference, node_ids)
        bad, stacked = [], []
        gated, limits = GateStage.open_run, StaticTRR._limits

        def gate(stage, ctx):
            gated(stage, ctx)
            if ctx.node_id == "fl-b":
                bad.append(ctx.readings)

        def invalid_for_b(trr, readings):
            if any(readings is r for r in bad):
                raise ValidationError("invalid power limits for fl-b")
            return limits(trr, readings)

        def fit_spy(trrs, pmcs_rows, readings):
            stacked.append(len(trrs))
            return fit_streams(trrs, pmcs_rows, readings)

        monkeypatch.setattr(GateStage, "open_run", gate)
        monkeypatch.setattr(StaticTRR, "_limits", invalid_for_b)
        monkeypatch.setattr(pipeline_module, "fit_streams", fit_spy)
        fleet = FleetMonitor(svc, chunk_size=16)
        with pytest.raises(ValidationError, match="limits for fl-b"):
            fleet.submit_all({nid: bundle for nid in node_ids}, online=False)
        assert stacked == [2]
        failed = svc.registry.counter(
            "repro_monitor_failed_runs_total", "", ("node",)
        )
        assert [failed.labels(node=nid).value for nid in node_ids] \
            == [0.0, 1.0, 0.0]
        assert fleet.active_nodes == ("fl-a", "fl-c")
        results = fleet.observe_all([])
        for nid in ("fl-a", "fl-c"):
            want = seq_svc.observe_run(nid, bundle, online=False, chunk_size=16)
            np.testing.assert_array_equal(want.p_node, results[nid].p_node)
            np.testing.assert_array_equal(want.p_cpu, results[nid].p_cpu)

    def test_failed_stacked_fit_loses_every_static_run_of_its_pass(
        self, chaos_reference, monkeypatch
    ):
        """A stacked fit that raises after every run passed its check loses
        the stack's static runs and re-raises; a run degraded to model-only
        in the same pass still opens and finishes."""
        _, bundle = chaos_reference
        node_ids = ("fl-a", "fl-b", "fl-c")
        seq_svc, svc = _twin_services(chaos_reference, node_ids, dead={"fl-b"})
        stacked = []

        def broken_fit(trrs, pmcs_rows, readings):
            stacked.append(len(trrs))
            raise RuntimeError("stacked fit broke")

        monkeypatch.setattr(pipeline_module, "fit_streams", broken_fit)
        fleet = FleetMonitor(svc, chunk_size=16)
        with pytest.raises(RuntimeError, match="stacked fit broke"):
            fleet.submit_all({nid: bundle for nid in node_ids}, online=False)
        assert stacked == [2]
        failed = svc.registry.counter(
            "repro_monitor_failed_runs_total", "", ("node",)
        )
        assert [failed.labels(node=nid).value for nid in node_ids] \
            == [1.0, 0.0, 1.0]
        assert fleet.active_nodes == ("fl-b",)
        results = fleet.observe_all([])
        assert set(results) == {"fl-b"} and results["fl-b"].mode == "model_only"
        want = seq_svc.observe_run("fl-b", bundle, online=False, chunk_size=16)
        np.testing.assert_array_equal(want.p_node, results["fl-b"].p_node)
        assert svc.health("fl-a").runs == svc.health("fl-c").runs == 0

    def test_submit_all_validates_before_opening_any_run(self, chaos_reference):
        _, bundle = chaos_reference
        _, svc = _twin_services(chaos_reference, self.NODE_IDS)
        fleet = FleetMonitor(svc, chunk_size=32)
        with pytest.raises(ValidationError, match="already has an active run"):
            fleet.submit_all([("fl-a", bundle), ("fl-a", bundle)])
        with pytest.raises(ValidationError, match="unknown node"):
            fleet.submit_all({"fl-a": bundle, "nope": bundle})
        assert fleet.active_nodes == ()
        assert svc.health("fl-a").runs == 0

    def test_dead_feed_node_degrades_without_poisoning_the_fleet(
        self, chaos_reference
    ):
        _, bundle = chaos_reference
        seq_svc, fleet_svc = _twin_services(
            chaos_reference, self.NODE_IDS, dead={"fl-b"}
        )
        seq = {
            nid: seq_svc.observe_run(nid, bundle, chunk_size=16)
            for nid in self.NODE_IDS
        }
        results = FleetMonitor(fleet_svc, chunk_size=16).observe_all(
            {nid: bundle for nid in self.NODE_IDS}
        )
        assert results["fl-b"].mode == "model_only"
        assert fleet_svc.health("fl-b").outages == 1
        for nid in self.NODE_IDS:
            np.testing.assert_array_equal(seq[nid].p_node, results[nid].p_node)
            assert seq[nid].mode == results[nid].mode

    def test_tick_interleaves_and_finishes_in_order(self, chaos_reference):
        _, bundle = chaos_reference
        _, svc = _twin_services(chaos_reference, self.NODE_IDS)
        fleet = FleetMonitor(svc, chunk_size=len(bundle) // 2 + 1)
        fleet.submit("fl-a", bundle)
        fleet.submit("fl-b", bundle)
        assert set(fleet.active_nodes) == {"fl-a", "fl-b"}
        assert fleet.tick() == {}  # first chunk of two is not final
        finished = fleet.tick()
        assert set(finished) == {"fl-a", "fl-b"}
        assert fleet.active_nodes == ()
        assert fleet.tick() == {}

    def test_submit_validates_node_and_duplicates(self, chaos_reference):
        _, bundle = chaos_reference
        _, svc = _twin_services(chaos_reference, self.NODE_IDS)
        fleet = FleetMonitor(svc, chunk_size=32)
        with pytest.raises(ValidationError, match="unknown node"):
            fleet.submit("nope", bundle)
        fleet.submit("fl-a", bundle)
        with pytest.raises(ValidationError, match="already has an active run"):
            fleet.submit("fl-a", bundle)
        fleet.observe_all([])  # drains the pending run
        assert fleet.active_nodes == ()

    def test_chunk_size_validated(self, chaos_reference):
        _, svc = _twin_services(chaos_reference, self.NODE_IDS)
        with pytest.raises(ValidationError, match="chunk_size must be >= 1"):
            FleetMonitor(svc, chunk_size=0)

    def test_fleet_spans_and_metrics_recorded(self, chaos_reference):
        from repro.obs import MetricsRegistry

        reference, bundle = chaos_reference
        # Private registry: the services default to the ambient one, which
        # the other tests in this module already incremented.
        svc = PowerMonitorService(reference.model, reference.spec,
                                  registry=MetricsRegistry())
        for i, nid in enumerate(self.NODE_IDS):
            svc.register_node(nid, seed=400 + i)
        FleetMonitor(svc, chunk_size=64).observe_all(
            {nid: bundle for nid in self.NODE_IDS}
        )
        stats = svc.tracer.stats()
        for span in ("fleet.submit", "fleet.tick", "monitor.restore",
                     "monitor.attribute", "monitor.log_append"):
            assert span in stats, span
            assert stats[span].timed
        runs = svc.registry.counter(
            "repro_monitor_runs_total", "", ("node", "mode")
        )
        for nid in self.NODE_IDS:
            assert runs.labels(node=nid, mode="dynamic").value == 1.0
        chunks = svc.registry.counter(
            "repro_stream_chunks_total", "", ("stage",)
        )
        assert chunks.labels(stage="ingest").value >= len(self.NODE_IDS)

    def test_open_spans_close_once_per_stage_per_submit_all(
        self, chaos_reference
    ):
        _, bundle = chaos_reference
        _, svc = _twin_services(chaos_reference, self.NODE_IDS, dead={"fl-b"})
        fleet = FleetMonitor(svc, chunk_size=64)
        spans = [stage.span for stage in fleet.pipeline.stages]

        def counts():
            stats = svc.tracer.stats()
            return [stats[span].count if span in stats else 0
                    for span in spans]

        for _ in range(2):
            before = counts()
            fleet.submit_all({nid: bundle for nid in self.NODE_IDS},
                             online=False)
            # a static and a model-only pass of three runs: one span per
            # stage, the restore stage's stacked fit included
            assert [c - b for c, b in zip(counts(), before)] == [1] * len(spans)
            fleet.observe_all([])

    #: (online, chunk size) -> per-stage (chunks, samples) entering each
    #: stage over the whole fleet drain, as the per-chunk driver counted
    #: them; the static restorer holds three first chunks back.
    STAGE_TOTALS = {
        (True, 64): {stage: (9.0, 450.0) for stage in (
            "ingest", "calibrate", "gate", "restore", "attribute", "sink")},
        (False, 4): {"ingest": (114.0, 450.0), "calibrate": (114.0, 450.0),
                     "gate": (114.0, 450.0), "restore": (114.0, 450.0),
                     "attribute": (111.0, 450.0), "sink": (111.0, 450.0)},
    }

    @pytest.mark.parametrize("online, chunk_size", [(True, 64), (False, 4)],
                             ids=["online", "offline-held-back"])
    def test_stage_counters_count_chunks_and_spans_close_once_per_tick(
        self, chaos_reference, online, chunk_size
    ):
        reference, bundle = chaos_reference
        svc = PowerMonitorService(reference.model, reference.spec,
                                  registry=MetricsRegistry())
        for i, nid in enumerate(self.NODE_IDS):
            svc.register_node(nid, seed=400 + i)
        fleet = FleetMonitor(svc, chunk_size=chunk_size)
        fleet.submit_all({nid: bundle for nid in self.NODE_IDS}, online=online)
        counters = [svc.registry.counter(name, "", ("stage",)) for name in
                    ("repro_stream_chunks_total", "repro_stream_samples_total")]
        stages = fleet.pipeline.stages

        def state():
            stats = svc.tracer.stats()
            return [(counters[0].labels(stage=stage.name).value,
                     stats[stage.span].count) for stage in stages]

        idle = []  # (tick, stage) pairs the tick carried no chunk into
        while fleet.active_nodes:
            before = state()
            fleet.tick()
            for stage, (c0, s0), (c1, s1) in zip(stages, before, state()):
                # one span per stage per tick that carried chunks into it
                assert s1 - s0 == (1 if c1 > c0 else 0), stage.name
                if c1 == c0:
                    idle.append(stage.name)
        # the offline fleet's first tick only fills the fusion windows
        assert idle == ([] if online else ["attribute", "sink"])
        assert {stage.name: tuple(c.labels(stage=stage.name).value
                                  for c in counters)
                for stage in stages} == self.STAGE_TOTALS[online, chunk_size]

    def test_round_provenance_is_one_pass(self, chaos_reference, monkeypatch):
        """The restore stage flags every run with readings in one
        provenance pass, each run's flags its own pass's; model-only runs
        (a dead feed) get none."""
        _, bundle = chaos_reference
        ids = ("fl-a", "fl-b", "fl-c", "fl-d")
        svc, _ = _twin_services(chaos_reference, ids, dead=("fl-b",),
                                outages={"fl-c": OutageWindow(40, 40)})
        passes = []
        real = pipeline_module.provenance_stack

        def spy(ns, readings, factors):
            passes.append(len(ns))
            return real(ns, readings, factors)

        monkeypatch.setattr(pipeline_module, "provenance_stack", spy)
        contexts = [pipeline_module.ObservationContext(
            svc, nid, bundle, online=nid == "fl-d", chunk_size=16)
            for nid in ids]
        assert pipeline_module.build_pipeline().open_all(contexts) == []
        assert [ctx.mode for ctx in contexts] == \
            ["static", "model_only", "static", "dynamic"]
        assert passes == [3]
        for ctx in contexts:
            if ctx.mode == "model_only":
                assert ctx.provenance_full is None
                continue
            np.testing.assert_array_equal(
                ctx.provenance_full,
                provenance_from_readings(
                    ctx.n_samples, ctx.readings,
                    outage_factor=ctx.model.config.resync_gap_factor))
        assert (contexts[2].provenance_full == PROV_MODEL_ONLY).any()

    def test_static_tree_stack_is_reused_across_ticks(
        self, chaos_reference, monkeypatch
    ):
        _, bundle = chaos_reference
        built = []
        init = TreeStack.__init__

        def counting_init(stack, trees) -> None:
            built.append(len(trees))
            init(stack, trees)

        monkeypatch.setattr(TreeStack, "__init__", counting_init)
        _, svc = _twin_services(chaos_reference, self.NODE_IDS)
        fleet = FleetMonitor(svc, chunk_size=16)
        fleet.observe_all({nid: bundle for nid in self.NODE_IDS}, online=False)
        assert svc.registry.counter(
            "repro_stream_chunks_total", "", ("stage",)
        ).labels(stage="restore").value > 3 * len(self.NODE_IDS)
        # one stack of the three runs' trees, built on the first tick
        assert built == [len(self.NODE_IDS)]
