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
from repro.errors import ConvergenceError, NotFittedError, ValidationError
from repro.faults import FaultySensor, OutageWindow
from repro.ml.tree import DecisionTreeRegressor
from repro.monitor import FleetMonitor, PowerMonitorService, ResiliencePolicy
from repro.monitor import fleet as fleet_module
from repro.obs import MetricsRegistry
from repro.perf import CompiledTree, TreeStack, single_tree_of
from repro.sensors import IPMISensor
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
                   sinks=None, outages=None):
    """Two identical services; ``dead`` nodes' feeds never answer and
    ``outages`` maps a node to the window its feed goes silent in."""
    reference, _ = chaos_reference
    outages = outages or {}
    services = []
    for _ in range(2):
        svc = PowerMonitorService(reference.model, reference.spec,
                                  policy=policy, registry=MetricsRegistry(),
                                  sinks=sinks)
        for i, nid in enumerate(node_ids):
            if nid in dead:
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

    @pytest.mark.parametrize(
        "online, seq_chunk, strict_dead, mixed",
        [(True, 16, None, False), (False, 16, None, False),
         (True, None, None, False), (False, None, None, False),
         (True, 16, "fl-b", False), (True, 16, None, True)],
        ids=["online", "offline", "online-whole-run", "offline-whole-run",
             "strict-dead-feed", "online-mixed-stacks"],
    )
    def test_fleet_equals_sequential_observe_run(
        self, chaos_reference, monkeypatch, online, seq_chunk, strict_dead,
        mixed,
    ):
        _, bundle = chaos_reference
        policy = ResiliencePolicy(degrade_to_model_only=False) \
            if strict_dead else None
        node_ids = self.STACK_IDS if mixed else self.NODE_IDS
        failing = {strict_dead} if strict_dead else set()
        seq_svc, fleet_svc = _twin_services(
            chaos_reference, node_ids, policy=policy,
            dead=failing | ({"fl-b"} if mixed else set()),
            outages={"fl-c": OutageWindow(40, 40)} if mixed else None,
        )
        # Record how each tick's fine-tunes split into stacks.
        rounds = []

        def spy(jobs):
            rounds.append(Counter(job.key for job in jobs))
            run_fine_tunes(jobs)

        monkeypatch.setattr(fleet_module, "run_fine_tunes", spy)
        seq, seq_errors = {}, {}
        for nid in node_ids:
            try:
                seq[nid] = seq_svc.observe_run(nid, bundle, online=online,
                                               chunk_size=seq_chunk)
            except Exception as exc:  # the strict dead feed raises
                seq_errors[nid] = type(exc)
        rounds.clear()  # a fleet of one has nothing to stack
        fleet = FleetMonitor(fleet_svc, chunk_size=16)
        fleet_errors = {}
        for nid in node_ids:
            try:
                fleet.submit(nid, bundle, online=online)
            except Exception as exc:
                fleet_errors[nid] = type(exc)
        results = fleet.observe_all([])
        assert fleet_errors == seq_errors
        assert set(seq_errors) == failing
        assert set(results) == set(node_ids) - failing
        assert _online_counts(seq_svc) == _online_counts(fleet_svc)
        if mixed:
            assert results["fl-b"].mode == "model_only"
            assert _online_counts(fleet_svc)[1:] == (1.0, 1.0)  # fl-c's recovery
            # Some round trained a stack of several nodes beside a stack
            # with another buffer length or step budget.
            assert any(len(keys) >= 2 and max(keys.values()) >= 2
                       for keys in rounds)
        for nid in node_ids:
            for svc in (seq_svc, fleet_svc):
                assert svc.registry.counter(
                    "repro_monitor_failed_runs_total", "", ("node",)
                ).labels(node=nid).value == (1.0 if nid in failing else 0.0)
            assert seq_svc.health(nid).status == fleet_svc.health(nid).status
            assert seq_svc.health(nid).outages == fleet_svc.health(nid).outages
            if nid in failing:
                continue
            np.testing.assert_array_equal(seq[nid].p_node, results[nid].p_node)
            np.testing.assert_array_equal(seq[nid].p_cpu, results[nid].p_cpu)
            np.testing.assert_array_equal(seq[nid].p_mem, results[nid].p_mem)
            np.testing.assert_array_equal(seq[nid].provenance,
                                          results[nid].provenance)
            assert seq[nid].mode == results[nid].mode
            np.testing.assert_array_equal(seq_svc.log(nid).p_node,
                                          fleet_svc.log(nid).p_node)

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
        assert len(svc.log("fl-a")) == len(bundle)
        assert failed.labels(node="fl-a").value == 0.0
        # the lost runs never reach end-of-run bookkeeping
        assert svc.health("fl-b").runs == svc.health("fl-c").runs == 0

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
