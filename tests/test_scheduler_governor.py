"""SamplingGovernor determinism and heterogeneous node-profile plumbing.

The governor's decision functions must be *pure* in (seed, node id,
confidence, budget) — sharded == single-process bit identity rests on it —
so the properties here drive them with hypothesis rather than a handful of
fixed points. The profile/device-class tests pin the registration surface
the heterogeneous fleet rides on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.monitor import (
    GovernorPolicy,
    NodeProfile,
    SamplingGovernor,
    decide_offset,
    decide_stride,
    node_phase,
    thin_readings,
)
from repro.sensors.base import SparseReadings

# ---------------------------------------------------------------- strategies

policies = st.builds(
    GovernorPolicy,
    aggressiveness=st.floats(0.0, 1.0, allow_nan=False),
    max_stride=st.integers(1, 8),
    confidence_floor=st.floats(0.0, 0.95, allow_nan=False),
    target_budget_fraction=st.floats(0.001, 0.5, allow_nan=False),
    pinned_budget_fraction=st.one_of(
        st.none(), st.floats(0.0, 1.0, allow_nan=False)
    ),
    seed=st.integers(0, 2**31),
)
node_ids = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12
)
confidences = st.floats(0.0, 1.0, allow_nan=False)
budgets = st.floats(0.0, 2.0, allow_nan=False)


def _readings(n: int, interval_s: int = 10) -> SparseReadings:
    return SparseReadings(
        indices=np.arange(1, 1 + n * interval_s, interval_s, dtype=np.int64),
        values=np.linspace(50.0, 80.0, n),
        interval_s=interval_s,
        n_dense=n * interval_s + 1,
    )


# ------------------------------------------------------- decision functions

class TestDecisionFunctions:
    @settings(max_examples=200, deadline=None)
    @given(policies, node_ids, confidences, budgets)
    def test_stride_deterministic_and_bounded(self, policy, node_id, conf,
                                              budget):
        a = decide_stride(policy, node_id, conf, budget)
        b = decide_stride(policy, node_id, conf, budget)
        assert a == b
        assert 1 <= a <= policy.max_stride

    @settings(max_examples=100, deadline=None)
    @given(policies, node_ids, st.integers(1, 8))
    def test_offset_deterministic_and_in_residue_range(self, policy, node_id,
                                                       stride):
        a = decide_offset(policy, node_id, stride)
        assert a == decide_offset(policy, node_id, stride)
        assert 0 <= a < max(stride, 1)
        if stride <= 1:
            assert a == 0

    @settings(max_examples=100, deadline=None)
    @given(node_ids, confidences, budgets)
    def test_zero_aggressiveness_is_always_dense(self, node_id, conf, budget):
        policy = GovernorPolicy(aggressiveness=0.0)
        assert decide_stride(policy, node_id, conf, budget) == 1

    @settings(max_examples=100, deadline=None)
    @given(policies, node_ids, budgets)
    def test_confidence_at_or_below_floor_is_dense(self, policy, node_id,
                                                   budget):
        assert decide_stride(
            policy, node_id, policy.confidence_floor, budget
        ) == 1

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**31), node_ids)
    def test_phase_range(self, seed, node_id):
        phase = node_phase(seed, node_id)
        assert 0.0 <= phase < 0.5
        assert phase == node_phase(seed, node_id)

    def test_phase_varies_with_seed_and_node(self):
        assert node_phase(1, "node0") != node_phase(2, "node0")
        assert node_phase(1, "node0") != node_phase(1, "node1")


# ------------------------------------------------------------ thin_readings

class TestThinReadings:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 60),   # n readings
        st.integers(1, 8),    # stride
        st.integers(1, 6),    # floor
        st.integers(0, 10),   # offset
    )
    def test_invariants(self, n, stride, floor, offset):
        readings = _readings(n)
        thinned, dropped = thin_readings(readings, stride, floor, offset)
        kept = len(thinned)
        assert kept + dropped == n
        assert kept >= min(max(floor, 1), n)
        # Surviving anchors are a subset, in order, starting at the first
        # reading (the spline's start boundary anchor is never dropped).
        assert thinned.indices[0] == readings.indices[0]
        assert np.all(np.isin(thinned.indices, readings.indices))
        assert np.all(np.diff(thinned.indices) > 0)
        # Same positions survive on the value channel.
        pos = np.searchsorted(readings.indices, thinned.indices)
        np.testing.assert_array_equal(thinned.values, readings.values[pos])
        # The nominal interval scales with the effective stride.
        if dropped:
            assert thinned.interval_s > readings.interval_s
            assert thinned.interval_s % readings.interval_s == 0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 8), st.integers(1, 6),
           st.integers(0, 10))
    def test_deterministic(self, n, stride, floor, offset):
        readings = _readings(n)
        a, da = thin_readings(readings, stride, floor, offset)
        b, db = thin_readings(readings, stride, floor, offset)
        assert da == db
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.values, b.values)

    def test_stride_one_is_identity(self):
        readings = _readings(12)
        thinned, dropped = thin_readings(readings, 1)
        assert dropped == 0
        assert thinned is readings

    def test_floor_clamps_the_effective_stride(self):
        # 8 readings, floor 4: stride 8 clamps to eff 2, keeping >= 4.
        thinned, dropped = thin_readings(_readings(8), 8, floor=4)
        assert len(thinned) >= 4
        assert dropped == 8 - len(thinned)

    def test_offset_phases_the_comb(self):
        readings = _readings(10)
        t0, _ = thin_readings(readings, 2, offset=0)
        t1, _ = thin_readings(readings, 2, offset=1)
        assert t0.indices[0] == t1.indices[0] == readings.indices[0]
        assert not np.array_equal(t0.indices, t1.indices)


# ---------------------------------------------------------------- governor

class TestSamplingGovernor:
    @settings(max_examples=50, deadline=None)
    @given(
        policies,
        st.lists(
            st.tuples(st.sampled_from(["node0", "node1", "node2"]),
                      confidences, budgets),
            min_size=1, max_size=20,
        ),
    )
    def test_same_feedback_sequence_same_schedule(self, policy, feedback):
        """Two governors fed identical (node, confidence, budget) sequences
        land on identical schedules and decisions — the sharded-equals-
        single-process property at the controller level."""
        a, b = SamplingGovernor(policy), SamplingGovernor(policy)
        for node_id, conf, budget in feedback:
            da = a.update(node_id, conf, budget)
            db = b.update(node_id, conf, budget)
            assert (da.stride, da.offset, da.direction) \
                == (db.stride, db.offset, db.direction)
        assert a.schedule() == b.schedule()

    @settings(max_examples=50, deadline=None)
    @given(policies, st.data())
    def test_state_is_per_node_only(self, policy, data):
        """Interleaving other nodes' feedback never changes a node's
        decision — required for shard-layout independence."""
        conf = data.draw(confidences)
        budget = data.draw(budgets)
        alone = SamplingGovernor(policy)
        alone.update("target", conf, budget)
        crowded = SamplingGovernor(policy)
        for other in ("peer0", "peer1", "peer2"):
            crowded.update(other, data.draw(confidences), data.draw(budgets))
        crowded.update("target", conf, budget)
        assert crowded.stride_for("target") == alone.stride_for("target")
        assert crowded.offset_for("target") == alone.offset_for("target")

    def test_unknown_node_defaults_dense(self):
        governor = SamplingGovernor()
        assert governor.stride_for("never-seen") == 1
        assert governor.offset_for("never-seen") == 0
        assert governor.last_decision("never-seen") is None

    def test_direction_tracks_previous_stride(self):
        governor = SamplingGovernor(GovernorPolicy(
            aggressiveness=1.0, max_stride=4, confidence_floor=0.5,
            pinned_budget_fraction=0.05,
        ))
        sparse = governor.update("n", 1.0, 0.05)
        assert sparse.stride > 1 and sparse.direction == "sparser"
        dense = governor.update("n", 0.0, 0.05)
        assert dense.stride == 1 and dense.direction == "denser"
        assert governor.update("n", 0.0, 0.05).direction == "hold"

    @settings(max_examples=100, deadline=None)
    @given(policies, st.data())
    def test_update_all_equals_sequential_updates(self, policy, data):
        """A batch decides what the batch's updates, one by one, decide —
        including for nodes with history — and each decision is the scalar
        decision functions' value."""
        names = data.draw(st.lists(node_ids, min_size=1, max_size=12,
                                   unique=True))
        history = data.draw(st.lists(
            st.tuples(st.sampled_from(names), confidences, budgets),
            max_size=8,
        ))
        batch = data.draw(st.lists(confidences, min_size=len(names),
                                   max_size=len(names)))
        budget = data.draw(budgets)
        together, alone = SamplingGovernor(policy), SamplingGovernor(policy)
        for node_id, conf, spent in history:
            together.update(node_id, conf, spent)
            alone.update(node_id, conf, spent)
        got = together.update_all(names, batch, budget)
        want = [alone.update(n, c, budget) for n, c in zip(names, batch)]
        assert got == want
        assert together.schedule() == alone.schedule()
        for decision, conf in zip(got, batch):
            assert decision.stride == decide_stride(
                policy, decision.node_id, conf, budget
            )
            assert decision.offset == decide_offset(
                policy, decision.node_id, decision.stride
            )

    @pytest.mark.parametrize("policy", [
        GovernorPolicy(aggressiveness=1.0, max_stride=4, confidence_floor=0.5),
        GovernorPolicy(aggressiveness=0.0, max_stride=4),
        GovernorPolicy(aggressiveness=1.0, max_stride=1),
        GovernorPolicy(),
    ], ids=["aggressive", "aggressiveness-0", "max-stride-1", "default"])
    def test_update_all_edges_equal_sequential_updates(self, policy):
        """Confidence at 0, at the floor and at 1, against budgets at 0, at
        the target and above twice the target, on nodes whose previous
        strides make the direction hold or turn denser."""
        target = policy.target_budget_fraction
        confs = [0.0, policy.confidence_floor, 1.0]
        names = [f"n{i}" for i in range(len(confs))]
        for budget in (0.0, target, 2.5 * target):
            together, alone = SamplingGovernor(policy), SamplingGovernor(policy)
            for governor in (together, alone):  # every node sparse first
                for name in names:
                    governor.update(name, 1.0, 2.5 * target)
            got = together.update_all(names, confs, budget)
            assert got == [alone.update(n, c, budget)
                           for n, c in zip(names, confs)]
            assert together.schedule() == alone.schedule()
            assert got[0].stride == got[1].stride == 1  # dense at the floor
            if policy.aggressiveness > 0 and policy.max_stride > 1:
                assert [d.direction for d in got[:2]] == ["denser", "denser"]
                # the first updates' inputs again hold; a freer budget never
                # thins further
                assert got[2].direction == "hold" if budget > target \
                    else got[2].direction in ("hold", "denser")
            else:
                assert {d.direction for d in got} == {"hold"}

    @pytest.mark.parametrize("names, confs, budget", [
        (["a", "b"], [0.9, float("nan")], 0.05),
        (["a", "b"], [0.9, 1.7], 0.05),
        (["a", "b"], [0.9, -0.1], 0.05),
        (["a", "b"], [0.9, float("inf")], 0.05),
        (["a", "b"], [0.9, 0.8], -1.0),
        (["a", "b"], [0.9, 0.8], float("nan")),
        (["a", "b"], [0.9, 0.8], float("inf")),
        (["a", "a"], [0.9, 0.8], 0.05),
        (["a", "b"], [0.9], 0.05),
    ], ids=["nan-confidence", "confidence-above-1", "negative-confidence",
            "infinite-confidence", "negative-budget", "nan-budget",
            "infinite-budget", "node-named-twice", "short-confidences"])
    def test_bad_feedback_raises_before_any_state_changes(
        self, names, confs, budget
    ):
        governor = SamplingGovernor(GovernorPolicy(aggressiveness=1.0))
        first = governor.update("a", 1.0, 0.05)
        with pytest.raises(ValidationError):
            governor.update_all(names, confs, budget)
        assert governor.schedule() == {"a": first.stride}
        assert governor.last_decision("a") is first
        assert governor.last_decision("b") is None
        if len(names) == len(set(names)) == len(confs):
            with pytest.raises(ValidationError):  # the batch of one too
                governor.update(names[1], confs[1], budget)

    def test_policy_validation(self):
        with pytest.raises(ValidationError):
            GovernorPolicy(aggressiveness=1.5)
        with pytest.raises(ValidationError):
            GovernorPolicy(max_stride=0)
        with pytest.raises(ValidationError):
            GovernorPolicy(confidence_floor=1.0)
        with pytest.raises(ValidationError):
            GovernorPolicy(pinned_budget_fraction=-0.1)


# ------------------------------------------------- profiles, device classes

class TestHeterogeneousService:
    def test_node_profile_defaults(self):
        profile = NodeProfile()
        assert profile.device_class == "cpu"
        assert profile.interval_s is None

    def test_unknown_device_class_rejected(self, chaos_reference):
        reference, _ = chaos_reference
        from repro.monitor import PowerMonitorService
        from repro.obs import MetricsRegistry

        svc = PowerMonitorService(reference.model, reference.spec,
                                  registry=MetricsRegistry())
        with pytest.raises(ValidationError, match="unregistered device class"):
            svc.register_node("gpu-node",
                              profile=NodeProfile(device_class="gpu"))

    def test_duplicate_device_class_rejected(self, chaos_reference):
        reference, _ = chaos_reference
        from repro.monitor import PowerMonitorService
        from repro.obs import MetricsRegistry

        svc = PowerMonitorService(reference.model, reference.spec,
                                  registry=MetricsRegistry())
        with pytest.raises(ValidationError, match="already registered"):
            svc.register_device_class("cpu", reference.model)

    def test_cluster_allocations_use_class_clamps(self, chaos_reference):
        """Mixed-class water-fill: each node competes with its own class's
        floor and ceiling, and the cap is fully distributed."""
        reference, _ = chaos_reference
        from repro.monitor import GPUSRRHead, PowerMonitorService
        from repro.obs import MetricsRegistry
        from repro.serve import ServeConfig
        from repro.serve.daemon import train_gpu_models

        gpu_model, gpu_srr = train_gpu_models(ServeConfig(
            train_seconds=40, lstm_iters=5, srr_iters=20,
        ))
        svc = PowerMonitorService(reference.model, reference.spec,
                                  registry=MetricsRegistry())
        svc.register_device_class("gpu", gpu_model, head=GPUSRRHead(gpu_srr))
        svc.register_node("cpu0", profile=NodeProfile(seed=1))
        svc.register_node("gpu0", profile=NodeProfile(device_class="gpu",
                                                      seed=2))
        cpu_lo, cpu_hi = svc.device_class("cpu").clamps
        gpu_lo, gpu_hi = svc.device_class("gpu").clamps
        assert gpu_hi > cpu_hi  # the accelerated class has real headroom
        cap = cpu_hi + gpu_hi
        allocations = svc.cluster_allocations(
            cap, demands={"cpu0": cpu_hi, "gpu0": gpu_hi}
        )
        assert set(allocations) == {"cpu0", "gpu0"}
        assert allocations["cpu0"] <= cpu_hi
        assert allocations["gpu0"] <= gpu_hi
        assert sum(allocations.values()) <= cap + 1e-9
        # Under contention the spill is honest: nobody below their floor.
        squeezed = svc.cluster_allocations(
            cpu_lo + gpu_lo + 5.0, demands={"cpu0": cpu_hi, "gpu0": gpu_hi}
        )
        assert squeezed["cpu0"] >= cpu_lo - 1e-9
        assert squeezed["gpu0"] >= gpu_lo - 1e-9
