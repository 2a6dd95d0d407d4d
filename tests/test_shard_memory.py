"""A shard's memory is flat across rounds: the service keeps no samples.

Every restored chunk leaves the shard on its event queue; nothing inside
the shard may hold on to it. The span log is capped at
``Tracer.max_records``, so once it is full a steady shard should allocate
nothing that survives a round.
"""

from __future__ import annotations

import gc
import queue
import threading
import time
import tracemalloc

import pytest

from repro.serve import FleetDaemon, ServeConfig, ShardRunner
from repro.serve import shard as shard_module

NODES = 8
RUN_SECONDS = 20
#: p_node, p_cpu, p_mem and p_gpu as float64 plus one provenance byte.
BYTES_PER_SAMPLE = 4 * 8 + 1
WINDOW_ROUNDS = 10


class _DiscardQueue:
    """An event queue whose consumer keeps up perfectly."""

    def put(self, event) -> None:
        pass


def test_shard_memory_is_flat_across_rounds(serve_model):
    config = ServeConfig(nodes=NODES, shards=1, run_seconds=RUN_SECONDS,
                         chunk_size=16)
    runner = ShardRunner(0, config, serve_model, _DiscardQueue())
    tracer = runner.service.tracer
    while len(tracer.records) < tracer.max_records:
        runner.run_round()
    # Trace through a settling window first: per-batch-size scratch that a
    # later round replaces must be seen freed, not only reallocated.
    tracemalloc.start()
    try:
        for _ in range(WINDOW_ROUNDS):
            runner.run_round()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(WINDOW_ROUNDS):
            runner.run_round()
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()

    one_round = NODES * RUN_SECONDS * BYTES_PER_SAMPLE
    assert growth < one_round, (
        f"shard grew {growth} B over {WINDOW_ROUNDS} rounds; one round's "
        f"restored samples are {one_round} B"
    )


def test_a_looped_shard_freezes_its_long_lived_state(serve_model):
    """After its first round a looped shard moves what outlives a round
    (the service, models, registry) out of the cyclic collector's scans;
    objects a later round makes are still scanned."""
    gc.unfreeze()
    config = ServeConfig(nodes=2, shards=1, run_seconds=RUN_SECONDS, runs=2)
    runner = ShardRunner(0, config, serve_model, _DiscardQueue())
    try:
        runner.loop(threading.Event())
        assert runner.rounds == 2
        assert gc.get_freeze_count() > 0
        scanned = {id(obj) for obj in gc.get_objects()}
        assert id(runner.service) not in scanned
        assert id(runner.registry) not in scanned
        late = [object(), []]  # a container made after the freeze
        assert id(late) in {id(obj) for obj in gc.get_objects()}
    finally:
        gc.unfreeze()



def test_a_started_daemon_freezes_its_boot_heap(serve_model):
    """Once its shard processes are forked, the daemon moves its boot heap
    (the trained model above all) out of the cyclic collector's scans, so
    that a full collection does not walk it while a scrape waits; objects
    made after the start are still scanned."""
    gc.unfreeze()
    config = ServeConfig(nodes=2, shards=1, run_seconds=RUN_SECONDS, runs=1,
                         port=0, processes=True)
    daemon = FleetDaemon(config, model=serve_model)
    try:
        daemon.start()
        assert gc.get_freeze_count() > 0
        scanned = {id(obj) for obj in gc.get_objects()}
        assert id(serve_model) not in scanned
        assert id(daemon.registry) not in scanned
        late = [object(), []]  # a container made after the start
        assert id(late) in {id(obj) for obj in gc.get_objects()}
    finally:
        daemon.stop(timeout=120)
        gc.unfreeze()


class _SlowCollector:
    """An event queue whose consumer drains ``per_look`` records each time
    the shard looks at its size."""

    def __init__(self, backlog: int, per_look: int) -> None:
        self.backlog = backlog
        self.per_look = per_look
        self.looks = 0

    def put(self, event) -> None:
        self.backlog += 1

    def qsize(self) -> int:
        self.looks += 1
        self.backlog = max(0, self.backlog - self.per_look)
        return self.backlog


def _runner(serve_model, events, shards=1, runs=0):
    config = ServeConfig(nodes=2, shards=shards, run_seconds=RUN_SECONDS,
                         runs=runs)
    return ShardRunner(0, config, serve_model, events)


def test_a_shard_waits_for_the_collector_after_a_round(serve_model,
                                                       monkeypatch):
    """Backpressure: a shard does not start its next round while more than
    a round of its records are still queued, so a collector slower than
    the shard cannot make the shard's memory grow. The queue is the
    shard's own, so the bound does not grow with the shard count."""
    events = _SlowCollector(backlog=100, per_look=3)
    _runner(serve_model, events, shards=2).await_collector(per_round=10)
    assert events.backlog == 10  # at most one round's 10 records left
    assert events.looks == 30

    waits = []
    real = ShardRunner.await_collector
    monkeypatch.setattr(ShardRunner, "await_collector",
                        lambda runner, n: waits.append(n) or real(runner, n))
    try:
        _runner(serve_model, _SlowCollector(0, 1), runs=2).loop(
            threading.Event())
    finally:
        gc.unfreeze()
    # each round waits on its own records: one chunk and one end_run per run
    assert waits == [4, 4]


def test_the_wait_for_the_collector_is_capped(serve_model, monkeypatch):
    """A collector that stops reading leaves the queue's size high for
    good; the wait gives up instead of hanging the shard."""
    monkeypatch.setattr(shard_module, "BACKLOG_WAIT_S", 0.05)
    events = _SlowCollector(backlog=10_000, per_look=0)
    start = time.monotonic()
    _runner(serve_model, events).await_collector(per_round=4)
    assert time.monotonic() - start < 1.0
    assert events.backlog == 10_000


@pytest.mark.parametrize("events", [_DiscardQueue(), queue.SimpleQueue()],
                         ids=["no-size", "drained"])
def test_a_queue_without_a_backlog_is_not_waited_on(serve_model, events):
    start = time.monotonic()
    _runner(serve_model, events).await_collector(per_round=4)
    assert time.monotonic() - start < shard_module.BACKLOG_WAIT_S
