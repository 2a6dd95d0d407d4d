"""A shard's memory is flat across rounds: the service keeps no samples.

Every restored chunk leaves the shard on its event queue; nothing inside
the shard may hold on to it. The span log is capped at
``Tracer.max_records``, so once it is full a steady shard should allocate
nothing that survives a round.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.serve import ServeConfig, ShardRunner

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
