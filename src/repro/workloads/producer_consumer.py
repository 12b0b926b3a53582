"""The producer/consumer workload (§2.2.7, §2.3.6).

"Several parallel applications have a producer/consumer style of
communication where one process computes some data, which are
subsequently used by one or more other processes.  To reduce the read
latency of the consumer processors it is convenient to send to them
the data that they will use as early as possible."

One producer repeatedly fills a batch of words and raises a flag
(safely, FENCE first); each consumer awaits the flag and reads the
batch.  Two configurations:

- ``sharing="replica"``: consumers hold local replicas kept fresh by
  the update protocol — consumer reads are local (the win the
  multicast mechanism buys);
- ``sharing="remote"``: consumers read through the remote window —
  every read is a full network round trip.

Returns the mean consumer read latency and the makespan, which is what
the §2.3.6 update-vs-invalidate comparison plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.api.shmem import POLL_NS
from repro.sim import Accumulator


@dataclass
class ProducerConsumerResult:
    makespan_ns: int
    consumer_read_ns: Accumulator
    batches: int
    words_per_batch: int


def run_producer_consumer(
    cluster,
    producer_node: int = 0,
    consumer_nodes: List[int] = None,
    batches: int = 5,
    words_per_batch: int = 16,
    sharing: str = "replica",
) -> ProducerConsumerResult:
    """Build and run the workload on ``cluster``; the data segment is
    homed at the producer (the natural owner)."""
    consumer_nodes = consumer_nodes if consumer_nodes is not None else [1]
    data = cluster.alloc_segment(producer_node, pages=1, name="pc.data")
    flags = cluster.alloc_segment(producer_node, pages=1, name="pc.flag")

    producer = cluster.create_process(producer_node, "producer")
    produce_base = producer.map(data)
    produce_flag = producer.map(flags)

    read_latency = Accumulator("consumer_read_ns")
    contexts = []

    def producer_prog(p):
        for batch in range(batches):
            for w in range(words_per_batch):
                yield p.store(produce_base + 4 * w, batch * 1000 + w)
            yield p.fence()  # data before flag (§2.3.5)
            yield p.store(produce_flag, batch + 1)

    contexts.append(cluster.start(producer, producer_prog))

    for consumer_node in consumer_nodes:
        consumer = cluster.create_process(consumer_node, f"consumer{consumer_node}")
        if sharing == "replica":
            consume_base = consumer.map(data, mode="replica")
        elif sharing == "remote":
            consume_base = consumer.map(data)
        else:
            raise ValueError(f"unknown sharing mode {sharing!r}")
        consume_flag = consumer.map(flags)

        def consumer_prog(p, consume_base=consume_base,
                          consume_flag=consume_flag):
            for batch in range(batches):
                while True:
                    seen = yield p.load(consume_flag)
                    if seen >= batch + 1:
                        break
                    yield p.think(POLL_NS)
                for w in range(words_per_batch):
                    start = cluster.now
                    value = yield p.load(consume_base + 4 * w)
                    read_latency.add(cluster.now - start)
                    # Values are from the current or a later batch —
                    # never garbage (checked by the S8 bench).
                    assert value % 1000 == w or value == 0, value

        contexts.append(cluster.start(consumer, consumer_prog))

    start = cluster.now
    cluster.run(join=contexts)
    return ProducerConsumerResult(
        makespan_ns=cluster.now - start,
        consumer_read_ns=read_latency,
        batches=batches,
        words_per_batch=words_per_batch,
    )
