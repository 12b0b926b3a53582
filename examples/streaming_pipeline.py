#!/usr/bin/env python3
"""A producer/consumer streaming pipeline (the §1 multimedia motivation).

One node produces frames of data; two consumer nodes process them.
The same pipeline runs two ways:

1. **no replication** — consumers read every word through the remote
   window (a 7 µs round trip per word);
2. **eager-update replicas** (§2.2.7) — consumers hold local copies
   that the update protocol keeps fresh, so their reads are local.

The flag handoff uses the safe §2.3.5 pattern (FENCE before flag).

Run:  python examples/streaming_pipeline.py
"""

from repro.api import Cluster, ClusterConfig
from repro.workloads import run_producer_consumer


def run(mode: str, protocol: str):
    cluster = Cluster(ClusterConfig(n_nodes=3, protocol=protocol))
    result = run_producer_consumer(
        cluster,
        producer_node=0,
        consumer_nodes=[1, 2],
        batches=6,
        words_per_batch=32,
        sharing=mode,
    )
    return result


def main():
    print("Streaming pipeline: 1 producer -> 2 consumers, "
          "6 frames x 32 words\n")
    remote = run("remote", "none")
    replica = run("replica", "telegraphos")

    rows = [
        ("consumers read remotely", remote),
        ("consumers hold replicas", replica),
    ]
    print(f"{'configuration':<28}{'read latency':>14}{'makespan':>12}")
    for name, result in rows:
        print(
            f"{name:<28}"
            f"{result.consumer_read_ns.mean / 1000.0:>11.2f} us"
            f"{result.makespan_ns / 1000.0:>9.0f} us"
        )
    speedup = remote.consumer_read_ns.mean / replica.consumer_read_ns.mean
    print(f"\nEager updating cut the consumer read latency {speedup:.1f}x "
          f"(S2.2.7: 'To reduce the read latency of the consumer")
    print("processors it is convenient to send to them the data that "
          "they will use as early as possible.')")


if __name__ == "__main__":
    main()
