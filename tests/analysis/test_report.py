"""Tests for the cluster report and remaining measure helpers."""

import itertools

import pytest

from repro.analysis import ClusterReport, run_to_completion
from repro.api import Cluster, ClusterConfig


def busy_cluster():
    cluster = Cluster(ClusterConfig(n_nodes=3, protocol="telegraphos"))
    seg = cluster.alloc_segment(home=0, pages=1, name="data")
    writer = cluster.create_process(node=1, name="writer")
    wbase = writer.map(seg, mode="replica")
    reader = cluster.create_process(node=2, name="reader")
    rbase = reader.map(seg)

    def write(p):
        for i in range(5):
            yield p.store(wbase + 4 * i, i)

    def read(p):
        for i in range(3):
            yield p.load(rbase + 4 * i)
        yield from p.fetch_and_add(rbase + 0x40, 1)

    ctxs = [cluster.start(writer, write), cluster.start(reader, read)]
    cluster.run(join=ctxs)
    return cluster


def test_report_sections_render():
    cluster = busy_cluster()
    report = ClusterReport(cluster)
    text = report.render()
    assert "Cluster report" in text
    assert "HIB activity" in text
    assert "Coherence engines" in text
    assert "telegraphos" in text
    assert "Busiest links" in text
    assert "Switches" in text


def test_report_reflects_actual_counts():
    cluster = busy_cluster()
    report = ClusterReport(cluster)
    node_text = report.node_table().render()
    # Reader did 3 remote reads and 1 atomic from node 2.
    lines = [ln for ln in node_text.splitlines() if ln.startswith("2 ")]
    assert lines
    engine_text = report.engine_table().render()
    assert "telegraphos" in engine_text


def test_hot_pages_table_lists_accessed_pages():
    cluster = busy_cluster()
    text = ClusterReport(cluster).hot_pages_table().render()
    assert "(0, 0)" in text  # reader accessed (home 0, page 0)


def test_run_to_completion_returns_makespan():
    cluster = Cluster(ClusterConfig(n_nodes=2))
    seg = cluster.alloc_segment(home=1, pages=1, name="s")
    proc = cluster.create_process(node=0, name="p")
    base = proc.map(seg)

    def program(p):
        yield p.store(base, 1)
        yield p.fence()

    ctx = cluster.start(proc, program)
    makespan = run_to_completion(cluster, [ctx])
    assert makespan > 0
    assert seg.peek(0) == 1


@pytest.mark.parametrize("nodes, topology, routing, switch_ids", [
    (24, "chain", "tree", list(range(12))),
    (200, "torus", "dor", list(itertools.product(range(10), repeat=2))),
    (242, "torus", "adaptive", list(itertools.product(range(11), repeat=2))),
], ids=["chain-12", "torus-10x10", "torus-11x11"])
def test_switch_table_lists_switches_in_numeric_order(nodes, topology,
                                                      routing, switch_ids):
    """Not string order, which puts switch 10 before 2 and (0, 10)
    before (0, 2)."""
    cluster = Cluster(ClusterConfig(n_nodes=nodes, topology=topology,
                                    routing=routing))
    rows = ClusterReport(cluster).switch_table().rows
    assert [row[:2] for row in rows] == [
        [str(switch_id), plane] for plane in ("req", "rsp")
        for switch_id in switch_ids]
