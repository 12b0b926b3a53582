"""Tests for the measurement harness and table rendering."""

import pytest

from repro.analysis import (
    Table,
    comparison_table,
    measure_op_stream,
    measure_single_ops,
    us,
)
from repro.api import Cluster, ClusterConfig


def test_us_conversion():
    assert us(7200) == pytest.approx(7.2)


def test_table_render_aligned():
    table = Table(["name", "value"], title="T")
    table.add_row("a", 1)
    table.add_row("longer-name", 123.456)
    text = table.render()
    assert "T" in text
    assert "longer-name" in text
    assert "123" in text


def test_table_cell_count_checked():
    table = Table(["a", "b"])
    with pytest.raises(ValueError):
        table.add_row(1)


def test_comparison_table_ratio():
    table = comparison_table("cmp", [("write", 0.70, 0.71)])
    text = table.render()
    assert "1.01x" in text


def test_comparison_table_zero_paper_value():
    table = comparison_table("cmp", [("x", 0, 5.0)])
    assert "-" in table.render()


def test_measure_op_stream_remote_writes():
    cluster = Cluster(ClusterConfig(n_nodes=2))
    seg = cluster.alloc_segment(home=1, pages=1, name="s")
    proc = cluster.create_process(node=0, name="p")
    base = proc.map(seg)
    per_op = measure_op_stream(
        cluster, proc, lambda i: proc.store(base + 4 * (i % 64), i), count=100
    )
    assert 100 < per_op < 5_000  # sub-5µs per streamed write


def test_measure_single_ops_reads():
    cluster = Cluster(ClusterConfig(n_nodes=2))
    seg = cluster.alloc_segment(home=1, pages=1, name="s")
    proc = cluster.create_process(node=0, name="p")
    base = proc.map(seg)
    acc = measure_single_ops(cluster, proc, lambda i: proc.load(base), count=10)
    assert acc.count == 10
    assert acc.minimum > 1_000  # remote reads are µs-scale


def test_measure_supports_composite_ops():
    cluster = Cluster(ClusterConfig(n_nodes=2))
    seg = cluster.alloc_segment(home=1, pages=1, name="s")
    proc = cluster.create_process(node=0, name="p")
    base = proc.map(seg)
    acc = measure_single_ops(
        cluster, proc, lambda i: proc.fetch_and_add(base, 1), count=5
    )
    assert acc.count == 5
    assert seg.peek(0) == 5
