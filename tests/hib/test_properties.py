"""Property-based tests of the HIB's operation-level invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Cluster, ClusterConfig
from repro.hib.atomic import AtomicOp, apply_atomic


# -- atomic ALU algebra (pure, fast) -------------------------------------


@given(old=st.integers(), operand=st.integers())
def test_property_fetch_returns_old(old, operand):
    for op in AtomicOp:
        result, _new = apply_atomic(op, old, operand, operand)
        assert result == old


@given(old=st.integers(), a=st.integers(), b=st.integers())
def test_property_cas_writes_iff_match(old, a, b):
    _result, new = apply_atomic(AtomicOp.COMPARE_AND_SWAP, old, a, b)
    if old == a:
        assert new == b
    else:
        assert new == old


@given(old=st.integers(), delta=st.integers())
def test_property_fad_adds(old, delta):
    _result, new = apply_atomic(AtomicOp.FETCH_AND_ADD, old, delta)
    assert new == old + delta


# -- linearizability of remote atomics under contention ---------------------


@given(
    increments=st.lists(
        st.tuples(st.sampled_from([0, 1, 2]), st.integers(1, 5)),
        min_size=1,
        max_size=10,
    )
)
@settings(max_examples=12, deadline=None)
def test_property_no_lost_fetch_and_add(increments):
    """Any mix of fetch&adds from any nodes sums exactly — the HIB's
    rmw makes the home the single serialization point."""
    cluster = Cluster(ClusterConfig(n_nodes=3, trace=False))
    seg = cluster.alloc_segment(home=2, pages=1, name="ctr")
    per_node = {}
    for node, delta in increments:
        per_node.setdefault(node, []).append(delta)
    ctxs = []
    fetched = []
    for node, deltas in per_node.items():
        proc = cluster.create_process(node=node, name=f"p{node}")
        base = proc.map(seg)

        def program(p, deltas=deltas, base=base):
            for delta in deltas:
                old = yield from p.fetch_and_add(base, delta)
                fetched.append(old)

        ctxs.append(cluster.start(proc, program))
    cluster.run_programs(ctxs)
    total = sum(delta for _, delta in increments)
    assert seg.peek(0) == total
    # Every fetch observed a value in range and all were distinct
    # prefix sums of *some* serialization.
    assert len(fetched) == len(increments)
    assert len(set(fetched)) == len(fetched)
    assert all(0 <= v < total for v in fetched)


# -- write/fence invariants ---------------------------------------------------


@given(
    n_writes=st.integers(min_value=1, max_value=30),
    home=st.sampled_from([1, 2]),
)
@settings(max_examples=10, deadline=None)
def test_property_fence_implies_all_writes_visible(n_writes, home):
    cluster = Cluster(ClusterConfig(n_nodes=3, trace=False))
    seg = cluster.alloc_segment(home=home, pages=1, name="w")
    proc = cluster.create_process(node=0, name="p")
    base = proc.map(seg)

    def program(p):
        for i in range(n_writes):
            yield p.store(base + 4 * i, i + 1)
        yield p.fence()
        # Post-fence, every write is in the home memory (checked
        # below at this instant, not after drain).
        for i in range(n_writes):
            assert seg.peek(4 * i) == i + 1, i

    cluster.run_programs([cluster.start(proc, program)])
    assert cluster.node(0).hib.outstanding.count == 0


@given(values=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=12))
@settings(max_examples=10, deadline=None)
def test_property_last_write_wins_per_word(values):
    """Same-source writes to one word apply in program order (per-pair
    in-order delivery), so the final value is the last written."""
    cluster = Cluster(ClusterConfig(n_nodes=2, trace=False))
    seg = cluster.alloc_segment(home=1, pages=1, name="w")
    proc = cluster.create_process(node=0, name="p")
    base = proc.map(seg)

    def program(p):
        for value in values:
            yield p.store(base, value)
        yield p.fence()

    cluster.run_programs([cluster.start(proc, program)])
    assert seg.peek(0) == values[-1] & 0xFFFFFFFF
