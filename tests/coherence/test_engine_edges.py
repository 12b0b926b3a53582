"""Edge paths of the coherence engines: updates to non-holders,
multi-writer Galactica, base-engine behaviour, factory validation."""

import pytest

from repro.coherence import make_engine, PROTOCOLS, SharingDirectory
from repro.machine import Store

from tests.coherence.conftest import CoherenceRig

HOME = 0
REPLICAS = {1: 16, 2: 17, 3: 18}


def test_factory_rejects_unknown_protocol():
    directory = SharingDirectory(8192)
    with pytest.raises(ValueError, match="unknown protocol"):
        make_engine("mesi", 0, directory)


def test_factory_builds_every_listed_protocol():
    directory = SharingDirectory(8192)
    for protocol in PROTOCOLS:
        engine = make_engine(protocol, 0, directory)
        assert engine is not None


def test_protocol_names_exposed():
    directory = SharingDirectory(8192)
    names = {make_engine(p, 0, directory).protocol_name for p in PROTOCOLS}
    assert names == {
        "none", "eager", "owner-stale", "owner-local", "telegraphos",
        "galactica",
    }


def test_base_engine_local_store_stays_local():
    """protocol='none': a store to a registered shared page applies
    locally and propagates nowhere."""
    rig = CoherenceRig(n_nodes=3)
    rig.attach_protocol("none")
    rig.share_page(HOME, 0, {1: 16})
    space = rig.space(1)
    base = rig.map_mpm(space, vpage=0, local_page=16)

    def prog():
        yield Store(base, 9)

    ctx = rig.run_on(1, prog(), space)
    rig.run_all(ctx)
    page = rig.amap.page_bytes
    assert rig.node(1).backend.peek(16 * page) == 9
    assert rig.node(0).backend.peek(0) == 0  # home untouched
    assert rig.engines[1].stats["updates_sent"] == 0


def test_eager_update_for_dropped_replica_is_ignored():
    """An UPDATE racing a replica drop must not corrupt anything."""
    rig = CoherenceRig(n_nodes=3)
    rig.attach_protocol("eager")
    group = rig.share_page(HOME, 0, {1: 16, 2: 17})
    space = rig.space(1)
    base = rig.map_mpm(space, vpage=0, local_page=16)

    # Drop node 2's replica just before the update arrives there.
    def prog():
        yield Store(base, 4)

    ctx = rig.run_on(1, prog(), space)
    rig.sim.run(max_events=50)  # the store has been issued...
    rig.directory.drop_replica(group, 2)
    rig.run_all(ctx)
    # Node 2's engine ignored the stray update.
    assert rig.engines[2].stats["updates_ignored"] >= 0
    assert rig.node(0).backend.peek(0) == 4  # home still updated


def test_galactica_three_writers_converge():
    rig = CoherenceRig(n_nodes=4)
    rig.attach_protocol("galactica")
    rig.share_page(HOME, 0, REPLICAS)
    ctxs = []
    for node, value in ((1, 11), (2, 22), (3, 33)):
        space = rig.space(node)
        base = rig.map_mpm(space, vpage=0, local_page=REPLICAS[node])

        def prog(base=base, value=value):
            yield Store(base, value)

        ctxs.append(rig.run_on(node, prog(), space))
    rig.run_all(*ctxs)
    assert not rig.checker().divergent_words(rig.backends(), words_per_page=1)
    # The highest-priority writer's value (lowest node id) wins.
    assert rig.node(0).backend.peek(0) == 11


def test_galactica_sequential_writes_no_backoff():
    rig = CoherenceRig(n_nodes=3)
    rig.attach_protocol("galactica")
    rig.share_page(HOME, 0, {1: 16, 2: 17})
    from repro.machine import Think

    space1 = rig.space(1)
    base1 = rig.map_mpm(space1, vpage=0, local_page=16)
    space2 = rig.space(2)
    base2 = rig.map_mpm(space2, vpage=0, local_page=17)

    def first():
        yield Store(base1, 1)

    def second():
        yield Think(200_000)  # well after the first settles
        yield Store(base2, 2)

    ctxs = [rig.run_on(1, first(), space1), rig.run_on(2, second(), space2)]
    rig.run_all(*ctxs)
    assert not rig.checker().divergent_words(rig.backends(), words_per_page=1)
    assert rig.node(0).backend.peek(0) == 2  # last write wins
    assert all(e.backoffs == 0 for e in rig.engines.values())


def test_owner_engine_rejects_misrouted_owner_update():
    """An owner-bound UPDATE arriving at a non-owner is a protocol
    error and must not be absorbed silently."""
    rig = CoherenceRig(n_nodes=3)
    rig.attach_protocol("telegraphos")
    rig.share_page(HOME, 0, {1: 16, 2: 17})
    from repro.network.packet import Packet, PacketKind

    pkt = Packet(
        PacketKind.UPDATE, src=1, dst=2, size_bytes=16, address=0, value=5,
        origin=1,
        meta={"home": HOME, "gpage": 0, "in_page": 0, "to_owner": True},
    )

    def inject():
        yield rig.fabric.port(1).send(pkt)

    rig.sim.spawn(inject())
    with pytest.raises(RuntimeError, match="failed") as info:
        rig.sim.run()
    (_, error), = rig.sim.failures
    assert error is info.value.__cause__
    assert "owner-bound update" in str(error)
