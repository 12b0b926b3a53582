"""Message passing over remote writes (§3.2) and over the hardware
multicast (§2.2.7).

"Applications that want to send small messages can do that very
efficiently" — a :class:`Channel` message is a burst of remote writes
into a ring buffer homed at the receiver, followed by a FENCE and a
sequence-word write (the safe §2.3.5 pattern).  The receiver polls its
*local* memory, so receive-side polling is cheap.

Flow control: the receiver remote-writes a consumed counter into a
word homed at the *sender*, which the sender polls locally before
reusing a slot — back-pressure with no OS involvement on either side.

:class:`BroadcastChannel` is the one-to-many variant the eager-update
multicast exists for: "This mechanism can be used both in message
passing and in shared-memory programming paradigms" (§2.2.7).  The
sender writes into its *own* shared page, which the HIB's multicast
table maps out to one page per receiver; a single local write fans out
to every receiver in hardware.
"""

from __future__ import annotations

from typing import List, Optional

from repro.api.shmem import POLL_NS, Proc


class _Ring:
    """The slot geometry both channels share: ``capacity`` slots of
    ``slot_words`` words each; word 0 is the sequence stamp, word 1 the
    payload length, the rest payload.  Its endpoints, a
    :class:`RingSender` and :class:`RingReceiver` per receiver, learn
    where the ring and its credit words live from :meth:`_bind_sender`
    and :meth:`_bind_receiver`."""

    SEQ = 0
    LEN = 4
    PAYLOAD = 8

    def __init__(self, cluster, capacity: int, slot_words: int):
        if capacity < 1 or slot_words < 3:
            raise ValueError("capacity >= 1 and slot_words >= 3 required")
        self.cluster = cluster
        self.capacity = capacity
        self.slot_words = slot_words

    def slot_offset(self, index: int) -> int:
        return (index % self.capacity) * self.slot_words * 4

    @property
    def max_payload_words(self) -> int:
        return self.slot_words - 2


class Channel(_Ring):
    """A one-way channel from ``sender`` to ``receiver``.

    The *data segment* (homed at the receiver) holds the ring; the
    *credit segment* (homed at the sender) holds the consumed counter.
    """

    def __init__(self, cluster, sender_node: int, receiver_node: int,
                 name: str, capacity: int = 16, slot_words: int = 16):
        super().__init__(cluster, capacity, slot_words)
        slot_bytes = slot_words * 4
        pages = (capacity * slot_bytes + cluster.amap.page_bytes - 1) \
            // cluster.amap.page_bytes
        self.data_seg = cluster.alloc_segment(
            receiver_node, pages, f"{name}.data"
        )
        self.credit_seg = cluster.alloc_segment(sender_node, 1, f"{name}.credit")
        self.sender = RingSender(self, sender_node)
        self.receiver = RingReceiver(self, receiver_node)

    def _bind_sender(self, proc: Proc):
        ring = proc.map(self.data_seg)        # remote window
        credit = proc.map(self.credit_seg)    # local backend
        return ring, [credit]

    def _bind_receiver(self, proc: Proc):
        ring = proc.map(self.data_seg)        # local backend
        credit = proc.map(self.credit_seg)    # remote window
        return ring, credit


class BroadcastChannel(_Ring):
    """One sender, many receivers, over the hardware multicast.

    The ring buffer lives in a page *homed at the sender*; the driver
    maps that page out (§2.2.7) to one page per receiver, so each of
    the sender's local writes is transparently delivered to every
    receiver's copy.  Receivers poll their local pages.  Flow control:
    each receiver remote-writes its consumed count into its own credit
    word homed at the sender; the sender waits for the *slowest*
    receiver before reusing a slot.
    """

    def __init__(self, cluster, sender_node: int, receiver_nodes,
                 name: str, capacity: int = 8, slot_words: int = 16):
        super().__init__(cluster, capacity, slot_words)
        if not receiver_nodes:
            raise ValueError("need at least one receiver")
        if sender_node in receiver_nodes:
            raise ValueError("the sender cannot also be a receiver")
        self.sender_node = sender_node
        self.receiver_nodes = list(receiver_nodes)
        page_bytes = cluster.amap.page_bytes
        if capacity * slot_words * 4 > page_bytes:
            raise ValueError("ring does not fit in one page")

        # The sender-homed ring page, and one landing page + credit
        # word per receiver.
        self.ring_seg = cluster.alloc_segment(sender_node, 1, f"{name}.ring")
        self.credit_seg = cluster.alloc_segment(
            sender_node, 1, f"{name}.credits"
        )
        self.landing = {}
        sender_station = cluster.node(sender_node)
        for node in self.receiver_nodes:
            seg = cluster.alloc_segment(node, 1, f"{name}.land{node}")
            self.landing[node] = seg
            # Program the hardware multicast table (§2.2.7).
            sender_station.driver.map_multicast(
                local_page=self.ring_seg.gpage, node=node,
                remote_page=seg.gpage,
            )
        self.sender = RingSender(self, sender_node)
        self.receivers = {
            node: RingReceiver(self, node) for node in self.receiver_nodes
        }

    def _bind_sender(self, proc: Proc):
        ring = proc.map(self.ring_seg)        # local page, mapped out
        credits = proc.map(self.credit_seg)   # local page
        return ring, [credits + 4 * i for i in range(len(self.receiver_nodes))]

    def _bind_receiver(self, proc: Proc):
        ring = proc.map(self.landing[proc.node_id])
        credits = proc.map(self.credit_seg)   # remote window
        return ring, credits + 4 * self.receiver_nodes.index(proc.node_id)


class RingSender:
    """A channel's sender endpoint; bind to a process with :meth:`bind`."""

    def __init__(self, channel: _Ring, node_id: int):
        self.channel = channel
        self.node_id = node_id
        self.proc: Optional[Proc] = None
        self._ring_base = 0
        self._credits: List[int] = []
        self._sent = 0
        self.messages_sent = 0

    def bind(self, proc: Proc) -> None:
        if proc.node_id != self.node_id:
            raise ValueError("sender process must run on the sender node")
        self.proc = proc
        self._ring_base, self._credits = self.channel._bind_sender(proc)

    def send(self, payload: List[int]):
        """Generator: write one message (blocks while the ring is full)."""
        channel = self.channel
        proc = self.proc
        if proc is None:
            raise RuntimeError("sender not bound to a process")
        if len(payload) > channel.max_payload_words:
            raise ValueError(
                f"payload of {len(payload)} words exceeds slot capacity "
                f"{channel.max_payload_words}"
            )
        # Flow control: poll the local credit words until the slowest
        # receiver has freed the slot.
        while True:
            consumed = []
            for credit in self._credits:
                consumed.append((yield proc.load(credit)))
            if self._sent - min(consumed) < channel.capacity:
                break
            yield proc.think(POLL_NS)
        slot = self._ring_base + channel.slot_offset(self._sent)
        for i, word in enumerate(payload):
            yield proc.store(slot + _Ring.PAYLOAD + 4 * i, word)
        yield proc.store(slot + _Ring.LEN, len(payload))
        # The safe flag pattern (§2.3.5): data completes before the
        # stamp; on a broadcast ring the fence also covers the
        # multicast copies of the payload words.
        yield proc.fence()
        yield proc.store(slot + _Ring.SEQ, self._sent + 1)
        self._sent += 1
        self.messages_sent += 1


class RingReceiver:
    """A channel's receiver endpoint; bind to a process with :meth:`bind`."""

    def __init__(self, channel: _Ring, node_id: int):
        self.channel = channel
        self.node_id = node_id
        self.proc: Optional[Proc] = None
        self._ring_base = 0
        self._credit = 0
        self._received = 0
        self.messages_received = 0

    def bind(self, proc: Proc) -> None:
        if proc.node_id != self.node_id:
            raise ValueError("receiver process must run on the receiver node")
        self.proc = proc
        self._ring_base, self._credit = self.channel._bind_receiver(proc)

    def recv(self):
        """Generator: receive the next message (polling the local ring);
        returns its payload."""
        channel = self.channel
        proc = self.proc
        if proc is None:
            raise RuntimeError("receiver not bound to a process")
        slot = self._ring_base + channel.slot_offset(self._received)
        expected = self._received + 1
        while True:
            stamp = yield proc.load(slot + _Ring.SEQ)
            if stamp == expected:
                break
            yield proc.think(POLL_NS)
        length = yield proc.load(slot + _Ring.LEN)
        payload = []
        for i in range(length):
            payload.append((yield proc.load(slot + _Ring.PAYLOAD + 4 * i)))
        self._received += 1
        self.messages_received += 1
        # Return the credit with a single remote write.
        yield proc.store(self._credit, self._received)
        return payload
