"""Central configuration: timing, sizing, and protocol parameters.

Every latency constant in the simulation lives here, with its
provenance.  Three classes of numbers:

1. **Documented** — taken from the paper or from public documentation
   of the original testbed (DEC 3000 model 300 "Pelican", 150 MHz
   Alpha 21064, 12.5 MHz TurboChannel option slots, FPGA-based HIB).
2. **Fitted** — the paper reports three end-to-end numbers in §3.2
   (remote write 0.70 µs sustained, streamed writes < 0.5 µs, remote
   read 7.2 µs).  We use them to fit the handful of internal latencies
   the paper does not state (HIB state-machine depths, MPM DRAM access
   time).  The *composition* of the numbers is structural — it falls
   out of the simulated datapath — only the per-stage magnitudes are
   fitted.
3. **Derived** — computed from the above (e.g. packet serialization
   time = size / link bandwidth).

Packet wire sizes are not parameters: each packet kind has one wire
format, so its size lives on
:class:`~repro.network.packet.PacketKind` (``size_bytes``).

The default values reproduce the paper's Table 1 configuration
(Telegraphos I) and its §3.2 measurements; see
``repro.exp.experiments.t2_latency.check`` for the check.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace


@dataclass(frozen=True)
class TimingParams:
    """All latencies, in integer nanoseconds.

    The attribute comments give the derivation of each default.
    """

    # --- CPU (DEC Alpha 21064 @150 MHz; documented) --------------------
    #: Cost of issuing one instruction-level operation (uncached
    #: load/store reaching the pin interface; includes write-buffer
    #: drain for uncached stores).  ~6 CPU cycles.
    cpu_issue_ns: int = 40

    # --- Main memory and memory bus (documented, typical 1995 parts) ---
    #: Main-memory (DRAM) word access as seen from the memory bus.
    mem_read_ns: int = 180
    mem_write_ns: int = 140
    #: Cache hit service time (local, cacheable data).
    cache_hit_ns: int = 14
    #: Memory-bus arbitration per transaction.
    membus_arb_ns: int = 40

    # --- TurboChannel (documented: 12.5 MHz option clock = 80 ns) ------
    #: Bus arbitration + address cycle for one TC transaction.
    tc_arb_ns: int = 100
    #: Data cycle(s) for one 32-bit word on the TC.
    tc_data_ns: int = 160
    #: Extra synchronizer delay crossing into the HIB's clock domain
    #: (FITTED: makes the write issue path cpu_issue + tc_arb +
    #: tc_data + tc_sync = 0.48 µs, so streamed writes land under the
    #: paper's 0.5 µs while the network rate sets the 0.70 µs
    #: sustained cost).
    tc_sync_ns: int = 180
    #: Completion of a blocked TurboChannel read: the stalled/retried
    #: read cycle that returns the data to the CPU (FITTED: the
    #: residual that puts the end-to-end remote read at the paper's
    #: 7.2 µs; physically it is TC retry polling, ~21 option cycles).
    tc_read_return_ns: int = 1700

    # --- HIB internals (FPGA state machines @12.5 MHz; FITTED depths) --
    #: One HIB FPGA clock cycle (documented: rapid-prototyping FPGAs).
    hib_cycle_ns: int = 80
    #: Request/packet decode and dispatch inside a HIB (3 cycles).
    #: Kept below the 0.70 µs per-packet wire time so the network —
    #: not the HIB — bounds sustained write throughput, which is what
    #: §3.2 reports ("long batches of write operations are eventually
    #: performed at the network transfer rate").
    hib_decode_ns: int = 240
    #: HIB on-board MPM DRAM read (16 MB of DRAM, Table 1), incl.
    #: refresh arbitration (FITTED, ~15 cycles — conservative FPGA
    #: DRAM controller).
    hib_mem_read_ns: int = 1200
    hib_mem_write_ns: int = 400
    #: Building + injecting a reply packet (6 cycles).
    hib_inject_ns: int = 480
    #: Atomic-operation unit: read-modify-write on MPM plus ALU pass.
    hib_atomic_extra_ns: int = 320
    #: Pending-write-counter cache (CAM) lookup+update (§2.3.3: "two
    #: memory accesses and one increment"); CAM is SRAM-speed.
    counter_cache_rmw_ns: int = 160

    # --- Links (ribbon cables; documented order of magnitude) ----------
    #: Propagation + re-timing per cable hop.
    link_prop_ns: int = 50
    #: Link payload bandwidth in bytes per microsecond.  20 B/µs
    #: (≈20 MB/s) is FITTED so that a 14-byte write packet serializes
    #: in 0.70 µs — the paper's sustained remote-write rate, which §3.2
    #: attributes to "the network transfer rate".
    link_bytes_per_us: int = 20

    # --- Switch (Telegraphos switch, [16,17]) ---------------------------
    #: Routing decision + central-buffer transit per packet
    #: (store-and-forward; serialization is charged per hop by the
    #: link model).
    switch_route_ns: int = 240

    # --- Retry/timeout protocol (fault-tolerant HIB transport) ---------
    # Telegraphos assumes lossless back-pressured links (S2.1); the
    # retry protocol only engages when fault injection (repro.faults)
    # is configured, so these numbers are protocol tuning, not paper
    # calibration.
    #: Base retransmission timeout per destination channel.  Sized
    #: well above the S3.2 remote-read round trip (7.2 us) so a
    #: healthy fabric never times out.
    retry_timeout_ns: int = 60_000
    #: Retransmission-timeout ceiling under exponential growth.
    retry_timeout_cap_ns: int = 500_000
    #: Backoff before the first retransmission; doubles per
    #: consecutive retry of the same window.
    retry_backoff_ns: int = 5_000
    #: Backoff ceiling (capped exponential backoff).
    retry_backoff_cap_ns: int = 80_000

    # --- Operating system model (documented mid-90s OSF/1 magnitudes) --
    #: User→kernel trap plus return (syscall overhead).
    os_trap_ns: int = 20_000
    #: Page-fault handling software path (excl. any copying).
    os_fault_ns: int = 50_000
    #: Interrupt dispatch to a driver handler.
    os_interrupt_ns: int = 15_000
    #: Context-switch cost.
    os_cswitch_ns: int = 25_000

    def __post_init__(self) -> None:
        # The kernel takes only non-negative int delays, so a bad value
        # fails here, naming its field, instead of inside whichever
        # process first waits on it.
        for spec in fields(self):
            value = getattr(self, spec.name)
            if type(value) is not int:
                raise TypeError(
                    f"TimingParams.{spec.name} must be an int, "
                    f"got {value!r}")
            if value < 0:
                raise ValueError(
                    f"TimingParams.{spec.name} must be non-negative, "
                    f"got {value!r}")
        # The one divisor: serialization time is size / bandwidth.
        if self.link_bytes_per_us == 0:
            raise ValueError(
                "TimingParams.link_bytes_per_us must be positive, got 0")

    def serialization_ns(self, size_bytes: int) -> int:
        """Time to clock ``size_bytes`` onto a link."""
        return (size_bytes * 1000) // self.link_bytes_per_us


@dataclass(frozen=True)
class SizingParams:
    """Capacities and geometry, matching the Table 1 configuration."""

    #: Page size in bytes (DEC OSF/1 on Alpha: 8 KB pages).
    page_bytes: int = 8192
    #: HIB outgoing FIFO, in packets.  Deep enough to absorb the
    #: §3.2 100-write burst (the "Telegraphos queueing" effect).
    hib_out_fifo: int = 128
    #: HIB incoming FIFO, in packets (Table 1: 2+2 Kb synchronizing
    #: FIFOs ≈ tens of packets; depth matters only under contention).
    hib_in_fifo: int = 32
    #: Switch input-port buffer, in packets.
    switch_port_fifo: int = 16
    #: Shared central buffer of the switch, in packets (the
    #: pipelined-memory shared buffer of [16]).
    switch_buffer_slots: int = 64
    #: Per-output occupancy quota within the shared buffer: one hot
    #: destination cannot take every slot.
    switch_output_quota: int = 48
    #: Link credit window (back-pressure granularity), in packets.
    link_credits: int = 4
    #: Multicast list entries (Table 1: "16 K multicast list entries
    #: x 32 bits").
    multicast_entries: int = 16384
    #: Remotely sharable pages tracked by access counters (Table 1:
    #: "64 K pages x (16+16) bits").
    counted_pages: int = 65536
    #: Width of each page access counter, bits (Table 1: 16+16).
    page_counter_bits: int = 16
    #: MPM (multiprocessor memory) on the HIB (Table 1: 16 MBytes).
    mpm_bytes: int = 16 * 1024 * 1024
    #: Telegraphos contexts available on the HIB (Tg II, §2.2.4).
    contexts: int = 16
    #: Consecutive retransmissions of one window before the peer is
    #: declared unreachable (a structured NodeFailure report).
    retry_limit: int = 10
    #: Depth of the link-level control (ack/nack) send queue; an
    #: overflowing ack is dropped and recovered by the peer's timeout.
    ll_control_queue: int = 1024

    #: Queue depths, buffer sizes and divisors: at least 1.
    _POSITIVE = ("hib_out_fifo", "hib_in_fifo", "switch_port_fifo",
                 "switch_buffer_slots", "switch_output_quota", "link_credits",
                 "ll_control_queue", "page_bytes")

    def __post_init__(self) -> None:
        # Every field is an int, so a fractional depth fails here,
        # naming its field, instead of being read as the next integer
        # by a queue.
        for spec in fields(self):
            value = getattr(self, spec.name)
            if type(value) is not int:
                raise TypeError(
                    f"SizingParams.{spec.name} must be an int, "
                    f"got {value!r}")
        for name in self._POSITIVE:
            value = getattr(self, name)
            if value < 1:
                raise ValueError(
                    f"SizingParams.{name} must be at least 1, got {value!r}")


@dataclass(frozen=True)
class Params:
    """Aggregate configuration object passed around the whole system."""

    timing: TimingParams = field(default_factory=TimingParams)
    sizing: SizingParams = field(default_factory=SizingParams)
    #: 1 = Telegraphos I (shared data in HIB MPM; special ops launched
    #: via special mode + PAL code); 2 = Telegraphos II (shared data in
    #: main memory; contexts + shadow addressing + keys).
    prototype: int = 1

    def with_timing(self, **overrides) -> "Params":
        return replace(self, timing=replace(self.timing, **overrides))

    def with_sizing(self, **overrides) -> "Params":
        return replace(self, sizing=replace(self.sizing, **overrides))


DEFAULT_PARAMS = Params()
