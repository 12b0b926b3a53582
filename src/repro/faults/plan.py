"""Deterministic fault schedules.

The Telegraphos fabric is lossless by construction (§2.1: back-pressured
flow control), so packet loss can only enter the simulation through an
explicit, *reproducible* schedule.  A :class:`FaultPlan` makes every
fault decision a pure function of ``(seed, category, site, packet
ordinal)``: the n-th packet crossing a given link either suffers a given
fault under a given seed or it never does, independent of event-loop
interleaving, Python hash randomisation, or platform.  That is what lets
the property harness print a failing seed and have anyone replay the
exact same run.

Randomness comes from BLAKE2b over the decision coordinates rather than
a stateful PRNG: a shared ``random.Random`` would entangle the decision
stream with simulation event order, silently breaking determinism the
first time two links race.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Tuple


def decision_fraction(seed: int, category: str, site: str, ordinal: int) -> float:
    """A uniform draw in ``[0, 1)`` for one fault decision.

    Pure and order-independent: the same coordinates always produce the
    same fraction, on every platform.
    """
    payload = f"{seed}|{category}|{site}|{ordinal}".encode()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") / float(1 << 64)


def _threshold(rate: float) -> int:
    """The least 64-bit draw ``x`` with ``x / 2**64 >= rate`` (as
    :func:`decision_fraction` computes it, in floating point), so a
    draw is below the threshold exactly when its fraction is below
    ``rate``.  The fraction never falls as ``x`` grows, so bisection
    finds it."""
    low, high = 0, 1 << 64
    while low < high:
        mid = (low + high) // 2
        if mid / float(1 << 64) >= rate:
            high = mid
        else:
            low = mid + 1
    return low


#: The categories a packet-level fault can fall into, in decision
#: precedence order (first matching category wins).
CATEGORIES = ("drop", "corrupt", "duplicate", "stall")


@dataclass(frozen=True)
class FaultConfig:
    """Parsed form of ``ClusterConfig(faults={...})``.

    Rates are per-traversal probabilities, evaluated independently at
    every fault site (host links, inter-switch cables, switch input
    ports) a packet crosses.
    """

    #: Seed for the whole schedule; two clusters with equal configs and
    #: seeds inject byte-identical fault sequences.
    seed: int = 0
    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    duplicate_rate: float = 0.0
    stall_rate: float = 0.0
    #: Extra in-flight delay charged to a stalled packet.
    stall_ns: int = 2_000
    #: Restrict packet faults to sites whose name contains one of these
    #: substrings (``None`` = every link and switch port).
    sites: Optional[Tuple[str, ...]] = None
    #: Forced, exactly-reproducible drops: ``(site substring, nth)``
    #: drops the nth matching packet (1-based) at that site.  This is
    #: the golden-trace hook: one forced drop, one nack, one retry.
    drop_exact: Tuple[Tuple[str, int], ...] = ()
    #: Transient HIB hangs: ``(node, at_ns, for_ns)`` windows during
    #: which that node's servant loops stop draining their FIFOs.
    hib_hangs: Tuple[Tuple[int, int, int], ...] = ()

    def __post_init__(self) -> None:
        for rate_name in ("drop_rate", "corrupt_rate", "duplicate_rate",
                          "stall_rate"):
            rate = getattr(self, rate_name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{rate_name} must be in [0, 1], got {rate}")
        if self.stall_ns < 0:
            raise ValueError("stall_ns must be non-negative")

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultConfig":
        known = [f.name for f in fields(cls)]
        unknown = set(data) - set(known)
        if unknown:
            raise ValueError(
                f"unknown fault config key(s) {sorted(unknown)}; "
                f"known: {known}"
            )
        data = dict(data)
        if data.get("sites") is not None:
            data["sites"] = tuple(data["sites"])
        data["drop_exact"] = tuple(
            (entry["site"], entry["nth"]) if isinstance(entry, dict)
            else tuple(entry)
            for entry in data.get("drop_exact", ())
        )
        data["hib_hangs"] = tuple(
            (entry["node"], entry["at_ns"], entry["for_ns"])
            if isinstance(entry, dict) else tuple(entry)
            for entry in data.get("hib_hangs", ())
        )
        return cls(**data)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "drop_rate": self.drop_rate,
            "corrupt_rate": self.corrupt_rate,
            "duplicate_rate": self.duplicate_rate,
            "stall_rate": self.stall_rate,
            "stall_ns": self.stall_ns,
            "sites": None if self.sites is None else list(self.sites),
            "drop_exact": [list(e) for e in self.drop_exact],
            "hib_hangs": [list(e) for e in self.hib_hangs],
        }


@dataclass
class FaultDecision:
    """What happens to one packet at one site."""

    kind: str = "deliver"  # deliver | drop | corrupt | duplicate | stall
    stall_ns: int = 0
    forced: bool = False


_DELIVER = FaultDecision()


class FaultPlan:
    """The per-seed schedule: maps (site, packet ordinal) → decision.

    Holds the per-site traversal counters, so one plan instance must be
    consulted exactly once per packet traversal per site — the
    :class:`~repro.faults.injector.FaultInjector` owns that contract.
    """

    def __init__(self, config: FaultConfig):
        self.config = config
        self._ordinals: Dict[str, int] = {}
        # The active (non-zero-rate) categories with their draw
        # thresholds.  Zero-rate categories draw no randomness, so
        # skipping them leaves every remaining decision byte-identical
        # to the unskipped schedule.
        self._thresholds = [
            (category, _threshold(getattr(config, f"{category}_rate")))
            for category in CATEGORIES
            if getattr(config, f"{category}_rate")
        ]
        # Per-site decision state, computed once per site: ``None`` for
        # filtered-out sites, else [(category, threshold, hasher)].
        self._site_state: Dict[str, Optional[List[Tuple[str, int, Any]]]] = {}

    def site_matches(self, site: str) -> bool:
        sites = self.config.sites
        if sites is None:
            return True
        return any(fragment in site for fragment in sites)

    def _state_for(self, site: str) -> Optional[List[Tuple[str, int, Any]]]:
        if not self.site_matches(site):
            return None
        seed = self.config.seed
        return [
            (category, threshold,
             hashlib.blake2b(f"{seed}|{category}|{site}|".encode(),
                             digest_size=8))
            for category, threshold in self._thresholds
        ]

    def decide(self, site: str) -> FaultDecision:
        """Decision for the next packet crossing ``site``.

        Decisions are byte-identical to calling
        :func:`decision_fraction` per category: each category's hasher
        has already absorbed the payload's ``seed|category|site|``
        prefix, so a copy fed the ordinal yields the same digest, and
        the digest is below the rate's threshold exactly when its
        fraction is below the rate.
        """
        ordinal = self._ordinals.get(site, 0) + 1
        self._ordinals[site] = ordinal
        drop_exact = self.config.drop_exact
        if drop_exact:
            for fragment, nth in drop_exact:
                if fragment in site and ordinal == nth:
                    return FaultDecision(kind="drop", forced=True)
        state = self._site_state.get(site, False)
        if state is False:
            state = self._site_state[site] = self._state_for(site)
        if state is None:
            return _DELIVER
        suffix = b"%d" % ordinal
        for category, threshold, prefixed in state:
            hasher = prefixed.copy()
            hasher.update(suffix)
            if int.from_bytes(hasher.digest(), "big") < threshold:
                if category == "stall":
                    return FaultDecision(kind="stall",
                                         stall_ns=self.config.stall_ns)
                return FaultDecision(kind=category)
        return _DELIVER

    def hang_remaining(self, node: int, now: int) -> int:
        """Nanoseconds of HIB hang still ahead of ``node`` at ``now``."""
        remaining = 0
        for hang_node, at_ns, for_ns in self.config.hib_hangs:
            if hang_node == node and at_ns <= now < at_ns + for_ns:
                remaining = max(remaining, at_ns + for_ns - now)
        return remaining
