"""Declarative fault schedules.

A :class:`FaultSchedule` is an ordered list of :class:`FaultEvent`\\ s,
each naming a fault *kind*, its target, its onset time (relative to
injector start) and — for transient faults — a duration after which the
injector heals it.  Schedules are plain data: they can be written by
hand, generated deterministically from a seed
(:meth:`FaultSchedule.random`), printed, and replayed bit-for-bit.

Kinds
-----
``crash``       crash-stop a node's servers (recover after ``duration``)
``hang``        servers accept requests but never reply (gray failure)
``flap``        ``cycles`` fail/recover cycles of ``period`` seconds each
``degrade``     throttle the node's NVMe by ``factor`` (gray failure)
``flaky_link``  drop/delay messages on one node pair (``link``)
``partition``   drop *all* fabric traffic to/from a node
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from ..simcore import RandomStreams

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultSchedule",
    "crash",
    "degrade",
    "flaky_link",
    "flap",
    "hang",
    "partition",
]

FAULT_KINDS = ("crash", "hang", "flap", "degrade", "flaky_link", "partition")


@dataclass(frozen=True)
class FaultEvent:
    """One fault: what happens, to whom, when, and for how long."""

    time: float
    kind: str
    node: Optional[int] = None
    link: Optional[tuple[int, int]] = None
    #: transient faults heal after this long; None = permanent
    duration: Optional[float] = None
    #: NVMe slowdown for ``degrade`` (>= 1)
    factor: float = 4.0
    #: message-loss probability for ``flaky_link``
    drop_prob: float = 0.5
    #: added one-way delay for ``flaky_link`` (seconds)
    extra_delay: float = 0.0
    #: half-period of one ``flap`` cycle (down ``period``, up ``period``)
    period: float = 0.01
    #: number of ``flap`` cycles
    cycles: int = 3

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not self.time >= 0:
            raise ValueError("fault time must be >= 0")
        if self.kind == "flaky_link":
            if self.link is None:
                raise ValueError("flaky_link needs link=(src, dst)")
        elif self.node is None:
            raise ValueError(f"{self.kind} needs a target node")
        if self.duration is not None and not self.duration >= 0:
            raise ValueError("duration must be >= 0")
        if not self.factor >= 1.0:
            raise ValueError("degrade factor must be >= 1")
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError("drop_prob must be in [0, 1]")
        if not (self.extra_delay >= 0 and self.period >= 0 and self.cycles >= 0):
            raise ValueError("delay/period/cycles must be >= 0")

    def describe(self) -> str:
        target = f"link{self.link}" if self.link is not None else f"node {self.node}"
        tail = ""
        if self.kind == "degrade":
            tail = f" x{self.factor:g}"
        elif self.kind == "flaky_link":
            tail = f" p={self.drop_prob:g}"
            if self.extra_delay:
                tail += f" +{self.extra_delay:g}s"
        elif self.kind == "flap":
            tail = f" {self.cycles}x{self.period:g}s"
        if self.duration is not None:
            tail += f" for {self.duration:g}s"
        return f"t={self.time:g}: {self.kind} {target}{tail}"


class FaultSchedule:
    """An immutable, time-ordered sequence of fault events."""

    def __init__(self, events: Sequence[FaultEvent] = ()):
        self.events: tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: e.time)
        )

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __add__(self, other: "FaultSchedule") -> "FaultSchedule":
        return FaultSchedule(self.events + other.events)

    def describe(self) -> str:
        if not self.events:
            return "(no faults)"
        return "\n".join(e.describe() for e in self.events)

    @classmethod
    def random(
        cls,
        n_nodes: int,
        seed: int = 0,
        horizon: float = 1.0,
        crash_rate: float = 0.0,
        hang_rate: float = 0.0,
        degrade_rate: float = 0.0,
        flaky_rate: float = 0.0,
        mean_outage: float = 0.1,
        degrade_factor: float = 4.0,
        drop_prob: float = 0.5,
        rack_size: int = 0,
        rack_crash_rate: float = 0.0,
        switch_flaky_rate: float = 0.0,
        burst_spread: float = 0.0,
    ) -> "FaultSchedule":
        """A seeded random schedule: each rate is expected events per
        simulated second over ``[0, horizon)``, arrivals Poisson, targets
        uniform, outages exponential with ``mean_outage``.  The same
        arguments always produce the identical schedule.

        Correlated failures (require ``rack_size >= 1``):

        * ``rack_crash_rate`` — power/cooling bursts: every node of one
          random rack crashes within a ``burst_spread``-long uniform
          stagger window and shares one exponential outage duration;
        * ``switch_flaky_rate`` — a rack's uplink switch goes flaky:
          every (rack node, outside node) link drops with ``drop_prob``
          for one shared exponential duration.
        """
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if (rack_crash_rate > 0 or switch_flaky_rate > 0) and rack_size < 1:
            raise ValueError("correlated failure rates require rack_size >= 1")
        if burst_spread < 0:
            raise ValueError("burst_spread must be >= 0")
        rand = RandomStreams(seed)
        events: list[FaultEvent] = []

        def arrivals(name: str, rate: float):
            t = 0.0
            while rate > 0:
                t += rand.exponential(name, 1.0 / rate)
                if t >= horizon:
                    return
                yield t

        def pick_node(name: str) -> int:
            return int(rand.stream(name).integers(n_nodes))

        for t in arrivals("crash", crash_rate):
            events.append(
                FaultEvent(
                    t, "crash", node=pick_node("crash.node"),
                    duration=rand.exponential("crash.outage", mean_outage),
                )
            )
        for t in arrivals("hang", hang_rate):
            events.append(
                FaultEvent(
                    t, "hang", node=pick_node("hang.node"),
                    duration=rand.exponential("hang.outage", mean_outage),
                )
            )
        for t in arrivals("degrade", degrade_rate):
            events.append(
                FaultEvent(
                    t, "degrade", node=pick_node("degrade.node"),
                    duration=rand.exponential("degrade.outage", mean_outage),
                    factor=degrade_factor,
                )
            )
        for t in arrivals("flaky", flaky_rate if n_nodes >= 2 else 0.0):
            src = pick_node("flaky.src")
            dst = pick_node("flaky.dst")
            if src == dst:
                dst = (dst + 1) % n_nodes
            events.append(
                FaultEvent(
                    t, "flaky_link", link=(src, dst),
                    duration=rand.exponential("flaky.outage", mean_outage),
                    drop_prob=drop_prob,
                )
            )

        def rack_nodes(name: str) -> list[int]:
            n_racks = -(-n_nodes // rack_size)
            rack = int(rand.stream(name).integers(n_racks))
            lo = rack * rack_size
            return list(range(lo, min(lo + rack_size, n_nodes)))

        for t in arrivals("rack.crash", rack_crash_rate):
            members = rack_nodes("rack.crash.rack")
            outage = rand.exponential("rack.crash.outage", mean_outage)
            for node in members:
                stagger = (
                    rand.uniform("rack.crash.stagger", 0.0, burst_spread)
                    if burst_spread > 0
                    else 0.0
                )
                events.append(
                    FaultEvent(t + stagger, "crash", node=node, duration=outage)
                )
        for t in arrivals(
            "switch.flaky", switch_flaky_rate if n_nodes >= 2 else 0.0
        ):
            members = rack_nodes("switch.flaky.rack")
            outage = rand.exponential("switch.flaky.outage", mean_outage)
            inside = set(members)
            for node in members:
                for other in range(n_nodes):
                    if other in inside:
                        continue
                    events.append(
                        FaultEvent(
                            t, "flaky_link", link=(node, other),
                            duration=outage, drop_prob=drop_prob,
                        )
                    )
        return cls(events)


# -- terse constructors (read well in schedules) -------------------------
def crash(
    time: float, node: int, recover_after: Optional[float] = None
) -> FaultEvent:
    """Crash-stop ``node``'s servers; recover cold after ``recover_after``."""
    return FaultEvent(time, "crash", node=node, duration=recover_after)


def hang(time: float, node: int, duration: Optional[float] = None) -> FaultEvent:
    """Hang ``node``'s servers: requests land, replies never come."""
    return FaultEvent(time, "hang", node=node, duration=duration)


def flap(time: float, node: int, period: float = 0.01, cycles: int = 3) -> FaultEvent:
    """``cycles`` fail/recover cycles, each half lasting ``period``."""
    return FaultEvent(time, "flap", node=node, period=period, cycles=cycles)


def degrade(
    time: float, node: int, factor: float = 4.0, duration: Optional[float] = None
) -> FaultEvent:
    """Throttle ``node``'s NVMe to 1/``factor`` of rated speed."""
    return FaultEvent(time, "degrade", node=node, factor=factor, duration=duration)


def flaky_link(
    time: float,
    src: int,
    dst: int,
    drop_prob: float = 0.5,
    extra_delay: float = 0.0,
    duration: Optional[float] = None,
) -> FaultEvent:
    """Drop/delay messages between ``src`` and ``dst`` (both directions)."""
    return FaultEvent(
        time, "flaky_link", link=(src, dst), drop_prob=drop_prob,
        extra_delay=extra_delay, duration=duration,
    )


def partition(time: float, node: int, duration: Optional[float] = None) -> FaultEvent:
    """Cut all fabric traffic to/from ``node`` (transient partition)."""
    return FaultEvent(time, "partition", node=node, duration=duration)
