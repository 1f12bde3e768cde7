"""The fault injector: drives a :class:`FaultSchedule` against a live
deployment inside the simulation clock.

The injector is deliberately dumb — it only *applies* faults at their
scheduled times and heals transient ones after their duration.  All
detection intelligence lives on the client side
(:class:`~repro.faults.detector.FailureDetector`); no component under
test is told a fault happened.

The target is duck-typed: anything with ``fail_node`` / ``recover_node``
/ ``hang_node`` / ``unhang_node`` / ``degrade_node`` / ``restore_node``
and an ``allocation.fabric`` works (in practice,
:class:`~repro.core.deployment.HVACDeployment`).
"""

from __future__ import annotations

from typing import Generator

from ..simcore import Environment, Process
from .schedule import FaultEvent, FaultSchedule

__all__ = ["Injector"]


class Injector:
    """Replays one fault schedule against one deployment."""

    def __init__(self, deployment, schedule: FaultSchedule):
        self.deployment = deployment
        self.schedule = schedule
        self.env: Environment = deployment.env
        self.fabric = deployment.allocation.fabric
        self._proc: Process | None = None

    # -- lifecycle --------------------------------------------------------
    def start(self) -> Process:
        """Begin replaying the schedule; onsets are relative to *now*."""
        if self._proc is not None:
            raise RuntimeError("injector already started")
        self._proc = self.env.process(self._run(), name="fault-injector")
        return self._proc

    @property
    def done(self) -> bool:
        return self._proc is not None and not self._proc.is_alive

    # -- replay -----------------------------------------------------------
    def _run(self) -> Generator:
        t0 = self.env.now
        for event in self.schedule:
            at = t0 + event.time
            if at > self.env.now:
                yield at - self.env.now
            self._apply(event)
        # Keep the injector alive until spawned heal/flap children exist
        # only as their own processes; nothing to wait on here.
        return None

    def _apply(self, event: FaultEvent) -> None:
        dep = self.deployment
        kind = event.kind
        if kind == "crash":
            dep.fail_node(event.node)
            if event.duration is not None:
                self._heal_later(event, lambda: dep.recover_node(event.node))
        elif kind == "hang":
            dep.hang_node(event.node)
            if event.duration is not None:
                self._heal_later(event, lambda: dep.unhang_node(event.node))
        elif kind == "flap":
            self.env.process(self._flap(event), name="fault.flap")
        elif kind == "degrade":
            dep.degrade_node(event.node, event.factor)
            if event.duration is not None:
                self._heal_later(event, lambda: dep.restore_node(event.node))
        elif kind == "flaky_link":
            src, dst = event.link
            self.fabric.set_link_fault(
                src, dst, drop_prob=event.drop_prob, extra_delay=event.extra_delay
            )
            if event.duration is not None:
                self._heal_later(event, lambda: self.fabric.clear_link_fault(src, dst))
        elif kind == "partition":
            self.fabric.isolate(event.node)
            if event.duration is not None:
                self._heal_later(event, lambda: self.fabric.heal(event.node))
        else:  # pragma: no cover - FaultEvent validates kinds
            raise ValueError(f"unknown fault kind {kind!r}")

    def _heal_later(self, event: FaultEvent, undo) -> None:
        def healer() -> Generator:
            yield event.duration
            undo()

        self.env.process(healer(), name=f"fault.heal.{event.kind}")

    def _flap(self, event: FaultEvent) -> Generator:
        dep = self.deployment
        for _ in range(event.cycles):
            dep.fail_node(event.node)
            yield event.period
            dep.recover_node(event.node)
            yield event.period
