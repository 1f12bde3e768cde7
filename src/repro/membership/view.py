"""Per-node membership views with incarnation counters (SWIM-style).

Every HVAC client (and every server, acting as a gossip bulletin
board) owns a :class:`MembershipView`: its *local belief* about each
cache server's state — ``alive``, ``suspected``, ``dead`` or
``recovering`` — tagged with an **incarnation counter**.  Views are
never consulted by the kernel; they only shape routing decisions
(candidate filtering, :class:`~repro.membership.RemappedPlacement`) and
feed the telemetry pipeline.

Merge rules (the SWIM lattice, adapted to crash-recover servers):

* a higher incarnation always wins — recovery and refutation both bump
  the *server's own* counter, so stale accusations die out;
* at equal incarnation the *worse* state wins
  (``dead > suspected > recovering > alive``), so suspicion spreads
  monotonically and cannot flap from second-hand evidence alone;
* at equal (incarnation, state) only the evidence timestamp is
  refreshed (extends probation, logs nothing).

A ``suspected`` entry escalates to ``dead`` once it has gone
``dead_after`` seconds without refutation — dead servers are dropped
from read routing entirely and only re-contacted by the gossip agents'
backed-off recovery probes (and rediscovered through the recovered
server's own rejoin announcement).

Everything is sim-clock timestamped and allocation-free on the merge
path; state transitions are appended to :attr:`transitions` (the
determinism artifact), counted under ``hvac.<owner>.membership``, and
emitted as zero-duration ``membership.transition`` spans when the run
is traced.
"""

from __future__ import annotations

from ..simcore import Environment

__all__ = ["ALIVE", "RECOVERING", "SUSPECTED", "DEAD", "STATE_RANK", "MembershipView"]

RACE_CELLS = (
    ("view.<owner>.m<sid>", ("_state", "_inc", "_stamp", "_since"),
     "one member's lattice slot in one membership view; adoptions are "
     "tagged (sid, inc, state)"),
)

ALIVE = "alive"
RECOVERING = "recovering"
SUSPECTED = "suspected"
DEAD = "dead"

#: merge precedence at equal incarnation: higher rank wins
STATE_RANK = {ALIVE: 0, RECOVERING: 1, SUSPECTED: 2, DEAD: 3}

#: wire cost per digest entry: sid + incarnation + state + stamp
_ENTRY_BYTES = 24


class MembershipView:
    """One node's belief about every server's liveness."""

    def __init__(
        self,
        env: Environment,
        n_servers: int,
        owner: str = "",
        probation: float = 2.0,
        dead_after: float = 10.0,
    ):
        if n_servers < 1:
            raise ValueError("n_servers must be >= 1")
        if probation < 0 or dead_after < 0:
            raise ValueError("probation and dead_after must be >= 0")
        self.env = env
        self.n_servers = n_servers
        self.owner = owner
        self.probation = probation
        self.dead_after = dead_after
        self.spans = env.spans
        self.metrics = env.metrics.scope(f"hvac.{owner}.membership")
        self._inc = [0] * n_servers
        self._state = [ALIVE] * n_servers
        #: latest supporting evidence (probation countdown base)
        self._stamp = [0.0] * n_servers
        #: onset of the current suspicion episode (dead-escalation base)
        self._since = [0.0] * n_servers
        #: append-only ``(t, sid, old, new, incarnation, why)`` log — the
        #: membership-transition artifact determinism tests compare
        self.transitions: list[tuple[float, int, str, str, int, str]] = []

    # -- internal -----------------------------------------------------------
    def _adopt(self, sid: int, inc: int, state: str, why: str) -> None:
        # Race-sanitizer cell per (view, member) slot.  The tag makes two
        # same-timestamp adoptions of the identical lattice value (e.g.
        # one death certificate arriving via two gossip digests) count as
        # idempotent rather than racing.
        self.env.note_access(
            f"view.{self.owner}.m{sid}", "w", tag=(sid, inc, state)
        )
        old = self._state[sid]
        now = self.env.now
        if state == SUSPECTED and old != SUSPECTED:
            self._since[sid] = now
        self._inc[sid] = inc
        self._state[sid] = state
        self._stamp[sid] = now
        self.transitions.append((now, sid, old, state, inc, why))
        self.metrics.counter("transitions").incr()
        if self.spans is not None:
            mark = self.spans.begin(
                "membership.transition",
                now,
                owner=self.owner,
                server=sid,
                old=old,
                new=state,
                inc=inc,
                why=why,
            )
            self.spans.end(mark, now)

    # -- queries ------------------------------------------------------------
    def state_of(self, sid: int) -> str:
        """Current belief about ``sid`` (escalating stale suspicion)."""
        if (
            self._state[sid] == SUSPECTED
            and self.env.now - self._since[sid] >= self.dead_after
        ):
            self._adopt(sid, self._inc[sid], DEAD, "escalation")
        return self._state[sid]

    def entry(self, sid: int) -> tuple[int, str, float]:
        return self._inc[sid], self.state_of(sid), self._stamp[sid]

    def incarnation(self, sid: int) -> int:
        return self._inc[sid]

    def outranks(self, sid: int, inc: int, state: str) -> bool:
        """Does the belief about ``sid`` beat ``(inc, state)`` in the
        merge lattice (higher incarnation, then worse state)?"""
        ours = (self._inc[sid], STATE_RANK[self.state_of(sid)])
        return ours > (inc, STATE_RANK[state])

    def routable(self, sid: int) -> bool:
        """May the read path send ``sid`` a request right now?

        ``alive``/``recovering`` always; ``suspected`` once its gossiped
        probation has run out (that request doubles as the re-probe);
        ``dead`` never — recovery discovery is the gossip agents' job.
        """
        state = self.state_of(sid)
        if state == DEAD:
            return False
        if state == SUSPECTED:
            return self.env.now >= self._stamp[sid] + self.probation
        return True

    def placeable(self, sid: int) -> bool:
        """May :class:`RemappedPlacement` keep ``sid`` in a replica set?

        Suspected servers stay placed (probation handles them); dead and
        still-repairing servers have their range remapped away.
        """
        return self.state_of(sid) not in (DEAD, RECOVERING)

    def probe_targets(self) -> list[int]:
        """Servers only a deliberate probe can bring back: dead ones
        (awaiting recovery) and recovering ones (awaiting repair)."""
        return [
            sid
            for sid in range(self.n_servers)
            if self.state_of(sid) in (DEAD, RECOVERING)
        ]

    def counts(self) -> dict[str, int]:
        out = {ALIVE: 0, RECOVERING: 0, SUSPECTED: 0, DEAD: 0}
        for sid in range(self.n_servers):
            out[self.state_of(sid)] += 1
        return out

    # -- first-hand evidence -------------------------------------------------
    def on_suspect(self, sid: int) -> None:
        """Detector listener: local strikes crossed the suspicion bar."""
        state = self.state_of(sid)
        rank = STATE_RANK[state]
        if rank >= STATE_RANK[SUSPECTED]:
            # already suspected/dead: fresh evidence just re-arms probation
            # race: waive RACE203 -- re-arm stores env.now, identical for all same-timestamp writers
            self._stamp[sid] = self.env.now
            return
        self._adopt(sid, self._inc[sid], SUSPECTED, "local")

    def refresh(self, sid: int) -> None:
        """A deliberate probe failed again: re-stamp the current belief."""
        # race: waive RACE203 -- re-stamp stores env.now, identical for all same-timestamp writers
        self._stamp[sid] = self.env.now

    def self_report(self, sid: int, inc: int, state: str) -> None:
        """The server's own authoritative statement about itself."""
        if (inc, STATE_RANK[state]) == (self._inc[sid], STATE_RANK[self._state[sid]]):
            # race: waive RACE203 -- same-lattice-value re-stamp stores env.now, identical for all writers
            self._stamp[sid] = self.env.now
            return
        self._adopt(sid, inc, state, "self")

    # -- gossip -------------------------------------------------------------
    def digest(self) -> tuple[tuple[int, int, str, float], ...]:
        """Compact wire form: every entry that differs from the boot
        state (incarnation 0, alive) — the only ones worth shipping."""
        return tuple(
            (sid, self._inc[sid], self.state_of(sid), self._stamp[sid])
            for sid in range(self.n_servers)
            if self._inc[sid] > 0 or self._state[sid] != ALIVE
        )

    @staticmethod
    def digest_bytes(digest: tuple) -> int:
        return 8 + _ENTRY_BYTES * len(digest)

    def piggyback(self) -> tuple[tuple, int]:
        """``(digest, wire bytes)`` to ride on an RPC: an endpoint's
        ``digest_provider``."""
        digest = self.digest()
        return digest, self.digest_bytes(digest)

    def absorb(self, digest: tuple, src: int) -> None:
        """Fold in a digest that rode in on an RPC from node ``src``: an
        endpoint's ``digest_sink``."""
        self.merge(digest, why="piggyback")

    def merge(self, digest: tuple, why: str = "gossip") -> int:
        """Fold a peer's digest in; returns how many entries we adopted."""
        adopted = 0
        for sid, inc, state, stamp in digest:
            if not 0 <= sid < self.n_servers:
                continue
            ours = (self._inc[sid], STATE_RANK[self.state_of(sid)])
            theirs = (inc, STATE_RANK[state])
            if theirs > ours:
                self._adopt(sid, inc, state, why)
                adopted += 1
            elif theirs == ours and stamp > self._stamp[sid]:
                # race: waive RACE203 -- guarded max-fold of peer stamps converges in any order
                self._stamp[sid] = stamp
        if adopted:
            self.metrics.counter("merge_adopted").incr(adopted)
        return adopted

    def __repr__(self) -> str:
        counts = self.counts()
        summary = " ".join(f"{k}={v}" for k, v in counts.items() if v)
        return f"<MembershipView {self.owner or 'anon'} {summary}>"
