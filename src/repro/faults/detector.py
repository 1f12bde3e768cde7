"""Client-side failure detection: timeouts in, suspicion out.

A :class:`FailureDetector` is the only liveness authority an HVAC client
has.  It never inspects server state; it counts *observed* outcomes of
its own RPCs:

* ``suspect_after`` consecutive failures/timeouts against one server
  blacklist it for a probation period;
* repeated offenders get exponentially longer probation (capped), so a
  flapping server converges to "mostly blacklisted" instead of eating a
  timeout per flap;
* once probation expires the server becomes usable again — the next
  request doubles as the re-probe (half-open, circuit-breaker style).
  Success resets everything; failure re-arms a longer probation.

Hoard's failure-tolerant cache tier and FanStore's interception layer
use the same shape: deadline, strike count, quarantine, re-probe.
"""

from __future__ import annotations

from ..simcore import Environment

__all__ = ["FailureDetector"]

#: each repeat offence multiplies the probation term by this...
PROBATION_GROWTH = 2.0
#: ...up to this multiple of the base term
PROBATION_CAP_FACTOR = 8.0


class FailureDetector:
    """Per-client suspicion state over ``n_servers`` cache servers;
    only servers with a strike hold any."""

    def __init__(
        self,
        env: Environment,
        n_servers: int,
        suspect_after: int = 2,
        probation: float = 2.0,
    ):
        if n_servers < 1:
            raise ValueError("n_servers must be >= 1")
        if suspect_after < 1:
            raise ValueError("suspect_after must be >= 1")
        if probation < 0:
            raise ValueError("probation must be >= 0")
        self.env = env
        self.n_servers = n_servers
        self.suspect_after = suspect_after
        self.probation = probation
        self.probation_cap = probation * PROBATION_CAP_FACTOR
        # Sparse state: only servers with a strike hold an entry, so a
        # client that sees no failure holds nothing whatever the fleet
        # size.  ``_until``/``_expiry_due`` keys are a subset of
        # ``_strikes`` keys: an episode opens only at the suspicion bar,
        # and a success clears all three containers together.
        self._strikes: dict[int, int] = {}
        #: blacklisted while now < until; kept past expiry until pardon
        self._until: dict[int, float] = {}
        #: ``(time, kind, server_id)`` for every detector state change,
        #: the detector's one record: ``suspect`` (onset; detection
        #: latency and suspicion counts are its rows),
        #: ``probation_expired`` (server usable again; logged on the
        #: first ``usable()`` query past the term), ``reprobe_ok`` /
        #: ``reprobe_fail`` (half-open probe outcomes).  These land on
        #: the SLO window grid next to the membership transitions, and
        #: the fuzzer's SLO invariant reads them.
        self.transitions: list[tuple[float, str, int]] = []
        #: servers whose current probation expiry is not logged yet
        self._expiry_due: dict[int, None] = {}
        #: optional membership hook: ``listener.on_suspect(sid)`` fires
        #: on every suspicion (onset *and* repeat offences), which is how
        #: first-hand timeout evidence enters a MembershipView
        self.listener = None

    # -- observations ---------------------------------------------------
    def record_success(self, server_id: int) -> None:
        """An RPC to ``server_id`` completed: full pardon."""
        if server_id not in self._strikes:
            return
        if self._until.get(server_id, 0.0) > 0.0:
            self._note_expiry(server_id)
            self.transitions.append((self.env.now, "reprobe_ok", server_id))
        del self._strikes[server_id]
        self._until.pop(server_id, None)
        self._expiry_due.pop(server_id, None)

    def record_failure(self, server_id: int) -> None:
        """An RPC to ``server_id`` timed out or errored."""
        strikes = self._strikes[server_id] = self._strikes.get(server_id, 0) + 1
        over = strikes - self.suspect_after
        if over < 0:
            return
        if over == 0:
            self.transitions.append((self.env.now, "suspect", server_id))
        elif self.env.now >= self._until[server_id]:
            # a strike past the bar normally lands only after probation
            # let a request through: a failed half-open re-probe.  (A
            # strike during an *active* term — the caller bypassing
            # ``usable()`` — is neither an expiry nor a probe outcome.)
            self._note_expiry(server_id)
            self.transitions.append((self.env.now, "reprobe_fail", server_id))
        self._expiry_due[server_id] = None
        term = min(self.probation * PROBATION_GROWTH**over, self.probation_cap)
        self._until[server_id] = self.env.now + term
        if self.listener is not None:
            self.listener.on_suspect(server_id)

    def _note_expiry(self, server_id: int) -> None:
        """Log the probation-expiry transition once per episode, stamped
        at the term's end (not at the observing query's time).  A pardon
        arriving mid-term clamps the stamp to *now* — the episode ended
        early, and the log must stay time-ordered."""
        if server_id in self._expiry_due:
            del self._expiry_due[server_id]
            self.transitions.append(
                (min(self._until[server_id], self.env.now),
                 "probation_expired", server_id)
            )

    # -- queries ----------------------------------------------------------
    def usable(self, server_id: int) -> bool:
        """May the client send ``server_id`` a request right now?

        True while the server is unsuspected, and again once its
        probation has expired (that request is the re-probe).
        """
        if self._strikes.get(server_id, 0) < self.suspect_after:
            return True
        if self.env.now >= self._until[server_id]:
            self._note_expiry(server_id)
            return True
        return False

    def strikes(self, server_id: int) -> int:
        return self._strikes.get(server_id, 0)

    def suspects(self) -> list[int]:
        """Servers currently blacklisted (probation still running)."""
        now = self.env.now
        return sorted(sid for sid, until in self._until.items() if now < until)

    def probation_end(self) -> float:
        """The latest probation end still held, or 0.0 when there is
        none.  An expired term counts until its server is pardoned."""
        return max(self._until.values(), default=0.0)

    def __repr__(self) -> str:
        return f"<FailureDetector suspects={self.suspects()}>"
