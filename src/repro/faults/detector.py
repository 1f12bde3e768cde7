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


class FailureDetector:
    """Per-client suspicion state over ``n_servers`` cache servers."""

    def __init__(
        self,
        env: Environment,
        n_servers: int,
        suspect_after: int = 2,
        probation: float = 2.0,
        probation_growth: float = 2.0,
        probation_cap_factor: float = 8.0,
        metrics=None,
    ):
        if n_servers < 1:
            raise ValueError("n_servers must be >= 1")
        if suspect_after < 1:
            raise ValueError("suspect_after must be >= 1")
        if probation < 0 or probation_growth < 1 or probation_cap_factor < 1:
            raise ValueError("invalid probation parameters")
        self.env = env
        self.n_servers = n_servers
        self.suspect_after = suspect_after
        self.probation = probation
        self.probation_growth = probation_growth
        self.probation_cap = probation * probation_cap_factor
        self._strikes = [0] * n_servers
        self._until = [0.0] * n_servers  # blacklisted while now < until
        self._since = [0.0] * n_servers  # when the current blacklist began
        #: lifetime counters, for metrics/introspection
        self.n_suspicions = 0
        self.n_reprobes = 0
        #: ``(time, server_id)`` of every suspicion onset — detection
        #: latency comes from here in detector-only experiments
        self.suspicion_log: list[tuple[float, int]] = []
        #: ``(time, kind, server_id)`` for every detector state change:
        #: ``suspect`` (onset), ``probation_expired`` (server usable
        #: again; logged on the first ``usable()`` query past the term),
        #: ``reprobe_ok`` / ``reprobe_fail`` (half-open probe outcomes).
        #: These land on the SLO window grid next to the membership
        #: transitions, and the fuzzer's SLO invariant reads them.
        self.transitions: list[tuple[float, str, int]] = []
        #: has this probation episode's expiry been logged yet?
        self._expiry_logged = [True] * n_servers
        #: optional membership hook: ``listener.on_suspect(sid)`` fires
        #: on every suspicion (onset *and* repeat offences), which is how
        #: first-hand timeout evidence enters a MembershipView
        self.listener = None
        #: :class:`~repro.simcore.MetricScope` the owner names (e.g.
        #: ``hvac.c3.detector``; ``detector`` when unowned):
        #: strikes/suspicions/reprobes counters plus a blacklist-dwell
        #: tally
        if metrics is None:
            metrics = env.metrics.scope("detector")
        self.metrics = metrics

    # -- observations ---------------------------------------------------
    def record_success(self, server_id: int) -> None:
        """An RPC to ``server_id`` completed: full pardon."""
        if self._until[server_id] > 0.0 and self._strikes[server_id] >= self.suspect_after:
            self.n_reprobes += 1
            self._note_expiry(server_id)
            self.transitions.append((self.env.now, "reprobe_ok", server_id))
            self.metrics.counter("reprobes").incr()
            self.metrics.tally("blacklist_dwell_seconds").add(
                self.env.now - self._since[server_id]
            )
        self._strikes[server_id] = 0
        self._until[server_id] = 0.0
        self._expiry_logged[server_id] = True

    def record_failure(self, server_id: int) -> None:
        """An RPC to ``server_id`` timed out or errored."""
        self._strikes[server_id] += 1
        self.metrics.counter("strikes").incr()
        over = self._strikes[server_id] - self.suspect_after
        if over < 0:
            return
        if over == 0:
            self.n_suspicions += 1
            self._since[server_id] = self.env.now
            self.suspicion_log.append((self.env.now, server_id))
            self.transitions.append((self.env.now, "suspect", server_id))
            self.metrics.counter("suspicions").incr()
        elif self.env.now >= self._until[server_id]:
            # a strike past the bar normally lands only after probation
            # let a request through: a failed half-open re-probe.  (A
            # strike during an *active* term — the caller bypassing
            # ``usable()`` — is neither an expiry nor a probe outcome.)
            self._note_expiry(server_id)
            self.transitions.append((self.env.now, "reprobe_fail", server_id))
        self._expiry_logged[server_id] = False
        term = min(
            self.probation * self.probation_growth**over, self.probation_cap
        )
        self._until[server_id] = self.env.now + term
        if self.listener is not None:
            self.listener.on_suspect(server_id)

    def _note_expiry(self, server_id: int) -> None:
        """Log the probation-expiry transition once per episode, stamped
        at the term's end (not at the observing query's time).  A pardon
        arriving mid-term clamps the stamp to *now* — the episode ended
        early, and the log must stay time-ordered."""
        if not self._expiry_logged[server_id]:
            self._expiry_logged[server_id] = True
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
        if self._strikes[server_id] < self.suspect_after:
            return True
        if self.env.now >= self._until[server_id]:
            self._note_expiry(server_id)
            return True
        return False

    def strikes(self, server_id: int) -> int:
        return self._strikes[server_id]

    def suspects(self) -> list[int]:
        """Servers currently blacklisted (probation still running)."""
        return [
            sid
            for sid in range(self.n_servers)
            if self._strikes[sid] >= self.suspect_after
            and self.env.now < self._until[sid]
        ]

    def __repr__(self) -> str:
        return (
            f"<FailureDetector suspects={self.suspects()} "
            f"suspicions={self.n_suspicions}>"
        )
