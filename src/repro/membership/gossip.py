"""Anti-entropy gossip between HVAC clients.

RPC piggybacking (see :mod:`repro.rpc.endpoint`) spreads suspicion
along whatever request edges the workload happens to exercise.  That
leaves two gaps: idle client pairs never exchange beliefs, and a dead
server — which by definition receives no requests — has no channel to
announce its recovery.  Each client therefore runs one low-rate
:class:`GossipAgent`:

* every ``gossip_interval`` (jittered ±50% from the client's own
  ``RandomStreams`` subtree) it picks one random peer client and makes
  a tiny ``gossip`` RPC whose only payload is the piggybacked digest in
  each direction — classic anti-entropy push-pull;
* it then checks the view's probe targets (``dead``/``recovering``
  servers) and pings the ones this node *owns* (fixed ownership
  ``sid % n_clients``: exactly one client probes each down server, with
  exponential backoff on repeated failures, so a long outage costs the
  fleet O(log outage) probes instead of a per-client re-probe storm).
  A ping to a still-crashed endpoint fails fast and cheap (connection
  refused, not a timeout); a ping that gets through carries the
  server's self-report back on the reply digest, which is how recovery
  propagates — first to the owner, then to everyone else through the
  anti-entropy rounds.
"""

from __future__ import annotations

from ..rpc import RPCError, RPCTimeout
from .view import MembershipView

__all__ = ["GossipAgent"]

#: service time for the trivial gossip/ping handlers
_HANDLER_COST = 2e-6


class GossipAgent:
    """Background anti-entropy + recovery-probe loop for one client."""

    def __init__(self, env, client, view: MembershipView, registry, spec):
        self.env = env
        self.client = client
        self.view = view
        #: deployment's client table (node_id -> HVACClient), shared and
        #: late-binding so peers created after us are still gossip targets
        self.registry = registry
        self.hvac = spec.hvac
        self.metrics = env.metrics.scope(f"hvac.c{client.node_id}.gossip")
        self.running = True
        self._tick = 0
        #: per-target recovery-ping backoff: sid -> (next allowed t, delay)
        self._ping_gate: dict[int, tuple[float, float]] = {}
        # The gossip RPC itself is an empty vessel: both digests ride
        # the piggyback hooks attach_membership() already wired.
        client.endpoint.register("gossip", self._handle_gossip)
        env.process(self._loop(), name=f"gossip.c{client.node_id}")

    def stop(self) -> None:
        self.running = False

    def _handle_gossip(self, payload, src: int):
        yield _HANDLER_COST
        return None

    # -- loop ---------------------------------------------------------------
    def _loop(self):
        rand = self.client.rand
        while True:
            jitter = rand.uniform("gossip.jitter", 0.5, 1.5)
            yield self.hvac.gossip_interval * jitter
            if not self.running:
                return
            self._tick += 1
            yield from self._round(self._tick)

    def _round(self, tick: int):
        me = self.client.node_id
        peers = [nid for nid in self.registry if nid != me]
        if peers:
            peer = self.registry[self.client.rand.choice("gossip.peer", peers)]
            self.metrics.counter("rounds").incr()
            try:
                yield from self.client.endpoint.call(
                    peer.endpoint,
                    "gossip",
                    payload=None,
                    payload_bytes=0,
                    timeout=self.hvac.rpc_timeout,
                )
            except (RPCTimeout, RPCError):
                self.metrics.counter("round_failures").incr()
        # recovery probes: only for servers no read will ever touch
        targets = self.view.probe_targets()
        if not targets:
            return
        members = sorted(self.registry)
        n = len(members)
        mine = members.index(me)
        for sid in targets:
            if sid % n != mine:
                continue
            gate = self._ping_gate.get(sid)
            if gate is not None and self.env.now < gate[0]:
                continue
            yield from self._ping(sid)

    def _ping(self, sid: int):
        server = self.client.servers[sid]
        self.metrics.counter("pings").incr()
        try:
            yield from self.client.endpoint.call(
                server.endpoint,
                "ping",
                payload=None,
                payload_bytes=0,
                timeout=self.hvac.rpc_timeout,
            )
        except (RPCTimeout, RPCError):
            # still down: refresh the evidence timestamp and back off
            # (same probation schedule the failure detector uses, so a
            # long-dead server costs O(log outage) pings, not one per
            # gossip round)
            self.view.refresh(sid)
            self.metrics.counter("ping_failures").incr()
            base = max(self.hvac.probation_period, self.hvac.gossip_interval)
            gate = self._ping_gate.get(sid)
            delay = min(base * 8.0, gate[1] * 2.0) if gate else base
            self._ping_gate[sid] = (self.env.now + delay, delay)
        else:
            # the reply's piggybacked digest carried the self-report;
            # nothing to do here beyond counting the good news
            self.metrics.counter("ping_recoveries").incr()
            self._ping_gate.pop(sid, None)
