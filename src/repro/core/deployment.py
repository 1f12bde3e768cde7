"""HVAC deployment over a job allocation (paper §III-C).

On Summit, ``alloc_flags "hvac"`` in the job script initializes the
NVMe on every allocated node and spawns the HVAC server processes; the
cache lives exactly as long as the job.  :class:`HVACDeployment` is that
step: it builds ``instances_per_node`` servers on each node of an
:class:`~repro.cluster.Allocation`, shares each node's XFS among its
instances (with per-instance capacity budgets), constructs the placement
function every client will use, and hands out per-node clients.
"""

from __future__ import annotations

from typing import Optional

from ..cluster.node import Allocation
from ..simcore import RandomStreams
from ..storage.base import FileBackend
from ..storage.localfs import LocalFS
from .client import HVACClient
from .hashing import (
    LocalityPlacement,
    Placement,
    TopologyAwarePlacement,
    make_placement,
)
from .server import HVACServer

__all__ = ["HVACDeployment", "client_key_order"]


def client_key_order(key) -> tuple:
    """Deterministic sort key over mixed client-table keys.

    Classic deployments key clients by bare node id; tenant fleets key
    them by ``(node, tenant)``.  Sorting a table holding both kinds
    (or either alone) needs one total order — bare ids sort as
    ``(node, -1)``, before every tenant client of the same node.
    """
    return (key, -1) if isinstance(key, int) else tuple(key)


class HVACDeployment:
    """All HVAC state for one job: servers, placement, clients."""

    def __init__(
        self,
        allocation: Allocation,
        pfs: FileBackend,
        seed: int = 0,
        placement: Optional[Placement] = None,
    ):
        self.allocation = allocation
        self.env = allocation.env
        self.spec = allocation.spec
        self.pfs = pfs
        self.metrics = self.env.metrics
        hvac = self.spec.hvac
        self.instances_per_node = hvac.instances_per_node
        n_servers = allocation.n_nodes * hvac.instances_per_node

        if placement is None:
            repl = min(hvac.replication_factor, n_servers)
            placement = make_placement(
                hvac.hash_scheme,
                n_servers,
                replication_factor=repl,
                vnodes=hvac.consistent_vnodes,
            )
            if hvac.topology_aware:
                rack_size = self.spec.network.rack_size
                if rack_size < 1:
                    raise ValueError(
                        "topology_aware HVAC requires NetworkSpec.rack_size >= 1"
                    )
                placement = TopologyAwarePlacement(
                    placement,
                    servers_per_node=hvac.instances_per_node,
                    rack_size=rack_size,
                    replication_factor=max(repl, 2),
                )
        elif placement.n_servers != n_servers:
            raise ValueError(
                f"placement covers {placement.n_servers} servers, "
                f"deployment has {n_servers}"
            )
        self.placement = placement

        rand = RandomStreams(seed)
        self.rand = rand
        self.localfs: list[LocalFS] = []
        self._fs_by_node: dict[int, LocalFS] = {}
        self.servers: list[HVACServer] = []
        per_instance_capacity = int(
            hvac.cache_fraction
            * self.spec.node.nvme.capacity_bytes
            / hvac.instances_per_node
        )
        for node in allocation:
            fs = LocalFS(
                self.env,
                node.node_id,
                node.nvme,
                track_namespace=False,
            )
            self.localfs.append(fs)
            self._fs_by_node[node.node_id] = fs
            for inst in range(hvac.instances_per_node):
                server_id = len(self.servers)
                self.servers.append(
                    HVACServer(
                        self.env,
                        server_id=server_id,
                        node_id=node.node_id,
                        instance_index=inst,
                        localfs=fs,
                        pfs=pfs,
                        fabric=allocation.fabric,
                        spec=self.spec,
                        cache_capacity=per_instance_capacity,
                        rand=rand.child(f"server{server_id}"),
                    )
                )
        self._clients: dict[int, HVACClient] = {}
        #: optional :class:`~repro.prefetch.LookaheadScheduler` that new
        #: clients subscribe to (see :meth:`attach_prefetch`)
        self.prefetch_listener = None

        # -- membership & repair (optional) -------------------------------
        self.membership_enabled = hvac.membership_enabled
        self.repair = None
        self.views: dict[int, object] = {}
        self.gossips: dict[int, object] = {}
        if self.membership_enabled:
            from ..membership import MembershipView, RepairManager

            if hvac.repair_enabled:
                self.repair = RepairManager(self, bandwidth=hvac.repair_bandwidth)
            for server in self.servers:
                board = MembershipView(
                    self.env,
                    len(self.servers),
                    owner=f"s{server.server_id}",
                    probation=hvac.probation_period,
                    dead_after=hvac.suspect_to_dead,
                )
                server.enable_membership(
                    board, repair=self.repair, peers=self.servers
                )

    # -- addressing ---------------------------------------------------------
    @property
    def n_servers(self) -> int:
        return len(self.servers)

    def servers_on_node(self, node_id: int) -> list[HVACServer]:
        base = node_id * self.instances_per_node
        return self.servers[base : base + self.instances_per_node]

    def client(self, node_id: int, tenant: Optional[int] = None) -> HVACClient:
        """The (cached) HVAC client for processes on ``node_id``.

        Classic single-job deployments get one client per node (keyed by
        the bare node id — byte-identical to the pre-tenancy behavior).
        Multi-tenant fleets get one client per (node, tenant): each job's
        detector evidence, retry budgets, and RNG stream are its own, so
        one tenant's strikes never pollute another's failover state.
        """
        key = node_id if tenant is None else (node_id, tenant)
        cli = self._clients.get(key)
        if cli is None:
            suffix = "" if tenant is None else f".t{tenant}"
            cli = HVACClient(
                self.env,
                node_id,
                self.servers,
                self.placement,
                self.pfs,
                self.spec,
                rand=self.rand.child(f"client{node_id}{suffix}"),
                tenant=tenant,
            )
            self._clients[key] = cli
            if self.prefetch_listener is not None:
                cli.prefetch_listener = self.prefetch_listener
            if self.membership_enabled:
                self._join_membership(cli, key)
        return cli

    def attach_prefetch(self, scheduler) -> None:
        """Wire a clairvoyant scheduler into every current and future
        client's demand stream."""
        self.prefetch_listener = scheduler
        for key in sorted(self._clients, key=client_key_order):
            self._clients[key].prefetch_listener = scheduler

    def _join_membership(self, cli: HVACClient, key=None) -> None:
        """Give a fresh client its view and gossip agent."""
        from ..membership import GossipAgent, MembershipView

        if key is None:
            key = cli.node_id
        owner = (
            f"c{cli.node_id}"
            if cli.tenant is None
            else f"c{cli.node_id}t{cli.tenant}"
        )
        hvac = self.spec.hvac
        view = MembershipView(
            self.env,
            len(self.servers),
            owner=owner,
            probation=hvac.probation_period,
            dead_after=hvac.suspect_to_dead,
        )
        cli.attach_membership(view, remap=hvac.remap_enabled)
        self.views[key] = view
        self.gossips[key] = GossipAgent(self.env, cli, view, self._clients, self.spec)

    @classmethod
    def with_locality_split(
        cls,
        allocation: Allocation,
        pfs: FileBackend,
        local_fraction: float,
        seed: int = 0,
    ) -> "HVACDeployment":
        """A deployment whose placement pins ``local_fraction`` of files
        to the reading node — the Fig 13 manual L%/R% control."""
        hvac = allocation.spec.hvac
        n_servers = allocation.n_nodes * hvac.instances_per_node
        placement = LocalityPlacement(
            n_servers,
            servers_per_node=hvac.instances_per_node,
            local_fraction=local_fraction,
            replication_factor=min(hvac.replication_factor, n_servers),
        )
        return cls(allocation, pfs, seed=seed, placement=placement)

    # -- lifecycle ----------------------------------------------------------
    def teardown(self) -> None:
        """Job end: purge caches, stop servers (cache dies with the job)."""
        for key in sorted(self.gossips, key=client_key_order):
            self.gossips[key].stop()
        for server in self.servers:
            server.teardown()

    def fail_node(self, node_id: int) -> None:
        """Fail every server instance on a node (NVMe loss, §III-H)."""
        for server in self.servers_on_node(node_id):
            server.fail()

    def recover_node(self, node_id: int) -> None:
        for server in self.servers_on_node(node_id):
            server.recover()
            listener = self.prefetch_listener
            if listener is not None:
                listener.on_server_recover(server)

    def hang_node(self, node_id: int) -> None:
        """Wedge every server instance on a node (gray failure: requests
        land but no reply ever comes — only client deadlines notice)."""
        for server in self.servers_on_node(node_id):
            server.hang()

    def unhang_node(self, node_id: int) -> None:
        for server in self.servers_on_node(node_id):
            server.unhang()

    def degrade_node(self, node_id: int, factor: float) -> None:
        """Throttle a node's NVMe to 1/``factor`` of rated performance."""
        self._fs_by_node[node_id].device.degrade(factor)

    def restore_node(self, node_id: int) -> None:
        self._fs_by_node[node_id].device.restore()

    def inject(self, schedule) -> "object":
        """Start a fault :class:`~repro.faults.Injector` replaying
        ``schedule`` against this deployment; returns the injector."""
        from ..faults import Injector

        injector = Injector(self, schedule)
        injector.start()
        return injector

    # -- aggregate stats ------------------------------------------------------
    @property
    def total_cached_bytes(self) -> int:
        return sum(s.cache.used_bytes for s in self.servers)

    @property
    def total_cached_files(self) -> int:
        return sum(s.cache.n_files for s in self.servers)

    def hit_rate(self) -> float:
        hits = self.metrics.counter("hvac.cache_hits").value
        misses = self.metrics.counter("hvac.cache_misses").value
        total = hits + misses
        return hits / total if total else 0.0
