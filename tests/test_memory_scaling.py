"""Memory scaling guard: no per-client container sized by the fleet.

Building an HVAC deployment and one client per node must cost memory
roughly linear in the node count.  A per-client list with one slot per
server (the failure detector's old layout) makes the cost clients ×
servers, which shows as a 256/128-node ratio well above 2 (2.37 with
the dense detector; 1.99 with sparse per-client state).
"""

import gc
import tracemalloc

from repro.baselines import SYSTEM_SETUPS
from repro.cluster import SUMMIT
from repro.dl import IMAGENET21K, SyntheticDataset
from repro.simcore import Environment

MAX_RATIO = 2.10


def _traced_build_bytes(n_nodes: int) -> int:
    """Bytes still traced after building hvac4 on ``n_nodes`` nodes and
    asking it for every node's client."""
    dataset, _factor = SyntheticDataset.scaled(IMAGENET21K, n_nodes, seed=0)
    # no collection mid-build: the traced total is then exact
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        env = Environment()
        handle = SYSTEM_SETUPS["hvac4"].build(env, SUMMIT, n_nodes, dataset, seed=0)
        clients = [handle.backend_for_node(node) for node in range(n_nodes)]
        size, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    assert len(clients) == n_nodes
    return size


def test_deployment_memory_grows_linearly_with_nodes():
    small = _traced_build_bytes(128)
    large = _traced_build_bytes(256)
    ratio = large / small
    assert ratio <= MAX_RATIO, (
        f"traced bytes grew {ratio:.2f}x from 128 to 256 nodes "
        f"({small / 2**20:.1f} -> {large / 2**20:.1f} MB); some per-client "
        f"state is sized by the fleet"
    )
