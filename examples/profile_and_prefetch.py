#!/usr/bin/env python3
"""The HVAC adoption workflow: profile, deploy, prefetch.

Recreates how the paper describes HVAC entering a workload (§III-F):

1. **Profile** the DL loader's I/O with the tracing layer and confirm
   the whole-file ``<open, one read, close>`` pattern that makes
   LD_PRELOAD interception sufficient.
2. **Deploy** HVAC and run training epochs — epoch 1 pays the PFS once.
3. **Prefetch** (the paper's future work): pre-populate the cache so
   even epoch 1 runs at cached speed.

    python examples/profile_and_prefetch.py
"""

from repro.analysis import format_kv, format_table
from repro.cluster import Allocation, SUMMIT
from repro.core import CachePrefetcher, HVACDeployment
from repro.dl import IMAGENET21K, SyntheticDataset
from repro.posix import TracingBackend
from repro.simcore import AllOf, Environment
from repro.storage import GPFS

N_NODES = 8
N_FILES = 600


def loader_epoch(env, dataset, backend_for_node, epoch=0):
    """A DL data-loading epoch: shuffled whole-file reads, all nodes."""

    def node_loader(node_id):
        backend = backend_for_node(node_id)
        order = dataset.epoch_order(epoch)
        for idx in order[node_id::N_NODES]:
            idx = int(idx)
            yield from backend.read_file(dataset.path(idx), dataset.size(idx), node_id)

    t0 = env.now
    procs = [env.process(node_loader(n)) for n in range(N_NODES)]

    def wait():
        yield AllOf(env, procs)

    env.run(env.process(wait()))
    return env.now - t0


def main() -> None:
    dataset, _ = SyntheticDataset.scaled(IMAGENET21K, N_FILES)

    # -- 1. profile the loader against plain GPFS -------------------------
    env = Environment()
    pfs = GPFS(env, SUMMIT.pfs, N_NODES, SUMMIT.network.nic_bandwidth)
    traced = TracingBackend(env, pfs)
    loader_epoch(env, dataset, lambda n: traced)
    log = traced.log
    print(format_kv({
        "opens": len(log.ops("open")),
        "reads": len(log.ops("read")),
        "closes": len(log.ops("close")),
        "bytes read": log.total_bytes,
        "mean read latency (ms)": 1e3 * log.summary()["read"]["mean_latency"],
        "whole-file single-read pattern": log.is_whole_file_single_read_pattern(),
    }, title="1. Profile of the DL loader on GPFS (paper §III-F)"))
    print("   -> interception of <open, read, close> is sufficient.\n")

    # -- 2. deploy HVAC, cold start -----------------------------------------
    env = Environment()
    alloc = Allocation(env, SUMMIT, N_NODES)
    pfs = GPFS(env, SUMMIT.pfs, N_NODES, SUMMIT.network.nic_bandwidth)
    dep = HVACDeployment(alloc, pfs)
    cold_e1 = loader_epoch(env, dataset, dep.client, epoch=0)
    warm = loader_epoch(env, dataset, dep.client, epoch=1)
    dep.teardown()

    # -- 3. deploy HVAC with prefetch ------------------------------------------
    env = Environment()
    alloc = Allocation(env, SUMMIT.with_hvac(prefetch_outstanding=4), N_NODES)
    pfs = GPFS(env, SUMMIT.pfs, N_NODES, SUMMIT.network.nic_bandwidth)
    dep = HVACDeployment(alloc, pfs)
    prefetcher = CachePrefetcher(dep, dataset.paths(), dataset.sizes)
    t0 = env.now
    env.run(prefetcher.start())
    prefetch_time = env.now - t0
    warmed_e1 = loader_epoch(env, dataset, dep.client, epoch=0)
    dep.teardown()

    print(format_table(
        ["phase", "seconds"],
        [
            ["epoch-1, cold cache", cold_e1],
            ["steady-state epoch", warm],
            ["prefetch pass (overlappable with setup)", prefetch_time],
            ["epoch-1 after prefetch", warmed_e1],
        ],
        title="2-3. Epoch times with and without cache pre-population",
        float_fmt="{:.4f}",
    ))
    print(f"\nprefetch removed {100 * (1 - warmed_e1 / cold_e1):.0f}% "
          "of the first-epoch penalty (paper §IV-C future work).")


if __name__ == "__main__":
    main()
