"""IOR-style streaming bandwidth benchmark.

MDTest (Figs 3–4) measures transactions; IOR measures sustained
sequential bandwidth — large files read in fixed-size blocks by every
rank.  Used here to validate the calibrated aggregate-bandwidth anchors
(2.5 TB/s GPFS, 5.5 GB/s/node NVMe) that the MDTest large-file regime
and the DL big-file workloads both rest on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator

from ..simcore import Environment, run_all
from ..storage.base import FileBackend

__all__ = ["IORConfig", "IORResult", "run_ior"]


@dataclass(frozen=True)
class IORConfig:
    """One IOR read phase (file-per-process, sequential)."""

    n_nodes: int
    ranks_per_node: int = 6
    file_size: int = 1 * 1024**3
    block_size: int = 16 * 1024**2

    def __post_init__(self):
        if self.n_nodes < 1 or self.ranks_per_node < 1:
            raise ValueError("need at least one rank")
        if not 0 < self.block_size <= self.file_size:
            raise ValueError("0 < block_size <= file_size required")

    @property
    def n_ranks(self) -> int:
        return self.n_nodes * self.ranks_per_node

    @property
    def total_bytes(self) -> int:
        return self.n_ranks * self.file_size


@dataclass
class IORResult:
    config: IORConfig
    system_label: str
    elapsed: float

    @property
    def aggregate_bandwidth(self) -> float:
        """bytes/s across all ranks."""
        return self.config.total_bytes / self.elapsed if self.elapsed > 0 else 0.0


def run_ior(
    env: Environment,
    config: IORConfig,
    backend_for_node: Callable[[int], FileBackend],
    system_label: str = "storage",
) -> IORResult:
    """Execute the read phase; returns aggregate bandwidth."""

    def rank_proc(rank: int) -> Generator:
        node_id = rank // config.ranks_per_node
        backend = backend_for_node(node_id)
        path = f"/gpfs/ior/rank{rank}.dat"
        handle = yield from backend.open(path, config.file_size, node_id)
        remaining = config.file_size
        while remaining > 0:
            got = yield from backend.read(
                handle, min(config.block_size, remaining)
            )
            remaining -= got
        yield from backend.close(handle)

    t0 = env.now
    procs = [
        env.process(rank_proc(r), name=f"ior.r{r}") for r in range(config.n_ranks)
    ]
    run_all(env, procs, "ior")
    return IORResult(config=config, system_label=system_label, elapsed=env.now - t0)
