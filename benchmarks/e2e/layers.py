"""Per-layer split of one profiled pass.

Self time from ``cProfile`` is grouped by a fixed module -> layer map;
everything outside ``src/repro`` (heap operations, generator resumption,
the interpreter's builtins, this harness) is the ``interp`` layer.  The
split comes from an *instrumented* run: cProfile charges a cost to every
Python call, which inflates call-heavy layers, so shares rank layers and
never replace the bare ``wall_s``.

Count metrics are call counts of named non-generator functions.  cProfile
counts every resumption of a generator as a call, so a generator's count
would track its yields, not its invocations.
"""

from __future__ import annotations

import importlib
import os

__all__ = [
    "COUNTS",
    "LAYERS",
    "layer_of",
    "layer_split",
]

LAYERS = (
    "simcore.engine",
    "simcore",
    "interp",
    "rpc",
    "core",
    "prefetch",
    "cluster",
    "storage",
    "dl",
    "obs",
    "faults",
    "membership",
    "tenancy",
    "fuzz",
    "posix",
    "runtime",
    "experiments",
    "check",
)

#: single modules whose layer is not their package's
_MODULE_LAYERS = {
    "simcore/engine.py": "simcore.engine",
    "simcore/trace.py": "obs",
    "simcore/profile.py": "obs",
    "simcore/monitor.py": "obs",
    "check/races.py": "obs",
    "core/prefetch.py": "prefetch",
    # top-level modules of the package: entry points and drivers
    "__init__.py": "experiments",
    "__main__.py": "experiments",
    "bench.py": "experiments",
    "cli.py": "experiments",
}

_PACKAGE_LAYERS = {
    "simcore": "simcore",
    "rpc": "rpc",
    "core": "core",
    "prefetch": "prefetch",
    "cluster": "cluster",
    "storage": "storage",
    "dl": "dl",
    "obs": "obs",
    "faults": "faults",
    "membership": "membership",
    "tenancy": "tenancy",
    "fuzz": "fuzz",
    "posix": "posix",
    "runtime": "runtime",
    "experiments": "experiments",
    "baselines": "experiments",
    "analysis": "experiments",
    "model": "experiments",
    "workloads": "experiments",
    "check": "check",
}

#: count metric -> ``(function, caller)`` pairs whose calls it sums; with
#: a caller, only the calls made from that function count
COUNTS = {
    "simcore.engine.events": (("repro.simcore.engine:Environment.step", None),),
    "simcore.engine.resumes": (("repro.simcore.engine:Process._resume", None),),
    "simcore.engine.timeouts": (("repro.simcore.engine:Timeout.__init__", None),),
    "simcore.requests": (
        ("repro.simcore.resources:Resource.request", None),
        ("repro.simcore.resources:PriorityResource.request", None),
    ),
    # once per request delivered to a server (lost requests never get here)
    "rpc.calls": (("repro.rpc.endpoint:RPCEndpoint._serve_name", None),),
    "core.evictions": (("repro.core.cache:CacheManager._evict", None),),
    "cluster.nvme_allocs": (("repro.cluster.nvme:NVMeDevice.allocate", None),),
    # GPFS.open is a generator: count the one metadata-server lookup it makes
    "storage.pfs_opens": (("repro.storage.gpfs:GPFS.mds_for", "repro.storage.gpfs:GPFS.open"),),
}


def layer_of(relpath: str) -> str:
    """Layer of a module given its path relative to ``src/repro``."""
    relpath = relpath.replace(os.sep, "/")
    if relpath in _MODULE_LAYERS:
        return _MODULE_LAYERS[relpath]
    package = relpath.split("/", 1)[0]
    if "/" in relpath and package in _PACKAGE_LAYERS:
        return _PACKAGE_LAYERS[package]
    raise ValueError(f"src/repro/{relpath} has no layer; add it to benchmarks/e2e/layers.py")


def _key(qualified: str) -> tuple[str, int, str]:
    """The pstats key of ``module:Class.function``."""
    module, _, attr = qualified.partition(":")
    obj = importlib.import_module(module)
    for name in attr.split("."):
        obj = getattr(obj, name)
    code = obj.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def _calls(stats: dict, function: str, caller: str | None) -> int:
    entry = stats.get(_key(function))
    if entry is None:
        return 0
    if caller is None:
        return entry[1]  # (primitive calls, calls, ...)
    return entry[4].get(_key(caller), (0,))[0]  # callers map to (calls, ...)


def layer_split(stats: dict, package_root: str, speed: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of one profiled pass from ``pstats.Stats.stats``:
    ``<layer>.self_s`` (self seconds times ``speed``, the reference-speed
    seconds per wall second of the pass) and ``<layer>.share`` for every
    layer, and every ``COUNTS`` metric."""
    package_root = os.path.abspath(package_root) + os.sep
    self_s = dict.fromkeys(LAYERS, 0.0)
    layer_by_file: dict[str, str] = {}
    for (filename, _line, _name), (_cc, _nc, tt, _ct, _callers) in stats.items():
        layer = layer_by_file.get(filename)
        if layer is None:
            path = os.path.abspath(filename)
            layer = (
                layer_of(path[len(package_root):])
                if path.startswith(package_root)
                else "interp"
            )
            layer_by_file[filename] = layer
        self_s[layer] += tt
    total = sum(self_s.values())
    metrics: dict[str, float] = {}
    for layer, seconds in self_s.items():
        metrics[f"{layer}.self_s"] = seconds * speed
        metrics[f"{layer}.share"] = seconds / total
    for name, pairs in COUNTS.items():
        metrics[name] = sum(_calls(stats, function, caller) for function, caller in pairs)
    return metrics
