"""One telemetry path: the ``Environment`` owns the run's metric registry
and span recorder.

Every component takes ``env.metrics`` and ``env.spans`` from the env it
is built on, so no deployment shape can drop the recorder or split the
registry.  The structural tests pin that no constructor takes either
again; a negative control shows the check catches a reintroduced one.
"""

import ast
import os

from repro.cluster import TESTING, Allocation
from repro.core import HVACDeployment
from repro.experiments.comparison import build_deployment, dataset_files, run_epoch
from repro.obs import SpanRecorder
from repro.simcore import Environment
from repro.storage import GPFS

from .conftest import SRC_ROOT

#: the entry points that take a recorder and attach it to their env
SPANS_ENTRY_POINTS = {
    ("experiments/comparison.py", "build_deployment"),
    ("experiments/resilience.py", "resilience_sweep"),
    ("experiments/resilience.py", "fault_matrix"),
}

#: the constructors whose owner names their metric scope: none, every
#: component files its counters under its own fixed scope
METRIC_SCOPE_OWNERS: set[tuple[str, str]] = set()


def _rel(path: str) -> str:
    return os.path.relpath(path, SRC_ROOT).replace(os.sep, "/")


def _params(fn) -> set[str]:
    a = fn.args
    return {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}


def functions_taking(files, name: str) -> set[tuple[str, str]]:
    """``(path, function)`` for every def with a parameter ``name``;
    ``files`` holds ``(path, tree)`` pairs."""
    return {
        (path, node.name)
        for path, tree in files
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and name in _params(node)
    }


def constructors_taking(files, name: str) -> set[tuple[str, str]]:
    """``(path, class)`` for every ``__init__`` with a parameter ``name``."""
    return {
        (path, cls.name)
        for path, tree in files
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        and fn.name == "__init__"
        and name in _params(fn)
    }


def registry_constructions(files) -> set[str]:
    """Paths that call ``MetricRegistry(...)``."""
    out = set()
    for path, tree in files:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "MetricRegistry":
                    out.add(path)
    return out


def _tree_files(src_program):
    return [(_rel(f.path), f.tree) for f in src_program.files]


class TestOneTelemetryPath:
    def test_only_simcore_constructs_a_registry(self, src_program):
        paths = registry_constructions(_tree_files(src_program))
        assert paths and all(p.startswith("simcore/") for p in paths), paths

    def test_spans_parameters_only_at_entry_points(self, src_program):
        assert functions_taking(_tree_files(src_program), "spans") == SPANS_ENTRY_POINTS

    def test_metric_scopes_only_where_the_owner_names_them(self, src_program):
        got = constructors_taking(_tree_files(src_program), "metrics")
        assert got == METRIC_SCOPE_OWNERS

    def test_negative_control_a_reintroduced_recorder_parameter_fails(
        self, src_program
    ):
        path = os.path.join(SRC_ROOT, "core", "server.py")
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        anchor = "        rand: RandomStreams,\n    ):"
        assert source.count(anchor) == 1
        mutated = source.replace(
            anchor, "        rand: RandomStreams,\n        spans=None,\n    ):"
        )
        files = [
            (p, ast.parse(mutated) if p == "core/server.py" else tree)
            for p, tree in _tree_files(src_program)
        ]
        assert functions_taking(files, "spans") - SPANS_ENTRY_POINTS == {
            ("core/server.py", "__init__")
        }


class TestRunTelemetry:
    def test_locality_split_deployment_is_traced(self):
        # Built the way the Fig 13 experiment (cache_split.py) builds it.
        n_nodes = 2
        env = Environment()
        rec = env.spans = SpanRecorder()
        alloc = Allocation(env, TESTING, n_nodes)
        pfs = GPFS(
            env,
            TESTING.pfs,
            n_client_nodes=n_nodes,
            client_link_bandwidth=TESTING.network.nic_bandwidth,
        )
        dep = HVACDeployment.with_locality_split(alloc, pfs, local_fraction=0.5)
        files = dataset_files(8, 20_000)
        run_epoch(env, dep, n_nodes, files)
        reads = rec.named("client.read")
        assert len(reads) == n_nodes * len(files)
        assert all(s.closed and s.parent is None for s in reads)

    def test_one_registry_per_run(self):
        n_nodes = 3
        env, dep, pfs = build_deployment(TESTING, n_nodes, seed=0)
        run_epoch(env, dep, n_nodes, dataset_files(12, 20_000))
        registry = dep.metrics
        assert pfs.metrics is registry
        assert registry.counter("gpfs.opens").value > 0
        assert registry.counter("hvac.cache_hits").value > 0
        assert env.metrics is registry

    def test_build_deployment_attaches_the_recorder_before_building(self):
        rec = SpanRecorder()
        env, dep, _ = build_deployment(TESTING, 2, seed=0, spans=rec)
        assert env.spans is rec
        assert all(s.spans is rec for s in dep.servers)
        assert dep.client(0).spans is rec
        assert dep.client(0).endpoint.spans is rec
