"""Mode comparisons: one seeded scenario replayed under several modes.

``repro slo``, ``membership``, ``tenancy`` and ``prefetch`` each replay
one seeded scenario once per *mode* (a fault/no-fault pair, a failover
stack, a cache-tenancy policy, a prefetch configuration) and report the
modes side by side.  This module holds what they share: the scenario
helpers and :class:`ModeComparison`, the result base.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, ClassVar

from ..analysis import count_strip, degradation_dashboard, format_table
from ..cluster import Allocation, ClusterSpec, TESTING
from ..core import HVACDeployment
from ..simcore import AllOf, Environment, RandomStreams
from ..storage import GPFS

__all__ = [
    "FAULT_SPEC_OVERRIDES",
    "ModeComparison",
    "build_deployment",
    "dataset_files",
    "drain_repair",
    "fault_spec",
    "run_all",
    "run_epoch",
]

#: a tightened RPC deadline and fast suspicion/probation, so failure
#: detection is quick relative to the tiny files
FAULT_SPEC_OVERRIDES = dict(
    rpc_timeout=0.05,
    rpc_max_retries=4,
    rpc_backoff_base=1e-4,
    rpc_backoff_cap=2e-3,
    suspect_after=2,
    probation_period=0.05,
)


def fault_spec(spec: ClusterSpec | None, **overrides) -> ClusterSpec:
    """``spec`` (TESTING when ``None``) with :data:`FAULT_SPEC_OVERRIDES`
    applied, then ``overrides`` on top."""
    base = spec if spec is not None else TESTING
    return base.with_hvac(**{**FAULT_SPEC_OVERRIDES, **overrides})


def build_deployment(
    spec: ClusterSpec, n_nodes: int, seed: int, spans=None, trace=None
):
    """A fresh environment with an HVAC deployment over GPFS; returns
    ``(env, deployment, pfs)``."""
    env = Environment()
    if trace is not None:
        env.attach_trace(trace)
    alloc = Allocation(
        env, spec, n_nodes=n_nodes, rand=RandomStreams(seed).child("cluster")
    )
    pfs = GPFS(env, spec.pfs, n_nodes, spec.network.nic_bandwidth)
    dep = HVACDeployment(alloc, pfs, seed=seed, spans=spans)
    return env, dep, pfs


def dataset_files(n_files: int, file_size: int) -> list[tuple[str, int]]:
    """``n_files`` same-size ``(path, size)`` entries under ``/pfs/ds``."""
    return [(f"/pfs/ds/f{i:04d}", file_size) for i in range(n_files)]


def run_all(env, procs, name: str) -> None:
    """Run the sim until every process in ``procs`` has finished; the
    process that waits for them is called ``name``."""

    def wait():
        yield AllOf(env, procs)

    env.run(env.process(wait(), name=name))


def run_epoch(env, dep, n_nodes: int, files) -> float:
    """One epoch: every node reads every file through its HVAC client.
    Returns the epoch's sim seconds."""

    def reader(node):
        cli = dep.client(node)
        for path, size in files:
            yield from cli.read_file(path, size, node)

    t0 = env.now
    run_all(
        env,
        [env.process(reader(n), name=f"epoch.n{n}") for n in range(n_nodes)],
        "epoch",
    )
    return env.now - t0


def drain_repair(env, dep, max_seconds: float = 5.0) -> None:
    """Run the sim until every in-flight repair stream finishes."""
    if dep.repair is None:
        return
    deadline = env.now + max_seconds
    while dep.repair.in_flight > 0 and env.now < deadline:
        env.run(until=env.now + 1e-3)


@dataclass
class ModeComparison:
    """Per-mode outcomes of one scenario, and how they are reported.

    The report is the mode table, the verdict line from ``dominates()``,
    any :meth:`extra_tables`, then the SLO dashboard over every
    outcome's ``slo`` with the count strips under it.  A driver supplies
    ``columns``, ``title``, ``claim`` (the verdict sentence),
    ``dashboard_title``, ``row(outcome)`` (the cells after the mode
    name), ``dominates()`` and ``log_lines(outcome)``.
    """

    #: SLO windows per measured range
    windows: int = field(kw_only=True)
    #: mode -> outcome, in run (= display) order
    outcomes: dict[str, Any] = field(default_factory=dict, kw_only=True)

    columns: ClassVar[tuple[str, ...]] = ()
    dashboard_title: ClassVar[str] = ""
    #: break the dashboard out per client
    per_client: ClassVar[bool] = False
    #: what the count strips count (heads their block)
    strips: ClassVar[str] = ""
    #: artifact names: ``<report_name>.txt`` and ``<log_name>.log``
    report_name: ClassVar[str] = "report"
    log_name: ClassVar[str] = "windows"

    def __post_init__(self) -> None:
        if self.windows < 1:
            raise ValueError(f"windows must be >= 1, got {self.windows}")

    def rows(self) -> list[list]:
        return [[mode, *self.row(oc)] for mode, oc in self.outcomes.items()]

    def extra_tables(self) -> list[tuple[list[str], list[list], str]]:
        """``(columns, rows, title)`` tables after the verdict; a table
        without rows is left out."""
        return []

    def strip_rows(self) -> list[tuple[str, list[int]]]:
        """``(label, count per window)`` rows under the dashboard."""
        return []

    def render(self) -> str:
        verdict = "yes" if self.dominates() else "NO"
        return "\n\n".join([
            format_table(
                self.columns, self.rows(), title=self.title, float_fmt="{:.4f}"
            ),
            f"{self.claim}: {verdict}",
            *(format_table(columns, rows, title=title, float_fmt="{:.4f}")
              for columns, rows, title in self.extra_tables() if rows),
            self.dashboard(),
        ])

    def dashboard(self) -> str:
        dash = degradation_dashboard(
            {mode: oc.slo for mode, oc in self.outcomes.items()},
            title=self.dashboard_title,
            per_client=self.per_client,
        )
        rows = self.strip_rows()
        if not rows:
            return dash
        width = max(len(label) for label, _ in rows)
        lines = [f"-- {self.strips} per window (count; '+'=10+) --"]
        lines.extend(
            f"{label.ljust(width)} |{count_strip(counts)}|"
            for label, counts in rows
        )
        return dash + "\n\n" + "\n".join(lines)

    def mode_log(self) -> str:
        """The determinism artifact: every mode's log lines, in order."""
        lines = []
        for mode, oc in self.outcomes.items():
            lines.append(f"== {mode} ==")
            lines.extend(self.log_lines(oc))
        return "\n".join(lines) + "\n"

    def write_artifacts(self, outdir: str) -> dict[str, str]:
        """Write the rendered report and the logs; returns
        ``{artifact name: path}``."""
        os.makedirs(outdir, exist_ok=True)
        report = os.path.join(outdir, f"{self.report_name}.txt")
        with open(report, "w", encoding="utf-8") as fh:
            fh.write(self.render() + "\n")
        return {self.report_name: report, **self.write_logs(outdir)}

    def write_logs(self, outdir: str) -> dict[str, str]:
        log = os.path.join(outdir, f"{self.log_name}.log")
        with open(log, "w", encoding="utf-8") as fh:
            fh.write(self.mode_log())
        return {self.log_name: log}
