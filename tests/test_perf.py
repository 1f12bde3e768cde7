"""Hot-path analyzer (``repro check --perf``) and the sim-time profiler."""

import os

import pytest

from repro.check import (
    PERF_RULES,
    Program,
    perf_lint_files,
    perf_lint_source,
    perf_lint_tree,
    run_perf,
)
from repro.simcore import Environment, EventTrace, RandomStreams, SimProfiler

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def codes(source, path="mod.py"):
    return [v.rule for v in perf_lint_source(source, path=path)]


# ---------------------------------------------------------------------------
# Per-rule fixtures: every PERF rule fires on its bad file and stays
# silent on the corresponding good one.
# ---------------------------------------------------------------------------


class TestRuleFixtures:
    @pytest.mark.parametrize("rule", sorted(PERF_RULES))
    def test_bad_fixture_fires(self, rule):
        path = fixture(f"{rule.lower()}_bad.py")
        result = perf_lint_tree([path])
        assert rule in [v.rule for v in result.violations]
        assert result.all_hot  # no kernel module in the set → plain lint

    @pytest.mark.parametrize("rule", sorted(PERF_RULES))
    def test_good_fixture_clean(self, rule):
        path = fixture(f"{rule.lower()}_good.py")
        result = perf_lint_tree([path])
        assert result.violations == []
        assert result.stale_waivers == []

    @pytest.mark.parametrize("rule", sorted(PERF_RULES))
    def test_cli_exits_nonzero_on_bad_fixture(self, rule, capsys):
        rc = run_perf(Program.read([fixture(f"{rule.lower()}_bad.py")]))
        assert rc != 0
        out = capsys.readouterr().out
        assert rule in out


# ---------------------------------------------------------------------------
# Hot-set semantics: with a kernel module present, only code reachable
# from the roots is held to the rules.
# ---------------------------------------------------------------------------

_ENGINE_SRC = (
    "from util import dispatch\n\n"
    "def step(queue):\n"
    "    return dispatch(queue)\n"
)

_UTIL_SRC = (
    "def dispatch(queue):\n"
    "    def key(item):\n"  # reachable from the engine: flagged
    "        return item[1]\n"
    "    return sorted(queue, key=key)\n\n"
    "def offline_report(rows):\n"
    "    def key(row):\n"  # unreachable: setup/report code is exempt
    "        return row[1]\n"
    "    return sorted(rows, key=key)\n"
)


class TestHotSet:
    def test_reachability_gates_the_rules(self):
        result = perf_lint_files(
            Program(
                [
                    ("src/repro/simcore/engine.py", _ENGINE_SRC),
                    ("src/repro/util.py", _UTIL_SRC),
                ]
            )
        )
        assert not result.all_hot
        assert [v.rule for v in result.violations] == ["PERF102"]
        (v,) = result.violations
        assert v.path.endswith("util.py")
        assert v.line == 2  # dispatch's closure, not offline_report's

    def test_setup_functions_are_exempt(self):
        src = (
            "class Gauge:\n"
            "    def __init__(self, name):\n"
            "        self.label = f\"gauge.{name}\"\n"  # once per object: fine
        )
        assert codes(src) == []


# ---------------------------------------------------------------------------
# Waivers: same machinery as simlint, separate namespace.
# ---------------------------------------------------------------------------


class TestWaivers:
    def test_waiver_suppresses(self):
        src = (
            "def drain(queue, out):\n"
            "    while queue:\n"
            "        out.append(queue.pop(0))  # perf: waive PERF105 -- queue is bounded at 2\n"
        )
        assert codes(src) == []

    def test_waiver_line_above(self):
        src = (
            "def drain(queue, out):\n"
            "    while queue:\n"
            "        # perf: waive PERF105 -- queue is bounded at 2\n"
            "        out.append(queue.pop(0))\n"
        )
        assert codes(src) == []

    def test_simlint_waiver_does_not_cross_namespaces(self):
        src = (
            "def drain(queue, out):\n"
            "    while queue:\n"
            "        out.append(queue.pop(0))  # simlint: waive SIM004 -- wrong dialect\n"
        )
        assert "PERF105" in codes(src)

    def test_stale_waiver_reported(self):
        src = (
            "def drain(queue, out):\n"
            "    queue.reverse()  # perf: waive PERF105 -- nothing to excuse\n"
            "    while queue:\n"
            "        out.append(queue.pop())\n"
        )
        result = perf_lint_files(Program([("mod.py", src)]))
        assert result.violations == []
        assert len(result.stale_waivers) == 1
        assert result.stale_waivers[0].line == 2
        assert not result.clean

    def test_stale_waiver_fails_the_cli(self, capsys):
        pass_through = (
            "def f(x):\n"
            "    return x  # perf: waive PERF103 -- nothing here\n"
        )
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "mod.py")
            with open(path, "w") as fh:
                fh.write(pass_through)
            assert run_perf(Program.read([path])) != 0
        assert "stale" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# The repo itself holds the bar the analyzer sets.
# ---------------------------------------------------------------------------


class TestRepoIsClean:
    def test_tree_is_perf_clean(self, src_program):
        result = perf_lint_files(src_program)
        assert [v.render() for v in result.violations] == []
        assert [w.render() for w in result.stale_waivers] == []
        # the real tree must resolve a hot set, not fall back to all-hot
        assert not result.all_hot
        assert result.n_hot > 0


# ---------------------------------------------------------------------------
# Sim-time profiler: deterministic attribution, zero-cost detached.
# ---------------------------------------------------------------------------


def profiled_run(seed):
    env = Environment()
    prof = SimProfiler()
    env.observe(prof)
    rng = RandomStreams(seed).stream("load")

    def worker(n):
        for _ in range(n):
            yield env.timeout(float(rng.uniform(0.1, 1.0)))

    for i in range(3):
        env.process(worker(20), name=f"w{i}")
    env.run()
    return prof


class TestProfiler:
    def test_same_seed_double_run_identical(self):
        a = profiled_run(7).as_dict()
        b = profiled_run(7).as_dict()
        assert a == b
        assert a["total_events"] > 0

    def test_digit_runs_collapse_to_one_component(self):
        prof = profiled_run(7)
        names = [c.component for c in prof.components.values()]
        assert "Process:w#" in names
        assert not any(n.startswith("Process:w0") for n in names)

    def test_counts_match_the_event_trace(self):
        env = Environment()
        prof, trace = SimProfiler(), EventTrace()
        env.observe(prof)
        env.observe(trace)

        def proc():
            yield env.timeout(1.0)
            yield env.timeout(2.0)

        env.process(proc(), name="p")
        env.run()
        assert prof.total_events == trace.count > 0

    def test_top_ranks_by_events(self):
        prof = profiled_run(3)
        top = prof.top(3)
        assert len(top) >= 2
        assert top[0].events >= top[-1].events

    def test_describe_mentions_totals(self):
        prof = profiled_run(3)
        text = prof.describe()
        assert "TOTAL" in text
        assert str(prof.total_events) in text
