"""Which fuzz executions are traced, and that tracing less changes no
verdict, record or case file.

A run is fingerprinted only where something reads the fingerprint: the
two executions of a campaign double run, one re-execution of a failing
untraced run (for its case file), the probes of a ``determinism``
shrink, and the shrunk scenario's final double run.  An SLO is rolled
up by the same rule: only for the executions the checker reads.  Also
the input checks of ``InvariantConfig``, ``run_campaign`` and ``repro
fuzz``.
"""

import hashlib
import importlib
import math
from dataclasses import astuple
from functools import partial

import pytest

from repro.cli import main as cli_main
from repro.faults import FaultEvent
from repro.fuzz import (
    InvariantConfig,
    Scenario,
    Workload,
    check_observation,
    execute,
    run_campaign,
    shrink,
)
from repro.fuzz.shrink import _check
from repro.simcore import EventTrace

campaign_mod = importlib.import_module("repro.fuzz.campaign")
executor_mod = importlib.import_module("repro.fuzz.executor")
shrink_mod = importlib.import_module("repro.fuzz.shrink")

#: a deadline of half the warm epoch: run 2 of seed 7 hangs, and its
#: ``hung_read`` shrinks in 19 checks
FORCED = InvariantConfig(deadline_factor=0.5, deadline_slack=0.0)

#: sha256 of the case file the forced campaign writes.  It holds the
#: failing run's event-stream fingerprint, so it moves with the
#: ``fuzz_single`` pin (docs/INTERNALS.md §1, "Re-pinning the event
#: stream") and with the case file's fields, and with nothing else.
FORCED_CASE = (
    "case_625867010c23b26b.json",
    "1311e4d7d5601a13ba47f3452a8b06b1e094803aecc3761d2ece597aa9f1aef0",
)


def _spy_execute(mp, calls):
    """Record ``trace is not None`` for every execution the campaign
    and the shrinker start."""
    real = execute

    def spy(scenario, config=None, trace=None, sanitizer=None):
        calls.append(trace is not None)
        return real(scenario, config, trace=trace, sanitizer=sanitizer)

    mp.setattr(campaign_mod, "execute", spy)
    mp.setattr(shrink_mod, "execute", spy)


def faulted_scenario() -> Scenario:
    return Scenario(
        seed=5,
        n_nodes=3,
        n_files=6,
        mean_file_size=20_000,
        workload=Workload(kind="uniform", clients=(0, 2), reads_per_client=6),
        faults=(FaultEvent(time=0.001, kind="crash", node=1, duration=0.02),),
    )


class TestUntracedExecute:
    def test_untraced_run_observes_what_a_traced_run_does(self):
        s = faulted_scenario()
        config = InvariantConfig()
        bare = execute(s, config)
        traced = execute(s, config, trace=EventTrace())
        assert bare.fingerprint is None
        assert traced.fingerprint
        assert bare.epochs == traced.epochs
        assert bare.counters == traced.counters
        assert bare.counters["client_pfs_fallback"] > 0  # the crash bit
        # repr: empty SLO windows hold NaN percentiles
        assert repr(bare.slo) == repr(traced.slo)
        assert bare.detector_transitions == traced.detector_transitions
        assert bare.detector_transitions
        assert (check_observation(bare, config)
                == check_observation(traced, config))

    def test_second_fingerprint_for_an_untraced_run_is_a_caller_error(self):
        s = faulted_scenario()
        config = InvariantConfig()
        fp = execute(s, config, trace=EventTrace()).fingerprint
        with pytest.raises(ValueError, match="untraced"):
            check_observation(execute(s, config), config,
                              second_fingerprint=fp)


class TestCampaignTracing:
    @pytest.mark.parametrize("every,executions,traced", [(4, 10, 4),
                                                         (1, 16, 16)])
    def test_only_double_runs_are_traced(self, monkeypatch, every,
                                         executions, traced):
        calls = []
        _spy_execute(monkeypatch, calls)
        result = run_campaign(
            runs=8, seed=11, shrink_failures=False,
            config=InvariantConfig(determinism_every=every),
        )
        assert result.ok
        assert (len(calls), sum(calls)) == (executions, traced)


#: ``(index, digest, origin, kind, n_faults, score, violated)`` of each
#: run of the seed-11 campaign below, as recorded when every execution
#: still rolled up its SLO
DOUBLE_RUNS = [
    (0, "d1e0d8b9c4f12051", "fresh", "hotstorm", 4, 0.9858506179999992, ()),
    (1, "d8687b6b8c8ab873", "fresh", "uniform", 2, 0.9890290131600037, ()),
    (2, "f9ef14b0f147d9a8", "fresh", "hotstorm", 5, 0.75, ()),
    (3, "de6f8cfa1bb02924", "mutate:f9ef14b0f147d9a8", "hotstorm", 4, 0.75,
     ()),
]


class TestSLOOnlyWhereRead:
    def test_double_run_rolls_up_its_first_execution_only(self, monkeypatch):
        runs, slos = [], []
        real_execute, real_slo = execute, executor_mod.compute_slo

        def spy_execute(scenario, config=None, trace=None, sanitizer=None):
            obs = real_execute(scenario, config, trace=trace,
                               sanitizer=sanitizer)
            runs.append((len(slos), obs))
            return obs

        def spy_slo(*args, **kwargs):
            slos.append(args[0])
            return real_slo(*args, **kwargs)

        monkeypatch.setattr(campaign_mod, "execute", spy_execute)
        monkeypatch.setattr(executor_mod, "compute_slo", spy_slo)
        result = run_campaign(
            runs=4, seed=11, shrink_failures=False,
            config=InvariantConfig(determinism_every=2),
        )
        assert [astuple(r) for r in result.runs] == DOUBLE_RUNS
        # runs 0 and 2 execute twice.  No execution rolls up its SLO;
        # the checker does, once per run, on the first execution's fold.
        assert [n for n, _obs in runs] == [0, 0, 1, 2, 2, 3]
        firsts = [runs[i][1].fold for i in (0, 2, 3, 5)]
        assert [id(fold) for fold in slos] == [id(fold) for fold in firsts]


@pytest.fixture(scope="module")
def forced(tmp_path_factory):
    """The forced-failure campaign, run once with spies on every
    execution and on the shrinker."""
    out = tmp_path_factory.mktemp("corpus")
    calls, shrunk = [], []
    real_shrink = shrink

    def spy_shrink(*args, **kwargs):
        shrunk.append(real_shrink(*args, **kwargs))
        return shrunk[-1]

    with pytest.MonkeyPatch.context() as mp:
        _spy_execute(mp, calls)
        mp.setattr(campaign_mod, "shrink", spy_shrink)
        result = run_campaign(runs=3, seed=7, corpus_dir=str(out),
                              config=FORCED)
    return result, calls, shrunk


class TestForcedFailure:
    def test_case_file_is_unchanged(self, forced):
        result, _calls, _shrunk = forced
        assert len(result.cases) == 1
        case = result.cases[0]
        assert case["run_index"] == 2  # not a double-run index
        assert case["shrunk"]["checks"] == 19
        path = result.case_paths[0]
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert (path.rsplit("/", 1)[-1], digest) == FORCED_CASE

    def test_traced_executions(self, forced):
        _result, calls, _shrunk = forced
        # run 0 double-runs (2 traced), runs 1 and 2 run once untraced,
        # run 2's case fingerprint takes 1 traced re-execution, its 19
        # shrink probes run once untraced and the shrunk core's final
        # report takes 1 traced double run
        assert (len(calls), sum(calls)) == (2 + 1 + 1 + 1 + 19 + 2, 5)

    def test_single_run_probes_shrink_like_double_runs(self, forced):
        _result, _calls, shrunk = forced
        (got,) = shrunk
        assert "determinism" not in got.target
        double = shrink(got.original, got.target, FORCED,
                        check=partial(_check, config=FORCED))
        assert got == double
        assert "determinism" in got.report.margins  # the final double run


class TestSizes:
    @pytest.mark.parametrize("field,value", [
        ("windows", 0),
        ("determinism_every", -1),
        ("deadline_factor", 0.0),
        ("deadline_factor", math.nan),
        ("floor_ref", 0.0),
        ("isolation_ref", -1.0),
        ("deadline_slack", -0.1),
        ("deadline_slack", math.nan),
        ("retry_slack", -1),
        ("convergence_window", math.nan),
        ("max_shrink_checks", -1),
    ])
    def test_bad_config_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            InvariantConfig(**{field: value})

    def test_written_configs_still_load(self):
        for config in (InvariantConfig(), FORCED,
                       InvariantConfig(max_shrink_checks=0,
                                       determinism_every=0)):
            assert InvariantConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("runs", [0, -3])
    def test_campaign_needs_a_run(self, runs):
        with pytest.raises(ValueError, match="runs"):
            run_campaign(runs=runs)

    @pytest.mark.parametrize("budget", [-1.0, math.nan])
    def test_budget_cannot_be_negative_or_nan(self, monkeypatch, budget):
        calls = []
        _spy_execute(monkeypatch, calls)
        with pytest.raises(ValueError, match="time_budget"):
            run_campaign(runs=1, time_budget=budget)
        assert calls == []  # rejected before the first run

    def test_infinite_budget_never_stops(self):
        result = run_campaign(runs=2, seed=11, time_budget=math.inf,
                              shrink_failures=False)
        assert len(result.runs) == 2 and not result.out_of_budget

    @pytest.mark.parametrize("argv,message", [
        (["--runs", "0"], "runs must be >= 1"),
        (["--runs", "-3"], "runs must be >= 1"),
        (["--runs", "1", "--determinism-every", "-1"],
         "determinism_every must be >= 0"),
    ])
    def test_cli_exits_2(self, capsys, argv, message):
        assert cli_main(["fuzz", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == f"repro fuzz: error: {message}"
