"""simlint: per-rule good/bad fixtures, waivers, taint, repo cleanliness."""

import os
import tokenize

import pytest

from repro.check import RULES, Program, lint_program, lint_source, lint_tree, scope_of

SRC_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro"
)
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def codes(source, **kw):
    return [v.rule for v in lint_source(source, **kw)]


# ---------------------------------------------------------------------------
# Per-rule fixtures: every rule must fire on its bad snippet and stay
# silent on the corresponding good one.  A key is the rule code, then
# optionally the carrier or path the snippet exercises.
# ---------------------------------------------------------------------------

BAD_FIXTURES = {
    "SIM001": "import time\n\ndef cost():\n    return time.time()\n",
    "SIM002": "import random\n\nrng = random.Random(3)\n",
    "SIM003": "def place(path, n):\n    return hash(path) % n\n",
    "SIM004": "seen = set()\n\ndef order():\n    return [x for x in seen]\n",
    "SIM005": (
        "def proc(env):\n"
        "    env.timeout(1.0)\n"  # created, never yielded
        "    yield env.timeout(2.0)\n"
    ),
    "SIM006": (
        "def poll(env):\n"
        "    if env.now == 5.0:\n"
        "        return True\n"
    ),
    "SIM007": "import time\n\ndef serve():\n    time.sleep(0.1)\n",
    "SIM008": "vals = {0.1, 0.2, 0.3}\n\ndef total():\n    return sum(vals)\n",
    "SIM009": (
        "index = {}\n\n"
        "def register(obj):\n"
        "    index[id(obj)] = obj\n"
    ),
    "SIM010": (
        "waiters = set()\n\n"
        "def flush():\n"
        "    for evt in waiters:\n"
        "        evt.succeed()\n"
    ),
    "SIM011": (
        "import time\n\n"
        "def stamp():\n"
        "    return time.time()\n\n"
        "def cost(env):\n"
        "    return env.now + stamp()\n"
    ),
    "SIM004 cross-method": (
        "class Tracker:\n"
        "    def order(self):\n"  # iterates before the binding method:
        "        return [x for x in self._live]\n"  # name tracking can't see it
        "    def reset(self):\n"
        "        self._live = set()\n"
    ),
    "SIM013": (
        "def live():\n"
        "    return {3, 1}\n\n"  # unordered producer
        "def drain(out):\n"
        "    for sid in live():\n"  # hash order crosses the return
        "        out.append(sid)\n"
    ),
    "SIM013 yield": (
        "def live():\n"
        "    yield from {3, 1}\n\n"  # unordered yield path
        "def drain(out):\n"
        "    for sid in live():\n"  # hash order flows down the yields
        "        out.append(sid)\n"
    ),
    "SIM004 element": (
        "groups = []\n\n"
        "def enroll(a, b):\n"
        "    groups.append({a, b})\n\n"  # set laundered into a list slot
        "def flush(out):\n"
        "    for g in groups:\n"
        "        for x in g:\n"  # element iterated in hash order
        "            out.append(x)\n"
    ),
    "SIM004 record": (
        "from collections import namedtuple\n\n"
        "Row = namedtuple('Row', 'key members')\n\n"
        "def flush(out, a, b):\n"
        "    row = Row('k', {a, b})\n\n"  # set laundered into a field
        "    for x in row.members:\n"  # field iterated in hash order
        "        out.append(x)\n"
    ),
}

GOOD_FIXTURES = {
    "SIM001": (
        "def cost(env):\n"
        "    return env.now\n"
    ),
    "SIM002": (
        "from repro.simcore import RandomStreams\n\n"
        "rng = RandomStreams(3).stream('evict')\n"
    ),
    "SIM003": (
        "from repro.simcore import stable_hash64\n\n"
        "def place(path, n):\n"
        "    return stable_hash64(path) % n\n"
    ),
    "SIM004": (
        "seen = set()\n\n"
        "def order():\n"
        "    return [x for x in sorted(seen)]\n"
    ),
    "SIM005": (
        "def proc(env):\n"
        "    yield env.timeout(1.0)\n"
        "    t = env.timeout(2.0)\n"  # assigned for later composition: fine
        "    yield t\n"
    ),
    "SIM006": (
        "def poll(env):\n"
        "    if env.now >= 5.0:\n"
        "        return True\n"
    ),
    "SIM007": (
        "def proc(env):\n"
        "    yield env.timeout(0.1)\n"
    ),
    "SIM008": (
        "vals = {0.1, 0.2, 0.3}\n\n"
        "def total():\n"
        "    return sum(sorted(vals))\n"
    ),
    "SIM009": (
        "index = {}\n\n"
        "def register(obj):\n"
        "    index[obj.name] = obj\n"
    ),
    "SIM010": (
        "waiters = set()\n\n"
        "def flush():\n"
        "    for evt in sorted(waiters, key=lambda e: e.seq):\n"
        "        evt.succeed()\n"
    ),
    "SIM011": (
        "def clock(env):\n"
        "    return env.now\n\n"
        "def cost(env):\n"
        "    return clock(env) + 1.0\n"
    ),
    "SIM004 cross-method": (
        "class Tracker:\n"
        "    def order(self):\n"
        "        return sorted(self._live)\n"
        "    def reset(self):\n"
        "        self._live = set()\n"
    ),
    "SIM013": (
        "def live():\n"
        "    return sorted({3, 1})\n\n"
        "def drain(out):\n"
        "    for sid in live():\n"
        "        out.append(sid)\n"
    ),
    "SIM013 yield": (
        "def live():\n"
        "    yield from sorted({3, 1})\n\n"
        "def drain(out):\n"
        "    for sid in live():\n"
        "        out.append(sid)\n"
    ),
    "SIM004 element": (
        "groups = []\n\n"
        "def enroll(a, b):\n"
        "    groups.append({a, b})\n\n"
        "def flush(out):\n"
        "    for g in groups:\n"
        "        for x in sorted(g):\n"
        "            out.append(x)\n"
    ),
    "SIM004 record": (
        "from collections import namedtuple\n\n"
        "Row = namedtuple('Row', 'key members')\n\n"
        "def flush(out, a, b):\n"
        "    row = Row('k', {a, b})\n\n"
        "    for x in sorted(row.members):\n"
        "        out.append(x)\n"
    ),
}


class TestRuleFixtures:
    @pytest.mark.parametrize("case", sorted(BAD_FIXTURES))
    def test_bad_fixture_fires(self, case):
        assert case.split()[0] in codes(BAD_FIXTURES[case], scope="sim")

    @pytest.mark.parametrize("case", sorted(GOOD_FIXTURES))
    def test_good_fixture_clean(self, case):
        assert codes(GOOD_FIXTURES[case], scope="sim") == []

    def test_every_rule_has_both_fixtures(self):
        for fixtures in (BAD_FIXTURES, GOOD_FIXTURES):
            assert {case.split()[0] for case in fixtures} == set(RULES)

    def test_violation_renders_location(self):
        (v,) = lint_source(BAD_FIXTURES["SIM003"], path="pkg/mod.py")
        assert v.rule == "SIM003"
        assert v.line == 2
        assert "pkg/mod.py:2:" in v.render()


class TestRuleDetails:
    def test_sim001_aliased_import(self):
        src = "from time import perf_counter\n\ndef f():\n    return perf_counter()\n"
        assert codes(src, scope="sim") == ["SIM001"]

    def test_sim002_dunder_import_smuggling(self):
        # the exact trick runtime/server.py used to ship
        src = "r = __import__('random').Random(7)\n"
        assert codes(src) == ["SIM002"]

    def test_sim002_numpy_alias_and_global_draws(self):
        src = "import numpy as np\n\ng = np.random.default_rng(0)\n"
        assert codes(src) == ["SIM002"]
        src = "import random\n\nrandom.shuffle([1, 2])\n"
        assert codes(src) == ["SIM002"]

    def test_sim002_applies_in_runtime_scope_too(self):
        src = "import random\n\nrng = random.Random(1)\n"
        assert codes(src, scope="runtime") == ["SIM002"]

    def test_sim004_set_literal_and_call(self):
        assert codes("for x in {1, 2, 3}:\n    pass\n") == ["SIM004"]
        assert codes("xs = list(set([3, 1]))\n") == ["SIM004"]

    def test_sim004_self_attribute_tracking(self):
        src = (
            "class C:\n"
            "    def __init__(self):\n"
            "        self._live: set[int] = set()\n"
            "    def order(self):\n"
            "        return [x for x in self._live]\n"
        )
        assert codes(src) == ["SIM004"]

    def test_sim004_dict_iteration_is_fine(self):
        assert codes("d = {}\nfor k in d:\n    pass\n") == []

    def test_sim005_only_in_generators(self):
        # outside a process generator the call is just a weird no-op,
        # not a suspended-forever process — stay quiet
        src = "def setup(env):\n    env.timeout(1.0)\n"
        assert codes(src) == []

    def test_sim005_spawning_processes_is_fine(self):
        src = (
            "def drain(self):\n"
            "    while True:\n"
            "        yield self.queue.get()\n"
            "        self.env.process(self.svc())\n"
        )
        assert codes(src) == []

    def test_sim006_both_sides(self):
        assert codes("ok = 0.0 != env.now\n") == ["SIM006"]

    def test_sim007_thread_join_vs_str_join(self):
        assert codes("def f(t):\n    yield 1\n    t.join()\n") == ["SIM007"]
        assert codes("def f(parts):\n    yield 1\n    s = ','.join(parts)\n") == []

    def test_sim008_qualified_reducers(self):
        src = "import math\n\nxs = set()\nt = math.fsum(xs)\n"
        assert codes(src) == ["SIM008"]
        src = "import numpy as np\n\nxs = {1.0, 2.0}\nt = np.sum(xs)\n"
        assert codes(src) == ["SIM008"]

    def test_sim008_set_literal_argument(self):
        assert codes("t = sum({0.5, 0.25})\n") == ["SIM008"]

    def test_sim008_ordered_reductions_are_fine(self):
        assert codes("xs = [0.1, 0.2]\nt = sum(xs)\n") == []
        assert codes("xs = {0.1, 0.2}\nt = sum(sorted(xs))\n") == []
        # a generator over a set is the SIM004 iteration hazard, and
        # only that — no double report
        assert codes("xs = {0.1}\nt = sum(x for x in xs)\n") == ["SIM004"]

    def test_sim009_subscript_read_and_write(self):
        assert codes("d = {}\nd[id(1)] = 2\n") == ["SIM009"]
        assert codes("d = {}\nx = d[id(1)]\n") == ["SIM009"]

    def test_sim009_dict_literal_and_comprehension(self):
        assert codes("a = object()\nd = {id(a): 1}\n") == ["SIM009"]
        assert codes("d = {id(o): o for o in [1, 2]}\n") == ["SIM009"]

    def test_sim009_id_in_set_membership_is_fine(self):
        # the engine's cycle guard: id() into a *set*, pure membership,
        # never iterated — address instability can't leak into order
        assert codes("s = set()\ns.add(id(1))\nok = id(2) in s\n") == []

    def test_wall_clock_rules_skip_runtime_scope(self):
        src = "import time\n\ndef f():\n    time.sleep(1)\n    return time.time()\n"
        assert codes(src, scope="sim") == ["SIM007", "SIM001"]  # source order
        assert codes(src, scope="runtime") == []


class TestUnorderedValueGaps:
    """Carrier x sink pairs the per-carrier visitors used to miss."""

    def test_qualified_typing_annotation(self):
        src = (
            "import typing\n\n"
            "def order(g):\n"
            "    xs: typing.Set[int] = g()\n"
            "    return [x for x in xs]\n"
        )
        assert codes(src) == ["SIM004"]

    def test_string_annotation(self):
        src = (
            "def order(g):\n"
            "    xs: 'set[int]' = g()\n"
            "    return [x for x in xs]\n"
        )
        assert codes(src) == ["SIM004"]

    def test_float_reduction_over_cross_method_attribute(self):
        src = (
            "class Meter:\n"
            "    def total(self):\n"
            "        return sum(self._live)\n"
            "    def reset(self):\n"
            "        self._live = {0.1, 0.2}\n"
        )
        (v,) = lint_source(src)
        assert (v.rule, v.line) == ("SIM008", 3)
        assert "(self._live is bound in reset())" in v.message


class TestSim010Details:
    def test_comprehension_spawn(self):
        src = (
            "live = set()\n\n"
            "def go(env):\n"
            "    return [env.process(w) for w in live]\n"
        )
        assert "SIM010" in codes(src)

    def test_callbacks_append(self):
        src = (
            "live = set()\n\n"
            "def chain(evt):\n"
            "    for w in live:\n"
            "        w.callbacks.append(evt)\n"
        )
        assert "SIM010" in codes(src)

    def test_list_iteration_is_fine(self):
        src = (
            "live = []\n\n"
            "def flush():\n"
            "    for evt in live:\n"
            "        evt.succeed()\n"
        )
        assert codes(src) == []

    def test_non_scheduling_call_in_set_loop_is_sim004_only(self):
        src = (
            "live = set()\n\n"
            "def total():\n"
            "    acc = 0\n"
            "    for w in live:\n"
            "        acc += w.weight()\n"
            "    return acc\n"
        )
        assert codes(src) == ["SIM004"]


class TestSim011Details:
    def test_chain_through_two_helpers(self):
        src = (
            "import time\n\n"
            "def inner():\n"
            "    return time.time()\n\n"
            "def outer():\n"
            "    return inner()\n\n"
            "def cost(env):\n"
            "    return env.now + outer()\n"
        )
        got = lint_source(src, scope="sim")
        sim011 = [v for v in got if v.rule == "SIM011"]
        assert len(sim011) == 2  # at outer()'s call of inner, and cost's of outer
        assert any("outer -> inner" in v.message for v in sim011)

    def test_waived_primitive_does_not_taint(self):
        # a waiver sanctions the site — callers must not inherit SIM011
        src = (
            "import time\n\n"
            "def stamp():\n"
            "    return time.time()  # simlint: waive SIM001 -- wall-clock telemetry\n\n"
            "def cost(env):\n"
            "    return env.now + stamp()\n"
        )
        assert codes(src) == []

    def test_set_argument_into_iterating_callee(self):
        src = (
            "def drain(items):\n"
            "    return [x.key for x in items]\n\n"
            "def plan():\n"
            "    live = set()\n"
            "    return drain(live)\n"
        )
        got = lint_source(src, scope="sim")
        assert [v.rule for v in got] == ["SIM011"]
        assert "unordered set" in got[0].message

    def test_rng_stream_helpers_stay_clean(self):
        src = (
            "from repro.simcore import RandomStreams\n\n"
            "def streams(seed):\n"
            "    return RandomStreams(seed).stream('evict')\n\n"
            "def pick(seed):\n"
            "    return streams(seed).integers(10)\n"
        )
        assert codes(src) == []


class TestWaivers:
    def test_same_line_waiver(self):
        src = "h = hash('x')  # simlint: waive SIM003 -- demo\n"
        assert codes(src) == []

    def test_line_above_waiver(self):
        src = "# simlint: waive SIM003 -- demo\nh = hash('x')\n"
        assert codes(src) == []

    def test_bare_waiver_covers_all_rules(self):
        src = "import random\n\nr = random.Random(hash('x'))  # simlint: waive\n"
        assert codes(src) == []

    def test_waiver_is_code_specific(self):
        src = "import random\n\nr = random.Random(hash('x'))  # simlint: waive SIM003\n"
        assert codes(src) == ["SIM002"]

    def test_non_comment_line_above_does_not_waive(self):
        src = "x = 1  # simlint: waive SIM003\nh = hash('x')\n"
        assert codes(src) == ["SIM003"]


class TestStaleWaivers:
    def test_stale_waiver_reported(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(
            "x = 1  # simlint: waive SIM003 -- excuse that outlived its bug\n"
        )
        result = lint_tree([str(tmp_path)])
        assert result.violations == []
        assert len(result.stale_waivers) == 1
        stale = result.stale_waivers[0]
        assert stale.line == 1 and stale.codes == frozenset({"SIM003"})
        assert "stale waiver" in stale.render()
        assert not result.clean

    def test_used_waiver_is_not_stale(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("h = hash('x')  # simlint: waive SIM003 -- demo\n")
        result = lint_tree([str(tmp_path)])
        assert result.violations == [] and result.stale_waivers == []
        assert result.clean

    def test_waiver_quoted_in_docstring_is_not_a_waiver(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text('"""e.g. # simlint: waive SIM003 -- docs"""\n')
        result = lint_tree([str(tmp_path)])
        assert result.stale_waivers == []

    def test_run_lint_exits_nonzero_on_stale_waiver(self, tmp_path, capsys):
        from repro.check import run_lint

        mod = tmp_path / "mod.py"
        mod.write_text("x = 1  # simlint: waive -- nothing here anymore\n")
        assert run_lint(Program.read([str(tmp_path)])) == 1
        assert "stale waiver" in capsys.readouterr().out

    def test_sim011_waiver_exempt_without_taint(self, tmp_path):
        # only the cross-module pass can consume a SIM011 waiver; a
        # taint-off run must not call it stale
        mod = tmp_path / "mod.py"
        mod.write_text("y = helper()  # simlint: waive SIM011 -- sanctioned\n")
        assert lint_tree([str(tmp_path)], taint=False).stale_waivers == []


class TestWaiverTokenizing:
    """Only a file whose text holds a waiver marker is tokenized for
    the stale-waiver scan; the verdict is the same as tokenizing all."""

    @staticmethod
    def stale(source):
        result = lint_program(Program([("mod.py", source)]), taint=True)
        assert result.violations == []
        return [(w.line, w.codes) for w in result.stale_waivers]

    def test_waiver_quoted_only_in_a_docstring(self):
        source = '"""Waive with ``# simlint: waive SIM001 -- reason``."""\n\nx = 1\n'
        assert self.stale(source) == []

    def test_real_stale_waiver_still_reported(self):
        source = "def cost(n):\n    return n + 1  # simlint: waive SIM001 -- clock gone\n"
        assert self.stale(source) == [(2, frozenset({"SIM001"}))]

    def test_untokenizable_file_reports_its_waiver_line(self, monkeypatch):
        def fail(readline):
            raise tokenize.TokenError("EOF in multi-line statement", (3, 0))

        monkeypatch.setattr(tokenize, "generate_tokens", fail)
        source = "x = 1\n# simlint: waive SIM001 -- clock gone\ny = 2\n"
        assert self.stale(source) == [(2, frozenset({"SIM001"}))]


class TestCrossModuleTaint:
    def test_taint_catches_what_per_function_pass_misses(self):
        paths = [
            os.path.join(FIXTURES, "runtime", "clockutil.py"),
            os.path.join(FIXTURES, "taint_caller.py"),
        ]
        plain = lint_tree(paths, taint=False)
        assert plain.violations == []  # the per-function pass is blind
        tainted = lint_tree(paths, taint=True)
        rules = [v.rule for v in tainted.violations]
        assert rules == ["SIM011"]
        v = tainted.violations[0]
        assert v.path.endswith("taint_caller.py")
        assert "read_clock" in v.message and "SIM001" in v.message

    def test_sim010_fixture_files(self):
        bad = lint_tree([os.path.join(FIXTURES, "sim010_bad.py")])
        assert "SIM010" in [v.rule for v in bad.violations]
        good = lint_tree([os.path.join(FIXTURES, "sim010_good.py")])
        assert good.violations == []

    def test_sim012_fixture_files(self):
        bad = lint_tree([os.path.join(FIXTURES, "sim012_bad.py")])
        rules = [v.rule for v in bad.violations]
        assert rules == ["SIM004"]
        assert "self._live" in bad.violations[0].message
        assert "reset" in bad.violations[0].message
        good = lint_tree([os.path.join(FIXTURES, "sim012_good.py")])
        assert good.violations == []

    def test_sim013_fixture_files(self):
        bad = lint_tree([os.path.join(FIXTURES, "sim013_bad.py")])
        rules = [v.rule for v in bad.violations]
        assert rules == ["SIM013"]
        v = bad.violations[0]
        # flagged at drain()'s loop, naming the transitive producer
        assert "pick" in v.message and "unordered" in v.message
        good = lint_tree([os.path.join(FIXTURES, "sim013_good.py")])
        assert good.violations == []

    def test_sim013_waived_at_producer_is_sanctioned(self):
        src = (
            "def live():\n"
            "    return {3, 1}  # simlint: waive SIM013 -- order rechecked downstream\n\n"
            "def drain(out):\n"
            "    for sid in live():\n"
            "        out.append(sid)\n"
        )
        assert codes(src, scope="sim") == []

    def test_sim013_order_preserving_wrapper_still_fires(self):
        src = (
            "def live():\n"
            "    return {3, 1}\n\n"
            "def drain(out):\n"
            "    for sid in list(live()):\n"
            "        out.append(sid)\n"
        )
        assert "SIM013" in codes(src, scope="sim")

    def test_sim013_sorted_at_call_site_is_clean(self):
        src = (
            "def live():\n"
            "    return {3, 1}\n\n"
            "def drain(out):\n"
            "    for sid in sorted(live()):\n"
            "        out.append(sid)\n"
        )
        assert codes(src, scope="sim") == []

    def test_sim014_fixture_files(self):
        bad = lint_tree([os.path.join(FIXTURES, "sim014_bad.py")])
        rules = [v.rule for v in bad.violations]
        assert rules == ["SIM013"]
        v = bad.violations[0]
        # flagged at drain()'s loop, naming the delegating producer
        assert "relay" in v.message and "yield" in v.message
        good = lint_tree([os.path.join(FIXTURES, "sim014_good.py")])
        assert good.violations == []

    def test_sim014_waived_at_producer_is_sanctioned(self):
        src = (
            "def live():\n"
            "    yield from {3, 1}  # simlint: waive SIM013 -- order rechecked downstream\n\n"
            "def drain(out):\n"
            "    for sid in live():\n"
            "        out.append(sid)\n"
        )
        assert codes(src, scope="sim") == []

    def test_sim014_order_preserving_wrappers_still_fire(self):
        # at the consuming loop AND inside the delegation itself
        src = (
            "def live():\n"
            "    yield from {3, 1}\n\n"
            "def drain(out):\n"
            "    for sid in list(live()):\n"
            "        out.append(sid)\n"
        )
        assert "SIM013" in codes(src, scope="sim")
        src = (
            "def live():\n"
            "    yield from list({3, 1})\n\n"
            "def drain(out):\n"
            "    for sid in live():\n"
            "        out.append(sid)\n"
        )
        assert "SIM013" in codes(src, scope="sim")

    def test_sim014_sorted_neutralizes_either_end(self):
        src = (
            "def live():\n"
            "    yield from {3, 1}\n\n"
            "def drain(out):\n"
            "    for sid in sorted(live()):\n"
            "        out.append(sid)\n"
        )
        assert codes(src, scope="sim") == []
        src = (
            "def live():\n"
            "    yield from sorted({3, 1})\n\n"
            "def drain(out):\n"
            "    for sid in live():\n"
            "        out.append(sid)\n"
        )
        assert codes(src, scope="sim") == []

    def test_sim014_crosses_return_of_a_generator(self):
        # ``return g()`` forwards the tainted generator verbatim
        src = (
            "def live():\n"
            "    yield from {3, 1}\n\n"
            "def pick():\n"
            "    return live()\n\n"
            "def drain(out):\n"
            "    for sid in pick():\n"
            "        out.append(sid)\n"
        )
        assert "SIM013" in codes(src, scope="sim")

    def test_sim014_yield_from_an_unordered_returner(self):
        # delegation to a plain function that *returns* a set
        src = (
            "def live():\n"
            "    return {3, 1}\n\n"
            "def relay():\n"
            "    yield from live()\n\n"
            "def drain(out):\n"
            "    for sid in relay():\n"
            "        out.append(sid)\n"
        )
        assert "SIM013" in codes(src, scope="sim")

    def test_sim014_nested_def_keeps_yields_to_itself(self):
        src = (
            "def outer():\n"
            "    def inner():\n"
            "        yield from {3, 1}\n"
            "    return sorted(inner())\n\n"
            "def drain(out):\n"
            "    for sid in outer():\n"
            "        out.append(sid)\n"
        )
        assert codes(src, scope="sim") == []

    def test_sim015_fixture_files(self):
        bad = lint_tree([os.path.join(FIXTURES, "sim015_bad.py")])
        rules = [v.rule for v in bad.violations]
        assert rules == ["SIM004", "SIM010"]
        assert [v.line for v in bad.violations] == [18, 19]
        assert "groups" in bad.violations[0].message
        good = lint_tree([os.path.join(FIXTURES, "sim015_good.py")])
        assert good.violations == []

    def test_sim015_dict_values_items_and_subscript(self):
        # a dict whose values are sets taints ``.values()``, ``.items()``
        # pairs, and direct subscripts alike
        src = (
            "table = {}\n"
            "def put(k, a, b):\n"
            "    table[k] = {a, b}\n\n"
            "def drain(env):\n"
            "    for grp in table.values():\n"
            "        for w in grp:\n"
            "            env.process(w)\n"
            "    for _k, grp in table.items():\n"
            "        env.process(list(grp))\n"
            "    env.process(max(table[0]))\n"
        )
        lines = sorted(v.line for v in lint_source(src, scope="sim"))
        assert lines == [7, 8, 10, 11]

    def test_sim015_sorted_element_is_exempt(self):
        src = (
            "groups = [{1, 2}]\n"
            "def drain(env):\n"
            "    order = [w for g in groups for w in sorted(g)]\n"
            "    env.process(order)\n"
        )
        assert codes(src, scope="sim") == []

    def test_sim015_waiver(self):
        src = (
            "groups = [{1, 2}]\n"
            "def drain(env):\n"
            "    for g in groups:\n"
            "        for w in g:  # simlint: waive SIM004 -- singleton sets\n"
            "            env.process(w)\n"
        )
        assert codes(src, scope="sim") == ["SIM010"]

    def test_sim016_fixture_files(self):
        bad = lint_tree([os.path.join(FIXTURES, "sim016_bad.py")])
        rules = [v.rule for v in bad.violations]
        assert rules == ["SIM004", "SIM010", "SIM004"]
        assert "Row.members" in bad.violations[0].message
        good = lint_tree([os.path.join(FIXTURES, "sim016_good.py")])
        assert good.violations == []

    def test_sim016_dataclass_annotation_and_default_factory(self):
        # annotation taint through a function parameter, default-factory
        # taint through a direct construction
        src = (
            "from dataclasses import dataclass, field\n"
            "@dataclass\n"
            "class Unit:\n"
            "    label: str\n"
            "    paths: set\n"
            "    extra: object = field(default_factory=set)\n\n"
            "def drain(env, u: Unit):\n"
            "    env.process(list(u.extra))\n"
        )
        assert "SIM004" in codes(src, scope="sim")

    def test_sim016_positional_unpack_carries_taint(self):
        src = (
            "from collections import namedtuple\n"
            "Row = namedtuple('Row', ['key', 'members'])\n\n"
            "def drain(env, a, b):\n"
            "    row = Row('k', {a, b})\n"
            "    key, members = row\n"
            "    for w in members:\n"
            "        env.process(w)\n"
        )
        assert "SIM004" in codes(src, scope="sim")

    def test_sim016_sorted_field_is_exempt(self):
        src = (
            "from collections import namedtuple\n"
            "Row = namedtuple('Row', 'key members')\n\n"
            "def drain(env, a, b):\n"
            "    row = Row('k', {a, b})\n"
            "    env.process(sorted(row.members))\n"
        )
        assert codes(src, scope="sim") == []

    def test_sim016_ordered_field_is_clean(self):
        src = (
            "from collections import namedtuple\n"
            "Row = namedtuple('Row', 'key members')\n\n"
            "def drain(env, a, b):\n"
            "    row = Row('k', (a, b))\n"  # tuple field: ordered
            "    for w in row.members:\n"
            "        env.process(w)\n"
        )
        assert codes(src, scope="sim") == []

    def test_sim016_waiver(self):
        src = (
            "from collections import namedtuple\n"
            "Row = namedtuple('Row', 'key members')\n\n"
            "def drain(env, a, b):\n"
            "    row = Row('k', {a, b})\n"
            "    for w in row.members:  # simlint: waive SIM004 -- singleton\n"
            "        env.process(w)\n"
        )
        assert codes(src, scope="sim") == ["SIM010"]


class TestScope:
    def test_scope_classification(self):
        assert scope_of("src/repro/simcore/engine.py") == "sim"
        assert scope_of("src/repro/runtime/server.py") == "runtime"
        assert scope_of("src/repro/posix/tracing.py") == "sim"

    def test_unknown_rule_code_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            lint_program(Program.read([SRC_ROOT]), rules=["SIM999"])


class TestRepoIsClean:
    def test_tree_lints_clean(self, src_program):
        """The determinism contract holds for the shipped tree: every
        SIM violation has been fixed or explicitly waived inline."""
        violations = lint_program(src_program).violations
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_tree_is_clean_under_taint_and_waiver_hygiene(self, src_program):
        """The stronger CI gate: the cross-module taint pass finds no
        hidden primitive behind any sim-scope call, and no waiver has
        gone stale."""
        result = lint_program(src_program, taint=True)
        assert result.clean, "\n".join(
            [v.render() for v in result.violations]
            + [w.render() for w in result.stale_waivers]
        )
