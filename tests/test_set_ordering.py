"""One set-ordering rule: every carrier of an unordered set reports
SIM004, every unordered producer SIM013, and SIM010 fires in a loop over
any carrier, in either scope."""

import pytest

from repro.check import Program, lint_program, lint_source

#: one loop per carrier, each spawning a process per element, with the
#: detail the SIM004 message names the carrier by
CARRIER_LOOPS = {
    "cross-method": (
        "class Pool:\n"
        "    def start(self, env):\n"
        "        for w in self._live:\n"
        "            env.process(w)\n"
        "    def reset(self):\n"
        "        self._live = set()\n",
        "(self._live is bound in reset())",
    ),
    "element": (
        "groups = []\n\n"
        "def enroll(a, b):\n"
        "    groups.append({a, b})\n\n"
        "def start(env):\n"
        "    for g in groups:\n"
        "        for w in g:\n"
        "            env.process(w)\n",
        "(element of 'groups')",
    ),
    "record": (
        "from collections import namedtuple\n\n"
        "Row = namedtuple('Row', 'key members')\n\n"
        "def start(env, a, b):\n"
        "    row = Row('k', {a, b})\n"
        "    for w in row.members:\n"
        "        env.process(w)\n",
        "(Row.members)",
    ),
}


@pytest.mark.parametrize("carrier", sorted(CARRIER_LOOPS))
@pytest.mark.parametrize("scope", ["sim", "runtime"])
def test_every_carrier_is_sim004_and_feeds_sim010(carrier, scope):
    source, detail = CARRIER_LOOPS[carrier]
    found = lint_source(source, scope=scope)
    assert [v.rule for v in found] == ["SIM004", "SIM010"]
    iterated, spawned = found
    assert iterated.message.endswith(detail)
    assert spawned.line == iterated.line + 1


@pytest.mark.parametrize("code", ["SIM012", "SIM014", "SIM015", "SIM016"])
def test_retired_codes_are_unknown(code):
    with pytest.raises(ValueError, match="unknown rule"):
        lint_program(Program([("m.py", "x = 1\n")]), rules=[code])


def test_a_producer_that_returns_and_yields_a_set_is_one_finding():
    source = (
        "def live(done):\n"
        "    if done:\n"
        "        return {1, 2}\n"
        "    yield from {3, 4}\n\n"
        "def drain(out, done):\n"
        "    for x in live(done):\n"
        "        out.append(x)\n"
    )
    found = lint_source(source, scope="sim")
    assert [(v.rule, v.line) for v in found] == [("SIM013", 7)]
    assert "live" in found[0].message


def test_one_waiver_code_sanctions_either_producer_path():
    source = (
        "def live(done):\n"
        "    if done:\n"
        "        return {1, 2}  # simlint: waive SIM013 -- checked downstream\n"
        "    yield from {3, 4}  # simlint: waive SIM013 -- checked downstream\n\n"
        "def drain(out, done):\n"
        "    for x in live(done):\n"
        "        out.append(x)\n"
    )
    assert lint_source(source, scope="sim") == []
