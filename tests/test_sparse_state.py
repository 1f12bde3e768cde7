"""Per-entity simulation state is allocated on use, not sized by the fleet.

The failure detector keeps state only for servers with a strike, and a
:class:`Resource` builds its wait deque on first contention.  Each must
behave exactly as the eagerly-allocated form did: the detector is
checked op by op against a dense reference copy kept here.
"""

import random

import pytest

from repro.faults import FailureDetector
from repro.faults.detector import PROBATION_CAP_FACTOR, PROBATION_GROWTH
from repro.simcore import Environment, Resource


class DenseDetector:
    """The list-per-server detector the sparse one replaced, kept as the
    reference: three ``[...] * n_servers`` lists per client."""

    def __init__(self, env, n_servers, suspect_after=2, probation=2.0):
        self.env = env
        self.n_servers = n_servers
        self.suspect_after = suspect_after
        self.probation = probation
        self.probation_cap = probation * PROBATION_CAP_FACTOR
        self._strikes = [0] * n_servers
        self._until = [0.0] * n_servers
        self.transitions = []
        self._expiry_logged = [True] * n_servers

    def record_success(self, sid):
        if self._until[sid] > 0.0 and self._strikes[sid] >= self.suspect_after:
            self._note_expiry(sid)
            self.transitions.append((self.env.now, "reprobe_ok", sid))
        self._strikes[sid] = 0
        self._until[sid] = 0.0
        self._expiry_logged[sid] = True

    def record_failure(self, sid):
        self._strikes[sid] += 1
        over = self._strikes[sid] - self.suspect_after
        if over < 0:
            return
        if over == 0:
            self.transitions.append((self.env.now, "suspect", sid))
        elif self.env.now >= self._until[sid]:
            self._note_expiry(sid)
            self.transitions.append((self.env.now, "reprobe_fail", sid))
        self._expiry_logged[sid] = False
        term = min(self.probation * PROBATION_GROWTH**over, self.probation_cap)
        self._until[sid] = self.env.now + term

    def _note_expiry(self, sid):
        if not self._expiry_logged[sid]:
            self._expiry_logged[sid] = True
            self.transitions.append(
                (min(self._until[sid], self.env.now), "probation_expired", sid)
            )

    def usable(self, sid):
        if self._strikes[sid] < self.suspect_after:
            return True
        if self.env.now >= self._until[sid]:
            self._note_expiry(sid)
            return True
        return False

    def strikes(self, sid):
        return self._strikes[sid]

    def suspects(self):
        return [
            sid for sid in range(self.n_servers)
            if self._strikes[sid] >= self.suspect_after
            and self.env.now < self._until[sid]
        ]


class ManualClock:
    """Just enough of an Environment for a detector: a settable ``now``."""

    def __init__(self):
        self.now = 0.0


def _state(det):
    return (
        list(det.transitions),
        det.suspects(),
    )


PARAMS = [
    dict(suspect_after=1, probation=0.5),
    dict(suspect_after=2, probation=1.0),
    dict(suspect_after=3, probation=0.25),
    dict(suspect_after=2, probation=0.0),  # zero-length terms, from t = 0
]


@pytest.mark.parametrize("params", PARAMS)
@pytest.mark.parametrize("seed", range(6))
def test_sparse_detector_matches_dense_reference(params, seed):
    n = 5
    rng = random.Random(seed)
    clock = ManualClock()
    sparse = FailureDetector(clock, n, **params)
    dense = DenseDetector(clock, n, **params)
    for _ in range(400):
        op = rng.random()
        sid = rng.randrange(n)
        if op < 0.35:
            sparse.record_failure(sid)
            dense.record_failure(sid)
        elif op < 0.55:
            sparse.record_success(sid)
            dense.record_success(sid)
        elif op < 0.8:
            assert sparse.usable(sid) == dense.usable(sid)
        elif op < 0.9:
            assert sparse.suspects() == dense.suspects()
        else:
            clock.now += rng.choice((0.0, 0.1, 0.3, 1.0, 2.5))
        assert _state(sparse) == _state(dense)
        assert [sparse.strikes(s) for s in range(n)] == dense._strikes
        assert sparse.probation_end() == max(dense._until)


def test_probation_end_is_the_latest_term_and_zero_when_none():
    clock = ManualClock()
    det = FailureDetector(clock, 8, suspect_after=1, probation=1.0)
    assert det.probation_end() == 0.0
    det.record_failure(6)  # term ends at 1.0
    clock.now = 0.5
    det.record_failure(2)  # term ends at 1.5
    assert det.probation_end() == 1.5
    clock.now = 3.0
    # an expired term still counts until its server is pardoned
    assert det.probation_end() == 1.5
    det.record_success(2)
    assert det.probation_end() == 1.0
    det.record_success(6)
    assert det.probation_end() == 0.0


def test_detector_over_a_large_fleet_holds_nothing_after_successes():
    det = FailureDetector(Environment(), 100_000)
    for sid in range(0, 100_000, 10):
        det.record_success(sid)
    assert det._strikes == {} and det._until == {} and det._expiry_due == {}
    for sid in (7, 7, 9):
        det.record_failure(sid)
    for sid in (7, 9):
        det.record_success(sid)
    assert det._strikes == {} and det._until == {} and det._expiry_due == {}
    # a zero-length term opened at t = 0 is pardoned without a re-probe
    det = FailureDetector(Environment(), 100_000, suspect_after=1, probation=0.0)
    det.record_failure(3)
    det.record_success(3)
    assert [kind for _, kind, _ in det.transitions] == ["suspect"]
    assert det._strikes == {} and det._until == {} and det._expiry_due == {}


def test_uncontended_resource_allocates_no_queue():
    env = Environment()
    res = Resource(env, capacity=2)

    def user():
        with (yield res):
            yield env.timeout(1.0)

    env.process(user())
    env.process(user())
    env.run()
    assert res.queue is None
    assert res.queued == 0 and res.count == 0

