"""SIM004 fixture, cross-method carrier: a set bound in one method,
iterated in another.  ``order()`` textually precedes ``reset()``, so
the sequential name tracker never sees ``self._live`` holding a set
when the comprehension runs — the unordered-container taint crosses the
method boundary, and only the class-level pass follows it (SIM004,
``(self._live is bound in reset())``).
"""


class Tracker:
    def order(self):
        return [x for x in self._live]

    def reset(self):
        self._live = set()
