"""SIM004 cross-method fixture (clean): the same shape, but every
iteration over the attribute-held set is sorted, so hash order never
leaks into program behaviour."""


class Tracker:
    def order(self):
        return [x for x in sorted(self._live)]

    def reset(self):
        self._live = set()
