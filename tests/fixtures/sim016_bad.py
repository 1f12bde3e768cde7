"""SIM004 fixture, record carrier: a set laundered through fields.

``Row`` is an ordered record, so name-based set tracking (and the
cross-method/element extensions) sees nothing wrong — but the
``members`` field is a set dropped in at the construction site, and
both the attribute access and the positional unpack iterate it in
hash order (SIM004); the loop spawns in that order (SIM010).
"""

from collections import namedtuple

Row = namedtuple("Row", "key members")


def enroll(a, b):
    return Row("k", {a, b})


def flush(env, a, b):
    row = Row("k", {a, b})
    for waiter in row.members:
        env.process(waiter)
    key, members = row
    return list(members)
