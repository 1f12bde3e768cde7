"""SIM004 fixture, element carrier: a set laundered through a list.

``groups`` is an ordered list, so name-based set tracking (and the
cross-method/return/yield extensions) sees nothing wrong — but each
*element* is a set, so the inner loop iterates it in hash order
(SIM004) and spawns processes in that order (SIM010).
"""

groups = []


def enroll(a, b):
    groups.append({a, b})


def flush(env):
    for g in groups:
        for waiter in g:
            env.process(waiter)
