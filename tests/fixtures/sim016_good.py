"""SIM004 record fixture (clean): the same shape, but every iteration
over a set-valued field goes through ``sorted(...)``, so hash order
never reaches the kernel."""

from collections import namedtuple

Row = namedtuple("Row", "key members")


def enroll(a, b):
    return Row("k", {a, b})


def flush(env, a, b):
    row = Row("k", {a, b})
    for waiter in sorted(row.members):
        env.process(waiter)
    key, members = row
    return sorted(members)
