"""SIM004 element fixture (clean): the same shape, but every iteration
over a set-valued element goes through ``sorted(...)``, so hash order
never reaches the kernel."""

groups = []


def enroll(a, b):
    groups.append({a, b})


def flush(env):
    for g in groups:
        for waiter in sorted(g):
            env.process(waiter)
