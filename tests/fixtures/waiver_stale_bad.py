"""Clean code under one stale simlint waiver: no rule fires here, so
the waiver suppresses nothing and ``repro check --passes lint`` must
report it and exit 1."""


def scaled(size, factor):
    return size * factor  # simlint: waive SIM003 -- the hash() it excused is gone
