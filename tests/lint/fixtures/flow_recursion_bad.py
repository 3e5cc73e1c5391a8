# lint-fixture: core/recursion_bad.py
"""Mutually recursive helpers: the leak is reported with its shortest
call chain, and the summary fixpoint converges around the cycle."""


def ping(value, rounds):
    if rounds:
        return pong(value, rounds - 1)
    print(value)
    return None


def pong(value, rounds):
    return ping(value, rounds)


def announce(secret_key):
    ping(secret_key, 3)  # EXPECT[RP201]
    pong(secret_key, 3)  # EXPECT[RP201]
