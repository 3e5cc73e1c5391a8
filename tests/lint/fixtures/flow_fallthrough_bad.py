# lint-fixture: core/fallthrough_bad.py
"""Paths that fall through, break or continue still carry their taint.

The counterpart of ``flow_terminated_branch_ok.py``: a branch that does
not leave the function merges into the code after it, ``break`` carries
its state to the loop exit, ``continue`` to the next iteration, and an
``except`` handler that falls through merges with the ``try`` body;
``finally`` runs even when every other path has left.
"""


def describe(secret_key, verbose):
    shown = "<redacted>"
    if verbose:
        shown = secret_key
    print(shown)  # EXPECT[RP201]


def until_found(secret_key, items):
    shown = "-"
    for item in items:
        if item:
            shown = secret_key
            break
    print(shown)  # EXPECT[RP201]


def skip_marked(secret_key, items):
    shown = "-"
    for item in items:
        if item:
            shown = secret_key
            continue
        print(shown)  # EXPECT[RP201]


def parse_or_fallback(secret_key, blob):
    shown = "<default>"
    try:
        int(blob)
    except ValueError:
        shown = secret_key
    print(shown)  # EXPECT[RP201]


def read_then_log(secret_key, stream):
    note = secret_key
    try:
        return stream.read()
    finally:
        print(note)  # EXPECT[RP201]
