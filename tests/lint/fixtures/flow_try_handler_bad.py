# lint-fixture: core/try_handler_bad.py
"""An ``except`` handler sees every state the ``try`` body passed through.

The body can raise before any of its statements, so a handler starts
from the join of the entry state and the state after each body
statement, not only from the state at the end of the body.  ``else``
runs on the path where the body finished without raising.
"""


def parse_then_log(secret_key, blob):
    shown = secret_key
    try:
        parse(blob)
        shown = "<parsed>"
    except ValueError:
        print(shown)  # EXPECT[RP201]


def bind_then_fail(secret_key, blob):
    shown = "-"
    try:
        shown = secret_key
        parse(blob)
        shown = "<parsed>"
    except ValueError:
        print(shown)  # EXPECT[RP201]


def else_after_body(secret_key, blob):
    shown = "-"
    try:
        parse(blob)
        shown = secret_key
    except ValueError:
        return None
    else:
        print(shown)  # EXPECT[RP201]


def parse(blob):
    return int(blob)
