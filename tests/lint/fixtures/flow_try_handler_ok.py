# lint-fixture: core/try_handler_ok.py
"""Guarded counterparts of ``flow_try_handler_bad.py``.

A name that holds no secret at any point of the ``try`` body is clean in
its handler, and a secret bound only by a handler never reaches the
``else`` block, which runs only when the body did not raise.
"""


def parse_then_log(secret_key, blob):
    shown = "<unparsed>"
    try:
        parse(blob)
        shown = "<parsed>"
    except ValueError:
        print(shown)
    return secret_key is not None


def fallback_not_seen_by_else(secret_key, blob):
    shown = "<default>"
    try:
        value = parse(blob)
    except ValueError:
        shown = secret_key
    else:
        print(shown, value)


def parse(blob):
    return int(blob)
