# lint-fixture: core/terminated_branch_ok.py
"""A branch that returns or raises does not flow past its ``if``.

Only the paths that fall through reach the code after a branch, so a
secret bound on a path that has already left the function is never
rendered below it.
"""


def describe(secret_key, verbose):
    shown = "<redacted>"
    if verbose:
        shown = secret_key
        return None
    print(shown)


def reject(secret_key, strict):
    label = "accepted"
    if strict:
        label = secret_key
        raise ValueError("rejected")
    print(label)


def first_usable(secret_key, items):
    note = "-"
    for item in items:
        if item:
            note = secret_key
            return item
    print(note)


def parse_or_default(secret_key, blob):
    shown = "<default>"
    try:
        value = int(blob)
    except ValueError:
        shown = secret_key
        return None
    print(shown, value)
