# lint-fixture: svc/proto_loop_skip_bad.py
"""A loop that skips some updates does not verify the collection.

``for u in coll: u.ensure_valid(...)`` promotes ``coll`` to VERIFIED,
but a ``continue`` or ``break`` before the guard carries an unverified
update to the loop exit, so the collection stays FETCHED.  Verifying
before the sink inside each iteration is still clean.
"""


def open_unseen(group, scheme, server_public, blobs, seen):
    fetched = [TimeBoundKeyUpdate.from_bytes(group, blob) for blob in blobs]
    for update in fetched:
        if update.label in seen:
            continue
        update.ensure_valid(group, server_public)
    return scheme.decrypt_batch(fetched)  # EXPECT[RP401]


def open_first(group, scheme, server_public, blobs):
    fetched = [TimeBoundKeyUpdate.from_bytes(group, blob) for blob in blobs]
    for update in fetched:
        if update.label is None:
            break
        update.ensure_valid(group, server_public)
    return scheme.decrypt_batch(fetched)  # EXPECT[RP401]


def open_all(group, scheme, server_public, blobs):
    fetched = [TimeBoundKeyUpdate.from_bytes(group, blob) for blob in blobs]
    for update in fetched:
        update.ensure_valid(group, server_public)
    return scheme.decrypt_batch(fetched)


def cache_verified(group, server_public, blobs, cache):
    for blob in blobs:
        update = TimeBoundKeyUpdate.from_bytes(group, blob)
        if not update.verify(group, server_public):
            continue
        cache[update.label] = update
