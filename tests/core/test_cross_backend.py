"""Golden transcripts: every scheme's wire bytes, pinned as known answers.

One seeded protocol slice per parameter set (toy64, ss512) produces the
ciphertexts, keys, updates, archive snapshot and service frames of every
scheme; ``golden_transcripts.json`` holds their hex.  Relative checks
(fast path vs slow path, cold vs warm) pass when every path shares a
bug; a known-answer vector does not, so any arithmetic refactor is
proven against this file.  The seeds and labels below feed the committed
hex and must not change.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.core.bls import BLSSignatureScheme
from repro.core.broadcast import BroadcastTimedReleaseScheme
from repro.core.fujisaki_okamoto import FOTimedReleaseScheme
from repro.core.hybrid_tre import HybridTimedReleaseScheme
from repro.core.idtre import IdentityTimedReleaseScheme
from repro.core.keys import ServerKeyPair, UserKeyPair
from repro.core.react import ReactTimedReleaseScheme
from repro.core.timeserver import (
    PassiveTimeServer,
    TimeBoundKeyUpdate,
    epoch_label,
    verify_archive,
)
from repro.core.tre import TimedReleaseScheme
from repro.crypto.rng import seeded_rng
from repro.encoding import pack_chunks, unpack_chunks
from repro.pairing.api import PairingGroup
from repro.service import wire
from repro.service.node import TimeServerNode
from repro.service.virtualtime import run_virtual

GOLDEN_PATH = Path(__file__).with_name("golden_transcripts.json")
LABEL = b"2031-05-01T00:00:00Z"
MESSAGE = b"cross-backend fixed plaintext" * 3


def _transcript(group: PairingGroup) -> dict[str, bytes]:
    """Run one deterministic end-to-end protocol slice, return its wires.

    Covers every scheme's ciphertext (TRE, ID-TRE, hybrid, FO, REACT,
    broadcast), BLS-signed updates, an archive snapshot with one
    corrupted entry plus the labels :func:`verify_archive` flags, and
    the ``service.wire`` request/response frames a node produces.  Each
    plaintext is also decrypted back, so a transcript is only recorded
    for a slice that round-trips.
    """
    rng = seeded_rng(f"cross-backend:{group.params.name}")
    server = PassiveTimeServer(group, rng=rng)
    scheme = TimedReleaseScheme(group)
    user = UserKeyPair.generate(group, server.public_key, rng)
    update = server.publish_update(LABEL)
    ciphertext = scheme.encrypt(
        MESSAGE, user.public, server.public_key, LABEL, rng,
        verify_receiver_key=False,
    )
    plaintext = scheme.decrypt(ciphertext, user, update)
    assert plaintext == MESSAGE

    bls = BLSSignatureScheme(group)
    keypair = ServerKeyPair.generate(group, rng)
    signature = bls.sign(keypair, b"cross-backend message")
    assert bls.verify(keypair.public, b"cross-backend message", signature)

    a, b = group.random_scalar(rng), group.random_scalar(rng)
    p_point = group.mul(group.generator, a)
    q_point = group.mul(group.generator, b)
    pairing = group.pair(p_point, q_point)
    multi = group.multi_pair(
        [(p_point, q_point), (group.generator, q_point)], [1, -1]
    )
    wires = {
        "server_public": server.public_key.to_bytes(group),
        "update": update.to_bytes(group),
        "user_public": user.public.to_bytes(group),
        "ciphertext": ciphertext.to_bytes(group),
        "signature": group.point_to_bytes(signature),
        "pairing": pairing.to_bytes(),
        "multi_pair": multi.to_bytes(),
    }
    wires.update(_scheme_wires(group, rng, server, user, update))
    wires.update(_archive_wires(group, rng))
    wires.update(_service_wires(group, keypair))
    return wires


def _scheme_wires(group, rng, server, user, update) -> dict[str, bytes]:
    """ID-TRE, hybrid, FO, REACT and broadcast ciphertexts at ``LABEL``."""
    server_public = server.public_key
    id_server = ServerKeyPair.generate(group, rng)
    id_update = PassiveTimeServer(group, keypair=id_server).publish_update(
        LABEL
    )
    idtre = IdentityTimedReleaseScheme(group)
    identity = b"alice@example.org"
    id_key = idtre.extract_user_key(id_server, identity)
    id_ct = idtre.encrypt(MESSAGE, identity, id_server.public, LABEL, rng)
    assert idtre.decrypt(id_ct, id_key, id_update, id_server.public) == MESSAGE

    document = bytes(range(256)) * 3
    hybrid = HybridTimedReleaseScheme(group)
    hybrid_ct = hybrid.encrypt(
        document, user.public, server_public, LABEL, rng
    )
    assert hybrid.decrypt(hybrid_ct, user, update, server_public) == document

    fo = FOTimedReleaseScheme(group)
    fo_ct = fo.encrypt(MESSAGE, user.public, server_public, LABEL, rng)
    assert fo.decrypt(fo_ct, user, update, server_public) == MESSAGE

    react = ReactTimedReleaseScheme(group)
    react_ct = react.encrypt(MESSAGE, user.public, server_public, LABEL, rng)
    assert react.decrypt(react_ct, user, update, server_public) == MESSAGE

    receivers = [user] + [
        UserKeyPair.generate(group, server_public, rng) for _ in range(2)
    ]
    broadcast = BroadcastTimedReleaseScheme(group)
    broadcast_ct = broadcast.encrypt_broadcast(
        MESSAGE, [r.public for r in receivers], server_public, LABEL, rng
    )
    for index, receiver in enumerate(receivers):
        assert broadcast.decrypt_broadcast(
            broadcast_ct, index, receiver, update, server_public
        ) == MESSAGE
    return {
        "idtre_user_key": group.point_to_bytes(id_key.point),
        "idtre_ciphertext": id_ct.to_bytes(group),
        "hybrid_ciphertext": hybrid_ct.to_bytes(group),
        "fo_ciphertext": fo_ct.to_bytes(group),
        "react_ciphertext": react_ct.to_bytes(group),
        "broadcast_ciphertext": broadcast_ct.to_bytes(group),
    }


def _archive_wires(group, rng) -> dict[str, bytes]:
    """A six-epoch archive snapshot with entry 3 swapped for entry 4's
    point, and the labels ``verify_archive`` rejects from it."""
    archive_server = PassiveTimeServer(group, rng=rng)
    for epoch in range(6):
        archive_server.publish_update(epoch_label(epoch))
    blobs = list(unpack_chunks(archive_server.snapshot_archive()))
    updates = [TimeBoundKeyUpdate.from_bytes(group, blob) for blob in blobs]
    blobs[3] = TimeBoundKeyUpdate(
        time_label=updates[3].time_label, point=updates[4].point
    ).to_bytes(group)
    corrupted = pack_chunks(*blobs)
    failed = verify_archive(
        group,
        archive_server.public_key,
        [TimeBoundKeyUpdate.from_bytes(group, blob)
         for blob in unpack_chunks(corrupted)],
    )
    assert failed == [epoch_label(3)]
    return {
        "archive_updates": pack_chunks(
            *(u.to_bytes(group) for u in updates)
        ),
        "archive_corrupted_snapshot": corrupted,
        "archive_failed_labels": pack_chunks(*failed),
    }


def _service_wires(group, keypair) -> dict[str, bytes]:
    """Request frames and a node's response frames, one per message kind."""

    async def exchange():
        node = TimeServerNode(group, keypair, epoch_interval=1.0)
        await node.start()
        requests = [
            wire.encode_message(wire.GetUpdate(node.label_for(0))),
            wire.encode_message(wire.GetUpdate(node.label_for(9))),
            wire.encode_message(wire.GetArchive(b"")),
            wire.encode_message(wire.Health()),
            b"\x00not a frame",
        ]
        responses = [await node.handle_request(frame) for frame in requests]
        node.stop()
        return requests, responses

    requests, responses = run_virtual(exchange())
    for frame in requests[:4] + responses:
        assert wire.encode_message(wire.decode_message(frame)) == frame
    announce = wire.encode_message(wire.Announce(
        wire.decode_message(responses[0]).update_bytes
    ))
    return {
        "wire_requests": pack_chunks(*requests),
        "wire_responses": pack_chunks(*responses),
        "wire_announce": announce,
    }


def _golden() -> dict[str, dict[str, str]]:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("params", ["toy64", "ss512"])
def test_transcript_matches_golden(params):
    """Known-answer check: the committed hex pins every wire byte, so a
    bug shared by every code path still shows up here."""
    golden = _golden()[params]
    wires = _transcript(PairingGroup(params))
    assert sorted(wires) == sorted(golden)
    for wire_name, blob in wires.items():
        assert blob.hex() == golden[wire_name], (
            f"{params} {wire_name!r} diverged from the golden transcript"
        )


def test_verify_archive_agrees_across_backends():
    """The backlog verifier flags exactly the corrupted label, and the
    same labels the golden transcript pins for toy64.

    The name dates from when several field backends were compared; with
    one arithmetic path the comparison is against the committed labels.
    """
    group = PairingGroup("toy64")
    rng = seeded_rng("cross-backend:archive")
    server = PassiveTimeServer(group, rng=rng)
    updates = [server.publish_update(epoch_label(e)) for e in range(6)]
    assert verify_archive(group, server.public_key, updates) == []
    # Corrupt one update: swap in the point from a different label.
    updates[3] = TimeBoundKeyUpdate(
        time_label=updates[3].time_label, point=updates[4].point
    )
    failed = verify_archive(group, server.public_key, updates)
    assert failed == [epoch_label(3)]
    golden_failed = bytes.fromhex(_golden()["toy64"]["archive_failed_labels"])
    assert failed == list(unpack_chunks(golden_failed))


def _write_golden() -> None:
    """Regenerate ``golden_transcripts.json`` from the current code.

    Only for deliberate wire-format changes: the file is the oracle that
    arithmetic refactors are proven against.  Run from the repo root::

        PYTHONPATH=src python tests/core/test_cross_backend.py --write
    """
    golden = {
        params: {
            name: blob.hex()
            for name, blob in _transcript(PairingGroup(params)).items()
        }
        for params in ("toy64", "ss512")
    }
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    _write_golden()
