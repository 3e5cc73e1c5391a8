"""The three user-shaped workloads, driven through the public API.

Each workload is a closed loop with one caller in one process.  Its
inputs (keys, labels, payloads, payload sizes, fault schedule) come from
the seed alone, and every set-up builds fresh groups and scheme objects,
so caches start empty and no set-up warms another.

A workload object offers:

* ``setup()`` — build the state the measured loop needs and return the
  seconds spent on it (``setup_s``); sender work that is timed on its
  own inside set-up goes to ``setup_samples``;
* ``run_step(index)`` — one closed-loop step (a flow, a round of
  messages, a reconnect), appending samples and correctness results;
  per-layer figures are normalised by ``unit_name``, of which one step
  holds ``units_per_step``;
* ``final_checks()`` — checks too slow to run inside every step;
* ``groups()`` — every :class:`PairingGroup` whose counters a step
  bumps, for per-unit operation counts;
* ``close()`` — stop anything the set-up started.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
import time

from repro.core.hybrid_tre import HybridTimedReleaseScheme
from repro.core.keys import ServerKeyPair
from repro.core.timeserver import PassiveTimeServer
from repro.core.tre import TimedReleaseScheme
from repro.encoding import unpack_chunks
from repro.pairing.api import PairingGroup
from repro.service import (
    FaultPlan,
    FaultyTransport,
    LocalNodeTransport,
    ResilientTimeClient,
    TimeServerNode,
)
from repro.service.virtualtime import VirtualTimeLoop

MESSAGE_BYTES = 32
# Wire bytes of this many leading steps go into the digest: inputs come
# from one seeded stream, so the prefix is the same however many steps
# a run completes.
DIGEST_STEPS = 4


def _ms(seconds: float) -> float:
    return seconds * 1000.0


class Workload:
    """Shared bookkeeping: samples, correctness tally, wire digest."""

    name = ""
    unit_name = ""
    units_per_step = 1
    # User operations one step attempts (counted as failed if it raises).
    ops_per_step = 1

    def __init__(self, params: str, seed: int):
        self.params = params
        self.seed = seed
        self.flow_ms: list[float] = []
        self.encrypt_rates: list[float] = []
        self.decrypt_rates: list[float] = []
        self.setup_samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []
        # Client statistics (attempts, retries, ...) summed over steps.
        self.service_stats: dict[str, int] = {}
        self._digest = hashlib.sha256()

    def record(self, ok: bool, what: str) -> None:
        """Count one attempted user operation and whether it succeeded."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.check_failures.append(what)

    def check(self, ok: bool, what: str) -> None:
        """A correctness check that is not itself a user operation."""
        if not ok:
            self.check_failures.append(what)

    def digest_wire(self, step: int, *blobs: bytes) -> None:
        if step < DIGEST_STEPS:
            for blob in blobs:
                self._digest.update(len(blob).to_bytes(4, "big"))
                self._digest.update(blob)

    @property
    def wire_digest(self) -> str:
        return self._digest.hexdigest()

    def final_checks(self) -> None:
        pass

    def close(self) -> None:
        pass


class ColdFlow(Workload):
    """§5.1 back to back: fresh receiver, fresh label, no precompute.

    Stages: keygen → receiver-key check → encrypt (32 B) →
    ``publish_update`` → ``TimeBoundKeyUpdate.verify`` → ``decrypt``.
    Every fast path is bypassed, so the cost is variable-base scalar
    multiplication, hash-to-G1 and full Miller loops.
    """

    name = "cold_flow"
    unit_name = "flow"
    STAGES = ("keygen", "keycheck", "encrypt", "publish", "verify_update", "decrypt")

    def setup(self) -> float:
        start = time.perf_counter()
        self.rng = random.Random(self.seed)
        self.group = PairingGroup(self.params)
        self.server = PassiveTimeServer(self.group, rng=self.rng)
        self.scheme = TimedReleaseScheme(self.group)
        self.stage_ms: dict[str, list[float]] = {stage: [] for stage in self.STAGES}
        return time.perf_counter() - start

    def groups(self) -> list[PairingGroup]:
        return [self.group]

    def run_step(self, index: int) -> None:
        rng, group, server, scheme = self.rng, self.group, self.server, self.scheme
        server_public = server.public_key
        label = b"cold:%012d" % index
        message = rng.randbytes(MESSAGE_BYTES)
        t0 = time.perf_counter()
        receiver = scheme.generate_user_keypair(server_public, rng)
        t1 = time.perf_counter()
        receiver.public.ensure_well_formed(group, server_public)
        t2 = time.perf_counter()
        ciphertext = scheme.encrypt(
            message, receiver.public, server_public, label, rng,
            verify_receiver_key=False,
        )
        t3 = time.perf_counter()
        update = server.publish_update(label)
        t4 = time.perf_counter()
        authentic = update.verify(group, server_public)
        t5 = time.perf_counter()
        plaintext = scheme.decrypt(ciphertext, receiver, update)
        t6 = time.perf_counter()
        stamps = (t0, t1, t2, t3, t4, t5, t6)
        for stage, start, end in zip(self.STAGES, stamps, stamps[1:]):
            self.stage_ms[stage].append(_ms(end - start))
        self.flow_ms.append(_ms(t6 - t0))
        self.encrypt_rates.append(1.0 / (t3 - t2))
        self.decrypt_rates.append(1.0 / (t6 - t4))
        self.check(authentic, f"flow {index}: update failed verification")
        self.record(plaintext == message, f"flow {index}: plaintext differs")
        self.digest_wire(index, ciphertext.to_bytes(group), update.to_bytes(group))


class PopularEpoch(Workload):
    """A few receivers, many 32 B messages, one popular release time.

    Senders are warmed by ``precompute_sender(..., time_labels=[T])`` in
    set-up; a step is one round: every receiver gets ``MESSAGES`` warm
    encryptions, then each receiver opens its batch at release with
    ``decrypt_batch(..., server_public=..., workers="auto")``.  The
    receivers' group is separate from the senders' and its caches are
    cleared before each release, so each release pays the one update
    verification and line recording a real receiver pays once.
    """

    name = "popular_epoch"
    unit_name = "message"
    RECEIVERS = 4
    MESSAGES = 32
    units_per_step = RECEIVERS * MESSAGES
    ops_per_step = 2 * units_per_step  # every encrypt and every plaintext

    def setup(self) -> float:
        start = time.perf_counter()
        self.rng = random.Random(self.seed)
        self.label = b"popular:%d" % self.seed
        self.sender_group = PairingGroup(self.params)
        self.receiver_group = PairingGroup(self.params)
        self.server = PassiveTimeServer(self.sender_group, rng=self.rng)
        server_public = self.server.public_key
        self.receiver_scheme = TimedReleaseScheme(self.receiver_group)
        self.receivers = [
            self.receiver_scheme.generate_user_keypair(server_public, self.rng)
            for _ in range(self.RECEIVERS)
        ]
        self.sender_scheme = TimedReleaseScheme(self.sender_group)
        for receiver in self.receivers:
            receiver.public.ensure_well_formed(self.sender_group, server_public)
            self.sender_scheme.precompute_sender(
                receiver.public, server_public, time_labels=[self.label]
            )
        self.update = self.server.publish_update(self.label)
        return time.perf_counter() - start

    def groups(self) -> list[PairingGroup]:
        return [self.sender_group, self.receiver_group]

    def run_step(self, index: int) -> None:
        rng, label = self.rng, self.label
        server_public = self.server.public_key
        messages = [
            [rng.randbytes(MESSAGE_BYTES) for _ in range(self.MESSAGES)]
            for _ in self.receivers
        ]
        batches = []
        for receiver, plain in zip(self.receivers, messages):
            batch = []
            for message in plain:
                start = time.perf_counter()
                batch.append(self.sender_scheme.encrypt(
                    message, receiver.public, server_public, label, rng,
                    verify_receiver_key=False,
                ))
                self.encrypt_rates.append(1.0 / (time.perf_counter() - start))
            batches.append(batch)
        for receiver, plain, batch in zip(self.receivers, messages, batches):
            self.receiver_group.clear_precomputations()
            start = time.perf_counter()
            opened = self.receiver_scheme.decrypt_batch(
                batch, receiver, self.update,
                server_public=server_public, workers="auto",
            )
            elapsed = time.perf_counter() - start
            self.flow_ms.append(_ms(elapsed))
            self.decrypt_rates.append(len(batch) / elapsed)
            for position, message in enumerate(plain):
                self.record(True, "encrypt")
                self.record(
                    position < len(opened) and opened[position] == message,
                    f"round {index}: plaintext {position} differs",
                )
        self.digest_wire(
            index,
            self.update.to_bytes(self.receiver_group),
            *(ct.to_bytes(self.sender_group) for batch in batches for ct in batch),
        )

    def final_checks(self) -> None:
        """A warm ciphertext equals the cold one under a replayed seed."""
        replay = self.seed ^ 0x5EED
        receiver = self.receivers[0]
        server_public = self.server.public_key
        message = random.Random(replay).randbytes(MESSAGE_BYTES)
        warm = self.sender_scheme.encrypt(
            message, receiver.public, server_public, self.label,
            random.Random(replay), verify_receiver_key=False,
        )
        cold_group = PairingGroup(self.params)
        cold = TimedReleaseScheme(cold_group).encrypt(
            message, receiver.public, server_public, self.label,
            random.Random(replay), verify_receiver_key=False,
        )
        self.check(
            warm.to_bytes(self.sender_group) == cold.to_bytes(cold_group),
            "warm ciphertext differs from the cold one for the same seed",
        )


class CatchUp(Workload):
    """A client reconnects after missing a backlog and opens parked mail.

    A :class:`TimeServerNode` has published ``BACKLOG`` epochs; the
    client holds ``DOCUMENTS`` hybrid documents (1–64 KiB, distinct
    labels spread over the backlog).  A step is one reconnect, and each
    document gives one latency sample, reconnect to its plaintext: a fresh
    :class:`ResilientTimeClient` over a seeded drop/corrupt
    :class:`FaultPlan` sends one ``catch_up()`` (``verify_workers="auto"``),
    parks every document and ``drain()``s them, all under a
    :class:`VirtualTimeLoop` so timers cost no wall time.  Every
    reconnect replays the same fault schedule and starts from cleared
    client caches, so each does the same work.
    """

    name = "catch_up"
    unit_name = "document"
    BACKLOG = 16
    DOCUMENTS = 8
    units_per_step = DOCUMENTS
    ops_per_step = DOCUMENTS
    MIN_DOC_BYTES = 1024
    MAX_DOC_BYTES = 64 * 1024
    EPOCH_SECONDS = 3600.0
    DROP_RATE = 0.1
    CORRUPT_RATE = 0.25

    def setup(self) -> float:
        rng = random.Random(self.seed)
        start = time.perf_counter()
        self.server_group = PairingGroup(self.params)
        self.client_group = PairingGroup(self.params)
        self.keypair = ServerKeyPair.generate(self.server_group, rng)
        self.receiver = TimedReleaseScheme(self.client_group).generate_user_keypair(
            self.keypair.public, rng
        )
        # The node believes it is half-way through epoch BACKLOG-1, so
        # start() publishes the whole backlog and the next epoch is half
        # an epoch (1800 virtual seconds) away from every reconnect.
        self.loop = VirtualTimeLoop()
        self.node = TimeServerNode(
            self.server_group, self.keypair, epoch_interval=self.EPOCH_SECONDS,
            clock_skew=(self.BACKLOG - 0.5) * self.EPOCH_SECONDS,
        )
        self.loop.run_until_complete(self.node.start())
        setup_s = time.perf_counter() - start
        # The senders' side: cold hybrid encryptions, each timed on its own.
        sender = HybridTimedReleaseScheme(self.server_group)
        epochs = rng.sample(range(self.BACKLOG), self.DOCUMENTS)
        self.messages = [
            rng.randbytes(rng.randint(self.MIN_DOC_BYTES, self.MAX_DOC_BYTES))
            for _ in epochs
        ]
        self.receiver.public.ensure_well_formed(self.server_group, self.keypair.public)
        self.documents = []
        rates = self.setup_samples.setdefault("encrypt_per_s", [])
        for epoch, message in zip(epochs, self.messages):
            start = time.perf_counter()
            self.documents.append(sender.encrypt(
                message, self.receiver.public, self.keypair.public,
                self.node.label_for(epoch), rng, verify_receiver_key=False,
            ))
            rates.append(1.0 / (time.perf_counter() - start))
        # The node's archive as published, label -> update bytes.
        self.honest = {
            unpack_chunks(blob)[0]: blob
            for blob in unpack_chunks(self.node.snapshot())
        }
        self.client_scheme = HybridTimedReleaseScheme(self.client_group)
        self.first_cache: list = []
        self.digest_wire(
            0, *(doc.to_bytes(self.server_group) for doc in self.documents),
            *self.honest.values(),
        )
        return setup_s

    def groups(self) -> list[PairingGroup]:
        return [self.client_group]

    def run_step(self, index: int) -> None:
        self.client_group.clear_precomputations()
        transport = FaultyTransport(
            LocalNodeTransport(self.node),
            FaultPlan.from_seed(
                self.seed, drop=self.DROP_RATE, corrupt=self.CORRUPT_RATE
            ),
        )
        client = ResilientTimeClient(
            self.client_group, self.keypair.public, [transport],
            random.Random(self.seed), request_timeout=1.0,
            verify_workers="auto", name=f"reconnect-{index}",
        )

        opened_at: list[float] = []
        scheme = _Stamped(self.client_scheme, opened_at)

        async def reconnect():
            start = time.perf_counter()
            await client.catch_up()
            for document in self.documents:
                client.park(scheme, document, self.receiver)
            return await client.drain(), start

        try:
            opened, start = self.loop.run_until_complete(reconnect())
        finally:
            self.loop.run_until_complete(client.close())
        self.flow_ms.extend(_ms(stamp - start) for stamp in opened_at)
        self.decrypt_rates.append(len(self.documents) / (opened_at[-1] - start))
        for position, message in enumerate(self.messages):
            self.record(
                position < len(opened) and opened[position] == message,
                f"reconnect {index}: document {position} differs",
            )
        stats = client.stats()
        for key in ("attempts", "retries", "rejected", "failovers"):
            self.service_stats[key] = self.service_stats.get(key, 0) + stats[key]
        self.check(
            transport.corrupted <= stats["rejected"] + stats["retries"],
            f"reconnect {index}: a corrupted response was neither rejected "
            "nor retried",
        )
        cached = {
            label: update.to_bytes(self.client_group)
            for label, update in client.updates.items()
        }
        self.check(
            all(self.honest.get(label) == blob for label, blob in cached.items()),
            f"reconnect {index}: the client cached an update the node never sent",
        )
        if index == 0:
            self.first_cache = list(client.updates.values())

    def final_checks(self) -> None:
        """Every update the first client cached passes ``verify``."""
        for update in self.first_cache:
            self.check(
                update.verify(self.client_group, self.keypair.public),
                f"cached update {update.time_label!r} fails verification",
            )

    def close(self) -> None:
        self.node.stop()
        self.loop.run_until_complete(asyncio.sleep(0))
        self.loop.close()


class _Stamped:
    """A scheme whose ``decrypt`` notes when each plaintext is out, so
    every parked document gives one time-to-open sample."""

    def __init__(self, scheme, stamps: list[float]):
        self.scheme = scheme
        self.stamps = stamps

    def decrypt(self, *args, **kwargs) -> bytes:
        plaintext = self.scheme.decrypt(*args, **kwargs)
        self.stamps.append(time.perf_counter())
        return plaintext


WORKLOADS = {cls.name: cls for cls in (ColdFlow, PopularEpoch, CatchUp)}
