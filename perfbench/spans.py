"""Outside-in span recorder for the traced benchmark run.

The recorder wraps public entry points of the library at the attribute
where callers look them up (a class attribute for methods, a module
attribute for functions that callers import by name), so nothing under
``src/`` changes.  Spans live in memory as flat records with a parent
link and the index of the workload step (a flow, a round of messages or
a reconnect) that caused them; :meth:`SpanRecorder.write` dumps them as
JSON lines when the run ends.

Work done inside :mod:`repro.parallel` worker processes is not traced:
the parent sees one ``parallel.map`` span covering dispatch plus wait.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

# (module, owner attribute or None for a module-level function,
#  attribute, span name).  One span name may cover several entry points
# that play the same role (the TRE and hybrid-TRE encrypt, or the two
# module-level names callers import ``verify_archive`` under).
ENTRY_POINTS = (
    ("repro.math.quadratic", "GTFixedBaseTable", "exp", "math.gt_table_exp"),
    ("repro.pairing.api", "PairingGroup", "precompute_gt", "math.gt_table_build"),
    ("repro.ec.curve", "EllipticCurve", "scalar_mult", "ec.scalar_mult"),
    ("repro.ec.precompute", "FixedBaseTable", "mult", "ec.fixed_base_mult"),
    ("repro.pairing.api", "PairingGroup", "precompute", "ec.table_build"),
    ("repro.pairing.api", "PairingGroup", "hash_to_g1", "pairing.hash_to_g1"),
    ("repro.pairing.api", "PairingGroup", "gt_exp", "pairing.gt_exp"),
    ("repro.pairing.api", "PairingGroup", "mask_bytes", "pairing.mask_bytes"),
    ("repro.pairing.tate", "TatePairing", "pair", "pairing.tate_pair"),
    ("repro.pairing.tate", "TatePairing", "multi_pair", "pairing.tate_multi_pair"),
    ("repro.pairing.tate", "TatePairing", "pair_with_precomp", "pairing.miller_eval"),
    ("repro.pairing.tate", "TatePairing", "precompute_lines", "pairing.miller_record"),
    ("repro.pairing.tate", "TatePairing", "final_exponentiation", "pairing.final_exp"),
    ("repro.crypto.authenc", None, "aead_encrypt", "crypto.aead_encrypt"),
    ("repro.core.hybrid_tre", None, "aead_encrypt", "crypto.aead_encrypt"),
    ("repro.crypto.authenc", None, "aead_decrypt", "crypto.aead_decrypt"),
    ("repro.core.hybrid_tre", None, "aead_decrypt", "crypto.aead_decrypt"),
    ("repro.core.tre", "TimedReleaseScheme", "generate_user_keypair", "core.keygen"),
    ("repro.core.keys", "UserPublicKey", "ensure_well_formed", "core.keycheck"),
    ("repro.core.tre", "TimedReleaseScheme", "encrypt", "core.encrypt"),
    ("repro.core.hybrid_tre", "HybridTimedReleaseScheme", "encrypt", "core.encrypt"),
    ("repro.core.timeserver", "PassiveTimeServer", "publish_update", "core.publish"),
    ("repro.core.timeserver", "TimeBoundKeyUpdate", "verify", "core.verify_update"),
    ("repro.core.tre", "TimedReleaseScheme", "decrypt", "core.decrypt"),
    ("repro.core.hybrid_tre", "HybridTimedReleaseScheme", "decrypt", "core.decrypt"),
    ("repro.core.tre", "TimedReleaseScheme", "precompute_sender", "core.precompute_sender"),
    ("repro.core.tre", "TimedReleaseScheme", "decrypt_batch", "core.decrypt_batch"),
    ("repro.core.timeserver", None, "verify_archive", "core.verify_archive"),
    ("repro.service.client", None, "verify_archive", "core.verify_archive"),
    ("repro.parallel", None, "parallel_map", "parallel.map"),
    ("repro.parallel", None, "auto_workers", "parallel.auto_workers"),
    ("repro.service.node", "TimeServerNode", "handle_request", "service.handle_request"),
    ("repro.service.wire", None, "decode_message", "service.wire.decode"),
)


class SpanRecorder:
    """In-memory spans with parent links, plus a few counted quantities."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent, unit, start_ns, end_ns, nested]
        self.counts: dict[str, float] = defaultdict(float)
        self.worker_choices: list[int] = []
        self.unit = -1
        self._stack: list[int] = []
        self._open_names: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        nested = self._open_names[name] > 0
        self._open_names[name] += 1
        index = len(self.spans)
        self.spans.append([name, parent, self.unit, time.perf_counter_ns(), 0, nested])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][4] = time.perf_counter_ns()
        self._open_names[self.spans[index][0]] -= 1
        self._stack.remove(index)

    def _wrap(self, name: str, fn):
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_span(*args, **kwargs):
                index = self._open(name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._close(index)
            return async_span

        @functools.wraps(fn)
        def span(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            self._observe(name, args, kwargs, result)
            return result
        return span

    def _observe(self, name: str, args, kwargs, result) -> None:
        """Counts taken at the same boundaries as the spans."""
        if name in ("crypto.aead_encrypt", "crypto.aead_decrypt"):
            self.counts["crypto.dem_bytes"] += len(args[2])  # plaintext / sealed
        elif name == "parallel.auto_workers":
            self.worker_choices.append(result)
        elif name == "parallel.map":
            workers = kwargs.get("workers")
            payloads = args[3]
            if workers is not None and workers > 1 and len(payloads) > 1:
                self.counts["parallel.items"] += len(payloads)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for module_name, owner_name, attr, name in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``self_ms`` and ``total_ms``.

        Self time is a span's duration minus its direct children's.
        Total time skips spans nested under a span of the same name, so
        recursion is not counted twice.
        """
        child_ns = [0] * len(self.spans)
        for name, parent, _unit, start, end, _nested in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_ms": 0.0, "total_ms": 0.0}
        )
        for index, (name, _parent, _unit, start, end, nested) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_ms"] += (end - start - child_ns[index]) / 1e6
            if not nested:
                entry["total_ms"] += (end - start) / 1e6
        return dict(out)

    def root_total_ms(self, names) -> float:
        """Inclusive time of root spans (no parent) among ``names``."""
        wanted = set(names)
        return sum(
            (end - start) / 1e6
            for name, parent, _unit, start, end, _nested in self.spans
            if parent < 0 and name in wanted
        )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, parent, unit, start, end, _nested) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "parent": parent, "unit": unit, "name": name,
                    "start_ns": start, "end_ns": end,
                }) + "\n")

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.worker_choices.clear()
