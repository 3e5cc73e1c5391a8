"""The public pairing-group facade used by every scheme in the library.

A :class:`PairingGroup` bundles a supersingular curve family, its Tate
pairing engine, the hash maps, serialization, and an operation counter
behind one object with the exact algebraic interface of the paper's §4:

* ``G1`` — the additive order-``q`` subgroup of ``E(Fp)`` (curve points);
* ``G2`` (called GT here to avoid clashing with Type-3 terminology) —
  the multiplicative order-``q`` subgroup of ``Fp2*``, wrapped in
  :class:`GTElement`;
* ``ê = group.pair`` — bilinear, non-degenerate, efficiently computable.

Example::

    group = PairingGroup("toy64")
    s = group.random_scalar(rng)
    left = group.pair(group.mul(group.generator, s), group.generator)
    right = group.pair(group.generator, group.generator) ** s
    assert left == right
"""

from __future__ import annotations

import os
import random
import weakref

from repro.ec.point import CurvePoint
from repro.ec.precompute import FixedBaseTable
from repro.errors import GroupMismatchError, NotInSubgroupError, ParameterError
from repro.math.quadratic import GTFixedBaseTable, QuadraticElement, unitary_exp
from repro.pairing import hashing
from repro.pairing.opcount import (
    FINAL_EXP,
    FIXED_BASE_MULT,
    GT_EXP,
    GT_FIXED_BASE,
    GT_MUL,
    HASH_TO_GROUP,
    MILLER_LOOP,
    MULTI_PAIRING,
    PAIRING,
    PAIRING_PRECOMP,
    POINT_ADD,
    SCALAR_MULT,
    OperationCounter,
)
from repro.pairing.miller import PrecomputedLines
from repro.pairing.params import ParameterSet, get_parameter_set
from repro.pairing.supersingular import FAMILY_A, SupersingularCurve
from repro.pairing.tate import TatePairing


class GTElement:
    """An element of the order-``q`` target group, always unitary."""

    __slots__ = ("group", "value")

    def __init__(self, group: "PairingGroup", value: QuadraticElement):
        self.group = group
        self.value = value

    def _check(self, other: "GTElement") -> None:
        if not isinstance(other, GTElement) or other.group is not self.group:
            raise GroupMismatchError("GT elements from different groups")

    def __mul__(self, other: "GTElement") -> "GTElement":
        self._check(other)
        self.group.counters.record(GT_MUL)
        return GTElement(self.group, self.value * other.value)

    def __truediv__(self, other: "GTElement") -> "GTElement":
        self._check(other)
        self.group.counters.record(GT_MUL)
        return GTElement(self.group, self.value * other.value.conjugate())

    def __pow__(self, exponent: int) -> "GTElement":
        # Routed through the group so a GTFixedBaseTable cached by
        # precompute_gt is picked up transparently (same element either
        # way; the table only changes the wall-clock cost).
        return self.group.gt_exp(self, exponent)

    def inverse(self) -> "GTElement":
        # Unitary: the conjugate is the inverse.
        return GTElement(self.group, self.value.conjugate())

    def is_identity(self) -> bool:
        return self.value.is_one()

    def to_bytes(self) -> bytes:
        return self.value.to_bytes()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GTElement)
            and other.group is self.group
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash(("GT", self.value))

    def __repr__(self) -> str:
        return f"GTElement({self.value!r})"


class PairingPrecomputation:
    """Cached Miller-line coefficients for one fixed pairing argument.

    Built by :meth:`PairingGroup.precompute_pairing`.  On family A the
    line coefficients of ``f_{q,P}`` are recorded once; :meth:`pair`
    then evaluates them against any second argument, skipping all curve
    arithmetic in the Miller loop.  On family B (no denominator-free
    loop) the object transparently falls back to the direct pairing, so
    callers can precompute unconditionally.

    The group is held weakly: the group caches this object, and a
    strong back-reference would make every group with cached lines a
    reference cycle, kept alive with all its tables until the cyclic
    collector happens to run.
    """

    __slots__ = ("_group", "point", "lines")

    def __init__(self, group: "PairingGroup", point: CurvePoint):
        self._group = weakref.ref(group)
        self.point = point
        self.lines = None
        if group.family == FAMILY_A and not point.is_infinity:
            group.ssc.ensure_in_subgroup(point)
            self.lines = group.tate.precompute_lines(point)

    @classmethod
    def from_lines(cls, group: "PairingGroup", point: CurvePoint, lines):
        """Wrap already-recorded lines without re-recording them.

        The rehydration half of
        :meth:`PairingGroup.export_pairing_lines` — worker processes
        install tables the parent recorded once instead of each paying
        the recording cost.  The lines are trusted to belong to
        ``point`` (they came from this library's own export).
        """
        precomp = cls.__new__(cls)
        precomp._group = weakref.ref(group)
        precomp.point = point
        precomp.lines = lines
        return precomp

    @property
    def group(self) -> "PairingGroup":
        group = self._group()
        if group is None:
            raise ParameterError("the pairing group of this precomputation is gone")
        return group

    def pair(self, q_point: CurvePoint) -> "GTElement":
        """``ê(P, Q)`` — byte-identical to ``group.pair(P, Q)``."""
        group = self.group
        group.counters.record(PAIRING)
        if not q_point.is_infinity and not self.point.is_infinity:
            group.counters.record(MILLER_LOOP)
            group.counters.record(FINAL_EXP)
        return GTElement(group, self._pair_value(q_point))

    def _pair_value(self, q_point: CurvePoint) -> QuadraticElement:
        group = self.group
        if self.lines is None:
            return group.tate.pair(self.point, q_point)
        group.counters.record(PAIRING_PRECOMP)
        return group.tate.pair_with_precomp(self.lines, q_point)

    def __repr__(self) -> str:
        kind = "lines" if self.lines is not None else "fallback"
        return f"PairingPrecomputation({kind}, steps={len(self.lines or ())})"


# Every live group, so forked children can drop precomputation caches
# they inherited from the parent.  The caches are pure accelerators
# (byte-identical results with or without them), but letting a child
# keep probing — and lazily extending — a copy-on-write copy of the
# parent's tables means parent and child caches silently diverge, and
# each lazy extension forces a private page copy.  Clearing in the
# child is the fork-safe discipline (lint rules RP302/RP304); entries
# are weak so the registry never extends a group's lifetime.
_LIVE_GROUPS: "weakref.WeakSet[PairingGroup]" = weakref.WeakSet()


def _clear_caches_after_fork() -> None:
    """At-fork child hook: each group rebuilds caches on demand."""
    for group in _LIVE_GROUPS:
        group.clear_precomputations()


if hasattr(os, "register_at_fork"):  # not available on all platforms
    os.register_at_fork(after_in_child=_clear_caches_after_fork)


class PairingGroup:
    """A symmetric pairing group ``ê : G1 × G1 → GT`` with hashing.

    Parameters
    ----------
    params:
        A parameter-set name (``"toy64"``, ``"ss512"``, ...) or a
        :class:`~repro.pairing.params.ParameterSet`.
    family:
        Supersingular family, ``"A"`` (default; denominator-free Miller
        loop) or ``"B"`` (deterministic MapToPoint, general Miller loop).

    ``backend`` is the base field's
    :class:`~repro.math.backend.FieldBackend` (the plain-int pairing
    kernels) and ``backend_name`` its constant name.
    """

    def __init__(self, params="ss512", family: str = FAMILY_A):
        if isinstance(params, str):
            params = get_parameter_set(params)
        if not isinstance(params, ParameterSet):
            raise ParameterError("params must be a name or ParameterSet")
        self.params = params
        self.family = family
        self.ssc = SupersingularCurve(params, family)
        self.backend = self.ssc.fp.backend
        self.backend_name = self.backend.name
        self.tate = TatePairing(self.ssc)
        self.counters = OperationCounter()
        self.q = params.q
        self.generator = self.ssc.generator
        self.point_bytes = 1 + 2 * self.ssc.fp.element_bytes
        self.gt_bytes = 2 * self.ssc.fp.element_bytes
        self.scalar_bytes = (self.q.bit_length() + 7) // 8
        # Fixed-argument caches, populated only by explicit precompute
        # calls; mul/pair/gt_exp probe them with a dict lookup per call.
        self._fixed_base: dict[CurvePoint, FixedBaseTable] = {}
        self._pairing_precomp: dict[CurvePoint, PairingPrecomputation] = {}
        self._gt_fixed_base: dict[QuadraticElement, GTFixedBaseTable] = {}
        # lint: allow[RP302] per-process bookkeeping by design: every
        # process tracks the groups *it* constructed so the at-fork hook
        # can clear inherited caches; divergence across processes is the
        # point, and WeakSet entries die with their groups
        _LIVE_GROUPS.add(self)

    # ------------------------------------------------------------------
    # Scalars.
    # ------------------------------------------------------------------

    def random_scalar(self, rng: random.Random) -> int:
        """A uniform element of ``Z_q^*``."""
        return rng.randrange(1, self.q)

    def hash_to_scalar(self, *parts: bytes, tag: str = "repro:Zq") -> int:
        return hashing.hash_to_scalar(self.q, *parts, tag=tag)

    # ------------------------------------------------------------------
    # G1 operations (counted).
    # ------------------------------------------------------------------

    def identity(self) -> CurvePoint:
        return self.ssc.curve.infinity()

    def mul(self, point: CurvePoint, scalar: int) -> CurvePoint:
        self.counters.record(SCALAR_MULT)
        table = self._fixed_base.get(point)
        if table is not None:
            self.counters.record(FIXED_BASE_MULT)
            return table.mult(scalar % self.q)
        return point * (scalar % self.q)

    def precompute(self, point: CurvePoint, width: int = 4) -> FixedBaseTable:
        """Build (and cache) a fixed-base table for ``point``.

        Subsequent :meth:`mul` calls on the same point use the table —
        zero doublings, one mixed addition per ``width``-bit window —
        and return byte-identical results.  Amortizes after a handful of
        multiplications; see ``docs/PERFORMANCE.md`` for the memory /
        break-even numbers.  :meth:`clear_precomputations` frees tables.
        """
        table = self._fixed_base.get(point)
        if table is None or table.width != width:
            table = FixedBaseTable(point, self.q.bit_length(), width=width)
            self._fixed_base[point] = table
        return table

    def add(self, left: CurvePoint, right: CurvePoint) -> CurvePoint:
        self.counters.record(POINT_ADD)
        return left + right

    def negate(self, point: CurvePoint) -> CurvePoint:
        return -point

    def hash_to_g1(self, data: bytes, tag: str = "repro:H1") -> CurvePoint:
        """The paper's ``H1 : {0,1}* → G1`` random oracle."""
        self.counters.record(HASH_TO_GROUP)
        return hashing.hash_to_subgroup(self.ssc, data, tag)

    def random_point(self, rng: random.Random) -> CurvePoint:
        """A uniform element of the order-``q`` subgroup."""
        return self.mul(self.generator, self.random_scalar(rng))

    def in_group(self, point: CurvePoint) -> bool:
        return self.ssc.in_subgroup(point)

    def point_to_bytes(self, point: CurvePoint) -> bytes:
        encoded = point.to_bytes()
        if len(encoded) == 1:
            # Pad the infinity encoding to the fixed width so all G1
            # serializations have equal length.
            return encoded.ljust(self.point_bytes, b"\x00")
        return encoded

    def point_from_bytes(self, data: bytes) -> CurvePoint:
        if data[:1] == b"\x00":
            return self.identity()
        point = self.ssc.curve.point_from_bytes(data)
        self.ssc.ensure_in_subgroup(point)
        return point

    # ------------------------------------------------------------------
    # Compressed encoding: x plus one parity bit, ~half the bytes.
    # Useful when broadcast size matters (the time-bound key update is
    # exactly one point); decompression costs one square root.
    # ------------------------------------------------------------------

    @property
    def compressed_point_bytes(self) -> int:
        return 1 + self.ssc.fp.element_bytes

    def point_to_bytes_compressed(self, point: CurvePoint) -> bytes:
        """``prefix || x`` with the y-parity in the prefix (02/03)."""
        if point.is_infinity:
            return b"\x00".ljust(self.compressed_point_bytes, b"\x00")
        prefix = 0x02 | (point.y.value & 1)
        return bytes([prefix]) + point.x.to_bytes()

    def point_from_bytes_compressed(self, data: bytes) -> CurvePoint:
        from repro.errors import DecodingError

        if len(data) != self.compressed_point_bytes:
            raise DecodingError(
                f"expected {self.compressed_point_bytes} compressed bytes, "
                f"got {len(data)}"
            )
        if data[0] == 0x00:
            if any(data[1:]):
                raise DecodingError("bad infinity encoding")
            return self.identity()
        if data[0] not in (0x02, 0x03):
            raise DecodingError("bad compressed-point prefix")
        x = self.ssc.fp.from_bytes(data[1:])
        point = self.ssc.curve.point_from_x(x, y_parity=data[0] & 1)
        self.ssc.ensure_in_subgroup(point)
        return point

    # ------------------------------------------------------------------
    # Pairing and GT.
    # ------------------------------------------------------------------

    def pair(self, p_point: CurvePoint, q_point: CurvePoint) -> GTElement:
        """The symmetric bilinear map ``ê(P, Q)``.

        If either argument has cached Miller lines (see
        :meth:`precompute_pairing`), the pairing is evaluated from them
        — symmetry lets a cached *second* argument swap into the fixed
        slot.  Results are identical either way.
        """
        self.counters.record(PAIRING)
        if not p_point.is_infinity and not q_point.is_infinity:
            self.counters.record(MILLER_LOOP)
            self.counters.record(FINAL_EXP)
        precomp = self._pairing_precomp.get(p_point)
        if precomp is not None:
            return GTElement(self, precomp._pair_value(q_point))
        precomp = self._pairing_precomp.get(q_point)
        if precomp is not None:
            return GTElement(self, precomp._pair_value(p_point))
        return GTElement(self, self.tate.pair(p_point, q_point))

    def multi_pair(self, pairs, exponents=None) -> GTElement:
        """``Π ê(P_i, Q_i)^{e_i}`` with ONE shared final exponentiation.

        ``pairs`` is a sequence of ``(P, Q)`` point pairs and
        ``exponents`` an optional matching sequence of ``+1``/``-1``
        (default all ``+1`` — a plain pairing product).  The Miller
        loops run in lockstep into a single accumulator and the final
        exponentiation is applied once, so a product that would cost
        ``k`` pairings and ``k`` final exponentiations costs ``k``
        Miller loops and one final exponentiation; negative exponents
        cost one ``Fp2`` conjugation per line instead of a GT inversion.
        Cached Miller lines (:meth:`precompute_pairing`) are picked up
        on either argument of each pair, exactly like :meth:`pair`.

        The result is byte-identical to computing ``group.pair`` per
        pair and multiplying (inverting the ``e_i == -1`` factors).
        """
        pairs = list(pairs)
        if not pairs:
            return self.gt_identity()
        resolved = []
        live = 0
        for p_point, q_point in pairs:
            self.counters.record(PAIRING)
            if not p_point.is_infinity and not q_point.is_infinity:
                self.counters.record(MILLER_LOOP)
                live += 1
            first, second = p_point, q_point
            precomp = self._pairing_precomp.get(p_point)
            if precomp is not None and precomp.lines is not None:
                first, second = precomp.lines, q_point
                self.counters.record(PAIRING_PRECOMP)
            else:
                precomp = self._pairing_precomp.get(q_point)
                if precomp is not None and precomp.lines is not None:
                    # Symmetric pairing: a cached second argument swaps
                    # into the fixed slot.
                    first, second = precomp.lines, p_point
                    self.counters.record(PAIRING_PRECOMP)
            resolved.append((first, second))
        self.counters.record(MULTI_PAIRING)
        if live:
            self.counters.record(FINAL_EXP)
        return GTElement(self, self.tate.multi_pair(resolved, exponents))

    def pair_ratio_is_one(self, numerators, denominators=()) -> bool:
        """Verify ``Π ê(numerators) == Π ê(denominators)`` in one shot.

        The pairing-product equation behind every verification in the
        library (BLS, update self-authentication, receiver-key
        well-formedness, threshold shares, resilient node keys) checked
        with a single multi-pairing: one combined Miller loop and one
        final exponentiation instead of one of each per pairing.

        As a verifier entry point this rejects degenerate equations: if
        any input point is the point at infinity the check returns
        ``False`` (an infinity factor contributes the identity, which
        would let a forged element cancel out of the equation).  Callers
        comparing products that may legitimately contain infinity use
        :meth:`multi_pair` directly.
        """
        numerators = list(numerators)
        denominators = list(denominators)
        for p_point, q_point in (*numerators, *denominators):
            if p_point.is_infinity or q_point.is_infinity:
                return False
        exponents = [1] * len(numerators) + [-1] * len(denominators)
        return self.multi_pair([*numerators, *denominators], exponents).is_identity()

    def precompute_pairing(self, point: CurvePoint) -> PairingPrecomputation:
        """Cache Miller lines for a fixed pairing argument.

        Returns a :class:`PairingPrecomputation` whose ``pair(Q)``
        evaluates ``ê(point, Q)`` from the cached lines; :meth:`pair`
        also probes this cache on both arguments, so existing call
        sites speed up without changes.  On family B the returned
        object falls back to the direct pairing (no denominator-free
        loop to cache).  :meth:`clear_precomputations` frees the cache.
        """
        precomp = self._pairing_precomp.get(point)
        if precomp is None:
            precomp = PairingPrecomputation(self, point)
            self._pairing_precomp[point] = precomp
        return precomp

    # ------------------------------------------------------------------
    # Shipping precomputed lines between processes.  Layout:
    #   count(4) || per entry: point(point_bytes) || lines_len(4) || lines
    # ------------------------------------------------------------------

    def export_pairing_lines(self, points) -> bytes:
        """Serialize cached Miller lines for ``points`` into one blob.

        Records any missing lines first (family A only).  The blob feeds
        :meth:`install_pairing_lines` in another process — typically a
        :func:`repro.parallel.parallel_map` worker, which then never
        re-records lines the parent already paid for.
        """
        if self.family != FAMILY_A:
            raise ParameterError(
                "line export requires the denominator-free (family A) loop"
            )
        points = list(points)
        parts = [len(points).to_bytes(4, "big")]
        element_bytes = self.ssc.fp.element_bytes
        for point in points:
            precomp = self.precompute_pairing(point)
            if precomp.lines is None:
                raise ParameterError("cannot export lines for infinity")
            parts.append(self.point_to_bytes(point))
            blob = precomp.lines.to_bytes(element_bytes)
            parts.append(len(blob).to_bytes(4, "big"))
            parts.append(blob)
        return b"".join(parts)

    def install_pairing_lines(self, data: bytes) -> int:
        """Install an :meth:`export_pairing_lines` blob into this group.

        Returns the number of entries installed.  Subsequent
        :meth:`pair` / :meth:`multi_pair` calls on the covered points hit
        the cache exactly as if :meth:`precompute_pairing` had recorded
        them locally — same bytes, none of the recording cost.
        """
        from repro.errors import DecodingError, EncodingError

        if len(data) < 4:
            raise DecodingError("truncated pairing-lines blob")
        count = int.from_bytes(data[:4], "big")
        offset = 4
        element_bytes = self.ssc.fp.element_bytes
        installed = []
        for _ in range(count):
            if len(data) < offset + self.point_bytes + 4:
                raise DecodingError("truncated pairing-lines blob")
            point = self.point_from_bytes(
                data[offset:offset + self.point_bytes]
            )
            offset += self.point_bytes
            blob_len = int.from_bytes(data[offset:offset + 4], "big")
            offset += 4
            if len(data) < offset + blob_len:
                raise DecodingError("truncated pairing-lines blob")
            try:
                lines = PrecomputedLines.from_bytes(
                    data[offset:offset + blob_len], element_bytes
                )
            except EncodingError as exc:
                raise DecodingError(str(exc)) from exc
            offset += blob_len
            installed.append((point, lines))
        if offset != len(data):
            raise DecodingError("trailing bytes in pairing-lines blob")
        for point, lines in installed:
            self._pairing_precomp[point] = PairingPrecomputation.from_lines(
                self, point, lines
            )
        return len(installed)

    def clear_precomputations(self) -> None:
        """Drop all fixed-base tables, cached Miller lines, and GT tables.

        Long-running processes that precompute per-epoch updates (e.g.
        archive catch-up over thousands of labels) call this to bound
        memory; correctness is unaffected.
        """
        self._fixed_base.clear()
        self._pairing_precomp.clear()
        self._gt_fixed_base.clear()

    def gt_exp(self, gt: GTElement, exponent: int) -> GTElement:
        """``gt ** exponent`` (exponent reduced mod ``q``).

        The single entry point every GT exponentiation goes through
        (``GTElement.__pow__`` delegates here): if the base has a table
        cached by :meth:`precompute_gt` the exponentiation is
        table-driven — one ``Fp2`` multiplication per window, zero
        squarings — and the advisory ``gt_fixed_base`` counter records
        the hit.  Without a table it runs the wNAF/cyclotomic-squaring
        ladder.  The result is the same group element either way.
        """
        if not isinstance(gt, GTElement) or gt.group is not self:
            raise GroupMismatchError("gt_exp expects a GT element of this group")
        self.counters.record(GT_EXP)
        exponent %= self.q
        table = self._gt_fixed_base.get(gt.value)
        if table is not None:
            self.counters.record(GT_FIXED_BASE)
            return GTElement(self, table.exp(exponent))
        return GTElement(self, unitary_exp(gt.value, exponent))

    def precompute_gt(self, base: GTElement, width: int = 4) -> GTFixedBaseTable:
        """Build (and cache) a windowed exponentiation table for ``base``.

        The GT analog of :meth:`precompute`: subsequent ``base ** k``
        (equivalently :meth:`gt_exp`) calls on the same element read one
        stored power per ``width``-bit window of ``k`` — **zero
        squarings** — and return the identical group element.  This is
        the sender-side fast path: once ``g = ê(asG, H1(T))`` is cached
        for a fixed (receiver, T), every encryption costs one
        table-driven GT exponentiation instead of a pairing.  Memory is
        ``(2^width - 1) * ceil(q_bits/width)`` Fp2 elements;
        :meth:`clear_precomputations` frees the tables.
        """
        table = self._gt_fixed_base.get(base.value)
        if table is None or table.width != width:
            table = GTFixedBaseTable(base.value, self.q.bit_length(), width=width)
            self._gt_fixed_base[base.value] = table
        return table

    def gt_identity(self) -> GTElement:
        return GTElement(self, self.ssc.fp2.one())

    def ensure_in_gt(self, value: QuadraticElement) -> QuadraticElement:
        """Reject ``Fp2`` elements outside the order-``q`` target group.

        Membership needs two facts: the element is unitary (norm 1, so
        the conjugate is the inverse every GT operation relies on) and
        its order divides ``q``.  Accepting anything else would let a
        malicious serialization smuggle in a small-order element and
        bias the masks derived from it.
        """
        if not (value * value.conjugate()).is_one():
            raise NotInSubgroupError("GT element is not unitary")
        if not unitary_exp(value, self.q).is_one():
            raise NotInSubgroupError("GT element is outside the order-q subgroup")
        return value

    def gt_from_bytes(self, data: bytes, check: bool = True) -> GTElement:
        """Decode a GT element, validating subgroup membership.

        ``check=False`` skips the order check for bytes from a trusted
        in-process source (it costs one ``q``-bit exponentiation).
        """
        value = self.ssc.fp2.from_bytes(data)
        if check:
            self.ensure_in_gt(value)
        return GTElement(self, value)

    def mask_bytes(self, gt: GTElement, length: int, tag: str = "repro:H2") -> bytes:
        """The paper's ``H2 : G2 → {0,1}^n`` mask-derivation oracle."""
        return hashing.hash_gt_to_bytes(gt.value, length, tag)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PairingGroup)
            and other.params == self.params
            and other.family == self.family
        )

    def __hash__(self) -> int:
        return hash(("PairingGroup", self.params.name, self.family))

    def __repr__(self) -> str:
        return f"PairingGroup({self.params.name!r}, family={self.family!r})"
