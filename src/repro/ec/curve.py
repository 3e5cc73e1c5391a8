"""Short Weierstrass curves ``y^2 = x^3 + a*x + b`` over Fp or Fp2.

The curve object is generic over the coefficient field: anything with the
element protocol used by :mod:`repro.math.field` / :mod:`repro.math.quadratic`
(arithmetic operators, ``square``, ``inverse``, ``is_zero``, ``to_bytes``)
works.  Scalar multiplication runs in Jacobian projective coordinates so a
``k``-bit multiply costs one field inversion instead of ``~1.5k``; over
``Fp`` it runs on plain ints in the field kernel
(:mod:`repro.math.backend`).
"""

from __future__ import annotations

from repro.errors import DecodingError, NotOnCurveError, ParameterError
from repro.ec.point import CurvePoint
from repro.math.field import FieldElement, PrimeField


class EllipticCurve:
    """``y^2 = x^3 + a*x + b`` over an explicit field object."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field, a, b):
        self.field = field
        self.a = a
        self.b = b
        # 4a^3 + 27b^2 != 0 guarantees the curve is non-singular.
        discriminant = a * a * a * 4 + b * b * 27
        if discriminant.is_zero():
            raise ParameterError("singular curve: 4a^3 + 27b^2 == 0")

    def infinity(self) -> CurvePoint:
        return CurvePoint(self, None, None)

    def contains(self, x, y) -> bool:
        """Whether affine coordinates ``(x, y)`` satisfy the curve equation."""
        return (y.square() - (x.square() * x + self.a * x + self.b)).is_zero()

    def point(self, x, y) -> CurvePoint:
        """Construct a point, validating it lies on the curve."""
        if not self.contains(x, y):
            raise NotOnCurveError("coordinates do not satisfy curve equation")
        return CurvePoint(self, x, y)

    def unchecked_point(self, x, y) -> CurvePoint:
        """Construct a point without the on-curve check (internal use)."""
        return CurvePoint(self, x, y)

    def point_from_x(self, x, y_parity: int = 0) -> CurvePoint:
        """Lift ``x`` to a point, choosing the root with the given parity bit.

        Only supported over the base field (Fp), where ``sqrt`` exists on
        elements.  Raises :class:`NotOnCurveError` when ``x^3 + ax + b`` is
        a non-residue.
        """
        rhs = x.square() * x + self.a * x + self.b
        try:
            y = rhs.sqrt()
        except ParameterError:
            raise NotOnCurveError("x does not lift to a curve point") from None
        if y.value % 2 != y_parity % 2:
            y = -y
        return CurvePoint(self, x, y)

    def random_point(self, rng) -> CurvePoint:
        """A random affine point, by rejection sampling on ``x``."""
        while True:
            x = self.field.random(rng)
            rhs = x.square() * x + self.a * x + self.b
            if hasattr(rhs, "is_square") and rhs.is_square():
                y = rhs.sqrt()
                if rng.randrange(2):
                    y = -y
                return CurvePoint(self, x, y)

    def point_from_bytes(self, data: bytes) -> CurvePoint:
        """Decode the uncompressed encoding from ``CurvePoint.to_bytes``.

        Structural failures raise :class:`DecodingError`; coordinates
        that parse but miss the curve raise
        :class:`~repro.errors.NotOnCurveError` (both are
        ``EncodingError`` subclasses in spirit and ``ReproError`` in
        fact).  The on-curve check runs before the point escapes —
        subgroup checks are the caller's job, since a bare curve has no
        distinguished subgroup (``PairingGroup.point_from_bytes`` adds
        it).
        """
        if data == b"\x00":
            return self.infinity()
        if not data or data[0] != 0x04:
            raise DecodingError("bad point encoding prefix")
        body = data[1:]
        half = len(body) // 2
        if len(body) != 2 * half or half != self.field.element_bytes:
            raise DecodingError("bad point encoding length")
        x = self.field.from_bytes(body[:half])
        y = self.field.from_bytes(body[half:])
        return self.point(x, y)

    # ------------------------------------------------------------------
    # Scalar multiplication.
    #
    # Over Fp every ladder runs in the field kernel on plain ints
    # (repro.math.backend: one Jacobian doubling and one mixed-addition
    # formula); points cross the boundary once in and once out as
    # affine coordinates.  Extension-field curves (bn254 G2/G12) keep
    # the object-level Jacobian helpers below.
    # ------------------------------------------------------------------

    def _affine_point(self, xy) -> CurvePoint:
        """Wrap the kernel's affine int pair (``None`` is infinity)."""
        if xy is None:
            return self.infinity()
        field = self.field
        return CurvePoint(self, FieldElement(field, xy[0]), FieldElement(field, xy[1]))

    def _fp_mul(self, pairs, width: int) -> CurvePoint:
        """``Σ k·P`` over Fp through :meth:`FieldBackend.ec_mul`."""
        terms = [(k, point.x.value, point.y.value) for k, point in pairs]
        return self._affine_point(
            self.field.backend.ec_mul(self.a.value, terms, width)
        )

    @staticmethod
    def _wnaf_width(bits: int) -> int:
        """wNAF width minimizing setup plus ``bits/(w+1)`` additions.

        A table of odd multiples costs two batch inversions plus
        ``2^(w-2) - 1`` additions, so plain NAF wins below ~100 bits;
        at ss512, width 4 and 5 tie for 160-bit group scalars and width
        5 is best for the 352-bit cofactor.
        """
        if bits <= 96:
            return 2
        if bits <= 256:
            return 4
        return 5

    def scalar_mult(self, point: CurvePoint, scalar: int) -> CurvePoint:
        """``scalar * point``.

        Over Fp this is the one-term case of :meth:`multi_scalar_mult`'s
        wNAF ladder, with the width sized by ``scalar.bit_length()`` so
        tiny scalars (cofactor checks, small test multiples) skip the
        odd-multiple table.  Extension-field curves run a fixed-window
        ladder on the object-level Jacobian helpers.
        """
        if scalar == 0 or point.is_infinity:
            return self.infinity()
        if scalar == 1:
            return point
        if isinstance(self.field, PrimeField):
            return self._fp_mul(
                [(scalar, point)], self._wnaf_width(abs(scalar).bit_length())
            )
        if scalar < 0:
            point, scalar = -point, -scalar
        base = self._to_jacobian(point)
        width = 4 if scalar.bit_length() > 100 else 2
        size = 1 << width
        window = [None, base]
        for _ in range(size - 2):
            window.append(self._jacobian_add(window[-1], base))
        result = (self.field.one(), self.field.one(), self.field.zero())
        mask = size - 1
        for window_index in range((scalar.bit_length() + width - 1) // width - 1, -1, -1):
            for _ in range(width):
                result = self._jacobian_double(result)
            digit = (scalar >> (width * window_index)) & mask
            if digit:
                result = self._jacobian_add(result, window[digit])
        return self._from_jacobian(result)

    def multi_scalar_mult(self, pairs, width: int = 4) -> CurvePoint:
        """``sum(k_i * P_i)`` via interleaved wNAF with shared doublings.

        ``pairs`` is an iterable of ``(scalar, point)`` tuples.  Each
        point gets a table of odd multiples ``P, 3P, ..., (2^(w-1)-1)P``
        (batch-normalized to affine across all points) and each scalar a
        width-``w`` NAF expansion, so the single
        doubling chain absorbs roughly ``bits/(w+1)`` mixed additions
        per term instead of ``bits/2`` plain additions.  Used by
        verification equations that combine several terms.  On an
        extension-field curve the terms are multiplied one by one.
        """
        pairs = [(k, p) for k, p in pairs if k != 0 and not p.is_infinity]
        if not pairs:
            return self.infinity()
        if not isinstance(self.field, PrimeField):
            total = self.infinity()
            for k, p in pairs:
                total = total + self.scalar_mult(p, k)
            return total
        if max(abs(k).bit_length() for k, _ in pairs) <= 16:
            width = 2
        return self._fp_mul(pairs, width)

    # Object-level Jacobian helpers for extension-field curves.  A triple
    # (X, Y, Z) represents the affine point (X / Z^2, Y / Z^3); infinity
    # is Z == 0.

    def _jacobian_double(self, jp):
        x1, y1, z1 = jp
        if z1.is_zero() or y1.is_zero():
            return (self.field.one(), self.field.one(), self.field.zero())
        ysq = y1.square()
        s = (x1 * ysq) * 4
        m = x1.square() * 3 + self.a * z1.square().square()
        x3 = m.square() - s - s
        y3 = m * (s - x3) - ysq.square() * 8
        z3 = (y1 * z1) * 2
        return (x3, y3, z3)

    def _jacobian_add(self, jp, jq):
        x1, y1, z1 = jp
        x2, y2, z2 = jq
        if z1.is_zero():
            return jq
        if z2.is_zero():
            return jp
        z1sq = z1.square()
        z2sq = z2.square()
        u1 = x1 * z2sq
        u2 = x2 * z1sq
        s1 = y1 * z2sq * z2
        s2 = y2 * z1sq * z1
        if u1 == u2:
            if s1 == s2:
                return self._jacobian_double(jp)
            return (self.field.one(), self.field.one(), self.field.zero())
        h = u2 - u1
        r = s2 - s1
        hsq = h.square()
        hcu = hsq * h
        v = u1 * hsq
        x3 = r.square() - hcu - v - v
        y3 = r * (v - x3) - s1 * hcu
        z3 = z1 * z2 * h
        return (x3, y3, z3)

    def _to_jacobian(self, point: CurvePoint):
        return (point.x, point.y, self.field.one())

    def _from_jacobian(self, jp) -> CurvePoint:
        x, y, z = jp
        if z.is_zero():
            return self.infinity()
        zinv = z.inverse()
        zinv_sq = zinv.square()
        return CurvePoint(self, x * zinv_sq, y * zinv_sq * zinv)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, EllipticCurve)
            and other.field == self.field
            and other.a == self.a
            and other.b == self.b
        )

    def __hash__(self) -> int:
        return hash(("EllipticCurve", self.field, self.a, self.b))

    def __repr__(self) -> str:
        return f"EllipticCurve(a={self.a!r}, b={self.b!r} over {self.field!r})"
