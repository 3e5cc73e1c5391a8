"""Fixed-argument precomputation for scalar multiplication.

Deployments of the paper's schemes multiply the same handful of points
over and over: the server generator ``G``, its public ``sG``, and each
receiver's ``asG``.  :class:`FixedBaseTable` trades a one-time table
build (all windowed multiples of the base, batch-normalized to affine)
for multiplications that need **zero doublings** — just one mixed
addition per window — which amortizes after a few calls on the same
point.

The module also re-exports :func:`repro.math.modular.wnaf_digits`, the
signed-digit expansion used by
:meth:`repro.ec.curve.EllipticCurve.multi_scalar_mult`.

Every fast path here returns exactly the point the direct
:meth:`~repro.ec.curve.EllipticCurve.scalar_mult` would — affine
coordinates are a canonical representation, so equal points serialize
byte-identically (asserted in ``tests/ec/test_precompute.py``).
"""

from __future__ import annotations

from repro.ec.point import CurvePoint
from repro.errors import ParameterError
from repro.math.modular import wnaf_digits

__all__ = ["FixedBaseTable", "wnaf_digits"]


class FixedBaseTable:
    """Windowed multiples of one fixed point, for repeated ``k * P``.

    The table stores ``d * 2^(j*w) * P`` for every window index ``j``
    and digit ``d in 1..2^w - 1``, normalized to affine with a single
    batch inversion.  A multiplication then reads one entry per window
    and performs only mixed additions — no doublings at all.

    Parameters
    ----------
    point:
        The fixed base ``P``.
    bits:
        Capacity: scalars up to ``2^bits - 1`` take the fast path
        (callers reducing mod the group order pass ``q.bit_length()``).
        Larger or out-of-range scalars fall back to the direct ladder.
    width:
        Window width ``w``; memory is ``(2^w - 1) * ceil(bits/w)``
        affine points, additions per multiply ``~bits/w``.
    """

    __slots__ = ("point", "curve", "width", "bits", "windows", "_rows")

    def __init__(self, point: CurvePoint, bits: int, width: int = 4):
        if not 1 <= width <= 8:
            raise ParameterError("window width must be in 1..8")
        if bits < 1:
            raise ParameterError("table capacity must be at least one bit")
        self.point = point
        self.curve = point.curve
        self.width = width
        self.bits = bits
        self.windows = (bits + width - 1) // width
        self._rows: list[list] = []
        if point.is_infinity:
            return
        curve = self.curve
        size = 1 << width
        base = curve._to_jacobian(point)
        flat = []
        for _ in range(self.windows):
            entry = base
            flat.append(entry)
            for _ in range(size - 2):
                entry = curve._jacobian_add(entry, base)
                flat.append(entry)
            for _ in range(width):
                base = curve._jacobian_double(base)
        affine = curve.batch_to_affine(flat)
        self._rows = [
            affine[j * (size - 1):(j + 1) * (size - 1)]
            for j in range(self.windows)
        ]

    @property
    def table_points(self) -> int:
        """Number of stored affine points (memory ~= 2 field elements each)."""
        return sum(len(row) for row in self._rows)

    def mult(self, scalar: int) -> CurvePoint:
        """``scalar * P``, identical to ``curve.scalar_mult(P, scalar)``."""
        curve = self.curve
        if scalar == 0 or self.point.is_infinity:
            return curve.infinity()
        negate = scalar < 0
        if negate:
            scalar = -scalar
        if scalar.bit_length() > self.bits:
            result = curve.scalar_mult(self.point, scalar)
            return -result if negate else result
        mask = (1 << self.width) - 1
        acc = (curve.field.one(), curve.field.one(), curve.field.zero())
        for window_index in range(self.windows):
            digit = (scalar >> (window_index * self.width)) & mask
            if not digit:
                continue
            entry = self._rows[window_index][digit - 1]
            if entry is None:
                continue  # that multiple is infinity (tiny-order base)
            acc = curve._jacobian_add_affine(acc, entry[0], entry[1])
        result = curve._from_jacobian(acc)
        return -result if negate else result

    def __repr__(self) -> str:
        return (
            f"FixedBaseTable(bits={self.bits}, width={self.width}, "
            f"points={self.table_points})"
        )
