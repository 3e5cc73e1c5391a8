"""The field-arithmetic kernel: plain-int loops for the pairing hot path.

One :class:`FieldBackend` is bound to one modulus ``p`` and holds the
integer loops that dominate every pairing's wall clock, written on
canonical ints in ``[0, p)`` with native ``%`` reduction:

* inversion (``pow(x, -1, p)``) and batch inversion (the Montgomery
  trick: ``n`` inverses for one inversion plus ``3(n-1)`` products),
* Jacobian point arithmetic on ``E(Fp)`` — one doubling and one mixed
  (Jacobian + affine) addition formula, batch normalization to affine,
  and the interleaved wNAF scalar-multiplication ladder,
* Miller line-sequence evaluation and the shared-squaring multi-pairing
  product, and
* unitary (cyclotomic) exponentiation with wNAF recoding.

The object layer (``FieldElement``, ``QuadraticElement``,
``CurvePoint``) calls into these loops and sees only canonical ints, so
every wire format is fixed by the arithmetic alone.  The reference
implementations these loops are checked against (affine double-and-add,
the affine Miller loop and the per-step affine recorder) live in the
test suite and in ``CurvePoint`` as oracles.
"""

from __future__ import annotations

from repro.errors import ParameterError
from repro.math.modular import inverse_mod, wnaf_digits

# Line-step kinds, shared with repro.pairing.miller (which re-exports
# them as _LINE/_VERT/_ONE).
LINE = 0   # chord/tangent: (s_y - yv) - (s_x - xv) * slope
VERT = 1   # vertical:      s_x - xv
ONE = 2    # line through infinity: constant 1

# ----------------------------------------------------------------------
# Jacobian arithmetic on E(Fp): y^2 = x^3 + a*x + b.
#
# A triple (X, Y, Z) of canonical ints is the affine point
# (X / Z^2, Y / Z^3); Z == 0 is infinity, spelled INFINITY.  These two
# formulas are the only base-field point arithmetic in the library: the
# scalar-multiplication ladder, the fixed-base table and the Miller
# recorder all step through them.
# ----------------------------------------------------------------------

INFINITY = (1, 1, 0)


def jacobian_double(p: int, a: int, x: int, y: int, z: int):
    """``2·(x, y, z)``; 2-torsion points and infinity double to infinity."""
    if not z or not y:
        return INFINITY
    ysq = y * y % p
    s = 4 * x * ysq % p
    if a:
        zz = z * z % p
        m = (3 * x * x + a * zz * zz) % p
    else:
        m = 3 * x * x % p
    x3 = (m * m - 2 * s) % p
    return x3, (m * (s - x3) - 8 * ysq * ysq) % p, 2 * y * z % p


def jacobian_add_affine(p: int, a: int, x: int, y: int, z: int,
                        ax: int, ay: int):
    """``(x, y, z) + (ax, ay)``: mixed addition with an affine point.

    Equal points fall through to :func:`jacobian_double` and opposite
    points give infinity, so the step is complete on ``E(Fp)``.
    """
    if not z:
        return ax, ay, 1
    zz = z * z % p
    u2 = ax * zz % p
    s2 = ay * zz * z % p
    if x == u2:
        if y == s2:
            return jacobian_double(p, a, x, y, z)
        return INFINITY
    h = u2 - x
    r = s2 - y
    hsq = h * h % p
    hcu = hsq * h % p
    v = x * hsq % p
    x3 = (r * r - hcu - 2 * v) % p
    return x3, (r * (v - x3) - y * hcu) % p, z * h % p


class FieldBackend:
    """Plain-int arithmetic kernels for one modulus ``p``."""

    name = "python"

    def __init__(self, p: int):
        # Deliberately permissive: PrimeField(n, check_prime=False) on a
        # composite modulus is a supported construction (ops mod n, with
        # inverses defined only for coprime elements).
        if p < 2:
            raise ParameterError("field backends require a modulus >= 2")
        self.p = p

    # ------------------------------------------------------------------
    # Fp scalar operations (canonical ints in [0, p)).
    # ------------------------------------------------------------------

    def fp_mul(self, x: int, y: int) -> int:
        return x * y % self.p

    def fp_inv(self, x: int) -> int:
        """``x^-1 mod p``; :class:`ParameterError` when not invertible."""
        return inverse_mod(x, self.p)

    def fp_batch_inv(self, values) -> list[int]:
        """Invert every value with ONE field inversion (Montgomery trick).

        Raises :class:`~repro.errors.ParameterError` via :meth:`fp_inv`
        if any value is zero (the prefix product is then zero).  Returns
        canonical ints, same order as the input.
        """
        values = list(values)
        if not values:
            return []
        p = self.p
        prefix = [0] * len(values)
        acc = 1
        for index, value in enumerate(values):
            prefix[index] = acc
            acc = acc * value % p
        inv = self.fp_inv(acc)
        out = [0] * len(values)
        for index in range(len(values) - 1, -1, -1):
            out[index] = inv * prefix[index] % p
            inv = inv * values[index] % p
        return out

    # ------------------------------------------------------------------
    # E(Fp) point kernels on top of jacobian_double / jacobian_add_affine.
    # Points cross in and out as affine int pairs; None is infinity.
    # ------------------------------------------------------------------

    def ec_batch_to_affine(self, triples) -> list:
        """Normalize Jacobian triples to affine ``(x, y)`` pairs.

        One field inversion for the whole batch (:meth:`fp_batch_inv`);
        infinity entries come back as ``None``.
        """
        p = self.p
        z_invs = iter(self.fp_batch_inv([z for _, _, z in triples if z]))
        out: list = []
        for x, y, z in triples:
            if not z:
                out.append(None)
                continue
            zinv = next(z_invs)
            zinv_sq = zinv * zinv % p
            out.append((x * zinv_sq % p, y * zinv_sq * zinv % p))
        return out

    def ec_mul(self, a: int, terms, width: int):
        """``Σ k_i·P_i`` on ``E(Fp)`` by interleaved width-``w`` wNAF.

        ``terms`` is a list of ``(k, x, y)`` with affine points; negative
        scalars negate ``y``.  Each point gets the odd multiples
        ``P, 3P, ..., (2^(w-1)-1)P`` (one batch normalization for all
        ``2P`` and one for all the multiples), and one shared doubling
        chain absorbs about ``bits/(w+1)`` mixed additions per term.
        Returns the affine sum, or ``None`` for infinity.
        """
        p = self.p
        points = []
        for k, x, y in terms:
            if k < 0:
                k, y = -k, -y % p
            if k:
                points.append((k, x, y))
        if not points:
            return None
        odd_count = 1 << (width - 2)
        if odd_count > 1:
            twos = self.ec_batch_to_affine(
                [jacobian_double(p, a, x, y, 1) for _, x, y in points]
            )
            flat = []
            for (_, x, y), two in zip(points, twos):
                acc = (x, y, 1)
                flat.append(acc)
                for _ in range(odd_count - 1):
                    if two is not None:
                        acc = jacobian_add_affine(p, a, *acc, *two)
                    flat.append(acc)
            odd = self.ec_batch_to_affine(flat)
        else:
            odd = [(x, y) for _, x, y in points]
        # The additions due at each bit position, affine and signed.
        digit_lists = [wnaf_digits(k, width) for k, _, _ in points]
        adds: list[list] = [[] for _ in range(max(map(len, digit_lists)))]
        for index, digits in enumerate(digit_lists):
            table = odd[index * odd_count:(index + 1) * odd_count]
            for position, digit in enumerate(digits):
                if not digit:
                    continue
                entry = table[abs(digit) >> 1]
                if entry is None:
                    continue  # that odd multiple is infinity (tiny order)
                ex, ey = entry
                adds[position].append((ex, ey if digit > 0 else -ey % p))
        x, y, z = INFINITY
        for position in range(len(adds) - 1, -1, -1):
            if z:
                x, y, z = jacobian_double(p, a, x, y, z)
            for ex, ey in adds[position]:
                x, y, z = jacobian_add_affine(p, a, x, y, z, ex, ey)
        return self.ec_batch_to_affine([(x, y, z)])[0]

    # ------------------------------------------------------------------
    # Miller-loop kernels.  ``steps`` are the canonical
    # (is_add, kind, xv, yv, slope) tuples recorded by
    # repro.pairing.miller.
    # ------------------------------------------------------------------

    def eval_line_sequence(self, steps, sxa, sxb, sya, syb, beta):
        """Accumulate ``Π line_i(S)`` with one Fp2 square per doubling.

        ``S = (sxa + sxb·u, sya + syb·u)``.  Returns ``(a, b)`` ints.
        """
        p = self.p
        fa, fb = 1, 0
        for is_add, kind, xv, yv, slope in steps:
            if not is_add:
                a2 = fa * fa
                b2 = fb * fb
                fa, fb = (a2 + beta * b2) % p, 2 * fa * fb % p
            if kind == LINE:
                va = (sya - yv - (sxa - xv) * slope) % p
                # Family A distorts to a purely-real x, so the line
                # value's ``u`` coefficient is the constant ``syb``.
                vb = (syb - sxb * slope) % p if sxb else syb
            elif kind == VERT:
                va = (sxa - xv) % p
                vb = sxb
            else:
                continue
            if vb:
                ac = fa * va
                bd = fb * vb
                fa, fb = (
                    (ac + beta * bd) % p,
                    ((fa + fb) * (va + vb) - ac - bd) % p,
                )
            else:
                fa, fb = fa * va % p, fb * va % p
        return fa, fb

    def eval_line_sequences_product(self, tasks, beta):
        """``Π f_i(S_i)^{±1}`` with ONE shared squaring chain.

        ``tasks`` is a list of ``(steps, sxa, sxb, sya, syb, conjugate)``;
        all step sequences must be aligned (same loop order — the caller
        checks).  Conjugation is a negated ``b`` coefficient, exactly as
        in the object layer.
        """
        p = self.p
        shared_steps = tasks[0][0]
        fa, fb = 1, 0
        for index in range(len(shared_steps)):
            if not shared_steps[index][0]:  # is_add flag, shared by all
                a2 = fa * fa
                b2 = fb * fb
                fa, fb = (a2 + beta * b2) % p, 2 * fa * fb % p
            for steps, sxa, sxb, sya, syb, conjugate in tasks:
                _, kind, xv, yv, slope = steps[index]
                if kind == LINE:
                    va = (sya - yv - (sxa - xv) * slope) % p
                    vb = (syb - sxb * slope) % p if sxb else syb
                elif kind == VERT:
                    va = (sxa - xv) % p
                    vb = sxb
                else:
                    continue
                if conjugate:
                    vb = -vb % p
                if vb:
                    ac = fa * va
                    bd = fb * vb
                    fa, fb = (
                        (ac + beta * bd) % p,
                        ((fa + fb) * (va + vb) - ac - bd) % p,
                    )
                else:
                    fa, fb = fa * va % p, fb * va % p
        return fa, fb

    # ------------------------------------------------------------------
    # Unitary (norm-1) exponentiation: wNAF + cyclotomic squaring.
    # ------------------------------------------------------------------

    def unitary_exp(self, a: int, b: int, exponent: int, beta: int,
                    width: int = 4):
        """``(a + bu) ** exponent`` for unitary ``a + bu``.

        Width-``w`` NAF digits, free negative digits via conjugation,
        and cyclotomic squaring ``(2a^2 - 1, 2ab)``; exact mod-``p``
        arithmetic, so the result is the element naive
        square-and-multiply yields.
        """
        p = self.p
        if exponent < 0:
            b = -b % p
            exponent = -exponent
        if exponent == 0:
            return 1, 0
        odd_powers = [(a, b)]
        if width > 2:
            sq_a, sq_b = (2 * a * a - 1) % p, 2 * a * b % p
            for _ in range((1 << (width - 2)) - 1):
                pa, pb = odd_powers[-1]
                ac = pa * sq_a
                bd = pb * sq_b
                odd_powers.append((
                    (ac + beta * bd) % p,
                    ((pa + pb) * (sq_a + sq_b) - ac - bd) % p,
                ))
        ra = rb = None
        for digit in reversed(wnaf_digits(exponent, width)):
            if ra is not None:
                ra, rb = (2 * ra * ra - 1) % p, 2 * ra * rb % p
            if digit:
                ea, eb = odd_powers[abs(digit) >> 1]
                if digit < 0:
                    eb = -eb % p
                if ra is None:
                    ra, rb = ea, eb
                else:
                    ac = ra * ea
                    bd = rb * eb
                    ra, rb = (
                        (ac + beta * bd) % p,
                        ((ra + rb) * (ea + eb) - ac - bd) % p,
                    )
        if ra is None:  # pragma: no cover - exponent != 0 above
            return 1, 0
        return ra, rb

    def __repr__(self) -> str:
        return f"FieldBackend(p~2^{self.p.bit_length()})"
