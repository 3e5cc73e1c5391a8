"""The plain-int ``E(Fp)`` kernel against the object-level references.

Every base-field ladder — ``scalar_mult``, ``FixedBaseTable``,
``multi_scalar_mult`` and the Miller recorder — steps through the two
Jacobian formulas in :mod:`repro.math.backend`.  These properties pin
them on toy64 and ss512, both curve families, against affine
double-and-add (``CurvePoint.affine_scalar_mult``), an object-level
Jacobian ladder over ``FieldElement`` values, a naive per-point affine
normalization, and the affine recorder kept in
``tests/pairing/miller_oracles.py``.  Edge cases: the scalars around
``0``, ``q`` and the cofactor, scalars beyond a table's capacity, the
2-torsion point ``(0, 0)`` on family A, ``P + P`` and ``P + (-P)``
through the mixed addition, and infinity entries in a batch.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ec.precompute import FixedBaseTable
from repro.math.backend import INFINITY, jacobian_add_affine, jacobian_double
from repro.pairing.api import PairingGroup
from repro.pairing.miller import record_line_sequence_fast
from tests.pairing.miller_oracles import record_line_sequence

GROUPS = {
    (name, family): PairingGroup(name, family=family)
    for name in ("toy64", "ss512")
    for family in ("A", "B")
}
KEYS = sorted(GROUPS)
IDS = [f"{name}-{family}" for name, family in KEYS]

toy = settings(max_examples=20, deadline=None,
               suppress_health_check=[HealthCheck.too_slow])
big = settings(max_examples=4, deadline=None,
               suppress_health_check=[HealthCheck.too_slow])


def examples(key):
    return toy if key[0] == "toy64" else big


def edge_scalars(group):
    q, c = group.q, group.ssc.cofactor
    return [0, 1, -1, 2, q - 1, q, q + 1, c, -c, c * q, 1 << q.bit_length()]


def object_ladder(curve, point, scalar):
    """Double-and-add over ``FieldElement`` Jacobian triples."""
    if scalar < 0:
        point, scalar = -point, -scalar
    if scalar == 0 or point.is_infinity:
        return curve.infinity()
    base = curve._to_jacobian(point)
    result = base
    for bit in range(scalar.bit_length() - 2, -1, -1):
        result = curve._jacobian_double(result)
        if (scalar >> bit) & 1:
            result = curve._jacobian_add(result, base)
    return curve._from_jacobian(result)


def naive_affine(p, triple):
    x, y, z = triple
    if z % p == 0:
        return None
    zinv = pow(z, -1, p)
    return (x * zinv * zinv % p, y * zinv * zinv * zinv % p)


def scramble(p, xy, lam):
    """A Jacobian representative ``(x·λ², y·λ³, λ)`` of an affine point."""
    x, y = xy
    return (x * lam * lam % p, y * lam * lam * lam % p, lam)


def point_of(group, scalar):
    return group.generator.affine_scalar_mult(scalar % group.q or 1)


def full_curve_point(group, seed):
    """A point of ``E(Fp)`` before cofactor clearing (order up to c·q)."""
    from repro.pairing.hashing import hash_to_curve_point

    return hash_to_curve_point(group.ssc, seed)


# -- scalar_mult --------------------------------------------------------------


@pytest.mark.parametrize("key", KEYS, ids=IDS)
def test_scalar_mult_edge_scalars(key):
    group = GROUPS[key]
    curve = group.ssc.curve
    for point in (group.generator, full_curve_point(group, b"edge")):
        for k in edge_scalars(group):
            expected = point.affine_scalar_mult(k)
            assert curve.scalar_mult(point, k) == expected, k
            assert object_ladder(curve, point, k) == expected, k


@pytest.mark.parametrize("key", KEYS, ids=IDS)
def test_scalar_mult_matches_references(key):
    group = GROUPS[key]
    curve = group.ssc.curve
    bound = group.ssc.cofactor * group.q * 4

    @examples(key)
    @given(st.integers(-bound, bound), st.binary(min_size=1, max_size=8))
    def check(k, seed):
        point = full_curve_point(group, seed)
        fast = curve.scalar_mult(point, k)
        assert fast == point.affine_scalar_mult(k)
        assert fast.to_bytes() == object_ladder(curve, point, k).to_bytes()

    check()


def test_two_torsion_point_doubles_to_infinity():
    """``(0, 0)`` on ``y^2 = x^3 + x`` hits the ``y == 0`` doubling branch."""
    for name in ("toy64", "ss512"):
        curve = GROUPS[(name, "A")].ssc.curve
        t = curve.point(curve.field(0), curve.field(0))
        for k in (2, 3, 4, 5, 1 << 20, (1 << 200) + 1, -7):
            expected = t if k % 2 else curve.infinity()
            assert curve.scalar_mult(t, k) == expected == t.affine_scalar_mult(k)
        table = FixedBaseTable(t, 16)
        for k in (6, 7, 0xF000, 0xFFFF, 1 << 20):
            assert table.mult(k) == (t if k % 2 else curve.infinity()), k
        assert curve.multi_scalar_mult([(3, t), (2, t)]) == t
        assert curve.multi_scalar_mult([(3, t), (1, t)]).is_infinity


# -- the two formulas ---------------------------------------------------------


@pytest.mark.parametrize("key", KEYS, ids=IDS)
def test_mixed_addition_of_equal_and_opposite_points(key):
    group = GROUPS[key]
    p, a = group.backend.p, group.ssc.curve.a.value
    point = point_of(group, 12345)
    xy = (point.x.value, point.y.value)
    doubled = point.double()
    for lam in (1, 2, p - 1, 0xC0FFEE):
        jp = scramble(p, xy, lam)
        twice = jacobian_add_affine(p, a, *jp, *xy)
        assert naive_affine(p, twice) == (doubled.x.value, doubled.y.value)
        assert naive_affine(p, twice) == naive_affine(p, jacobian_double(p, a, *jp))
        assert jacobian_add_affine(p, a, *jp, xy[0], -xy[1] % p) == INFINITY
    assert jacobian_add_affine(p, a, *INFINITY, *xy) == (*xy, 1)
    assert jacobian_double(p, a, *INFINITY) == INFINITY


@pytest.mark.parametrize("key", KEYS, ids=IDS)
def test_formulas_match_affine_group_law(key):
    group = GROUPS[key]
    p, a = group.backend.p, group.ssc.curve.a.value

    @examples(key)
    @given(st.integers(1, group.q - 1), st.integers(1, group.q - 1),
           st.integers(1, group.backend.p - 1))
    def check(i, j, lam):
        left, right = point_of(group, i), point_of(group, j)
        jp = scramble(p, (left.x.value, left.y.value), lam)
        total = left + right
        added = jacobian_add_affine(p, a, *jp, right.x.value, right.y.value)
        assert naive_affine(p, added) == (
            None if total.is_infinity else (total.x.value, total.y.value)
        )
        doubled = left.double()
        assert naive_affine(p, jacobian_double(p, a, *jp)) == (
            doubled.x.value, doubled.y.value
        )

    check()


# -- batch normalization ------------------------------------------------------


@pytest.mark.parametrize("key", KEYS, ids=IDS)
def test_batch_to_affine_matches_naive(key):
    group = GROUPS[key]
    p = group.backend.p

    @examples(key)
    @given(st.lists(
        st.one_of(
            st.just(None),
            st.tuples(st.integers(1, group.q - 1), st.integers(1, p - 1)),
        ),
        max_size=6,
    ))
    def check(spec):
        triples = []
        for item in spec:
            if item is None:
                triples.append(INFINITY)
            else:
                point = point_of(group, item[0])
                triples.append(scramble(p, (point.x.value, point.y.value), item[1]))
        assert group.backend.ec_batch_to_affine(triples) == [
            naive_affine(p, triple) for triple in triples
        ]

    check()


# -- fixed-base tables --------------------------------------------------------


@pytest.mark.parametrize("key", KEYS, ids=IDS)
def test_fixed_base_table_edge_scalars(key):
    group = GROUPS[key]
    point = point_of(group, 777)
    bits = group.q.bit_length()
    for width in (1, 4, 5):
        table = FixedBaseTable(point, bits, width=width)
        for k in edge_scalars(group) + [(1 << bits) - 1, -(1 << bits) - 3]:
            assert table.mult(k) == point.affine_scalar_mult(k), (width, k)


@pytest.mark.parametrize("key", KEYS, ids=IDS)
def test_fixed_base_table_matches_affine(key):
    group = GROUPS[key]
    point = point_of(group, 4242)
    table = FixedBaseTable(point, group.q.bit_length())
    beyond = 1 << (group.q.bit_length() + 5)

    @examples(key)
    @given(st.integers(-beyond, beyond))
    def check(k):
        assert table.mult(k).to_bytes() == point.affine_scalar_mult(k).to_bytes()

    check()


# -- multi-scalar multiplication ----------------------------------------------


@pytest.mark.parametrize("key", KEYS, ids=IDS)
def test_multi_scalar_mult_matches_affine_sum(key):
    group = GROUPS[key]
    curve = group.ssc.curve
    bound = 2 * group.q

    @examples(key)
    @given(st.lists(
        st.tuples(st.integers(-bound, bound), st.integers(0, group.q - 1)),
        min_size=1, max_size=4,
    ))
    def check(spec):
        pairs = [
            (k, curve.infinity() if i == 0 else point_of(group, i)) for k, i in spec
        ]
        expected = curve.infinity()
        for k, point in pairs:
            expected = expected + point.affine_scalar_mult(k)
        assert curve.multi_scalar_mult(pairs) == expected

    check()


@pytest.mark.parametrize("key", KEYS, ids=IDS)
def test_multi_scalar_mult_cancelling_terms(key):
    group = GROUPS[key]
    curve = group.ssc.curve
    point = point_of(group, 99)
    assert curve.multi_scalar_mult([(5, point), (-5, point)]).is_infinity
    assert curve.multi_scalar_mult([(1, point), (1, point)]) == point.double()
    assert curve.multi_scalar_mult([(group.q, point)]).is_infinity


# -- the Miller recorder ------------------------------------------------------


@pytest.mark.parametrize("key", KEYS, ids=IDS)
def test_recorder_matches_affine_oracle(key):
    group = GROUPS[key]

    @settings(max_examples=5 if key[0] == "toy64" else 1, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(1, group.q - 1))
    def check(k):
        point = point_of(group, k)
        assert (record_line_sequence_fast(point, group.q).steps
                == record_line_sequence(point, group.q).steps)

    check()
