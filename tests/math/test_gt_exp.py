"""Unitary (cyclotomic) exponentiation must equal naive exponentiation.

``cyclotomic_square``, ``unitary_exp`` and ``GTFixedBaseTable`` are pure
accelerators for norm-1 elements of Fp2 — the GT representation the Tate
pairing's final exponentiation produces.  Every fast path must return
the exact field element the generic ``**`` computes, for both beta
choices (mirroring curve families A and B), all widths, and negative,
zero and oversized exponents.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParameterError
from repro.math.field import PrimeField
from repro.math.quadratic import (
    GTFixedBaseTable,
    QuadraticField,
    cyclotomic_square,
    unitary_exp,
)

# Two field shapes: beta = -1 (family A's extension) and a small odd
# non-residue (the general shape family B can use).
P_A = (1 << 61) - 1  # Mersenne prime, ≡ 3 mod 4 so -1 is a non-residue
P_B = 2**62 + 135    # prime; _field picks the first odd non-residue >= 3


def _field(p: int, beta_hint: int) -> QuadraticField:
    base = PrimeField(p)
    beta = beta_hint % p
    while pow(beta, (p - 1) // 2, p) == 1:
        beta += 1
    return QuadraticField(base, beta)


FIELDS = [_field(P_A, P_A - 1), _field(P_B, 3)]


def _unitary(field: QuadraticField, rng: random.Random):
    """A random norm-1 element: conj(x) / x for nonzero x."""
    while True:
        x = field.random(rng)
        if not x.is_zero():
            return x.conjugate() * x.inverse()


@pytest.fixture(params=[0, 1], ids=["beta_neg1_shape", "beta_odd_shape"])
def field(request):
    return FIELDS[request.param]


@pytest.fixture()
def g(field):
    return _unitary(field, random.Random(0xC4C70))


class TestCyclotomicSquare:
    def test_matches_generic_square(self, field):
        rng = random.Random(7)
        for _ in range(20):
            u = _unitary(field, rng)
            assert cyclotomic_square(u) == u.square()

    def test_preserves_unitarity(self, g):
        sq = cyclotomic_square(g)
        assert (sq * sq.conjugate()).is_one()


class TestUnitaryExp:
    @pytest.mark.parametrize(
        "exponent", [0, 1, 2, 3, 5, 17, 255, 256, 2**20, 2**20 + 3, 2**61 - 2]
    )
    def test_small_exponents(self, g, exponent):
        assert unitary_exp(g, exponent) == g ** exponent

    @pytest.mark.parametrize("exponent", [-1, -2, -5, -17, -(2**30 + 5)])
    def test_negative_exponents_use_conjugate(self, g, exponent):
        assert unitary_exp(g, exponent) == (g ** -exponent).conjugate()
        assert unitary_exp(g, exponent) == (g ** -exponent).inverse()
        assert unitary_exp(g, exponent) * unitary_exp(g, -exponent) == \
            g.field.one()

    @pytest.mark.parametrize("exponent", [123456, -123456])
    def test_identity_base(self, field, exponent):
        assert unitary_exp(field.one(), exponent) == field.one()

    def test_pairing_value_base(self, group):
        """A real GT element (a reduced Tate pairing value) as the base."""
        e = group.pair(group.generator, group.generator).value
        for exponent in (0, 1, 2, 3, 17, 1 << 20, group.q - 1, -5):
            expected = (
                (e ** -exponent).inverse() if exponent < 0 else e ** exponent
            )
            assert unitary_exp(e, exponent) == expected

    @pytest.mark.parametrize("width", [2, 3, 4, 5, 6])
    def test_all_widths_agree(self, g, width):
        k = 0xDEADBEEFCAFEBABE
        assert unitary_exp(g, k, width=width) == g ** k

    def test_width_bounds(self, g):
        with pytest.raises(ParameterError):
            unitary_exp(g, 5, width=1)
        with pytest.raises(ParameterError):
            unitary_exp(g, 5, width=9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=-(2**128), max_value=2**128))
    def test_matches_pow_for_random_exponents(self, exponent):
        g = _unitary(FIELDS[0], random.Random(99))
        expected = (
            (g ** -exponent).conjugate() if exponent < 0 else g ** exponent
        )
        assert unitary_exp(g, exponent) == expected


class TestGTFixedBaseTable:
    BITS = 64

    def test_matches_unitary_exp(self, g):
        table = GTFixedBaseTable(g, self.BITS)
        rng = random.Random(3)
        for _ in range(20):
            k = rng.getrandbits(self.BITS)
            assert table.exp(k) == unitary_exp(g, k)

    def test_zero_and_one(self, g):
        table = GTFixedBaseTable(g, self.BITS)
        assert table.exp(0) == g.field.one()
        assert table.exp(1) == g

    def test_negative_exponent_conjugates(self, g):
        table = GTFixedBaseTable(g, self.BITS)
        for k in (1, 5, 0xFFFF_FFFF):
            assert table.exp(-k) == table.exp(k).conjugate()

    def test_oversized_exponent_falls_back(self, g):
        table = GTFixedBaseTable(g, self.BITS)
        k = 1 << (self.BITS + 8)
        assert table.exp(k) == unitary_exp(g, k)
        assert table.exp(-k) == unitary_exp(g, k).conjugate()

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 8])
    def test_all_widths_agree(self, g, width):
        table = GTFixedBaseTable(g, self.BITS, width=width)
        k = 0x0123_4567_89AB_CDEF
        assert table.exp(k) == unitary_exp(g, k)

    def test_table_size_formula(self, g):
        table = GTFixedBaseTable(g, self.BITS, width=4)
        windows = (self.BITS + 3) // 4
        assert table.table_elements == windows * (2**4 - 1)

    def test_rejects_non_unitary_base(self, field):
        x = field(2, 3)  # arbitrary, norm != 1
        assert not (x * x.conjugate()).is_one()
        with pytest.raises(ParameterError):
            GTFixedBaseTable(x, self.BITS)

    def test_rejects_bad_parameters(self, g):
        with pytest.raises(ParameterError):
            GTFixedBaseTable(g, self.BITS, width=0)
        with pytest.raises(ParameterError):
            GTFixedBaseTable(g, self.BITS, width=9)
        with pytest.raises(ParameterError):
            GTFixedBaseTable(g, 0)
