"""The field kernel must compute exactly what the object-level oracles do.

:class:`~repro.math.backend.FieldBackend` is the library's one
arithmetic path: plain ints in ``[0, p)`` with native ``%``.  These
properties pin it against independent references on both parameter
shapes (``p % 4 == 3`` family-A moduli with ``beta = -1``, and a general
non-residue ``beta``): an extended-Euclid inverse, schoolbook ``Fp2``
formulas, ``QuadraticElement ** k``, the affine denominator-free Miller
loop and recorder kept in ``tests/pairing/miller_oracles.py``, and an
``Fp2``-object evaluator for raw line-step sequences.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParameterError
from repro.math.backend import LINE, ONE, VERT, FieldBackend
from repro.math.field import PrimeField
from repro.math.modular import egcd
from repro.math.quadratic import QuadraticField
from repro.pairing.api import PairingGroup
from repro.pairing.bn254 import bn254
from repro.pairing.miller import record_line_sequence_fast
from repro.pairing.params import get_parameter_set
from repro.pairing.supersingular import SupersingularCurve
from tests.pairing.miller_oracles import (
    evaluate_steps,
    miller_loop_denominator_free,
    record_line_sequence,
)

# toy64's p (fast) and ss512's p (production-width operands): both are
# family-A moduli, p % 4 == 3, so beta = -1 is a non-residue.
P_TOY = get_parameter_set("toy64").p
P_SS512 = get_parameter_set("ss512").p
BETA_NEG1 = -1


def kernel(p: int) -> FieldBackend:
    return PrimeField(p, check_prime=False).backend


def oracle_inv(x: int, p: int) -> int:
    g, inv, _ = egcd(x % p, p)
    assert g == 1
    return inv % p


def odd_beta(p: int) -> int:
    """The first odd quadratic non-residue >= 3 (a general ``beta``)."""
    beta = 3
    while pow(beta, (p - 1) // 2, p) == 1:
        beta += 2
    return beta


def fp2(p: int, beta: int) -> QuadraticField:
    return QuadraticField(PrimeField(p, check_prime=False), beta)


moduli = st.sampled_from([P_TOY, P_SS512])
betas = st.sampled_from(["neg1", "odd"])


def beta_for(p: int, shape: str) -> int:
    return BETA_NEG1 if shape == "neg1" else odd_beta(p)


@st.composite
def modulus_and_values(draw, count: int):
    p = draw(moduli)
    values = [
        draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(count)
    ]
    return (p, *values)


class TestFpAgreement:
    @given(modulus_and_values(2))
    @settings(max_examples=60, deadline=None)
    def test_mul_sqr_addsub(self, pv):
        p, x, y = pv
        assert kernel(p).fp_mul(x, y) == x * y % p
        field = PrimeField(p, check_prime=False)
        fx, fy = field(x), field(y)
        assert (fx * fy).value == x * y % p
        assert fx.square().value == x * x % p
        assert (fx + fy).value == (x + y) % p
        assert (fx - fy).value == (x - y) % p

    @given(modulus_and_values(1))
    @settings(max_examples=40, deadline=None)
    def test_inv_and_pow(self, pv):
        p, x = pv
        field = PrimeField(p, check_prime=False)
        assert (field(x) ** 65537).value == pow(x, 65537, p)
        if x == 0:
            with pytest.raises(ParameterError):
                kernel(p).fp_inv(x)
            return
        inv = kernel(p).fp_inv(x)
        assert inv == oracle_inv(x, p)
        assert x * inv % p == 1
        assert (field(x) ** -3).value == pow(oracle_inv(x, p), 3, p)

    @given(modulus_and_values(5))
    @settings(max_examples=40, deadline=None)
    def test_batch_inv(self, pv):
        p, *values = pv
        values = [v or 1 for v in values]  # zero has no inverse
        assert kernel(p).fp_batch_inv(values) == [
            oracle_inv(v, p) for v in values
        ]

    def test_batch_inv_zero_raises(self):
        with pytest.raises(ParameterError):
            kernel(P_TOY).fp_batch_inv([3, 0, 5])

    def test_batch_inv_empty(self):
        assert kernel(P_TOY).fp_batch_inv([]) == []

    def test_inverse_errors(self):
        with pytest.raises(ParameterError, match="0 has no inverse"):
            kernel(P_TOY).fp_inv(P_TOY)
        # Composite moduli are supported with inverses only for units;
        # the error names the common factor.
        with pytest.raises(ParameterError, match=r"gcd=3"):
            kernel(15).fp_inv(6)
        assert kernel(15).fp_inv(7) == 13

    def test_modulus_guard(self):
        with pytest.raises(ParameterError):
            FieldBackend(1)


class TestFp2Agreement:
    @given(modulus_and_values(4), betas)
    @settings(max_examples=60, deadline=None)
    def test_mul_sqr(self, pv, shape):
        p, ar, ai, br, bi = pv
        beta = beta_for(p, shape)
        field = fp2(p, beta)
        x, y = field(ar, ai), field(br, bi)
        product = x * y
        assert (product.a, product.b) == (
            (ar * br + beta * ai * bi) % p, (ar * bi + ai * br) % p
        )
        square = x.square()
        assert (square.a, square.b) == (
            (ar * ar + beta * ai * ai) % p, 2 * ar * ai % p
        )

    @given(modulus_and_values(2), betas)
    @settings(max_examples=40, deadline=None)
    def test_inv(self, pv, shape):
        p, ar, ai = pv
        beta = beta_for(p, shape)
        x = fp2(p, beta)(ar, ai)
        norm = (ar * ar - beta * ai * ai) % p
        if norm == 0:
            with pytest.raises(ParameterError):
                x.inverse()
            return
        inv = x.inverse()
        inv_norm = oracle_inv(norm, p)
        assert (inv.a, inv.b) == (ar * inv_norm % p, -ai * inv_norm % p)
        assert (x * inv).is_one()

    @given(
        modulus_and_values(2),
        betas,
        st.integers(min_value=-(1 << 80), max_value=1 << 80),
        st.sampled_from([2, 3, 4, 5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_unitary_exp(self, pv, shape, exponent, width):
        p, a, b = pv
        beta = beta_for(p, shape)
        field = fp2(p, beta)
        # A unitary element: conj(x)/x for nonzero x (norm 1).
        x = field(a, b)
        if x.is_zero():
            x = field.one()
        u = x.conjugate() * x.inverse()
        expected = (u.inverse() ** -exponent) if exponent < 0 else u ** exponent
        assert kernel(p).unitary_exp(u.a, u.b, exponent, beta, width) == (
            expected.a, expected.b
        )

    def test_unitary_exp_zero_exponent(self):
        assert kernel(P_TOY).unitary_exp(5, 7, 0, BETA_NEG1) == (1, 0)


def _step(rng: random.Random, p: int, is_add: bool):
    kind = rng.choice([LINE, LINE, LINE, VERT, ONE])
    return (
        is_add,
        kind,
        rng.randrange(p) if kind != ONE else 0,
        rng.randrange(p) if kind == LINE else 0,
        rng.randrange(p) if kind == LINE else 0,
    )


def _oracle_value(steps, coords, field, conjugate=False):
    sxa, sxb, sya, syb = coords
    value = evaluate_steps(steps, field(sxa, sxb), field(sya, syb), field)
    return value.conjugate() if conjugate else value


class TestLineKernels:
    """The Miller kernels against the ``Fp2``-object step evaluator.

    Synthetic step sequences give the kernels inputs a real recording
    never produces (kind mixes, zero coordinates, conjugation); the
    recorder and the full pairing are checked against the affine
    oracles below.
    """

    def _random_steps(self, rng: random.Random, p: int, length: int):
        return tuple(_step(rng, p, index % 2 == 1) for index in range(length))

    @pytest.mark.parametrize("p", [P_TOY, P_SS512])
    def test_eval_line_sequence_agreement(self, p):
        rng = random.Random(0xBEEF ^ p)
        field = fp2(p, BETA_NEG1)
        for trial in range(8):
            steps = self._random_steps(rng, p, 24)
            sxa, sya, syb = (rng.randrange(p) for _ in range(3))
            sxb = 0 if trial % 2 else rng.randrange(p)
            coords = (sxa, sxb, sya, syb)
            expected = _oracle_value(steps, coords, field)
            assert kernel(p).eval_line_sequence(
                steps, *coords, field.beta
            ) == (expected.a, expected.b)

    @pytest.mark.parametrize("p", [P_TOY, P_SS512])
    def test_product_kernel_agreement(self, p):
        rng = random.Random(0xF00D ^ p)
        field = fp2(p, BETA_NEG1)
        steps_a = self._random_steps(rng, p, 16)
        # Same is_add schedule (the product kernel requires alignment),
        # different line coefficients.
        steps_b = tuple(
            (is_add,) + (
                (kind, rng.randrange(p), rng.randrange(p), rng.randrange(p))
                if kind == LINE
                else (kind, xv, yv, slope)
            )
            for is_add, kind, xv, yv, slope in steps_a
        )
        coords = [tuple(rng.randrange(p) for _ in range(4)) for _ in range(2)]
        expected = (
            _oracle_value(steps_a, coords[0], field)
            * _oracle_value(steps_b, coords[1], field, conjugate=True)
        )
        tasks = [
            (steps_a, *coords[0], False),
            (steps_b, *coords[1], True),
        ]
        assert kernel(p).eval_line_sequences_product(tasks, field.beta) == (
            expected.a, expected.b
        )

    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.sampled_from([LINE, VERT, ONE]),
                st.integers(min_value=0, max_value=P_TOY - 1),
                st.integers(min_value=0, max_value=P_TOY - 1),
                st.integers(min_value=0, max_value=P_TOY - 1),
            ),
            max_size=20,
        ),
        st.tuples(*[st.integers(min_value=0, max_value=P_TOY - 1)] * 4),
        st.sampled_from(["neg1", "odd"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_adversarial_step_sequences(self, steps, coords, shape):
        field = fp2(P_TOY, beta_for(P_TOY, shape))
        expected = _oracle_value(steps, coords, field)
        assert kernel(P_TOY).eval_line_sequence(
            steps, *coords, field.beta
        ) == (expected.a, expected.b)
        assert kernel(P_TOY).eval_line_sequences_product(
            [(steps, *coords, True)], field.beta
        ) == (expected.conjugate().a, expected.conjugate().b)


class TestRecordedPath:
    """The one family-A path against the affine reference loop."""

    @pytest.mark.parametrize("params", ["toy64", "ss512"])
    def test_recorder_matches_affine_recorder(self, params):
        group = PairingGroup(params)
        rng = random.Random(0x5EED)
        points = [group.generator] + [
            group.random_point(rng) for _ in range(2 if params == "toy64" else 1)
        ]
        for point in points:
            fast = record_line_sequence_fast(point, group.q)
            affine = record_line_sequence(point, group.q)
            assert fast.steps == affine.steps
            assert fast.order == affine.order

    @pytest.mark.parametrize("params", ["toy64", "ss512"])
    def test_pairing_matches_affine_miller_loop(self, params):
        group = PairingGroup(params)
        rng = random.Random(0xA11CE)
        tate, ssc = group.tate, group.ssc
        for _ in range(3 if params == "toy64" else 1):
            p_point, q_point = group.random_point(rng), group.random_point(rng)
            reference = tate.final_exponentiation(
                miller_loop_denominator_free(
                    p_point, ssc.distort(q_point), group.q, ssc.fp2
                )
            )
            assert tate.pair(p_point, q_point) == reference
            assert tate.multi_pair([(p_point, q_point)], [-1]) == (
                reference.conjugate()
            )


class TestRegistry:
    """One kernel class and no selector: every field gets the same kernel."""

    def test_names_and_availability(self):
        assert FieldBackend.name == "python"
        group = PairingGroup("toy64")
        assert group.backend_name == "python"
        assert group.backend.name == "python"

    def test_resolution(self):
        """Every construction path ends at the kernel for its modulus."""
        params = get_parameter_set("toy64")
        fields = [
            PrimeField(P_TOY),
            fp2(P_TOY, BETA_NEG1).base,
            SupersingularCurve(params, "A").fp,
            SupersingularCurve(params, "B").fp,
            PairingGroup("toy64", family="B").ssc.fp,
            bn254().fp,
        ]
        for field in fields:
            assert type(field.backend) is FieldBackend
            assert field.backend.p == field.p

    def test_unknown_name_rejected(self):
        with pytest.raises(TypeError):
            PairingGroup("toy64", backend="montgomery")
        with pytest.raises(TypeError):
            PrimeField(P_TOY, backend="python")
        with pytest.raises(TypeError):
            bn254("auto")

    def test_backend_instance_passthrough(self):
        """The group, its Fp and its Fp2 share one kernel instance."""
        group = PairingGroup("toy64")
        assert group.backend is group.ssc.fp.backend
        assert group.backend is group.ssc.fp2.backend
        assert group.backend.p == group.params.p
