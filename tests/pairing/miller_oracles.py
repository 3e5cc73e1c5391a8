"""Reference Miller-loop paths, kept as test oracles.

The library evaluates family-A pairings one way only: record the line
coefficients with the Jacobian batch-inversion recorder, then evaluate
them in the plain-int field kernel.  The straightforward object-level
versions below — the affine denominator-free loop, the per-step affine
recorder, and an ``Fp2``-object evaluator for raw step tuples — are
what that path is checked against.  Nothing under ``src/`` imports
this module.
"""

from __future__ import annotations

from repro.ec.point import CurvePoint
from repro.errors import ParameterError
from repro.math.backend import LINE, ONE, VERT
from repro.math.quadratic import QuadraticElement, QuadraticField
from repro.pairing.miller import PrecomputedLines, _line_value


def miller_loop_denominator_free(
    p_point: CurvePoint,
    s_point: CurvePoint,
    order: int,
    fp2: QuadraticField,
) -> QuadraticElement:
    """``f_{order, P}(S)`` with all vertical-line factors omitted.

    ``p_point`` must have the given (odd prime) order on ``E(Fp)``;
    ``s_point`` lives on ``E(Fp2)``.  The result is only meaningful after
    the reduced-Tate final exponentiation, which is what kills the
    omitted subfield factors.
    """
    if s_point.is_infinity:
        raise ParameterError("cannot evaluate Miller function at infinity")
    s_x, s_y = s_point.x, s_point.y
    f = fp2.one()
    v = p_point
    for bit_index in range(order.bit_length() - 2, -1, -1):
        f = f.square() * _line_value(v, v, s_x, s_y, fp2)
        v = v.double()
        if (order >> bit_index) & 1:
            f = f * _line_value(v, p_point, s_x, s_y, fp2)
            v = v + p_point
    if not v.is_infinity:
        raise ParameterError("point order does not divide the loop order")
    return f


def _line_coefficients(v: CurvePoint, w: CurvePoint):
    """The ``(kind, x_V, y_V, slope)`` record for the line through V, W."""
    if v.is_infinity or w.is_infinity:
        return (ONE, 0, 0, 0)
    if v.x == w.x and v.y != w.y:
        return (VERT, v.x.value, 0, 0)
    if v.x == w.x:
        if v.y.is_zero():
            return (VERT, v.x.value, 0, 0)
        slope = (v.x.square() * 3 + v.curve.a) / (v.y * 2)
    else:
        slope = (w.y - v.y) / (w.x - v.x)
    return (LINE, v.x.value, v.y.value, slope.value)


def record_line_sequence(p_point: CurvePoint, order: int) -> PrecomputedLines:
    """Run the affine denominator-free loop once, keeping only the line
    coefficients (one field inversion per step)."""
    steps = []
    v = p_point
    for bit_index in range(order.bit_length() - 2, -1, -1):
        steps.append((False,) + _line_coefficients(v, v))
        v = v.double()
        if (order >> bit_index) & 1:
            steps.append((True,) + _line_coefficients(v, p_point))
            v = v + p_point
    if not v.is_infinity:
        raise ParameterError("point order does not divide the loop order")
    return PrecomputedLines(tuple(steps), order)


def evaluate_steps(
    steps, s_x: QuadraticElement, s_y: QuadraticElement, fp2: QuadraticField
) -> QuadraticElement:
    """Evaluate raw ``(is_add, kind, xv, yv, slope)`` steps at ``(s_x, s_y)``
    with ``Fp2`` object arithmetic: square before every doubling step,
    then multiply in the step's line value."""
    f = fp2.one()
    for is_add, kind, xv, yv, slope in steps:
        if not is_add:
            f = f.square()
        if kind == LINE:
            f = f * ((s_y - fp2(yv)) - (s_x - fp2(xv)) * slope)
        elif kind == VERT:
            f = f * (s_x - fp2(xv))
    return f
