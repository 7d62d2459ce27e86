"""Curve family evaluation, analytic derivatives vs. finite differences."""

import itertools
import math

import numpy as np
import pytest

from contractgame import (
    DomainError,
    EffortInterval,
    ExpAffine,
    LogAffine,
    Polynomial,
    Power,
    Tabulated,
)
from contractgame.curves import Curve
from contractgame.oracle import finite_diff_d1
from contractgame.tables import CELLS, EffortTables


def rel_close(a, b, tol=1e-6):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_polynomial_eval():
    assert Polynomial((0.0, 0.0, 1.0)).eval(0.5) == 0.25
    assert Polynomial((0.2, 0.5)).eval(0.6) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize(
    "knots, values",
    [
        ((0.0, 1e-300, 2e-300), (0.0, 1e308, 1.7e308)),  # infinite secants
        ((0.0, 1e-170, 2e-170), (0.0, 1e130, 2e130)),  # harmonic mean underflows
    ],
)
def test_tabulated_slopes_out_of_range_rejected(knots, values):
    with pytest.raises(ValueError, match="not finite"):
        Tabulated(knots, values)


def test_log_affine_domain_error():
    with pytest.raises(DomainError):
        LogAffine(0.0, 1.0, 0.0).eval(0.0)


def test_polynomial_derivatives():
    curve = Polynomial((0.0, 0.0, 2.0))
    assert curve.d1(0.5) == 2.0
    assert curve.d2(0.5) == 4.0
    assert curve.d2(-3.7) == 4.0


def test_exp_affine_derivative_at_zero():
    assert ExpAffine(0.0, 1.0, 1.0).d1(0.0) == 1.0


def test_vectorized_matches_scalar():
    curves = [
        Polynomial((0.3, -1.2, 0.7, 0.05)),
        ExpAffine(0.2, -0.8, 1.3),
        LogAffine(1.0, 2.0, 3.0),
        Power(1.5, 0.7, 2.0),
        Tabulated((0.0, 0.5, 1.0, 1.5), (1.0, -0.2, 0.4, 0.3)),
    ]
    grid = np.linspace(0.1, 1.4, 57)
    for curve in curves:
        for method in ("eval", "d1", "d2"):
            vec = np.asarray(getattr(curve, method)(grid))
            scal = np.asarray([getattr(curve, method)(float(t)) for t in grid])
            np.testing.assert_allclose(vec, scal, rtol=1e-14, atol=1e-14)


def test_power_singular_derivatives_rejected():
    curve = Power(1.0, 0.5, 0.0)
    assert curve.eval(0.0) == 0.0
    with pytest.raises(DomainError):
        curve.d1(0.0)
    with pytest.raises(DomainError):
        Power(1.0, -0.5, 0.0).eval(0.0)
    with pytest.raises(DomainError):
        curve.eval(-0.5)


@pytest.mark.parametrize("gamma, vanishing", [(0.0, ("d1", "d2")), (1.0, ("d2",))])
def test_power_derivatives_that_vanish_are_zero_at_the_domain_edge(gamma, vanishing):
    """A constant power has zero d1 and d2, a linear one zero d2, on floats
    and on arrays, even at t + c = 0, where a negative power is singular."""
    curve = Power(2.0, gamma, 0.0)
    for method in vanishing:
        d = getattr(curve, method)
        assert d(0.0) == 0.0 and d(0.5) == 0.0
        values = d(np.array([0.0, 0.5, 1.0]))
        assert values.dtype == float and values.tolist() == [0.0, 0.0, 0.0]


def test_tabulated_construction_invariants():
    with pytest.raises(ValueError):
        Tabulated((0.0, 1.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        Tabulated((0.0, 1.0, 0.5), (0.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        Tabulated((0.0, 1.0, 2.0), (0.0, 1.0))


def test_tabulated_no_extrapolation():
    curve = Tabulated((0.0, 1.0, 2.0), (0.0, 1.0, 0.0))
    with pytest.raises(DomainError):
        curve.eval(-0.001)
    with pytest.raises(DomainError):
        curve.eval(2.001)
    assert curve.eval(0.0) == 0.0
    assert curve.eval(2.0) == 0.0


def test_tabulated_interpolates_knots_and_preserves_monotonicity():
    knots = (0.0, 0.4, 1.1, 2.0, 2.5)
    values = (0.0, 0.5, 0.7, 1.4, 2.0)
    curve = Tabulated(knots, values)
    for k, v in zip(knots, values):
        assert curve.eval(k) == pytest.approx(v, abs=1e-14)
    grid = np.linspace(0.0, 2.5, 2001)
    vals = curve.eval(grid)
    assert np.all(np.diff(vals) >= -1e-12)
    assert vals.min() >= -1e-12 and vals.max() <= 2.0 + 1e-12


def _random_curve(family, rng):
    if family == "polynomial":
        degree = int(rng.integers(1, 6))
        curve = Polynomial(tuple(rng.uniform(-2.0, 2.0, size=degree + 1)))
        return curve, (-2.0, 2.0), ()
    if family == "exp-affine":
        curve = ExpAffine(
            float(rng.uniform(-2.0, 2.0)),
            float(rng.uniform(-2.0, 2.0)),
            float(rng.uniform(-1.5, 1.5)),
        )
        return curve, (-2.0, 2.0), ()
    if family == "log-affine":
        curve = LogAffine(
            float(rng.uniform(-2.0, 2.0)),
            float(rng.uniform(-2.0, 2.0)),
            float(rng.uniform(0.2, 2.0)),
        )
        return curve, (0.1, 3.0), ()
    if family == "power":
        curve = Power(
            float(rng.uniform(-2.0, 2.0)),
            float(rng.uniform(0.5, 3.0)),
            float(rng.uniform(0.2, 2.0)),
        )
        return curve, (0.1, 3.0), ()
    knots = np.sort(rng.uniform(-1.0, 1.0, size=int(rng.integers(4, 9))))
    while np.min(np.diff(knots)) < 0.05:
        knots = np.sort(rng.uniform(-1.0, 1.0, size=knots.size))
    values = rng.uniform(-2.0, 2.0, size=knots.size)
    curve = Tabulated(tuple(knots), tuple(values))
    return curve, (float(knots[0]), float(knots[-1])), tuple(knots)


@pytest.mark.parametrize(
    "family", ["polynomial", "exp-affine", "log-affine", "power", "tabulated"]
)
def test_derivatives_match_finite_differences(family):
    """d1 vs central difference of eval, d2 vs central difference of d1.

    100 random parameter draws per family, 50 interior points each, with
    step 1e-6 * max(1, |t|).  Sample points keep clear of tabulated knots,
    where the interpolant's second derivative legitimately jumps.
    """
    rng = np.random.default_rng(1234)
    for _ in range(100):
        curve, (lo, hi), knots = _random_curve(family, rng)
        width = hi - lo
        points = rng.uniform(lo + 0.01 * width, hi - 0.01 * width, size=50)
        for t in points:
            t = float(t)
            step = 1e-6 * max(1.0, abs(t))
            if knots and min(abs(t - k) for k in knots) < 4.0 * step:
                continue
            fd1 = finite_diff_d1(curve.eval, t, step)
            assert rel_close(curve.d1(t), fd1), (family, t)
            fd2 = finite_diff_d1(curve.d1, t, step)
            assert rel_close(curve.d2(t), fd2), (family, t)


def _bits(values) -> np.ndarray:
    """The float64 bit patterns, so -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).view(np.int64)


def _exact_family_curves(rng, count):
    """(curve, points) for generated polynomials and tabulated curves.

    Coefficients and values span several decades and include zeros of
    both signs; the points are a grid with its ends, the knots, and -0.0
    where 0 is in range.
    """
    for _ in range(count):
        lo = float(rng.uniform(-2.0, 1.0))
        hi = lo + float(rng.uniform(0.1, 3.0))
        size = int(rng.integers(1, 8))
        coefficients = rng.normal(size=size) * 10.0 ** rng.integers(-3, 4, size=size)
        coefficients[rng.random(size) < 0.3] = 0.0
        coefficients[rng.random(size) < 0.2] = -0.0
        knots = np.unique(np.concatenate([[lo, hi], rng.uniform(lo, hi, int(rng.integers(1, 9)))]))
        values = rng.uniform(-1.0, 1.0, knots.size) * 10.0 ** float(rng.integers(-3, 4))
        values[rng.random(knots.size) < 0.3] = 0.0
        if rng.random() < 0.3:
            values = np.sort(values)  # monotone data, where the slopes are shape-limited
        if rng.random() < 0.1:
            values = np.where(rng.random(knots.size) < 0.5, -0.0, 0.0)  # signed zeros only
        for curve, extra in (
            (Polynomial(tuple(coefficients)), ()),
            (Tabulated(tuple(knots), tuple(values)), tuple(knots)),
        ):
            points = [*np.linspace(lo, hi, int(rng.integers(2, 300))), *extra]
            if lo <= 0.0 <= hi:
                points += [0.0, -0.0]
            yield curve, np.array(points)


@pytest.mark.parametrize("method", ["eval", "d1", "d2"])
def test_array_and_scalar_evaluation_agree_bit_for_bit(method):
    """Polynomial and tabulated arrays run the scalar IEEE operations.

    The exp-, log- and power families are left out: numpy's vectorized
    exp, log and pow may differ from the C library's in the last bit.
    """
    rng = np.random.default_rng(4242)
    assert Polynomial.d1_array_ulps == Tabulated.d1_array_ulps == 0.0
    assert Polynomial.eval_array_ulps == Tabulated.eval_array_ulps == 0.0
    for curve, points in _exact_family_curves(rng, 300):
        array = getattr(curve, method)(points)
        scalar = [getattr(curve, method)(float(t)) for t in points]
        assert np.array_equal(_bits(array), _bits(scalar)), (curve, method)


def _horner_from_zero(coefficients, t):
    """Horner's rule with every step, from 0.0."""
    acc = 0.0
    for c in reversed(coefficients):
        acc = acc * t + c
    return acc


def _same(got, expected) -> bool:
    """The same type, shape and dtype, and the same bits (signed zeros
    apart) wherever expected is not NaN, and NaN wherever it is."""
    if type(got) is not type(expected):
        return False
    got, expected = np.asarray(got), np.asarray(expected)
    nan = np.isnan(expected)
    return (
        got.shape == expected.shape and got.dtype == expected.dtype
        and np.array_equal(np.isnan(got), nan)
        and np.array_equal(_bits(np.where(nan, 0.0, got)), _bits(np.where(nan, 0.0, expected)))
    )


def _orders(curve):
    """(method, its coefficients) of a polynomial's eval, d1 and d2."""
    return (("eval", curve.coefficients), ("d1", curve._d1), ("d2", curve._d2))


def test_horner_gives_the_bits_of_every_step():
    """Polynomial's Horner's rule skips its first step, 0.0 * t + c_k, only
    where that keeps every bit: coefficients with signed zeros, huge and
    not finite, at finite points, at points whose sum of squares
    overflows, at points that are not finite, float32 and integer arrays,
    and scalars."""
    values = (0.0, -0.0, 1.5, -2.25, 1e300, -1e-310, math.inf, math.nan)
    points = [
        np.array([0.0, -0.0, 0.5, -3.0, 1e200, 7.0]), np.array([1.0, math.inf]),
        np.array([-1e-100, 1.0], dtype=np.float32), np.arange(4), 0.3, -0.0, math.inf,
    ]
    for size in (1, 2, 3):
        for coefficients in itertools.product(values, repeat=size):
            curve = Polynomial(coefficients)
            for t, (method, coeffs) in itertools.product(points, _orders(curve)):
                with np.errstate(all="ignore"):
                    got, expected = getattr(curve, method)(t), _horner_from_zero(coeffs, t)
                assert _same(got, expected), (coefficients, method, t)


@pytest.mark.parametrize("coefficients", [(-0.0, -0.0), (1.0, -0.0), (-0.0, 0.0), (2.0, 0.0, 0.0)])
def test_horner_keeps_its_first_step_at_a_zero_top_coefficient(coefficients):
    """0.0 * t - 0.0 is +0.0 where t >= 0, not -0.0: from the top
    coefficient -0.0, (-0.0, -0.0) would be -0.0 at t = 2."""
    curve = Polynomial(coefficients)
    t = np.array([2.0, 0.0, -0.0, -3.0])
    for method, coeffs in _orders(curve):
        assert _same(getattr(curve, method)(t), _horner_from_zero(coeffs, t)), method
    assert _bits(Polynomial((-0.0, -0.0)).eval(np.array([2.0])))[0] == 0


def test_horner_gives_an_array_the_shape_of_its_points():
    """A one-coefficient polynomial, as a linear one's d1 and a quadratic's
    d2 are, still gives a float array of the points' shape, which the
    effort tables keep."""
    for t in (np.linspace(0.0, 1.0, 7), np.zeros((2, 3)), np.zeros(0)):
        curves = (Polynomial((3.0,)).eval, Polynomial((0.2, 0.5)).d1, Polynomial((0.0, 0.0, 2.0)).d2)
        for got in (method(t) for method in curves):
            assert isinstance(got, np.ndarray) and got.shape == t.shape and got.dtype == np.float64


def test_horner_at_a_point_not_finite_is_nan():
    """0.0 * inf is NaN, so a point that is not finite takes every step:
    B(x - w) = x - w is NaN where outcomes of +-1e308 make x - w overflow,
    in an array as in a scalar call, as validate and LinearPayoff report it."""
    B = Polynomial((0.0, 1.0))
    with np.errstate(over="ignore"):
        t = np.array([1e308, -1e308]) - np.array([-1e308, 1e308])
    assert np.isinf(t).all()
    with np.errstate(invalid="ignore"):
        assert np.isnan(B.eval(t)).all()
    assert all(math.isnan(B.eval(x)) for x in t.tolist())
    curve = Polynomial((0.5, -2.0, 3.0))
    mixed = np.array([1.0, math.inf, -math.inf, math.nan])
    with np.errstate(invalid="ignore"):
        assert np.array_equal(np.isnan(curve.eval(mixed)), [False, True, True, True])
        assert np.isnan(curve.d1(mixed)[1:]).all()


def _ulps_apart(a, b) -> np.ndarray:
    """How many floats lie between a and b, counting a step across zero as one."""
    ia, ib = _bits(a), _bits(b)
    # map the bit patterns onto a line on which neighbouring floats are 1 apart
    ia = np.where(ia < 0, np.int64(-2**63) - ia, ia)
    ib = np.where(ib < 0, np.int64(-2**63) - ib, ib)
    return np.abs(ia - ib)


@pytest.mark.parametrize("method", ["eval", "d1"])
@pytest.mark.parametrize("family", ["exp-affine", "log-affine", "power"])
def test_nonexact_arrays_are_within_two_ulp_of_scalar_calls(family, method):
    """numpy's exp, log and pow are within 2 ulp of the C library's, and
    d1 arrays within the curve's d1_array_ulps of its scalar calls.

    solve_game's batched row build takes numpy's slope only when it is
    further from 0 than that difference can reach (principal._Slopes);
    this is the premise it rests on.  LogAffine.d1 is one division, the
    same on both sides.  eval is checked with a = 0: adding a is one IEEE
    addition on both sides, whose cancellation can turn that difference
    into many ulps of the sum.
    """
    rng = np.random.default_rng(("exp-affine", "log-affine", "power").index(family) + 4343)
    worst = 0
    checked = 0
    for _ in range(40):
        lo = float(rng.uniform(-2.0, 2.0))
        hi = lo + float(rng.uniform(0.1, 4.0))
        a, b = (float(x) for x in rng.normal(size=2) * 10.0 ** rng.integers(-3, 4, size=2))
        if method == "eval":
            a = 0.0
        shift = float(rng.uniform(1e-3, 2.0)) - lo  # t + shift > 0 on [lo, hi]
        curve = {
            "exp-affine": lambda: ExpAffine(a, b, float(rng.uniform(-30.0, 30.0))),
            "log-affine": lambda: LogAffine(a, b, shift),
            "power": lambda: Power(b, float(rng.uniform(-3.0, 4.0)), shift),
        }[family]()
        points = rng.uniform(lo, hi, 1000)
        array = getattr(curve, method)(points)
        scalar = np.array([getattr(curve, method)(float(t)) for t in points])
        finite = np.isfinite(scalar)
        assert np.array_equal(finite, np.isfinite(array))
        worst = max(worst, int(_ulps_apart(array[finite], scalar[finite]).max(initial=0)))
        checked += int(finite.sum())
    assert checked > 30000
    assert worst <= (2 if method == "eval" else type(curve).d1_array_ulps)


@pytest.mark.parametrize("family", ["exp-affine", "log-affine", "power"])
def test_eval_arrays_are_within_eval_array_ulps_of_scalar_calls(family):
    """With the additive term a, eval arrays lie within eval_array_ulps
    2^-53 (|eval| + 2 |a|) of the scalar calls: the library's 2 ulps
    carried through the product and the sum (a = 0 for power).  The
    enclosures of these classes widen one array call's cell-end values by
    this much (Curve._monotone_range)."""
    rng = np.random.default_rng(("exp-affine", "log-affine", "power").index(family) + 4353)
    checked = 0
    for _ in range(40):
        lo = float(rng.uniform(-2.0, 2.0))
        hi = lo + float(rng.uniform(0.1, 4.0))
        a, b = (float(x) for x in rng.normal(size=2) * 10.0 ** rng.integers(-3, 4, size=2))
        shift = float(rng.uniform(1e-3, 2.0)) - lo  # t + shift > 0 on [lo, hi]
        curve, offset = {
            "exp-affine": lambda: (ExpAffine(a, b, float(rng.uniform(-30.0, 30.0))), a),
            "log-affine": lambda: (LogAffine(a, b, shift), a),
            "power": lambda: (Power(b, float(rng.uniform(-3.0, 4.0)), shift), 0.0),
        }[family]()
        points = rng.uniform(lo, hi, 1000)
        with np.errstate(all="ignore"):
            array = curve.eval(points)
        scalar = []
        for t in points:
            try:
                scalar.append(curve.eval(float(t)))
            except DomainError:
                scalar.append(np.nan)
        scalar = np.array(scalar)
        finite = np.isfinite(scalar) & np.isfinite(array)
        bound = type(curve).eval_array_ulps * 2.0**-53 * (np.abs(scalar) + 2.0 * abs(offset))
        assert (np.abs(array - scalar) <= bound)[finite].all(), curve
        checked += int(finite.sum())
    assert checked > 30000


def _enclosure_curves(family, rng):
    """(curve, lo, hi, extra points) for the enclosure checks: random curves
    of the family, and the hard cases: tabulated cells that straddle knots
    and knot cells narrower than a scan step, power and log-affine curves
    whose shifted point nears 0 at lo, steep exp-affine curves and
    polynomials far from 0."""
    cases = []
    for _ in range(16):
        lo = float(rng.uniform(-2.0, 2.0))
        hi = lo + float(rng.uniform(0.1, 3.0))
        a, b = (float(x) for x in rng.normal(size=2) * 10.0 ** rng.integers(-3, 4, size=2))
        if family == "polynomial":
            curve = Polynomial(tuple(rng.normal(size=int(rng.integers(1, 8)))
                                     * 10.0 ** rng.integers(-2, 3)))
        elif family == "exp-affine":
            curve = ExpAffine(a, b, float(rng.uniform(-30.0, 30.0)) / (abs(lo) + abs(hi)))
        elif family in ("log-affine", "power"):
            # t + shift runs from 10^-k, near the domain's edge, to ~hi - lo
            shift = 10.0 ** -float(rng.integers(1, 13)) - lo
            curve = (LogAffine(a, b, shift) if family == "log-affine"
                     else Power(b, float(rng.uniform(-2.5, 3.5)), shift))
        else:
            inner = rng.uniform(lo, hi, int(rng.integers(1, 12)))
            # a knot cell narrower than a scan step, and one far narrower
            spike = float(rng.uniform(lo, hi - 0.1))
            inner = np.concatenate([inner, [spike, spike + 1e-5, spike + 2e-5, spike + 3e-12]])
            knots = np.unique(np.concatenate([[lo, hi], inner]))
            values = rng.uniform(-1.0, 1.0, knots.size) * 10.0 ** float(rng.integers(-3, 4))
            curve = Tabulated(tuple(knots), tuple(values))
        cases.append((curve, lo, hi))
    if family == "polynomial":
        cases.append((Polynomial((3.0, -2.0, 0.5, -0.01)), 1e3, 1e3 + 1.0))
        cases.append((Polynomial((0.03515625, 0.625, 1.375, -2.0, 1.0)), 0.0, 1.0))
    if family == "power":
        cases.append((Power(1.5, 0.5, 1e-300), 0.0, 1.0))
    return cases


FAMILIES = ["polynomial", "exp-affine", "log-affine", "power", "tabulated"]


def _enclosure_points(family, rng):
    """(curve, edges, t, below, above) per case of _enclosure_curves: the
    cell edges, 10^5 points in all (random ones, the edges and the knots,
    each also 1 ulp to either side), and the cell below and above each
    point, the same cell but at an edge."""
    for curve, lo, hi in _enclosure_curves(family, rng):
        edges = EffortTables(EffortInterval(lo, hi)).grid(CELLS + 1)
        points = [rng.uniform(lo, hi, 6000), edges, np.nextafter(edges, lo), np.nextafter(edges, hi)]
        if family == "tabulated":
            knots = np.array(curve.knots)
            points += [knots, np.nextafter(knots, lo), np.nextafter(knots, hi)]
        t = np.clip(np.concatenate(points), lo, hi)
        below = np.clip(np.searchsorted(edges, t, side="left") - 1, 0, CELLS - 1)
        above = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, CELLS - 1)
        yield curve, edges, t, below, above


@pytest.mark.parametrize("family", FAMILIES)
def test_eval_lies_in_the_enclosure_of_its_cell(family):
    """Every scalar and array eval at 10^5 points lies in the padded
    enclosure of each cell that holds the point (both at a cell edge)."""
    rng = np.random.default_rng(FAMILIES.index(family) + 6464)
    checked = 0
    for curve, edges, t, below, above in _enclosure_points(family, rng):
        low, high = curve.enclosure(edges)
        assert np.isfinite(low).all() and np.isfinite(high).all(), curve
        assert (low <= high).all()
        for values in (curve.eval(t), np.array([curve.eval(float(x)) for x in t])):
            for cell in (below, above):
                inside = (low[cell] <= values) & (values <= high[cell])
                assert inside.all(), (curve, t[~inside][:3], values[~inside][:3])
        checked += len(t)
    assert checked >= 10**5


@pytest.mark.parametrize("family", FAMILIES)
def test_d1_lies_in_the_slope_enclosure_of_its_cell(family):
    """Every scalar and array d1 at 10^5 points lies in the padded slope
    enclosure of each cell that holds the point, and eval there lies below
    the first-order bound from either edge of the cell: eval at the edge,
    plus the enclosure's slope toward the point times the distance, plus
    twice the cell's error (the bound principal._cells prunes by)."""
    rng = np.random.default_rng(FAMILIES.index(family) + 6464)
    checked = 0
    for curve, edges, t, below, above in _enclosure_points(family, rng):
        low, high, error = curve.slope_enclosure(edges)
        assert np.isfinite(low).all() and np.isfinite(high).all() and np.isfinite(error).all(), curve
        assert (low <= high).all() and (error >= 0.0).all()
        for values in (curve.d1(t), np.array([curve.d1(float(x)) for x in t])):
            for cell in (below, above):
                inside = (low[cell] <= values) & (values <= high[cell])
                assert inside.all(), (curve, t[~inside][:3], values[~inside][:3])
        at_edges = np.array([curve.eval(float(x)) for x in edges])
        values = np.array([curve.eval(float(x)) for x in t])
        for cell in (below, above):
            rise = at_edges[cell] + np.maximum(high[cell], 0.0) * (t - edges[cell])
            fall = at_edges[cell + 1] + np.maximum(-low[cell], 0.0) * (edges[cell + 1] - t)
            under = values <= np.minimum(rise, fall) + 2.0 * error[cell]
            assert under.all(), (curve, t[~under][:3])
        checked += len(t)
    assert checked >= 10**5


def test_slope_enclosures_are_tight():
    """Up to the padding, the slope bounds are d1's exact range: at the
    cell ends for a monotone d1, and at the vertex too for a tabulated
    piece whose d1 peaks inside a cell."""
    edges = EffortTables(EffortInterval(0.0, 1.0)).grid(CELLS + 1)
    for curve in (Polynomial((0.2, 0.5, -1.0)), ExpAffine(0.3, -0.2, -1.0), Power(2.0, 2.5, 0.5),
                  LogAffine(0.1, 2.0, 0.5)):
        low, high, _ = curve.slope_enclosure(edges)
        ends = curve.d1(edges)
        assert np.max(np.abs(low - np.minimum(ends[:-1], ends[1:]))) < 1e-13
        assert np.max(np.abs(high - np.maximum(ends[:-1], ends[1:]))) < 1e-13
    # the piece on [1, 2] rises from 0 to 1 with end slopes 0: its d1,
    # 6 s (1 - s), peaks at 1.5 at e = 1.5, inside a cell
    curve = Tabulated((0.0, 1.0, 2.0, 3.0), (0.0, 0.0, 1.0, 1.0))
    edges = EffortTables(EffortInterval(1.1, 2.0)).grid(CELLS + 1)
    low, high, _ = curve.slope_enclosure(edges)
    cell = np.searchsorted(edges, 1.5) - 1
    assert edges[cell] < 1.5 < edges[cell + 1] and curve.d1(1.5) == 1.5
    assert 1.5 <= high[cell] < 1.5 + 1e-12 and high[cell] > max(curve.d1(edges[cell:cell + 2]))


def test_enclosures_are_tight_for_monotone_and_polynomial_cells():
    """The bounds are those of the exact range up to the padding: at most a
    few ulps wider for monotone curves and Horner's on a linear piece.  A
    tabulated curve's cells split at its knots into monotone parts, so its
    range is the hull of eval at the part ends."""
    edges = EffortTables(EffortInterval(0.0, 1.0)).grid(CELLS + 1)
    curves = (
        Polynomial((0.2, 0.5)), ExpAffine(0.3, -0.2, -1.0), Power(2.0, 2.0, 0.0),
        Tabulated((0.0, 0.3, 0.55, 1.0), (0.1, 0.35, 0.4, 0.9)),
        # a maximum at the knot 0.3, inside a cell
        Tabulated((0.0, 0.3, 0.7, 1.0), (0.2, 0.6, 0.3, 0.35)),
    )
    for curve in curves:
        low, high = curve.enclosure(edges)
        inner = [k for k in getattr(curve, "knots", ()) if edges[0] < k < edges[-1]]
        assert not np.isin(inner, edges).any()
        points = np.union1d(edges, inner)
        ends = curve.eval(points)
        starts = np.searchsorted(points, edges[:-1])
        exact_low = np.minimum.reduceat(np.minimum(ends[:-1], ends[1:]), starts)
        exact_high = np.maximum.reduceat(np.maximum(ends[:-1], ends[1:]), starts)
        assert (low <= exact_low).all() and (high >= exact_high).all()
        assert np.max(high - exact_high) < 1e-13 and np.max(exact_low - low) < 1e-13
    # the last curve's maximum lies above both edges of its cell, inside the bound
    cell = np.searchsorted(edges, 0.3) - 1
    assert high[cell] >= curve.eval(0.3) > max(curve.eval(edges[cell : cell + 2]))


def test_no_stated_error_no_enclosure():
    """A class of no stated error, and a family subclass with its own eval, have no enclosure."""

    class Other(Curve):
        def eval(self, t):
            return 0.0 * t

    class Shifted(Polynomial):
        def eval(self, t):
            return super().eval(t) + 1.0

    class NoSlopeError(Polynomial):
        d1_ulps = np.inf

    edges = EffortTables(EffortInterval(0.0, 1.0)).grid(CELLS + 1)
    assert Other().enclosure(edges) is None
    assert Shifted((0.0, 1.0)).enclosure(edges) is None
    assert Polynomial((0.0, 1.0)).enclosure(edges) is not None
    # a slope enclosure also needs a stated d1 error (tests/test_tables.py
    # checks a subclass with its own d1)
    for curve in (Other(), Shifted((0.0, 1.0)), NoSlopeError((0.0, 1.0))):
        assert curve.slope_enclosure(edges) is None
    assert NoSlopeError((0.0, 1.0)).enclosure(edges) is not None
    assert Polynomial((0.0, 1.0)).slope_enclosure(edges) is not None


@pytest.mark.parametrize(
    "curve, lo, hi",
    [
        (ExpAffine(0.0, 1.0, 800.0), 0.0, 1.0),  # math.exp overflows near hi
        (LogAffine(0.0, 1.0, -0.5), 0.0, 1.0),  # t + c <= 0 on the lower half
        (Power(1.0, 0.5, 0.0), 0.0, 1.0),  # d1 is singular at t + c == 0
        (Power(1.0, 400.0, 1e2), 0.0, 1.0),  # (t + c)**gamma overflows
        (Tabulated((0.0, 0.5, 0.9), (0.0, 1.0, 0.5)), 0.0, 1.0),  # no knots above 0.9
    ],
)
def test_enclosure_is_nan_where_a_scalar_call_could_raise(curve, lo, hi):
    edges = EffortTables(EffortInterval(lo, hi)).grid(CELLS + 1)
    low, high = curve.enclosure(edges)
    assert np.isnan(low).all() and np.isnan(high).all()
    assert np.isnan(curve.slope_enclosure(edges)).all()
