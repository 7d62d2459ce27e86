"""One-dimensional curve families with analytic first and second derivatives.

These curves carry all scalar functions of the model: the agent's wage
utility u, the agent's effort cost v, the principal's utility B, and the
per-outcome probability components of an effort profile.  Every family
evaluates on scalars and on numpy arrays; derivatives come from the family
formula, never from numerical differencing.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "Curve",
    "Polynomial",
    "ExpAffine",
    "LogAffine",
    "Power",
    "Tabulated",
]


def _exp(t):
    if isinstance(t, np.ndarray):
        return np.exp(t)
    try:
        return math.exp(t)
    except OverflowError as err:
        raise DomainError(f"exp({t}) overflows") from err


def _finite(t: np.ndarray) -> bool:
    """Whether t is a 1-D float64 array of finite values, by the sum of its
    squares (a huge finite value can make it infinite too: then False)."""
    return t.ndim == 1 and t.dtype == np.float64 and math.isfinite(t.dot(t))


def _log(t):
    return np.log(t) if isinstance(t, np.ndarray) else math.log(t)


class Curve:
    """Base class; subclasses implement eval/d1/d2 and a ``family`` tag.

    ``d1_array_ulps`` bounds how many ulps d1 on a numpy array may lie from
    the scalar call at the same point, and ``eval_array_ulps`` the same for
    eval, in units of 2^-53 (|eval| + 2 |offset|), offset the curve's
    additive term (tests/test_curves.py checks both); 0 means the same
    bits, and infinite that nothing is known.  Each describes its family's
    own method: a subclass that
    overrides the method inherits the number, not the claim
    (``has_family_methods``).
    ``eval_ulps`` is the float error of eval that ``enclosure`` pads by, in
    ulps of the cell's scale (see ``_range``), and ``d1_ulps`` that of d1
    that ``slope_enclosure`` pads by (see ``_slope_range``); a class that
    states none (infinite) has no enclosure of that kind.
    """

    family: str = "abstract"
    d1_array_ulps: float = math.inf
    eval_array_ulps: float = math.inf
    eval_ulps: float = math.inf
    d1_ulps: float = math.inf

    def enclosure(self, edges: np.ndarray):
        """(low, high) per cell [edges[k], edges[k + 1]]: every float eval
        returns on the cell, scalar or array, lies in [low[k], high[k]].

        The bounds come from ``_range``, padded outward by eval_ulps ulps
        of its scale.  They are NaN throughout when a scalar eval or d1
        call could raise somewhere in [edges[0], edges[-1]], or an edge is
        not above the one before it; None for a class of no stated error,
        or a subclass whose eval or d1 is not its family's.
        """
        return self.enclosures(edges)[0]

    def slope_enclosure(self, edges: np.ndarray):
        """(low, high, error) per cell: every float d1 returns on the cell,
        scalar or array, lies in [low[k], high[k]]; so does the slope of F,
        the family's formula in exact arithmetic on the curve's
        parameters, wherever F has one on the cell, and F is continuous
        there; and every float eval returns at a point t of the cell lies
        within error[k] of F(t).  All to first order in u = 2^-53.

        low and high come from ``_slope_range``, padded outward by d1_ulps
        ulps of its scale.  error is eval's pad in ``enclosure`` plus
        2 u reach max(|low|, |high|): rounding eval's argument (c t, or
        t + c) moves the point F is evaluated at by at most u reach.  NaN
        and None as ``enclosure`` is, and None where d1_ulps is infinite.
        """
        return self.enclosures(edges)[1]

    def enclosures(self, edges: np.ndarray):
        """(enclosure(edges), slope_enclosure(edges)) from one pass over the cells."""
        if not math.isfinite(self.eval_ulps) or not self.has_family_methods("eval", "d1"):
            return None, None
        slopes = math.isfinite(self.d1_ulps)
        edges = np.asarray(edges, dtype=float)
        with np.errstate(all="ignore"):
            try:
                if not (edges[1:] > edges[:-1]).all():
                    raise DomainError("cell edges must increase")
                low, high, scale = self._range(edges)
                d1_low, d1_high, d1_scale, reach = self._slope_range(edges) if slopes else (0.0,) * 4
            except (DomainError, ArithmeticError):
                low = high = scale = d1_low = d1_high = d1_scale = reach = np.full(len(edges) - 1, np.nan)
            error = self.eval_ulps * 2.0**-53 * scale
            bounds = np.nextafter(low - error, -np.inf), np.nextafter(high + error, np.inf)
            if not slopes:
                return bounds, None
            pad = self.d1_ulps * 2.0**-53 * d1_scale
            d1_low, d1_high = np.nextafter(d1_low - pad, -np.inf), np.nextafter(d1_high + pad, np.inf)
            error = (error + 2.0**-52 * reach * np.maximum(-d1_low, d1_high)) * (1.0 + 2.0**-40)
            return bounds, (d1_low, d1_high, error)

    def has_family_methods(self, *names: str) -> bool:
        """Whether each named method ("eval", "d1" or "d2") of this curve's
        class is its family's own, the family being the nearest class in
        its MRO that defines ``_range``.

        What a family states of a method (d1_array_ulps, eval_array_ulps,
        eval_ulps, d1_ulps) and what rests on it hold only then.
        """
        cls = type(self)
        family = next(c for c in cls.__mro__ if "_range" in vars(c))
        return all(getattr(cls, name) is getattr(family, name) for name in names)

    def _range(self, edges: np.ndarray):
        """(low, high, scale) per cell before padding; raises where a scalar call could."""
        raise NotImplementedError

    def _slope_range(self, edges: np.ndarray):
        """(low, high, scale, reach) of d1 per cell before padding, after _range."""
        raise NotImplementedError

    def _monotone_range(self, edges: np.ndarray, offset: float):
        """_range of a curve whose computed eval is a monotone function of the
        point up to its one library call (exp, log or pow), offset its
        additive term.  So is whether a scalar call raises: one raises
        somewhere only if at an end, where each is made once (numpy's calls
        do not raise on overflow).  The cells' end values come from one
        array call, widened by eval_array_ulps of the scale 2|offset| +
        their larger magnitude, to hold the scalar calls' values."""
        self.eval(float(edges[0]))
        self.eval(float(edges[-1]))
        values = self.eval(edges)
        left, right = values[:-1], values[1:]
        scale = 2.0 * abs(offset) + np.maximum(np.abs(left), np.abs(right))
        slack = self.eval_array_ulps * 2.0**-53 * scale
        low = np.nextafter(np.minimum(left, right) - slack, -np.inf)
        return low, np.nextafter(np.maximum(left, right) + slack, np.inf), scale

    def _monotone_slopes(self, edges: np.ndarray, factor, reach):
        """_slope_range of a curve whose computed d1 is monotone as eval is
        (_monotone_range): d1 at the cell's ends, one array call, within
        d1_array_ulps of the scalar calls, none of which raises once _range
        has not; the scale is factor times their larger magnitude."""
        values = self.d1(edges)
        left, right = values[:-1], values[1:]
        scale = factor * np.maximum(np.abs(left), np.abs(right))
        return np.minimum(left, right), np.maximum(left, right), scale, reach

    def eval(self, t):
        raise NotImplementedError

    def d1(self, t):
        raise NotImplementedError

    def d2(self, t):
        raise NotImplementedError

    def __call__(self, t):
        return self.eval(t)


@dataclass(frozen=True)
class Polynomial(Curve):
    """c0 + c1*t + ... + ck*t^k, evaluated by Horner's rule."""

    coefficients: tuple[float, ...]
    _d1: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _d2: tuple[float, ...] = field(init=False, repr=False, compare=False)
    family = "polynomial"
    d1_array_ulps = 0.0
    eval_array_ulps = 0.0

    @property
    def eval_ulps(self) -> float:
        """Horner's rule rounds twice per coefficient."""
        return 2.0 * len(self.coefficients) + 4.0

    @property
    def d1_ulps(self) -> float:
        """Horner's rule on j c_j, each product rounded once."""
        return 2.0 * len(self._d1) + 4.0

    def __post_init__(self):
        if len(self.coefficients) == 0:
            raise ValueError("polynomial needs at least one coefficient")
        coeffs = tuple(float(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        d1 = tuple(j * c for j, c in enumerate(coeffs))[1:] or (0.0,)
        d2 = tuple(j * (j - 1) * c for j, c in enumerate(coeffs))[2:] or (0.0,)
        object.__setattr__(self, "_d1", d1)
        object.__setattr__(self, "_d2", d2)

    def _horner(self, coeffs, t):
        """Horner's rule from 0.0: acc = acc * t + c for c_k, ..., c_0.

        On a 1-D float64 array t of finite values, with c_k not zero and a
        step after it, the first step is skipped: 0.0 * t is then a signed
        zero, and a zero plus c_k is c_k exactly.  Elsewhere the step stays:
        with c_k = -0.0 it gives +0.0 where t >= 0, at an infinite t a NaN,
        in float32 c_k may round to a zero, and a one-coefficient
        polynomial needs it for an array of t's shape.  Scalars take it
        too, which costs less than a test would.
        """
        acc = 0.0
        if type(t) is np.ndarray and len(coeffs) > 1 and coeffs[-1] != 0.0 and _finite(t):
            acc, coeffs = t * coeffs[-1] + coeffs[-2], coeffs[:-2]
        for c in reversed(coeffs):
            acc = acc * t + c
        return acc

    def eval(self, t):
        return self._horner(self.coefficients, t)

    def d1(self, t):
        return self._horner(self._d1, t)

    def d2(self, t):
        return self._horner(self._d2, t)

    def _range(self, edges, coefficients=None):
        """Interval Horner on each cell, every bound rounded outward; the
        scale is Horner's rule on |c_j| at the cell's largest |t|."""
        coefficients = coefficients or self.coefficients
        a, b = edges[:-1], edges[1:]
        low = high = np.zeros(len(a))
        for c in reversed(coefficients):
            products = (low * a, low * b, high * a, high * b)
            low = np.nextafter(np.nextafter(np.minimum.reduce(products), -np.inf) + c, -np.inf)
            high = np.nextafter(np.nextafter(np.maximum.reduce(products), np.inf) + c, np.inf)
        return low, high, self._horner([abs(c) for c in coefficients], np.maximum(-a, b))

    def _slope_range(self, edges):
        """_range of the polynomial d1 evaluates, whose coefficients j c_j
        are rounded by at most 1 ulp of the scale; eval's argument is exact."""
        return (*self._range(edges, self._d1), 0.0)

    def degree(self) -> int:
        """Effective degree: index of the last nonzero coefficient."""
        for j in range(len(self.coefficients) - 1, -1, -1):
            if self.coefficients[j] != 0.0:
                return j
        return 0


@dataclass(frozen=True)
class ExpAffine(Curve):
    """a + b * exp(c * t); defined on all reals."""

    a: float
    b: float
    c: float
    family = "exp-affine"
    d1_array_ulps = 2.0
    # exp's 2 ulps, then b's product and a's sum, each rounded on both sides
    eval_array_ulps = 8.0
    eval_ulps = 16.0
    d1_ulps = 16.0

    def eval(self, t):
        return self.a + self.b * _exp(self.c * t)

    def d1(self, t):
        return self.b * self.c * _exp(self.c * t)

    def d2(self, t):
        return self.b * self.c * self.c * _exp(self.c * t)

    def _range(self, edges):
        # d1 calls the same exp as eval, so it raises only where eval does
        return self._monotone_range(edges, self.a)

    def _slope_range(self, edges):
        # rounding c t moves exp by up to |c t| ulps
        reach = np.maximum(-edges[:-1], edges[1:])
        return self._monotone_slopes(edges, 1.0 + abs(self.c) * reach, reach)


@dataclass(frozen=True)
class LogAffine(Curve):
    """a + b * ln(t + c); requires t + c > 0."""

    a: float
    b: float
    c: float
    family = "log-affine"
    d1_array_ulps = 0.0
    # log's 2 ulps, then b's product and a's sum, as exp-affine
    eval_array_ulps = 8.0
    eval_ulps = 16.0
    d1_ulps = 16.0

    def _shifted(self, t):
        z = t + self.c
        if isinstance(z, np.ndarray):
            if np.any(z <= 0.0):
                raise DomainError(
                    f"log-affine curve needs t + {self.c} > 0; "
                    f"min shifted value {z.min()}"
                )
        elif z <= 0.0:
            raise DomainError(
                f"log-affine curve needs t + {self.c} > 0; got t={t}"
            )
        return z

    def eval(self, t):
        return self.a + self.b * _log(self._shifted(t))

    def d1(self, t):
        return self.b / self._shifted(t)

    def d2(self, t):
        z = self._shifted(t)
        return -self.b / (z * z)

    def _range(self, edges):
        # d1 is one division of the same shifted point: it raises only where eval does
        return self._monotone_range(edges, self.a)

    def _slope_range(self, edges):
        # rounding t + c moves b / (t + c) by 1 ulp
        return self._monotone_slopes(edges, 1.0, edges[1:] + self.c)


@dataclass(frozen=True)
class Power(Curve):
    """a * (t + c)**gamma; requires t + c >= 0.

    Derivatives at t + c == 0 exist only when the differentiated exponent
    stays nonnegative; otherwise the point is rejected as outside the
    derivative's domain.
    """

    a: float
    gamma: float
    c: float
    family = "power"
    d1_array_ulps = 2.0
    # pow's 2 ulps, then a's product, rounded on both sides
    eval_array_ulps = 6.0
    eval_ulps = 16.0
    d1_ulps = 16.0

    def _power(self, t, exponent):
        """(t + c)**exponent, checked against the domain."""
        z = t + self.c
        if isinstance(z, np.ndarray):
            if np.any(z < 0.0):
                raise DomainError(
                    f"power curve needs t + {self.c} >= 0; min {z.min()}"
                )
            if exponent < 0.0 and np.any(z == 0.0):
                raise DomainError(
                    f"power curve with exponent {exponent} is singular "
                    f"at t + {self.c} == 0"
                )
        else:
            if z < 0.0:
                raise DomainError(
                    f"power curve needs t + {self.c} >= 0; got t={t}"
                )
            if exponent < 0.0 and z == 0.0:
                raise DomainError(
                    f"power curve with exponent {exponent} is singular "
                    f"at t + {self.c} == 0"
                )
        try:
            return z**exponent
        except OverflowError as err:
            raise DomainError(f"({z}) ** {exponent} overflows") from err

    def eval(self, t):
        return self.a * self._power(t, self.gamma)

    def d1(self, t):
        if self.gamma == 0.0:
            return np.zeros_like(t, dtype=float) if isinstance(t, np.ndarray) else 0.0
        return self.a * self.gamma * self._power(t, self.gamma - 1.0)

    def d2(self, t):
        if self.gamma == 0.0 or self.gamma == 1.0:
            return np.zeros_like(t, dtype=float) if isinstance(t, np.ndarray) else 0.0
        return self.a * self.gamma * (self.gamma - 1.0) * self._power(t, self.gamma - 2.0)

    def _range(self, edges):
        # d1's power of t + c is monotone too, so it raises somewhere only if at an end
        self.d1(float(edges[0]))
        self.d1(float(edges[-1]))
        return self._monotone_range(edges, 0.0)

    def _slope_range(self, edges):
        # rounding t + c moves (t + c)**(gamma - 1) by up to |gamma - 1| ulps
        return self._monotone_slopes(edges, 1.0 + abs(self.gamma - 1.0), edges[1:] + self.c)


@dataclass(frozen=True)
class Tabulated(Curve):
    """Monotone cubic Hermite interpolant through (knot, value) pairs.

    Slopes follow the Fritsch-Carlson construction (weighted harmonic mean
    at interior knots, shape-limited three-point rule at the ends), so the
    interpolant is C1 and overshoot-free on monotone data.  The second
    derivative is piecewise linear and may jump at knots.  Evaluation
    outside the knot range is an error; there is no extrapolation.
    """

    knots: tuple[float, ...]
    values: tuple[float, ...]
    slopes: tuple[float, ...] = field(init=False, repr=False, compare=False)
    # for numpy arguments, one row per cell quantity: x_k, y_k, y_k+1,
    # h = x_k+1 - x_k, h*m_k and h*m_k+1 (one array keeps the memory small)
    _cells: np.ndarray = field(init=False, repr=False, compare=False)
    family = "tabulated"
    d1_array_ulps = 0.0
    eval_array_ulps = 0.0
    eval_ulps = 64.0
    d1_ulps = 64.0

    def __post_init__(self):
        knots = tuple(float(k) for k in self.knots)
        values = tuple(float(v) for v in self.values)
        if len(knots) < 3:
            raise ValueError("tabulated curve needs at least 3 knots")
        if len(knots) != len(values):
            raise ValueError("knots and values must have equal length")
        if any(b <= a for a, b in zip(knots, knots[1:])):
            raise ValueError("knot abscissae must be strictly increasing")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        slopes = self._fritsch_carlson(knots, values)
        if not all(map(math.isfinite, slopes)):
            raise ValueError("knots and values give knot slopes that are not finite")
        object.__setattr__(self, "slopes", slopes)
        x, y, m = np.array((knots, values, slopes))
        h = x[1:] - x[:-1]
        cells = np.array([x[:-1], y[:-1], y[1:], h, h * m[:-1], h * m[1:]])
        cells.flags.writeable = False
        object.__setattr__(self, "_cells", cells)

    @staticmethod
    def _fritsch_carlson(x, y):
        n = len(x)
        h = [x[k + 1] - x[k] for k in range(n - 1)]
        d = [(y[k + 1] - y[k]) / h[k] for k in range(n - 1)]
        m = [0.0] * n
        for k in range(1, n - 1):
            if not d[k - 1] * d[k] > 0.0:  # opposite signs, a zero, or nan
                m[k] = 0.0
            else:
                w1 = 2.0 * h[k] + h[k - 1]
                w2 = h[k] + 2.0 * h[k - 1]
                harmonic = w1 / d[k - 1] + w2 / d[k]
                m[k] = (w1 + w2) / harmonic if harmonic else math.inf

        def edge(h0, h1, d0, d1):
            slope = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
            if slope * d0 <= 0.0:
                return 0.0
            if d0 * d1 < 0.0 and abs(slope) > 3.0 * abs(d0):
                return 3.0 * d0
            return slope

        m[0] = edge(h[0], h[1], d[0], d[1])
        m[-1] = edge(h[-1], h[-2], d[-1], d[-2])
        return tuple(m)

    def _check_range(self, t):
        lo, hi = self.knots[0], self.knots[-1]
        if isinstance(t, np.ndarray):
            if np.any(t < lo) or np.any(t > hi):
                raise DomainError(
                    f"tabulated curve defined on [{lo}, {hi}]; "
                    "no extrapolation"
                )
        elif t < lo or t > hi:
            raise DomainError(
                f"tabulated curve defined on [{lo}, {hi}]; got t={t}"
            )

    def _pieces(self, t):
        """(y_k, y_k+1, h*m_k, h*m_k+1, h, s) of the cells of t, s = (t - x_k) / h.

        The range check makes k >= 0.  For arrays k is found among the
        cells' left ends, which puts the top knot in the last cell.
        """
        self._check_range(t)
        if isinstance(t, np.ndarray):
            cells = self._cells
            k = np.searchsorted(cells[0], t, side="right") - 1
            x0, y0, y1, h, hm0, hm1 = cells.take(k, axis=1)
            return y0, y1, hm0, hm1, h, (t - x0) / h
        k = min(bisect_right(self.knots, t) - 1, len(self.knots) - 2)
        h = self.knots[k + 1] - self.knots[k]
        return (
            self.values[k],
            self.values[k + 1],
            h * self.slopes[k],
            h * self.slopes[k + 1],
            h,
            (t - self.knots[k]) / h,
        )

    @staticmethod
    def _value(y0, y1, hm0, hm1, h, s):
        s2 = s * s
        s3 = s2 * s
        return (
            y0 * (2.0 * s3 - 3.0 * s2 + 1.0)
            + hm0 * (s3 - 2.0 * s2 + s)
            + y1 * (-2.0 * s3 + 3.0 * s2)
            + hm1 * (s3 - s2)
        )

    @staticmethod
    def _slope(y0, y1, hm0, hm1, h, s):
        s2 = s * s
        return (
            y0 * (6.0 * s2 - 6.0 * s)
            + hm0 * (3.0 * s2 - 4.0 * s + 1.0)
            + y1 * (-6.0 * s2 + 6.0 * s)
            + hm1 * (3.0 * s2 - 2.0 * s)
        ) / h

    @staticmethod
    def _curvature(y0, y1, hm0, hm1, h, s):
        return (
            y0 * (12.0 * s - 6.0)
            + hm0 * (6.0 * s - 4.0)
            + y1 * (-12.0 * s + 6.0)
            + hm1 * (6.0 * s - 2.0)
        ) / (h * h)

    def eval(self, t):
        return self._value(*self._pieces(t))

    def d1(self, t):
        return self._slope(*self._pieces(t))

    def d2(self, t):
        return self._curvature(*self._pieces(t))

    def sorted_orders(self, t: np.ndarray, step: int):
        """(eval at t, d1 at t[::step], d2 at t[::step]) for an array t sorted
        ascending, each bit for bit the per-method call, from one lookup of
        the pieces: a point's cell is fixed by how many left ends lie at or
        below it, and the formulas are elementwise, so a strided view
        rounds as a fresh array does.  Raises as eval(t) does.
        """
        if t[0] < self.knots[0] or t[-1] > self.knots[-1]:  # sorted, so the ends decide
            self._check_range(t)
        cells = self._cells
        # range-checked, so no point lies below the first left end
        counts = np.diff(np.searchsorted(t, cells[0], side="left"), append=len(t))
        x0, y0, y1, h, hm0, hm1 = np.repeat(cells, counts, axis=1)
        pieces = (y0, y1, hm0, hm1, h, (t - x0) / h)
        strided = [p[::step] for p in pieces]
        return self._value(*pieces), self._slope(*strided), self._curvature(*strided)

    def _parts(self, edges):
        """(points, starts, pieces): every cell split at the knots inside it,
        as the sorted points of the cells' edges and those knots, the first
        point of each cell, and the _cells columns of each part's piece."""
        self._check_range(edges)
        knots = np.array(self.knots)
        points = np.sort(np.concatenate([edges, knots[(knots > edges[0]) & (knots < edges[-1])]]))
        points = points[np.concatenate([[True], points[1:] != points[:-1]])]
        k = np.searchsorted(self._cells[0], points[:-1], side="right") - 1
        return points, np.searchsorted(points, edges[:-1]), self._cells.take(k, axis=1)

    def _range(self, edges):
        """Each cell split at the knots, each part bounded by eval at its two
        ends; the scale is the piece's |y_k| + |y_k+1| + |h m_k| + |h m_k+1|,
        not the values, which can cancel.

        Each piece is monotone: one whose alpha = m_k / d_k and
        beta = m_k+1 / d_k lie in [0, 3], d_k its secant slope, is (Fritsch
        and Carlson 1980, SIAM J. Numer. Anal. 17(2)), and _fritsch_carlson's
        slopes keep them there up to 1 ulp of rounding, so up to O(u) of the
        scale.  s is a monotone function of the point and array eval is the
        scalar call bit for bit, so every value eval returns on a part lies
        between those at its ends, up to eval's error: at most 5 ulps of the
        scale against long double, which the pad of eval_ulps covers at both
        ends.  (A part's upper end at a knot takes the next piece, y_k+1,
        within O(u) of this one's.)  Against F, the piece in exact s = (t -
        x_k) / (x_k+1 - x_k), the rounding of s adds at most 5 ulps more.
        """
        points, starts, (_, y0, y1, _, hm0, hm1) = self._parts(edges)
        values = self.eval(points)
        left, right = values[:-1], values[1:]
        scale = np.abs(y0) + np.abs(y1) + np.abs(hm0) + np.abs(hm1)
        return (np.minimum.reduceat(np.minimum(left, right), starts),
                np.maximum.reduceat(np.maximum(left, right), starts),
                np.maximum.reduceat(scale, starts))

    def _slope_range(self, edges):
        """_range's parts, each bounded by its piece's d1, a quadratic
        q(s) / h, at the part's two ends and at q's vertex where it lies
        between them; the scale is 6 (|y_k| + |y_k+1| + |h m_k| + |h m_k+1|)
        / h, which bounds q's terms and, times a few ulps, the rounding of
        s and of q."""
        points, starts, (x0, y0, y1, h, hm0, hm1) = self._parts(edges)
        ends = (points[:-1] - x0) / h, (points[1:] - x0) / h
        a = 6.0 * (y0 - y1) + 3.0 * (hm0 + hm1)  # q(s) = a s^2 + b s + h m_k
        b = 6.0 * (y1 - y0) - 4.0 * hm0 - 2.0 * hm1
        vertex = np.clip(np.where(a != 0.0, -b / (2.0 * a), ends[0]), *ends)
        slopes = [self._slope(y0, y1, hm0, hm1, h, s) for s in (*ends, vertex)]
        scale = 6.0 * (np.abs(y0) + np.abs(y1) + np.abs(hm0) + np.abs(hm1)) / h
        return (np.minimum.reduceat(np.minimum.reduce(slopes), starts),
                np.maximum.reduceat(np.maximum.reduce(slopes), starts),
                np.maximum.reduceat(scale, starts), 0.0)
