"""The effort grids, and the curves of one scenario on them, evaluated once.

The agent-side entry points ask several questions of the same curves on
the same few effort grids: the optimum of E, its motivation, its
persistence, whether the profile reacts to effort, and whether the
scenario is valid.  Every grid is a strided view of one dense scan, and
each curve's eval, d1 and d2 is evaluated once, on the finest grid it is
read on; a tabulated curve's three together, from one lookup of its
pieces on the scan.  The scan is also split into CELLS equal cells, and
each curve's enclosures on them (Curve.enclosure, Curve.slope_enclosure)
are computed once.
effort_tables keeps the tables of the most recent scenario only, so
consecutive calls on one scenario share them while memory stays at one
scenario's worth; a next scenario of the same interval starts with the
entries of its curves that equal a held one.
"""

from __future__ import annotations

import dataclasses
import struct
import weakref

import numpy as np

from .curves import ExpAffine, LogAffine, Polynomial, Power, Tabulated

__all__ = ["SCAN_GRID_POINTS", "VALIDATION_GRID_POINTS", "MT_GRID_POINTS", "CELLS",
           "EffortTables", "effort_tables"]

SCAN_GRID_POINTS = 4097        # dense value scan for local maxima
VALIDATION_GRID_POINTS = 2049  # validation, persistence and the analyzers: scan[::2]
MT_GRID_POINTS = 1025          # bracketing grid for motivation roots: scan[::4]
CELLS = 256                    # equal cells of the scan, whose CELLS + 1 edges are scan[::16]

# each grid's stride over the scan, and the grid eval, d1 and d2 are filled on
_STRIDES = {SCAN_GRID_POINTS: 1, VALIDATION_GRID_POINTS: 2, MT_GRID_POINTS: 4,
            CELLS + 1: (SCAN_GRID_POINTS - 1) // CELLS}
_FILLS = (SCAN_GRID_POINTS, VALIDATION_GRID_POINTS, VALIDATION_GRID_POINTS)
_ORDERS = ("eval", "d1", "d2")
_FAMILIES = (Polynomial, ExpAffine, LogAffine, Power, Tabulated)


def _identity(curve):
    """(class, the bits of its init fields) of a curve of exactly one of the
    five family classes whose fields are floats or tuples of floats, else
    None.  Two curves of one identity evaluate alike, bit for bit; -0.0
    and 0.0 differ."""
    cls = type(curve)
    if cls not in _FAMILIES:
        return None
    fields = []
    for field in dataclasses.fields(cls):
        if field.init:
            value = getattr(curve, field.name)
            items = value if type(value) is tuple else (value,)
            if not all(type(x) is float for x in items):
                return None
            fields.append(struct.pack(f"<{len(items)}d", *items))
    return cls, tuple(fields)


class EffortTables:
    """The effort grids over one interval and curve arrays on them, filled on first use.

    ``grid(points)`` is the grid of SCAN_GRID_POINTS, VALIDATION_GRID_POINTS,
    MT_GRID_POINTS or CELLS + 1 points (the cell edges), a view of the
    scan.  ``array(curve, points, order)`` is the curve's eval (order 0,
    filled on the scan), d1 or d2 (filled on the VALIDATION_GRID_POINTS
    grid, so read there or on a coarser grid) on it, a view of that fill.
    The first read of a Tabulated curve whose eval, d1 and d2 are its
    family's own fills all three (Tabulated.sorted_orders), bit for bit
    the per-order fills; every other curve is filled order by order.
    Both are read-only.  A call that raises caches nothing, so the next
    caller meets the same error.  ``enclosure(curve)`` is the curve's
    Curve.enclosure on the cells, ``enclosure(curve, slopes=True)`` its
    Curve.slope_enclosure, ``steps(curve)`` the least and largest
    step of its scan in each cell, and ``magnitude(curve, order)`` the
    largest |eval| on the scan, or |d1| on its grid.  ``derive(curve,
    name, make)`` caches anything else made of a curve and the tables.
    ``adopt(held, curves)`` takes another tables' entries of equal curves.
    """

    __slots__ = ("interval", "_grids", "_arrays", "_derived")

    def __init__(self, interval):
        self.interval = interval
        scan = interval.grid(SCAN_GRID_POINTS)
        scan.flags.writeable = False
        self._grids = {points: scan[::stride] for points, stride in _STRIDES.items()}
        # (id(curve), points, order) -> (curve, values); holding the curve
        # keeps its id from being reused while the entry lives
        self._arrays: dict[tuple[int, int, int], tuple[object, np.ndarray]] = {}
        # (id(curve), name) -> (curve, value), likewise
        self._derived: dict[tuple[int, str], tuple[object, object]] = {}

    def adopt(self, held: EffortTables, curves) -> None:
        """Take held's entries of each of curves that equals a curve held
        there (_identity), keyed under that curve.  held's interval must
        have this one's bits; the entries are read-only, so they are shared,
        not copied."""
        arrays, derived = list(held._arrays.items()), list(held._derived.items())
        identities = {}  # identity -> id of a held curve
        for key, curve in {key[0]: curve for key, (curve, _) in arrays + derived}.items():
            identities.setdefault(_identity(curve), key)
        twins = {}  # id of a held curve -> the curves equal to it
        for curve in curves:
            identity = _identity(curve)
            if identity is not None and identity in identities:
                twins.setdefault(identities[identity], []).append(curve)
        for store, entries in ((self._arrays, arrays), (self._derived, derived)):
            for key, (_, value) in entries:
                for curve in twins.get(key[0], ()):
                    store[(id(curve), *key[1:])] = (curve, value)

    def grid(self, points: int) -> np.ndarray:
        return self._grids[points]

    def array(self, curve, points: int, order: int = 0) -> np.ndarray:
        key = (id(curve), points, order)
        entry = self._arrays.get(key)
        if entry is None:
            fill = _FILLS[order]
            if points != fill:  # a view, cached: solve_game reads the same arrays for every delta row
                values = self.array(curve, fill, order)[:: _STRIDES[points] // _STRIDES[fill]]
            elif isinstance(curve, Tabulated) and curve.has_family_methods(*_ORDERS):
                # one lookup of its pieces on the scan fills all three orders
                filled = curve.sorted_orders(self._grids[SCAN_GRID_POINTS], _STRIDES[_FILLS[1]])
                for each, values in enumerate(filled):
                    values.flags.writeable = False
                    self._arrays[(id(curve), _FILLS[each], each)] = (curve, values)
                return filled[order]
            else:
                values = np.asarray(getattr(curve, _ORDERS[order])(self._grids[fill]), dtype=float)
                values.flags.writeable = False
            entry = self._arrays[key] = (curve, values)
        return entry[1]

    def derive(self, curve, name: str, make):
        """make(), cached per curve and name, and taken by adopt with the
        curve's other entries: make must depend on nothing but the curve
        and these tables."""
        key = (id(curve), name)
        entry = self._derived.get(key)
        if entry is None:
            entry = self._derived[key] = (curve, make())
        return entry[1]

    def enclosure(self, curve, slopes: bool = False):
        """Curve.enclosure on the CELLS cells, or with slopes its
        Curve.slope_enclosure: read-only arrays, or None; both from one
        Curve.enclosures call."""

        def make():
            both = curve.enclosures(np.array(self._grids[CELLS + 1]))
            for bounds in both:
                for b in bounds or ():
                    b.flags.writeable = False
            return both

        return self.derive(curve, "enclosures", make)[slopes]

    def steps(self, curve):
        """(least, largest) per cell: the increments eval's scan makes
        across the cell's steps, computed in floats; NaN where a value is."""

        def make():
            rise = np.diff(self.array(curve, SCAN_GRID_POINTS)).reshape(CELLS, -1)
            return rise.min(axis=1), rise.max(axis=1)

        return self.derive(curve, "steps", make)

    def magnitude(self, curve, order: int = 0) -> float:
        """max |eval| (order 0) or |d1| (1) on the grid it is filled on; NaN where a value is."""
        return self.derive(
            curve, f"magnitude {order}",
            lambda: float(np.abs(self.array(curve, _FILLS[order], order)).max()),
        )


# (weak reference to the most recent scenario, its tables); replaced whole,
# so a reader sees one consistent pair
_last = None


def effort_tables(scenario) -> EffortTables:
    """The EffortTables of scenario's interval and curves.

    Consecutive calls with the same scenario object return the same
    tables.  Only the most recent scenario's tables are kept, and the
    scenario itself only by a weak reference, so nothing outlives it but
    one set of tables until the next scenario comes.  When the next
    scenario's interval equals the last one's bit for bit, its tables
    start with the last tables' entries of each of its effort curves (the
    profile's components and the cost, which are all the tables are read
    for) that equals a held curve: of the same family class, not a
    subclass, with every init field equal bit for bit (EffortTables.adopt).
    """
    global _last
    last = _last
    if last is not None and last[0]() is scenario:
        return last[1]
    tables = EffortTables(scenario.interval)
    if last is not None and _bits(last[1].interval) == _bits(tables.interval):
        tables.adopt(last[1], (*scenario.profile.components, scenario.agent.effort_cost))
    _last = (weakref.ref(scenario), tables)
    return tables


def _bits(interval) -> bytes:
    """The bits of the interval's ends: -0.0 and 0.0 differ."""
    return struct.pack("<2d", interval.lo, interval.hi)
