"""The curves of one scenario on its fixed effort grids, evaluated once.

The agent-side entry points ask several questions of the same curves on
the same few effort grids: the optimum of E, its motivation, its
persistence, whether the profile reacts to effort, and whether the
scenario is valid.  An EffortTables builds each grid once and fills each
curve's eval, d1 or d2 on a grid on first use, as a read-only array.
effort_tables keeps the tables of the most recent scenario only, so
consecutive calls on one scenario share them while memory stays at one
scenario's worth.
"""

from __future__ import annotations

import weakref

import numpy as np

__all__ = ["EffortTables", "effort_tables"]

_ORDERS = ("eval", "d1", "d2")


class EffortTables:
    """Grids over one effort interval and curve arrays on them, filled on first use.

    ``grid(points)`` is the uniform grid of that many points, and
    ``array(curve, points, order)`` the curve's eval (order 0), d1 or d2 on
    it.  Both are read-only.  A call that raises caches nothing, so the
    next caller meets the same error.
    """

    __slots__ = ("interval", "_grids", "_arrays")

    def __init__(self, interval):
        self.interval = interval
        self._grids: dict[int, np.ndarray] = {}
        # (id(curve), points, order) -> (curve, values); holding the curve
        # keeps its id from being reused while the entry lives
        self._arrays: dict[tuple[int, int, int], tuple[object, np.ndarray]] = {}

    def grid(self, points: int) -> np.ndarray:
        grid = self._grids.get(points)
        if grid is None:
            grid = self.interval.grid(points)
            grid.flags.writeable = False
            self._grids[points] = grid
        return grid

    def array(self, curve, points: int, order: int = 0) -> np.ndarray:
        key = (id(curve), points, order)
        entry = self._arrays.get(key)
        if entry is None:
            values = getattr(curve, _ORDERS[order])(self.grid(points))
            values = np.asarray(values, dtype=float)
            values.flags.writeable = False
            entry = self._arrays[key] = (curve, values)
        return entry[1]

    def table(self, points: int, order: int = 0):
        """curve -> array(curve, points, order): the table LinearPayoff.on_table reads."""
        return lambda curve: self.array(curve, points, order)


# (weak reference to the most recent scenario, its tables); replaced whole,
# so a reader sees one consistent pair
_last = None


def effort_tables(scenario) -> EffortTables:
    """The EffortTables of scenario's interval and curves.

    Consecutive calls with the same scenario object return the same
    tables.  Only the most recent scenario's tables are kept, and the
    scenario itself only by a weak reference, so nothing outlives it but
    one set of tables until the next scenario comes.
    """
    global _last
    last = _last
    if last is not None and last[0]() is scenario:
        return last[1]
    tables = EffortTables(scenario.interval)
    _last = (weakref.ref(scenario), tables)
    return tables
