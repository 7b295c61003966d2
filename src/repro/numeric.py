"""Float sums that give the same bits on every Python version.

From CPython 3.12 the built-in ``sum`` adds floats with compensated
(Neumaier) summation, so the same floats can sum to a different last bit
on 3.11 and on 3.12 or later.  A last bit is enough to move a virtual
deadline, a water-filled share or a period, and with it every trace
digest and paper table downstream.  So every float sum whose result
reaches a simulated or printed number goes through :func:`sum_in_order`,
which adds left to right on every interpreter, exactly as ``sum`` does on
3.11.  Integer sums (counts) are exact either way and keep ``sum``.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Iterable


def sum_in_order(values: Iterable[float]) -> float:
    """``values`` added left to right, starting from integer ``0`` as
    ``sum`` does (so an empty input gives ``0``)."""
    return reduce(add, values, 0)
