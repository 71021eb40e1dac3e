"""Compensated (error-free-transform) summation helpers.

:class:`NeumaierSum` keeps the summation error at the level of one
rounding of the running total rather than growing with the term count.
The scalar winding-sum loop that the tests hold the batched sums to
accumulates through it.
"""

from __future__ import annotations


class NeumaierSum:
    """Running sum with Neumaier's improved Kahan compensation."""

    __slots__ = ("_s", "_c")

    def __init__(self, start: float = 0.0):
        self._s = float(start)
        self._c = 0.0

    def add(self, x: float) -> None:
        t = self._s + x
        if abs(self._s) >= abs(x):
            self._c += (self._s - t) + x
        else:
            self._c += (x - t) + self._s
        self._s = t

    @property
    def total(self) -> float:
        return self._s + self._c

    def __float__(self) -> float:
        return self.total
