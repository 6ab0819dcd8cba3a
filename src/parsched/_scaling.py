"""Common-denominator scaling so hot loops can compare plain integers.

Multiplying every quantity by the least common multiple of all involved
denominators preserves every comparison exactly; the engines then work
on integers only.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Optional, Sequence

__all__ = ["common_scale", "scale_values", "ScaledLane"]


def common_scale(values: Iterable[Fraction]) -> int:
    scale = 1
    for v in values:
        scale = math.lcm(scale, Fraction(v).denominator)
    return scale


def scale_values(values: Sequence[Fraction], scale: int) -> list[int]:
    out = []
    for v in values:
        f = Fraction(v) * scale
        if f.denominator != 1:
            raise ValueError("scale is not a common denominator of the values")
        out.append(f.numerator)
    return out


class ScaledLane:
    """Job-stepping glue of a lane kept in integers in units of 1/_scale.

    A subclass sets ``m``, ``_scale`` and ``_bounds``, its class ladder in
    those units (a size's class is bisect_left(_bounds, size), len(_bounds)
    meaning none), and ``_rescale(k)``, which multiplies its own
    size-valued state by k when a job's denominator grows the scale k-fold.
    """

    _pending: tuple = (None, 0, 0)  # (job, class, size) last classified
    _last = 0  # index of the last recorded job

    def _classify(self, job) -> tuple[int, int]:
        num, den = job.p.as_integer_ratio()
        scale = self._scale
        if scale % den:
            k = den // math.gcd(scale, den)
            self._scale = scale = scale * k
            self._bounds = [x * k for x in self._bounds]
            self._rescale(k)
        q = num * (scale // den)
        cls = bisect_left(self._bounds, q)
        self._pending = (job, cls, q)
        return cls, q

    def _take(self, job, machine: int) -> tuple[int, int]:
        """Class and size of a job to record, reusing its proposal's.  Jobs
        arrive in index order, so an index not above the last is a repeat."""
        if not 1 <= machine <= self.m:
            raise ValueError(f"machine {machine} out of range 1..{self.m}")
        if job.index <= self._last:
            raise ValueError(f"job {job.index} already recorded (last was {self._last})")
        pending, cls, q = self._pending
        if pending is not job:
            cls, q = self._classify(job)
        if cls == len(self._bounds):
            raise ValueError("cannot record a job that has no class")
        self._last = job.index
        return cls, q

    def step(self, job) -> Optional[int]:
        """propose + record; None means the job had no class (not placed)."""
        machine = self.propose(job)
        if machine is not None:
            self.record(job, machine)
        return machine
