"""Common-denominator scaling so hot loops can compare plain integers.

Multiplying every quantity by the least common multiple of all involved
denominators preserves every comparison exactly; the engines then work
on integers only.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

__all__ = ["common_scale", "scale_values", "stream_counts", "GuessLadder", "ScaledLane"]


def common_scale(values: Iterable[Fraction]) -> int:
    """The lcm of the values' denominators."""
    return math.lcm(*{v.denominator for v in values})


def scale_values(values: Sequence[Fraction], scale: int) -> list[int]:
    """Each value times ``scale``, which must be a common denominator of them all."""
    out = []
    for v in values:
        k, rem = divmod(scale, v.denominator)
        if rem:
            raise ValueError("scale is not a common denominator of the values")
        out.append(v.numerator * k)
    return out


def stream_counts(jobs, census: Callable[[list[int], int], list[int]], top: Fraction) -> list[int]:
    """``census(sizes, S)`` of a job stream: its sizes in units of 1/S, for
    the lcm S of their denominators, sorted.  A job above ``top``, the top
    class bound, raises ValueError naming the first such job to arrive."""
    ps = [job.p for job in jobs]
    scale = common_scale(ps)
    sizes = sorted(scale_values(ps, scale))
    if sizes and sizes[-1] * top.denominator > top.numerator * scale:
        p = next(p for p in ps if p > top)
        raise ValueError(f"job of size {p} exceeds the top class bound")
    return census(sizes, scale)


class GuessLadder:
    """The one binding of a guess T's thresholds, each T times a number
    fixed by eps.  A subclass has the fields ``T``, ``unit`` and ``ladder``:
    at T = 1 every threshold is an integer over ``unit``, the ascending
    class bounds among them in ``ladder``."""

    def _at_T(self, x: int) -> Fraction:
        return Fraction(x * self.T.numerator, self.T.denominator * self.unit)

    @cached_property
    def bounds(self) -> tuple[Fraction, ...]:
        """The ladder at T, as Fractions, derived on first use."""
        return tuple(map(self._at_T, self.ladder))

    def scale(self) -> int:
        """A common denominator of the thresholds at T = n/d, unit*d over its
        gcd with n: the least one when the integers at T = 1 share no factor."""
        den = self.unit * self.T.denominator
        return den // math.gcd(den, self.T.numerator)

    def rebind(self, scale: int, values: Iterable[int]) -> list[int]:
        """T = 1 integers at T in units of 1/scale, which must be a multiple of ``scale()``."""
        k, rem = divmod(self.T.numerator * scale, self.T.denominator * self.unit)
        if rem:
            raise ValueError("scale is not a common denominator of the thresholds")
        return [x * k for x in values]

    def census(self, sizes: Sequence[int], scale: int, cap: Optional[int] = None) -> list[int]:
        """Per-class counts, each at most ``cap`` if given, of sorted sizes in
        units of 1/scale.  With num/den = T*scale/unit, a size q is at most
        bound i iff ladder[i] >= ceil(q*den/num) iff q <= floor(ladder[i]*num/den):
        one division per size if they are fewer than the ladder, else one per edge."""
        num, den = self.T.numerator * scale, self.T.denominator * self.unit
        ladder, n = self.ladder, len(sizes)
        cap = n if cap is None else cap
        counts = [0] * (len(ladder) - 1)
        if n < len(ladder):
            i = 0
            for q in sizes:
                i = bisect_left(ladder, -(-q * den // num), i)
                if i == len(ladder):  # above the top bound, as are the rest
                    break
                if i and counts[i - 1] < cap:
                    counts[i - 1] += 1
        else:
            lo = bisect_right(sizes, ladder[0] * num // den)
            for i in range(1, len(ladder)):
                hi = bisect_right(sizes, ladder[i] * num // den, lo)
                counts[i - 1] = min(hi - lo, cap)
                if hi == n:
                    break
                lo = hi
        return counts


class ScaledLane:
    """Job-stepping glue of a lane kept in integers in units of 1/_scale.

    A driver at scale S steps a job of size q/S by ``offer(job, q, S)``
    and ``commit(machine)``; _scale stays a multiple of the guess's
    ``scale()`` and of S, and grows, with the ratio _scale // S cached,
    only when S changes.  ``propose``/``record`` step a Job at S = its
    denominator; ``record`` checks its input.  A subclass sets ``m``,
    calls ``_start`` and defines its choice ``_choose(cls, q)`` (a 0-based
    machine), its commitment ``_put(cls, q, j)`` and ``_rescale(k)``,
    which multiplies its state by k when _scale grows k-fold.  A size's
    class is bisect_left(_bounds, size), len(_bounds) meaning none.
    """

    _offered: tuple = (None, 0, 0)  # (job, class, size) of the last offer
    _last = 0  # index of the last committed job

    def _start(self, guess: GuessLadder) -> None:
        """Start at the guess's scale, with its ladder as the class bounds."""
        self._scale = self._ratio = guess.scale()
        self._driver_scale = 1  # the driver's scale the ratio is for
        self._bounds = guess.rebind(self._scale, guess.ladder)

    def offer(self, job, q: int, scale: int) -> Optional[int]:
        """Machine for ``job``, of size q/scale; None if it has no class."""
        if scale != self._driver_scale:  # follow S; then no rescale until it changes
            if self._scale % scale:
                k = scale // math.gcd(self._scale, scale)
                self._scale *= k
                self._bounds = [x * k for x in self._bounds]
                self._rescale(k)
            self._ratio = self._scale // scale
            self._driver_scale = scale
        q *= self._ratio
        cls = bisect_left(self._bounds, q)
        self._offered = (job, cls, q)
        return None if cls == len(self._bounds) else self._choose(cls, q) + 1

    def commit(self, machine: int) -> None:
        """Place the job last offered, which had a class, on ``machine``."""
        job, cls, q = self._offered
        self._last = job.index
        self._put(cls, q, machine - 1)

    def propose(self, job) -> Optional[int]:
        return self.offer(job, *job.p.as_integer_ratio())

    def record(self, job, machine: int) -> None:
        """Commit ``job`` to ``machine`` after checking both.  Jobs arrive
        in index order, so an index not above the last is a repeat."""
        if not 1 <= machine <= self.m:
            raise ValueError(f"machine {machine} out of range 1..{self.m}")
        if job.index <= self._last:
            raise ValueError(f"job {job.index} already recorded (last was {self._last})")
        if self._offered[0] is not job:
            self.propose(job)
        if self._offered[1] == len(self._bounds):
            raise ValueError("cannot record a job that has no class")
        self.commit(machine)
