"""Configuration-family sweeps in exact integers.

A sweep scales every size and threshold of one (eps, m, T) to a common
denominator and drives ``a2.A2Rule`` over the resulting integers.  A
lane's behaviour depends only on its per-class block lengths
(``a2.a2_block_lengths``), not on its raw guess vector, so each distinct
layout in the requested lane window is simulated once and its result
copied to every lane that shares it.  At eps=1, m=256 the 226,981 lanes
of the family have 4,960 distinct layouts.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .a2 import (
    A2Params,
    A2Rule,
    a2_block_lengths,
    a2_config_from_u,
    a2_family_size,
    a2_params,
    a2_rule_thresholds,
    lane_index_to_u,
)
from .core import check_lane_cap

__all__ = [
    "A2Sweep",
    "kernel_available",
    "active_backend",
    "a2_full_sweep",
    "a2_lane_makespan",
]


def kernel_available() -> bool:
    """Always False: no compiled engine exists; kept for perfbench's engine report."""
    return False


def active_backend() -> str:
    """Name of the one engine, exact pure Python; kept for perfbench's engine report."""
    return "python"


@dataclass
class A2Sweep:
    """Result of sweeping a lane range of the configuration family."""

    params: A2Params
    lane_lo: int
    lane_hi: int
    scale: int
    makespans_scaled: list[int]
    fill_violations: int

    @property
    def lane_count(self) -> int:
        return self.lane_hi - self.lane_lo

    def makespan(self, lane: int) -> Fraction:
        return Fraction(self.makespans_scaled[lane - self.lane_lo], self.scale)

    def best(self) -> tuple[int, Fraction]:
        """(lane index, makespan) of the winner; ties go to the lower lane."""
        k = min(range(len(self.makespans_scaled)), key=lambda i: (self.makespans_scaled[i], i))
        return self.lane_lo + k, Fraction(self.makespans_scaled[k], self.scale)


def _prepare(params: A2Params, jobs: Sequence[Fraction]):
    """(classes, scale, sizes, ell_minus, ell_plus, cap, fill) of a job stream
    in integers: the rule's thresholds are rebound to the lcm of their own
    scale and the job denominators, and each size's class is a bisection."""
    ratios = [p.as_integer_ratio() for p in jobs]
    scale = math.lcm(params.scale(), *{den for _, den in ratios})
    bounds, cap, fill, emc, epc = a2_rule_thresholds(params, scale)
    top = len(bounds) - 1
    cls, sizes = [], []
    for p, (num, den) in zip(jobs, ratios):
        if num <= 0:
            raise ValueError("processing time must be positive")
        q = num * (scale // den)
        c = bisect_left(bounds, q)
        if c > top:
            raise ValueError(
                f"job of size {p} exceeds the top class bound for T={params.T}; "
                "the assumed optimum is too small for a standalone run"
            )
        cls.append(c)
        sizes.append(q)
    return cls, scale, sizes, emc, epc, cap, fill


def a2_full_sweep(
    eps: Fraction,
    m: int,
    T: Fraction,
    jobs: Sequence[Fraction],
    lanes: Optional[tuple[int, int]] = None,
    lane_cap: Optional[int] = None,
) -> A2Sweep:
    """Simulate a lane range (default: the whole family), once per distinct layout.

    Per-lane makespans are kept; fill-line violations are summed over
    lanes, so a layout's count is multiplied by the lanes that share it.
    """
    params = a2_params(Fraction(eps), m, Fraction(T))
    total_lanes = a2_family_size(params)
    if lanes is None:
        check_lane_cap(total_lanes, lane_cap)
        lanes = (0, total_lanes)
    lane_lo, lane_hi = lanes
    if not 0 <= lane_lo <= lane_hi <= total_lanes:
        raise ValueError("lane range out of bounds")
    cls, scale, jobs_s, emc, epc, cap, fill = _prepare(params, jobs)
    stream = list(zip(cls, jobs_s))
    by_layout: dict[tuple[int, ...], tuple[int, int]] = {}
    makespans = []
    violations = 0
    for lane in range(lane_lo, lane_hi):
        u = lane_index_to_u(params, lane)
        layout = a2_block_lengths(params, u)
        outcome = by_layout.get(layout)
        if outcome is None:
            rule = A2Rule(params, a2_config_from_u(params, u).c, cap, fill, emc, epc)
            for c, p in stream:
                rule.put(c, p, rule.choose(c, p))
            outcome = by_layout[layout] = (max(rule.loads), rule.fill_violations)
        makespans.append(outcome[0])
        violations += outcome[1]
    return A2Sweep(params, lane_lo, lane_hi, scale, makespans, violations)


def a2_lane_makespan(
    eps: Fraction,
    m: int,
    T: Fraction,
    jobs: Sequence[Fraction],
    lane: int,
) -> tuple[Fraction, int]:
    """Makespan and fill-line violations of a single lane."""
    sweep = a2_full_sweep(eps, m, T, jobs, lanes=(lane, lane + 1))
    return sweep.makespan(lane), sweep.fill_violations

