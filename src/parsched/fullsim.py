"""Configuration-family sweeps and the brute-force test oracle, in exact integers.

A sweep scales every size and threshold of one (eps, m, T) to a common
denominator and drives ``a2.A2Rule`` over the resulting integers.  A
lane's behaviour depends only on its per-class block lengths
(``a2.a2_block_lengths``), not on its raw guess vector, so each distinct
layout in the requested lane window is simulated once and its result
copied to every lane that shares it.  At eps=1, m=256 the 226,981 lanes
of the family have 4,960 distinct layouts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from ._scaling import common_scale, scale_values
from .a2 import (
    A2Params,
    A2Rule,
    a2_block_lengths,
    a2_classify,
    a2_config_from_u,
    a2_family_size,
    a2_params,
    lane_index_to_u,
)
from .core import JobSequence, default_lane_cap

__all__ = [
    "A2Sweep",
    "kernel_available",
    "active_backend",
    "a2_full_sweep",
    "a2_lane_makespan",
    "brute_force_opt",
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
    cls = []
    for p in jobs:
        c = a2_classify(params, p)
        if c is None:
            raise ValueError(
                f"job of size {p} exceeds the top class bound for T={params.T}; "
                "the assumed optimum is too small for a standalone run"
            )
        cls.append(c)
    ell_minus_cls = [Fraction(0)]
    ell_plus_cls = [Fraction(0)]
    for c in range(1, params.n_classes + 1):
        lo, hi = params.ell_bounds_of(c)
        ell_minus_cls.append(lo)
        ell_plus_cls.append(hi)
    to_scale = list(jobs) + ell_minus_cls + ell_plus_cls + [params.load_cap, params.fill_line]
    scale = common_scale(to_scale)
    jobs_s = scale_values(list(jobs), scale)
    emc = scale_values(ell_minus_cls, scale)
    epc = scale_values(ell_plus_cls, scale)
    cap = scale_values([params.load_cap], scale)[0]
    fill = scale_values([params.fill_line], scale)[0]
    return cls, scale, jobs_s, emc, epc, cap, fill


def a2_full_sweep(
    eps: Fraction,
    m: int,
    T: Fraction,
    jobs: Sequence[Fraction],
    lanes: Optional[tuple[int, int]] = None,
    check_fill_line: bool = True,
    lane_cap: Optional[int] = None,
) -> A2Sweep:
    """Simulate a lane range (default: the whole family), once per distinct layout.

    Per-lane makespans are kept; fill-line violations are summed over
    lanes, so a layout's count is multiplied by the lanes that share it.
    """
    params = a2_params(Fraction(eps), m, Fraction(T))
    total_lanes = a2_family_size(params)
    if lanes is None:
        lane_cap = default_lane_cap(lane_cap)
        if total_lanes > lane_cap:
            raise RuntimeError(
                f"full family has {total_lanes} lanes, above the cap {lane_cap}"
            )
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
            rule = A2Rule(params, a2_config_from_u(params, u).c, cap, fill, emc, epc,
                          check_fill_line)
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


def brute_force_opt(seq: JobSequence) -> Fraction:
    """Exact optimum by full m**n enumeration (test oracle, no pruning)."""
    jobs = seq.sizes()
    scale = common_scale(jobs)
    jobs_s = scale_values(jobs, scale)
    n, m = len(jobs_s), seq.m
    if n == 0:
        return Fraction(0)
    loads = [0] * m
    best = sum(jobs_s) + 1

    def walk(idx: int, cur_max: int) -> None:
        nonlocal best
        if idx == n:
            if cur_max < best:
                best = cur_max
            return
        p = jobs_s[idx]
        for j in range(m):
            loads[j] += p
            walk(idx + 1, loads[j] if loads[j] > cur_max else cur_max)
            loads[j] -= p

    walk(0, 0)
    return Fraction(best, scale)
