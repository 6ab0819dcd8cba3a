"""Exact offline optimum, multiset scheduling, and greedy baselines.

``opt_exact`` is a branch-and-bound over arbitrary instances (guarded by
a size cap).  ``fit_multiset`` decides whether a small number of distinct
job sizes with multiplicities fits under a load limit, which is what the
census-family lanes need for their virtual target schedules;
``opt_multiset`` bisects over such decisions for the optimum.  List/LPT
serve as baselines and as seeds for the exact searches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .core import Job, JobSequence, LaneRunner, LeastLoaded, Schedule, add_equal

__all__ = [
    "MultisetInstance",
    "MultisetSchedule",
    "SearchBudgetExceeded",
    "opt_exact",
    "fit_multiset",
    "opt_multiset",
    "lpt_multiset",
    "lower_bound",
    "list_schedule",
    "lpt_schedule",
    "ListScheduler",
]


class SearchBudgetExceeded(RuntimeError):
    """Raised when an exact search outgrows its node budget."""


def lower_bound(prefix_sum: Fraction, max_p: Fraction, m: int) -> Fraction:
    """Trivial exact lower bound max(prefix_sum/m, max_p)."""
    if m < 1:
        raise ValueError("machine count must be positive")
    return max(Fraction(prefix_sum) / m, Fraction(max_p))


def list_schedule(seq: JobSequence, label: int = 0) -> Schedule:
    """Least-loaded assignment in arrival order, ties to lowest index."""
    return LaneRunner(ListScheduler(seq.m), label).run(seq.jobs)


def lpt_schedule(seq: JobSequence, label: int = 0) -> Schedule:
    """Least-loaded assignment in non-increasing size order.

    Equal sizes keep arrival order, so the result is deterministic.
    """
    jobs = sorted(seq.jobs, key=lambda job: (-job.p, job.index))
    return LaneRunner(ListScheduler(seq.m), label).run(jobs)


class ListScheduler:
    """Classic least-loaded online rule behind the lane interface.

    ``perm`` reorders the tie-breaking preference among machines; the
    default prefers lower indices.
    """

    def __init__(self, m: int, perm: Optional[Sequence[int]] = None):
        self.m = m
        if perm is None:
            perm = range(1, m + 1)
        perm = list(perm)
        if sorted(perm) != list(range(1, m + 1)):
            raise ValueError("perm must be a permutation of 1..m")
        # Loads by preference rank, so ties go to the most preferred machine.
        self._perm = perm
        self._rank = {machine: r for r, machine in enumerate(perm)}
        self._loads = LeastLoaded([0] * m)

    def propose(self, job: Job) -> Optional[int]:
        return self._perm[self._loads.least()]

    def record(self, job: Job, machine: int) -> None:
        self._loads.add(self._rank[machine], job.p)


def opt_exact(seq: JobSequence, cap: int = 24) -> Fraction:
    """Exact minimum makespan by branch-and-bound.

    Jobs are placed in non-increasing size order; machines with equal
    current load are interchangeable, so only one of them is branched on
    (this also means a job may open at most one currently-empty
    machine).  Once only jobs of one size remain, they go to least loaded
    machines without branching.  The incumbent is seeded by LPT.
    """
    n = len(seq)
    if cap < 0:
        raise ValueError(f"search cap (--cap) must be nonnegative, got {cap}")
    if n > cap:
        raise ValueError(f"instance with {n} jobs exceeds the search cap {cap}")
    if n == 0:
        return Fraction(0)
    m = seq.m
    sizes = sorted((job.p for job in seq), reverse=True)
    floor_bound = lower_bound(seq.total(), sizes[0], m)
    best = lpt_schedule(seq).makespan()
    if best == floor_bound:
        return best
    loads = [Fraction(0)] * m

    def dfs(idx: int, cur_max: Fraction) -> None:
        nonlocal best
        if best == floor_bound:
            return
        p = sizes[idx]
        if p == sizes[-1]:
            # Only jobs of size p remain, and for equal jobs Graham's rule
            # is optimal: each one on a least loaded machine.
            tail = list(loads)
            add_equal(tail, ((p, n - idx),))
            best = min(best, max(cur_max, *tail))
            return
        seen: set[Fraction] = set()
        for j in range(m):
            lj = loads[j]
            if lj in seen:
                continue
            seen.add(lj)
            new_load = lj + p
            if new_load >= best:
                continue
            loads[j] = new_load
            dfs(idx + 1, new_load if new_load > cur_max else cur_max)
            loads[j] = lj

    dfs(0, Fraction(0))
    return best


@dataclass(frozen=True)
class MultisetInstance:
    """Jobs given as (size, count) classes on m machines.

    Sizes are exact numbers of one type, ints or Fractions; every load,
    subset sum and makespan computed from them stays in that type.
    """

    classes: tuple[tuple[Fraction, int], ...]
    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("machine count must be positive")
        sizes = [s for s, _ in self.classes]
        if any(s <= 0 for s in sizes):
            raise ValueError("class sizes must be positive")
        if len(set(sizes)) != len(sizes):
            raise ValueError("class sizes must be pairwise distinct")
        if any(c < 0 for _, c in self.classes):
            raise ValueError("class counts must be nonnegative")

    def normalized(self) -> tuple[tuple[Fraction, int], ...]:
        """Classes with positive counts, sorted by decreasing size."""
        return tuple(sorted(((s, c) for s, c in self.classes if c > 0), key=lambda sc: -sc[0]))

    def total(self) -> Fraction:
        return sum(s * c for s, c in self.classes)


@dataclass
class MultisetSchedule:
    """A concrete schedule of a multiset: per-class, per-machine counts, and
    loads summed from them on first use unless the maker passes them in."""

    inst: MultisetInstance
    sizes: tuple[Fraction, ...]
    counts: tuple[tuple[int, ...], ...]  # [class][machine], machine 0-based
    _loads: Optional[tuple] = field(default=None, repr=False, compare=False)

    def loads(self) -> tuple[Fraction, ...]:
        """Per-machine loads, machine 1 first."""
        if self._loads is None:
            columns = zip(*self.counts) if self.sizes else [()] * self.inst.m
            self._loads = tuple(sum(map(mul, self.sizes, column)) for column in columns)
        return self._loads

    def makespan(self) -> Fraction:
        loads = self.loads()
        return max(loads) if loads else Fraction(0)


def lpt_multiset(inst: MultisetInstance) -> MultisetSchedule:
    """LPT over the multiset; used as incumbent and as a fast fit test."""
    norm = inst.normalized()
    loads = [0] * inst.m
    counts = add_equal(loads, norm)
    return MultisetSchedule(inst, tuple(s for s, _ in norm), counts, tuple(loads))


def _ffd_fits(sizes, counts, m, limit):
    """First-fit-decreasing under a load limit; returns counts or None."""
    loads = [0] * m
    placed = [[0] * m for _ in sizes]
    for i, size in enumerate(sizes):
        for _ in range(counts[i]):
            for j in range(m):
                if loads[j] + size <= limit:
                    loads[j] += size
                    placed[i][j] += 1
                    break
            else:
                return None
    return tuple(tuple(row) for row in placed)


def _bin_completions(sizes, remaining, anchor, room):
    """Inclusion-maximal count vectors of load <= room containing class anchor.

    Forcing the largest remaining class into each new machine breaks the
    symmetry between identical machines without losing any packing.
    """
    k = len(sizes)
    out = []

    def grow(i, config, room_left):
        if i == k:
            for q in range(k):
                if config[q] < remaining[q] and sizes[q] <= room_left:
                    return  # not maximal: class q still fits
            out.append(tuple(config))
            return
        top = min(remaining[i], int(room_left // sizes[i]))
        floor = 1 if i == anchor else 0
        for q in range(top, floor - 1, -1):
            config[i] = q
            grow(i + 1, config, room_left - q * sizes[i])
        config[i] = 0

    grow(0, [0] * k, room)
    return out


def _singleton_packing(remaining):
    """One job per machine, largest classes first."""
    plan = []
    for i, r in enumerate(remaining):
        config = [0] * len(remaining)
        config[i] = 1
        plan.extend([tuple(config)] * r)
    return plan


def _bins_lower_bound(sizes, remaining, limit):
    """Exact pairing-aware lower bound on the machines needed.

    For each threshold t: items above limit-t get a machine alone, items
    above limit/2 get one each, and the volume of items in [t, limit/2]
    beyond the spare room next to the latter forces extra machines.
    All quantities are integers (pre-scaled sizes).
    """
    best = 0
    for t in sizes:
        if 2 * t > limit:
            continue
        big = mid_cnt = 0
        mid_vol = small_vol = 0
        for s, r in zip(sizes, remaining):
            if not r or s < t:
                continue
            if s > limit - t:
                big += r
            elif 2 * s > limit:
                mid_cnt += r
                mid_vol += r * s
            else:
                small_vol += r * s
        spare = mid_cnt * limit - mid_vol
        extra = small_vol - spare
        need = big + mid_cnt + (-(-extra // limit) if extra > 0 else 0)
        if need > best:
            best = need
    return best


def _fit_decision(sizes, counts, m, limit, node_cap):
    """Can the multiset be packed on m machines with loads <= limit?

    Machine-by-machine search: every new machine takes an inclusion-
    maximal load containing the largest class that still has jobs, with
    volume and pairing lower bounds and a memo of failed states.
    Returns per-class placement counts, or None.
    """
    if max(sizes, default=Fraction(0)) > limit:
        return None
    if sum(s * c for s, c in zip(sizes, counts)) > m * limit:  # the search's first volume test
        return None
    quick = _ffd_fits(sizes, counts, m, limit)
    if quick is not None:
        return quick
    # Integer arithmetic from here on: exact and much faster to compare.
    scale = math.lcm(limit.denominator, *(s.denominator for s in sizes))
    int_sizes = tuple(int(s * scale) for s in sizes)
    int_limit = int(limit * scale)
    failed: set[tuple] = set()
    nodes = 0

    def dfs(machines_left, remaining):
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise SearchBudgetExceeded(f"multiset fit search exceeded {node_cap} nodes")
        total_jobs = sum(remaining)
        if total_jobs == 0:
            return []
        if machines_left == 0:
            return None
        if total_jobs <= machines_left:
            return _singleton_packing(remaining)
        if sum(r * s for r, s in zip(remaining, int_sizes)) > int_limit * machines_left:
            return None
        if _bins_lower_bound(int_sizes, remaining, int_limit) > machines_left:
            return None
        key = (machines_left, remaining)
        if key in failed:
            return None
        anchor = next(i for i, r in enumerate(remaining) if r)
        configs = _bin_completions(int_sizes, remaining, anchor, int_limit)
        configs.sort(key=lambda q: -sum(c * s for c, s in zip(q, int_sizes)))
        for config in configs:
            # Identical machines: branch on how many copies of this
            # completion to stamp out, most copies first.
            xmax = machines_left
            for c, r in zip(config, remaining):
                if c:
                    xmax = min(xmax, r // c)
            for x in range(xmax, 0, -1):
                rest = tuple(r - x * c for r, c in zip(remaining, config))
                tail = dfs(machines_left - x, rest)
                if tail is not None:
                    return [config] * x + tail
        failed.add(key)
        return None

    plan = dfs(m, tuple(counts))
    if plan is None:
        return None
    placed = [[0] * m for _ in sizes]
    for j, config in enumerate(plan):
        for i, q in enumerate(config):
            placed[i][j] = q
    return tuple(tuple(row) for row in placed)


def fit_multiset(inst: MultisetInstance, limit,
                 node_cap: int = 2_000_000) -> Optional[MultisetSchedule]:
    """A schedule of the multiset with every load <= limit, or None when
    the search proves that none exists: a decision at a target makespan,
    as in the Hochbaum-Shmoys dual approximation, not a minimisation."""
    norm = inst.normalized()
    sizes = tuple(s for s, _ in norm)
    placed = _fit_decision(sizes, [c for _, c in norm], inst.m, limit, node_cap)
    return None if placed is None else MultisetSchedule(inst, sizes, placed)


def opt_multiset(inst: MultisetInstance, node_cap: int = 2_000_000) -> MultisetSchedule:
    """Exact optimal schedule of a multiset instance.

    The optimum makespan is one of the achievable machine loads, i.e. a
    subset sum of the multiset; the candidates inside [lower bound,
    LPT makespan] are searched by bisection with an exact fit test.
    """
    norm = inst.normalized()
    sizes = tuple(s for s, _ in norm)
    counts = [c for _, c in norm]
    m = inst.m
    if not sizes:
        return MultisetSchedule(inst, (), ())
    incumbent = lpt_multiset(inst)
    ub = incumbent.makespan()
    lb = lower_bound(inst.total(), sizes[0], m)
    if ub == lb:
        return incumbent
    sums = {0}
    for size, count in zip(sizes, counts):
        reach = min(count, int(ub // size))  # more copies cannot fit under ub
        step = {s + k * size for s in sums for k in range(1, reach + 1) if s + k * size <= ub}
        sums |= step
    candidates = sorted(s for s in sums if lb <= s < ub)
    best = incumbent
    lo, hi = 0, len(candidates)  # candidates[hi] == ub conceptually, known feasible
    while lo < hi:
        mid = (lo + hi) // 2
        fit = fit_multiset(inst, candidates[mid], node_cap)
        if fit is None:
            lo = mid + 1
        else:
            best = fit
            hi = mid
    return best
