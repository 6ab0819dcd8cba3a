"""Census-guessing lane family: one lane per guessed count of large jobs.

Given an assumed optimum T, job sizes are partitioned into a geometric
ladder of classes.  Each lane fixes a vector of per-class counts, builds
an exact optimal virtual schedule for those counts rounded up to class
ceilings, and then follows that virtual schedule online: large jobs fill
the virtual slots of their class, small jobs go wherever virtual load
plus accumulated small load is lowest.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .core import Job, Schedule, default_lane_cap
from .oracle import MultisetInstance, MultisetSchedule, lpt_multiset, opt_multiset
from .rational import ceil_log

__all__ = [
    "ClassPartition",
    "A1Plan",
    "A1State",
    "A1Family",
    "LaneCapExceeded",
    "a1_partition",
    "a1_classify",
    "a1_true_vector",
    "a1_family",
    "a1_family_size",
    "a1_count_cap",
]

SMALL = 0


class LaneCapExceeded(RuntimeError):
    """A full lane family would exceed the configured lane cap."""


@dataclass(frozen=True)
class ClassPartition:
    """Size classes under assumed optimum T.

    Class 0 holds small jobs, sizes in (0, eps'*T].  Class i >= 1 holds
    sizes in (bounds[i-1], bounds[i]] where bounds[i] = (1+eps')^i *
    eps' * T.  The top bound is always >= T, so every job of a sequence
    whose true optimum is <= T falls into some class.
    """

    eps: Fraction
    eps_prime: Fraction
    levels: int  # number of large classes
    T: Fraction
    bounds: tuple[Fraction, ...]  # bounds[0] = eps'*T .. bounds[levels]

    def classify(self, p: Fraction) -> Optional[int]:
        """Class of size p: 0 = small, 1..levels = large, None = too big."""
        if p <= 0:
            raise ValueError("processing time must be positive")
        if p <= self.bounds[0]:
            return SMALL
        for i in range(1, self.levels + 1):
            if p <= self.bounds[i]:
                return i
        return None

    def rounded_size(self, cls: int) -> Fraction:
        """Ceiling used as the pessimistic stand-in for a class-cls job."""
        if not 1 <= cls <= self.levels:
            raise ValueError("rounded_size applies to large classes only")
        return self.bounds[cls]


def a1_partition(eps: Fraction, T: Fraction) -> ClassPartition:
    eps = Fraction(eps)
    T = Fraction(T)
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    if T <= 0:
        raise ValueError("assumed optimum must be positive")
    eps_prime = eps / 2
    levels = ceil_log(1 / eps_prime, 1 + eps_prime)
    bounds = [eps_prime * T]
    for _ in range(levels):
        bounds.append(bounds[-1] * (1 + eps_prime))
    return ClassPartition(eps, eps_prime, levels, T, tuple(bounds))


def a1_classify(partition: ClassPartition, p: Fraction) -> Optional[int]:
    return partition.classify(Fraction(p))


def a1_count_cap(m: int, eps_prime: Fraction) -> int:
    """Per-class count ceiling floor(m/eps'); larger counts contradict OPT <= T."""
    return int(Fraction(m) / eps_prime)


def a1_true_vector(
    jobs: Iterable[Job],
    partition: ClassPartition,
    m: int,
    clamp: bool = False,
) -> tuple[int, ...]:
    """Exact per-class counts of the large jobs in the stream.

    Raises if a count exceeds floor(m/eps') or a job exceeds the top
    class bound, both of which certify that the true optimum is above T;
    with clamp=True those jobs/overshoots are capped instead (useful
    when the caller wants a lane that is allowed to fail).
    """
    counts = [0] * partition.levels
    for job in jobs:
        cls = partition.classify(job.p)
        if cls is None:
            if clamp:
                continue
            raise ValueError(f"job of size {job.p} exceeds the top class bound")
        if cls != SMALL:
            counts[cls - 1] += 1
    cap = a1_count_cap(m, partition.eps_prime)
    for i, c in enumerate(counts):
        if c > cap:
            if clamp:
                counts[i] = cap
            else:
                raise ValueError(f"class {i + 1} count {c} exceeds cap {cap}")
    return tuple(counts)


@dataclass(frozen=True)
class A1Plan:
    """Immutable per-lane data: the count vector and its virtual schedule.

    n_star[i][j] is the number of class-(i+1) slots on machine j+1;
    ell_star[j] the virtual load of machine j+1.  Plans are shareable
    across runs; all mutable stepping state lives in A1State.
    """

    partition: ClassPartition
    m: int
    vector: tuple[int, ...]
    n_star: tuple[tuple[int, ...], ...]
    ell_star: tuple[Fraction, ...]

    @classmethod
    def build(
        cls,
        partition: ClassPartition,
        m: int,
        vector: tuple[int, ...],
        exact: bool = True,
        certify: Optional[Fraction] = None,
    ) -> "A1Plan":
        """Construct the virtual schedule for the rounded count vector.

        With certify=bound, a greedy virtual schedule is used whenever
        its makespan provably stays within the bound (the guarantee only
        needs the virtual schedule to be that good), and the exact
        search runs otherwise.  exact=False always takes the greedy
        schedule; only callers that can prove the lane irrelevant to any
        guarantee may use it.
        """
        if len(vector) != partition.levels:
            raise ValueError("vector length must equal the number of large classes")
        classes = tuple(
            (partition.rounded_size(i + 1), v) for i, v in enumerate(vector) if v > 0
        )
        inst = MultisetInstance(classes, m)
        if not exact:
            ms: MultisetSchedule = lpt_multiset(inst)
        elif certify is not None:
            ms = lpt_multiset(inst)
            if ms.makespan() > certify:
                ms = opt_multiset(inst)
        else:
            ms = opt_multiset(inst)
        by_size = {size: ms.counts[k] for k, size in enumerate(ms.sizes)}
        n_star = []
        for i, v in enumerate(vector):
            row = by_size.get(partition.rounded_size(i + 1)) if v > 0 else None
            n_star.append(tuple(row) if row is not None else (0,) * m)
        ell_star = tuple(
            sum(
                (partition.rounded_size(i + 1) * n_star[i][j] for i in range(partition.levels)),
                Fraction(0),
            )
            for j in range(m)
        )
        return cls(partition, m, vector, tuple(n_star), ell_star)


class A1State:
    """Mutable lane state stepping one schedule under a fixed plan."""

    def __init__(self, plan: A1Plan, label: int = 0):
        self.plan = plan
        self.m = plan.m
        self.label = label
        m = plan.m
        self.n_cur = [[0] * m for _ in range(plan.partition.levels)]
        self.ell_s = [Fraction(0)] * m
        self.large_load = [Fraction(0)] * m
        self.loads = [Fraction(0)] * m
        self.schedule = Schedule(m, label)
        # Per-class slot heaps: machine index pushed once per virtual slot.
        self._slots = []
        for i in range(plan.partition.levels):
            heap = []
            for j in range(m):
                heap.extend([j] * plan.n_star[i][j])
            heapq.heapify(heap)
            self._slots.append(heap)
        self._small_heap = [(plan.ell_star[j], j) for j in range(m)]
        heapq.heapify(self._small_heap)
        self._load_heap = [(Fraction(0), j) for j in range(m)]
        heapq.heapify(self._load_heap)

    def _slack(self, cls: int, j: int) -> int:
        return self.plan.n_star[cls - 1][j] - self.n_cur[cls - 1][j]

    def propose(self, job: Job) -> Optional[int]:
        cls = self.plan.partition.classify(job.p)
        if cls is None:
            return None
        if cls == SMALL:
            heap = self._small_heap
            while heap[0][0] != self.plan.ell_star[heap[0][1]] + self.ell_s[heap[0][1]]:
                heapq.heappop(heap)
            return heap[0][1] + 1
        slots = self._slots[cls - 1]
        while slots and self._slack(cls, slots[0]) <= 0:
            heapq.heappop(slots)
        if slots:
            return slots[0] + 1
        # No machine wants this class any more: fall back to least loaded.
        heap = self._load_heap
        while heap[0][0] != self.loads[heap[0][1]]:
            heapq.heappop(heap)
        return heap[0][1] + 1

    def record(self, job: Job, machine: int) -> None:
        cls = self.plan.partition.classify(job.p)
        if cls is None:
            raise ValueError("cannot record a job that has no class")
        j = machine - 1
        if cls == SMALL:
            self.ell_s[j] += job.p
            heapq.heappush(self._small_heap, (self.plan.ell_star[j] + self.ell_s[j], j))
        else:
            self.n_cur[cls - 1][j] += 1
            self.large_load[j] += job.p
        self.loads[j] += job.p
        heapq.heappush(self._load_heap, (self.loads[j], j))
        self.schedule.assign(machine, job)

    def step(self, job: Job) -> Optional[int]:
        """propose + record; None means the job had no class (not placed)."""
        machine = self.propose(job)
        if machine is not None:
            self.record(job, machine)
        return machine


class A1Family:
    """A full or targeted lane family for one (eps, m, T) choice.

    Count vectors are enumerated lexicographically; a lane's label is
    its vector's position in that order.  Plans are built lazily so that
    family-size accounting does not pay for virtual schedules.
    """

    def __init__(self, partition: ClassPartition, m: int, vectors: list[tuple[int, ...]]):
        self.partition = partition
        self.m = m
        self.vectors = vectors
        self._plans: dict[tuple[int, ...], A1Plan] = {}

    @property
    def size(self) -> int:
        return len(self.vectors)

    def plan(self, vector: tuple[int, ...]) -> A1Plan:
        plan = self._plans.get(vector)
        if plan is None:
            plan = A1Plan.build(self.partition, self.m, vector)
            self._plans[vector] = plan
        return plan

    def lanes(self) -> list[A1State]:
        return [A1State(self.plan(v), label=k) for k, v in enumerate(self.vectors)]


def a1_family_size(eps: Fraction, m: int) -> int:
    """Closed-form full family cardinality (count cap + 1) ** levels."""
    partition = a1_partition(Fraction(eps), Fraction(1))
    return (a1_count_cap(m, partition.eps_prime) + 1) ** partition.levels


def a1_family(
    eps: Fraction,
    m: int,
    T: Fraction,
    vector: Optional[tuple[int, ...]] = None,
    lane_cap: Optional[int] = None,
    prune: bool = False,
) -> A1Family:
    """Build the lane family; `vector` restricts it to a single lane.

    prune=True drops vectors whose rounded total volume already exceeds
    m*(1+eps')*T, which no sequence with optimum <= T can realize.  The
    flag is off by default so the full family matches the closed form.
    """
    partition = a1_partition(Fraction(eps), Fraction(T))
    cap = a1_count_cap(m, partition.eps_prime)
    if vector is not None:
        vector = tuple(int(v) for v in vector)
        if len(vector) != partition.levels:
            raise ValueError("vector length must equal the number of large classes")
        if any(v < 0 or v > cap for v in vector):
            raise ValueError("vector entries must lie in 0..floor(m/eps')")
        return A1Family(partition, m, [vector])
    lane_cap = default_lane_cap(lane_cap)
    total = (cap + 1) ** partition.levels
    if total > lane_cap:
        raise LaneCapExceeded(
            f"full family has {total} lanes, above the cap {lane_cap}; "
            "use a targeted vector or raise the cap"
        )
    vectors = []
    budget = m * (1 + partition.eps_prime) * partition.T
    for v in itertools.product(range(cap + 1), repeat=partition.levels):
        if prune:
            volume = sum(
                (partition.rounded_size(i + 1) * v[i] for i in range(partition.levels)),
                Fraction(0),
            )
            if volume > budget:
                continue
        vectors.append(v)
    return A1Family(partition, m, vectors)
