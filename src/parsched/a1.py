"""Census-guessing lane family: one lane per guessed count of large jobs.

Given an assumed optimum T, job sizes are partitioned into a geometric
ladder of classes.  Each lane fixes a vector of per-class counts, builds
a virtual schedule of makespan at most (1+eps')*T for those counts
rounded up to class ceilings (LPT when it stays within that bound, else
an exact fit decision at it), and then follows that virtual schedule
online: large jobs fill the virtual slots of their class, small jobs go
wherever virtual load plus accumulated small load is lowest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from ._scaling import GuessLadder, ScaledLane, stream_counts
from .core import Job, LaneCapExceeded, LeastLoaded, add_equal, check_lane_cap
from .oracle import MultisetInstance, fit_multiset
from .rational import accuracy, ceil_log

__all__ = [
    "ClassPartition",
    "A1Plan",
    "A1Plans",
    "A1State",
    "A1Family",
    "LaneCapExceeded",
    "a1_partition",
    "a1_true_vector",
    "a1_family",
    "a1_family_size",
    "a1_count_cap",
]

SMALL = 0


@dataclass(frozen=True)
class ClassPartition(GuessLadder):
    """Size classes under assumed optimum T.

    Class 0 holds small jobs, sizes in (0, eps'*T].  Class i >= 1 holds
    sizes in (bounds[i-1], bounds[i]] where bounds[i] = (1+eps')^i *
    eps' * T; a size above bounds[levels] has no class.  The top bound is
    always >= T, so every job of a sequence whose true optimum is <= T
    falls into some class.

    Only T depends on the guess: the bounds are T times the integers
    ``ladder`` over ``unit`` (see GuessLadder), which depend on eps alone.
    A run builds the ladder once and rebinds it to each guess with ``at``.
    """

    eps: Fraction
    eps_prime: Fraction
    levels: int  # number of large classes
    T: Fraction
    unit: int
    ladder: tuple[int, ...]

    def at(self, T: Fraction) -> "ClassPartition":
        """The same ladder under the guess T > 0."""
        if T.numerator <= 0:
            raise ValueError("assumed optimum must be positive")
        return ClassPartition(self.eps, self.eps_prime, self.levels, T, self.unit, self.ladder)


def a1_partition(eps: Fraction, T: Fraction = Fraction(1)) -> ClassPartition:
    """The class partition of accuracy eps under the guess T.  For eps' = p/q
    in lowest terms, bounds[i] / T = p*(q+p)**i / q**(i+1) is in lowest terms
    too, so unit = q**(levels+1) is the ladder's least common denominator."""
    eps = accuracy(eps)
    eps_prime = eps / 2
    levels = ceil_log(1 / eps_prime, 1 + eps_prime)
    p, q = eps_prime.numerator, eps_prime.denominator
    ladder = tuple(p * (q + p) ** i * q ** (levels - i) for i in range(levels + 1))
    return ClassPartition(eps, eps_prime, levels, Fraction(1), q ** (levels + 1), ladder).at(Fraction(T))


def a1_count_cap(m: int, eps_prime: Fraction) -> int:
    """Per-class count ceiling floor(m/eps'); larger counts contradict OPT <= T."""
    return int(Fraction(m) / eps_prime)


def a1_true_vector(jobs: Iterable[Job], partition: ClassPartition, m: int) -> tuple[int, ...]:
    """Exact per-class counts of the large jobs in the stream.

    Raises if a count exceeds floor(m/eps') or a job exceeds the top
    class bound, both of which show that the true optimum is above T.
    """
    counts = stream_counts(jobs, partition.census, partition.bounds[-1])
    cap = a1_count_cap(m, partition.eps_prime)
    for i, c in enumerate(counts):
        if c > cap:
            raise ValueError(f"class {i + 1} count {c} exceeds cap {cap}")
    return tuple(counts)


@dataclass(frozen=True)
class A1Plan:
    """Immutable per-lane data: the count vector and its virtual schedule.

    n_star[i][j] is the number of class-(i+1) slots on machine j+1 and
    loads[j] the virtual load of machine j+1, an integer in units of
    T/unit for the ``unit`` of the partitions of accuracy ``eps``; slots[i]
    lists, ascending, the machine indices j with n_star[i][j] > 0.  None
    of these depends on T, because the class ceilings are T times a fixed
    ladder: ``build`` works at T = 1 over integers, and one plan serves
    every guess of its accuracy.  ``certified`` marks a greedy schedule
    with makespan within (1+eps')*T, which the lane takes whether or not
    it is exact.  Plans are shareable across guesses and runs; all mutable
    stepping state lives in A1State.
    """

    eps: Fraction
    m: int
    vector: tuple[int, ...]
    n_star: tuple[tuple[int, ...], ...]
    loads: tuple[int, ...]
    slots: tuple[tuple[int, ...], ...]
    certified: bool = False

    @classmethod
    def build(cls, partition: ClassPartition, m: int, vector: tuple[int, ...],
              exact: bool = True) -> "A1Plan":
        """The virtual schedule of the rounded count vector, of makespan at
        most (1+eps')*T, all the guarantee needs: LPT when it stays within
        that bound, else one exact fit decision at the bound, which succeeds
        whenever OPT <= T.  A vector the search proves unfit contradicts
        OPT <= T and keeps LPT; a search over its budget raises
        SearchBudgetExceeded.  exact=False always takes LPT; only callers
        that can prove the lane irrelevant to any guarantee may use it."""
        if len(vector) != partition.levels:
            raise ValueError("vector length must equal the number of large classes")
        if m < 1:
            raise ValueError("machine count must be positive")
        # The rounded class sizes at T = 1, in units, are distinct, positive
        # and ascending: LPT takes the present classes from the top.
        present = [i for i in reversed(range(len(vector))) if vector[i] > 0]
        classes = tuple((partition.ladder[i + 1], vector[i]) for i in present)
        loads = [0] * m
        rows = add_equal(loads, classes)
        limit = partition.unit + partition.ladder[0]  # (1+eps')*T
        certified = max(loads) <= limit
        if exact and not certified:
            fit = fit_multiset(MultisetInstance(classes, m), limit)
            if fit is not None:
                rows, loads = fit.counts, fit.loads()
        n_star, slots = [(0,) * m] * len(vector), [()] * len(vector)
        for i, row in zip(present, rows):
            n_star[i] = row
            slots[i] = tuple(itertools.compress(range(m), row))
        return cls(partition.eps, m, vector, tuple(n_star), tuple(loads), tuple(slots), certified)


class A1Plans:
    """One run's census plans: the plan of each (vector, exact) is built
    once, by the first guess that asks for it, and the same object serves
    every later guess and epoch.  A certified plan, whose greedy schedule
    lies within (1+eps')*T, is the plan of both values of exact and is
    built once."""

    def __init__(self, m: int):
        self.m = m
        self._built: dict[tuple[tuple[int, ...], bool], A1Plan] = {}

    def __len__(self) -> int:
        return len(self._built)

    def get(self, partition: ClassPartition, vector: tuple[int, ...], exact: bool = True) -> A1Plan:
        plan = self._built.get((vector, exact))
        if plan is None:
            plan = self._built[vector, exact] = A1Plan.build(partition, self.m, vector, exact)
            if plan.certified:
                self._built[vector, not exact] = plan
        return plan


class A1State(ScaledLane):
    """Mutable lane state stepping one schedule under a fixed plan and the
    guess's partition, which must be of the plan's accuracy.

    Sizes and loads are integers in units of a lane-local common
    denominator that starts at the partition's ``scale()``, which makes
    the class bounds and the plan's virtual loads integers (see ScaledLane).
    A machine's load is derived: its level (virtual plus small load)
    minus its virtual load plus its large load.  The class-overflow
    fallback, which places by load, keeps the loads in a LeastLoaded from
    its first use on.

    ``least_loaded`` (see ``core.OnlineScheduler``) may be set only on an
    all-zero plan, by a caller that knows every job of the lane is small:
    with no slot and no virtual load, its least level is its least load.
    """

    def __init__(self, plan: A1Plan, partition: ClassPartition, label: int = 0,
                 least_loaded: bool = False):
        if partition.eps is not plan.eps and partition.eps != plan.eps:
            raise ValueError(f"a plan for eps = {plan.eps} cannot run at eps = {partition.eps}")
        zero = not any(plan.vector)
        if least_loaded and not zero:
            raise ValueError("only a lane of the all-zero vector can be least loaded")
        self._least_loaded = least_loaded
        self.plan = plan
        self.partition = partition
        self.m = m = plan.m
        self.label = label
        self._start(partition)
        # Virtual plus small load per machine: a zero plan has no virtual load.
        self._level = LeastLoaded([0] * m if zero else partition.rebind(self._scale, plan.loads))
        self._large = [0] * m  # load of large jobs
        self._loads: Optional[LeastLoaded] = None  # built by _fallback
        self._left = [None] * len(plan.n_star)  # open slots: n_star rows, copied on first use
        # Per class, the position in plan.slots of the lowest machine that
        # may still have an open slot: open slots only ever close.
        self._next_slot = [0] * len(plan.slots)

    @property
    def least_loaded(self) -> bool:
        return self._least_loaded

    def _rescale(self, k: int) -> None:
        self._level.rescale(k)
        self._large = [x * k for x in self._large]
        if self._loads is not None:
            self._loads.rescale(k)

    def _current_loads(self) -> list[int]:
        virtual = self.partition.rebind(self._scale, self.plan.loads)
        return [level - base + large
                for level, base, large in zip(self._level.loads, virtual, self._large)]

    def _fallback(self) -> LeastLoaded:
        if self._loads is None:
            self._loads = LeastLoaded(self._current_loads())
        return self._loads

    @property
    def loads(self) -> list[Fraction]:
        return [Fraction(x, self._scale) for x in self._current_loads()]

    def _choose(self, cls: int, q: int) -> int:
        if cls == SMALL:
            return self._level.least()
        slots, left = self.plan.slots[cls - 1], self._left[cls - 1]
        if left is None:
            left = self._left[cls - 1] = list(self.plan.n_star[cls - 1])
        k = self._next_slot[cls - 1]
        while k < len(slots) and left[slots[k]] <= 0:
            k += 1
        self._next_slot[cls - 1] = k
        if k < len(slots):
            return slots[k]
        # No machine wants this class any more: fall back to least loaded.
        return self._fallback().least()

    def _put(self, cls: int, q: int, j: int) -> None:
        if cls == SMALL:
            self._level.add(j, q)
        else:
            self._left[cls - 1][j] -= 1
            self._large[j] += q
        if self._loads is not None:
            self._loads.add(j, q)


class A1Family:
    """A lane family for one (eps, m, T) choice.

    Count vectors are enumerated lexicographically; a lane's label is
    its vector's position in that order.  Plans are built lazily so that
    family-size accounting does not pay for virtual schedules.
    """

    def __init__(self, partition: ClassPartition, m: int, vectors: list[tuple[int, ...]],
                 plans: Optional[A1Plans] = None):
        self.partition = partition
        self.m = m
        self.vectors = vectors
        self.plans = plans if plans is not None else A1Plans(m)

    @property
    def size(self) -> int:
        return len(self.vectors)

    def at(self, T: Fraction) -> "A1Family":
        """The same lanes under the guess T, sharing one set of plans."""
        return A1Family(self.partition.at(T), self.m, self.vectors, self.plans)

    def plan(self, vector: tuple[int, ...]) -> A1Plan:
        return self.plans.get(self.partition, vector)

    def lanes(self) -> list[A1State]:
        return [A1State(self.plan(v), self.partition, label=k) for k, v in enumerate(self.vectors)]


def a1_family_size(eps: Fraction, m: int) -> int:
    """Closed-form full family cardinality (count cap + 1) ** levels."""
    partition = a1_partition(eps)
    return (a1_count_cap(m, partition.eps_prime) + 1) ** partition.levels


def a1_family(eps: Fraction, m: int, T: Fraction, lane_cap: Optional[int] = None) -> A1Family:
    """Build the full lane family; ``A1Family.at`` rebinds it, with its
    plans, to another guess."""
    partition = a1_partition(eps, T)
    cap = a1_count_cap(m, partition.eps_prime)
    check_lane_cap((cap + 1) ** partition.levels, lane_cap)
    vectors = list(itertools.product(range(cap + 1), repeat=partition.levels))
    return A1Family(partition, m, vectors)
