"""Guess-adjusting reduction from unknown optimum to known optimum.

The wrapper runs h geometrically spaced guesses on the optimum.  Each
guess drives a fresh copy of a known-optimum lane family; a lane *fails*
when its inner rule has no machine, when following the rule would push a
machine past rho * guess, or when the guess drops below the trivial
lower bounds.  Failed lanes place jobs on their least-loaded machine
until every lane of some guess has failed, at which point that guess
(and all smaller ones) jumps past the largest guess and its lanes
restart, ignoring everything placed before the restart.

Lanes reason in *virtual* machine numbers that restart with each epoch;
a lazy binding maps them onto physical machines so that the final
selection sees complete schedules including pre-epoch jobs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .core import Job, JobSequence, OnlineScheduler, Schedule, select_best
from .rational import ceil_log

__all__ = [
    "WrapperParams",
    "GuessLane",
    "AStar",
    "astar_params",
    "astar_init",
    "check_failure",
    "run_guess_once",
]

# Builds one epoch's lane set: (assumed optimum, epoch start index) -> schedulers.
InnerFactory = Callable[[Fraction, int], Sequence[OnlineScheduler]]

FAIL_NO_RULE = "i"
FAIL_OVERLOAD = "ii"
FAIL_BOUNDS = "iii"

_ZERO = Fraction(0)  # one shared zero for every lane's fresh loads


@dataclass(frozen=True)
class WrapperParams:
    rho: Fraction  # competitiveness claimed by the inner family
    eps_outer: Fraction
    eps_g: Fraction  # guess step, eps_outer / (3 rho)
    h: int  # number of concurrent guesses


def astar_params(rho: Fraction, eps: Fraction) -> WrapperParams:
    rho = Fraction(rho)
    eps = Fraction(eps)
    if rho < 1:
        raise ValueError("inner ratio must be at least 1")
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    eps_g = eps / (3 * rho)
    h = ceil_log(1 + 6 * rho / eps, 1 + eps_g)
    return WrapperParams(rho, eps, eps_g, h)


def check_failure(
    proposal: Optional[int],
    virtual_load: Fraction,
    p: Fraction,
    gamma: Fraction,
    prefix_sum: Fraction,
    m: int,
    rho: Fraction,
) -> Optional[str]:
    """First failure condition that applies, or None.

    ``prefix_sum`` is over the whole sequence processed so far including
    the current job, never epoch-relative; ``virtual_load`` is the
    epoch-relative load of the proposed machine.
    """
    if proposal is None:
        return FAIL_NO_RULE
    if gamma < prefix_sum / m or gamma < p:
        return FAIL_BOUNDS
    if virtual_load + p > rho * gamma:
        return FAIL_OVERLOAD
    return None


class GuessLane:
    """One inner scheduler plus its virtual/physical bookkeeping."""

    __slots__ = (
        "m", "physical", "inner", "failed", "fail_reason",
        "virtual_loads", "_virt_heap", "binding", "bound_physical", "_free",
    )

    def __init__(self, m: int, label: int):
        self.m = m
        self.physical = Schedule(m, label)
        self.inner: Optional[OnlineScheduler] = None
        self.failed = False
        self.fail_reason: Optional[str] = None
        self.virtual_loads = [_ZERO] * m
        self._virt_heap: Optional[list] = None
        self.binding: dict[int, int] = {}
        self.bound_physical: set[int] = set()
        self._free: Optional[list[int]] = None

    def least_virtual(self) -> int:
        # Only failed lanes ask: build the heap at an epoch's first failure.
        heap = self._virt_heap
        if heap is None:
            heap = self._virt_heap = [(load, v) for v, load in enumerate(self.virtual_loads)]
            heapq.heapify(heap)
        while heap[0][0] != self.virtual_loads[heap[0][1]]:
            heapq.heappop(heap)
        return heap[0][1]

    def reset_epoch(self, inner: OnlineScheduler) -> None:
        self.inner = inner
        self.failed = False
        self.fail_reason = None
        self.virtual_loads = [_ZERO] * self.m
        self._virt_heap = None
        self.binding = {}
        self.bound_physical = set()
        self._free = None

    def bind(self, v: int) -> int:
        """Bind virtual machine v to the least-loaded unbound physical one.

        Unbound physical machines receive no jobs within an epoch, so
        their loads stay frozen: the epoch's first bind orders all
        machines once by (load, index), and each bind pops the least one
        not bound yet.
        """
        free = self._free
        if free is None:
            loads = self.physical.loads()
            free = self._free = sorted(range(self.m), key=loads.__getitem__)
            free.reverse()  # the sort is stable, so pop() gives the lowest index on ties
        best = free.pop()
        while best in self.bound_physical:
            best = free.pop()
        self.binding[v] = best
        self.bound_physical.add(best)
        return best

    def commit(self, job: Job, v: int) -> int:
        """Place the job on virtual machine v; returns the physical machine."""
        phys = self.binding.get(v)
        if phys is None:
            phys = self.bind(v)
        self.physical.assign(phys + 1, job)
        self.virtual_loads[v] += job.p
        if self._virt_heap is not None:
            heapq.heappush(self._virt_heap, (self.virtual_loads[v], v))
        return phys

    def place(self, job: Job, gamma: Fraction, prefix_sum: Fraction, rho: Fraction) -> Optional[str]:
        """Place one job: follow the inner rule unless a failure condition applies.

        A lane that fails here, or failed before, puts the job on its least
        loaded virtual machine.  Returns the reason when the lane fails on
        this job, else None.
        """
        if self.failed:
            self.commit(job, self.least_virtual())
            return None
        proposal = self.inner.propose(job)
        virtual_load = _ZERO if proposal is None else self.virtual_loads[proposal - 1]
        reason = check_failure(proposal, virtual_load, job.p, gamma, prefix_sum, self.m, rho)
        if reason is None:
            self.inner.record(job, proposal)
            self.commit(job, proposal - 1)
        else:
            self.failed = True
            self.fail_reason = reason
            self.commit(job, self.least_virtual())
        return reason


class _Group:
    __slots__ = ("var_id", "gamma", "lanes", "last_adjust_t")

    def __init__(self, var_id: int, gamma: Fraction, lanes: list[GuessLane]):
        self.var_id = var_id
        self.gamma = gamma
        self.lanes = lanes
        self.last_adjust_t = 1


class AStar:
    """The wrapper's run state over all guesses and lanes."""

    def __init__(
        self,
        params: WrapperParams,
        m: int,
        inner_factory: InnerFactory,
        check: bool = False,
        trace: Optional[Callable[[dict], None]] = None,
    ):
        self.params = params
        self.m = m
        self.factory = inner_factory
        self.check = check
        self.trace = trace
        self.groups: list[_Group] = []
        self.prefix_sum = Fraction(0)
        self.max_p = Fraction(0)
        self.t = 0
        self.adjustments = 0
        self.lanes_per_guess = 0

    def _emit(self, **event) -> None:
        if self.trace is not None:
            self.trace(event)

    def _init(self, p1: Fraction) -> None:
        step = 1 + self.params.eps_g
        gamma = Fraction(p1)
        for var_id in range(self.params.h):
            inners = list(self.factory(gamma, 1))
            if var_id == 0:
                self.lanes_per_guess = len(inners)
            elif len(inners) != self.lanes_per_guess:
                raise ValueError("inner factory must return a fixed number of lanes")
            lanes = []
            for k, inner in enumerate(inners):
                lane = GuessLane(self.m, label=var_id * self.lanes_per_guess + k)
                lane.inner = inner
                lanes.append(lane)
            self.groups.append(_Group(var_id, gamma, lanes))
            self._emit(t=1, event="init", var=var_id, gamma=str(gamma))
            gamma = gamma * step

    def _reset_group(self, group: _Group, new_gamma: Fraction, job: Job) -> None:
        if self.check:
            grown = group.gamma * (1 + self.params.eps_g) ** self.params.h
            assert new_gamma >= grown, "adjustment grew the guess too little"
        self._emit(t=self.t, event="adjust", var=group.var_id,
                   old=str(group.gamma), new=str(new_gamma))
        group.gamma = new_gamma
        group.last_adjust_t = self.t
        self.adjustments += 1
        inners = list(self.factory(new_gamma, self.t))
        if len(inners) != self.lanes_per_guess:
            raise ValueError("inner factory must return a fixed number of lanes")
        for lane, inner in zip(group.lanes, inners):
            phys_of_job = lane.physical.assignment[job.index] - 1
            lane.reset_epoch(inner)
            proposal = inner.propose(job)
            if proposal is None:
                lane.failed = True
                lane.fail_reason = FAIL_NO_RULE
                v = 0
            else:
                inner.record(job, proposal)
                v = proposal - 1
            # The job keeps its physical spot and becomes the epoch's
            # first job on the machine the fresh inner would open.
            lane.binding[v] = phys_of_job
            lane.bound_physical.add(phys_of_job)
            lane.virtual_loads[v] = job.p

    def step(self, job: Job) -> None:
        self.t += 1
        if self.t != job.index:
            raise ValueError("jobs must be fed in arrival order")
        if self.t == 1 and not self.groups:
            self._init(job.p)
        self.prefix_sum += job.p
        if job.p > self.max_p:
            self.max_p = job.p
        for group in self.groups:
            for lane in group.lanes:
                reason = lane.place(job, group.gamma, self.prefix_sum, self.params.rho)
                if reason is not None:
                    self._emit(t=self.t, event="fail", var=group.var_id,
                               gamma=str(group.gamma), lane=lane.physical.label, reason=reason)
        dead_positions = [
            pos for pos, group in enumerate(self.groups)
            if all(lane.failed for lane in group.lanes)
        ]
        if dead_positions:
            i_star = max(dead_positions)
            anchor = max(self.groups[-1].gamma, job.p, self.prefix_sum / self.m)
            step = 1 + self.params.eps_g
            new_gamma = anchor
            for group in self.groups[: i_star + 1]:
                new_gamma = new_gamma * step
                self._reset_group(group, new_gamma, job)
            self.groups.sort(key=lambda g: g.gamma)
        if self.check:
            for lo, hi in zip(self.groups, self.groups[1:]):
                assert lo.gamma * (1 + self.params.eps_g) <= hi.gamma, "guess order broken"

    def run(self, seq: JobSequence) -> Schedule:
        for job in seq:
            self.step(job)
        return self.finish()

    def finish(self) -> Schedule:
        if not self.groups:
            return Schedule(self.m, 0)  # empty sequence: empty schedule
        return select_best(lane.physical for group in self.groups for lane in group.lanes)

    # Diagnostics used by the acceptance suite.
    def smallest_gamma(self) -> Fraction:
        return self.groups[0].gamma

    def smallest_guess_has_live_lane(self) -> bool:
        return any(not lane.failed for lane in self.groups[0].lanes)

    def lane_count(self) -> int:
        return sum(len(group.lanes) for group in self.groups)


def astar_init(
    inner_factory: InnerFactory,
    params: WrapperParams,
    m: int,
    p1: Fraction,
    check: bool = False,
) -> AStar:
    """Wrapper state with guesses seeded from the first job's size."""
    if p1 <= 0:
        raise ValueError("first job size must be positive")
    state = AStar(params, m, inner_factory, check=check)
    state._init(Fraction(p1))
    state.t = 0
    return state


def run_guess_once(
    schedulers: Sequence[OnlineScheduler],
    seq: JobSequence,
    gamma: Fraction,
    rho: Fraction,
):
    """Run one fixed guess over a whole sequence, no adjustments.

    Returns (failed flags, fail reasons, schedules); failed lanes fall
    back to least-loaded placement.  This is the single-epoch view used
    to probe which lanes survive a given guess.
    """
    lanes = [GuessLane(seq.m, label=k) for k in range(len(schedulers))]
    for lane, inner in zip(lanes, schedulers):
        lane.inner = inner
    prefix = Fraction(0)
    for job in seq:
        prefix += job.p
        for lane in lanes:
            lane.place(job, gamma, prefix, rho)
    return (
        [lane.failed for lane in lanes],
        [lane.fail_reason for lane in lanes],
        [lane.physical for lane in lanes],
    )
