"""Guess-adjusting reduction from unknown optimum to known optimum.

The wrapper runs h geometrically spaced guesses on the optimum.  Each
guess drives a fresh copy of a known-optimum lane family; a lane *fails*
when its inner rule has no machine, when following the rule would push a
machine past rho * guess, or when the guess drops below the trivial
lower bounds.  Failed lanes, and lanes whose inner rule is the same,
place jobs on their least-loaded machine until every lane of some guess
has failed, at which point that guess (and all smaller ones) jumps past
the largest guess and its lanes restart, ignoring everything placed
before the restart.

Lanes reason in *virtual* machine numbers that restart with each epoch;
when an epoch closes, a binding maps them onto physical machines so that
the final selection sees complete schedules including pre-epoch jobs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .core import (
    InvariantViolation, Job, JobSequence, LeastLoaded, OnlineScheduler, Schedule, select_best,
)
from .rational import ceil_log

__all__ = [
    "WrapperParams",
    "InvariantViolation",
    "Epoch",
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
    virtual_load: int,
    q: int,
    prefix: int,
    caps: tuple[int, int, int],
) -> Optional[str]:
    """First failure condition that applies, or None.

    Every number is an integer in units of 1/S for one run-wide scale S:
    ``q`` is the job's size, ``prefix`` the sum of the whole sequence
    processed so far including the current job (never epoch-relative),
    ``virtual_load`` the epoch-relative load of the proposed machine, and
    ``caps`` the guess's ``(floor(gamma*S), floor(gamma*m*S),
    floor(rho*gamma*S))``.  Since q, prefix and the load are integers,
    ``q > floor(gamma*S)`` is exactly ``gamma < p``, and likewise for the
    average-load and overload tests.  ``GuessLane.place`` applies these
    tests in this order, with the bounds test, which is the same for
    every lane of a guess, made once per guess and job.
    """
    if proposal is None:
        return FAIL_NO_RULE
    gamma_cap, mean_cap, load_cap = caps
    if q > gamma_cap or prefix > mean_cap:
        return FAIL_BOUNDS
    if virtual_load + q > load_cap:
        return FAIL_OVERLOAD
    return None


def _out_of_range(proposal: int, m: int) -> ValueError:
    return ValueError(f"machine {proposal} out of range 1..{m}")


class Epoch:
    """One epoch's virtual schedule: the virtual loads, the virtual machine
    of each job and the virtual machines in the order of their first use.

    Graham's rule places through ``place_least``, which wraps the loads in
    a ``LeastLoaded`` on first use.  The rule does not depend on the
    guess, so an epoch that flagged lanes share places each job once, for
    the first lane that asks, and ``AStar`` rescales it once.
    """

    __slots__ = ("shared", "loads", "least", "vms", "opened", "last")

    def __init__(self, m: int, shared: bool = False):
        self.shared = shared
        self.loads = [0] * m
        self.least: Optional[LeastLoaded] = None
        self.vms: list[int] = []
        self.opened: list[int] = []
        self.last = 0  # index of the last job place_least placed

    def rescale(self, k: int) -> None:
        if self.least is not None:
            self.least.rescale(k)
            self.loads = self.least.loads
        else:
            self.loads = [x * k for x in self.loads]

    def place_least(self, t: int, q: int) -> int:
        """Job t, of size q, on the least loaded virtual machine (lowest
        index on ties) unless it is there already; that machine's load
        before the job."""
        if self.last == t:
            return self.loads[self.vms[-1]] - q
        least = self.least
        if least is None:
            least = self.least = LeastLoaded(self.loads)  # shares the list: least.add updates it
        v = least.least()
        load = self.loads[v]
        if not load:
            self.opened.append(v)
        least.add(v, q)
        self.vms.append(v)
        self.last = t
        return load


class GuessLane:
    """One inner scheduler plus its virtual/physical bookkeeping.

    Loads are integers in units of 1/S for the run-wide scale S of the
    driving ``AStar``; ``rescale`` follows its growth.  Within an epoch
    the lane keeps only its ``Epoch``.  A live lane follows its inner; a
    failed one places on its least loaded virtual machine.  A lane whose
    inner is *flagged* (``least_loaded``, see ``core.OnlineScheduler``)
    never steps it: it shares the epoch of every flagged lane opened at the
    same job, and tests its failure conditions on the machine Graham's rule picks.

    Physical machines are bound only when the epoch closes or a caller
    asks (``physical``, ``physical_loads``).  The rule is: the k-th
    virtual machine first used gets the k-th unbound physical machine by
    (load, index), where the restart job pre-binds its virtual machine.
    Unbound physical machines receive no jobs within an epoch, so their
    loads are frozen at the epoch start, and binding at the close gives
    what binding at each first use would.  ``jobs`` is the driver's list
    of every job in arrival order, shared by all its lanes.
    """

    __slots__ = (
        "m", "label", "jobs", "inner", "flagged", "failed", "fail_reason", "epoch", "prebound",
        "placed", "loads",
    )

    def __init__(self, m: int, label: int, jobs: list[Job],
                 inner: Optional[OnlineScheduler] = None, shared: Optional[Epoch] = None):
        self.m = m
        self.label = label
        self.jobs = jobs
        self.placed: list[int] = []  # 0-based physical machine of each job of closed epochs
        self.loads = [0] * m  # physical loads of the closed epochs
        self.reset_epoch(inner, shared)

    def reset_epoch(self, inner: Optional[OnlineScheduler], shared: Optional[Epoch] = None) -> None:
        """Open an epoch under a fresh inner; a flagged one takes ``shared``."""
        self.inner = inner
        self.flagged = getattr(inner, "least_loaded", False)
        self.epoch = shared if self.flagged and shared is not None else Epoch(self.m)
        self.failed = False
        self.fail_reason: Optional[str] = None
        self.prebound: Optional[tuple[int, int]] = None  # (virtual, physical) of the restart job

    def rescale(self, k: int) -> None:
        """Multiply the physical loads, and the virtual ones unless the
        epoch is shared, by k (the run-wide scale grew k-fold)."""
        if not self.epoch.shared:
            self.epoch.rescale(k)
        self.loads = [x * k for x in self.loads]

    def _binding(self) -> dict[int, int]:
        """The physical machine of each virtual machine the epoch used."""
        free = sorted(range(self.m), key=self.loads.__getitem__)  # by (load, index)
        opened = self.epoch.opened
        if self.prebound is None:
            return dict(zip(opened, free))
        v, j = self.prebound  # the restart job's machine, opened[0]
        free.remove(j)
        binding = dict(zip(opened[1:], free))
        binding[v] = j
        return binding

    def _bound_loads(self, binding: dict[int, int]) -> list[int]:
        """The physical loads once the epoch's virtual loads sit on their bound machines."""
        loads = self.loads[:]
        virtual = self.epoch.loads
        for v, j in binding.items():
            loads[j] += virtual[v]
        return loads

    def close_epoch(self) -> None:
        """Bind the epoch's virtual machines and fold it into the placements."""
        binding = self._binding()
        self.loads = self._bound_loads(binding)
        self.placed += [binding[v] for v in self.epoch.vms]

    @property
    def physical_loads(self) -> list[int]:
        return self._bound_loads(self._binding())

    @property
    def physical(self) -> Schedule:
        """The lane's placements as a Schedule (built afresh on each access)."""
        binding = self._binding()
        schedule = Schedule(self.m, self.label)
        for job, j in zip(self.jobs, self.placed + [binding[v] for v in self.epoch.vms]):
            schedule.assign(j + 1, job)
        return schedule

    def restart(self, inner: OnlineScheduler, job: Job, q: int,
                shared: Optional[Epoch] = None) -> None:
        """Close the epoch and open one under a fresh inner whose first job
        is ``job``, of scaled size q, the last one placed.

        The job keeps its physical machine and becomes the epoch's first
        job on the virtual machine the fresh inner proposes (0 if it has no
        rule or is flagged), which is bound to it from the start.
        """
        self.close_epoch()
        j = self.placed.pop()
        self.loads[j] -= q
        self.reset_epoch(inner, shared)
        epoch = self.epoch
        proposal = None if self.flagged else inner.propose(job)
        if proposal is None:
            if not self.flagged:
                self.failed, self.fail_reason = True, FAIL_NO_RULE
            epoch.place_least(job.index, q)
        elif not 0 < proposal <= self.m:
            raise _out_of_range(proposal, self.m)
        else:
            inner.record(job, proposal)
            epoch.loads[proposal - 1] = q
            epoch.opened.append(proposal - 1)
            epoch.vms.append(proposal - 1)
        self.prebound = (epoch.vms[0], j)

    def place(self, job: Job, q: int, bounds: bool, load_cap: int) -> Optional[str]:
        """Place one job: follow the inner rule unless a failure condition applies.

        This is ``check_failure`` with its guess-wide part precomputed:
        ``bounds`` is whether the job breaks the guess's bounds (size or
        average load) and ``load_cap`` is floor(rho*gamma*S).  A lane that
        fails here, failed before or is flagged puts the job on its least
        loaded virtual machine; a live flagged lane then fails if the
        bounds test (iii) or the overload test (ii) on that machine does.
        Returns the reason when the lane fails on this job, else None.
        """
        reason = None
        epoch = self.epoch
        if not (self.failed or self.flagged):
            proposal = self.inner.propose(job)
            if proposal is None:
                reason = FAIL_NO_RULE
            elif not 0 < proposal <= self.m:
                raise _out_of_range(proposal, self.m)
            elif bounds:
                reason = FAIL_BOUNDS
            else:
                v = proposal - 1
                virtual = epoch.loads
                load = virtual[v]
                if load + q <= load_cap:
                    self.inner.record(job, proposal)
                    if not load:
                        epoch.opened.append(v)
                    virtual[v] = load + q
                    epoch.vms.append(v)
                    return None
                reason = FAIL_OVERLOAD
            self.failed, self.fail_reason = True, reason
        load = epoch.place_least(job.index, q)
        if not self.failed:
            if bounds:
                reason = FAIL_BOUNDS
            elif load + q > load_cap:
                reason = FAIL_OVERLOAD
            else:
                return None
            self.failed, self.fail_reason = True, reason
        return reason


class _Group:
    __slots__ = ("var_id", "gamma", "lanes", "live", "caps")

    def __init__(self, var_id: int, gamma: Fraction, lanes: list[GuessLane]):
        self.var_id = var_id
        self.gamma = gamma
        self.lanes = lanes
        self.live = len(lanes)  # lanes that have not failed
        self.caps = (0, 0, 0)  # check_failure's caps, set by AStar._set_caps


class AStar:
    """The wrapper's run state over all guesses and lanes.

    Sizes, the prefix sum and every lane's virtual loads are integers in
    units of 1/S, where the run-wide scale S is the lcm of the job
    denominators seen so far; when a job's denominator does not divide S,
    S and every stored number grow by the same factor.
    """

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
        self.jobs: list[Job] = []  # every job so far, shared by all lanes
        self.t = 0
        self.adjustments = 0
        self.lanes_per_guess = 0
        self._past_violations = 0  # fill-line violations of inners replaced at adjustments
        self._scale = 1
        self._prefix = 0
        self._step = 1 + params.eps_g  # ratio of neighbouring guesses
        self._growth = self._step**params.h  # least growth of an adjusted guess

    def _emit(self, **event) -> None:
        if self.trace is not None:
            self.trace({k: str(v) if isinstance(v, Fraction) else v for k, v in event.items()})

    def _set_caps(self, group: _Group) -> None:
        """floor(gamma*S), floor(gamma*m*S) and floor(rho*gamma*S) for the group's guess."""
        rho = self.params.rho
        num, den = group.gamma.numerator * self._scale, group.gamma.denominator
        group.caps = (num // den, num * self.m // den,
                      num * rho.numerator // (den * rho.denominator))

    def _feed(self, p: Fraction) -> int:
        """The job size in units of 1/S, added to the prefix; grows S first if needed."""
        scale, den = self._scale, p.denominator
        if scale % den:
            k = den // math.gcd(scale, den)
            self._scale = scale = scale * k
            self._prefix *= k
            shared = {}
            for group in self.groups:
                self._set_caps(group)
                for lane in group.lanes:
                    lane.rescale(k)
                    if lane.epoch.shared:
                        shared[id(lane.epoch)] = lane.epoch
            for epoch in shared.values():
                epoch.rescale(k)
        q = p.numerator * (scale // den)
        self._prefix += q
        return q

    def _check_guess_order(self) -> None:
        """Each guess is at least step times the one before it, compared
        over cross-multiplied integers."""
        sn, sd = self._step.numerator, self._step.denominator
        for lo, hi in zip(self.groups, self.groups[1:]):
            a, b = lo.gamma, hi.gamma
            if a.numerator * sn * b.denominator > b.numerator * a.denominator * sd:
                raise InvariantViolation("guess order broken")

    def _init(self, p1: Fraction) -> None:
        step = self._step
        gamma = Fraction(p1)
        shared = Epoch(self.m, shared=True)  # the epoch of every flagged lane
        for var_id in range(self.params.h):
            inners = list(self.factory(gamma, 1))
            if var_id == 0:
                self.lanes_per_guess = len(inners)
            elif len(inners) != self.lanes_per_guess:
                raise ValueError("inner factory must return a fixed number of lanes")
            lanes = [GuessLane(self.m, var_id * self.lanes_per_guess + k, self.jobs, inner, shared)
                     for k, inner in enumerate(inners)]
            group = _Group(var_id, gamma, lanes)
            self._set_caps(group)
            self.groups.append(group)
            self._emit(t=1, event="init", var=var_id, gamma=gamma)
            gamma = gamma * step
        if self.check:
            self._check_guess_order()

    def _reset_group(self, group: _Group, new_gamma: Fraction, job: Job, q: int,
                     shared: Epoch) -> None:
        if self.check:
            old, growth = group.gamma, self._growth  # new_gamma >= old * growth, in integers
            if (new_gamma.numerator * old.denominator * growth.denominator
                    < old.numerator * growth.numerator * new_gamma.denominator):
                raise InvariantViolation("adjustment grew the guess too little")
        self._emit(t=self.t, event="adjust", var=group.var_id,
                   old=group.gamma, new=new_gamma)
        group.gamma = new_gamma
        self._set_caps(group)
        self.adjustments += 1
        inners = list(self.factory(new_gamma, self.t))
        if len(inners) != self.lanes_per_guess:
            raise ValueError("inner factory must return a fixed number of lanes")
        for lane, inner in zip(group.lanes, inners):
            self._past_violations += getattr(lane.inner, "fill_violations", 0)
            lane.restart(inner, job, q, shared)
        group.live = sum(not lane.failed for lane in group.lanes)

    def _place(self, job: Job, q: int) -> int:
        """Every lane places the job under its group's guess.

        Returns the position of the largest guess none of whose lanes is
        live any more, or -1 if every guess has a live lane.
        """
        prefix = self._prefix
        self.jobs.append(job)
        i_star = -1
        for pos, group in enumerate(self.groups):
            gamma_cap, mean_cap, load_cap = group.caps
            bounds = q > gamma_cap or prefix > mean_cap  # check_failure's test (iii)
            for lane in group.lanes:
                reason = lane.place(job, q, bounds, load_cap)
                if reason is not None:
                    group.live -= 1
                    self._emit(t=self.t, event="fail", var=group.var_id,
                               gamma=group.gamma, lane=lane.label, reason=reason)
            if not group.live:
                i_star = pos
        return i_star

    def step(self, job: Job) -> None:
        self.t += 1
        if self.t != job.index:
            raise ValueError("jobs must be fed in arrival order")
        q = self._feed(job.p)
        if self.t == 1 and not self.groups:
            self._init(job.p)
        i_star = self._place(job, q)
        if i_star >= 0:
            mean = Fraction(self._prefix, self._scale * self.m)
            anchor = max(self.groups[-1].gamma, job.p, mean)
            new_gamma = anchor
            reset = self.groups[: i_star + 1]
            shared = Epoch(self.m, shared=True)  # the epoch of every flagged lane reset here
            for group in reset:
                new_gamma = new_gamma * self._step
                self._reset_group(group, new_gamma, job, q, shared)
            # The reset guesses are anchor * step**k for k = 1, 2, ..., all
            # above the largest guess kept, so moving them to the end keeps
            # the guesses sorted.
            self.groups = self.groups[i_star + 1 :] + reset
            if self.check:
                self._check_guess_order()

    def run(self, seq: JobSequence) -> Schedule:
        for job in seq:
            self.step(job)
        return self.finish()

    def finish(self) -> Schedule:
        if not self.groups:
            return Schedule(self.m, 0)  # empty sequence: empty schedule
        # Every lane's physical loads share the run-wide scale, so comparing
        # them picks the schedule select_best would; only that one is built.
        lanes = [lane for group in self.groups for lane in group.lanes]
        if not lanes:
            return select_best(())  # raises: nothing to select from
        return min(lanes, key=lambda lane: (max(lane.physical_loads), lane.label)).physical

    # Diagnostics used by the acceptance suite.
    def smallest_gamma(self) -> Fraction:
        return self.groups[0].gamma

    def smallest_guess_has_live_lane(self) -> bool:
        return any(not lane.failed for lane in self.groups[0].lanes)

    def lane_count(self) -> int:
        return sum(len(group.lanes) for group in self.groups)

    def fill_violations(self) -> int:
        """Fill-line violations counted by the inner lanes over all epochs.

        Only configuration lanes count them; an inner without a
        ``fill_violations`` count (a census lane, or a proxy that forwards
        only ``propose`` and ``record``) adds zero."""
        return self._past_violations + sum(
            getattr(lane.inner, "fill_violations", 0)
            for group in self.groups for lane in group.lanes)


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
    # One guess (h = 1) whose factory hands out the given schedulers.
    params = WrapperParams(Fraction(rho), Fraction(1), Fraction(0), 1)
    state = AStar(params, seq.m, lambda T, start_t: schedulers)
    state._init(Fraction(gamma))
    for job in seq:
        state._place(job, state._feed(job.p))
    lanes = state.groups[0].lanes
    return (
        [lane.failed for lane in lanes],
        [lane.fail_reason for lane in lanes],
        [lane.physical for lane in lanes],
    )
