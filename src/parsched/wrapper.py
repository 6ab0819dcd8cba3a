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


class Epoch:
    """One epoch's virtual schedule: the virtual loads, the virtual machine
    of each job and the virtual machines in the order of their first use.

    Every placement goes through ``put``.  Graham's rule places through
    ``place_least``, which wraps the loads in a ``LeastLoaded`` on first
    use.  The rule does not depend on the guess, so an epoch that flagged
    lanes share places each job once, for the first lane that asks.
    ``AStar`` rescales each epoch once, however many lanes hold it.
    """

    __slots__ = ("loads", "least", "vms", "opened", "last")

    def __init__(self, m: int):
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

    def put(self, v: int, q: int) -> int:
        """The next job, of size q, on virtual machine v; v's load before the job."""
        load = self.loads[v]
        if not load:
            self.opened.append(v)
        if self.least is None:
            self.loads[v] = load + q
        else:
            self.least.add(v, q)  # shares the list: add updates it
        self.vms.append(v)
        return load

    def place_least(self, t: int, q: int) -> int:
        """Job t, of size q, on the least loaded virtual machine (lowest
        index on ties) unless it is there already; that machine's load
        before the job."""
        if self.last == t:
            return self.loads[self.vms[-1]] - q
        if self.least is None:
            self.least = LeastLoaded(self.loads)
        self.last = t
        return self.put(self.least.least(), q)


class _Stepped:
    """``offer``/``commit`` over an inner that has only ``propose``/``record``."""

    __slots__ = ("inner", "job")

    def __init__(self, inner: OnlineScheduler):
        self.inner, self.job = inner, None

    def offer(self, job: Job, q: int, scale: int) -> Optional[int]:
        self.job = job
        return self.inner.propose(job)

    def commit(self, machine: int) -> None:
        self.inner.record(self.job, machine)


class GuessLane:
    """One inner scheduler plus its virtual/physical bookkeeping.

    Loads are integers in units of 1/S for the run-wide scale S of the
    driving ``AStar``; ``rescale`` follows its growth.  Within an epoch
    the lane keeps only its ``Epoch``.  A live lane follows its inner; a
    failed one places on its least loaded virtual machine.  A lane whose
    inner is *flagged* (``least_loaded``, see ``core.OnlineScheduler``)
    never steps it: it shares the epoch of every flagged lane opened at the
    same job, and tests its failure conditions on the machine Graham's rule picks.
    A stepped lane binds its inner's ``offer``/``commit`` once per epoch.

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
        "m", "label", "jobs", "inner", "_offer", "_commit", "flagged", "failed", "fail_reason",
        "epoch", "prebound", "placed", "loads",
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
        stepped = inner if hasattr(inner, "offer") else _Stepped(inner)
        self._offer, self._commit = stepped.offer, stepped.commit
        self.flagged = getattr(inner, "least_loaded", False)
        self.epoch = shared if self.flagged and shared is not None else Epoch(self.m)
        self.failed = False
        self.fail_reason: Optional[str] = None
        self.prebound: Optional[tuple[int, int]] = None  # (virtual, physical) of the restart job

    def rescale(self, k: int) -> None:
        """Multiply the physical loads by k (the run-wide scale grew
        k-fold); ``AStar`` rescales the epoch."""
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

    def restart(self, inner: OnlineScheduler, job: Job, q: int, scale: int,
                shared: Optional[Epoch] = None) -> None:
        """Close the epoch and open one under a fresh inner whose first job
        is ``job``, of size q in units of 1/scale, the last one placed.

        The job keeps its physical machine and becomes the epoch's first
        job, placed as any job is, which binds its virtual machine to that
        physical one from the start.  Every guess an adjustment sets is at
        least the job's size and the average load, and the job opens the
        epoch on an empty machine, so only the no-rule test (i) can fire.
        """
        self.close_epoch()
        j = self.placed.pop()
        self.loads[j] -= q
        self.reset_epoch(inner, shared)
        self.place(job, q, scale, False, q)
        self.prebound = (self.epoch.vms[0], j)

    def place(self, job: Job, q: int, scale: int, bounds: bool, load_cap: int) -> Optional[str]:
        """Place one job, of size q at the run-wide scale S = ``scale``:
        follow the inner rule unless a failure condition applies.

        The lane finds the job's virtual machine and that machine's load
        before it: a stepped lane from its inner's ``offer(job, q, scale)``,
        a flagged one from the least loaded machine.  It then fails, in
        this order, on no rule (i), on ``bounds`` (iii), whether the job
        breaks the guess's bounds (size or average load), or on an
        overload (ii), the load passing ``load_cap`` = floor(rho*gamma*S).
        A lane that fails, or failed before, puts the job on its least
        loaded virtual machine; a stepped lane that passes ``commit``s it.
        Returns the reason when the lane fails on this job, else None.
        """
        epoch = self.epoch
        if self.failed:
            epoch.place_least(job.index, q)
            return None
        if self.flagged:
            load = epoch.place_least(job.index, q)
        else:
            proposal = self._offer(job, q, scale)
            if proposal is None:
                return self._fail(FAIL_NO_RULE, job, q)
            if not 0 < proposal <= self.m:
                raise ValueError(f"machine {proposal} out of range 1..{self.m}")
            load = epoch.loads[proposal - 1]
        if bounds:
            return self._fail(FAIL_BOUNDS, job, q)
        if load + q > load_cap:
            return self._fail(FAIL_OVERLOAD, job, q)
        if not self.flagged:
            self._commit(proposal)
            epoch.put(proposal - 1, q)
        return None

    def _fail(self, reason: str, job: Job, q: int) -> str:
        """Fail for ``reason`` and put the job on the least loaded virtual machine."""
        self.failed, self.fail_reason = True, reason
        self.epoch.place_least(job.index, q)
        return reason


class _Group:
    __slots__ = ("var_id", "gamma", "lanes", "live", "caps")

    def __init__(self, var_id: int, gamma: Fraction, lanes: list[GuessLane]):
        self.var_id = var_id
        self.gamma = gamma
        self.lanes = lanes
        self.live = len(lanes)  # lanes that have not failed
        self.caps = (0, 0, 0)  # the failure tests' caps, set by AStar._set_caps


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
        self.lanes_per_guess: Optional[int] = None  # set by the first factory call
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
            epochs = set()  # each epoch once, however many lanes hold it
            for group in self.groups:
                self._set_caps(group)
                for lane in group.lanes:
                    lane.rescale(k)
                    epochs.add(lane.epoch)
            for epoch in epochs:
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

    def _inners(self, gamma: Fraction, start_t: int) -> list[OnlineScheduler]:
        """The factory's lanes for one guess; every call must return as many."""
        inners = list(self.factory(gamma, start_t))
        if self.lanes_per_guess is None:
            self.lanes_per_guess = len(inners)
        elif len(inners) != self.lanes_per_guess:
            raise ValueError("inner factory must return a fixed number of lanes")
        return inners

    def _init(self, p1: Fraction) -> None:
        step = self._step
        gamma = Fraction(p1)
        shared = Epoch(self.m)  # the epoch of every flagged lane
        for var_id in range(self.params.h):
            inners = self._inners(gamma, 1)
            lanes = [GuessLane(self.m, var_id * len(inners) + k, self.jobs, inner, shared)
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
        for lane, inner in zip(group.lanes, self._inners(new_gamma, self.t)):
            self._past_violations += getattr(lane.inner, "fill_violations", 0)
            lane.restart(inner, job, q, self._scale, shared)
        group.live = sum(not lane.failed for lane in group.lanes)

    def _place(self, job: Job, q: int) -> int:
        """Every lane places the job under its group's guess.

        Returns the position of the largest guess none of whose lanes is
        live any more, or -1 if every guess has a live lane.
        """
        prefix, scale = self._prefix, self._scale
        self.jobs.append(job)
        i_star = -1
        for pos, group in enumerate(self.groups):
            gamma_cap, mean_cap, load_cap = group.caps
            bounds = q > gamma_cap or prefix > mean_cap  # test (iii), the same for every lane
            for lane in group.lanes:
                reason = lane.place(job, q, scale, bounds, load_cap)
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
            shared = Epoch(self.m)  # the epoch of every flagged lane reset here
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

