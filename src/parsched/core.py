"""Job/schedule data model and the lane-family selection semantics.

A *lane* is one schedule maintained by one online algorithm.  All lanes
see the same job stream, never each other's state, and the harness keeps
the best final schedule.  Machines and job arrival positions are 1-based
throughout the public API.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterable, Iterator, Optional, Protocol, Sequence

from .rational import format_rational, parse_rational

__all__ = [
    "Job",
    "JobSequence",
    "Schedule",
    "InvariantViolation",
    "OnlineScheduler",
    "LaneRunner",
    "LeastLoaded",
    "add_equal",
    "select_best",
    "default_lane_cap",
    "LaneCapExceeded",
    "check_lane_cap",
]

_LANE_CAP_ENV = "PARSCHED_LANE_CAP"
_DEFAULT_LANE_CAP = 500_000


def default_lane_cap(lane_cap: Optional[int] = None) -> int:
    """Lane cap for full families: ``lane_cap`` if given, else PARSCHED_LANE_CAP, else 500000.

    Anything but a positive integer, a bool included, raises ValueError
    naming its source.
    """
    if lane_cap is not None:
        if type(lane_cap) is not int or lane_cap < 1:
            raise ValueError(f"lane cap (--lane-cap) must be a positive integer, got {lane_cap!r}")
        return lane_cap
    raw = os.environ.get(_LANE_CAP_ENV)
    if raw is None:
        return _DEFAULT_LANE_CAP
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"{_LANE_CAP_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


class LaneCapExceeded(RuntimeError):
    """A full lane family would exceed the lane cap."""


def check_lane_cap(total: int, lane_cap: Optional[int] = None) -> None:
    """Raise LaneCapExceeded if a full family of ``total`` lanes exceeds the
    cap from ``default_lane_cap(lane_cap)``."""
    cap = default_lane_cap(lane_cap)
    if total > cap:
        raise LaneCapExceeded(
            f"full family has {total} lanes, above the cap {cap}; "
            "run it targeted or raise the cap"
        )


class InvariantViolation(AssertionError):
    """A checked invariant does not hold.

    Raised explicitly, so ``python -O`` keeps the check; it subclasses
    AssertionError so callers that catch failed checks see it too.
    """


@dataclass(frozen=True)
class Job:
    """One job: 1-based arrival position and exact processing time, an
    int or a Fraction; a float or a bool is refused as not exact."""

    index: int
    p: Fraction

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("job index is 1-based")
        if type(self.p) not in (Fraction, int):
            raise ValueError(f"job {self.index}: expected an int or a Fraction, got {self.p!r}")
        if self.p <= 0:
            raise ValueError("processing time must be positive")


@dataclass
class JobSequence:
    """Ordered jobs plus the machine count, optionally with a planted optimum."""

    m: int
    jobs: list[Job]
    planted_opt: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("machine count must be positive")
        for t, job in enumerate(self.jobs, start=1):
            if job.index != t:
                raise ValueError("job indices must be 1..n in arrival order")

    @classmethod
    def from_sizes(
        cls,
        m: int,
        sizes: Iterable[Fraction | int | str],
        planted_opt: Optional[Fraction] = None,
    ) -> "JobSequence":
        """Jobs 1..n of the given sizes: ints, Fractions or rational strings
        such as "3/4" or "0.25".  Any other entry, a float or a bool
        included, is not exact, and a ValueError names the first."""
        jobs = []
        for t, s in enumerate(sizes, start=1):
            if type(s) not in (int, Fraction, str):
                raise ValueError(f'sizes[{t - 1}]: expected an integer, a Fraction or a string '
                                 f'like "3/4", got {s!r}')
            p = parse_rational(s) if type(s) is str else Fraction(s)
            jobs.append(Job(t, p))
        return cls(m, jobs, planted_opt)

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs)

    def sizes(self) -> list[Fraction]:
        return [job.p for job in self.jobs]

    def total(self) -> Fraction:
        return sum((job.p for job in self.jobs), Fraction(0))

    def max_p(self) -> Fraction:
        return max((job.p for job in self.jobs), default=Fraction(0))

    def to_json(self) -> dict:
        doc = {"m": self.m, "jobs": [format_rational(j.p) for j in self.jobs]}
        if self.planted_opt is not None:
            doc["opt"] = format_rational(self.planted_opt)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "JobSequence":
        """Parse to_json's document; a ValueError names the bad entry.

        JSON floats and booleans are rejected: they are not exact.
        """
        if not isinstance(doc, dict):
            raise ValueError('expected an object with "m" and "jobs"')
        for key in ("m", "jobs"):
            if key not in doc:
                raise ValueError(f'missing "{key}"')
        if not isinstance(doc["jobs"], list):
            raise ValueError('"jobs" must be a list')
        m = doc["m"]
        if type(m) is not int or m < 1:
            raise ValueError(f'"m" must be a positive integer, got {m!r}')
        sizes = [_exact(p, f"jobs[{k}]", positive=True) for k, p in enumerate(doc["jobs"])]
        opt = _exact(doc["opt"], '"opt"', positive=bool(sizes)) if "opt" in doc else None
        return cls.from_sizes(m, sizes, opt)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "JobSequence":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _exact(value, where: str, positive: bool = False) -> Fraction:
    """A nonnegative (positive) number from a JSON integer or rational string."""
    if type(value) not in (int, str):
        raise ValueError(f'{where}: expected an integer or a string like "3/4", got {value!r}')
    try:
        p = parse_rational(value) if type(value) is str else Fraction(value)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    if p < 0 or (positive and p == 0):
        raise ValueError(f"{where}: must be {'positive' if positive else 'nonnegative'}, got {value!r}")
    return p


class Schedule:
    """Per-machine loads and the job->machine assignment for one lane.

    Assignment is append-only: jobs are never migrated once placed.
    Loads are kept as integers in units of 1/_scale, the lcm of the
    assigned jobs' denominators (grown, with every load multiplied to
    match, when a job's denominator does not divide it); ``load``,
    ``loads`` and ``makespan`` return them as Fractions.
    """

    __slots__ = ("m", "label", "assignment", "_loads", "_counts", "_scale")

    def __init__(self, m: int, label: int = 0):
        if m < 1:
            raise ValueError("machine count must be positive")
        self.m = m
        self.label = label
        self.assignment: dict[int, int] = {}
        self._loads = [0] * m
        self._counts = [0] * m
        self._scale = 1

    def assign(self, machine: int, job: Job) -> None:
        if not 1 <= machine <= self.m:
            raise ValueError(f"machine {machine} out of range 1..{self.m}")
        if job.index in self.assignment:
            raise ValueError(f"job {job.index} already assigned")
        self.assignment[job.index] = machine
        p, scale = job.p, self._scale
        den = p.denominator
        if scale % den:
            k = den // math.gcd(scale, den)
            self._scale = scale = scale * k
            self._loads = [x * k for x in self._loads]
        self._loads[machine - 1] += p.numerator * (scale // den)
        self._counts[machine - 1] += 1

    def load(self, machine: int) -> Fraction:
        return Fraction(self._loads[machine - 1], self._scale)

    def job_count(self, machine: int) -> int:
        return self._counts[machine - 1]

    def loads(self) -> tuple[Fraction, ...]:
        scale = self._scale
        return tuple(Fraction(x, scale) for x in self._loads)

    def makespan(self) -> Fraction:
        return Fraction(max(self._loads), self._scale)

    def machines_by_load(self) -> list[int]:
        """0-based machine indices ordered by (load, index)."""
        return sorted(range(self.m), key=self._loads.__getitem__)


class LeastLoaded:
    """Machine loads that only grow, and the least loaded machine.

    Graham's least-loaded rule for one job at a time, the one copy every
    lane that falls back on it uses (``add_equal`` places many equal jobs
    by the same rule).  ``loads`` is read freely and changed only through
    ``add`` and ``rescale``; loads may be of any one exact ordered number
    type.  ``least()`` returns the 0-based machine of least (load, index).

    A heap of (load, machine) entries is built at the first ``least`` and
    ``add`` pushes each new load to it.  An entry whose load is no longer
    its machine's lies below it, because loads only grow, and is dropped
    when it reaches the top.
    """

    __slots__ = ("loads", "_heap")

    def __init__(self, loads: list):
        self.loads = loads
        self._heap: Optional[list] = None

    def least(self) -> int:
        heap, loads = self._heap, self.loads
        if heap is None:
            heap = self._heap = [(x, j) for j, x in enumerate(loads)]
            heapify(heap)
        load, j = heap[0]
        while load != loads[j]:
            heappop(heap)
            load, j = heap[0]
        return j

    def add(self, j: int, q) -> None:
        """Add q >= 0 to machine j's load."""
        loads = self.loads
        loads[j] = load = loads[j] + q
        if self._heap is not None:
            heappush(self._heap, (load, j))

    def rescale(self, k: int) -> None:
        """Multiply every load by k > 0; the order, so the heap, is kept."""
        self.loads = [x * k for x in self.loads]
        if self._heap is not None:
            self._heap = [(x * k, j) for x, j in self._heap]


def add_equal(loads: list, classes: Sequence[tuple]) -> tuple[tuple[int, ...], ...]:
    """Place each (q, c) of ``classes`` in turn, c >= 0 jobs of size q > 0,
    by Graham's rule, as c times ``add(least(), q)`` would: ``loads`` grow
    in place, and each class's per-machine counts are returned.

    Machine j's keys (load_j + k*q, j), k >= 0, only grow, so a class's c
    picks are the c least keys of all machines, taken in rounds over load
    levels (a heap of the distinct loads and, for each, its machines in
    index order): every machine of the lowest level L takes the
    ceil((L' - L)/q) keys it has below the next level L', and its new load
    joins the levels.  Jobs too few for a full round split evenly, the
    lower indices taking one more.
    """
    for q, c in classes:
        if q <= 0:
            raise ValueError(f"job size must be positive, got {q!r}")
        if c < 0:
            raise ValueError(f"job count must be nonnegative, got {c!r}")
    members: dict = {}
    for j, x in enumerate(loads):
        members.setdefault(x, []).append(j)
    order = sorted(members)  # a sorted list is a heap

    def join(load, group) -> None:
        for j in group:
            loads[j] = load
        have = members.get(load)
        if have is None:
            members[load] = group
            heappush(order, load)
        else:
            members[load] = sorted(have + group)

    placed = []
    for q, c in classes:
        got = [0] * len(loads)
        while c:
            low = heappop(order)
            group = members.pop(low)
            k = len(group)
            # Each one's keys below the next level; with no level above, r = c sets no bound.
            r = -((low - order[0]) // q) if order else c
            if c >= k * r:
                c -= k * r
                for j in group:
                    got[j] += r
                join(low + r * q, group)
            else:
                r, extra = divmod(c, k)
                for j in group:
                    got[j] += r
                for j in group[:extra]:
                    got[j] += 1
                join(low + r * q, group[extra:])
                if extra:
                    join(low + (r + 1) * q, group[:extra])
                c = 0
        placed.append(tuple(got))
    return tuple(placed)


class OnlineScheduler(Protocol):
    """Uniform stepping interface every algorithm lane implements.

    ``propose`` must be deterministic, must not mutate state, and may
    return None to signal that no scheduling rule applies (e.g. a job
    falls outside every size class).  ``record`` commits a placement.
    A scheduler never inspects any other lane's state.

    An optional ``least_loaded`` true promises that it proposes its least
    loaded machine, lowest index on ties, for every job it is given; the
    guess wrapper then places by that rule and never steps it.  An optional
    pair ``offer(job, q, S)``, the proposal for the job of size q in units
    of 1/S for the driver's scale S, and ``commit(machine)``, which records
    the job last offered unchecked, is how the guess wrapper steps a lane.
    """

    m: int

    def propose(self, job: Job) -> Optional[int]: ...

    def record(self, job: Job, machine: int) -> None: ...


class LaneRunner:
    """Drives one scheduler over a job stream, keeping its schedule.

    When the scheduler signals no rule, the job is placed on a least
    loaded machine (lowest index on ties) and the event is flagged.
    """

    def __init__(self, scheduler: OnlineScheduler, label: int = 0):
        self.scheduler = scheduler
        self.schedule = Schedule(scheduler.m, label)
        self.had_no_rule = False

    def step(self, job: Job) -> int:
        machine = self.scheduler.propose(job)
        if machine is None:
            self.had_no_rule = True
            machine = self.schedule.machines_by_load()[0] + 1
        else:
            self.scheduler.record(job, machine)
        self.schedule.assign(machine, job)
        return machine

    def run(self, jobs: Iterable[Job]) -> Schedule:
        for job in jobs:
            self.step(job)
        return self.schedule


def select_best(schedules: Iterable[Schedule]) -> Schedule:
    """Schedule of minimum makespan; ties go to the smallest lane label."""
    best = None
    best_key = None
    for s in schedules:
        key = (s.makespan(), s.label)
        if best_key is None or key < best_key:
            best, best_key = s, key
    if best is None:
        raise ValueError("select_best over an empty set of schedules")
    return best
