"""Job/schedule data model and the lane-family selection semantics.

A *lane* is one schedule maintained by one online algorithm.  All lanes
see the same job stream, never each other's state, and the harness keeps
the best final schedule.  Machines and job arrival positions are 1-based
throughout the public API.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Protocol, Sequence

from .rational import format_rational, parse_rational

__all__ = [
    "Job",
    "JobSequence",
    "Schedule",
    "OnlineScheduler",
    "LaneRunner",
    "select_best",
    "default_lane_cap",
]

_LANE_CAP_ENV = "PARSCHED_LANE_CAP"
_DEFAULT_LANE_CAP = 500_000


def default_lane_cap(lane_cap: Optional[int] = None) -> int:
    """Lane cap for full families: ``lane_cap`` if given, else PARSCHED_LANE_CAP, else 500000.

    Anything but a positive integer raises ValueError naming its source.
    """
    if lane_cap is not None:
        if not isinstance(lane_cap, int) or lane_cap < 1:
            raise ValueError(f"lane cap (--lane-cap) must be a positive integer, got {lane_cap!r}")
        return lane_cap
    raw = os.environ.get(_LANE_CAP_ENV)
    if raw is None:
        return _DEFAULT_LANE_CAP
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"{_LANE_CAP_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


@dataclass(frozen=True)
class Job:
    """One job: 1-based arrival position and exact processing time."""

    index: int
    p: Fraction

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("job index is 1-based")
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
        jobs = []
        for t, s in enumerate(sizes, start=1):
            p = parse_rational(s) if isinstance(s, str) else Fraction(s)
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
        opt = parse_rational(doc["opt"]) if "opt" in doc else None
        return cls.from_sizes(int(doc["m"]), doc["jobs"], opt)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "JobSequence":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


class Schedule:
    """Per-machine loads and the job->machine assignment for one lane.

    Assignment is append-only: jobs are never migrated once placed.
    """

    __slots__ = ("m", "label", "assignment", "_loads", "_counts")

    def __init__(self, m: int, label: int = 0):
        if m < 1:
            raise ValueError("machine count must be positive")
        self.m = m
        self.label = label
        self.assignment: dict[int, int] = {}
        self._loads = [Fraction(0)] * m
        self._counts = [0] * m

    def assign(self, machine: int, job: Job) -> None:
        if not 1 <= machine <= self.m:
            raise ValueError(f"machine {machine} out of range 1..{self.m}")
        if job.index in self.assignment:
            raise ValueError(f"job {job.index} already assigned")
        self.assignment[job.index] = machine
        self._loads[machine - 1] += job.p
        self._counts[machine - 1] += 1

    def load(self, machine: int) -> Fraction:
        return self._loads[machine - 1]

    def job_count(self, machine: int) -> int:
        return self._counts[machine - 1]

    def loads(self) -> tuple[Fraction, ...]:
        return tuple(self._loads)

    def makespan(self) -> Fraction:
        return max(self._loads) if self._loads else Fraction(0)

    def n_jobs(self) -> int:
        return len(self.assignment)

    def check_loads(self, jobs: Sequence[Job]) -> bool:
        """Recompute loads from the assignment; True iff they match."""
        sums = [Fraction(0)] * self.m
        for job in jobs:
            if job.index in self.assignment:
                sums[self.assignment[job.index] - 1] += job.p
        return sums == self._loads


class OnlineScheduler(Protocol):
    """Uniform stepping interface every algorithm lane implements.

    ``propose`` must be deterministic, must not mutate state, and may
    return None to signal that no scheduling rule applies (e.g. a job
    falls outside every size class).  ``record`` commits a placement.
    A scheduler never inspects any other lane's state.
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
            loads = self.schedule.loads()
            machine = min(range(1, self.schedule.m + 1), key=lambda j: (loads[j - 1], j))
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
