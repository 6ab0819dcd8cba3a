"""Adaptive adversaries that force the known lower bounds.

Both theorems play one game (``_play``): feed a prefix and a wave of
equal jobs, look at every schedule the victims built, pick the first
load profile that none of them realized, and top each of its machines
holding c wave jobs of size s up to load exactly 1 with one job of size
1 - c*s (where c*s < 1), largest first.  The victim, lacking that
profile everywhere, must push some machine past the bound; the report
carries an explicit witness schedule of makespan 1 as proof of the
optimum.

Victims are adaptive black boxes behind the lane interface; only their
emitted schedules are inspected.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .core import InvariantViolation, Job, JobSequence, LaneRunner, OnlineScheduler, Schedule

__all__ = [
    "AdversaryReport",
    "StackScheduler",
    "RandomScheduler",
    "classify_lb1",
    "classify_lb2",
    "lb1_universe",
    "lb2_universe",
    "enumerate_missing",
    "lb1_check",
    "lb2_check",
    "lb1_run",
    "lb2_run",
]


class StackScheduler:
    """Degenerate victim: every job goes to one fixed machine."""

    def __init__(self, m: int, machine: int = 1):
        if not 1 <= machine <= m:
            raise ValueError("machine out of range")
        self.m = m
        self.machine = machine

    def propose(self, job: Job) -> Optional[int]:
        return self.machine

    def record(self, job: Job, machine: int) -> None:
        pass


class RandomScheduler:
    """Victim picking a uniformly random machine (seeded, deterministic)."""

    def __init__(self, m: int, seed: int = 0):
        self.m = m
        self._rng = random.Random(seed)

    def propose(self, job: Job) -> Optional[int]:
        return self._rng.randint(1, self.m)

    def record(self, job: Job, machine: int) -> None:
        pass


def classify_lb1(schedule: Schedule) -> Optional[tuple[int, int]]:
    """(one-job machines, three-job machines) if every machine holds
    0, 1 or 3 jobs; None otherwise."""
    m1 = m3 = 0
    for j in range(1, schedule.m + 1):
        c = schedule.job_count(j)
        if c == 1:
            m1 += 1
        elif c == 3:
            m3 += 1
        elif c != 0:
            return None
    return (m1, m3)


def classify_lb2(
    schedule: Schedule,
    h: int,
    eps_prime: Fraction,
    machines: Optional[Sequence[int]] = None,
) -> Optional[tuple[int, ...]]:
    """Job-count profile (m_0..m_2h) if each machine has load exactly 1
    or at most 1/2 - eps'; None otherwise.

    `machines` restricts the classification (used to skip the machine
    holding the lone unit job when the machine count is odd).
    """
    if machines is None:
        machines = range(1, schedule.m + 1)
    counts = [0] * (2 * h + 1)
    full = 4 * h  # jobs of size eps' = 1/(4h) on a machine of load 1
    for j in machines:
        c = schedule.job_count(j)
        if c == full:
            counts[2 * h] += 1
        elif c <= 2 * h - 1:
            counts[c] += 1
        else:
            return None  # load in (1/2 - eps', 1): outside the profile shapes
    return tuple(counts)


def lb1_universe(m: int) -> Iterator[tuple[int, int]]:
    """All (m1, m3) with m1 + 3*m3 = m, largest m3 first."""
    for m3 in range(m // 3, -1, -1):
        yield (m - 3 * m3, m3)


def lb2_universe(m_even: int, h: int) -> Iterator[tuple[int, ...]]:
    """All job-count profiles of m_even machines and m_even * h jobs.

    Vectors (m_0..m_2h) with sum m_even and 4h*m_2h + sum(i*m_i) equal
    to m_even*h, in lexicographically ascending order, lazily.
    """
    weights = list(range(2 * h)) + [4 * h]
    target = m_even * h

    def rec(pos: int, machines_left: int, jobs_left: int):
        w = weights[pos]
        # Each machine left holds w to 4h jobs; outside that no profile completes.
        if not w * machines_left <= jobs_left <= 4 * h * machines_left:
            return
        if pos == 2 * h:  # w = 4h: the machines left are full
            yield (machines_left,)
            return
        top = machines_left if w == 0 else min(machines_left, jobs_left // w)
        for k in range(0, top + 1):
            for tail in rec(pos + 1, machines_left - k, jobs_left - k * w):
                yield (k,) + tail

    yield from rec(0, m_even, target)


def enumerate_missing(realized: Iterable, universe: Iterator) -> tuple:
    """First universe element not realized; raises if the victim covers it."""
    realized = set(realized)
    for profile in universe:
        if profile not in realized:
            return profile
    raise ValueError("realized profiles cover the whole universe")


@dataclass
class AdversaryReport:
    sigma: JobSequence
    opt: Fraction
    opt_witness: Schedule
    forced_makespan: Fraction
    chosen_profile: Optional[tuple]
    victim_schedules: list[Schedule]
    stopped_early: bool = False

    @property
    def forced_ratio(self) -> Fraction:
        return self.forced_makespan / self.opt


def _check_count(k: int, limit: int) -> None:
    if k > limit:
        raise ValueError("too many schedules: the adversary guarantee is void")
    if not k:
        raise ValueError("need at least one victim schedule")


def lb1_check(m: int, k: int) -> None:
    """Refuse what lb1 does not cover: m < 3, or k victims outside 1..floor(m/3)."""
    if m < 3:
        raise ValueError("construction needs at least 3 machines")
    _check_count(k, m // 3)


def lb2_check(m: int, eps: Fraction, k: int) -> int:
    """h = floor(1/(4 eps)), after refusing what lb2 does not cover: eps
    outside (0, 1/4], fewer than 2 interior machines, or k victims outside
    1..(profiles - 1), the profiles counted only as far as k + 1."""
    eps = Fraction(eps)
    if not 0 < eps <= Fraction(1, 4):
        raise ValueError("eps must lie in (0, 1/4]")
    h = int(1 / (4 * eps))
    if m - m % 2 < 2:
        raise ValueError("construction needs at least 2 interior machines")
    _check_count(k, sum(1 for _ in itertools.islice(lb2_universe(m - m % 2, h), k + 1)) - 1)
    return h


def _play(
    m: int,
    victims: Sequence[OnlineScheduler],
    prefix: Sequence[Fraction],
    size: Fraction,
    n: int,
    bound: Fraction,
    classify: Callable[[Schedule], Optional[tuple]],
    universe: Iterator[tuple],
    counts: Callable[[tuple], list[int]],
    stop_early: bool,
) -> AdversaryReport:
    """The game, given a theorem's prefix, wave of n jobs of ``size``,
    bound, classifier, universe and map from a profile to its ascending
    per-machine wave counts.  With ``stop_early`` and every victim at the
    bound after the wave, the witness holds the prefix on machine m and
    the wave dealt round-robin over the other machines."""
    runners = [LaneRunner(v, label=k) for k, v in enumerate(victims)]
    sigma: list[Job] = []

    def feed(sizes: Iterable[Fraction]) -> list[Job]:
        jobs = [Job(len(sigma) + k, p) for k, p in enumerate(sizes, start=1)]
        for job in jobs:
            for runner in runners:
                runner.step(job)
        sigma.extend(jobs)
        return jobs

    witness = Schedule(m)
    for job in feed(prefix):
        witness.assign(m, job)
    wave = feed([size] * n)
    profile = None
    stopped = stop_early and min(r.schedule.makespan() for r in runners) >= bound
    if stopped:
        for k, job in enumerate(wave):
            witness.assign(1 + k % (m - len(prefix)), job)
    else:
        realized = (p for p in (classify(r.schedule) for r in runners) if p is not None)
        profile = enumerate_missing(realized, universe)
        c = counts(profile)
        jobs = iter(wave)
        for j, cj in enumerate(c, start=1):
            for _ in range(cj):
                witness.assign(j, next(jobs))
        for j, job in enumerate(feed([1 - cj * size for cj in c if cj * size < 1]), start=1):
            witness.assign(j, job)
        if witness.makespan() != 1:
            raise InvariantViolation("witness schedule must have makespan exactly 1")
    return AdversaryReport(JobSequence(m, sigma), witness.makespan(), witness,
                           min(r.schedule.makespan() for r in runners), profile,
                           [r.schedule for r in runners], stopped_early=stopped)


def lb1_run(
    m: int,
    victims: Sequence[OnlineScheduler],
    stop_early: bool = False,
) -> AdversaryReport:
    """Force makespan >= 4/3 against at most floor(m/3) schedules.

    Wave: m jobs of size 1/3.  The missing profile (m1, m3) leaves
    m - m1 - m3 machines empty, topped up by unit jobs, and m1 machines
    with one job, topped up by 2/3-jobs.
    """
    lb1_check(m, len(victims))
    return _play(m, victims, (), Fraction(1, 3), m, Fraction(4, 3), classify_lb1,
                 lb1_universe(m), lambda p: [0] * (m - p[0] - p[1]) + [1] * p[0] + [3] * p[1],
                 stop_early)


def lb2_run(
    m: int,
    eps: Fraction,
    victims: Sequence[OnlineScheduler],
    stop_early: bool = False,
) -> AdversaryReport:
    """Force makespan >= 1 + eps' > 1 + eps against few schedules.

    eps' = 1/(4*floor(1/(4 eps))) >= eps.  Odd machine counts get one
    unit job first; the wave construction then runs on m-1 machines, and
    a schedule whose unit job shares its machine is beaten already.
    """
    h = lb2_check(m, eps, len(victims))
    eps_prime = Fraction(1, 4 * h)
    odd = m % 2
    weights = list(range(2 * h)) + [4 * h]

    def classify(schedule: Schedule) -> Optional[tuple[int, ...]]:
        if not odd:
            return classify_lb2(schedule, h, eps_prime)
        uj = schedule.assignment[1]
        if schedule.job_count(uj) != 1:
            return None
        return classify_lb2(schedule, h, eps_prime, [j for j in range(1, m + 1) if j != uj])

    return _play(m, victims, [Fraction(1)] * odd, eps_prime, (m - odd) * h, 1 + eps_prime,
                 classify, lb2_universe(m - odd, h),
                 lambda p: [w for w, k in zip(weights, p) for _ in range(k)], stop_early)
