"""Adaptive adversaries that force the known lower bounds.

Both constructions play the same game: feed a first wave of equal jobs,
look at every schedule the victim built, pick a load profile that none
of them realized, and finish with jobs that top the *missing* profile's
machines up to load exactly 1.  The victim, lacking that profile
everywhere, must push some machine past the bound; the report carries
an explicit witness schedule of makespan 1 as proof of the optimum.

Victims are adaptive black boxes behind the lane interface; only their
emitted schedules are inspected.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

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


def _feed(runners: list[LaneRunner], jobs: list[Job]) -> None:
    for job in jobs:
        for runner in runners:
            runner.step(job)


def _min_makespan(runners: list[LaneRunner]) -> Fraction:
    return min(r.schedule.makespan() for r in runners)


def lb1_run(
    m: int,
    victims: Sequence[OnlineScheduler],
    stop_early: bool = False,
) -> AdversaryReport:
    """Force makespan >= 4/3 against at most floor(m/3) schedules.

    First wave: m jobs of size 1/3.  Second wave: unit jobs for the
    missing profile's empty machines, then 2/3-jobs for its one-job
    machines, in non-increasing size order.
    """
    if m < 3:
        raise ValueError("construction needs at least 3 machines")
    if len(victims) > m // 3:
        raise ValueError("too many schedules: the adversary guarantee is void")
    if not victims:
        raise ValueError("need at least one victim schedule")
    runners = [LaneRunner(v, label=k) for k, v in enumerate(victims)]
    third = Fraction(1, 3)
    sigma1 = [Job(t, third) for t in range(1, m + 1)]
    _feed(runners, sigma1)

    if stop_early and _min_makespan(runners) >= Fraction(4, 3):
        seq = JobSequence(m, sigma1)
        witness = Schedule(m)
        for t, job in enumerate(sigma1):
            witness.assign(t + 1, job)
        return AdversaryReport(seq, third, witness, _min_makespan(runners), None,
                               [r.schedule for r in runners], stopped_early=True)

    realized = {p for p in (classify_lb1(r.schedule) for r in runners) if p is not None}
    m1s, m3s = enumerate_missing(realized, lb1_universe(m))
    sizes2 = [Fraction(1)] * (m - m1s - m3s) + [Fraction(2, 3)] * m1s
    sigma2 = [Job(m + k, p) for k, p in enumerate(sizes2, start=1)]
    _feed(runners, sigma2)

    seq = JobSequence(m, sigma1 + sigma2)
    # Witness: machines sorted by non-decreasing load of the missing
    # profile; empty ones first, then one-job, then three-job machines.
    witness = Schedule(m)
    empty = m - m1s - m3s
    t = 0
    for j in range(empty + 1, empty + m1s + 1):  # one 1/3-job each
        witness.assign(j, sigma1[t])
        t += 1
    for j in range(empty + m1s + 1, m + 1):  # three 1/3-jobs each
        for _ in range(3):
            witness.assign(j, sigma1[t])
            t += 1
    for j, job in enumerate(sigma2, start=1):  # top up to load 1
        witness.assign(j, job)
    if witness.makespan() != 1:
        raise InvariantViolation("witness schedule must have makespan exactly 1")
    return AdversaryReport(seq, Fraction(1), witness, _min_makespan(runners),
                           (m1s, m3s), [r.schedule for r in runners])


def lb2_run(
    m: int,
    eps: Fraction,
    victims: Sequence[OnlineScheduler],
    stop_early: bool = False,
) -> AdversaryReport:
    """Force makespan >= 1 + eps' > 1 + eps against few schedules.

    eps' = 1/(4*floor(1/(4 eps))) >= eps.  Odd machine counts get one
    unit job first; the wave construction then runs on m-1 machines.
    """
    eps = Fraction(eps)
    if not 0 < eps <= Fraction(1, 4):
        raise ValueError("eps must lie in (0, 1/4]")
    h = int(1 / (4 * eps))
    eps_prime = Fraction(1, 4 * h)
    odd = m % 2 == 1
    m_int = m - 1 if odd else m
    if m_int < 2:
        raise ValueError("construction needs at least 2 interior machines")
    # Count only as far as the guarantee needs: one profile more than victims.
    universe_size = sum(1 for _ in itertools.islice(lb2_universe(m_int, h), len(victims) + 1))
    if len(victims) >= universe_size:
        raise ValueError("too many schedules: the adversary guarantee is void")
    if not victims:
        raise ValueError("need at least one victim schedule")
    runners = [LaneRunner(v, label=k) for k, v in enumerate(victims)]

    prefix: list[Job] = []
    t = 1
    if odd:
        prefix.append(Job(t, Fraction(1)))
        t += 1
    sigma1 = [Job(t + k, eps_prime) for k in range(m_int * h)]
    t += len(sigma1)
    _feed(runners, prefix + sigma1)

    bound = 1 + eps_prime
    if stop_early and _min_makespan(runners) >= bound:
        seq = JobSequence(m, prefix + sigma1)
        witness = Schedule(m)
        unit_machine = m
        for job in prefix:
            witness.assign(unit_machine, job)
        for k, job in enumerate(sigma1):
            witness.assign(1 + k % m_int, job)
        return AdversaryReport(seq, witness.makespan(), witness,
                               _min_makespan(runners), None,
                               [r.schedule for r in runners], stopped_early=True)

    realized = set()
    for runner in runners:
        if odd:
            uj = runner.schedule.assignment[1]
            if runner.schedule.job_count(uj) != 1:
                continue  # unit job shares a machine: that lane is already beaten
            rest = [j for j in range(1, m + 1) if j != uj]
            profile = classify_lb2(runner.schedule, h, eps_prime, machines=rest)
        else:
            profile = classify_lb2(runner.schedule, h, eps_prime)
        if profile is not None:
            realized.add(profile)
    missing = enumerate_missing(realized, lb2_universe(m_int, h))

    sizes2: list[Fraction] = []
    for i in range(2 * h):  # ascending i means non-increasing job size
        sizes2.extend([1 - i * eps_prime] * missing[i])
    sigma2 = [Job(t + k, p) for k, p in enumerate(sizes2)]
    _feed(runners, sigma2)

    seq = JobSequence(m, prefix + sigma1 + sigma2)
    witness = Schedule(m)
    if odd:
        witness.assign(m, prefix[0])  # the unit job sits alone on the last machine
    # Interior machines in non-decreasing profile load: m_0 empty, then
    # i-job machines, finally full machines of load 1.
    order: list[int] = []
    for i in range(2 * h + 1):
        order.extend([i] * missing[i])
    k = 0
    for j, i in enumerate(order, start=1):
        jobs_here = 4 * h if i == 2 * h else i
        for _ in range(jobs_here):
            witness.assign(j, sigma1[k])
            k += 1
    for j, job in enumerate(sigma2, start=1):
        witness.assign(j, job)
    if witness.makespan() != 1:
        raise InvariantViolation("witness schedule must have makespan exactly 1")
    return AdversaryReport(seq, Fraction(1), witness, _min_makespan(runners),
                           missing, [r.schedule for r in runners])
