"""Helpers that only the tests use, kept out of the package."""

import math
import random
from fractions import Fraction
from typing import Optional, Sequence

from parsched.core import Job, JobSequence, Schedule
from parsched.oracle import MultisetSchedule


def multiset_sequence(ms: MultisetSchedule) -> JobSequence:
    """The jobs of a multiset schedule as a sequence, class by class."""
    sizes = []
    for i, size in enumerate(ms.sizes):
        sizes.extend([size] * sum(ms.counts[i]))
    return JobSequence.from_sizes(ms.inst.m, sizes)


def check_loads(schedule: Schedule, jobs: Sequence[Job]) -> bool:
    """Recompute a schedule's loads from its assignment; True iff they match."""
    sums = [Fraction(0)] * schedule.m
    for job in jobs:
        if job.index in schedule.assignment:
            sums[schedule.assignment[job.index] - 1] += job.p
    return tuple(sums) == schedule.loads()


def step(lane, job: Job) -> Optional[int]:
    """propose + record on one lane; None means the job had no class (not placed)."""
    machine = lane.propose(job)
    if machine is not None:
        lane.record(job, machine)
    return machine


def scale_jumps(rng: random.Random, lane_scale: int, top: Fraction, n: int) -> list[Fraction]:
    """n sizes in (0, 9/8 * top] whose denominators make their running lcm S
    jump: first to a divisor of ``lane_scale`` (a jump the lane scale
    already divides), then by a prime that does not divide it, then at
    random, by factors that do or do not divide it."""
    factors = [d for d in range(2, 61) if lane_scale % d == 0]
    fresh = next(d for d in (7, 11, 13, 17, 19, 23) if lane_scale % d)
    dens = [rng.choice(factors), fresh] + [
        rng.choice(factors) if rng.random() < 0.5 else rng.randint(2, 60) for _ in range(n - 2)]
    sizes = []
    for den in dens[:n]:
        most = math.floor(den * top * Fraction(9, 8))
        num = rng.randint(1, most)
        while math.gcd(num, den) != 1:
            num = rng.randint(1, most)
        sizes.append(Fraction(num, den))
    return sizes


def check_offer_matches_propose(lane, twin, sizes: Sequence[Fraction]) -> None:
    """Drive ``lane`` by offer(job, q, S) and commit, S the lcm of the
    denominators seen so far as a wrapper keeps it, and its twin by
    propose and record on the same jobs: the same proposal at every job
    and equal loads after every commit."""
    scale = 1
    for t, p in enumerate(sizes, 1):
        job = Job(t, p)
        scale = math.lcm(scale, p.denominator)
        proposal = lane.offer(job, p.numerator * (scale // p.denominator), scale)
        assert proposal == twin.propose(job)
        if proposal is not None:
            lane.commit(proposal)
            twin.record(job, proposal)
            assert lane.loads == twin.loads
