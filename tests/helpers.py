"""Helpers that only the tests use, kept out of the package."""

from fractions import Fraction
from typing import Sequence

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
