"""Helpers that only the tests use, kept out of the package."""

import math
import random
import signal
import time
from bisect import bisect_right
from contextlib import contextmanager
from fractions import Fraction
from typing import Optional, Sequence

from parsched.core import InvariantViolation, Job, JobSequence, Schedule
from parsched.oracle import MultisetSchedule, opt_exact


class TimeLimitExceeded(BaseException):
    """A test ran past its time limit.  Not an Exception, so Hypothesis
    does not catch it and shrink: the test fails at once."""


@contextmanager
def time_limit(seconds: float, what: str = "the test"):
    """Raise TimeLimitExceeded in the body after ``seconds`` of wall time.

    An outer limit already armed (the per-test one) is saved and armed
    again on exit with the time it had left, or fires at once if that
    time has passed.  Needs ``signal.setitimer``."""
    def stop(signum, frame):
        raise TimeLimitExceeded(f"{what} did not finish within {seconds} s")

    outer_left, _ = signal.getitimer(signal.ITIMER_REAL)
    start = time.monotonic()
    outer = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, outer)
        if outer_left:
            signal.setitimer(signal.ITIMER_REAL,
                             max(outer_left - (time.monotonic() - start), 1e-3))


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


def census_reference(guess, sizes: Sequence[int], scale: int,
                     cap: Optional[int] = None) -> list[int]:
    """``GuessLadder.census`` as it was first written: every edge
    floor(bound*scale) computed, one cut per edge, the counts between
    neighbouring cuts, then each count capped.  The reference for the
    census counted from the shorter side."""
    num, den = guess.T.numerator * scale, guess.T.denominator * guess.unit
    cuts = [bisect_right(sizes, x * num // den) for x in guess.ladder]
    counts = [hi - lo for lo, hi in zip(cuts, cuts[1:])]
    return counts if cap is None else [min(c, cap) for c in counts]


def _reference_parts(rng: random.Random, total: int, parts: int, floor: int) -> list[int]:
    rem = total - parts * floor
    cuts = sorted(rng.randint(0, rem) for _ in range(parts - 1))
    edges = [0] + cuts + [rem]
    return [floor + b - a for a, b in zip(edges, edges[1:])]


def gen_planted_reference(m, counts=2, denom=48, seed=0, order="shuffle", min_num=1,
                          verify_cap=0) -> tuple[JobSequence, list[int]]:
    """The planted generator as it was written over Fractions: a Fraction per
    draw, orders by Fraction comparison, sizes copied by ``from_sizes`` and
    the volume summed as a Fraction.  The reference for the integer one."""
    if denom < 2:
        raise ValueError("denominator must be at least 2")
    if min_num < 1:
        raise ValueError(f"least numerator (--min-num) must be at least 1, got {min_num}")
    if verify_cap < 0:
        raise ValueError(f"verification cap (--verify-cap) must be nonnegative, got {verify_cap}")
    if order not in ("shuffle", "largest_first", "smallest_first", "interleave", "as_planted"):
        raise ValueError(f"unknown arrival order {order!r}")
    rng = random.Random(seed)
    if isinstance(counts, int):
        per_machine = [counts] * m
    elif isinstance(counts, tuple) and len(counts) == 2:
        lo, hi = counts
        if lo > hi:
            raise ValueError(f"empty count range {lo}..{hi}: the least count exceeds the largest")
        per_machine = [rng.randint(lo, hi) for _ in range(m)]
    else:
        per_machine = [int(c) for c in counts]
        if len(per_machine) != m:
            raise ValueError("per-machine counts must have length m")
    items: list[tuple[Fraction, int]] = []
    for machine, c in enumerate(per_machine, start=1):
        if c < 1 or c * min_num > denom:
            raise ValueError(f"infeasible profile: {c} jobs of >= {min_num}/{denom} on one machine")
        for num in _reference_parts(rng, denom, c, min_num):
            items.append((Fraction(num, denom), machine))
    if order == "shuffle":
        rng.shuffle(items)
    elif order == "largest_first":
        items.sort(key=lambda it: -it[0])
    elif order == "smallest_first":
        items.sort(key=lambda it: it[0])
    elif order == "interleave":
        items.sort(key=lambda it: -it[0])
        woven = []
        lo, hi = 0, len(items) - 1
        while lo <= hi:
            woven.append(items[lo])
            if lo != hi:
                woven.append(items[hi])
            lo += 1
            hi -= 1
        items = woven
    seq = JobSequence.from_sizes(m, [p for p, _ in items], planted_opt=Fraction(1))
    witness = [machine for _, machine in items]
    if seq.total() != m:
        raise InvariantViolation("planted volume must equal the machine count")
    if verify_cap and len(seq) <= verify_cap and opt_exact(seq) != 1:
        raise InvariantViolation("planted optimum failed verification")
    return seq, witness
