"""Helpers that only the tests use, kept out of the package."""

import itertools
import math
import random
import signal
import time
from bisect import bisect_right
from contextlib import contextmanager
from fractions import Fraction
from typing import Optional, Sequence

from parsched.adversary import (
    AdversaryReport,
    classify_lb1,
    classify_lb2,
    enumerate_missing,
    lb1_universe,
    lb2_universe,
)
from parsched.core import InvariantViolation, Job, JobSequence, LaneRunner, OnlineScheduler, Schedule
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


# The two adversaries as each was first written, with its own wave, top-up,
# witness and early stop: the reference for the one game both now play.


def _reference_feed(runners: list[LaneRunner], jobs: list[Job]) -> None:
    for job in jobs:
        for runner in runners:
            runner.step(job)


def _reference_min_makespan(runners: list[LaneRunner]) -> Fraction:
    return min(r.schedule.makespan() for r in runners)


def lb1_run_reference(
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
    _reference_feed(runners, sigma1)

    if stop_early and _reference_min_makespan(runners) >= Fraction(4, 3):
        seq = JobSequence(m, sigma1)
        witness = Schedule(m)
        for t, job in enumerate(sigma1):
            witness.assign(t + 1, job)
        return AdversaryReport(seq, third, witness, _reference_min_makespan(runners), None,
                               [r.schedule for r in runners], stopped_early=True)

    realized = {p for p in (classify_lb1(r.schedule) for r in runners) if p is not None}
    m1s, m3s = enumerate_missing(realized, lb1_universe(m))
    sizes2 = [Fraction(1)] * (m - m1s - m3s) + [Fraction(2, 3)] * m1s
    sigma2 = [Job(m + k, p) for k, p in enumerate(sizes2, start=1)]
    _reference_feed(runners, sigma2)

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
    return AdversaryReport(seq, Fraction(1), witness, _reference_min_makespan(runners),
                           (m1s, m3s), [r.schedule for r in runners])


def lb2_run_reference(
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
    _reference_feed(runners, prefix + sigma1)

    bound = 1 + eps_prime
    if stop_early and _reference_min_makespan(runners) >= bound:
        seq = JobSequence(m, prefix + sigma1)
        witness = Schedule(m)
        unit_machine = m
        for job in prefix:
            witness.assign(unit_machine, job)
        for k, job in enumerate(sigma1):
            witness.assign(1 + k % m_int, job)
        return AdversaryReport(seq, witness.makespan(), witness,
                               _reference_min_makespan(runners), None,
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
    _reference_feed(runners, sigma2)

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
    return AdversaryReport(seq, Fraction(1), witness, _reference_min_makespan(runners),
                           missing, [r.schedule for r in runners])
