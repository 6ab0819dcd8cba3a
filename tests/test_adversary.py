import itertools
import signal
from fractions import Fraction as F

import pytest

from parsched.a1 import A1Plan, A1State, a1_partition
from parsched.a2 import A2State, TargetConfiguration, a2_params
from parsched.adversary import (
    RandomScheduler,
    StackScheduler,
    classify_lb1,
    classify_lb2,
    enumerate_missing,
    lb1_run,
    lb1_universe,
    lb2_run,
    lb2_universe,
)
from parsched.core import Job, Schedule
from parsched.oracle import ListScheduler, opt_exact

from helpers import lb1_run_reference, lb2_run_reference, time_limit


def test_classify_lb1():
    s = Schedule(3)
    for t in range(1, 4):
        s.assign(t, Job(t, F(1, 3)))
    assert classify_lb1(s) == (3, 0)
    stacked = Schedule(3)
    for t in range(1, 4):
        stacked.assign(1, Job(t, F(1, 3)))
    assert classify_lb1(stacked) == (0, 1)
    paired = Schedule(3)
    paired.assign(1, Job(1, F(1, 3)))
    paired.assign(1, Job(2, F(1, 3)))
    paired.assign(2, Job(3, F(1, 3)))
    assert classify_lb1(paired) is None


def test_classify_lb2():
    s = Schedule(4)
    for t in range(1, 5):
        s.assign(1, Job(t, F(1, 4)))
    assert classify_lb2(s, 1, F(1, 4)) == (3, 0, 1)
    spread = Schedule(4)
    for t in range(1, 5):
        spread.assign(t, Job(t, F(1, 4)))
    assert classify_lb2(spread, 1, F(1, 4)) == (0, 4, 0)
    lopsided = Schedule(4)  # a machine with 2h..4h-1 jobs fits no profile
    lopsided.assign(1, Job(1, F(1, 4)))
    lopsided.assign(1, Job(2, F(1, 4)))
    lopsided.assign(2, Job(3, F(1, 4)))
    lopsided.assign(3, Job(4, F(1, 4)))
    assert classify_lb2(lopsided, 1, F(1, 4)) is None


def test_profile_round_trip():
    # profile -> schedule realizing it -> same profile
    for m in (3, 6, 9):
        for profile in lb1_universe(m):
            m1, m3 = profile
            s = Schedule(m)
            t = 1
            j = m - m1 - m3 + 1
            for _ in range(m1):
                s.assign(j, Job(t, F(1, 3)))
                t += 1
                j += 1
            for _ in range(m3):
                for _ in range(3):
                    s.assign(j, Job(t, F(1, 3)))
                    t += 1
                j += 1
            assert classify_lb1(s) == profile


def test_universes():
    assert list(lb1_universe(3)) == [(0, 1), (3, 0)]
    assert list(lb1_universe(6)) == [(0, 2), (3, 1), (6, 0)]
    assert list(lb2_universe(4, 1)) == [(0, 4, 0), (3, 0, 1)]
    for m_even, h in [(4, 1), (6, 1), (8, 1), (4, 2)]:
        direct = [  # product order is ascending lexicographic order
            v
            for v in itertools.product(range(m_even + 1), repeat=2 * h + 1)
            if sum(v) == m_even
            and sum(i * v[i] for i in range(2 * h)) + 4 * h * v[2 * h] == m_even * h
        ]
        assert list(lb2_universe(m_even, h)) == direct
    for m_even, h in [(10, 3), (12, 3), (8, 4), (16, 3)]:
        assert list(lb2_universe(m_even, h)) == list(unpruned_lb2_universe(m_even, h))


def unpruned_lb2_universe(m_even, h):
    """Test-local copy of the profile recursion that explores every branch,
    complete or not, in the same order."""
    weights = list(range(2 * h)) + [4 * h]

    def rec(pos, machines_left, jobs_left):
        if pos == 2 * h:
            if jobs_left == 4 * h * machines_left:
                yield (machines_left,)
            return
        w = weights[pos]
        for k in range(machines_left + 1):
            if jobs_left - k * w >= 0:
                for tail in rec(pos + 1, machines_left - k, jobs_left - k * w):
                    yield (k,) + tail

    return rec(0, m_even, m_even * h)


def test_enumerate_missing():
    assert enumerate_missing({(3, 0)}, lb1_universe(3)) == (0, 1)
    assert enumerate_missing(set(), lb1_universe(3)) == (0, 1)
    with pytest.raises(ValueError):
        enumerate_missing({(0, 1), (3, 0)}, lb1_universe(3))


def test_lb1_against_list():
    report = lb1_run(3, [ListScheduler(3)])
    assert report.chosen_profile == (0, 1)
    assert [j.p for j in report.sigma.jobs[3:]] == [F(1), F(1)]
    assert report.forced_makespan == F(4, 3)
    assert report.opt == 1 and report.opt_witness.makespan() == 1
    assert opt_exact(report.sigma) == 1


def test_lb1_against_stacker():
    report = lb1_run(3, [StackScheduler(3, 1)])
    assert report.chosen_profile == (3, 0)
    assert [j.p for j in report.sigma.jobs[3:]] == [F(2, 3)] * 3
    assert report.forced_makespan >= F(4, 3)


def test_lb1_pigeonhole_room():
    assert sum(1 for _ in lb1_universe(6)) == 3  # 2 lanes still leave a hole
    report = lb1_run(6, [ListScheduler(6), StackScheduler(6, 2)])
    assert report.forced_makespan >= F(4, 3)


def test_lb1_refuses_too_many_lanes():
    with pytest.raises(ValueError):
        lb1_run(3, [ListScheduler(3), ListScheduler(3)])


def test_lb1_against_own_lane_families():
    m = 6
    partition = a1_partition(F(1), F(1))
    census_lane = A1State(A1Plan.build(partition, m, (0, 0)), partition)
    params = a2_params(F(1), m, F(1))
    config_lane = A2State(TargetConfiguration(params, (0,) * params.mu))
    report = lb1_run(m, [census_lane, config_lane])
    assert report.forced_makespan >= F(4, 3)
    assert opt_exact(report.sigma) == 1


def test_lb1_early_stop():
    # Four stacked third-jobs already reach 4/3, so the adversary may rest.
    report = lb1_run(4, [StackScheduler(4, 1)], stop_early=True)
    assert report.stopped_early
    assert report.forced_makespan >= F(4, 3) * report.opt
    full = lb1_run(4, [StackScheduler(4, 1)])  # default: uniform full emission
    assert not full.stopped_early
    assert full.forced_makespan >= F(4, 3)


@pytest.mark.parametrize("m", [4, 5, 6, 8])
def test_lb2_forces_bound(m):
    for victim in (ListScheduler(m), StackScheduler(m, 1), RandomScheduler(m, seed=5)):
        report = lb2_run(m, F(1, 4), [victim])
        assert report.forced_makespan >= F(5, 4), (m, type(victim).__name__)
        assert report.opt == 1
        assert opt_exact(report.sigma) == 1


def test_lb2_example_trace():
    report = lb2_run(4, F(1, 4), [ListScheduler(4)])
    assert report.chosen_profile == (3, 0, 1)
    assert [j.p for j in report.sigma.jobs[4:]] == [F(1)] * 3
    assert report.forced_makespan == F(5, 4)


def test_lb2_odd_prepends_unit_job():
    report = lb2_run(5, F(1, 4), [ListScheduler(5)])
    assert report.sigma.jobs[0].p == 1
    assert report.forced_makespan >= F(5, 4)


def test_lb2_sigma2_sizes_non_increasing():
    report = lb2_run(8, F(1, 8), [ListScheduler(8)])
    tail = [j.p for j in report.sigma.jobs[8 * 2 :]]
    assert all(a >= b for a, b in zip(tail, tail[1:]))
    assert all(p >= F(1, 2) + F(1, 8) for p in tail)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
def test_lb2_runs_at_moderate_m():
    """m = 24 at eps = 1/24 has a universe too large to walk whole and a
    profile recursion with many branches that cannot complete; the run
    counts only as far as its one victim needs and finishes at once."""

    with time_limit(10, "lb2_run"):
        report = lb2_run(24, F(1, 24), [ListScheduler(24)])
    assert report.forced_makespan == F(25, 24)


def test_lb2_refuses_saturated_victims():
    # m=4, h=1: the universe has only two profiles.
    with pytest.raises(ValueError):
        lb2_run(4, F(1, 4), [ListScheduler(4), StackScheduler(4, 1)])


def test_lb2_rejects_bad_eps():
    with pytest.raises(ValueError):
        lb2_run(4, F(1, 2), [ListScheduler(4)])


VICTIM_SETS = {
    "empty": lambda m: [],
    "list": lambda m: [ListScheduler(m)],
    "list rotations": lambda m: [ListScheduler(m, rotation(m, i)) for i in range(3)],
    "stack": lambda m: [StackScheduler(m, m)],
    "random": lambda m: [RandomScheduler(m, seed=5)],
    "mixed": lambda m: [ListScheduler(m, rotation(m, 1)), StackScheduler(m, 1),
                        RandomScheduler(m, seed=7)],
    "too many": lambda m: [ListScheduler(m, rotation(m, i)) for i in range(m // 3 + 1)],
}


def rotation(m, i):
    base = list(range(1, m + 1))
    i %= m
    return base[i:] + base[:i]


def outcome(run, *args, **kwargs):
    """Everything a run reports, in order and with its types, or the
    refusal's exception type and message."""
    try:
        report = run(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)
    return (
        report.sigma.m,
        [(job.index, repr(job.p)) for job in report.sigma.jobs],
        repr(report.opt),
        list(report.opt_witness.assignment.items()),
        repr(report.forced_makespan),
        repr(report.chosen_profile),
        [(s.label, list(s.assignment.items())) for s in report.victim_schedules],
        repr(report.stopped_early),
    )


@pytest.mark.parametrize("stop_early", [False, True])
@pytest.mark.parametrize("theorem", ["lb1", "lb2"])
def test_game_matches_first_written_adversaries(theorem, stop_early):
    """Both theorems played through the one game report exactly what the
    two adversaries as first written (tests/helpers.py) report, refusals
    included, at m = 1..14, eps 1/4, 1/8 and 1/12 and every victim set."""
    stops = set()
    for m, eps, name in itertools.product(range(1, 15), (F(1, 4), F(1, 8), F(1, 12)), VICTIM_SETS):
        victims = VICTIM_SETS[name]
        if theorem == "lb1":
            got = outcome(lb1_run, m, victims(m), stop_early=stop_early)
            want = outcome(lb1_run_reference, m, victims(m), stop_early=stop_early)
        else:
            got = outcome(lb2_run, m, eps, victims(m), stop_early=stop_early)
            want = outcome(lb2_run_reference, m, eps, victims(m), stop_early=stop_early)
        assert got == want, (m, eps, name)
        if got[-1] == "True":
            stops.add(m % 2)
    # The early stop is reached at both parities whenever it is asked for.
    assert stops == ({0, 1} if stop_early else set())
