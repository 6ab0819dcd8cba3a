import os
import signal
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsched.core import Job, JobSequence, LaneRunner, LeastLoaded, Schedule, add_equal, select_best

from helpers import check_loads, time_limit


def test_job_validation():
    with pytest.raises(ValueError):
        Job(1, F(0))
    with pytest.raises(ValueError):
        Job(0, F(1))


def test_sequence_round_trip(tmp_path):
    seq = JobSequence.from_sizes(3, ["1/3", "0.25", 2], planted_opt=F(7, 3))
    path = tmp_path / "seq.json"
    seq.save(path)
    back = JobSequence.load(path)
    assert back.m == 3
    assert back.sizes() == [F(1, 3), F(1, 4), F(2)]
    assert back.planted_opt == F(7, 3)


def test_sequence_requires_arrival_order():
    with pytest.raises(ValueError):
        JobSequence(2, [Job(2, F(1))])


def test_assign_and_loads():
    s = Schedule(2)
    s.assign(1, Job(1, F(1, 3)))
    assert s.loads() == (F(1, 3), F(0))
    s.assign(2, Job(2, F(1)))
    assert s.loads() == (F(1, 3), F(1))
    assert s.makespan() == F(1)


def test_assign_rejects_bad_machine_and_duplicate():
    s = Schedule(2)
    s.assign(1, Job(1, F(1)))
    with pytest.raises(ValueError):
        s.assign(3, Job(2, F(1)))
    with pytest.raises(ValueError):
        s.assign(2, Job(1, F(1)))


def test_select_best_rules():
    a = Schedule(1, label=2)
    a.assign(1, Job(1, F(4, 3)))
    b = Schedule(1, label=5)
    b.assign(1, Job(1, F(1)))
    assert select_best([a, b]) is b
    assert select_best([a]) is a
    c = Schedule(1, label=1)
    c.assign(1, Job(1, F(1)))
    assert select_best([a, b, c]) is c  # tie on makespan 1: smaller label wins
    with pytest.raises(ValueError):
        select_best([])


def test_lane_runner_completes_no_rule():
    class NoRule:
        m = 2

        def propose(self, job):
            return None

        def record(self, job, machine):
            raise AssertionError("record must not be called for no-rule jobs")

    runner = LaneRunner(NoRule())
    runner.step(Job(1, F(2)))
    runner.step(Job(2, F(1)))
    assert runner.had_no_rule
    assert runner.schedule.loads() == (F(2), F(1))  # least loaded, lowest index


sizes_strategy = st.lists(
    st.fractions(min_value=F(1, 20), max_value=F(5)), min_size=1, max_size=12
)


@given(sizes=sizes_strategy, m=st.integers(min_value=1, max_value=4), data=st.data())
@settings(max_examples=120)
def test_loads_always_match_assignment(sizes, m, data):
    seq = JobSequence.from_sizes(m, sizes)
    s = Schedule(m)
    for job in seq:
        s.assign(data.draw(st.integers(min_value=1, max_value=m)), job)
        assert check_loads(s, seq.jobs)
    assert s.makespan() == max(s.loads())


@given(
    m=st.integers(min_value=1, max_value=4),
    dens=st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=15),
    data=st.data(),
)
@settings(max_examples=120)
def test_integer_loads_match_fraction_sums_as_scale_grows(m, dens, data):
    """Loads kept in units of a growing common denominator (denominators
    1..60 arrive in any order) read back as the plain Fraction sums, and
    every load, the loads tuple and the makespan are Fractions."""
    s = Schedule(m)
    sums = [F(0)] * m
    jobs = []
    for t, den in enumerate(dens, start=1):
        job = Job(t, F(data.draw(st.integers(min_value=1, max_value=3 * den)), den))
        machine = data.draw(st.integers(min_value=1, max_value=m))
        s.assign(machine, job)
        jobs.append(job)
        sums[machine - 1] += job.p
        assert s.loads() == tuple(sums)
        assert [s.load(i) for i in range(1, m + 1)] == sums
        assert s.makespan() == max(sums)
        assert check_loads(s, jobs)
        values = (*s.loads(), *(s.load(i) for i in range(1, m + 1)), s.makespan())
        assert all(type(v) is F for v in values)
    heavier = jobs[:-1] + [Job(jobs[-1].index, jobs[-1].p + F(1, 61))]
    assert not check_loads(s, heavier)
    assert s.machines_by_load() == sorted(range(m), key=lambda i: (sums[i], i))


# (numerator, denominator): few values, many ties.
_amount = st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=3))
# (kind, amount).  Kind -1 rescales by numerator + 1; any other kind adds
# the amount to machine kind % m.
_op = st.tuples(st.one_of(st.just(-1), st.integers(min_value=0, max_value=299)), _amount)
_machines = st.one_of(st.integers(min_value=1, max_value=5), st.integers(min_value=6, max_value=300))


@given(
    m=_machines,
    fractions=st.booleans(),
    start=st.lists(_amount, min_size=1, max_size=8),
    ops=st.lists(_op, max_size=30),
    first_ask=st.integers(min_value=0, max_value=31),
)
@settings(max_examples=300, deadline=None)
def test_least_loaded_matches_scan(m, fractions, start, ops, first_ask):
    """LeastLoaded returns the least (load, index) of a plain scan after
    every step: adds (zero ones included), rescales, equal loads, with
    least() first asked early, late or never, over ints and Fractions."""

    def value(num, den):
        return F(num, den) if fractions else num

    ref = [value(*start[j % len(start)]) for j in range(m)]
    loads = LeastLoaded(list(ref))
    for step, (kind, (num, den)) in enumerate(ops):
        if kind == -1:
            loads.rescale(num + 1)
            ref = [x * (num + 1) for x in ref]
        else:
            loads.add(kind % m, value(num, den))
            ref[kind % m] += value(num, den)
        if step >= first_ask:
            assert loads.least() == min(range(m), key=ref.__getitem__)  # the first of least load
        assert loads.loads == ref


@given(
    m=_machines,
    fractions=st.booleans(),
    start=st.lists(_amount, min_size=1, max_size=8),
    # (size numerator - 1, size denominator, count); counts of 0 included.
    classes=st.lists(st.tuples(st.integers(0, 4), st.integers(1, 3), st.integers(0, 900)),
                     max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_add_equal_matches_one_add_per_job(m, fractions, start, classes):
    """add_equal over several classes in one call gives the per-class
    counts and the loads of one add(least(), q) per job, class after
    class, from uneven start loads with ties, over ints and Fractions."""

    def value(num, den):
        return F(num, den) if fractions else num

    ref = LeastLoaded([value(*start[j % len(start)]) for j in range(m)])
    loads = list(ref.loads)
    classes = [(value(num + 1, den), count % (3 * m + 1)) for num, den, count in classes]
    want = []
    for q, c in classes:
        got = [0] * m
        for _ in range(c):
            j = ref.least()
            ref.add(j, q)
            got[j] += 1
        want.append(tuple(got))
    assert add_equal(loads, classes) == tuple(want)
    assert loads == ref.loads


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
def test_least_loaded_add_equal_rounds_pass_the_next_level():
    """A round lifts the lowest level to or past the next one, ceil((5 - 0)/2)
    = 3 jobs here, so the rounds end; a round that stopped below the next
    level would be the lowest again with no job left to take."""

    with time_limit(10, "add_equal"):
        loads = [0, 5]
        assert add_equal(loads, [(2, 3)]) == ((3, 0),) and loads == [6, 5]
        loads = [F(1, 3), 0, F(7, 3)]
        assert add_equal(loads, [(F(1, 2), 9)]) == ((4, 5, 0),)
        assert loads == [F(7, 3), F(5, 2), F(7, 3)]


@pytest.mark.parametrize("q, c", [(0, 1), (-1, 1), (F(-1, 2), 0), (1, -1), (F(1, 2), -3)])
def test_least_loaded_add_equal_rejects_bad_arguments(q, c):
    """A bad class raises before any class is placed, alone, first or last."""
    for classes in ([(q, c)], [(q, c), (1, 2)], [(1, 2), (q, c)]):
        loads = [0, 1]
        with pytest.raises(ValueError):
            add_equal(loads, classes)
        assert loads == [0, 1]


_BROKEN_CHECK = """
from fractions import Fraction as F
from parsched import adversary, harness
from parsched.core import InvariantViolation
from parsched.oracle import ListScheduler

if __debug__:
    raise SystemExit("expected to run under python -O")


class OffByOne(adversary.Schedule):
    def makespan(self):
        return super().makespan() + 1


try:
    {breaks}
except InvariantViolation as exc:
    print("raised:", exc)
"""


@pytest.mark.parametrize("breaks, message", [
    ("harness._composition_parts = lambda rng, total, parts, floor: [floor] * parts; "
     "harness.gen_planted(2, counts=2)", "planted volume must equal the machine count"),
    ("harness.opt_exact = lambda seq: 2; harness.gen_planted(2, counts=2, verify_cap=10)",
     "planted optimum failed verification"),
    ("adversary.Schedule = OffByOne; adversary.lb1_run(6, [ListScheduler(6)])",
     "witness schedule must have makespan exactly 1"),
    ("adversary.Schedule = OffByOne; adversary.lb2_run(4, F(1, 4), [ListScheduler(4)])",
     "witness schedule must have makespan exactly 1"),
], ids=["planted_volume", "planted_verify", "lb1_witness", "lb2_witness"])
def test_checks_survive_optimize_flag(breaks, message):
    """The generator's and the adversaries' checks raise InvariantViolation
    under python -O, once the child breaks what they check."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-O", "-c", _BROKEN_CHECK.format(breaks=breaks)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == f"raised: {message}"
