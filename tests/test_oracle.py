import functools
import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsched.a1 import a1_partition
from parsched.core import JobSequence
from parsched.oracle import (
    ListScheduler,
    MultisetInstance,
    MultisetSchedule,
    SearchBudgetExceeded,
    fit_multiset,
    list_schedule,
    lower_bound,
    lpt_schedule,
    opt_exact,
)

from helpers import lpt_multiset, multiset_sequence, multiset_total, opt_multiset


def brute_opt(sizes, m):
    best = None
    for assignment in itertools.product(range(m), repeat=len(sizes)):
        loads = [F(0)] * m
        for p, j in zip(sizes, assignment):
            loads[j] += p
        mk = max(loads)
        best = mk if best is None or mk < best else best
    return best


def test_opt_exact_examples():
    assert opt_exact(JobSequence.from_sizes(2, [3, 3, 2, 2, 2])) == 6
    assert opt_exact(JobSequence.from_sizes(3, [1])) == 1
    assert opt_exact(JobSequence.from_sizes(3, ["1/3"] * 3 + [1, 1])) == 1
    assert opt_exact(JobSequence.from_sizes(2, [])) == 0


@pytest.mark.parametrize("m", [1, 2, 5, 7, 24, 30])
@pytest.mark.parametrize("p", [F(1), F(3, 7)])
def test_opt_exact_closed_forms_at_search_cap(m, p):
    """At n = 24, the default search cap: equal sizes need ceil(n/m)
    jobs on some machine, and a job at least the sum of the rest is the
    optimum by itself (with a second machine for the rest)."""
    n = 24
    assert opt_exact(JobSequence.from_sizes(m, [p] * n)) == math.ceil(n / m) * p
    if m > 1:
        rest = [p * (k % 5 + 1) for k in range(n - 1)]
        giant = sum(rest) + p
        for at in (0, n // 2, n - 1):
            sizes = rest[:at] + [giant] + rest[at:]
            assert opt_exact(JobSequence.from_sizes(m, sizes)) == giant


def test_opt_exact_cap():
    with pytest.raises(ValueError):
        opt_exact(JobSequence.from_sizes(2, [1] * 30), cap=24)


def test_lower_bound():
    assert lower_bound(F(5), F(1), 2) == F(5, 2)
    assert lower_bound(F(1), F(1), 4) == F(1)
    assert lower_bound(F(0), F(0), 3) == F(0)


def test_list_and_lpt_examples():
    one_each = list_schedule(JobSequence.from_sizes(3, ["1/3"] * 3))
    assert one_each.loads() == (F(1, 3),) * 3
    assert list_schedule(JobSequence.from_sizes(1, [1, 1])).makespan() == 2
    assert lpt_schedule(JobSequence.from_sizes(2, [2, 2, 3])).makespan() == 4


def test_list_scheduler_permutation():
    from parsched.core import Job

    plain = ListScheduler(3)
    assert plain.propose(Job(1, F(1))) == 1
    rotated = ListScheduler(3, perm=[2, 3, 1])
    job = Job(1, F(1))
    assert rotated.propose(job) == 2
    rotated.record(job, 2)
    assert rotated.propose(Job(2, F(1))) == 3  # machine 2 now loaded


def test_multiset_examples():
    assert opt_multiset(MultisetInstance(((F(3, 4), 2),), 2)).makespan() == F(3, 4)
    two_classes = MultisetInstance(((F(3, 4), 2), (F(9, 8), 1)), 2)
    assert opt_multiset(two_classes).makespan() == F(3, 2)
    assert opt_multiset(MultisetInstance((), 3)).makespan() == 0


def test_multiset_validation():
    with pytest.raises(ValueError):
        MultisetInstance(((F(1), 1), (F(1), 2)), 2)  # duplicate sizes
    with pytest.raises(ValueError):
        MultisetInstance(((F(0), 1),), 2)


_size = st.fractions(min_value=F(1, 8), max_value=F(4))
_machines = st.integers(min_value=1, max_value=3)


@st.composite
def _equal_sizes(draw):
    return draw(_machines), [draw(_size)] * draw(st.integers(min_value=1, max_value=7))


@st.composite
def _giant_job(draw):
    """One job at least the sum of all the others, arriving anywhere."""
    rest = draw(st.lists(_size, max_size=6))
    at = draw(st.integers(min_value=0, max_value=len(rest)))
    giant = sum(rest, F(0)) + draw(st.sampled_from([F(0), F(1, 8), F(1)]))
    if giant == 0:
        giant = draw(_size)
    return draw(_machines), rest[:at] + [giant] + rest[at:]


small_instance = st.one_of(
    st.tuples(_machines, st.lists(_size, min_size=1, max_size=7)),
    st.tuples(st.just(1), st.lists(_size, min_size=1, max_size=7)),
    _equal_sizes(),
    _giant_job(),
)


@given(inst=small_instance)
@settings(max_examples=80, deadline=None)
def test_opt_exact_matches_enumeration(inst):
    m, sizes = inst
    seq = JobSequence.from_sizes(m, sizes)
    assert opt_exact(seq) == brute_opt(sizes, m)


@given(inst=small_instance)
@settings(max_examples=60, deadline=None)
def test_bounds_chain(inst):
    m, sizes = inst
    seq = JobSequence.from_sizes(m, sizes)
    opt = opt_exact(seq)
    lb = lower_bound(seq.total(), seq.max_p(), m)
    assert lb <= opt
    assert opt <= lpt_schedule(seq).makespan()
    assert opt <= list_schedule(seq).makespan()


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_multiset_agrees_with_expanded_instance(data):
    m = data.draw(st.integers(min_value=1, max_value=3))
    k = data.draw(st.integers(min_value=1, max_value=3))
    sizes = data.draw(
        st.lists(
            st.fractions(min_value=F(1, 6), max_value=F(3)),
            min_size=k, max_size=k, unique=True,
        )
    )
    counts = data.draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    inst = MultisetInstance(tuple(zip(sizes, counts)), m)
    ms = opt_multiset(inst)
    for i, (_, c) in enumerate(inst.normalized()):
        assert sum(ms.counts[i]) == c
    expanded = multiset_sequence(ms)
    if len(expanded):
        assert ms.makespan() == opt_exact(expanded)
        assert lpt_multiset(inst).makespan() >= ms.makespan()


def test_multiset_budget_guard():
    sizes = [F(5, 11), F(4, 9), F(3, 7), F(2, 5), F(5, 13), F(4, 13)]
    inst = MultisetInstance(tuple((s, 5) for s in sizes), 7)
    with pytest.raises(SearchBudgetExceeded):
        opt_multiset(inst, node_cap=3)
    with pytest.raises(SearchBudgetExceeded):
        fit_multiset(inst, F(23, 13), node_cap=3)  # the optimum, which FFD misses


def _scaled(inst, scale):
    """The instance in integer units of 1/scale (scale a common denominator)."""
    classes = []
    for s, c in inst.classes:
        q = s * scale
        assert q.denominator == 1
        classes.append((q.numerator, c))
    return MultisetInstance(tuple(classes), inst.m)


def _assert_scale_invariant(inst, scale):
    """LPT and the exact search place the same per-class counts on the same
    machines over Fractions and over integers; loads scale exactly and the
    integer instance never produces a Fraction."""
    ints = _scaled(inst, scale)
    for solve in (lpt_multiset, opt_multiset):
        ref, got = solve(inst), solve(ints)
        assert got.counts == ref.counts
        assert got.sizes == tuple(s * scale for s in ref.sizes)
        assert got.loads() == tuple(x * scale for x in ref.loads())
        assert all(type(x) is int for x in got.loads())
        assert type(got.makespan()) is int and type(multiset_total(ints)) is int


def test_multiset_scale_invariance_through_the_exact_search(monkeypatch):
    """An instance where LPT is not optimal and the fit search's machine-by-
    machine branching runs (FFD alone does not find the optimum)."""
    from parsched import oracle

    calls = []
    real = oracle._bin_completions
    monkeypatch.setattr(oracle, "_bin_completions", lambda *a: calls.append(1) or real(*a))
    inst = MultisetInstance(((F(7, 10), 3), (F(1, 2), 4)), 3)
    assert opt_multiset(inst).makespan() == F(3, 2) < lpt_multiset(inst).makespan() == F(17, 10)
    searched = len(calls)
    assert searched > 0
    for scale in (10, 30, 7 * 10**9):
        _assert_scale_invariant(inst, scale)
    assert len(calls) > searched


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_multiset_scale_invariance(data):
    """opt_multiset and lpt_multiset return the same per-class counts on an
    integer-scaled instance as on the Fraction instance, at the least common
    denominator and at multiples of it."""
    m = data.draw(st.integers(min_value=1, max_value=4))
    k = data.draw(st.integers(min_value=1, max_value=3))
    sizes = data.draw(st.lists(st.fractions(min_value=F(1, 12), max_value=F(2), max_denominator=60),
                               min_size=k, max_size=k, unique=True))
    counts = data.draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))
    inst = MultisetInstance(tuple(zip(sizes, counts)), m)
    lcd = math.lcm(*(s.denominator for s in sizes))
    _assert_scale_invariant(inst, lcd * data.draw(st.sampled_from([1, 1, 2, 61])))


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_greedy_loads_equal_loads_summed_from_counts(data):
    """LPT hands over the loads its least-loaded rule kept; they equal the
    loads a schedule sums from its per-class counts, over integers and
    over Fractions, including machines LPT leaves empty."""
    m = data.draw(st.integers(min_value=1, max_value=6))
    k = data.draw(st.integers(min_value=0, max_value=4))
    sizes = data.draw(st.lists(st.fractions(min_value=F(1, 12), max_value=F(2), max_denominator=60),
                               min_size=k, max_size=k, unique=True))
    if data.draw(st.booleans()):
        scale = math.lcm(1, *(s.denominator for s in sizes))
        sizes = [int(s * scale) for s in sizes]
    counts = data.draw(st.lists(st.integers(0, 5), min_size=k, max_size=k))
    inst = MultisetInstance(tuple(zip(sizes, counts)), m)
    greedy = lpt_multiset(inst)
    summed = MultisetSchedule(inst, greedy.sizes, greedy.counts)
    assert greedy.loads() == summed.loads()
    assert greedy.makespan() == summed.makespan()


def _lpt_one_job_at_a_time(classes, m):
    """Reference LPT: jobs largest first, each on the first least loaded machine."""
    loads = [0] * m
    counts = []
    for size, c in sorted(classes, key=lambda sc: -sc[0]):
        row = [0] * m
        for _ in range(c):
            j = min(range(m), key=loads.__getitem__)
            loads[j] += size
            row[j] += 1
        if c:
            counts.append(tuple(row))
    return tuple(counts), tuple(loads)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_lpt_multiset_matches_one_job_at_a_time(data):
    """lpt_multiset, which places each class in one step, gives the counts
    and loads of LPT placing its jobs one at a time, at census shapes: up to
    256 machines, the integer class ladders of eps 1, 1/2 and 1/3 (2, 7 and
    12 classes) or distinct Fractions, counts up to twice the machines."""
    m = data.draw(st.integers(min_value=1, max_value=256))
    eps = data.draw(st.sampled_from([None, F(1), F(1, 2), F(1, 3)]))
    if eps is None:
        sizes = data.draw(st.lists(st.fractions(min_value=F(1, 12), max_value=F(2), max_denominator=60),
                                   max_size=12, unique=True))
    else:
        sizes = list(a1_partition(eps).ladder[1:])
    counts = data.draw(st.lists(st.integers(min_value=0, max_value=2 * m),
                                min_size=len(sizes), max_size=len(sizes)))
    inst = MultisetInstance(tuple(zip(sizes, counts)), m)
    greedy = lpt_multiset(inst)
    assert (greedy.counts, greedy.loads()) == _lpt_one_job_at_a_time(inst.classes, m)


def test_fit_multiset_agrees_with_optimum(monkeypatch):
    """On small random multisets, the fit decision returns a schedule of
    every job with each load <= limit exactly when the optimum is <= limit,
    at limits on, just below and around the optimum; some decisions need
    the machine-by-machine search (FFD alone does not settle them)."""
    from parsched import oracle

    calls = []
    real = oracle._bin_completions
    monkeypatch.setattr(oracle, "_bin_completions", lambda *a: calls.append(1) or real(*a))
    rng = random.Random(13)
    for _ in range(200):
        m = rng.randint(1, 4)
        k = rng.randint(1, 4)
        sizes = []
        while len(sizes) < k:
            s = F(rng.randint(1, 16), rng.choice([1, 2, 4]))
            if s not in sizes:
                sizes.append(s)
        counts = [rng.randint(0, 4) for _ in range(k)]
        while sum(counts) > 12:
            counts[counts.index(max(counts))] -= 1
        inst = MultisetInstance(tuple(zip(sizes, counts)), m)
        opt = opt_multiset(inst).makespan()
        jobs = [s for s, c in zip(sizes, counts) for _ in range(c)]
        assert opt == opt_exact(JobSequence.from_sizes(m, jobs))  # a reference without the fit search
        for limit in (opt, opt - F(1, 8), opt + F(1, 8), F(rng.randint(1, 96), 4)):
            fit = fit_multiset(inst, limit)
            assert (fit is not None) == (opt <= limit)
            if fit is not None:
                assert all(x <= limit for x in fit.loads())
                assert [sum(row) for row in fit.counts] == [c for _, c in inst.normalized()]
    assert calls


def test_plan_build_searches_only_past_the_bound_and_raises_out_of_budget(monkeypatch):
    """A census plan whose LPT makespan is at most (1+eps')*T, bound
    included, is the LPT plan; one whose LPT overshoots needs the fit
    search, and when that outgrows its budget the error reaches the
    caller instead of a silent greedy plan.  A doomed lane (exact=False)
    never searches."""
    from parsched import a1

    partition = a1.a1_partition(F(1))  # eps' = 1/2, ceilings 3/4 and 9/8 at T = 1
    vector = (0, 4)  # LPT and FFD both overshoot 3/2 on 3 machines
    greedy = a1.A1Plan.build(partition, 3, vector, exact=False)
    assert not greedy.certified
    # With its budget the search proves that nothing fits: the plan stays greedy.
    assert a1.A1Plan.build(partition, 3, vector).n_star == greedy.n_star
    monkeypatch.setattr(a1, "fit_multiset", functools.partial(fit_multiset, node_cap=1))
    with pytest.raises(SearchBudgetExceeded):
        a1.A1Plan.build(partition, 3, vector)
    assert a1.A1Plan.build(partition, 3, vector, exact=False).n_star == greedy.n_star
    at_bound = a1.A1Plan.build(partition, 2, (3, 0))  # LPT loads 3/2 and 3/4
    assert at_bound.certified and max(at_bound.loads) == partition.unit + partition.ladder[0]


def test_fit_decision_rejects_by_volume_before_first_fit(monkeypatch):
    """A multiset whose volume exceeds m * limit is unfit without a
    first-fit-decreasing pass, the answer the search's first volume test
    gives; at volume exactly m * limit the decision still packs it."""
    from parsched import oracle

    calls = []
    real = oracle._ffd_fits
    monkeypatch.setattr(oracle, "_ffd_fits", lambda *a: calls.append(1) or real(*a))
    over = MultisetInstance(((F(3, 4), 5), (F(1, 2), 2)), 3)  # volume 19/4 > 3 * 3/2
    assert fit_multiset(over, F(3, 2)) is None
    assert not calls
    assert opt_multiset(over).makespan() > F(3, 2)
    full = MultisetInstance(((F(3, 4), 6),), 3)  # volume 9/2 = 3 * 3/2
    calls.clear()
    assert fit_multiset(full, F(3, 2)).makespan() == F(3, 2)
    assert calls
