import heapq
import math
import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsched.a1 import (
    A1Plan,
    A1Plans,
    A1State,
    LaneCapExceeded,
    a1_count_cap,
    a1_family,
    a1_family_size,
    a1_partition,
    a1_true_vector,
)
from parsched.core import Job, JobSequence, LaneRunner, select_best
from parsched.harness import gen_planted
from parsched.oracle import MultisetInstance, fit_multiset

from helpers import check_offer_matches_propose, lpt_multiset, scale_jumps, step


def test_partition_examples():
    p = a1_partition(F(1), F(1))
    assert (p.eps_prime, p.levels) == (F(1, 2), 2)
    assert p.bounds == (F(1, 2), F(3, 4), F(9, 8))
    doubled = a1_partition(F(1), F(2))
    assert doubled.bounds == (F(1), F(3, 2), F(9, 4))
    assert a1_partition(F(1, 2), F(1)).levels == 7


def test_classify_examples():
    p = a1_partition(F(1), F(1))

    def census(size):
        return a1_true_vector([Job(1, F(size))], p, 2)

    assert census(F(1, 2)) == (0, 0)  # boundary stays small
    assert census(F(3, 5)) == (1, 0)
    assert census(F(3, 4)) == (1, 0)  # a class bound is in its class
    assert census(F(1)) == (0, 1)
    assert census(F(9, 8)) == (0, 1)  # the top bound
    with pytest.raises(ValueError, match="job of size 2 exceeds the top class bound"):
        census(F(2))
    with pytest.raises(ValueError):
        census(F(0))


@given(eps=st.fractions(min_value=F(1, 20), max_value=F(1)),
       T=st.fractions(min_value=F(1, 5), max_value=F(5)))
@settings(max_examples=80)
def test_partition_covers_assumed_optimum(eps, T):
    p = a1_partition(eps, T)
    assert p.bounds[-1] >= T  # every job of an instance with optimum <= T classifies
    for lo, hi in zip(p.bounds, p.bounds[1:]):
        assert hi == lo * (1 + p.eps_prime)


def test_family_sizes():
    assert a1_family_size(F(1), 2) == 25
    assert a1_family_size(F(1), 5) == 121
    assert a1_family(F(1), 2, F(1)).size == 25
    with pytest.raises(LaneCapExceeded):
        a1_family(F(1, 2), 2, F(1), lane_cap=1000)  # 9**7 lanes


def test_true_vector():
    p = a1_partition(F(1), F(1))
    seq = JobSequence.from_sizes(2, ["0.6", "0.6", "0.3"])
    assert a1_true_vector(seq.jobs, p, 2) == (2, 0)
    assert a1_true_vector([], p, 2) == (0, 0)
    too_many = JobSequence.from_sizes(2, ["0.6"] * (a1_count_cap(2, F(1, 2)) + 1))
    with pytest.raises(ValueError):
        a1_true_vector(too_many.jobs, p, 2)


def test_step_follows_virtual_slots():
    p = a1_partition(F(1), F(1))
    plan = A1Plan.build(p, 2, (2, 0))
    assert plan.n_star[0] == (1, 1)
    lane = A1State(plan, p)
    assert step(lane, Job(1, F(3, 5))) == 1
    assert step(lane, Job(2, F(3, 5))) == 2


def test_step_small_tie_and_fallback():
    p = a1_partition(F(1), F(1))
    small_only = A1State(A1Plan.build(p, 2, (0, 0)), p)
    assert step(small_only, Job(1, F(1, 4))) == 1  # all keys equal: lowest index
    lane = A1State(A1Plan.build(p, 2, (2, 0)), p)
    step(lane, Job(1, F(1, 4)))  # small on machine 1
    assert step(lane, Job(2, F(1))) == 2  # class 2 has no slots: least loaded


def test_small_rule_tracks_virtual_plus_small():
    p = a1_partition(F(1), F(1))
    plan = A1Plan.build(p, 2, (1, 0))  # one large slot on machine 1
    lane = A1State(plan, p)
    assert [F(x, p.unit) for x in plan.loads] == [F(3, 4), F(0)]
    assert step(lane, Job(1, F(1, 2))) == 2  # ell*(1)=3/4 beats 0
    assert step(lane, Job(2, F(1, 2))) == 2  # 3/4 still beats 1/2
    assert step(lane, Job(3, F(1, 2))) == 1  # now 3/4 < 1


def _simulate_true_lane(seq, eps, T):
    """The true census lane after the whole sequence, and each machine's
    load of large jobs."""
    partition = a1_partition(eps, T)
    vector = a1_true_vector(seq.jobs, partition, seq.m)
    plan = A1Plan.build(partition, seq.m, vector)
    lane = A1State(plan, partition)
    large = [F(0)] * seq.m
    for job in seq:
        machine = step(lane, job)
        assert machine is not None
        if job.p > partition.bounds[0]:  # a large job
            large[machine - 1] += job.p
    return lane, large


@pytest.mark.parametrize("m,seed", [(2, 0), (3, 1), (5, 2), (8, 3)])
def test_true_lane_guarantee_on_planted(m, seed):
    eps = F(1)
    for k in range(10):
        seq = gen_planted(m, counts=(1, 4), denom=24, seed=seed * 100 + k)
        lane, large = _simulate_true_lane(seq, eps, F(1))
        assert max(lane.loads) <= (1 + eps) * 1
        # Large jobs never push a machine past its virtual allocation.
        unit = lane.partition.unit
        for j in range(m):
            assert large[j] <= F(lane.plan.loads[j], unit)


def test_full_family_best_lane_within_guarantee():
    eps = F(1)
    family = a1_family(eps, 3, F(1))
    for seed in range(3):
        seq = gen_planted(3, counts=2, denom=12, seed=seed)
        schedules = []
        for lane in family.lanes():
            runner = LaneRunner(lane, label=lane.label)
            runner.run(seq.jobs)
            schedules.append(runner.schedule)
        assert select_best(schedules).makespan() <= 2


def small_levels(lane):
    """An A1State's virtual plus small load per machine, as Fractions: with
    equal loads, equal levels mean equal loads of large jobs."""
    return [F(x, lane._scale) for x in lane._level.loads]


def ref_levels(ref):
    return [star + small for star, small in zip(ref.plan.ell_star, ref.ell_s)]


class FractionA1Lane:
    """Reference copy of the census lane stepping over Fractions, with the
    per-class bound scan for classification."""

    def __init__(self, plan):
        m, levels = plan.m, plan.partition.levels
        self.plan, self.m = plan, m
        self.n_cur = [[0] * m for _ in range(levels)]
        self.ell_s = [F(0)] * m
        self.large_load = [F(0)] * m
        self.loads = [F(0)] * m
        self._slots = []
        for i in range(levels):
            heap = []
            for j in range(m):
                heap.extend([j] * plan.n_star[i][j])
            heapq.heapify(heap)
            self._slots.append(heap)
        self._small_heap = [(plan.ell_star[j], j) for j in range(m)]
        heapq.heapify(self._small_heap)
        self._load_heap = [(F(0), j) for j in range(m)]
        heapq.heapify(self._load_heap)

    def classify(self, p):
        bounds = self.plan.partition.bounds
        for i, bound in enumerate(bounds):
            if p <= bound:
                return i
        return None

    def propose(self, job):
        cls = self.classify(job.p)
        if cls is None:
            return None
        if cls == 0:
            heap = self._small_heap
            while heap[0][0] != self.plan.ell_star[heap[0][1]] + self.ell_s[heap[0][1]]:
                heapq.heappop(heap)
            return heap[0][1] + 1
        slots = self._slots[cls - 1]
        while slots and self.plan.n_star[cls - 1][slots[0]] - self.n_cur[cls - 1][slots[0]] <= 0:
            heapq.heappop(slots)
        if slots:
            return slots[0] + 1
        heap = self._load_heap
        while heap[0][0] != self.loads[heap[0][1]]:
            heapq.heappop(heap)
        return heap[0][1] + 1

    def record(self, job, machine):
        cls = self.classify(job.p)
        j = machine - 1
        if cls == 0:
            self.ell_s[j] += job.p
            heapq.heappush(self._small_heap, (self.plan.ell_star[j] + self.ell_s[j], j))
        else:
            self.n_cur[cls - 1][j] += 1
            self.large_load[j] += job.p
        self.loads[j] += job.p
        heapq.heappush(self._load_heap, (self.loads[j], j))


@given(
    eps=st.sampled_from([F(1), F(1, 2), F(1, 3)]),
    m=st.integers(min_value=1, max_value=6),
    # 6/5 shares a factor with every unit here, so the start scale is below unit*5.
    T=st.sampled_from([F(1), F(5, 4), F(7, 3), F(6, 5)]),
    rng=st.randoms(use_true_random=False),
)
@settings(max_examples=200, deadline=None)
def test_integer_lane_matches_fraction_reference(eps, m, T, rng):
    """A1State over lane-local integers proposes, loads and splits loads
    into large and small exactly like the Fraction lane over the Fraction
    plan, including when sizes with fresh denominators (2..60) grow the
    scale mid-stream, on bounds, above the top bound, with a quarter of
    the jobs recorded off-proposal and some recorded after proposing
    another job."""
    partition = a1_partition(eps, T)
    cap = a1_count_cap(m, partition.eps_prime)
    vector = tuple(rng.randint(0, min(cap, 3)) for _ in range(partition.levels))
    plan = A1Plan.build(partition, m, vector, exact=False)
    n_star, ell_star = fraction_plan_reference(partition, m, vector, exact=False)
    assert plan.n_star == n_star
    lane = A1State(plan, partition)
    ref = FractionA1Lane(SimpleNamespace(m=m, partition=partition, n_star=n_star,
                                         ell_star=ell_star))
    top = partition.bounds[-1]
    recorded = None
    for t in range(1, rng.randint(1, 60) + 1):
        if rng.random() < 0.2:
            p = rng.choice(partition.bounds)
        else:
            den = rng.randint(2, 60)
            p = F(rng.randint(1, den), den) * top * F(rng.choice([1, 1, 1, 9]), 8)
        job = Job(t, p)
        proposal = ref.propose(job)
        assert lane.propose(job) == proposal
        if proposal is None:
            with pytest.raises(ValueError):
                lane.record(job, 1)
            continue
        machine = proposal if rng.random() < 0.75 else rng.randint(1, m)
        if rng.random() < 0.1:  # a proposal nobody takes up, then record anyway
            lane.propose(Job(t, F(1, rng.randint(2, 60)) * top))
        lane.record(job, machine)
        ref.record(job, machine)
        recorded = job
        assert lane.loads == ref.loads
        assert small_levels(lane) == ref_levels(ref)
    fresh = Job(100, partition.bounds[0])
    for machine in (0, m + 1):
        with pytest.raises(ValueError):
            lane.record(fresh, machine)
    if recorded is not None:
        with pytest.raises(ValueError):
            lane.record(recorded, 1)
    assert lane.loads == ref.loads


@given(
    eps=st.sampled_from([F(1), F(1, 2), F(1, 3)]),
    m=st.integers(min_value=1, max_value=6),
    T=st.sampled_from([F(1), F(5, 4), F(7, 3), F(6, 5)]),
    rng=st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_offer_at_driver_scale_matches_propose_record(eps, m, T, rng):
    """A census lane driven by offer(job, q, S), S the driver's growing lcm
    of the denominators seen, proposes and loads exactly like its twin
    driven by propose and record, whether S jumps by a factor the lane's
    scale already holds or by one it does not, on jobs of every class and
    above the top bound."""
    partition = a1_partition(eps, T)
    cap = a1_count_cap(m, partition.eps_prime)
    vector = tuple(rng.randint(0, min(cap, 3)) for _ in range(partition.levels))
    plan = A1Plan.build(partition, m, vector, exact=False)
    sizes = scale_jumps(rng, partition.scale(), partition.bounds[-1], rng.randint(2, 40))
    check_offer_matches_propose(A1State(plan, partition), A1State(plan, partition), sizes)


def fraction_plan_reference(partition, m, vector, exact=True):
    """Test-local copy of A1Plan.build's rule over Fractions: the virtual
    schedule of the class ceilings at the partition's T, LPT if it lies
    within (1+eps')*T, else a fit at that bound, else LPT.  Returns
    (n_star, ell_star)."""
    sizes = partition.bounds[1:]  # each class's ceiling
    inst = MultisetInstance(tuple((sizes[i], v) for i, v in enumerate(vector) if v > 0), m)
    ms = lpt_multiset(inst)
    bound = (1 + partition.eps_prime) * partition.T
    if exact and ms.makespan() > bound:
        ms = fit_multiset(inst, bound) or ms
    by_size = {size: ms.counts[k] for k, size in enumerate(ms.sizes)}
    n_star = []
    for i, v in enumerate(vector):
        row = by_size.get(sizes[i]) if v > 0 else None
        n_star.append(tuple(row) if row is not None else (0,) * m)
    ell_star = tuple(
        sum((size * row[j] for size, row in zip(sizes, n_star) if row[j]), F(0))
        for j in range(m)
    )
    return tuple(n_star), ell_star


def _census_vectors(levels, cap):
    """Count vectors with at most three large classes in use, each count
    small or at the cap (more would make the exact reference search slow)."""
    return st.lists(
        st.tuples(st.integers(0, levels - 1), st.sampled_from([1, 2, 3, cap])),
        max_size=3,
    ).map(lambda entries: tuple(dict(entries).get(i, 0) for i in range(levels)))


@given(
    eps=st.sampled_from([F(1), F(1, 2), F(1, 3)]),
    m=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_cached_integer_plan_matches_fraction_reference(eps, m, data):
    """Plans built once at T = 1 over integers and rebound through one
    A1Plans cache to several guesses T (denominators up to 60) have the
    n_star and ell_star of the Fraction build at each T, with exact both
    ways; each (vector, exact) is built once;
    and an A1State over the cached plan steps like the Fraction lane over
    the reference plan, a quarter of the jobs recorded off-proposal."""
    levels = a1_partition(eps, F(1)).levels
    cap = a1_count_cap(m, eps / 2)
    guesses = data.draw(st.lists(
        st.builds(F, st.integers(1, 240), st.integers(1, 60)), min_size=1, max_size=4))
    vectors = data.draw(st.lists(_census_vectors(levels, cap), min_size=1, max_size=3))
    plans = A1Plans(m)
    for T in guesses:
        partition = a1_partition(eps, T)
        for vector in vectors:
            for exact in (True, False):
                plan = plans.get(partition, vector, exact)
                n_star, ell_star = fraction_plan_reference(partition, m, vector, exact)
                assert (plan.eps, plan.vector) == (eps, vector)
                assert plan.n_star == n_star
                unit = partition.unit
                assert tuple(F(x * T.numerator, unit * T.denominator) for x in plan.loads) == ell_star
                assert all(type(x) is int for x in plan.loads)
    assert len(plans) == len({(v, exact) for v in vectors for exact in (True, False)})
    # Stepping: the cached plan against the reference plan at the last guess.
    vector, exact = data.draw(st.sampled_from(vectors)), data.draw(st.booleans())
    plan = plans.get(partition, vector, exact)
    n_star, ell_star = fraction_plan_reference(partition, m, vector, exact)
    lane = A1State(plan, partition)
    ref = FractionA1Lane(SimpleNamespace(m=m, partition=partition, n_star=n_star,
                                         ell_star=ell_star))
    rng = data.draw(st.randoms(use_true_random=False))
    top = partition.bounds[-1]
    for t in range(1, 31):
        if rng.random() < 0.2:
            p = rng.choice(partition.bounds)
        else:
            den = rng.randint(2, 60)
            p = F(rng.randint(1, den), den) * top * F(rng.choice([1, 1, 1, 9]), 8)
        job = Job(t, p)
        proposal = ref.propose(job)
        assert lane.propose(job) == proposal
        if proposal is not None:
            machine = proposal if rng.random() < 0.75 else rng.randint(1, m)
            lane.record(job, machine)
            ref.record(job, machine)
            assert lane.loads == ref.loads
            assert small_levels(lane) == ref_levels(ref)


@given(
    eps=st.sampled_from([F(1), F(1, 2)]),
    m=st.integers(min_value=1, max_value=5),
    T=st.sampled_from([F(1), F(5, 4), F(7, 3)]),
    rng=st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_lazy_fallback_loads_match_eager_reference(eps, m, T, rng):
    """A lane whose count vector lies below the stream's census runs out of
    slots, and its class-overflow fallback builds the loads it places by
    only then, from level - virtual + large.  Its proposals and loads
    equal the Fraction lane's, which keeps its loads from the start,
    including when fresh denominators grow the scale before and after the
    fallback's first use."""
    partition = a1_partition(eps, T)
    bounds = partition.bounds
    sizes = []
    for _ in range(rng.randint(1, 30)):
        cls = rng.randrange(len(bounds))  # 0 is small
        lo = bounds[cls - 1] if cls else F(0)
        den = rng.randint(2, 60)
        sizes.append(lo + (bounds[cls] - lo) * F(rng.randint(1, den), den))
    census = a1_true_vector([Job(t, p) for t, p in enumerate(sizes, 1)], partition, 10**6)
    over = rng.choice([i for i, c in enumerate(census) if c] or [0])
    # One class more than its count, the rest at most theirs.
    sizes.append(bounds[over + 1])
    vector = tuple(rng.randint(0, c) for c in census)
    # Fresh denominators (above 60) after the fallback: a small job, then
    # another job of the overflowing class.
    sizes += [bounds[0] / 97, bounds[over + 1] - bounds[over + 1] / 89]
    plan = A1Plan.build(partition, m, vector, exact=False)
    n_star, ell_star = fraction_plan_reference(partition, m, vector, exact=False)
    lane = A1State(plan, partition)
    ref = FractionA1Lane(SimpleNamespace(m=m, partition=partition, n_star=n_star,
                                         ell_star=ell_star))
    for t, p in enumerate(sizes, 1):
        job = Job(t, p)
        proposal = ref.propose(job)
        assert lane.propose(job) == proposal
        lane.record(job, proposal)
        ref.record(job, proposal)
        assert lane.loads == ref.loads
        assert small_levels(lane) == ref_levels(ref)
    assert lane._loads is not None  # the fallback fired
    assert lane._scale % (97 * 89) == 0  # and the scale grew after it
    assert [F(x, lane._scale) for x in lane._loads.loads] == ref.loads


def fraction_ladder_reference(eps):
    """Test-local copy of the class ladder as it was built over Fractions:
    (unit, ladder) for bounds eps'*(1+eps')**i at T = 1, unit their lcm."""
    eps_prime = eps / 2
    bounds = [eps_prime]
    while bounds[-1] < 1:
        bounds.append(bounds[-1] * (1 + eps_prime))
    unit = math.lcm(*(b.denominator for b in bounds))
    return unit, tuple(int(b * unit) for b in bounds)


def wrapper_guesses(p1, eps, count):
    """Guesses shaped like a wrapped run's: p1 * (1 + eps_g)**k for the
    wrapper's step at accuracy eps and inner ratio 1 + eps/2."""
    step = 1 + eps / (3 * (1 + eps / 2))
    return [p1 * step**k for k in range(count)]


@given(
    eps=st.sampled_from([F(1), F(1, 2), F(1, 3), F(2, 7)]),
    m=st.integers(min_value=1, max_value=5),
    p1=st.builds(F, st.integers(1, 48), st.sampled_from([8, 12, 24, 48])),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_rebound_lane_matches_lane_built_at_each_guess(eps, m, p1, data):
    """A census lane rebound from one run's parts (the T = 1 partition and
    its A1Plans) to a guess proposes and loads exactly like a lane whose
    partition and plan are built from scratch at that guess, on wrapper-
    shaped guesses p1 * (1 + eps_g)**k whose denominators grow with k, with
    jobs of fresh denominators growing the lane's scale mid-run; the
    integer ladder is the one the Fraction bounds give, the start scale is
    the lcm of their denominators at the guess, and the ladder rebinds
    exactly to any multiple of it and to no other scale."""
    unit = a1_partition(eps)
    assert (unit.unit, unit.ladder) == fraction_ladder_reference(eps)
    plans = A1Plans(m)
    cap = a1_count_cap(m, unit.eps_prime)
    rng = data.draw(st.randoms(use_true_random=False))
    for T in wrapper_guesses(p1, eps, data.draw(st.integers(1, 6))):
        fresh = a1_partition(eps, T)
        rebound = unit.at(T)
        assert rebound == fresh and rebound.bounds == fresh.bounds
        assert rebound.scale() == math.lcm(*(b.denominator for b in fresh.bounds))
        scale = rebound.scale() * rng.choice([1, 7])
        assert rebound.rebind(scale, unit.ladder) == [b * scale for b in fresh.bounds]
        with pytest.raises(ValueError, match="common denominator"):
            rebound.rebind(rebound.scale() * 3 + 1, unit.ladder)
        vector = data.draw(_census_vectors(unit.levels, cap))
        exact = data.draw(st.booleans())
        plan = plans.get(rebound, vector, exact)
        ref_plan = A1Plan.build(fresh, m, vector, exact)
        assert (plan.n_star, plan.loads, plan.slots) == (ref_plan.n_star, ref_plan.loads,
                                                          ref_plan.slots)
        lane, ref = A1State(plan, rebound), A1State(ref_plan, fresh)
        assert lane._scale == rebound.scale()
        top = fresh.bounds[-1]
        for t in range(1, 25):
            den = rng.choice([2, 3, 5, 7, 11, 13]) ** rng.randint(1, 3)  # fresh denominators
            job = Job(t, F(rng.randint(1, den), den) * top * F(rng.choice([1, 1, 1, 9]), 8))
            proposal = ref.propose(job)
            assert lane.propose(job) == proposal
            if proposal is not None:
                machine = proposal if rng.random() < 0.75 else rng.randint(1, m)
                lane.record(job, machine)
                ref.record(job, machine)
                assert lane.loads == ref.loads


@given(
    eps=st.sampled_from([F(1), F(1, 2), F(1, 3)]),
    m=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_certified_greedy_plan_is_built_once_for_both_exact_values(eps, m, data):
    """A vector whose greedy schedule stays within (1+eps')*T has one plan
    for a doomed and an exact lane, whichever asks first; otherwise the
    two plans are built separately."""
    partition = a1_partition(eps)
    vector = data.draw(_census_vectors(partition.levels, a1_count_cap(m, partition.eps_prime)))
    first = data.draw(st.booleans())
    plans = A1Plans(m)
    plan = plans.get(partition, vector, first)
    greedy = A1Plan.build(partition, m, vector, exact=False)
    bound = 1 + partition.eps_prime  # at T = 1
    certified = max(F(x, partition.unit) for x in greedy.loads) <= bound
    assert plan.certified == certified
    other = plans.get(partition, vector, not first)
    assert (other is plan) == certified
    for exact, got in ((first, plan), (not first, other)):
        n_star, _ = fraction_plan_reference(partition, m, vector, exact)
        assert got.n_star == n_star


def test_plans_share_one_object_across_guesses():
    """A1Plans builds a plan once and hands the same object to every guess."""
    unit = a1_partition(F(1))
    plans = A1Plans(3)
    plan = plans.get(unit.at(F(1)), (2, 1))
    assert plans.get(unit.at(F(7, 5)), (2, 1)) is plan
    assert plans.get(unit.at(F(3)), (2, 1), exact=False) is plans.get(unit.at(F(2)), (2, 1), False)
    assert len(plans) == 2  # (vector, exact) keys: one build, or one per value of exact


def test_lane_rejects_plan_of_another_accuracy():
    """A plan's integer loads are in units of its own accuracy's ladder, so a
    lane refuses a partition of another accuracy, at any guess."""
    plan = A1Plan.build(a1_partition(F(1)), 2, (1, 0))
    for T in (F(1), F(3, 2)):
        with pytest.raises(ValueError, match="eps"):
            A1State(plan, a1_partition(F(1, 2), T))
        assert A1State(plan, a1_partition(F(1), T)).plan is plan


class Forward:
    """A lane seen only through propose and record, as a wrapper or a
    timing proxy sees an inner it does not know."""

    def __init__(self, lane):
        self.propose, self.record = lane.propose, lane.record


def test_lanes_on_one_plan_copy_slot_rows_on_first_use():
    """Two lanes share a plan.  The first, stepped through large jobs of
    every class past each class's slots into the least-loaded fallback,
    proposes as the Fraction reference does, and plan.n_star is unchanged
    after it; the second then proposes what a lane built fresh proposes.
    A flagged lane of the zero plan, stepped through a forwarding proxy,
    takes the least loaded machine, lowest index on ties, every time."""
    rng = random.Random(5)
    m, partition = 3, a1_partition(F(1, 2), F(7, 5))
    vector = tuple(rng.randint(1, 3) for _ in range(partition.levels))
    plan = A1Plans(m).get(partition, vector, exact=False)
    rows = [list(row) for row in plan.n_star]
    first, second = A1State(plan, partition), A1State(plan, partition)
    n_star, ell_star = fraction_plan_reference(partition, m, vector, exact=False)
    ref = FractionA1Lane(SimpleNamespace(m=m, partition=partition, n_star=n_star,
                                         ell_star=ell_star))
    jobs = [partition.bounds[i] for i, c in enumerate(vector, 1) for _ in range(c + 2)]
    rng.shuffle(jobs)
    jobs = [Job(t, p) for t, p in enumerate(jobs + [partition.bounds[0]] * 4, 1)]
    for job in jobs:
        assert step(first, job) == ref.propose(job)
        ref.record(job, ref.propose(job))
    assert first._loads is not None  # the fallback placed some job
    assert [list(row) for row in plan.n_star] == rows
    fresh = A1State(plan, partition)
    for job in reversed(jobs):
        job = Job(len(jobs) + 1 - job.index, job.p)
        assert step(second, job) == step(fresh, job)
    assert second.loads == fresh.loads

    zero = A1Plans(m).get(partition, (0,) * partition.levels)
    lane = Forward(A1State(zero, partition, least_loaded=True))
    loads = [F(0)] * m
    for t in range(1, 13):
        p = partition.bounds[0] * F(rng.randint(1, 6), 6)
        machine = lane.propose(Job(t, p))
        assert machine == min(range(m), key=lambda j: (loads[j], j)) + 1
        lane.record(Job(t, p), machine)
        loads[machine - 1] += p
