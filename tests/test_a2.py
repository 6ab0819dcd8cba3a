import math
from bisect import bisect_left
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsched.a2 import (
    A2Rule,
    A2State,
    TargetConfiguration,
    a2_class_counts,
    a2_config_from_u,
    a2_family_size,
    a2_is_valid,
    a2_params,
    a2_rule_thresholds,
    a2_valid_u,
    a3_dispatch,
    lane_index_to_u,
    u_to_lane_index,
)
from parsched.core import Job
from parsched.fullsim import _prepare, a2_full_sweep
from parsched.harness import gen_planted

from helpers import check_offer_matches_propose, scale_jumps, step

EPS_ONE = a2_params(F(1), 256, F(1))


def test_params_eps_one():
    p = EPS_ONE
    assert (p.eps_prime, p.lam, p.levels) == (F(1, 8), 0, 2)
    assert p.a == (F(7, 12), F(5, 8))
    assert p.b == (F(5, 8), F(7, 6))
    assert p.n_classes == 3
    assert p.kappa == 60
    assert p.mu == 231
    assert p.m0 == 8
    assert a2_family_size(p) == 226_981


def test_params_scale_with_assumed_optimum():
    p2 = a2_params(F(1), 256, F(2))
    assert p2.a == tuple(2 * x for x in EPS_ONE.a)
    assert p2.b == tuple(2 * x for x in EPS_ONE.b)
    assert p2.load_cap == 2 * EPS_ONE.load_cap


rational_eps = st.fractions(min_value=F(1, 50), max_value=F(1))


@given(eps=rational_eps, T=st.fractions(min_value=F(1, 3), max_value=F(3)))
@settings(max_examples=100)
def test_parameter_identities(eps, T):
    p = a2_params(eps, 64, T)
    e = p.eps_prime
    assert p.a[0] == (F(1, 3) + 2 * e) * T
    assert p.b[p.levels - 2] == (F(1, 2) + e) * T
    assert p.b[p.levels - 1] == (F(2, 3) + 4 * e) * T
    # Class ranges tile (small_max, top] with no gaps or overlaps.
    bounds = p.class_bounds
    assert p.small_max == p.a[0]
    prev = p.small_max
    for b in bounds:
        assert b > prev
        prev = b
    assert bounds[-1] == (1 + 2 * e) * T
    for i in range(p.levels - 1):
        assert p.a[i + 1] == p.b[i]  # medium classes are contiguous
    assert 2 * p.a[0] == p.b[p.levels - 1]  # doubled band starts at the medium top


def test_classify_examples():
    p = EPS_ONE

    def census(size):
        return a2_class_counts(p, [Job(1, F(size))])

    assert census(F(7, 12)) == (0, 0, 0)  # the small bound stays small
    assert census(F(3, 5)) == (1, 0, 0)
    assert census(F(5, 8)) == (1, 0, 0)  # a class bound is in its class
    assert census(F(1)) == (0, 1, 0)
    assert census(F(6, 5)) == (0, 0, 1)
    assert census(F(5, 4)) == (0, 0, 1)  # the top bound
    with pytest.raises(ValueError, match="job of size 13/10 exceeds the top class bound"):
        census(F(13, 10))


def test_config_from_u():
    p = EPS_ONE
    assert a2_config_from_u(p, (0, 0, 0)).c == (0,) * 231
    c1 = a2_config_from_u(p, (1, 0, 0))
    assert c1.c[:8] == (1,) * 8 and set(c1.c[8:]) == {0}
    crowded = a2_config_from_u(p, (60, 60, 60))
    assert len(crowded.c) == 231 and set(crowded.c) == {1}  # truncation branch


def test_validity_conditions():
    p = EPS_ONE
    zero = a2_config_from_u(p, (0, 0, 0))
    assert a2_is_valid(p, zero, (0, 0, 0))
    demanding = TargetConfiguration(p, (1,) + (0,) * 230)
    assert not a2_is_valid(p, demanding, (1, 0, 0))  # needs two class-1 jobs
    assert a2_is_valid(p, a2_config_from_u(p, (1, 0, 0)), (16, 0, 0))


def test_valid_u_examples():
    p = EPS_ONE
    assert a2_valid_u(p, (0, 0, 0)) == (0, 0, 0)
    assert a2_valid_u(p, (16, 0, 0)) == (1, 0, 0)
    assert a2_valid_u(p, (0, 0, 9)) == (0, 0, 1)
    small_m = a2_params(F(1), 100, F(1))
    with pytest.raises(ValueError):
        a2_valid_u(small_m, (0, 0, 0))  # below the machine threshold


def test_lane_index_round_trip():
    p = EPS_ONE
    assert u_to_lane_index(p, (0, 0, 0)) == 0
    for u in [(0, 0, 1), (5, 17, 60), (60, 60, 60)]:
        assert lane_index_to_u(p, u_to_lane_index(p, u)) == u


def test_step_large_slots_then_reserve_best_fit():
    p = EPS_ONE
    cfg = TargetConfiguration(p, (2,) + (0,) * 230)
    lane = A2State(cfg)
    assert step(lane, Job(1, F(1))) == 1  # admissible class-2 machine
    assert step(lane, Job(2, F(1))) == 1  # medium classes hold two jobs
    assert step(lane, Job(3, F(1))) == 232  # full: overflow to first reserve machine
    assert step(lane, Job(4, F(1))) == 232  # best fit prefers the loaded machine (2 <= 7/3)
    assert step(lane, Job(5, F(9, 8))) == 233  # 2 + 9/8 > 7/3: next reserve machine


def test_step_small_rules():
    p = EPS_ONE
    cfg = TargetConfiguration(p, (1,) + (0,) * 230)
    lane = A2State(cfg)
    assert step(lane, Job(1, F(1, 12))) == 2  # fresh: zero machine has smaller target
    assert step(lane, Job(2, F(1, 12))) == 2  # now prefers the machine holding smalls
    big_small = F(7, 12)
    filler = A2State(TargetConfiguration(p, (0,) * 231))
    t = 1
    for _ in range(4):  # 4 * 7/12 = 7/3 exactly: the cap is inclusive
        assert step(filler, Job(t, big_small)) == 1
        t += 1
    assert step(filler, Job(t, big_small)) == 2


def test_dispatch_threshold():
    assert a3_dispatch(F(1), 100).kind == "a1"
    assert a3_dispatch(F(1), 100).eps == F(1, 3)
    assert a3_dispatch(F(1), 256).kind == "a2"
    assert a3_dispatch(F(1), 300).kind == "a2"


def test_family_enumeration_and_cap():
    params = a2_params(F(1), 12, F(1))
    lane = u_to_lane_index(params, (1, 2, 3))
    assert a2_full_sweep(F(1), 12, F(1), [], lanes=(lane, lane + 1)).lane_count == 1
    with pytest.raises(RuntimeError, match="above the cap 1000"):
        a2_full_sweep(F(1), 12, F(1), [], lane_cap=1000)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_fill_line_property_on_random_lanes(data):
    """At most one core machine holds small jobs below the fill line,
    on any lane and any job stream that classifies."""
    m = data.draw(st.integers(min_value=10, max_value=30))
    eps = data.draw(st.sampled_from([F(1), F(3, 4), F(1, 2)]))
    params = a2_params(eps, m, F(1))
    u = tuple(
        data.draw(st.integers(min_value=0, max_value=min(3, params.kappa)))
        for _ in range(params.n_classes)
    )
    lane = A2State(a2_config_from_u(params, u))
    n = data.draw(st.integers(min_value=1, max_value=40))
    for t in range(1, n + 1):
        p = data.draw(st.fractions(min_value=F(1, 50), max_value=F(1)))
        step(lane, Job(t, p))
    assert lane.fill_violations == 0


def test_valid_lane_guarantee_at_threshold():
    eps = F(1)
    for seed in range(5):
        seq = gen_planted(256, counts=(1, 3), denom=24, seed=seed)
        params = a2_params(eps, 256, F(1))
        counts = a2_class_counts(params, seq.jobs)
        u = a2_valid_u(params, counts)
        config = a2_config_from_u(params, u)
        assert a2_is_valid(params, config, counts)
        lane = A2State(config)
        for job in seq:
            assert step(lane, job) is not None
        assert max(lane.loads) <= params.load_cap
        assert lane.fill_violations == 0


class LinearScanRule:
    """Reference copy of the configuration-lane rule with plain linear scans.

    Small jobs scan every core machine; nothing is indexed.  Same
    constructor and choose/put contract as A2Rule.
    """

    def __init__(self, params, c, cap, fill, ell_minus_cls, ell_plus_cls):
        zero = cap - cap
        self.c, self.m, self.mu, self.cap, self.fill = c, params.m, params.mu, cap, fill
        self.loads = [zero] * params.m
        self.ell_s = [zero] * params.mu
        self.slots_left = [params.slots_of(cls) if cls else 0 for cls in c]
        self.ell_minus = [ell_minus_cls[cls] for cls in c]
        self.ell_plus = [ell_plus_cls[cls] for cls in c]
        self.fill_violations = 0

    def choose(self, cls, p):
        cap = self.cap
        if cls == 0:
            best = -1
            for j in range(self.mu):
                if self.ell_s[j] > 0:
                    if self.ell_plus[j] + self.ell_s[j] + p <= cap:
                        return j
                elif self.ell_plus[j] + p <= cap and (
                    best < 0 or self.ell_minus[j] < self.ell_minus[best]
                ):
                    best = j
            return max(best, 0)
        for j in range(self.mu):
            if self.c[j] == cls and self.slots_left[j] > 0:
                return j
        loads = self.loads
        if self.mu == self.m:
            return loads.index(min(loads))
        best = -1
        for j in range(self.mu, self.m):
            if loads[j] + p <= cap and (best < 0 or loads[j] > loads[best]):
                best = j
        return best if best >= 0 else self.mu

    def put(self, cls, p, j):
        if cls == 0:
            self.ell_s[j] += p
        elif j < self.mu and self.c[j] == cls and self.slots_left[j] > 0:
            self.slots_left[j] -= 1
        self.loads[j] += p
        open_below = sum(
            1 for k in range(self.mu)
            if self.ell_s[k] > 0 and self.ell_minus[k] + self.ell_s[k] < self.fill
        )
        if open_below > 1:
            self.fill_violations += 1


def drive_both(rule, ref, stream, rng, stray=0.25):
    """Step A2Rule and the reference side by side; every choice, load and
    violation count must agree.  A share ``stray`` of the jobs is put on a
    random machine (a core machine for small jobs), not the proposed one."""
    for cls, p in stream:
        j = ref.choose(cls, p)
        assert rule.choose(cls, p) == j
        if rng.random() < stray:
            j = rng.randrange(ref.mu if cls == 0 else ref.m)
        rule.put(cls, p, j)
        ref.put(cls, p, j)
        assert rule.loads == ref.loads
        assert rule.fill_violations == ref.fill_violations


@given(
    eps=st.sampled_from([F(1), F(3, 4), F(1, 2)]),
    # m <= 9 at eps=1 leaves no reserve machine; m >= 30 gives class blocks.
    m=st.integers(min_value=2, max_value=12) | st.integers(min_value=30, max_value=48),
    T=st.sampled_from([F(1), F(5, 4)]),
    scaled=st.booleans(),
    rng=st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_rule_matches_linear_scan_reference(eps, m, T, scaled, rng):
    """A2Rule's indexed small-job step proposes exactly what scanning every
    core machine proposes, over Fractions and over the sweep's scaled ints,
    on configuration blocks and on arbitrary class mixes."""
    params = a2_params(eps, m, T)
    edges = (0, params.small_max) + params.class_bounds
    jobs = []
    for _ in range(rng.randint(1, 80)):
        c = 0 if rng.random() < 0.6 else rng.randrange(len(edges) - 1)
        jobs.append(edges[c] + (edges[c + 1] - edges[c]) * rng.randint(1, 12) / 12)
    if rng.random() < 0.5:
        u = [rng.randint(0, min(3, params.kappa)) for _ in range(params.n_classes)]
        config = a2_config_from_u(params, u).c
    else:
        config = tuple(rng.randint(0, params.n_classes) for _ in range(params.mu))
    cls, _, jobs_s, emc, epc, cap, fill = _prepare(params, jobs)
    if not scaled:
        bounds = [params.ell_bounds_of(k) for k in range(params.n_classes + 1)]
        emc, epc = [lo for lo, _ in bounds], [hi for _, hi in bounds]
        cap, fill, jobs_s = params.load_cap, params.fill_line, jobs
    args = (params, config, cap, fill, emc, epc)
    drive_both(A2Rule(*args), LinearScanRule(*args), list(zip(cls, jobs_s)), rng)


@given(m=st.integers(min_value=2, max_value=40), rng=st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_rule_counts_fill_line_violations_like_reference(m, rng):
    """Hand-built bounds whose targeted maximum lies more than cap - fill
    above the targeted minimum keep every core machine under the cap
    below the fill line, so the second small job opens a second machine
    and is a violation.  A small job larger than the cap fits nowhere and
    goes to machine 0."""
    params = a2_params(F(1), m, F(1))
    base = rng.randint(2, 20)
    cap = 2 * base + rng.randint(0, 20)
    epc = [cap - rng.randint(base, 2 * base - 1) for _ in range(params.n_classes + 1)]
    gap = rng.randint(0, min(epc) - 1)  # cap - fill
    emc = [rng.randint(0, hi - gap - 1) for hi in epc]
    config = tuple(rng.randint(0, params.n_classes) for _ in range(params.mu))
    args = (params, config, cap, cap - gap, emc, epc)
    rule, ref = A2Rule(*args), LinearScanRule(*args)
    drive_both(rule, ref, [(0, base), (0, base)], rng, stray=0)
    assert rule.fill_violations == 1
    stream = [(rng.choice([0, 0, rng.randint(1, params.n_classes)]), rng.randint(1, cap))
              for _ in range(rng.randint(0, 60))]
    drive_both(rule, ref, stream, rng)
    assert rule.choose(0, cap + 1) == ref.choose(0, cap + 1) == 0
    drive_both(rule, ref, [(0, cap + 1)], rng, stray=0)


@given(
    eps=st.sampled_from([F(1), F(1, 2)]),
    m=st.integers(min_value=30, max_value=64),
    rng=st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_rule_small_runs_match_reference_across_rescale(eps, m, rng):
    """Long runs of small jobs drawn from a few sizes, which A2Rule mostly
    places from its first-fit hint and with its tree repaired late,
    propose exactly what the linear scan proposes: also across smaller
    sizes after larger ones, stray puts, machine openings, large jobs and
    a mid-stream rescale of the rule (the reference keeps unit scale)."""
    params = a2_params(eps, m, F(1))
    u = [rng.randint(0, min(3, params.kappa)) for _ in range(params.n_classes)]
    config = a2_config_from_u(params, u).c
    bounds = [params.ell_bounds_of(k) for k in range(params.n_classes + 1)]
    args = (params, config, params.load_cap, params.fill_line,
            [lo for lo, _ in bounds], [hi for _, hi in bounds])
    rule, ref = A2Rule(*args), LinearScanRule(*args)
    edges = (0, params.small_max) + params.class_bounds
    sizes = [params.small_max * F(rng.randint(1, 12), 12) for _ in range(rng.randint(1, 3))]
    k = 1
    for _ in range(rng.randint(1, 300)):
        if k == 1 and rng.random() < 0.01:
            k = rng.randint(2, 5)
            rule.rescale(k)
        if rng.random() < 0.9:
            cls, p = 0, rng.choice(sizes)
        else:
            cls = rng.randint(1, params.n_classes)
            p = edges[cls] + (edges[cls + 1] - edges[cls]) * rng.randint(1, 12) / 12
        j = ref.choose(cls, p)
        assert rule.choose(cls, p * k) == j
        if rng.random() < 0.05:
            j = rng.randrange(ref.mu if cls == 0 else ref.m)
        rule.put(cls, p * k, j)
        ref.put(cls, p, j)
        assert rule.loads == [x * k for x in ref.loads]
        assert rule.fill_violations == ref.fill_violations


@given(
    eps=st.sampled_from([F(1), F(3, 4), F(1, 2)]),
    m=st.integers(min_value=2, max_value=12) | st.integers(min_value=30, max_value=48),
    T=st.sampled_from([F(1), F(5, 4), F(7, 3)]),
    rng=st.randoms(use_true_random=False),
)
@settings(max_examples=200, deadline=None)
def test_integer_lane_matches_fraction_rule(eps, m, T, rng):
    """A2State over lane-local integers proposes, loads and counts fill-line
    violations exactly like A2Rule driven over Fractions and classified by
    bisecting the Fraction size bounds, including when sizes with fresh
    denominators (2..60) grow the scale mid-stream, on bounds, above the
    top bound, off-proposal and after proposing another job."""
    params = a2_params(eps, m, T)
    if rng.random() < 0.5:
        u = [rng.randint(0, min(3, params.kappa)) for _ in range(params.n_classes)]
        config = a2_config_from_u(params, u)
    else:
        config = TargetConfiguration(
            params, tuple(rng.randint(0, params.n_classes) for _ in range(params.mu)))
    bounds = [params.ell_bounds_of(k) for k in range(params.n_classes + 1)]
    ref = A2Rule(params, config.c, params.load_cap, params.fill_line,
                 [lo for lo, _ in bounds], [hi for _, hi in bounds])
    lane = A2State(config)
    top = params.bounds[-1]
    recorded = None
    for t in range(1, rng.randint(1, 80) + 1):
        if rng.random() < 0.2:
            p = rng.choice(params.bounds)
        else:
            den = rng.randint(2, 60)
            p = F(rng.randint(1, den), den) * top * F(rng.choice([1, 1, 1, 9]), 8)
        job = Job(t, p)
        cls = bisect_left(params.bounds, p)
        proposal = None if cls > params.n_classes else ref.choose(cls, p) + 1
        assert lane.propose(job) == proposal
        if proposal is None:
            with pytest.raises(ValueError):
                lane.record(job, 1)
            continue
        machine = proposal
        if rng.random() < 0.25:
            machine = rng.randint(1, params.mu if cls == 0 else m)
        if rng.random() < 0.1:  # a proposal nobody takes up, then record anyway
            lane.propose(Job(t, F(1, rng.randint(2, 60)) * top))
        lane.record(job, machine)
        ref.put(cls, p, machine - 1)
        recorded = job
        assert lane.loads == ref.loads
        assert lane.fill_violations == ref.fill_violations
    fresh = Job(100, params.small_max)
    for machine in (0, m + 1):
        with pytest.raises(ValueError):
            lane.record(fresh, machine)
    if recorded is not None:
        with pytest.raises(ValueError):
            lane.record(recorded, 1)
    assert lane.loads == ref.loads


@given(
    eps=st.sampled_from([F(1), F(3, 4), F(1, 2)]),
    m=st.integers(min_value=2, max_value=12) | st.integers(min_value=30, max_value=48),
    T=st.sampled_from([F(1), F(5, 4), F(7, 3)]),
    rng=st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_offer_at_driver_scale_matches_propose_record(eps, m, T, rng):
    """A configuration lane driven by offer(job, q, S), S the driver's
    growing lcm of the denominators seen, proposes and loads exactly like
    its twin driven by propose and record, whether S jumps by a factor the
    lane's scale already holds or by one it does not, on jobs of every
    class and above the top bound."""
    params = a2_params(eps, m, T)
    u = [rng.randint(0, min(3, params.kappa)) for _ in range(params.n_classes)]
    config = a2_config_from_u(params, u)
    sizes = scale_jumps(rng, params.scale(), params.bounds[-1], rng.randint(2, 60))
    check_offer_matches_propose(A2State(config), A2State(config), sizes)


def fraction_params_reference(eps, T):
    """Test-local copy of the configuration thresholds as they were built
    over Fractions at T: (size_bounds, cap, fill, ell_minus, ell_plus),
    the targeted load bounds indexed by class 0..2l-1."""
    e = eps / 8
    lam = 0
    while F(2) ** lam < F(3, 8) + 1 / (48 * e):
        lam += 1
    levels = lam + 2
    third, slope = F(1, 3), F(1, 12) + F(3, 2) * e
    a = [max(third - 2 * e + slope * F(2) ** (i - lam - 1), third + 2 * e) * T
         for i in range(1, levels + 1)]
    b = [(third - 2 * e + slope * F(2) ** (i - lam)) * T for i in range(1, levels + 1)]
    bases = [*range(levels), *range(levels - 1)]  # class i+1 and its doubled class
    return ((a[0], *b, *(2 * x for x in b[:-1])), (F(4, 3) + eps) * T, (1 + e) * T,
            [F(0), *(2 * a[i] for i in bases)], [F(0), *(2 * b[i] for i in bases)])


@given(
    eps=st.sampled_from([F(1), F(3, 4), F(1, 2), F(2, 5)]),
    m=st.integers(min_value=2, max_value=12) | st.integers(min_value=30, max_value=48),
    p1=st.builds(F, st.integers(1, 48), st.sampled_from([8, 12, 24, 48])),
    k=st.integers(0, 8),
    rng=st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_rebound_lane_matches_lane_built_at_the_guess(eps, m, p1, k, rng):
    """Parameters built once at T = 1 and rebound to a wrapper-shaped guess
    T = p1 * (1 + eps_g)**k have the thresholds the Fraction formulas give
    at T, and a configuration lane on them proposes, loads and counts
    fill-line violations exactly like A2Rule driven over those Fraction
    thresholds, including when jobs of fresh denominators grow the lane's
    scale mid-run."""
    unit = a2_params(eps, m)
    T = p1 * (1 + eps / (3 * (F(4, 3) + eps / 2))) ** k
    params = unit.at(T)
    assert params == a2_params(eps, m, T)
    bounds, cap, fill, ell_minus, ell_plus = fraction_params_reference(eps, T)
    assert (params.bounds, params.load_cap, params.fill_line) == (bounds, cap, fill)
    assert [params.ell_bounds_of(cls) for cls in range(params.n_classes + 1)] == list(
        zip(ell_minus, ell_plus))
    assert params.scale() == math.lcm(*(x.denominator for x in (*bounds, cap, fill, *ell_minus,
                                                                   *ell_plus)))
    scale = params.scale() * rng.choice([1, 7])
    ints = a2_rule_thresholds(params, scale)
    assert ints == ([x * scale for x in bounds], cap * scale, fill * scale,
                    [x * scale for x in ell_minus], [x * scale for x in ell_plus])
    with pytest.raises(ValueError, match="common denominator"):
        a2_rule_thresholds(params, params.scale() * 3 + 1)
    if rng.random() < 0.5:
        u = [rng.randint(0, min(3, params.kappa)) for _ in range(params.n_classes)]
        config = a2_config_from_u(params, u)
    else:
        config = TargetConfiguration(
            params, tuple(rng.randint(0, params.n_classes) for _ in range(params.mu)))
    ref = A2Rule(params, config.c, cap, fill, ell_minus, ell_plus)
    lane = A2State(config)
    for t in range(1, rng.randint(1, 60) + 1):
        den = rng.choice([2, 3, 5, 7, 11, 13]) ** rng.randint(1, 3)  # fresh denominators
        p = F(rng.randint(1, den), den) * bounds[-1] * F(rng.choice([1, 1, 1, 9]), 8)
        cls = bisect_left(bounds, p)
        proposal = None if cls > params.n_classes else ref.choose(cls, p) + 1
        assert lane.propose(Job(t, p)) == proposal
        if proposal is not None:
            lane.record(Job(t, p), proposal)
            ref.put(cls, p, proposal - 1)
            assert lane.loads == ref.loads
            assert lane.fill_violations == ref.fill_violations


@given(
    eps=st.sampled_from([F(1), F(1, 2)]),
    m=st.integers(min_value=2, max_value=12) | st.integers(min_value=30, max_value=80),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_rule_stacks_from_runs_match_per_machine_loop(eps, m, data):
    """A2Rule builds its per-class stacks and slot counts from the runs of
    equal classes in c; they equal the ones a loop over every core machine
    builds, for block layouts and for arbitrary c with runs of any length."""
    params = a2_params(eps, m)
    classes = st.integers(0, params.n_classes)
    runs = st.lists(st.tuples(classes, st.integers(1, params.mu)), min_size=1)
    c = data.draw(st.one_of(
        st.lists(classes, min_size=params.mu, max_size=params.mu),
        runs.map(lambda rs: [cls for cls, n in rs for _ in range(n)]),
    ))
    c = tuple((c * params.mu)[: params.mu])
    rule = A2Rule(params, c, *a2_rule_thresholds(params, params.unit)[1:])
    stacks = [[] for _ in range(params.n_classes + 1)]
    for j in range(params.mu - 1, -1, -1):
        stacks[c[j]].append(j)
    assert rule._unopened == stacks
    assert rule._admissible == stacks[1:]
    assert rule.slots_left == [params.slots_of(cls) if cls else 0 for cls in c]
    u = [data.draw(st.integers(0, params.kappa)) for _ in range(params.n_classes)]
    block = a2_config_from_u(params, u).c
    rule = A2Rule(params, block, *a2_rule_thresholds(params, params.unit)[1:])
    assert rule._unopened == [[j for j in range(params.mu - 1, -1, -1) if block[j] == cls]
                              for cls in range(params.n_classes + 1)]
