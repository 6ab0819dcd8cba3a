"""Acceptance suite: every performance bound checked exactly, no tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  All comparisons are exact rational comparisons; a bound
that was going to hold with slack still has to hold on the nose.
The configuration-family full sweep simulates each distinct core layout
once and copies its result to every lane that shares it.
"""

import itertools
import random
from fractions import Fraction as F

from parsched import fullsim
from parsched.a1 import A1Plan, A1State, a1_family, a1_family_size, a1_partition, a1_true_vector
from parsched.a2 import (
    A2State,
    a2_class_counts,
    a2_config_from_u,
    a2_params,
    a2_valid_u,
    u_to_lane_index,
)
from parsched.adversary import (
    RandomScheduler,
    StackScheduler,
    lb1_run,
    lb2_run,
    lb2_universe,
)
from parsched.core import JobSequence, LaneRunner, select_best
from parsched.harness import compose, gen_planted, run_algorithm
from parsched.oracle import ListScheduler, opt_exact, MultisetInstance
from parsched.rational import ceil_log

from helpers import a2_is_valid, brute_force_opt, multiset_sequence, opt_multiset, step

ORDERS = ("shuffle", "largest_first", "smallest_first", "interleave")


def _line(num, verdict, detail):
    print(f"[acceptance] criterion {num}: {verdict} — {detail}")


def _planted(m, seed, denom=24, counts=(1, 4), n_cap=40):
    counts = (counts[0], min(counts[1], max(1, n_cap // m)))
    return gen_planted(m, counts=counts, denom=denom, seed=seed,
                       order=ORDERS[seed % len(ORDERS)])


def test_criterion_1_census_family_guarantee():
    """Targeted census lane stays within (1+eps) of the optimum."""
    eps, T = F(1), F(1)
    bound = (1 + eps) * T
    plan_cache = {}
    runs = 0
    try:
        partition = a1_partition(eps, T)
        for m in range(2, 9):
            for k in range(200):
                seq = _planted(m, seed=1000 * m + k)
                assert len(seq) <= 40
                vector = a1_true_vector(seq.jobs, partition, m)
                plan = plan_cache.get((m, vector))
                if plan is None:
                    plan = A1Plan.build(partition, m, vector)
                    plan_cache[(m, vector)] = plan
                lane = A1State(plan, partition)
                for job in seq:
                    assert step(lane, job) is not None
                assert max(lane.loads) <= bound, (m, k)
                runs += 1
        # Full-mode spot check: the whole family's pick obeys the bound.
        spot = 0
        for m in range(2, 6):
            family = a1_family(eps, m, T, lane_cap=441)
            for k in range(10):
                seq = _planted(m, seed=77_000 + 10 * m + k)
                schedules = []
                for lane in family.lanes():
                    runner = LaneRunner(lane, label=lane.label)
                    runner.run(seq.jobs)
                    schedules.append(runner.schedule)
                assert select_best(schedules).makespan() <= bound
                spot += 1
    except AssertionError:
        _line(1, "FAIL", "census-family guarantee violated")
        raise
    _line(1, "PASS", f"{runs} targeted runs (m=2..8) and {spot} full-family runs, makespan <= 2 exactly")


def test_criterion_2_census_family_size():
    """Full census family cardinality matches the closed form exactly."""
    checked = []
    try:
        for eps in (F(1), F(2, 3)):
            eps_prime = eps / 2
            levels = ceil_log(1 / eps_prime, 1 + eps_prime)
            for m in range(2, 7):
                expected = (int(F(2 * m) / eps) + 1) ** levels
                family = a1_family(eps, m, F(1))
                assert family.size == expected == a1_family_size(eps, m)
                checked.append(expected)
    except AssertionError:
        _line(2, "FAIL", "family size mismatch")
        raise
    _line(2, "PASS", f"10 (eps, m) pairs, sizes {min(checked)}..{max(checked)}")


# Shared by criteria 3 and 4: the structural check runs inside every lane.
_c3_state = {}


def _criterion_3_runs():
    if _c3_state:
        return _c3_state
    eps, T, m = F(1), F(1), 256
    bound = F(7, 3)
    params = a2_params(eps, m, T)
    violations = 0
    targeted = 0
    for k in range(50):
        denom = (6, 8, 12, 24, 48)[k % 5]
        seq = gen_planted(m, counts=(1, 3), denom=denom, seed=3000 + k,
                          order=ORDERS[k % 4])
        counts = a2_class_counts(params, seq.jobs)
        u = a2_valid_u(params, counts)
        config = a2_config_from_u(params, u)
        assert a2_is_valid(params, config, counts)
        lane_idx = u_to_lane_index(params, u)
        makespan, viol = fullsim.a2_lane_makespan(eps, m, T, seq.sizes(), lane_idx)
        violations += viol
        assert makespan <= bound, (k, makespan)
        targeted += 1
        if k < 3:  # exact-arithmetic reference on a few instances
            lane = A2State(config)
            for job in seq:
                step(lane, job)
            assert max(lane.loads) == makespan
            violations += lane.fill_violations
    full_seq = gen_planted(m, counts=2, denom=24, seed=4242)
    assert len(full_seq) <= 600
    sweep = fullsim.a2_full_sweep(eps, m, T, full_seq.sizes())
    assert sweep.lane_count == 226_981
    best_lane, best_makespan = sweep.best()
    violations += sweep.fill_violations
    _c3_state.update(
        targeted=targeted, best=best_makespan, best_lane=best_lane,
        violations=violations, lanes=sweep.lane_count,
        bound=bound,
    )
    return _c3_state


def test_criterion_3_configuration_family_guarantee():
    try:
        state = _criterion_3_runs()
        assert state["best"] <= state["bound"]
    except AssertionError:
        _line(3, "FAIL", "configuration-family guarantee violated")
        raise
    _line(3, "PASS", f"{state['targeted']} targeted runs and one full sweep of "
          f"{state['lanes']} lanes, best {state['best']} <= 7/3")


def test_criterion_4_fill_line_property():
    try:
        state = _criterion_3_runs()
        assert state["violations"] == 0
    except AssertionError:
        _line(4, "FAIL", "a lane held two under-filled small-load machines")
        raise
    _line(4, "PASS", "zero fill-line violations across every lane and step of criterion-3 runs")


def test_criterion_5_sparsification():
    rng = random.Random(5)
    census_checks = 0
    try:
        pairs = 0
        while pairs < 500:
            den = rng.randint(1, 64)
            num = rng.randint(1, den)
            eps = F(num, den)
            params_probe = a2_params(eps, 2, F(1))
            threshold = params_probe.threshold()
            m = int(-(-threshold // 1)) + rng.randint(0, 500)
            params = a2_params(eps, m, F(1))
            assert params.kappa * params.m0 >= m, (eps, m)
            pairs += 1
        params256 = a2_params(F(1), 256, F(1))
        levels = params256.levels
        for k in range(500):
            denom = (6, 8, 12, 24, 48)[k % 5]
            seq = gen_planted(256, counts=(1, 3), denom=denom, seed=50_000 + k,
                              order=ORDERS[k % 4])
            counts = a2_class_counts(params256, seq.jobs)
            # Packing bound for any census whose sequence has optimum <= T.
            assert (sum(counts[:levels]) + 1) // 2 + sum(counts[levels:]) <= 256
            u = a2_valid_u(params256, counts)
            assert a2_is_valid(params256, a2_config_from_u(params256, u), counts)
            census_checks += 1
    except AssertionError:
        _line(5, "FAIL", "sparsification property violated")
        raise
    _line(5, "PASS", f"kappa*m0 >= m on 500 (eps, m) pairs; canonical guess valid on {census_checks} censuses")


def test_criterion_6_wrapper_guarantee():
    eps = F(1)
    eps_g1 = F(1, 9)  # guess step of the wrapped census family at eps=1
    planted_runs = random_runs = 0
    try:
        comp = compose("a1star", eps, 4)
        assert comp.wrapper.h == ceil_log(F(19), F(10, 9)) == 28
        assert comp.total_lanes == 28 * a1_family_size(F(1, 2), 4)
        for k in range(200):
            m = 2 + k % 7
            seq = _planted(m, seed=60_000 + k, denom=(8, 12, 24, 48)[k % 4])
            result = run_algorithm("a1star", seq, epsilon=eps, check=True)
            assert result.ratio <= 2, (k, result.ratio)
            assert result.gamma1 <= (1 + eps_g1) * 1
            assert result.live_lane
            planted_runs += 1
        rng = random.Random(66)
        for k in range(100):
            m = rng.randint(2, 4)
            n = rng.randint(1, 14)
            sizes = [F(rng.randint(1, 32), rng.choice([2, 4, 8, 16])) for _ in range(n)]
            seq = JobSequence.from_sizes(m, sizes)
            opt = opt_exact(seq)
            result = run_algorithm("a1star", seq, epsilon=eps, check=True)
            assert result.makespan <= 2 * opt
            assert result.gamma1 <= (1 + eps_g1) * opt
            assert result.live_lane
            random_runs += 1
        rho3 = F(4, 3) + F(1, 2)
        eps_g3 = (eps / 2) / (3 * rho3)
        a3_runs = 0
        for k in range(8):
            seq = gen_planted(256, counts=(1, 3), denom=(6, 8, 12, 24)[k % 4],
                              seed=70_000 + k, order=ORDERS[k % 4])
            result = run_algorithm("a3star", seq, epsilon=eps, check=True)
            assert result.ratio <= F(7, 3), (k, result.ratio)
            assert result.gamma1 <= (1 + eps_g3) * 1
            assert result.live_lane
            a3_runs += 1
    except AssertionError:
        _line(6, "FAIL", "wrapper guarantee violated")
        raise
    _line(6, "PASS", f"{planted_runs} planted + {random_runs} oracle-checked runs <= 2; "
          f"{a3_runs} runs at m=256 <= 7/3; smallest guess and live lane checked every run")


def test_criterion_7_oracle_agreement():
    rng = random.Random(7)
    try:
        for _ in range(1000):
            n = rng.randint(1, 10)
            m = rng.randint(1, 4)
            sizes = [F(rng.randint(1, 24), rng.choice([1, 2, 3, 4, 6, 8])) for _ in range(n)]
            seq = JobSequence.from_sizes(m, sizes)
            assert opt_exact(seq) == brute_force_opt(seq)
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
            ms = opt_multiset(MultisetInstance(tuple(zip(sizes, counts)), m))
            expanded = multiset_sequence(ms)
            if len(expanded):
                assert ms.makespan() == opt_exact(expanded)
    except AssertionError:
        _line(7, "FAIL", "oracle disagreement")
        raise
    _line(7, "PASS", "1000 instances vs m^n enumeration; 200 multiset instances vs expanded search")


def test_criterion_8_pair_profile_adversary():
    try:
        for m in range(3, 13):
            k = m // 3
            base = list(range(1, m + 1))
            victims = [ListScheduler(m, perm=base[i:] + base[:i]) for i in range(k)]
            report = lb1_run(m, victims)
            assert report.forced_makespan >= F(4, 3), m
            assert report.opt == 1
            assert report.opt_witness.makespan() == 1
            assert len(report.opt_witness.assignment) == len(report.sigma)
    except AssertionError:
        _line(8, "FAIL", "pair-profile adversary missed the bound")
        raise
    _line(8, "PASS", "m=3..12 with floor(m/3) list lanes all forced to >= 4/3, witness optimum exactly 1")


def test_criterion_9_vector_profile_adversary():
    try:
        for m in (4, 5, 6, 8):
            for victim in (ListScheduler(m), StackScheduler(m, 1), RandomScheduler(m, seed=m)):
                report = lb2_run(m, F(1, 4), [victim])
                assert report.forced_makespan >= F(5, 4), (m, type(victim).__name__)
                assert report.opt == 1
                assert report.opt_witness.makespan() == 1
        for m_even in (4, 6, 8):
            direct = [
                v for v in itertools.product(range(m_even + 1), repeat=3)
                if sum(v) == m_even and v[1] + 4 * v[2] == m_even
            ]
            assert sorted(lb2_universe(m_even, 1)) == sorted(direct)
    except AssertionError:
        _line(9, "FAIL", "vector-profile adversary missed the bound")
        raise
    _line(9, "PASS", "m in {4,5,6,8} single-lane victims forced to >= 5/4; profile universes match enumeration")


def test_criterion_10_parameter_identities():
    rng = random.Random(10)
    try:
        for _ in range(50):
            den = rng.randint(1, 64)
            eps = F(rng.randint(1, den), den)
            T = F(rng.randint(1, 8), rng.randint(1, 8))
            p = a2_params(eps, 32, T)
            e = p.eps_prime
            assert p.a[0] == (F(1, 3) + 2 * e) * T
            assert p.b[p.levels - 2] == (F(1, 2) + e) * T
            assert p.b[p.levels - 1] == (F(2, 3) + 4 * e) * T
            bounds = (p.small_max,) + p.class_bounds
            assert all(lo < hi for lo, hi in zip(bounds, bounds[1:]))
            assert bounds[-1] == (1 + 2 * e) * T
    except AssertionError:
        _line(10, "FAIL", "parameter identities broken")
        raise
    _line(10, "PASS", "50 random accuracies: band endpoints match the closed forms exactly")
