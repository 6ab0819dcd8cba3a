import math
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsched.a1 import (
    A1State, a1_count_cap, a1_family, a1_family_size, a1_partition, a1_true_vector,
)
from parsched.a2 import a2_class_counts, a2_config_from_u, a2_family_size, a2_params, a2_valid_u
from parsched import harness
from parsched.core import InvariantViolation, Job, JobSequence
from parsched.harness import (
    ORDERS,
    BATCH_ORDERS,
    CSV_COLUMNS,
    ExperimentConfig,
    _a1_suffix_census,
    _suffix_census,
    a1_targeted_factory,
    a3_targeted_factory,
    compose,
    gen_planted,
    gen_planted_with_witness,
    run_algorithm,
    run_batch,
)
from parsched.oracle import opt_exact
from parsched.rational import ceil_log

from helpers import gen_planted_reference


def test_generator_certificates():
    for seed in range(10):
        seq, witness = gen_planted_with_witness(4, counts=(1, 4), denom=24, seed=seed)
        assert seq.total() == 4
        assert seq.planted_opt == 1
        loads = {}
        for job, machine in zip(seq.jobs, witness):
            loads[machine] = loads.get(machine, F(0)) + job.p
        assert all(load == 1 for load in loads.values())
        assert len(loads) == 4
        assert opt_exact(seq) == 1


def test_generator_orders_and_edges():
    assert gen_planted(1, counts=1, denom=4).sizes() == [F(1)]
    biggest_first = gen_planted(3, counts=3, denom=12, seed=1, order="largest_first").sizes()
    assert biggest_first == sorted(biggest_first, reverse=True)
    smallest_first = gen_planted(3, counts=3, denom=12, seed=1, order="smallest_first").sizes()
    assert smallest_first == sorted(smallest_first)
    woven = gen_planted(2, counts=2, denom=8, seed=3, order="interleave")
    assert woven.total() == 2
    fixed = gen_planted(2, counts=[1, 3], denom=8, seed=0)
    assert len(fixed) == 4
    with pytest.raises(ValueError):
        gen_planted(2, counts=9, denom=8)  # nine jobs of >= 1/8 cannot sum to 1
    with pytest.raises(ValueError):
        gen_planted(2, counts=2, denom=8, order="sideways")
    with pytest.raises(ValueError, match="empty count range 3..1"):
        gen_planted_with_witness(2, counts=(3, 1))
    assert gen_planted(2, counts=2, denom=8, seed=4, verify_cap=10).planted_opt == 1


def test_generator_determinism():
    a = gen_planted(5, counts=(1, 3), denom=48, seed=42)
    b = gen_planted(5, counts=(1, 3), denom=48, seed=42)
    assert a.sizes() == b.sizes()
    c = gen_planted(5, counts=(1, 3), denom=48, seed=43)
    assert a.sizes() != c.sizes()


def _generated(gen, *args):
    """(sequence, witness) of a generator call, or the type of its error."""
    try:
        return gen(*args)
    except (ValueError, AssertionError) as exc:
        return type(exc)


@given(
    m=st.integers(1, 12),
    form=st.sampled_from(("int", "range", "per_machine")),
    data=st.data(),
    denom=st.integers(2, 60),
    min_num=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    order=st.sampled_from(ORDERS),
)
@settings(max_examples=300, deadline=None)
def test_generator_matches_fraction_reference(m, form, data, denom, min_num, seed, order):
    """The integer generator builds the sizes, Fraction for Fraction, and the
    witness of the Fraction one, and fails where it fails with the same
    error type; a count range that is infeasible for some draw is refused
    before any draw, whatever the seed."""
    counts_of = st.integers(0, 8)
    if form == "int":
        counts = data.draw(counts_of)
    elif form == "range":
        counts = (data.draw(st.integers(0, 6)), data.draw(st.integers(0, 8)))
    else:
        counts = data.draw(st.lists(counts_of, min_size=m, max_size=m))
    args = (m, counts, denom, seed, order, min_num)
    if form == "range" and counts[0] <= counts[1] and (counts[0] < 1 or counts[1] * min_num > denom):
        with pytest.raises(ValueError, match=re.escape("(--count-min..--count-max)")):
            gen_planted_with_witness(*args)
        return
    got = _generated(gen_planted_with_witness, *args)
    want = _generated(gen_planted_reference, *args)
    assert got == want
    if not isinstance(got, type):
        assert all(type(job.p) is F for job in got[0].jobs)


def test_generator_volume_check_reads_the_built_sizes(monkeypatch):
    """A job built with another size than its drawn numerator says breaks
    the volume, and the check sees it: it sums the sizes, not the draws."""
    def misbuilt(t, p):
        return Job(t, p + F(1, 97) if t == 1 else p)

    monkeypatch.setattr(harness, "Job", misbuilt)
    with pytest.raises(InvariantViolation, match="planted volume"):
        gen_planted(3, counts=2, denom=12, seed=5)


@pytest.mark.parametrize("counts, denom, min_num", [
    ((0, 3), 48, 1), ((-2, 1), 48, 1), ((1, 60), 48, 1), ((2, 7), 12, 2), ((1, 1), 4, 5),
])
def test_generator_refuses_infeasible_count_range_for_every_seed(counts, denom, min_num):
    for seed in range(8):
        with pytest.raises(ValueError, match=re.escape("(--count-min..--count-max)")):
            gen_planted(2, counts, denom, seed=seed, min_num=min_num)


def test_generator_feasible_count_range_keeps_its_draws():
    """The range check draws nothing: the full range 1..denom/min_num gives
    the reference's instance."""
    for seed in range(8):
        args = (5, (1, 12), 24, seed, "as_planted", 2)
        assert gen_planted_with_witness(*args) == gen_planted_reference(*args)


def test_compose_accounting():
    c = compose("a1star", F(1), 2)
    assert c.wrapper.rho == F(3, 2)
    assert c.wrapper.eps_g == F(1, 9)
    assert c.wrapper.h == ceil_log(F(19), F(10, 9)) == 28
    assert c.total_lanes == c.wrapper.h * a1_family_size(F(1, 2), 2)
    assert a1_family_size(F(1, 2), 2) == (4 * 2 + 1) ** 7

    c3 = compose("a3star", F(1), 256)
    assert c3.wrapper.rho == F(4, 3) + F(1, 2)
    assert c3.inner_algo == "a1" and c3.inner_eps == F(1, 3)
    assert c3.total_lanes == c3.wrapper.h * a1_family_size(F(1, 3), 256)

    big = compose("a3star", F(1), 2048)  # above the machine threshold
    assert big.inner_algo == "a2"
    assert big.total_lanes == big.wrapper.h * a2_family_size(a2_params(F(1, 2), 2048, F(1)))

    assert compose("list", F(1), 4).total_lanes == 1
    assert compose("a2", F(1), 256).total_lanes == 61**3
    with pytest.raises(ValueError):
        compose("a9", F(1), 4)


def test_run_algorithm_argument_checks():
    seq = gen_planted(2, counts=2, denom=8, seed=0)
    with pytest.raises(ValueError):
        run_algorithm("a1", seq, epsilon=F(1))  # missing assumed optimum
    with pytest.raises(ValueError):
        run_algorithm("a1", seq, assumed_opt=F(1))  # missing epsilon
    with pytest.raises(ValueError):
        run_algorithm("a1", seq, epsilon=F(1), assumed_opt=F(1), mode="sideways")


def test_a3_dispatches_by_machine_count():
    small = gen_planted(4, counts=2, denom=8, seed=1)
    r = run_algorithm("a3", small, epsilon=F(1), assumed_opt=F(1))
    assert r.algo == "a3"
    assert r.makespan <= F(4, 3) * 1  # census at 1/3 keeps ratio 4/3


def test_census_plans_fit_planted_instances_that_outgrew_the_optimum_search():
    """Two valid planted instances whose census plans once ran the exact
    optimum search past its node budget: a plain a3 run (census at accuracy
    1/3, ratio <= 4/3) and a wrapped a3star run (ratio <= 11/6)."""
    plain = gen_planted(256, (1, 3), 24, seed=0, order="shuffle")
    r = run_algorithm("a3", plain, epsilon=F(1, 2), assumed_opt=F(1), check=True)
    assert r.ratio <= F(4, 3)
    wrapped = gen_planted(1024, (1, 3), 48, seed=3, order="interleave")
    r = run_algorithm("a3star", wrapped, epsilon=F(1, 2), check=True)
    assert r.opt == 1 and r.ratio <= F(11, 6)


def test_run_batch_reports(tmp_path):
    jsonl = tmp_path / "report.jsonl"
    csv_path = tmp_path / "report.csv"
    config = ExperimentConfig(
        algo="a1star", epsilon=F(1), m=3, instances=4, seed=7,
        counts=(1, 3), denom=12, check=True,
        jsonl_path=str(jsonl), csv_path=str(csv_path),
    )
    rows = run_batch(config)
    assert len(rows) == 4
    assert all(F(r["ratio_num"], r["ratio_den"]) <= 2 for r in rows)
    header = csv_path.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    first_bytes = jsonl.read_bytes()
    run_batch(config)
    assert jsonl.read_bytes() == first_bytes  # canonical report is reproducible


def test_run_batch_uses_planted_opt_for_plain_algos(tmp_path):
    config = ExperimentConfig(algo="a1", epsilon=F(1), m=2, instances=2,
                              seed=1, counts=2, denom=8)
    rows = run_batch(config)
    assert all(row["opt"] == "1/1" for row in rows)


def test_run_batch_empty(tmp_path):
    jsonl = tmp_path / "empty.jsonl"
    csv_path = tmp_path / "empty.csv"
    config = ExperimentConfig(algo="list", epsilon=None, m=2, instances=0,
                              jsonl_path=str(jsonl), csv_path=str(csv_path))
    assert run_batch(config) == []
    assert jsonl.read_text() == ""
    assert csv_path.read_text().splitlines() == [",".join(CSV_COLUMNS)]


def per_job_counts(jobs, bounds):
    """Counts of classes 1..len(bounds)-1 under Fraction bounds, one job at
    a time, and the first size above the top bound (None if there is none);
    such sizes are not counted."""
    counts = [0] * (len(bounds) - 1)
    over = None
    for job in jobs:
        cls = next((i for i, b in enumerate(bounds) if job.p <= b), None)
        if cls is None:
            over = job.p if over is None else over
        elif cls:
            counts[cls - 1] += 1
    return counts, over


def per_job_a1_census(jobs, partition, m, T):
    """The census lane's count vector and doomed flag, one job at a time."""
    counts, over = per_job_counts(jobs, partition.bounds)
    total = sum((job.p for job in jobs), F(0))
    cap = a1_count_cap(m, partition.eps_prime)
    vector = tuple(min(c, cap) for c in counts)
    volume = sum((partition.bounds[i + 1] * c for i, c in enumerate(vector)), F(0))
    doomed = (over is not None or any(job.p > T for job in jobs) or total > m * T
              or max(counts) > cap or volume > m * (1 + partition.eps_prime) * T)
    return vector, doomed


def assert_true_counts(count, jobs, bounds, cap=None):
    """``count(jobs)`` against the per-job loop: the first job above the top
    bound raises, naming it; then the first count above ``cap``, if given."""
    counts, over = per_job_counts(jobs, bounds)
    if over is not None:
        with pytest.raises(ValueError, match=re.escape(f"job of size {over} exceeds the top class bound")):
            count(jobs)
    elif cap is not None and max(counts) > cap:
        i = next(i for i, c in enumerate(counts) if c > cap)
        with pytest.raises(ValueError, match=f"class {i + 1} count {counts[i]} exceeds cap {cap}"):
            count(jobs)
    else:
        assert count(jobs) == tuple(counts)


MIXED_DENOMS = (6, 7, 8, 10, 12, 24, 48)


@given(
    m=st.integers(min_value=1, max_value=8) | st.sampled_from([256, 300]),
    eps_g=st.sampled_from([F(1, 9), F(1, 15)]),
    k=st.integers(min_value=0, max_value=40),
    rng=st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_suffix_census_matches_per_job_loop(m, eps_g, k, rng):
    """Sorting each epoch's suffix once, in integers in units of 1/S, gives
    the per-job Fraction loop's class counts and doomed flag, for both
    targeted factories, at several epoch starts in any order; and so do the
    plain runs' a1_true_vector and a2_class_counts, or they raise as the
    loop says.

    T is shaped like the wrapper's guesses, p1 * (1+eps_g)**k.  Most sizes
    are multiples of 1/d for a mix of denominators d, so S (their lcm) is
    no single denominator and the integer edges floor(b*S) fall strictly
    between integers.  Some sit on either side of a class bound b, at
    floor(b*S0)/S0 or one unit above, for the lcm S0 of the drawn
    denominators (a multiple of S); the rest lie exactly on a class bound
    or on T."""
    den = rng.choice(MIXED_DENOMS)
    T = F(rng.randint(1, 2 * den), den) * (1 + eps_g) ** k
    partition = a1_partition(F(1, 3), T)  # the a3 factory's census accuracy
    params = a2_params(F(1), m, T)
    edges = [*partition.bounds, *params.bounds, T]
    dens = rng.sample(MIXED_DENOMS, rng.randint(2, 3))
    S0 = math.lcm(*dens)
    edge_share = rng.choice([0, 0.3])
    # Mostly at most T, many of them small, so each doomed test can decide alone.
    scale = [F(1, 8), F(1, 8), F(1), F(2)]

    def size():
        kind = rng.random()
        if kind < edge_share:
            return rng.choice(edges)
        if kind < edge_share + 0.2:
            b = rng.choice(edges)
            return F(max(1, math.floor(b * S0) + rng.randint(0, 1)), S0)
        d = rng.choice(dens)
        return F(math.ceil(F(rng.randint(1, 40), 40) * T * rng.choice(scale) * d), d)

    seq = JobSequence.from_sizes(m, [size() for _ in range(rng.randint(1, 40))])
    S, census = _suffix_census(seq)
    assert S == math.lcm(*(job.p.denominator for job in seq.jobs))
    cap = a1_count_cap(m, partition.eps_prime)
    a1_make = a1_targeted_factory(seq, F(1, 3))
    a3_make = a3_targeted_factory(seq, F(1))
    for start_t in [rng.randint(1, len(seq)) for _ in range(3)]:
        suffix = seq.jobs[start_t - 1:]
        sizes, total = census(start_t)
        assert sizes == sorted(job.p * S for job in suffix) and total == sum(sizes)
        vector, doomed = per_job_a1_census(suffix, partition, m, T)
        assert _a1_suffix_census(sizes, total, S, partition, m, cap) == (vector, doomed)
        counts, _ = per_job_counts(suffix, params.bounds)
        assert params.census(sizes, S) == counts
        assert_true_counts(lambda jobs: a1_true_vector(jobs, partition, m),
                           suffix, partition.bounds, cap)
        assert_true_counts(lambda jobs: a2_class_counts(params, jobs), suffix, params.bounds)
        assert a1_make(T, start_t)[0].plan.vector == vector
        if m < 256:  # below the configuration threshold a3 builds census lanes
            assert a3_make(T, start_t)[0].plan.vector == vector
            continue
        try:
            u = a2_valid_u(params, counts)
        except ValueError:
            continue  # the lane is allowed to fail; its fallback guess is not checked
        assert a3_make(T, start_t)[0].config == a2_config_from_u(params, u)


def test_true_counts_raise_like_per_job_loop():
    """The plain runs' counts name the first job above the top bound to
    arrive, not the largest, and check the census cap only after it."""
    partition = a1_partition(F(1), F(1))  # bounds 1/2, 3/4, 9/8
    cap = a1_count_cap(2, partition.eps_prime)
    assert cap == 4
    params = a2_params(F(1), 256, F(1))  # top bound 5/4
    for sizes in (
        ["3/5"] * 5,  # class 1 above its cap
        ["3/5"] * 5 + ["2", "3"],
        ["1/4", "13/10", "3", "1"],
        ["1", "5/4", "9/8", "7/5"],
    ):
        jobs = JobSequence.from_sizes(2, sizes).jobs
        assert_true_counts(lambda js: a1_true_vector(js, partition, 2), jobs, partition.bounds, cap)
        assert_true_counts(lambda js: a2_class_counts(params, js), jobs, params.bounds)


def test_flagged_census_lane_proposes_least_loaded_machine():
    """A lane the targeted factory flags least_loaded, stepped on its own
    over its epoch's suffix, proposes its least loaded machine, lowest index
    on ties, for every job.  No lane of a full family is flagged."""
    flagged = 0
    for seed, order in enumerate(BATCH_ORDERS * 2):
        seq = gen_planted(4, counts=(1, 4), denom=24, seed=seed, order=order)
        factory = a1_targeted_factory(seq, F(1))  # eps' = 1/2: small jobs are <= T/2
        for T in (F(1), F(2), F(4)):
            for start in range(1, len(seq) + 1):
                lane, = factory(T, start)
                if not lane.least_loaded:
                    continue
                flagged += 1
                loads = [F(0)] * seq.m
                for job in seq.jobs[start - 1:]:
                    machine = lane.propose(job)
                    assert machine == min(range(seq.m), key=lambda j: (loads[j], j)) + 1
                    lane.record(job, machine)
                    loads[machine - 1] += job.p
    assert flagged
    assert not any(lane.least_loaded for lane in a1_family(F(1), 2, F(1)).lanes())


@pytest.mark.parametrize("n, canonical", [(1025, (0, 0, 56)), (2000, (0, 0, 111))])
def test_a3_factory_falls_back_to_capped_canonical_u(n, canonical):
    """A census that no sequence of optimum <= T has still gets a lane: its
    canonical u with each entry capped at kappa.  At m = 1024, eps 1/2 and
    T = 1, jobs of 49/48 all fall in the top (doubled) class; 2,000 of them
    give a canonical u above kappa = 108, which only the cap keeps valid."""
    m, eps, T = 1024, F(1, 2), F(1)
    seq = JobSequence(m, [Job(t, F(49, 48)) for t in range(1, n + 1)])
    params = a2_params(eps, m, T)
    counts = a2_class_counts(params, seq.jobs)
    with pytest.raises(ValueError, match="census cannot belong"):
        a2_valid_u(params, counts)
    assert params.canonical_u(counts) == canonical and params.kappa == 108
    (lane,) = a3_targeted_factory(seq, eps)(T, 1)
    assert lane.config == a2_config_from_u(params, tuple(min(108, x) for x in canonical))
    assert lane.config.machine_counts() == (0, 0, 968)


@pytest.mark.parametrize("sizes, flagged", [
    (["1/4", "1/2"], True),  # small jobs only (at most eps'*T = 1/2), volume within m*T
    (["1/4", "3/4"], False),  # a job of class 1
    (["1/4", "2"], False),  # no large class counts it, but it is above T: doomed
    (["1/2"] * 5, False),  # small jobs only, but volume 5/2 above m*T: doomed
])
def test_targeted_factory_flags_only_small_suffixes_that_are_not_doomed(sizes, flagged):
    """At eps 1 and T = 1 the classes are (1/2, 3/4] and (3/4, 9/8]."""
    lane, = a1_targeted_factory(JobSequence.from_sizes(2, sizes), F(1))(F(1), 1)
    assert lane.least_loaded is flagged
    with pytest.raises(AttributeError):
        lane.least_loaded = not flagged
    if not any(lane.plan.vector):
        assert A1State(lane.plan, lane.partition, least_loaded=True).least_loaded
    else:
        with pytest.raises(ValueError, match="all-zero vector"):
            A1State(lane.plan, lane.partition, least_loaded=True)
