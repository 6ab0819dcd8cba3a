import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsched.a1 import a1_family
from parsched.core import Job, JobSequence
from parsched.harness import (
    a1_full_factory,
    a1_targeted_factory,
    gen_planted,
    run_algorithm,
)
from parsched.oracle import opt_exact
from parsched.wrapper import (
    AStar,
    GuessLane,
    WrapperParams,
    astar_init,
    astar_params,
    check_failure,
    run_guess_once,
)


def test_params_examples():
    p = astar_params(F(4, 3), F(1))
    assert p.eps_g == F(1, 4) and p.h == 10
    q = astar_params(F(1), F(1))
    assert q.eps_g == F(1, 3) and q.h == 7
    composed = astar_params(F(4, 3), F(1, 2))  # inner slack halves the step
    assert composed.eps_g == F(1, 8)


def test_initial_guesses_are_geometric():
    params = astar_params(F(1), F(1))  # eps_g = 1/3
    factory = a1_targeted_factory(JobSequence.from_sizes(2, [2, 1]), F(1))
    state = astar_init(factory, params, 2, F(2))
    gammas = [g.gamma for g in state.groups]
    assert gammas[0] == 2
    assert all(b == a * F(4, 3) for a, b in zip(gammas, gammas[1:]))
    three = astar_params(F(4, 3), F(1))
    st3 = astar_init(a1_targeted_factory(JobSequence.from_sizes(2, [2]), F(1)), three, 2, F(2))
    assert [g.gamma for g in st3.groups][:3] == [F(2), F(5, 2), F(25, 8)]


def test_check_failure_conditions():
    # Bounds violations: guess below the largest job or below average load.
    assert check_failure(1, F(0), F(2), F(1), F(2), 2, F(1)) == "iii"
    assert check_failure(1, F(0), F(1, 2), F(1), F(3), 2, F(1)) == "iii"
    # Overload: the proposed machine would pass rho * gamma.
    assert check_failure(1, F(1), F(1, 2), F(1), F(3, 2), 2, F(5, 4)) == "ii"
    # No rule from the inner scheduler.
    assert check_failure(None, F(0), F(1, 2), F(1), F(1, 2), 2, F(1)) == "i"
    assert check_failure(1, F(0), F(1, 2), F(1), F(1), 2, F(1)) is None


def test_survivor_exists_when_guess_covers_optimum():
    """With a guess at or above the optimum, some full-family lane
    finishes without failing, and its loads stay within rho * guess."""
    rho = F(2)  # census family at accuracy 1 claims 1 + eps = 2
    for seed in range(4):
        seq = gen_planted(2, counts=2, denom=12, seed=seed)
        for gamma in (F(1), F(3, 2)):
            lanes = a1_family(F(1), 2, gamma).lanes()
            failed, reasons, schedules = run_guess_once(lanes, seq, gamma, rho)
            live = [s for f, s in zip(failed, schedules) if not f]
            assert live, "expected a surviving lane"
            assert min(s.makespan() for s in live) <= rho * gamma


def test_all_lanes_fail_when_guess_below_max_job():
    # A job above the top class bound has no rule at all: reason "i".
    seq = JobSequence.from_sizes(2, [F(1, 4), F(2)])
    lanes = a1_family(F(1), 2, F(1, 4)).lanes()
    failed, reasons, _ = run_guess_once(lanes, seq, F(1, 4), F(2))
    assert all(failed)
    assert set(reasons) == {"i"}
    # A job that still classifies but exceeds the guess trips the bounds.
    seq2 = JobSequence.from_sizes(2, [F(1, 4), F(9, 32)])
    lanes2 = a1_family(F(1), 2, F(1, 4)).lanes()
    failed2, reasons2, _ = run_guess_once(lanes2, seq2, F(1, 4), F(2))
    assert all(failed2)
    assert set(reasons2) == {"iii"}


def test_cascade_reset_on_giant_job():
    """A job above every guess fails all groups by the bound condition
    and re-seeds all guesses above it."""
    params = astar_params(F(1), F(1))
    seq = JobSequence.from_sizes(2, [F(1, 100), F(100)])
    factory = a1_targeted_factory(seq, F(1))
    state = AStar(params, 2, factory, check=True)
    state.step(seq.jobs[0])
    assert state.adjustments == 0
    state.step(seq.jobs[1])
    assert state.adjustments == params.h  # every guess was re-seeded
    assert state.smallest_gamma() >= F(100) * (1 + params.eps_g)
    best = state.finish()
    assert best.makespan() <= (F(1) + 1) * opt_exact(seq)


def test_empty_sequence_yields_empty_schedule():
    params = astar_params(F(1), F(1))
    state = AStar(params, 3, a1_targeted_factory(JobSequence.from_sizes(3, []), F(1)))
    schedule = state.finish()
    assert schedule.makespan() == 0 and schedule.n_jobs() == 0


def test_wrapper_tracks_arrival_order():
    params = astar_params(F(1), F(1))
    state = AStar(params, 2, a1_targeted_factory(JobSequence.from_sizes(2, [1, 1]), F(1)))
    state.step(Job(1, F(1)))
    with pytest.raises(ValueError):
        state.step(Job(3, F(1)))


def test_wrapper_deterministic():
    seq = gen_planted(3, counts=(1, 3), denom=24, seed=9)
    runs = []
    for _ in range(2):
        result = run_algorithm("a1star", seq, epsilon=F(1), check=True)
        runs.append((result.makespan, result.best_label, result.adjustments, result.gamma1))
    assert runs[0] == runs[1]


def test_full_family_inside_wrapper():
    """Wrapping the whole census family (not just the targeted lane)
    keeps the end-to-end bound on a small machine count."""
    seq = gen_planted(2, counts=2, denom=8, seed=2)
    params = astar_params(F(2), F(1))  # census at accuracy 1 claims ratio 2
    state = AStar(params, 2, a1_full_factory(F(1), 2), check=True)
    best = state.run(seq)
    assert best.makespan() <= (F(2) + 1) * 1
    assert state.lanes_per_guess == 25
    assert state.smallest_guess_has_live_lane()


@pytest.mark.parametrize("seed", range(6))
def test_wrapper_guarantee_small_planted(seed):
    seq = gen_planted(random.Random(seed).randint(2, 6), counts=(1, 3),
                      denom=24, seed=seed, order=("shuffle", "largest_first")[seed % 2])
    result = run_algorithm("a1star", seq, epsilon=F(1), check=True)
    assert result.ratio <= 2
    assert result.gamma1 <= (1 + F(1, 9)) * 1
    assert result.live_lane


def test_wrapper_guarantee_oracle_checked_random():
    rng = random.Random(123)
    for _ in range(10):
        m = rng.randint(2, 4)
        n = rng.randint(1, 10)
        sizes = [F(rng.randint(1, 24), rng.choice([4, 6, 8, 12])) for _ in range(n)]
        seq = JobSequence.from_sizes(m, sizes)
        opt = opt_exact(seq)
        result = run_algorithm("a1star", seq, epsilon=F(1), check=True)
        assert result.makespan <= 2 * opt
        assert result.gamma1 <= (1 + F(1, 9)) * opt
        assert result.live_lane


def test_trace_records_failures_and_adjustments():
    events = []
    params = astar_params(F(1), F(1))
    seq = JobSequence.from_sizes(2, [F(1, 8), F(4)])
    state = AStar(params, 2, a1_targeted_factory(seq, F(1)), trace=events.append)
    for job in seq:
        state.step(job)
    kinds = {e["event"] for e in events}
    assert kinds == {"init", "fail", "adjust"}
    reasons = {e["reason"] for e in events if e["event"] == "fail"}
    assert reasons <= {"i", "ii", "iii"} and reasons


def test_wrapper_with_configuration_lanes():
    """Above the machine threshold the dispatching factory hands the
    wrapper configuration lanes; the generic invariants still hold."""
    from parsched.a2 import a3_dispatch
    from parsched.harness import a3_targeted_factory

    m = 256
    assert a3_dispatch(F(1), m, F(1)).kind == "a2"
    counts = [1] * 250 + [3] * 6
    seq = gen_planted(m, counts=counts, denom=8, seed=11)
    rho = F(4, 3) + 1  # the dispatched family's claimed ratio at accuracy 1
    params = astar_params(rho, F(1))
    state = AStar(params, m, a3_targeted_factory(seq, F(1)), check=True)
    best = state.run(seq)
    assert best.makespan() <= (rho + 1) * 1
    assert state.smallest_gamma() <= (1 + params.eps_g) * 1
    assert state.smallest_guess_has_live_lane()


def test_single_guess_wrapper():
    params = WrapperParams(F(2), F(1), F(1, 6), 1)  # hand-built h=1
    seq = gen_planted(2, counts=2, denom=6, seed=1)
    state = AStar(params, 2, a1_targeted_factory(seq, F(1)), check=True)
    state.step(seq.jobs[0])
    assert state.smallest_gamma() == seq.jobs[0].p  # single guess starts at p1
    for job in seq.jobs[1:]:
        state.step(job)
    assert state.finish().n_jobs() == len(seq)


@given(rng=st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_bind_picks_least_loaded_unbound_machine(rng):
    """Across epochs, with machines pre-bound the way an adjustment binds
    the job it restarts on, every bind takes the unbound physical machine
    of least (load, index), as a scan of all machines does."""
    m = rng.randint(1, 12)
    lane = GuessLane(m, label=0)
    t = 0
    for epoch in range(rng.randint(1, 5)):
        if epoch:
            lane.reset_epoch(None)
            for _ in range(rng.randint(0, 2)):
                v, phys = rng.randrange(m), rng.randrange(m)
                if v not in lane.binding and phys not in lane.bound_physical:
                    lane.binding[v] = phys
                    lane.bound_physical.add(phys)
        for _ in range(rng.randint(0, 3 * m)):
            v = rng.randrange(m)
            if v not in lane.binding:
                free = [pj for pj in range(m) if pj not in lane.bound_physical]
                expected = min(free, key=lambda pj: (lane.physical.load(pj + 1), pj))
            else:
                expected = lane.binding[v]
            t += 1
            assert lane.commit(Job(t, F(rng.randint(1, 3), 2)), v) == expected


def test_a3star_with_configuration_lanes_end_to_end(monkeypatch):
    """At m=1024 the inner accuracy 1/2 clears the configuration family's
    machine threshold, so run_algorithm drives A2State lanes."""
    from parsched.a2 import A2State

    recorded = []
    record = A2State.record

    def counting_record(self, job, machine):
        recorded.append(machine)
        record(self, job, machine)

    monkeypatch.setattr(A2State, "record", counting_record)
    seq = gen_planted(1024, counts=(1, 2), denom=24, seed=3)
    result = run_algorithm("a3star", seq, epsilon=F(1), check=True)
    assert recorded
    assert result.makespan <= F(7, 3)
    assert result.live_lane
    assert result.lanes == 37


@given(rng=st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_least_virtual_matches_scan(rng):
    """The least loaded virtual machine, whose heap a lane builds only at
    its first failure, equals a scan over (load, index) after every job:
    across failures, adjustments that reset epochs and pre-bind the job
    they restart on, and lanes asked early or not at all."""
    m = rng.randint(1, 3)
    sizes = sorted(F(rng.randint(1, 24), 24) * rng.choice([1, 1, 4]) for _ in range(rng.randint(1, 20)))
    if rng.random() < 0.5:
        rng.shuffle(sizes)
    seq = JobSequence.from_sizes(m, sizes)
    # Whole families: single lanes fail while their guess lives on.
    state = AStar(astar_params(F(1), F(1)), m, a1_full_factory(F(1), m))
    for job in seq:
        state.step(job)
        for group in state.groups:
            for lane in group.lanes:
                if lane.failed or rng.random() < 0.2:
                    scan = min(range(m), key=lambda v: (lane.virtual_loads[v], v))
                    assert lane.least_virtual() == scan
