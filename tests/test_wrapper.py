import functools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsched.a1 import A1State, a1_family
from parsched.a2 import A2State
from parsched.adversary import StackScheduler
from parsched.core import Job, JobSequence, LeastLoaded, OnlineScheduler, select_best
from parsched.harness import (
    BATCH_ORDERS,
    a1_full_factory,
    a1_targeted_factory,
    a3_targeted_factory,
    compose,
    gen_planted,
    run_algorithm,
)
from parsched.oracle import opt_exact
from parsched.wrapper import (
    AStar,
    GuessLane,
    InvariantViolation,
    WrapperParams,
    astar_params,
)


# Test-side references and drivers.  The wrapper states the failure tests
# once, inside GuessLane.place; check_failure is the independent statement
# the eager reference lane applies.


def check_failure(
    proposal: Optional[int],
    virtual_load: int,
    q: int,
    prefix: int,
    caps: tuple[int, int, int],
) -> Optional[str]:
    """First failure condition that applies, or None.

    Every number is an integer in units of 1/S for one run-wide scale S:
    ``q`` is the job's size, ``prefix`` the sum of the whole sequence
    processed so far including the current job (never epoch-relative),
    ``virtual_load`` the epoch-relative load of the proposed machine, and
    ``caps`` the guess's ``(floor(gamma*S), floor(gamma*m*S),
    floor(rho*gamma*S))``.  Since q, prefix and the load are integers,
    ``q > floor(gamma*S)`` is exactly ``gamma < p``, and likewise for the
    average-load and overload tests.
    """
    if proposal is None:
        return "i"
    gamma_cap, mean_cap, load_cap = caps
    if q > gamma_cap or prefix > mean_cap:
        return "iii"
    if virtual_load + q > load_cap:
        return "ii"
    return None


def astar_init(inner_factory, params: WrapperParams, m: int, p1: F, check: bool = False) -> AStar:
    """Wrapper state with guesses seeded from the first job's size."""
    if p1 <= 0:
        raise ValueError("first job size must be positive")
    state = AStar(params, m, inner_factory, check=check)
    state._init(F(p1))
    state.t = 0
    return state


def run_guess_once(schedulers: Sequence[OnlineScheduler], seq: JobSequence, gamma: F, rho: F):
    """Run one fixed guess over a whole sequence, no adjustments.

    Returns (failed flags, fail reasons, schedules); failed lanes fall
    back to least-loaded placement.  This is the single-epoch view used
    to probe which lanes survive a given guess.
    """
    # One guess (h = 1) whose factory hands out the given schedulers.
    params = WrapperParams(F(rho), F(1), F(0), 1)
    state = AStar(params, seq.m, lambda T, start_t: schedulers)
    state._init(F(gamma))
    for job in seq:
        state._place(job, state._feed(job.p))
    lanes = state.groups[0].lanes
    return (
        [lane.failed for lane in lanes],
        [lane.fail_reason for lane in lanes],
        [lane.physical for lane in lanes],
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
    # Integers in units of 1/S; caps are (floor(gamma*S), floor(gamma*m*S), floor(rho*gamma*S)).
    # Bounds violations: guess below the largest job or below average load.
    # p=2, prefix=2, gamma=1, m=2, rho=1 at S=1.
    assert check_failure(1, 0, 2, 2, (1, 2, 1)) == "iii"
    # p=1/2, prefix=3, gamma=1, m=2, rho=1 at S=2.
    assert check_failure(1, 0, 1, 6, (2, 4, 2)) == "iii"
    # Overload: the proposed machine would pass rho * gamma.
    # load=1, p=1/2, prefix=3/2, gamma=1, m=2, rho=5/4 at S=4.
    assert check_failure(1, 4, 2, 6, (4, 8, 5)) == "ii"
    # No rule from the inner scheduler: p=1/2, prefix=1/2, gamma=1, m=2, rho=1 at S=2.
    assert check_failure(None, 0, 1, 1, (2, 4, 2)) == "i"
    # p=1/2, prefix=1, gamma=1, m=2, rho=1 at S=2.
    assert check_failure(1, 0, 1, 2, (2, 4, 2)) is None


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
    assert schedule.makespan() == 0 and len(schedule.assignment) == 0


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
    assert a3_dispatch(F(1), m).kind == "a2"
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
    assert len(state.finish().assignment) == len(seq)


class Scripted:
    """An inner lane that proposes whatever the test set ``next`` to."""

    def __init__(self, m, proposal=1):
        self.m = m
        self.next = proposal

    def propose(self, job):
        return self.next

    def record(self, job, machine):
        pass


@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=150, deadline=None)
def test_bind_picks_least_loaded_unbound_machine(seed):
    """Across epochs, each restarting on the job placed last, whose virtual
    machine is bound to that job's physical machine, every virtual machine
    gets, at its first use, the unbound physical machine of least (load,
    index), as a scan of all machines does, although the lane binds only
    when an epoch closes or its placements are asked for."""
    rng = random.Random(seed)
    m = rng.randint(1, 12)
    inner = Scripted(m)
    jobs = []  # the driver's job list, which the lane reads
    lane = GuessLane(m, 0, jobs)
    lane.reset_epoch(inner)
    loads = [0] * m  # the scan's physical loads
    expected = []  # the scan's physical machine of each job
    binding = {}
    t = 0
    for epoch in range(rng.randint(1, 5)):
        if epoch and t:
            # The fresh inner puts the last job on v, which is bound to
            # the job's physical machine.
            v = rng.randrange(m)
            inner.next = v + 1
            phys = binding[lane.epoch.vms[-1]]
            lane.restart(inner, job, q, 1)  # job is F(q): q at scale 1
            binding = {v: phys}
        for _ in range(rng.randint(0, 3 * m)):
            v = rng.randrange(m)
            if v not in binding:
                free = [pj for pj in range(m) if pj not in binding.values()]
                binding[v] = min(free, key=lambda pj: (loads[pj], pj))
            t += 1
            q = rng.randint(1, 3)
            job = Job(t, F(q))
            jobs.append(job)
            inner.next = v + 1
            assert lane.place(job, q, 1, False, 10**9) is None
            loads[binding[v]] += q
            expected.append(binding[v])
            if rng.random() < 0.3:  # ask mid-epoch: binding must not change
                assert lane.physical.assignment[t] - 1 == binding[v]
        assert lane.physical_loads == loads
        assert [lane.physical.assignment[k] - 1 for k in range(1, t + 1)] == expected


def test_a3star_with_configuration_lanes_end_to_end(monkeypatch):
    """At m=1024 the inner accuracy 1/2 clears the configuration family's
    machine threshold, so run_algorithm drives A2State lanes, which the
    wrapper steps by offer and commit."""
    recorded = []
    commit = A2State.commit

    def counting_commit(self, machine):
        recorded.append(machine)
        commit(self, machine)

    monkeypatch.setattr(A2State, "commit", counting_commit)
    seq = gen_planted(1024, counts=(1, 2), denom=24, seed=3)
    result = run_algorithm("a3star", seq, epsilon=F(1), check=True)
    assert recorded
    assert result.makespan <= F(7, 3)
    assert result.live_lane
    assert result.lanes == 37


@pytest.mark.parametrize("denom", [24, 48])
@pytest.mark.parametrize("k, order", list(enumerate(BATCH_ORDERS)))
def test_a3star_configuration_lanes_within_guarantee(denom, k, order):
    """Wrapped configuration lanes keep a3star's ratio 4/3 + eps/2 at eps=1,
    with the smallest guess within one step (eps_g = 1/11) of the optimum,
    a live lane there and no fill-line violation on any lane."""
    seq = gen_planted(1024, (1, 3), denom, seed=k, order=order)
    result = run_algorithm("a3star", seq, epsilon=F(1), check=True)
    assert result.ratio <= F(7, 3)
    assert result.gamma1 <= (1 + F(1, 11)) * 1
    assert result.live_lane is True
    assert result.fill_violations == 0


class CountingStack(StackScheduler):
    """Stacks every job on machine 1 and counts each recorded job as a
    fill-line violation."""

    def __init__(self, m):
        super().__init__(m)
        self.fill_violations = 0

    def record(self, job, machine):
        self.fill_violations += 1


def test_fill_violations_sum_over_lanes_and_epochs():
    params = astar_params(F(1), F(1))  # h = 7
    state = AStar(params, 1, lambda T, t: [CountingStack(1)])
    state.step(Job(1, F(1)))  # every guess follows its inner
    assert state.fill_violations() == params.h
    # Job 2 fails every lane and resets every guess: the retired inners'
    # counts stay, and each fresh inner records job 2.
    state.step(Job(2, F(10)))
    assert state.adjustments == params.h
    assert state.fill_violations() == 2 * params.h
    # An inner without a count, such as a proxy, adds nothing.
    proxied = AStar(params, 1, lambda T, t: [StackScheduler(1)])
    proxied.step(Job(1, F(1)))
    assert proxied.fill_violations() == 0


@pytest.mark.parametrize("method, value, message", [
    ("fill_violations", lambda self: 2, "fill-line property"),
    ("smallest_guess_has_live_lane", lambda self: False, "no live lane"),
])
def test_run_algorithm_checks_wrapped_lanes(monkeypatch, method, value, message):
    """run_algorithm reports the wrapped run's fill-line violations and live
    lane, and check=True raises on either going wrong."""
    seq = gen_planted(3, counts=2, denom=8, seed=2)
    result = run_algorithm("a1star", seq, epsilon=F(1), check=True)
    assert (result.fill_violations, result.live_lane) == (0, True)
    monkeypatch.setattr(AStar, method, value)
    result = run_algorithm("a1star", seq, epsilon=F(1))
    assert (result.fill_violations, result.live_lane) != (0, True)
    with pytest.raises(InvariantViolation, match=message):
        run_algorithm("a1star", seq, epsilon=F(1), check=True)


@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=40, deadline=None)
def test_least_virtual_matches_scan(seed):
    """The least loaded virtual machine, whose heap a lane builds only at
    its failure, equals a scan over (load, index) after every job: across
    failures, adjustments that reset epochs and pre-bind the job they
    restart on, and failed lanes asked at some jobs and not others.  Live
    lanes keep no heap."""
    rng = random.Random(seed)
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
                epoch = lane.epoch
                assert (epoch.least is not None) == lane.failed
                if lane.failed and rng.random() < 0.8:
                    assert epoch.least.loads is epoch.loads
                    scan = min(range(m), key=lambda v: (epoch.loads[v], v))
                    assert epoch.least.least() == scan


class EagerLane:
    """Test-local copy of the wrapper lane as it was before binding moved
    to the epoch close: it binds each virtual machine at its first use,
    keeps physical loads per job and its virtual loads in a LeastLoaded."""

    def __init__(self, m):
        self.m = m
        self.placed = []
        self.physical_loads = [0] * m
        self.reset_epoch(None)

    def reset_epoch(self, inner):
        self.inner = inner
        self.failed, self.fail_reason = False, None
        self.virtual = LeastLoaded([0] * self.m)
        self.binding, self.bound_physical, self._free = {}, set(), None

    def rescale(self, k):
        self.virtual.rescale(k)
        self.physical_loads = [x * k for x in self.physical_loads]

    def bind(self, v):
        if self._free is None:
            self._free = sorted(range(self.m), key=self.physical_loads.__getitem__)
            self._free.reverse()
        best = self._free.pop()
        while best in self.bound_physical:
            best = self._free.pop()
        self.binding[v] = best
        self.bound_physical.add(best)
        return best

    def commit(self, v, q):
        phys = self.binding.get(v)
        if phys is None:
            phys = self.bind(v)
        self.placed.append(phys)
        self.physical_loads[phys] += q
        self.virtual.add(v, q)

    def place(self, job, q, prefix, caps):
        if self.failed:
            self.commit(self.virtual.least(), q)
            return None
        proposal = self.inner.propose(job)
        load = 0 if proposal is None else self.virtual.loads[proposal - 1]
        reason = check_failure(proposal, load, q, prefix, caps)
        if reason is None:
            self.inner.record(job, proposal)
            self.commit(proposal - 1, q)
        else:
            self.failed, self.fail_reason = True, reason
            self.commit(self.virtual.least(), q)
        return reason

    def restart(self, inner, job, q):
        phys = self.placed[-1]
        self.reset_epoch(inner)
        proposal = inner.propose(job)
        if proposal is None:
            self.failed, self.fail_reason, v = True, "i", 0
        else:
            inner.record(job, proposal)
            v = proposal - 1
        self.binding[v] = phys
        self.bound_physical.add(phys)
        self.virtual.add(v, q)


class FlaggedLeast:
    """A flagged inner whose rule is the reference lane's least loaded
    virtual machine.  It ignores ``next``, which the test sets for
    scripted inners."""

    least_loaded = True

    def __init__(self, ref):
        self.ref = ref
        self.next = None

    def propose(self, job):
        return self.ref.virtual.least() + 1

    def record(self, job, machine):
        pass


def _check_lane_against_eager(seed, make_inner):
    rng = random.Random(seed)
    m = rng.randint(1, 8)
    lane, ref = GuessLane(m, 0, []), EagerLane(m)
    inner = make_inner(m, ref)
    lane.reset_epoch(inner)
    ref.reset_epoch(inner)
    t = 0
    for _ in range(rng.randint(1, 40)):
        if rng.random() < 0.1:
            k = rng.randint(2, 4)
            lane.rescale(k)
            lane.epoch.rescale(k)  # as AStar does: the lane rescales only its physical loads
            ref.rescale(k)
        t += 1
        q, prefix = rng.randint(1, 6), rng.randint(1, 60)
        caps = (rng.randint(0, 7), rng.randint(0, 70), rng.randint(0, 30))
        job = Job(t, F(q))
        lane.jobs.append(job)
        inner.next = None if rng.random() < 0.05 else rng.randint(1, m)
        bounds = q > caps[0] or prefix > caps[1]
        assert lane.place(job, q, 1, bounds, caps[2]) == ref.place(job, q, prefix, caps)
        assert (lane.failed, lane.fail_reason) == (ref.failed, ref.fail_reason)
        if rng.random() < 0.2:
            inner.next = None if rng.random() < 0.2 else rng.randint(1, m)
            lane.restart(inner, job, q, 1)
            ref.restart(inner, job, q)
            assert (lane.failed, lane.fail_reason) == (ref.failed, ref.fail_reason)
            # Closed: every job but the restart job, which opens the new epoch.
            assert lane.placed == ref.placed[:-1]
            assert lane.physical_loads == ref.physical_loads
    assert lane.physical_loads == ref.physical_loads
    assert [lane.physical.assignment[k] - 1 for k in range(1, t + 1)] == ref.placed
    lane.close_epoch()
    assert (lane.placed, lane.loads) == (ref.placed, ref.physical_loads)


@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=150, deadline=None)
def test_lane_matches_eager_reference(seed):
    """A lane that binds when its epoch closes puts every job on the
    physical machine, and fails for the reason, of the eager lane that
    binds at each first use; its placements and physical loads equal the
    eager lane's at every epoch close and at the end.  Proposals include
    no rule, the bounds and overload tests fire on chosen caps, and the
    scale grows mid-epoch."""
    _check_lane_against_eager(seed, lambda m, ref: Scripted(m))


@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=100, deadline=None)
def test_flagged_lane_matches_eager_reference(seed):
    """A lane over a flagged inner, which it never steps, places and fails
    as the eager lane that steps the inner and applies check_failure:
    bounds (iii) before overload (ii) on the least loaded machine, both
    firing on chosen caps, also on the same job."""
    _check_lane_against_eager(seed, lambda m, ref: FlaggedLeast(ref))


class StepOnly:
    """Forwards only propose and record, so the wrapper cannot see a flag."""

    def __init__(self, inner):
        self.inner = inner

    def propose(self, job):
        return self.inner.propose(job)

    def record(self, job, machine):
        self.inner.record(job, machine)


def _run_wrapped(algo, eps, seq, proxy):
    comp = compose(algo, eps, seq.m)
    if algo == "a1star":
        factory = a1_targeted_factory(seq, comp.inner_eps)
    else:
        factory = a3_targeted_factory(seq, eps / 2)
    made = factory if not proxy else (lambda T, t: [StepOnly(inner) for inner in factory(T, t)])
    events = []
    state = AStar(comp.wrapper, seq.m, made, check=True, trace=events.append)
    best = state.run(seq)
    lanes = [(lane.label, lane.failed, lane.fail_reason, lane.physical.assignment)
             for group in state.groups for lane in group.lanes]
    return (events, lanes, best.label, best.assignment, state.adjustments,
            state.smallest_gamma(), state.smallest_guess_has_live_lane())


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    m=st.sampled_from([2, 3, 4, 5, 6, 7, 8, 64]),
    algo_eps=st.sampled_from([("a1star", F(1)), ("a1star", F(1, 2)), ("a3star", F(1)),
                              ("a3star", F(1, 2))]),
    denom=st.sampled_from([6, 12, 24, 30, 60]),  # two or three primes: the scale grows mid-run
    order=st.sampled_from(BATCH_ORDERS),
)
@settings(max_examples=40, deadline=None)
def test_flagged_lanes_match_stepped_inners(seed, m, algo_eps, denom, order):
    """Census lanes the targeted factory flags ``least_loaded`` share one
    least-loaded schedule per epoch start and are never stepped; the run
    equals, event for event and machine for machine, the run whose inners
    hide the flag behind a proxy and are stepped job by job.  a3star at
    these m dispatches to census lanes at accuracy 1/3."""
    algo, eps = algo_eps
    seq = gen_planted(m, counts=(1, 3), denom=denom, seed=seed, order=order)
    assert _run_wrapped(algo, eps, seq, proxy=False) == _run_wrapped(algo, eps, seq, proxy=True)


@pytest.mark.parametrize("denom, order, seed", [
    (30, "shuffle", 1),  # 11 adjustments; S grows after one
    (60, "shuffle", 2),  # 5 adjustments; S grows after one
    (60, "interleave", 0),  # no adjustment; S grows in the first epoch
])
def test_configuration_lanes_match_stepped_inners(denom, order, seed):
    """At m=1024 a3star's inner accuracy 1/2 clears the configuration
    family's machine threshold, so its lanes are A2States, which the
    wrapper steps by offer and commit at the run-wide scale S.  The run
    equals, event for event and machine for machine, the run whose inners
    a proxy steps by propose and record, each lane at its own scale,
    also when S grows in the middle of an epoch."""
    seq = gen_planted(1024, counts=(1, 2), denom=denom, seed=seed, order=order)
    assert isinstance(a3_targeted_factory(seq, F(1, 2))(F(1), 1)[0], A2State)
    assert _run_wrapped("a3star", F(1), seq, proxy=False) == _run_wrapped("a3star", F(1), seq,
                                                                          proxy=True)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    m=st.sampled_from([2, 3, 4, 5, 8, 64]),
    algo_eps=st.sampled_from([("a1star", F(1)), ("a1star", F(1, 2)), ("a3star", F(1)),
                              ("a3star", F(1, 2))]),
    denom=st.sampled_from([6, 30, 60, 210]),  # two to four primes: the scale grows mid-run
    order=st.sampled_from(BATCH_ORDERS),
)
@settings(max_examples=40, deadline=None)
def test_restart_job_passes_its_new_guess_caps(seed, m, algo_eps, denom, order):
    """At every adjustment the job the reset guesses restart on passes each
    new guess's caps at the run-wide scale S after the job: q <= floor(gamma*S),
    prefix <= floor(gamma*m*S) and q <= floor(rho*gamma*S).  It opens the new
    epoch on an empty machine, so a restart, which places it as any job, can
    fail only by (i), and the reset lanes are live or failed by (i)."""
    algo, eps = algo_eps
    seq = gen_planted(m, counts=(1, 3), denom=denom, seed=seed, order=order)
    comp = compose(algo, eps, m)
    if algo == "a1star":
        factory = a1_targeted_factory(seq, comp.inner_eps)
    else:
        factory = a3_targeted_factory(seq, eps / 2)
    rho = comp.wrapper.rho
    events = []
    state = AStar(comp.wrapper, m, factory, check=True, trace=events.append)
    prefix = F(0)
    for job in seq:
        seen = len(events)
        state.step(job)
        prefix += job.p
        scale = state._scale
        assert scale % job.p.denominator == 0
        q, total = job.p * scale, prefix * scale
        adjusted = [e for e in events[seen:] if e["event"] == "adjust"]
        for event in adjusted:
            gamma = F(event["new"])
            assert q <= math.floor(gamma * scale)
            assert total <= math.floor(gamma * m * scale)
            assert q <= math.floor(rho * gamma * scale)
        reset = state.groups[len(state.groups) - len(adjusted):]
        assert [(g.var_id, str(g.gamma)) for g in reset] == [(e["var"], e["new"]) for e in adjusted]
        for group in reset:
            assert all(lane.fail_reason in (None, "i") for lane in group.lanes)


@pytest.mark.parametrize("proposal", [0, 4])
@pytest.mark.parametrize("restart", [False, True])
def test_out_of_range_proposal_raises(proposal, restart):
    """A proposal outside 1..m is the inner lane's error, not a placement
    (machine 0 must not land on machine m through a negative index), both
    in a step and when a fresh inner restarts on the job that failed its
    guess."""
    # Epoch-1 inners propose machine 1 if the out-of-range proposal is
    # to come at the restart.
    state = AStar(astar_params(F(1), F(1)), 3,
                  lambda T, t: [Scripted(3, 1 if restart and t == 1 else proposal)])
    if restart:
        state.step(Job(1, F(1)))  # guesses 1, 4/3, ..., all below job 2
    with pytest.raises(ValueError, match=rf"machine {proposal} out of range 1\.\.3"):
        state.step(Job(state.t + 1, F(100) if restart else F(1)))
    if restart:
        assert state.adjustments == 1  # raised in the first guess's restart


# A test-local copy of the wrapper over Fractions, before its loads, caps
# and prefix moved to integers: the reference for the integer AStar.
def fraction_check_failure(proposal, virtual_load, p, gamma, prefix_sum, m, rho):
    if proposal is None:
        return "i"
    if gamma < prefix_sum / m or gamma < p:
        return "iii"
    if virtual_load + p > rho * gamma:
        return "ii"
    return None


class FractionLane:
    def __init__(self, m, label, inner):
        self.m, self.label, self.inner = m, label, inner
        self.failed, self.fail_reason = False, None
        self.virtual_loads = [F(0)] * m
        self.binding, self.bound = {}, set()
        self.loads = [F(0)] * m
        self.assignment = {}

    def reset_epoch(self, inner):
        self.inner = inner
        self.failed, self.fail_reason = False, None
        self.virtual_loads = [F(0)] * self.m
        self.binding, self.bound = {}, set()

    def least_virtual(self):
        return min(range(self.m), key=lambda v: (self.virtual_loads[v], v))

    def commit(self, job, v):
        if v not in self.binding:
            free = [pj for pj in range(self.m) if pj not in self.bound]
            self.binding[v] = min(free, key=lambda pj: (self.loads[pj], pj))
            self.bound.add(self.binding[v])
        phys = self.binding[v]
        self.assignment[job.index] = phys
        self.loads[phys] += job.p
        self.virtual_loads[v] += job.p

    def place(self, job, gamma, prefix_sum, rho):
        if self.failed:
            self.commit(job, self.least_virtual())
            return None
        proposal = self.inner.propose(job)
        load = F(0) if proposal is None else self.virtual_loads[proposal - 1]
        reason = fraction_check_failure(proposal, load, job.p, gamma, prefix_sum, self.m, rho)
        if reason is None:
            self.inner.record(job, proposal)
            self.commit(job, proposal - 1)
        else:
            self.failed, self.fail_reason = True, reason
            self.commit(job, self.least_virtual())
        return reason


class FractionAStar:
    def __init__(self, params, m, factory):
        self.params, self.m, self.factory = params, m, factory
        self.groups = []  # [var_id, gamma, lanes]
        self.prefix_sum = F(0)
        self.t = 0
        self.events = []

    def step(self, job):
        self.t += 1
        step = 1 + self.params.eps_g
        if self.t == 1:
            gamma = job.p
            for var_id in range(self.params.h):
                inners = list(self.factory(gamma, 1))
                lanes = [FractionLane(self.m, var_id * len(inners) + k, inner)
                         for k, inner in enumerate(inners)]
                self.groups.append([var_id, gamma, lanes])
                gamma = gamma * step
        self.prefix_sum += job.p
        for var_id, gamma, lanes in self.groups:
            for lane in lanes:
                reason = lane.place(job, gamma, self.prefix_sum, self.params.rho)
                if reason is not None:
                    self.events.append(("fail", self.t, var_id, str(gamma), lane.label, reason))
        dead = [pos for pos, g in enumerate(self.groups) if all(lane.failed for lane in g[2])]
        if dead:
            new_gamma = max(self.groups[-1][1], job.p, self.prefix_sum / self.m)
            for group in self.groups[: max(dead) + 1]:
                new_gamma = new_gamma * step
                self.events.append(("adjust", self.t, group[0], str(group[1]), str(new_gamma)))
                group[1] = new_gamma
                for lane, inner in zip(group[2], self.factory(new_gamma, self.t)):
                    phys = lane.assignment[job.index]
                    lane.reset_epoch(inner)
                    proposal = inner.propose(job)
                    if proposal is None:
                        lane.failed, lane.fail_reason, v = True, "i", 0
                    else:
                        inner.record(job, proposal)
                        v = proposal - 1
                    lane.binding[v] = phys
                    lane.bound.add(phys)
                    lane.virtual_loads[v] = job.p
            self.groups.sort(key=lambda g: g[1])


def _family_and_stacker(m):
    """Factory of the whole census family at accuracy 1 plus a lane that
    stacks every job on machine 1 (so overloads are common); plans are
    built once per guess and shared by every caller, lane states are fresh."""

    @functools.lru_cache(maxsize=None)
    def plans(T):
        family = a1_family(F(1), m, T)
        return family.partition, [family.plan(v) for v in family.vectors]

    def make(T, start_t):
        partition, built = plans(T)
        return [A1State(plan, partition, label=k) for k, plan in enumerate(built)] + [StackScheduler(m)]

    return make


def _edge_size(rng, ref, scale):
    """A size on one of the failure tests' boundaries under the reference's
    current state, or rounded down to a whole number of units 1/lcm(scale, d)
    for the lcm ``scale`` of the sizes so far and a fresh d (so the job
    lands on the floor of a boundary that is not a whole number of units),
    or a random size with a fresh denominator in 2..60."""
    kind = rng.random()
    edge = None
    if ref.groups:
        _, gamma, lanes = rng.choice(ref.groups)
        if kind < 0.15:
            edge = gamma
        elif kind < 0.25:
            # The stacker's machine 1 reaches rho * gamma, or gets within
            # one job (at most gamma) of it.
            load = ref.params.rho * gamma - lanes[-1].virtual_loads[0]
            edge = next((p for p in (load, load - gamma) if 0 < p <= gamma), None)
        elif kind < 0.35:
            edge = ref.params.rho * gamma - rng.choice(lanes).virtual_loads[rng.randrange(ref.m)]
        elif kind < 0.45:
            edge = ref.m * gamma - ref.prefix_sum
    if edge is not None and edge > 0:
        unit = math.lcm(scale, rng.randint(2, 60))
        below = F(math.floor(edge * unit), unit)
        return below if below > 0 and rng.random() < 0.5 else edge
    den = rng.randint(2, 60)
    return F(rng.randint(1, 2 * den), den) * rng.choice([1, 1, 1, 8])


@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    m=st.sampled_from([1, 2, 3, 3]),  # the stacker overloads before the average only if m > rho
    rho=st.sampled_from([F(2), F(5, 2)]),
    eps_g=st.sampled_from([F(1, 6), F(2, 15), F(1, 3)]),
    h=st.integers(min_value=1, max_value=4),  # fewer guesses than astar_params gives, to keep it fast
)
@settings(max_examples=40, deadline=None)
def test_integer_wrapper_matches_fraction_reference(seed, m, rho, eps_g, h):
    """The integer AStar (run-wide scale, integer caps and loads) fails the
    same lanes for the same reasons, adjusts the same guesses to the same
    values and puts every job on the same physical machine, job by job, as
    the Fraction wrapper, and each guess's live-lane count stays the number
    of its lanes that have not failed.  Whole census families at small m make single
    lanes fail while their guess lives on, a stacking lane overloads,
    fresh denominators grow the scale mid-stream, and sizes land exactly on
    the guess, on rho * guess minus a virtual load and on prefix = m * guess."""
    rng = random.Random(seed)
    params = WrapperParams(rho, F(1), eps_g, h)
    factory = _family_and_stacker(m)
    events = []
    state = AStar(params, m, factory, check=True, trace=events.append)
    ref = FractionAStar(params, m, factory)
    scale = 1
    for t in range(1, rng.randint(1, 12) + 1):
        job = Job(t, _edge_size(rng, ref, scale))
        scale = math.lcm(scale, job.p.denominator)
        state.step(job)
        ref.step(job)
        got = [(e["event"], e["t"], e["var"], e["gamma"], e["lane"], e["reason"]) if e["event"] == "fail"
               else (e["event"], e["t"], e["var"], e["old"], e["new"])
               for e in events if e["event"] != "init"]
        assert got == ref.events
        # The same guesses in the same order: the wrapper rotates the reset
        # guesses to the end where the reference sorts.
        assert [(g.var_id, g.gamma) for g in state.groups] == [(g[0], g[1]) for g in ref.groups]
        assert state._scale == scale  # the lcm of the job denominators so far
        for group in state.groups:
            g = group.gamma
            assert group.caps == (math.floor(g * scale), math.floor(g * m * scale),
                                  math.floor(rho * g * scale))
            assert group.live == sum(not lane.failed for lane in group.lanes)
        assert state.adjustments == sum(e[0] == "adjust" for e in ref.events)
        for group, (_, _, ref_lanes) in zip(state.groups, ref.groups):
            for lane, ref_lane in zip(group.lanes, ref_lanes):
                assert (lane.failed, lane.fail_reason) == (ref_lane.failed, ref_lane.fail_reason)
                assert lane.physical.assignment[t] - 1 == ref_lane.assignment[t]
                assert lane.physical.loads() == tuple(ref_lane.loads)
    best = state.finish()
    lanes = [lane for g in ref.groups for lane in g[2]]
    assert (best.makespan(), best.label) == min((max(lane.loads), lane.label) for lane in lanes)
    # finish compares integer loads and builds one schedule: the one
    # select_best picks from every lane's schedule.
    chosen = select_best(lane.physical for group in state.groups for lane in group.lanes)
    assert (best.label, best.assignment) == (chosen.label, chosen.assignment)


@pytest.mark.parametrize("slack, raises", [(F(0), False), (F(1, 10**9), True)])
def test_guess_growth_check_is_exact(slack, raises):
    """check=True accepts an adjusted guess exactly (1+eps_g)**h times its
    old value and rejects one a hair below that."""
    params = astar_params(F(1), F(1))  # eps_g = 1/3, h = 7
    growth = (1 + params.eps_g) ** params.h
    state = AStar(params, 1, lambda T, t: [StackScheduler(1)], check=True)
    state.step(Job(1, F(1)))  # guesses 1, 4/3, ..., (4/3)**6, all below job 2
    # Job 2 (size 10, prefix 11) resets every guess, the first to 11 * 4/3.
    state.groups[0].gamma = F(44, 3) / growth + slack
    state._set_caps(state.groups[0])
    if raises:
        with pytest.raises(InvariantViolation, match="grew the guess too little"):
            state.step(Job(2, F(10)))
    else:
        state.step(Job(2, F(10)))
        assert state.groups[-1].gamma == F(44, 3) * (1 + params.eps_g) ** 6


_BROKEN_GUESSES = """
from fractions import Fraction as F
from parsched.adversary import StackScheduler
from parsched.core import Job
from parsched.wrapper import AStar, InvariantViolation, astar_params

if __debug__:
    raise SystemExit("expected to run under python -O")
state = AStar(astar_params(F(1), F(1)), 1, lambda T, t: [StackScheduler(1)], check=True)
state.step(Job(1, F(1)))  # guesses 1, 4/3, ..., (4/3)**6
if "{broken}" == "order":
    # The two largest guesses collapse onto one value; job 2 resets only
    # the guesses below it, which land above them and leave the two equal.
    state.groups[-2].gamma = state.groups[-1].gamma = F(1000)
else:
    # The smallest guess jumps so high that its adjustment cannot grow it enough.
    state.groups[0].gamma = F(10**6)
for group in state.groups:
    state._set_caps(group)  # the failure tests read the integer caps of each guess
try:
    state.step(Job(2, F(10)))
except InvariantViolation as exc:
    print("raised:", exc)
"""


@pytest.mark.parametrize("broken, message", [
    ("order", "guess order broken"),
    ("growth", "adjustment grew the guess too little"),
])
def test_guess_checks_survive_optimize_flag(broken, message):
    """The check=True guess-order and guess-growth checks raise
    InvariantViolation (an AssertionError) under python -O too."""
    assert issubclass(InvariantViolation, AssertionError)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-O", "-c", _BROKEN_GUESSES.format(broken=broken)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == f"raised: {message}"
