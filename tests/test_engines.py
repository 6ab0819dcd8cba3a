"""The integer sweep and the brute-force oracle against exact references."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsched import fullsim
from parsched._scaling import common_scale, scale_values
from parsched.a2 import (
    A2State,
    a2_config_from_u,
    a2_family_size,
    a2_params,
    lane_index_to_u,
    u_to_lane_index,
)
from parsched.core import Job, JobSequence
from parsched.harness import gen_planted
from parsched.oracle import opt_exact

from helpers import brute_force_opt, step


def random_jobs(rng, n, denom, T):
    return [F(rng.randint(1, denom), denom) * T for _ in range(n)]


def test_scaling_round_trip():
    values = [F(1, 3), F(5, 8), F(7)]
    scale = common_scale(values)
    assert scale == 24
    assert scale_values(values, scale) == [8, 15, 168]
    with pytest.raises(ValueError):
        scale_values([F(1, 5)], 24)


def test_sweep_matches_exact_reference():
    """The sweep's per-lane makespans equal those of stepping each lane's
    own A2State over Jobs."""
    rng = random.Random(11)
    m, eps, T = 24, F(1), F(1)
    params = a2_params(eps, m, T)
    jobs = random_jobs(rng, 40, 24, T)
    sweep = fullsim.a2_full_sweep(eps, m, T, jobs, lanes=(0, 50))
    for lane in (0, 13, 49):
        state = A2State(a2_config_from_u(params, lane_index_to_u(params, lane)))
        for t, p in enumerate(jobs, start=1):
            step(state, Job(t, p))
        assert max(state.loads) == sweep.makespan(lane)


@given(
    eps=st.sampled_from([F(1), F(3, 4), F(1, 2)]),
    # m0 >= 1, hence more than one layout, needs m >= 30 (eps=1) or m >= 38 (eps=3/4).
    m=st.integers(min_value=2, max_value=40) | st.integers(min_value=30, max_value=40),
    T=st.sampled_from([F(1), F(2), F(5, 4)]),
    rng=st.randoms(use_true_random=False),
)
@settings(max_examples=200, deadline=None)
def test_dedup_sweep_matches_per_lane_fraction_loop(eps, m, T, rng):
    """One simulation per distinct layout reproduces, lane by lane, the
    makespans and summed fill-line violations of stepping every lane's own
    A2State, including m <= 9 where no reserve machine exists at eps=1.
    Both sides run the integer A2Rule, so this checks the layout dedup;
    test_a2's differential tests check A2State against A2Rule over
    Fractions."""
    params = a2_params(eps, m, T)
    edges = (0, params.small_max) + params.class_bounds
    jobs = []
    for _ in range(rng.randint(1, 40)):
        c = rng.randrange(len(edges) - 1)  # every class, so every block can matter
        jobs.append(edges[c] + (edges[c + 1] - edges[c]) * rng.randint(1, 12) / 12)
    # Small leading digits keep the last class's block inside the core, so
    # neighbouring lanes differ in layout until it fills up.
    u = [rng.randint(0, min(3, params.kappa)) for _ in range(params.n_classes - 1)]
    lo = u_to_lane_index(params, u + [rng.randint(0, params.kappa)])
    hi = min(a2_family_size(params), lo + rng.randint(1, 12))
    makespans = []
    violations = 0
    for lane in range(lo, hi):
        state = A2State(a2_config_from_u(params, lane_index_to_u(params, lane)))
        for t, p in enumerate(jobs, start=1):
            step(state, Job(t, p))
        makespans.append(max(state.loads))
        violations += state.fill_violations
    sweep = fullsim.a2_full_sweep(eps, m, T, jobs, lanes=(lo, hi))
    assert [sweep.makespan(lane) for lane in range(lo, hi)] == makespans
    assert sweep.fill_violations == violations


def test_sweep_rejects_oversized_jobs():
    with pytest.raises(ValueError, match="exceeds the top class bound for T=1"):
        fullsim.a2_full_sweep(F(1), 16, F(1), [F(1, 3), F(2)], lanes=(0, 1))


@pytest.mark.parametrize("bad", [F(0), F(-1, 7)])
def test_sweep_rejects_nonpositive_jobs(bad):
    """A size of zero or less is an error, not a small job."""
    with pytest.raises(ValueError, match="must be positive"):
        fullsim.a2_full_sweep(F(1), 16, F(1), [F(1, 3), bad, F(1, 2)], lanes=(0, 1))


def test_brute_force_backends_agree():
    rng = random.Random(3)
    for _ in range(25):
        n, m = rng.randint(1, 8), rng.randint(1, 4)
        seq = JobSequence.from_sizes(m, random_jobs(rng, n, 12, F(1)))
        expected = opt_exact(seq)
        assert brute_force_opt(seq) == expected


def test_single_lane_helper_and_best():
    seq = gen_planted(16, counts=2, denom=12, seed=1)
    sweep = fullsim.a2_full_sweep(F(1), 16, F(1), seq.sizes(), lanes=(0, 20))
    lane, makespan = sweep.best()
    assert sweep.makespan(lane) == makespan
    single, _ = fullsim.a2_lane_makespan(F(1), 16, F(1), seq.sizes(), lane)
    assert single == makespan
