"""Experiment orchestration: instance generation, composition, batch runs.

Planted instances hide a perfect schedule: every machine's jobs sum to
exactly 1, so the total equals m and the optimum is provably 1 without
any search.  Compositions wire the known-optimum families into the
guess wrapper with the accuracy split used for the end-to-end bounds.

Targeted runs use hindsight (the full sequence) to pick the single lane
that the guarantees single out — the true census lane or the valid
configuration lane — instead of simulating the whole family.  A census
lane's plan is LPT when that stays within (1+eps')*T, else a fit at that
bound; when the hindsight census certifies that a guess is below the
suffix's optimum (volume overflow or a count above its ceiling), the
lane keeps LPT.  Such a lane may fail, and no asserted guarantee is
affected, because each concerns only guesses at or above the optimum.
"""

from __future__ import annotations

import csv
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence

from ._scaling import common_scale, scale_values
from .a1 import (
    A1Plans,
    A1State,
    ClassPartition,
    a1_count_cap,
    a1_family,
    a1_family_size,
    a1_partition,
    a1_true_vector,
)
from .a2 import (
    A2State,
    a2_class_counts,
    a2_config_from_u,
    a2_family_size,
    a2_params,
    a2_valid_u,
    a3_dispatch,
    u_to_lane_index,
)
from .core import InvariantViolation, Job, JobSequence, LaneRunner, default_lane_cap, select_best
from .fullsim import a2_full_sweep, a2_lane_makespan
from .oracle import list_schedule, opt_exact
from .rational import format_rational
from .wrapper import AStar, WrapperParams, astar_params

__all__ = [
    "gen_planted",
    "gen_planted_with_witness",
    "compose",
    "Composition",
    "RunResult",
    "run_algorithm",
    "a1_targeted_factory",
    "a3_targeted_factory",
    "a1_full_factory",
    "ExperimentConfig",
    "run_batch",
    "CSV_COLUMNS",
]

ORDERS = ("shuffle", "largest_first", "smallest_first", "interleave", "as_planted")
BATCH_ORDERS = ORDERS[:4]  # a batch's instances cycle through these arrival orders


def _composition_parts(rng: random.Random, total: int, parts: int, floor: int) -> list[int]:
    """Split total into `parts` integers, each >= floor."""
    rem = total - parts * floor
    cuts = sorted(rng.randint(0, rem) for _ in range(parts - 1))
    edges = [0] + cuts + [rem]
    return [floor + b - a for a, b in zip(edges, edges[1:])]


def gen_planted_with_witness(
    m: int,
    counts: int | tuple[int, int] | Sequence[int] = 2,
    denom: int = 48,
    seed: int = 0,
    order: str = "shuffle",
    min_num: int = 1,
    verify_cap: int = 0,
) -> tuple[JobSequence, list[int]]:
    """Planted instance plus the hiding assignment (machine per job).

    Per machine, `counts` jobs are drawn as multiples of 1/denom summing
    to exactly 1.  The returned witness lists, per arrival position, the
    machine of the hidden makespan-1 schedule.

    The draws, the arrival order and the witness work on integer
    numerators over denom; each job gets its one Fraction when it is
    built, and the volume check sums the built sizes as integers over
    their common denominator.  One count, or a count range, is checked
    before anything is drawn, so whether it is feasible does not depend
    on the seed; one count c fails as the range c..c.
    """
    if denom < 2:
        raise ValueError("denominator must be at least 2")
    if min_num < 1:
        raise ValueError(f"least numerator (--min-num) must be at least 1, got {min_num}")
    if verify_cap < 0:
        raise ValueError(f"verification cap (--verify-cap) must be nonnegative, got {verify_cap}")
    if order not in ORDERS:
        raise ValueError(f"unknown arrival order {order!r}")
    rng = random.Random(seed)
    if isinstance(counts, int) or isinstance(counts, tuple) and len(counts) == 2:
        lo, hi = (counts, counts) if isinstance(counts, int) else counts
        if lo > hi:
            raise ValueError(f"empty count range {lo}..{hi}: the least count exceeds the largest")
        if lo < 1 or hi * min_num > denom:
            raise ValueError(f"count range {lo}..{hi} (--count-min..--count-max) must lie in "
                             f"1..{denom // min_num} for jobs of >= {min_num}/{denom}")
        per_machine = ([lo] * m if isinstance(counts, int)
                       else [rng.randint(lo, hi) for _ in range(m)])
    else:
        per_machine = [int(c) for c in counts]
        if len(per_machine) != m:
            raise ValueError("per-machine counts must have length m")
    items: list[tuple[int, int]] = []  # (numerator over denom, machine)
    for machine, c in enumerate(per_machine, start=1):
        if c < 1 or c * min_num > denom:
            raise ValueError(f"infeasible profile: {c} jobs of >= {min_num}/{denom} on one machine")
        for num in _composition_parts(rng, denom, c, min_num):
            items.append((num, machine))
    if order == "shuffle":
        rng.shuffle(items)
    elif order == "largest_first":
        items.sort(key=lambda it: -it[0])
    elif order == "smallest_first":
        items.sort(key=lambda it: it[0])
    elif order == "interleave":
        items.sort(key=lambda it: -it[0])
        woven = []
        lo, hi = 0, len(items) - 1
        while lo <= hi:
            woven.append(items[lo])
            if lo != hi:
                woven.append(items[hi])
            lo += 1
            hi -= 1
        items = woven
    jobs = [Job(t, Fraction(num, denom)) for t, (num, _) in enumerate(items, start=1)]
    seq = JobSequence(m, jobs, planted_opt=Fraction(1))
    witness = [machine for _, machine in items]
    ps = [job.p for job in jobs]
    scale = common_scale(ps)
    if sum(scale_values(ps, scale)) != m * scale:
        raise InvariantViolation("planted volume must equal the machine count")
    if verify_cap and len(seq) <= verify_cap and opt_exact(seq) != 1:
        raise InvariantViolation("planted optimum failed verification")
    return seq, witness


def gen_planted(
    m: int,
    counts: int | tuple[int, int] | Sequence[int] = 2,
    denom: int = 48,
    seed: int = 0,
    order: str = "shuffle",
    min_num: int = 1,
    verify_cap: int = 0,
) -> JobSequence:
    seq, _ = gen_planted_with_witness(m, counts, denom, seed, order, min_num, verify_cap)
    return seq


# ---------------------------------------------------------------------------
# Targeted lane factories (hindsight shortcuts for wrapper runs).


def _suffix_census(seq: JobSequence) -> tuple[int, Callable[[int], tuple[list[int], int]]]:
    """(S, census) for the lcm S of the job denominators: census maps start_t
    to the sizes of jobs start_t.. in units of 1/S, sorted, and their total.
    Every guess of an epoch asks for the same start_t, so one answer is kept."""
    ps = [job.p for job in seq.jobs]
    scale = common_scale(ps)
    scaled = scale_values(ps, scale)

    @lru_cache(maxsize=1)
    def census(start_t: int) -> tuple[list[int], int]:
        sizes = sorted(scaled[start_t - 1 :])
        return sizes, sum(sizes)

    return scale, census


def _a1_suffix_census(
    sizes: list[int], total: int, scale: int, partition: ClassPartition, m: int, cap: int
) -> tuple[tuple[int, ...], bool]:
    """(count vector capped at cap = floor(m/eps'), doomed) of a sorted
    suffix in units of 1/scale.

    Doomed: the suffix certifies OPT > T by a job above T (which covers
    jobs above the top bound, itself >= T) or a total above m*T.  A
    count above its cap, or a rounded volume above m*(1+eps')*T, implies
    such a total: class sizes exceed eps'*T and round up by at most 1+eps'.
    """
    T = partition.T
    num, den = T.numerator * scale, T.denominator
    vector = tuple(partition.census(sizes, scale, cap))
    return vector, (bool(sizes) and sizes[-1] * den > num) or total * den > m * num


def a1_targeted_factory(seq: JobSequence, eps_inner: Fraction):
    """Single-lane factory following the true census of each epoch suffix.

    The class ladder and the plans do not depend on the guess: the ladder
    is built once per factory and rebound to each guess, and each
    (vector, exact) plan is built once and shared by every guess and epoch.
    A suffix with no large job that is not doomed holds only jobs of at
    most eps'*T, so its lane is flagged ``least_loaded``."""
    scale, census = _suffix_census(seq)
    unit = a1_partition(eps_inner)
    cap = a1_count_cap(seq.m, unit.eps_prime)
    plans = A1Plans(seq.m)

    def make(T: Fraction, start_t: int):
        partition = unit.at(T)
        vector, doomed = _a1_suffix_census(*census(start_t), scale, partition, seq.m, cap)
        plan = plans.get(partition, vector, exact=not doomed)
        return [A1State(plan, partition, least_loaded=not (doomed or any(vector)))]

    return make


def a3_targeted_factory(seq: JobSequence, eps_inner: Fraction):
    """Dispatching factory: censuses at accuracy 1/3 below the machine
    threshold, valid configurations above it.  The configuration
    parameters are built once per factory and rebound to each guess."""
    choice = a3_dispatch(eps_inner, seq.m)
    if choice.kind == "a1":
        return a1_targeted_factory(seq, Fraction(1, 3))
    scale, census = _suffix_census(seq)
    unit = a2_params(eps_inner, seq.m)

    def make(T: Fraction, start_t: int):
        params = unit.at(T)
        counts = params.census(census(start_t)[0], scale)
        try:
            u = a2_valid_u(params, counts)
        except ValueError:
            # Census inconsistent with OPT <= T: the lane may fail.
            u = tuple(min(params.kappa, x) for x in params.canonical_u(counts))
        config = a2_config_from_u(params, u)
        return [A2State(config)]

    return make


def a1_full_factory(eps_inner: Fraction, m: int, lane_cap: Optional[int] = None):
    """Whole-family factory; only sensible when the family is small.  The
    family is built once, at T = 1, and rebound to each guess with its
    one set of plans."""
    family = a1_family(eps_inner, m, Fraction(1), lane_cap=lane_cap)

    def make(T: Fraction, start_t: int):
        return family.at(T).lanes()

    return make


# ---------------------------------------------------------------------------
# Composition and single runs.


@dataclass(frozen=True)
class Composition:
    """How an algorithm id unfolds into lanes, with full-family accounting."""

    algo: str
    epsilon: Fraction
    m: int
    inner_algo: Optional[str]
    inner_eps: Optional[Fraction]
    wrapper: Optional[WrapperParams]
    total_lanes: int


def _family_accounting(algo: str, eps: Fraction, m: int) -> tuple[str, Fraction, int]:
    if algo == "a1":
        return "a1", eps, a1_family_size(eps, m)
    if algo == "a2":
        return "a2", eps, a2_family_size(a2_params(eps, m))
    if algo == "a3":
        choice = a3_dispatch(eps, m)
        if choice.kind == "a1":
            return "a1", choice.eps, a1_family_size(choice.eps, m)
        return "a2", eps, a2_family_size(a2_params(eps, m))
    raise ValueError(f"unknown inner algorithm {algo!r}")


def compose(algo: str, epsilon: Fraction, m: int) -> Composition:
    """Resolve an algorithm id into wrapper parameters and lane accounting."""
    eps = Fraction(epsilon)
    if algo == "list":
        return Composition(algo, eps, m, None, None, None, 1)
    if algo in ("a1", "a2", "a3"):
        inner, inner_eps, lanes = _family_accounting(algo, eps, m)
        return Composition(algo, eps, m, inner, inner_eps, None, lanes)
    if algo in ("a1star", "a3star"):
        if not 0 < eps <= 1:  # the inner accuracy eps/2 alone would allow eps up to 2
            raise ValueError("eps must lie in (0, 1]")
        inner_eps = eps / 2
        if algo == "a1star":
            rho = 1 + eps / 2
            inner, lane_eps, lanes = _family_accounting("a1", inner_eps, m)
        else:
            rho = Fraction(4, 3) + eps / 2
            inner, lane_eps, lanes = _family_accounting("a3", inner_eps, m)
        params = astar_params(rho, eps / 2)
        return Composition(algo, eps, m, inner, lane_eps, params, params.h * lanes)
    raise ValueError(f"unknown algorithm {algo!r}")


@dataclass
class RunResult:
    algo: str
    epsilon: Optional[Fraction]
    m: int
    n: int
    lanes: int  # lanes actually simulated
    makespan: Fraction
    best_label: int
    adjustments: int = 0
    opt: Optional[Fraction] = None
    gamma1: Optional[Fraction] = None
    live_lane: Optional[bool] = None
    fill_violations: int = 0

    @property
    def ratio(self) -> Optional[Fraction]:
        if self.opt in (None, 0):
            return None
        return self.makespan / self.opt


def _run_plain_a1(seq, eps, T, mode, check, lane_cap) -> RunResult:
    if mode == "targeted":
        partition = a1_partition(eps, T)
        vector = a1_true_vector(seq.jobs, partition, seq.m)
        family = a1_family(eps, seq.m, T, vector=vector)
    else:
        family = a1_family(eps, seq.m, T, lane_cap=lane_cap)
    schedules = []
    for lane in family.lanes():
        runner = LaneRunner(lane, label=lane.label)
        runner.run(seq.jobs)
        if check and runner.had_no_rule:
            raise InvariantViolation("census lane had no rule; assumed optimum too small")
        schedules.append(runner.schedule)
    best = select_best(schedules)
    return RunResult("a1", eps, seq.m, len(seq), family.size,
                     best.makespan(), best.label, opt=seq.planted_opt)


def _run_plain_a2(seq, eps, T, mode, check, lane_cap) -> RunResult:
    sizes = seq.sizes()
    if mode == "targeted":
        params = a2_params(eps, seq.m, T)
        best_lane = u_to_lane_index(params, a2_valid_u(params, a2_class_counts(params, seq.jobs)))
        makespan, violations = a2_lane_makespan(eps, seq.m, T, sizes, best_lane)
        lanes = 1
    else:
        sweep = a2_full_sweep(eps, seq.m, T, sizes, lane_cap=lane_cap)
        best_lane, makespan = sweep.best()
        lanes, violations = sweep.lane_count, sweep.fill_violations
    if check and violations:
        raise InvariantViolation("a core machine rule violated the fill-line property")
    return RunResult("a2", eps, seq.m, len(seq), lanes, makespan, best_lane,
                     opt=seq.planted_opt, fill_violations=violations)


def run_algorithm(
    algo: str,
    seq: JobSequence,
    epsilon: Optional[Fraction] = None,
    assumed_opt: Optional[Fraction] = None,
    mode: str = "targeted",
    check: bool = False,
    trace: Optional[Callable[[dict], None]] = None,
    lane_cap: Optional[int] = None,
) -> RunResult:
    """Run one algorithm id over one sequence and report the chosen schedule."""
    if mode not in ("targeted", "full"):
        raise ValueError("mode must be 'targeted' or 'full'")
    if lane_cap is not None:
        default_lane_cap(lane_cap)  # a bad cap is an error even where the mode never reads it
    if algo == "list":
        schedule = list_schedule(seq)
        return RunResult("list", None, seq.m, len(seq), 1,
                         schedule.makespan(), 0, opt=seq.planted_opt)
    eps = Fraction(epsilon) if epsilon is not None else None
    if algo in ("a1", "a2", "a3"):
        if eps is None:
            raise ValueError(f"{algo} requires an accuracy epsilon")
        if assumed_opt is None:
            raise ValueError(f"{algo} is a known-optimum algorithm: pass the assumed optimum")
        comp = compose(algo, eps, seq.m)  # resolves a3 to its family, once
        run = _run_plain_a1 if comp.inner_algo == "a1" else _run_plain_a2
        result = run(seq, comp.inner_eps, Fraction(assumed_opt), mode, check, lane_cap)
        result.algo, result.epsilon = algo, eps
        return result
    if algo in ("a1star", "a3star"):
        if eps is None:
            raise ValueError(f"{algo} requires an accuracy epsilon")
        comp = compose(algo, eps, seq.m)
        if mode == "targeted":
            factory = (
                a1_targeted_factory(seq, comp.inner_eps)
                if algo == "a1star"
                else a3_targeted_factory(seq, eps / 2)
            )
        else:
            if comp.inner_algo != "a1":
                raise ValueError("full mode wrapping is only supported for census lanes")
            factory = a1_full_factory(comp.inner_eps, seq.m, lane_cap)
        state = AStar(comp.wrapper, seq.m, factory, check=check, trace=trace)
        best = state.run(seq)
        live = state.smallest_guess_has_live_lane() if state.groups else None
        violations = state.fill_violations()
        if check and violations:
            raise InvariantViolation("a configuration lane violated the fill-line property")
        if check and live is False:
            raise InvariantViolation("the smallest guess has no live lane")
        return RunResult(
            algo, eps, seq.m, len(seq), state.lane_count(),
            best.makespan(), best.label, adjustments=state.adjustments,
            opt=seq.planted_opt,
            gamma1=state.smallest_gamma() if state.groups else None,
            live_lane=live, fill_violations=violations,
        )
    raise ValueError(f"unknown algorithm {algo!r}")


# ---------------------------------------------------------------------------
# Batch runs with reproducible reports.

CSV_COLUMNS = [
    "instance_id", "m", "n", "algo", "epsilon", "lanes", "opt",
    "makespan", "ratio_num", "ratio_den", "adjustments", "ms",
]


@dataclass
class ExperimentConfig:
    algo: str
    epsilon: Optional[Fraction]
    m: int
    instances: int = 10
    mode: str = "targeted"
    seed: int = 0
    counts: int | tuple[int, int] | Sequence[int] = (1, 3)
    denom: int = 48
    check: bool = False
    jsonl_path: Optional[str] = None
    csv_path: Optional[str] = None


def run_batch(config: ExperimentConfig) -> list[dict]:
    """Run the configured algorithm over generated planted instances.

    Rows are deterministic given the seed; wall time appears only in the
    CSV convenience file, never in the canonical JSONL report.
    """
    if config.instances < 0:
        raise ValueError(f"instance count must be nonnegative, got {config.instances}")
    rows = []
    for k in range(config.instances):
        order = BATCH_ORDERS[k % len(BATCH_ORDERS)]
        seq = gen_planted(config.m, config.counts, config.denom,
                          seed=config.seed + k, order=order)
        assumed = seq.planted_opt if config.algo in ("a1", "a2", "a3") else None
        t0 = time.perf_counter()
        result = run_algorithm(config.algo, seq, config.epsilon, assumed_opt=assumed,
                               mode=config.mode, check=config.check)
        ms = int((time.perf_counter() - t0) * 1000)
        ratio = result.ratio
        row = {
            "instance_id": k,
            "m": seq.m,
            "n": len(seq),
            "algo": config.algo,
            "epsilon": format_rational(config.epsilon) if config.epsilon is not None else "",
            "lanes": result.lanes,
            "opt": format_rational(result.opt) if result.opt is not None else "",
            "makespan": format_rational(result.makespan),
            "ratio_num": ratio.numerator if ratio is not None else "",
            "ratio_den": ratio.denominator if ratio is not None else "",
            "adjustments": result.adjustments,
        }
        rows.append((row, ms))
    if config.jsonl_path:
        with open(config.jsonl_path, "w") as fh:
            for row, _ in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    if config.csv_path:
        with open(config.csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            for row, ms in rows:
                writer.writerow({**row, "ms": ms})
    return [row for row, _ in rows]
