"""Experiment orchestration: instance generation, composition, batch runs.

Planted instances hide a perfect schedule: every machine's jobs sum to
exactly 1, so the total equals m and the optimum is provably 1 without
any search.  Compositions wire the known-optimum families into the
guess wrapper with the accuracy split used for the end-to-end bounds.

Targeted runs use hindsight (the full sequence) to pick the single lane
that the guarantees single out — the true census lane or the valid
configuration lane — instead of simulating the whole family.  When the
hindsight census certifies that a guess is below the suffix's optimum
(volume overflow or a count above its ceiling), the lane is built with
a greedy virtual schedule instead of the exact one; such a lane is
allowed to fail, and every asserted guarantee is unaffected because it
only concerns guesses at or above the optimum.
"""

from __future__ import annotations

import csv
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .a1 import (
    A1Plan,
    A1State,
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
from .core import JobSequence, LaneRunner, select_best
from .fullsim import a2_full_sweep
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
    """
    if denom < 2:
        raise ValueError("denominator must be at least 2")
    if order not in ORDERS:
        raise ValueError(f"unknown arrival order {order!r}")
    rng = random.Random(seed)
    if isinstance(counts, int):
        per_machine = [counts] * m
    elif isinstance(counts, tuple) and len(counts) == 2:
        per_machine = [rng.randint(counts[0], counts[1]) for _ in range(m)]
    else:
        per_machine = [int(c) for c in counts]
        if len(per_machine) != m:
            raise ValueError("per-machine counts must have length m")
    items: list[tuple[Fraction, int]] = []
    for machine, c in enumerate(per_machine, start=1):
        if c < 1 or c * min_num > denom:
            raise ValueError(f"infeasible profile: {c} jobs of >= {min_num}/{denom} on one machine")
        for num in _composition_parts(rng, denom, c, min_num):
            items.append((Fraction(num, denom), machine))
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
    seq = JobSequence.from_sizes(m, [p for p, _ in items], planted_opt=Fraction(1))
    witness = [machine for _, machine in items]
    assert seq.total() == m, "planted volume must equal the machine count"
    if verify_cap and len(seq) <= verify_cap:
        assert opt_exact(seq) == 1, "planted optimum failed verification"
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


def _a1_suffix_plan(seq: JobSequence, eps_inner: Fraction, T: Fraction, start_t: int) -> A1Plan:
    partition = a1_partition(eps_inner, T)
    counts = [0] * partition.levels
    doomed = False
    suffix_total = Fraction(0)
    for job in seq.jobs[start_t - 1 :]:
        suffix_total += job.p
        if job.p > T:
            doomed = True  # guess below the largest job: bound failure is certain
        cls = partition.classify(job.p)
        if cls is None:
            doomed = True  # a suffix job above the top bound certifies OPT > T
            continue
        if cls != 0:
            counts[cls - 1] += 1
    if suffix_total > seq.m * T:
        doomed = True  # guess below average load: bound failure is certain
    cap = a1_count_cap(seq.m, partition.eps_prime)
    if any(c > cap for c in counts):
        doomed = True
    vector = tuple(min(c, cap) for c in counts)
    volume = sum(
        (partition.rounded_size(i + 1) * vector[i] for i in range(partition.levels)),
        Fraction(0),
    )
    if volume > seq.m * (1 + partition.eps_prime) * T:
        doomed = True
    # The lane survives guesses at or above the suffix optimum as long
    # as its virtual schedule stays within (1+eps')*T, so a greedy
    # schedule certified against that bound is as good as the exact one.
    return A1Plan.build(partition, seq.m, vector, exact=not doomed,
                        certify=(1 + partition.eps_prime) * T)


def a1_targeted_factory(seq: JobSequence, eps_inner: Fraction):
    """Single-lane factory following the true census of each epoch suffix."""

    def make(T: Fraction, start_t: int):
        return [A1State(_a1_suffix_plan(seq, eps_inner, T, start_t))]

    return make


def a3_targeted_factory(seq: JobSequence, eps_inner: Fraction):
    """Dispatching factory: censuses at accuracy 1/3 below the machine
    threshold, valid configurations above it."""
    choice = a3_dispatch(eps_inner, seq.m, Fraction(1))
    if choice.kind == "a1":
        return a1_targeted_factory(seq, Fraction(1, 3))

    def make(T: Fraction, start_t: int):
        params = a2_params(eps_inner, seq.m, T)
        counts = a2_class_counts(params, seq.jobs[start_t - 1 :], clamp=True)
        try:
            u = a2_valid_u(params, counts)
        except ValueError:
            # Census inconsistent with OPT <= T: the lane may fail.
            u = tuple(
                min(params.kappa, counts[i] // max(1, (2 if i < params.levels else 1) * params.m0))
                for i in range(params.n_classes)
            )
        config = a2_config_from_u(params, u)
        return [A2State(config, check_fill_line=True, strict=False)]

    return make


def a1_full_factory(eps_inner: Fraction, m: int, lane_cap: Optional[int] = None):
    """Whole-family factory; only sensible when the family is small."""

    def make(T: Fraction, start_t: int):
        return a1_family(eps_inner, m, T, lane_cap=lane_cap).lanes()

    return make


# ---------------------------------------------------------------------------
# Composition and single runs.


@dataclass(frozen=True)
class Composition:
    """How an algorithm id unfolds into lanes, with full-family accounting."""

    algo: str
    epsilon: Fraction
    m: int
    kind: str  # "plain" or "wrapped"
    inner_algo: Optional[str]
    inner_eps: Optional[Fraction]
    wrapper: Optional[WrapperParams]
    total_lanes: int


def _family_accounting(algo: str, eps: Fraction, m: int) -> tuple[str, Fraction, int]:
    if algo == "a1":
        return "a1", eps, a1_family_size(eps, m)
    if algo == "a2":
        return "a2", eps, a2_family_size(a2_params(eps, m, Fraction(1)))
    if algo == "a3":
        choice = a3_dispatch(eps, m, Fraction(1))
        if choice.kind == "a1":
            return "a1", choice.eps, a1_family_size(choice.eps, m)
        return "a2", eps, a2_family_size(a2_params(eps, m, Fraction(1)))
    raise ValueError(f"unknown inner algorithm {algo!r}")


def compose(algo: str, epsilon: Fraction, m: int) -> Composition:
    """Resolve an algorithm id into wrapper parameters and lane accounting."""
    eps = Fraction(epsilon)
    if algo == "list":
        return Composition(algo, eps, m, "plain", None, None, None, 1)
    if algo in ("a1", "a2", "a3"):
        inner, inner_eps, lanes = _family_accounting(algo, eps, m)
        return Composition(algo, eps, m, "plain", inner, inner_eps, None, lanes)
    if algo in ("a1star", "a3star"):
        inner_eps = eps / 2
        if algo == "a1star":
            rho = 1 + eps / 2
            inner, lane_eps, lanes = _family_accounting("a1", inner_eps, m)
        else:
            rho = Fraction(4, 3) + eps / 2
            inner, lane_eps, lanes = _family_accounting("a3", inner_eps, m)
        params = astar_params(rho, eps / 2)
        return Composition(algo, eps, m, "wrapped", inner, lane_eps, params, params.h * lanes)
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
            raise AssertionError("census lane had no rule; assumed optimum too small")
        schedules.append(runner.schedule)
    best = select_best(schedules)
    return RunResult("a1", eps, seq.m, len(seq), family.size,
                     best.makespan(), best.label, opt=seq.planted_opt)


def _run_plain_a2(seq, eps, T, mode, check, lane_cap) -> RunResult:
    params = a2_params(eps, seq.m, T)
    sizes = seq.sizes()
    if mode == "targeted":
        counts = a2_class_counts(params, seq.jobs)
        u = a2_valid_u(params, counts)
        lane = u_to_lane_index(params, u)
        sweep = a2_full_sweep(eps, seq.m, T, sizes, lanes=(lane, lane + 1))
        best_lane, makespan = sweep.best()
        lanes = 1
    else:
        sweep = a2_full_sweep(eps, seq.m, T, sizes, lane_cap=lane_cap)
        best_lane, makespan = sweep.best()
        lanes = sweep.lane_count
    if check and sweep.fill_violations:
        raise AssertionError("a core machine rule violated the fill-line property")
    return RunResult("a2", eps, seq.m, len(seq), lanes, makespan, best_lane,
                     opt=seq.planted_opt, fill_violations=sweep.fill_violations)


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
        T = Fraction(assumed_opt)
        if algo == "a3":
            choice = a3_dispatch(eps, seq.m, T)
            if choice.kind == "a1":
                result = _run_plain_a1(seq, choice.eps, T, mode, check, lane_cap)
            else:
                result = _run_plain_a2(seq, eps, T, mode, check, lane_cap)
            result.algo = "a3"
            result.epsilon = eps
            return result
        if algo == "a1":
            return _run_plain_a1(seq, eps, T, mode, check, lane_cap)
        return _run_plain_a2(seq, eps, T, mode, check, lane_cap)
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
        return RunResult(
            algo, eps, seq.m, len(seq), state.lane_count(),
            best.makespan(), best.label, adjustments=state.adjustments,
            opt=seq.planted_opt,
            gamma1=state.smallest_gamma() if state.groups else None,
            live_lane=state.smallest_guess_has_live_lane() if state.groups else None,
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
    assumed_opt: Optional[Fraction] = None
    check: bool = False
    lane_cap: Optional[int] = None
    jsonl_path: Optional[str] = None
    csv_path: Optional[str] = None
    orders: Sequence[str] = ("shuffle", "largest_first", "smallest_first", "interleave")


def run_batch(config: ExperimentConfig) -> list[dict]:
    """Run the configured algorithm over generated planted instances.

    Rows are deterministic given the seed; wall time appears only in the
    CSV convenience file, never in the canonical JSONL report.
    """
    rows = []
    for k in range(config.instances):
        order = config.orders[k % len(config.orders)]
        seq = gen_planted(config.m, config.counts, config.denom,
                          seed=config.seed + k, order=order)
        assumed = config.assumed_opt
        if config.algo in ("a1", "a2", "a3") and assumed is None:
            assumed = seq.planted_opt
        t0 = time.perf_counter()
        result = run_algorithm(
            config.algo, seq, config.epsilon, assumed_opt=assumed,
            mode=config.mode, check=config.check, lane_cap=config.lane_cap,
        )
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
