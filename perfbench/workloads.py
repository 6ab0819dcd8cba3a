"""The benchmark's workloads, their exact output gates and the traced call paths.

Each workload turns a seed into a fixed, ordered list of calls (its *cycle*),
runs one call through parsched's public entry point, and can run the same
call again along a traced path that opens the call up at the layer
boundaries (`fullsim`, `harness`, `wrapper`, `a1`, `a2`, `core`).  Spans are
placed only around the benchmark's own calls into those modules; nothing
inside the library is instrumented.

Every function takes the imported library as `lib` (a namespace holding the
parsched modules) instead of importing parsched itself, so that `run.py` can
time a fresh import as part of set-up.
"""

from __future__ import annotations

import random
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

EPS = Fraction(1)
PLANTED_OPT = Fraction(1)  # every planted instance hides a makespan-1 schedule
ORDERS = ("shuffle", "largest_first", "smallest_first", "interleave")


@dataclass(frozen=True)
class Call:
    """One public call of a workload's cycle."""

    key: str  # names the call's input within the seed's cycle
    lanes: int  # lanes requested (not lanes simulated)
    jobs: int  # jobs each lane places
    arg: Any  # the instance, or the lane window of a sweep


@dataclass
class Inputs:
    """Everything set-up derives from the seed before the first timed call."""

    calls: list[Call]
    reference: int  # the first `reference` calls form the hashed, traced call set
    gen_s: float  # the instance-generation part of set-up
    extra: dict


@dataclass(frozen=True)
class Outcome:
    """A call's canonical output and whether its exact bounds held."""

    text: str  # lowest-terms makespans, best labels, adjustments, smallest guesses
    gates_ok: bool


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Tracing: spans kept in memory, written out once by run.py.


class Tracer:
    """Spans (name, start, end, parent, call id) plus per-layer sums and counts."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.call_id = 0
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        start = time.perf_counter()
        self.spans.append([name, start - self.t0, None, parent, self.call_id])
        self._stack.append(idx)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx][2] = end - self.t0
            self.seconds[name] += end - start


class TimedInner:
    """Proxy around one inner lane scheduler timing its propose/record steps.

    Step counts are too many to keep as spans, so the time is summed per
    layer (`a1` for census lanes, `a2` for configuration lanes).
    """

    __slots__ = ("inner", "tracer", "layer")

    def __init__(self, inner, tracer: Tracer, layer: str):
        self.inner = inner
        self.tracer = tracer
        self.layer = layer

    def propose(self, job):
        t0 = time.perf_counter()
        machine = self.inner.propose(job)
        self.tracer.seconds[self.layer + ".propose"] += time.perf_counter() - t0
        self.tracer.counts[self.layer + ".calls"] += 1
        return machine

    def record(self, job, machine):
        t0 = time.perf_counter()
        self.inner.record(job, machine)
        self.tracer.seconds[self.layer + ".record"] += time.perf_counter() - t0


# ---------------------------------------------------------------------------
# The configuration sweep.


class SweepM256:
    """`fullsim.a2_full_sweep(eps=1, m=256, T=1)` over lane windows.

    The windows are spread evenly across the whole 226,981-lane family
    (the seed shifts them) and visited in bit-reversed order, so any prefix
    of the cycle samples the family evenly: redundancy differs wildly
    between regions of the family.  Many narrow windows, each called about
    once per run, keep the median and tail from hinging on the few windows
    a seed happens to place.
    """

    name = "sweep_m256"
    m = 256
    windows, width = 1024, 8
    reference = 256  # the cycle's first windows: an even sample of the family
    small_windows, small_width = 4, 2

    def setup(self, lib, seed: int, small: bool) -> Inputs:
        rng = _rng(self.name, seed)
        t0 = time.perf_counter()
        seq = lib.harness.gen_planted(self.m, counts=2, denom=24, seed=rng.randrange(2**32))
        gen_s = time.perf_counter() - t0
        jobs = seq.sizes()
        params = lib.a2.a2_params(EPS, self.m, PLANTED_OPT)
        total = lib.a2.a2_family_size(params)
        windows, width = (self.small_windows, self.small_width) if small else (self.windows, self.width)
        stride = total // windows
        offset = rng.randrange(stride - width + 1)
        bits = (windows - 1).bit_length()
        order = sorted(range(windows), key=lambda k: int(format(k, f"0{bits}b")[::-1], 2))
        calls = []
        for k in order:
            lo = k * stride + offset
            calls.append(Call(str(lo), width, len(jobs), (lo, lo + width)))
        return Inputs(calls, min(self.reference, len(calls)), gen_s,
                      {"jobs": jobs, "params": params, "total": total})

    def call(self, lib, inp: Inputs, call: Call):
        return lib.fullsim.a2_full_sweep(EPS, self.m, PLANTED_OPT, inp.extra["jobs"], lanes=call.arg)

    def outcome(self, lib, inp: Inputs, call: Call, sweep) -> Outcome:
        lo, hi = call.arg
        if (sweep.lane_lo, sweep.lane_hi) != (lo, hi):
            return Outcome(f"window {sweep.lane_lo}:{sweep.lane_hi}", False)
        spans = ",".join(_frac(sweep.makespan(lane)) for lane in range(lo, hi))
        best_lane, best = sweep.best()
        text = f"{lo}:{hi}|{spans}|best={best_lane}:{_frac(best)}|viol={sweep.fill_violations}"
        return Outcome(text, sweep.fill_violations == 0)

    def traced(self, lib, inp: Inputs, call: Call, tracer: Tracer):
        lo, hi = call.arg
        jobs = inp.extra["jobs"]
        with tracer.span("fullsim.prepare"):
            lib.fullsim.a2_full_sweep(EPS, self.m, PLANTED_OPT, jobs, lanes=(lo, lo))
        with tracer.span("fullsim.window"):
            sweep = lib.fullsim.a2_full_sweep(EPS, self.m, PLANTED_OPT, jobs, lanes=(lo, hi))
        tracer.counts["fullsim.lanes"] += hi - lo
        tracer.counts["fullsim.lane_jobs"] += (hi - lo) * len(jobs)
        return sweep

    def properties(self, lib, inp: Inputs) -> dict:
        """Distinct core layouts among the swept lanes (computed outside timing)."""
        params = inp.extra["params"]
        layouts = set()
        lanes = 0
        for call in inp.calls[: inp.reference]:
            lo, hi = call.arg
            lanes += hi - lo
            for lane in range(lo, hi):
                layouts.add(lib.a2.a2_config_from_u(params, lib.a2.lane_index_to_u(params, lane)).c)
        family = family_layouts(lib, params)
        return {
            "a2.distinct_layouts": len(layouts),
            "a2.layout_share": len(layouts) / lanes,
            "a2.family_layouts": family,
            "a2.family_lanes": inp.extra["total"],
        }


def family_layouts(lib, params) -> int:
    """Distinct layouts of the whole family, from block lengths alone.

    A lane's core layout is its per-class block lengths `min(u_i*m0, mu-pos)`,
    so counting distinct length vectors counts distinct layouts without
    building 226,981 configurations.
    """
    seen = set()
    for lane in range(lib.a2.a2_family_size(params)):
        pos = 0
        lengths = []
        for ui in lib.a2.lane_index_to_u(params, lane):
            n = min(ui * params.m0, params.mu - pos)
            lengths.append(n)
            pos += n
        seen.add(tuple(lengths))
    return len(seen)


# ---------------------------------------------------------------------------
# Wrapped runs: run_algorithm("a1star"/"a3star") and its traced twin.


class Wrapped:
    """Base for workloads that call `run_algorithm` on planted instances."""

    name = ""
    algo = ""
    bound = Fraction(0)  # ratio gate against the planted optimum
    count = 1  # instances in the cycle
    reference = 1  # of which the hashed, traced call set
    small_jobs = 16  # self-test size: instances cut to their first jobs

    def instances(self, lib, rng: random.Random) -> list:
        raise NotImplementedError

    def setup(self, lib, seed: int, small: bool) -> Inputs:
        rng = _rng(self.name, seed)
        t0 = time.perf_counter()
        seqs = self.instances(lib, rng)
        gen_s = time.perf_counter() - t0
        if small:
            seqs = [
                lib.core.JobSequence.from_sizes(s.m, s.sizes()[: self.small_jobs], s.planted_opt)
                for s in seqs[:4]
            ]
        guesses = {m: lib.harness.compose(self.algo, EPS, m).wrapper.h for m in {s.m for s in seqs}}
        # Targeted factories return one lane per guess.
        calls = [Call(str(k), guesses[seq.m], len(seq), seq) for k, seq in enumerate(seqs)]
        return Inputs(calls, min(self.reference, len(calls)), gen_s, {})

    def call(self, lib, inp: Inputs, call: Call):
        result = lib.harness.run_algorithm(self.algo, call.arg, epsilon=EPS, check=True)
        return (result.makespan, result.best_label, result.adjustments, result.gamma1,
                result.lanes, result.live_lane)

    def outcome(self, lib, inp: Inputs, call: Call, out) -> Outcome:
        makespan, label, adjustments, gamma1, lanes, live = out
        gates = makespan <= self.bound * PLANTED_OPT and live is True
        return Outcome(f"{_frac(makespan)}|{label}|{adjustments}|{_frac(gamma1)}|{lanes}", gates)

    def traced(self, lib, inp: Inputs, call: Call, tracer: Tracer):
        """compose + targeted factory + AStar.step/finish, as run_algorithm does."""
        seq = call.arg
        comp = lib.harness.compose(self.algo, EPS, seq.m)
        if self.algo == "a1star":
            factory = lib.harness.a1_targeted_factory(seq, comp.inner_eps)
        else:
            factory = lib.harness.a3_targeted_factory(seq, EPS / 2)
        plans = set()

        def traced_factory(T: Fraction, start_t: int):
            with tracer.span("harness.factory"):
                inners = list(factory(T, start_t))
                wrapped = []
                for inner in inners:
                    if isinstance(inner, lib.a1.A1State):
                        plans.add(inner.plan.vector)
                        wrapped.append(TimedInner(inner, tracer, "a1"))
                    else:
                        plans.add(inner.config.c)
                        wrapped.append(TimedInner(inner, tracer, "a2"))
            tracer.counts["harness.factory_calls"] += 1
            return wrapped

        events: list[dict] = []
        state = lib.wrapper.AStar(comp.wrapper, seq.m, traced_factory, check=True,
                                  trace=events.append)
        for job in seq:
            with tracer.span("wrapper.step"):
                state.step(job)
        with tracer.span("core.select_best"):
            best = state.finish()
        tracer.counts["harness.distinct_plans"] += len(plans)
        for event in events:
            if event["event"] == "fail":
                tracer.counts["wrapper.fail_" + event["reason"]] += 1
            elif event["event"] == "adjust":
                tracer.counts["wrapper.adjustments"] += 1
        return (best.makespan(), best.label, state.adjustments, state.smallest_gamma(),
                state.lane_count(), state.smallest_guess_has_live_lane())

    def properties(self, lib, inp: Inputs) -> dict:
        return {}


class A3StarM256(Wrapped):
    """Criterion 6's a3star loop at m=256: mixed denominators and arrival orders.

    Below the inner threshold the dispatch picks census lanes at accuracy
    1/3, so plan construction and the wrapper's O(m) bind dominate.  Two
    jobs per machine (n=512) instead of criterion 6's one to three keep the
    cost of a call from swinging with the seed's job count.
    """

    name = "a3star_m256"
    algo = "a3star"
    bound = Fraction(7, 3)
    count = 12
    reference = 4

    def instances(self, lib, rng: random.Random) -> list:
        return [
            lib.harness.gen_planted(256, counts=2, denom=(6, 8, 12, 24)[k % 4],
                                    seed=rng.randrange(2**32), order=ORDERS[k % 4])
            for k in range(self.count)
        ]


class A3StarM1024(Wrapped):
    """a3star at m=1024 with one planted job per machine.

    The only workload whose wrapped lanes are configuration lanes
    (`A2State`): the inner threshold at accuracy 1/2 is m >= 1024.  With
    counts=1 every job is a unit job, so the instance is the same for
    every seed.
    """

    name = "a3star_m1024"
    algo = "a3star"
    bound = Fraction(7, 3)

    def instances(self, lib, rng: random.Random) -> list:
        return [lib.harness.gen_planted(1024, counts=1, denom=24, seed=rng.randrange(2**32))]


class A1StarSmall(Wrapped):
    """Many short a1star calls at m=2..8, shaped like criterion 6's planted loop.

    The cycle holds more instances than a run makes calls, so the latency
    tail is taken over distinct instances rather than a few repeated ones.
    """

    name = "a1star_small"
    algo = "a1star"
    bound = Fraction(2)
    count = 1024
    reference = 128

    def instances(self, lib, rng: random.Random) -> list:
        seqs = []
        for k in range(self.count):
            m = 2 + k % 7
            counts = (1, min(4, max(1, 40 // m)))
            seqs.append(lib.harness.gen_planted(m, counts=counts, denom=(8, 12, 24, 48)[k % 4],
                                                seed=rng.randrange(2**32),
                                                order=ORDERS[(k // 4) % 4]))
        return seqs


WORKLOADS = {w.name: w for w in (SweepM256(), A3StarM256(), A3StarM1024(), A1StarSmall())}
