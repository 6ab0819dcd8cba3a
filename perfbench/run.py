#!/usr/bin/env python3
"""Benchmark parsched's public entry points: one workload, one process, one client.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_m256 --seed 1 --seconds 25 --trace 0

The loop is closed with a single client on a single thread: each call starts
when the previous one returns.  With `--trace 0` it reports the end-to-end
metrics, in seconds at a reference host speed (see `HostSpeed`); with
`--trace 1` it runs the workload's fixed call set untraced and then traced,
and reports per-layer metrics in raw wall-clock seconds.  Every call is checked exactly
(bounds and an output hash); the last line of standard output is the JSON
result, and the full record (engine, Python, nproc, seed, side figures and,
for traced runs, the spans) is written to `perfbench/out/`.

parsched is imported from `src/` next to this directory and nowhere else; if
it is not there the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (lives beside this file)

MODULES = ("core", "a1", "a2", "wrapper", "fullsim", "harness")
SETUP_REPEATS = 11  # set-ups per run, spread over the measured time
TAIL_BEYOND = 10  # a tail percentile needs at least this many calls beyond it
PROBE_EVERY_S = 0.02  # wall-time period of the host-speed probe while measuring
PROBE_REF_S = 0.0008  # the probe's time at reference speed (see HostSpeed)
PROBE_PAD_S = 0.5  # probes this close to a timing also rate the host's speed during it

END_TO_END_UNITS = {
    "setup_s": "s",
    "lane_jobs_per_s": "1/s",
    "call_p50_s": "s",
    "call_tail_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "fullsim.prepare_s": "s",
    "fullsim.engine_s": "s",
    "fullsim.lanes": "count",
    "fullsim.lane_jobs": "count",
    "a2.distinct_layouts": "count",
    "a2.layout_share": "ratio",
    "harness.factory_s": "s",
    "harness.factory_calls": "count",
    "harness.distinct_plans": "count",
    "a1.propose_s": "s",
    "a1.record_s": "s",
    "a1.calls": "count",
    "a2.propose_s": "s",
    "a2.record_s": "s",
    "a2.calls": "count",
    "wrapper.self_s": "s",
    "wrapper.fail_i": "count",
    "wrapper.fail_ii": "count",
    "wrapper.fail_iii": "count",
    "wrapper.adjustments": "count",
    "core.select_best_s": "s",
    "harness.gen_s": "s",
    "bench.trace_overhead_s": "s",
}


class LibraryMissing(RuntimeError):
    """parsched's sources are not beside the benchmark."""


def probe() -> None:
    """A fixed slice of pure-Python work (integer arithmetic, dict stores), about 1 ms."""
    table = {}
    total = 0
    for i in range(6000):
        total += i * i % 13
        table[i & 255] = total


class HostSpeed:
    """How fast the host runs Python at each moment of a measurement.

    On a shared host the same call can take 1.5x as long from one minute to
    the next, and for pure-Python code the process's CPU time slows exactly
    as its wall time does.  While armed, a SIGALRM every `PROBE_EVERY_S`
    interrupts whatever runs (between bytecodes, in this one thread) and
    times `probe`, which uses none of parsched.  `clock()` stops while a
    probe runs, so timings exclude the probes, and `rate()` rescales a
    timing to the speed at which `probe` takes `PROBE_REF_S` (its median on
    a quiet 2-core x86-64 host), judged from the probes taken during it and
    within `PROBE_PAD_S` of it.  A speed-up of parsched's own code shows in
    full; the host's drift cancels.
    """

    def __init__(self) -> None:
        self.at: list[float] = []  # perf_counter at each probe's midpoint, ascending
        self.took: list[float] = []  # each probe's duration
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def clock(self) -> float:
        """perf_counter minus the time spent in probes so far."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:  # no probe ran in between
                return now - spent

    @contextmanager
    def armed(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Reference speed over the speed probed around [start, end] (1 if never probed)."""
        lo = bisect.bisect_left(self.at, start - PROBE_PAD_S)
        hi = bisect.bisect_right(self.at, end + PROBE_PAD_S)
        took = self.took[lo:hi] or self.took
        return PROBE_REF_S / statistics.median(took) if took else 1.0

    def rate(self, timing: tuple[float, float, float]) -> float:
        """A (net seconds, start, end) timing in seconds at reference speed."""
        net, start, end = timing
        return net * self.factor(start, end)


speed = HostSpeed()


def load_library() -> SimpleNamespace:
    """Import parsched afresh from this checkout's `src/`, never from elsewhere."""
    package = SRC / "parsched"
    if not (package / "__init__.py").is_file():
        raise LibraryMissing(f"no parsched sources at {package}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "parsched" or n.startswith("parsched.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"parsched.{m}") for m in MODULES})
    if Path(lib.core.__file__).resolve().parent != package.resolve():
        raise LibraryMissing(f"parsched imported from {lib.core.__file__}, not {package}")
    return lib


def set_up(workload, seed: int, small: bool):
    """Import parsched afresh, generate the seed's inputs, derive parameters.

    Returns the library, the inputs and the (net seconds, start, end) timing.
    """
    start, t0 = time.perf_counter(), speed.clock()
    lib = load_library()
    inp = workload.setup(lib, seed, small)
    return lib, inp, (speed.clock() - t0, start, time.perf_counter())


def engine_info(lib) -> dict:
    fullsim = lib.fullsim
    forced = os.environ.get("PARSCHED_FORCE_FALLBACK", "")
    if not fullsim.kernel_available():
        reason = "compiled kernel not built"
    elif forced not in ("", "0"):
        reason = f"PARSCHED_FORCE_FALLBACK={forced}"
    else:
        reason = "compiled kernel available"
    return {
        "engine": fullsim.active_backend(),
        "reason": reason,
        "kernel_available": fullsim.kernel_available(),
        "PARSCHED_FORCE_FALLBACK": forced,
    }


class Checker:
    """Exact gates on every call, and one SHA-256 over the reference calls.

    A call passes when it returns, meets its exact bounds, and repeats the
    output its key gave the first time in this run.  The first outputs of
    the workload's reference calls are hashed in cycle order and compared
    with the hash recorded for the seed, when one is recorded.
    """

    def __init__(self, reference_keys: list[str], expected: Optional[str]):
        self.reference_keys = reference_keys
        self.expected = expected
        self.first: dict[str, str] = {}
        self.first_ok: dict[str, bool] = {}
        self.attempted = 0
        self.failed = 0
        self.printed_error = False

    def error(self, call, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.first_ok.setdefault(call.key, False)
        if not self.printed_error:
            self.printed_error = True
            print(f"call {call.key} raised:", file=sys.stderr)
            traceback.print_exception(exc, file=sys.stderr)

    def check(self, call, outcome: Optional["workloads.Outcome"]) -> None:
        self.attempted += 1
        ok = outcome is not None and outcome.gates_ok
        if outcome is not None:
            ok = ok and self.first.setdefault(call.key, outcome.text) == outcome.text
        self.first_ok.setdefault(call.key, ok)
        if not ok:
            self.failed += 1

    def reference_digest(self) -> str:
        text = "\n".join(self.first.get(k, "<no output>") for k in self.reference_keys)
        return hashlib.sha256(text.encode()).hexdigest()

    def finish(self) -> None:
        """Compare the reference hash; a mismatch fails every reference call."""
        digest = self.reference_digest()
        if self.expected is not None and digest != self.expected:
            self.failed += sum(self.first_ok.get(k, False) for k in self.reference_keys)
            print(f"reference hash {digest} != recorded {self.expected}", file=sys.stderr)


def one_call(workload, lib, inp, call, checker: Checker, traced_by=None):
    """Run one call (untraced, or traced when given a tracer); return its latency."""
    t0 = speed.clock()
    try:
        if traced_by is None:
            out = workload.call(lib, inp, call)
        else:
            out = workload.traced(lib, inp, call, traced_by)
    except Exception as exc:  # a failing call is counted, and the loop goes on
        latency = speed.clock() - t0
        checker.error(call, exc)
        return latency
    latency = speed.clock() - t0
    try:
        outcome = workload.outcome(lib, inp, call, out)
    except (AttributeError, TypeError, ValueError):  # output not even readable
        outcome = None
    checker.check(call, outcome)
    return latency


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, calls): the highest percentile with >= 10 calls beyond it.

    Below 100 calls that percentile is under p90 and no tail at all, so the
    slowest call (percentile 100) is reported instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 10 * TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def measure_untraced(workload, lib, inp, seconds: float, checker: Checker, set_up_again):
    """Closed loop over the cycle until the next call would overrun `seconds`.

    The repeated set-ups run between calls at evenly spaced points of the
    timed span, so that their median sees the machine the calls see.
    Returns each call's (net seconds, start, end) timing and the lane-jobs.
    """
    marks = [seconds * k / SETUP_REPEATS for k in range(1, SETUP_REPEATS)]
    timings = []
    lane_jobs = 0
    timed = 0.0
    k = 0
    while not timings or timed + statistics.median(t[0] for t in timings) <= seconds:
        call = inp.calls[k % len(inp.calls)]
        start = time.perf_counter()
        latency = one_call(workload, lib, inp, call, checker)
        timings.append((latency, start, time.perf_counter()))
        timed += latency
        lane_jobs += call.lanes * call.jobs
        k += 1
        while marks and timed >= marks[0]:
            marks.pop(0)
            set_up_again()
    for _ in marks:
        set_up_again()
    for call in inp.calls[: inp.reference]:  # complete the hashed set, untimed
        if call.key not in checker.first_ok:
            one_call(workload, lib, inp, call, checker)
    return timings, lane_jobs


def end_to_end(workload, lib, inp, seconds, checker, set_up_again) -> tuple[dict, dict]:
    timings, lane_jobs = measure_untraced(workload, lib, inp, seconds, checker, set_up_again)
    latencies = [speed.rate(t) for t in timings]
    tail_s, tail_pct, calls = tail(latencies)
    raw = [t[0] for t in timings]
    metrics = {
        "lane_jobs_per_s": lane_jobs / sum(latencies),
        "call_p50_s": statistics.median(latencies),
        "call_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    side = {
        "call_tail_percentile": tail_pct,
        "calls": calls,
        "raw": {"lane_jobs_per_s": lane_jobs / sum(raw), "call_p50_s": statistics.median(raw),
                "call_tail_s": tail(raw)[0]},
        "latencies_s": latencies,
    }
    return metrics, side


def per_layer(workload, lib, inp, seconds, checker) -> tuple[dict, dict, list]:
    """Whole passes over the reference calls, each untraced then traced, while
    time allows (at least one).

    Times are per pass (averaged over passes); counts are per pass and must
    repeat exactly from pass to pass.
    """
    reference = inp.calls[: inp.reference]
    tracer = workloads.Tracer()
    untraced_s = traced_s = 0.0
    passes = 0
    counts = None
    start = time.perf_counter()
    while passes == 0 or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        t0 = time.perf_counter()
        for call in reference:
            one_call(workload, lib, inp, call, checker)
        t1 = time.perf_counter()
        before = tracer.counts.copy()
        for call in reference:
            with tracer.span("bench.call"):
                one_call(workload, lib, inp, call, checker, traced_by=tracer)
            tracer.call_id += 1
        untraced_s += t1 - t0
        traced_s += time.perf_counter() - t1
        this_pass = tracer.counts - before
        if counts is None:
            counts = this_pass
        elif this_pass != counts:
            checker.attempted += 1
            checker.failed += 1
            print(f"per-pass counts differ: {dict(this_pass)} != {dict(counts)}", file=sys.stderr)
        passes += 1
    sec = {name: total / passes for name, total in tracer.seconds.items()}
    step_s = sec.get("wrapper.step", 0.0)
    inside_step = sum(sec.get(k, 0.0) for k in
                      ("harness.factory", "a1.propose", "a1.record", "a2.propose", "a2.record"))
    props = workload.properties(lib, inp)
    metrics = {
        "fullsim.prepare_s": sec.get("fullsim.prepare", 0.0),
        "fullsim.engine_s": sec.get("fullsim.window", 0.0) - sec.get("fullsim.prepare", 0.0),
        "fullsim.lanes": counts["fullsim.lanes"],
        "fullsim.lane_jobs": counts["fullsim.lane_jobs"],
        "a2.distinct_layouts": props.get("a2.distinct_layouts", 0),
        "a2.layout_share": props.get("a2.layout_share", 0.0),
        "harness.factory_s": sec.get("harness.factory", 0.0),
        "harness.factory_calls": counts["harness.factory_calls"],
        "harness.distinct_plans": counts["harness.distinct_plans"],
        "a1.propose_s": sec.get("a1.propose", 0.0),
        "a1.record_s": sec.get("a1.record", 0.0),
        "a1.calls": counts["a1.calls"],
        "a2.propose_s": sec.get("a2.propose", 0.0),
        "a2.record_s": sec.get("a2.record", 0.0),
        "a2.calls": counts["a2.calls"],
        "wrapper.self_s": step_s - inside_step if step_s else 0.0,
        "wrapper.fail_i": counts["wrapper.fail_i"],
        "wrapper.fail_ii": counts["wrapper.fail_ii"],
        "wrapper.fail_iii": counts["wrapper.fail_iii"],
        "wrapper.adjustments": counts["wrapper.adjustments"],
        "core.select_best_s": sec.get("core.select_best", 0.0),
        "bench.trace_overhead_s": (traced_s - untraced_s) / passes,
    }
    side = {"passes": passes, "calls_per_pass": len(reference), **props}
    return metrics, side, tracer.spans


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 small: bool = False, expected: Optional[str] = None) -> dict:
    """Set up and measure one workload; returns the full record.

    `small` shrinks the inputs for the self-test; `expected` replaces the
    reference hash recorded for the seed (both for tests only).
    """
    global speed
    speed = HostSpeed()
    workload = workloads.WORKLOADS[name]
    # End-to-end times are rescaled to a reference host speed; per-layer ones stay raw.
    with nullcontext() if trace else speed.armed():
        lib, inp, timing = set_up(workload, seed, small)
        setups, gens = [timing], [inp.gen_s]

        def set_up_again() -> None:
            _, repeat, timing = set_up(workload, seed, small)
            setups.append(timing)
            gens.append(repeat.gen_s)

        if expected is None and not small:
            expected = json.loads(EXPECTED.read_text()).get(name, {}).get(str(seed))
        checker = Checker([c.key for c in inp.calls[: inp.reference]], expected)
        if trace:
            for _ in range(SETUP_REPEATS - 1):
                set_up_again()
            metrics, side, spans = per_layer(workload, lib, inp, seconds, checker)
            metrics["harness.gen_s"] = statistics.median(gens)
            units = PER_LAYER_UNITS
        else:
            metrics, side = end_to_end(workload, lib, inp, seconds, checker, set_up_again)
            metrics["setup_s"] = statistics.median(speed.rate(t) for t in setups)
            side["raw"]["setup_s"] = statistics.median(t[0] for t in setups)
            spans = []
            units = END_TO_END_UNITS
    checker.finish()
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        **engine_info(lib),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "client": "closed loop, 1 client, 1 thread",
        "reference_hash": checker.reference_digest(),
        "hash_check": ("recorded hash for this seed" if expected is not None
                       else "no recorded hash for this seed; repeats checked in-run"),
        "failed_frac": checker.failed / checker.attempted,
        "host_speed_factor": speed.factor(),
        "probes": len(speed.took),
        **side,
    }
    return {"result": result, "meta": meta, "spans": spans}


def summary(record: dict) -> str:
    meta, result = record["meta"], record["result"]
    lines = [
        f"perfbench {meta['workload']} seed={meta['seed']} trace={meta['trace']} "
        f"engine={meta['engine']} ({meta['reason']}) python={meta['python']} nproc={meta['nproc']}"
    ]
    for name, m in result["metrics"].items():
        extra = ""
        if name == "call_tail_s":
            extra = f"  (p{meta['call_tail_percentile']:.1f} of {meta['calls']} calls)"
        elif name == "a2.layout_share" and "a2.family_layouts" in meta:
            extra = (f"  (whole family {meta['a2.family_layouts']}/{meta['a2.family_lanes']}"
                     f" = {meta['a2.family_layouts'] / meta['a2.family_lanes']:.4f})")
        elif name == "harness.distinct_plans" and m["value"]:
            calls = result["metrics"]["harness.factory_calls"]["value"]
            extra = f"  ({m['value']}/{calls} factory calls)"
        lines.append(f"  {name:24s} {m['value']:.6g} {m['unit']}{extra}")
    lines.append(f"  {'failed_frac':24s} {meta['failed_frac']:.6g} "
                 f"({result['failed']}/{result['attempted']}; {meta['hash_check']})")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except LibraryMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")
    print(summary(record))
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
