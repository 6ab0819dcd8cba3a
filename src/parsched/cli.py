"""Command-line harness: gen / run / oracle / adversary / params.

Sequences travel as JSON files {"m": int, "jobs": ["a/b", ...],
"opt": "a/b"?}; every printed number is an exact lowest-terms rational.
The default lane cap for full-mode families comes from the
PARSCHED_LANE_CAP environment variable (500000 when unset).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from .a2 import a2_family_size, a2_params
from .adversary import RandomScheduler, StackScheduler, lb1_check, lb1_run, lb2_check, lb2_run
from .core import JobSequence
from .harness import ORDERS, ExperimentConfig, gen_planted, run_algorithm, run_batch
from .oracle import ListScheduler, opt_exact
from .rational import format_rational, parse_rational

ALGOS = ("list", "a1", "a2", "a3", "a1star", "a3star")


def _add_gen(sub):
    p = sub.add_parser("gen", help="generate a planted instance (optimum exactly 1)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--count-min", type=int, default=1)
    p.add_argument("--count-max", type=int, default=3)
    p.add_argument("--denom", type=int, default=48)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--order", default="shuffle", choices=ORDERS)
    p.add_argument("--min-num", type=int, default=1)
    p.add_argument("--verify-cap", type=int, default=0)
    p.add_argument("--out", required=True)


def _add_run(sub):
    p = sub.add_parser("run", help="run one algorithm over a sequence file")
    p.add_argument("--algo", required=True, choices=ALGOS)
    p.add_argument("--epsilon", default=None, help="accuracy, e.g. 1 or 1/2")
    p.add_argument("--assumed-opt", default=None,
                   help="known optimum for a1/a2/a3 (defaults to the file's opt)")
    p.add_argument("--mode", default="targeted", choices=("full", "targeted"))
    p.add_argument("--input", required=True)
    p.add_argument("--trace", default=None, help="write per-job events as JSONL")
    p.add_argument("--check-lemmas", action="store_true",
                   help="assert in-run invariants; nonzero exit on violation")
    p.add_argument("--lane-cap", type=int, default=None)


def _add_oracle(sub):
    p = sub.add_parser("oracle", help="exact offline optimum of a sequence file")
    p.add_argument("--input", required=True)
    p.add_argument("--cap", type=int, default=24)


def _add_adversary(sub):
    p = sub.add_parser("adversary", help="run a lower-bound adversary against victims")
    p.add_argument("--theorem", required=True, choices=("lb1", "lb2"))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--epsilon", default="1/4", help="lb2 accuracy in (0, 1/4]")
    p.add_argument("--victim", required=True,
                   help="list:K for K list lanes, or file:strategy.json")
    p.add_argument("--stop-early", action="store_true")
    p.add_argument("--out", required=True)


def _add_params(sub):
    p = sub.add_parser("params", help="dump configuration-family parameters as JSON")
    p.add_argument("--algo", default="a2", choices=("a2",))
    p.add_argument("--epsilon", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--assumed-opt", default="1")


def _add_batch(sub):
    p = sub.add_parser("batch", help="run an algorithm over generated instances")
    p.add_argument("--algo", required=True, choices=ALGOS)
    p.add_argument("--epsilon", default=None)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--instances", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--denom", type=int, default=48)
    p.add_argument("--count-min", type=int, default=1)
    p.add_argument("--count-max", type=int, default=3)
    p.add_argument("--mode", default="targeted", choices=("full", "targeted"))
    p.add_argument("--check-lemmas", action="store_true")
    p.add_argument("--jsonl", default=None)
    p.add_argument("--csv", default=None)


def _rot(text):
    return parse_rational(text) if text is not None else None


def _counts(args):
    """Per-machine job counts for the generator: one count, or the range
    --count-min..--count-max."""
    if args.count_min == args.count_max:
        return args.count_min
    return args.count_min, args.count_max


def _load(path: str) -> JobSequence:
    """The sequence file at path; a ValueError names the path and the reason."""
    try:
        return JobSequence.load(path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None


def _victims(descriptor: str, m: int):
    """One constructor per victim, so that a victim count can be refused
    before any victim is built."""
    if descriptor.startswith("list:"):
        count = descriptor.split(":", 1)[1]
        if not count.isdecimal():
            raise ValueError(f"victim list:K needs a whole number K, got {count!r}")
        base = list(range(1, m + 1))  # K distinct tie-breaking rotations, each made when built
        return [lambda i=i: ListScheduler(m, base[i:] + base[:i]) for i in range(int(count))]
    if descriptor.startswith("file:"):
        return _file_victims(descriptor.split(":", 1)[1], m)
    raise ValueError(f"unknown victim descriptor {descriptor!r}")


def _int_field(lane: dict, key: str, default: int, where: str) -> int:
    value = lane.get(key, default)
    if type(value) is not int:  # bool is an int subclass, but not a number here
        raise ValueError(f"{where}.{key}: expected an integer")
    return value


def _file_victims(path: str, m: int):
    """Victim constructors from a strategy file {"lanes": [{"kind": ..., ...}, ...]}."""
    with open(path) as fh:
        doc = json.load(fh)
    lanes = doc.get("lanes") if isinstance(doc, dict) else None
    if not isinstance(lanes, list):
        raise ValueError(f'{path}: missing "lanes" list')
    victims = []
    for k, lane in enumerate(lanes):
        where = f"{path}: lanes[{k}]"
        if not isinstance(lane, dict) or "kind" not in lane:
            raise ValueError(f'{where}: missing "kind"')
        kind = lane["kind"]
        if kind == "list":
            perm = lane.get("perm")
            if perm is not None and not (isinstance(perm, list)
                                         and all(type(x) is int for x in perm)):
                raise ValueError(f"{where}.perm: expected a list of machine numbers")
            victims.append(partial(ListScheduler, m, perm))
        elif kind == "stack":
            victims.append(partial(StackScheduler, m, _int_field(lane, "machine", 1, where)))
        elif kind == "random":
            victims.append(partial(RandomScheduler, m, _int_field(lane, "seed", 0, where)))
        else:
            raise ValueError(f"{where}: unknown victim kind {kind!r}")
    return victims


def main(argv=None) -> int:
    """Run one command; a broken invariant exits 1, bad input exits 2."""
    parser = argparse.ArgumentParser(prog="parsched")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_gen(sub)
    _add_run(sub)
    _add_oracle(sub)
    _add_adversary(sub)
    _add_params(sub)
    _add_batch(sub)
    args = parser.parse_args(argv)
    try:
        return _command(args)
    except AssertionError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _command(args) -> int:
    if args.command == "gen":
        seq = gen_planted(args.m, _counts(args), args.denom, seed=args.seed,
                          order=args.order, min_num=args.min_num,
                          verify_cap=args.verify_cap)
        seq.save(args.out)
        print(json.dumps({"m": seq.m, "n": len(seq), "opt": format_rational(seq.planted_opt)}))
        return 0

    if args.command == "oracle":
        seq = _load(args.input)
        print(json.dumps({"opt": format_rational(opt_exact(seq, cap=args.cap))}))
        return 0

    if args.command == "run":
        seq = _load(args.input)
        assumed = _rot(args.assumed_opt)
        if assumed is None and args.algo in ("a1", "a2", "a3"):
            assumed = seq.planted_opt
        trace_fh = open(args.trace, "w") if args.trace else None
        trace = (lambda ev: trace_fh.write(json.dumps(ev, sort_keys=True) + "\n")) if trace_fh else None
        try:
            result = run_algorithm(
                args.algo, seq, epsilon=_rot(args.epsilon), assumed_opt=assumed,
                mode=args.mode, check=args.check_lemmas, trace=trace,
                lane_cap=args.lane_cap,
            )
        finally:
            if trace_fh:
                trace_fh.close()
        doc = {
            "algo": result.algo,
            "m": result.m,
            "n": result.n,
            "lanes": result.lanes,
            "makespan": format_rational(result.makespan),
            "best_label": result.best_label,
            "adjustments": result.adjustments,
            "live_lane": result.live_lane,
            "fill_violations": result.fill_violations,
        }
        if result.opt is not None:
            doc["opt"] = format_rational(result.opt)
        if result.ratio is not None:
            doc["ratio"] = format_rational(result.ratio)
        print(json.dumps(doc))
        return 0

    if args.command == "adversary":
        makers = _victims(args.victim, args.m)
        if args.theorem == "lb1":
            lb1_check(args.m, len(makers))
            report = lb1_run(args.m, [make() for make in makers], stop_early=args.stop_early)
        else:
            eps = _rot(args.epsilon)
            lb2_check(args.m, eps, len(makers))
            report = lb2_run(args.m, eps, [make() for make in makers], stop_early=args.stop_early)
        doc = {
            "theorem": args.theorem,
            "m": args.m,
            "n": len(report.sigma),
            "opt": format_rational(report.opt),
            "forced_makespan": format_rational(report.forced_makespan),
            "forced_ratio": format_rational(report.forced_ratio),
            "chosen_profile": list(report.chosen_profile) if report.chosen_profile else None,
            "stopped_early": report.stopped_early,
            "sigma": report.sigma.to_json(),
        }
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(json.dumps({"forced_makespan": doc["forced_makespan"],
                          "forced_ratio": doc["forced_ratio"]}))
        return 0

    if args.command == "params":
        params = a2_params(_rot(args.epsilon), args.m, _rot(args.assumed_opt))
        doc = {
            "eps": format_rational(params.eps),
            "eps_prime": format_rational(params.eps_prime),
            "lambda": params.lam,
            "l": params.levels,
            "classes": params.n_classes,
            "a": [format_rational(x) for x in params.a],
            "b": [format_rational(x) for x in params.b],
            "mu": params.mu,
            "kappa": params.kappa,
            "m0": params.m0,
            "family_size": a2_family_size(params),
            "small_max": format_rational(params.small_max),
            "load_cap": format_rational(params.load_cap),
            "machine_threshold": format_rational(params.threshold()),
        }
        print(json.dumps(doc, indent=2))
        return 0

    if args.command == "batch":
        rows = run_batch(ExperimentConfig(
            algo=args.algo, epsilon=_rot(args.epsilon), m=args.m,
            instances=args.instances, mode=args.mode, seed=args.seed,
            counts=_counts(args), denom=args.denom, check=args.check_lemmas,
            jsonl_path=args.jsonl, csv_path=args.csv,
        ))
        print(json.dumps({"instances": len(rows)}))
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
