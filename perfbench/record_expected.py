#!/usr/bin/env python3
"""Record each workload's reference-output hash for a range of seeds.

    python3 perfbench/record_expected.py --seeds 0-15 [--workload NAME ...]

Runs every workload's reference calls once, untimed, and merges the SHA-256
of their canonical outputs into `perfbench/expected.json`.  A seed is only
recorded when every call met its exact bounds.  Record only from a commit
whose outputs are known to be right: a benchmark run with a recorded seed
counts every reference call as failed when the hash differs.
"""

from __future__ import annotations

import argparse
import json

import run
import workloads


def reference_hash(name: str, seed: int) -> str:
    workload = workloads.WORKLOADS[name]
    lib = run.load_library()
    inp = workload.setup(lib, seed, small=False)
    reference = inp.calls[: inp.reference]
    checker = run.Checker([c.key for c in reference], None)
    for call in reference:
        run.one_call(workload, lib, inp, call, checker)
    if checker.failed:
        raise SystemExit(f"{name} seed {seed}: {checker.failed} calls failed; nothing recorded")
    return checker.reference_digest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range such as 0-15")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    table = json.loads(run.EXPECTED.read_text())
    for name in args.workload or sorted(workloads.WORKLOADS):
        for seed in seeds:
            table.setdefault(name, {})[str(seed)] = reference_hash(name, seed)
            print(name, seed, table[name][str(seed)], flush=True)
            run.EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
