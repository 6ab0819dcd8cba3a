"""Mutation register: faults that the named tests must catch.

Each entry changes one piece of text in one file.  For each entry the
script copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory, makes the change there (the old text must occur exactly once)
and runs pytest on the entry's tests under a time limit.  The mutant is
killed if the tests fail or run out of time, and survives if they pass;
any other pytest exit (a test path that does not exist, a collection
error) is an error.  The repository itself is never changed.

    python tools/mutants.py

The exit status is 0 when every mutant is killed, 1 otherwise.  This is
not part of the tier-1 tests: each entry runs its own pytest process.
A change that adds a test against a fault adds the fault here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIME_LIMIT_S = 300  # per mutant; each test also fails after 60 s (tests/conftest.py)


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


REGISTER = [
    Mutant(
        "add_equal: rounds by floor, not ceiling (never reach the next level)",
        "src/parsched/core.py",
        "r = -((low - order[0]) // q) if order else c",
        "r = (order[0] - low) // q if order else c",
        ("tests/test_core.py::test_least_loaded_add_equal_rounds_pass_the_next_level",),
    ),
    Mutant(
        "census: a size's bound index by floor, not ceiling",
        "src/parsched/_scaling.py",
        "i = bisect_left(ladder, -(-q * den // num), i)",
        "i = bisect_left(ladder, q * den // num, i)",
        ("tests/test_scaling.py",),
    ),
    Mutant(
        "census: bisect_right, not bisect_left, in the per-size branch",
        "src/parsched/_scaling.py",
        "i = bisect_left(ladder, -(-q * den // num), i)",
        "i = bisect_right(ladder, -(-q * den // num), i)",
        ("tests/test_scaling.py",),
    ),
    Mutant(
        "census: the early stop one edge too soon",
        "src/parsched/_scaling.py",
        "counts[i - 1] = min(hi - lo, cap)\n"
        "                if hi == n:\n"
        "                    break\n",
        "if hi == n:\n"
        "                    break\n"
        "                counts[i - 1] = min(hi - lo, cap)\n",
        ("tests/test_scaling.py",),
    ),
    Mutant(
        "A1State: a slot row used without its first-use copy",
        "src/parsched/a1.py",
        "left = self._left[cls - 1] = list(self.plan.n_star[cls - 1])",
        "left = self._left[cls - 1] = self.plan.n_star[cls - 1]",
        ("tests/test_a1.py::test_lanes_on_one_plan_copy_slot_rows_on_first_use",),
    ),
    Mutant(
        "A1State: a slot row copied again on every use",
        "src/parsched/a1.py",
        "        if left is None:\n            left = self._left[cls - 1] =",
        "        if True:\n            left = self._left[cls - 1] =",
        ("tests/test_a1.py::test_lanes_on_one_plan_copy_slot_rows_on_first_use",),
    ),
]


def run(mutant: Mutant) -> tuple[str, float]:
    """('killed' | 'survived' | 'error N', seconds) of one mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work)
        target = work / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: old text occurs {text.count(mutant.old)} times "
                             f"in {mutant.path}, not once")
        target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                *mutant.tests]
        start = time.monotonic()
        try:
            done = subprocess.run(argv, cwd=work, env=env, capture_output=True,
                                  timeout=TIME_LIMIT_S)
        except subprocess.TimeoutExpired:
            return "killed", time.monotonic() - start  # the tests did not pass in time
        outcome = {0: "survived", 1: "killed"}.get(done.returncode, f"error {done.returncode}")
        return outcome, time.monotonic() - start


def main() -> int:
    missed = 0
    for mutant in REGISTER:
        outcome, seconds = run(mutant)
        missed += outcome != "killed"
        print(f"{outcome:8} {seconds:6.1f} s  {mutant.name}", flush=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
