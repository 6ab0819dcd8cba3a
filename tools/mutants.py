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
not part of the tier-1 tests: each entry runs its own pytest process,
and CI runs the register as a step of its own.  A change that adds a
test against a fault adds the fault here.
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
    # Earlier faults that still apply: the wrapper's single rules.
    Mutant(
        "GuessLane.restart: the restart job tested against the guess's bounds",
        "src/parsched/wrapper.py",
        "self.place(job, q, scale, False, q)",
        "self.place(job, q, scale, True, q)",
        ("tests/test_wrapper.py::test_restart_job_passes_its_new_guess_caps",
         "tests/test_wrapper.py::test_lane_matches_eager_reference"),
    ),
    Mutant(
        "GuessLane._fail: the failing job not placed",
        "src/parsched/wrapper.py",
        "self.failed, self.fail_reason = True, reason\n        self.epoch.place_least(job.index, q)\n",
        "self.failed, self.fail_reason = True, reason\n",
        ("tests/test_wrapper.py::test_single_guess_wrapper",
         "tests/test_wrapper.py::test_lane_matches_eager_reference"),
    ),
    Mutant(
        "AStar._feed: only flagged lanes' epochs rescaled",
        "src/parsched/wrapper.py",
        "epochs.add(lane.epoch)",
        "epochs.add(lane.epoch) if lane.flagged else None",
        ("tests/test_wrapper.py::test_integer_wrapper_matches_fraction_reference",),
    ),
    Mutant(
        "Epoch.place_least: a shared epoch places the same job again",
        "src/parsched/wrapper.py",
        "if self.last == t:",
        "if False:",
        ("tests/test_wrapper.py::test_flagged_lane_matches_eager_reference",
         "tests/test_wrapper.py::test_flagged_lanes_match_stepped_inners"),
    ),
    Mutant(
        "_Stepped: the adapter records the first job offered, not the last",
        "src/parsched/wrapper.py",
        "        self.job = job\n        return self.inner.propose(job)",
        "        self.job = self.job or job\n        return self.inner.propose(job)",
        ("tests/test_wrapper.py::test_flagged_lanes_match_stepped_inners",
         "tests/test_wrapper.py::test_configuration_lanes_match_stepped_inners"),
    ),
    Mutant(
        "GuessLane.place: the job offered at scale 1, not the run's scale",
        "src/parsched/wrapper.py",
        "proposal = self._offer(job, q, scale)",
        "proposal = self._offer(job, q, 1)",
        ("tests/test_wrapper.py::test_survivor_exists_when_guess_covers_optimum",
         "tests/test_wrapper.py::test_wrapper_guarantee_small_planted"),
    ),
    # Earlier faults that still apply: the binding of a guess and the lanes.
    Mutant(
        "census: an edge rounded up, not down, in the per-edge branch",
        "src/parsched/_scaling.py",
        "hi = bisect_right(sizes, ladder[i] * num // den, lo)",
        "hi = bisect_right(sizes, -(-ladder[i] * num // den), lo)",
        ("tests/test_scaling.py", "tests/test_a1.py::test_classify_examples"),
    ),
    Mutant(
        "GuessLadder.rebind: no check that the scale is a common denominator",
        "src/parsched/_scaling.py",
        '        if rem:\n            raise ValueError("scale is not a common denominator of the thresholds")\n',
        "",
        ("tests/test_a1.py::test_rebound_lane_matches_lane_built_at_each_guess",),
    ),
    Mutant(
        "ScaledLane.offer: the cached ratio refreshed only when the lane scale grows",
        "src/parsched/_scaling.py",
        "                self._rescale(k)\n            self._ratio = self._scale // scale\n",
        "                self._rescale(k)\n                self._ratio = self._scale // scale\n",
        ("tests/test_a1.py::test_offer_at_driver_scale_matches_propose_record",
         "tests/test_a1.py::test_small_rule_tracks_virtual_plus_small"),
    ),
    Mutant(
        "ScaledLane.commit: every job committed as small",
        "src/parsched/_scaling.py",
        "self._put(cls, q, machine - 1)",
        "self._put(0, q, machine - 1)",
        ("tests/test_a1.py::test_step_follows_virtual_slots",
         "tests/test_a2.py::test_offer_at_driver_scale_matches_propose_record"),
    ),
    Mutant(
        "A1State: virtual loads times T's numerator, not rebound to the lane scale",
        "src/parsched/a1.py",
        "LeastLoaded([0] * m if zero else partition.rebind(self._scale, plan.loads))",
        "LeastLoaded([0] * m if zero else [x * partition.T.numerator for x in plan.loads])",
        ("tests/test_a1.py::test_integer_lane_matches_fraction_reference",),
    ),
    Mutant(
        "A1State: no check of the plan's accuracy",
        "src/parsched/a1.py",
        "if partition.eps is not plan.eps and partition.eps != plan.eps:",
        "if False:",
        ("tests/test_a1.py::test_lane_rejects_plan_of_another_accuracy",),
    ),
    Mutant(
        "A1Plans.get: a copy of the plan for each guess",
        "src/parsched/a1.py",
        "                self._built[vector, not exact] = plan\n        return plan\n",
        "                self._built[vector, not exact] = plan\n        return __import__(\"copy\").copy(plan)\n",
        ("tests/test_a1.py::test_plans_share_one_object_across_guesses",),
    ),
    Mutant(
        "add_equal: a merged load level not re-sorted",
        "src/parsched/core.py",
        "members[load] = sorted(have + group)",
        "members[load] = have + group",
        ("tests/test_core.py::test_add_equal_matches_one_add_per_job",),
    ),
    Mutant(
        "LeastLoaded.add: no heap push once the heap exists",
        "src/parsched/core.py",
        "            heappush(self._heap, (load, j))\n",
        "            pass\n",
        ("tests/test_core.py::test_least_loaded_matches_scan",),
    ),
    # The adversaries' one game.
    Mutant(
        "lb2_universe: the prune also cuts branches that fill every machine left",
        "src/parsched/adversary.py",
        "if not w * machines_left <= jobs_left <= 4 * h * machines_left:",
        "if not w * machines_left <= jobs_left < 4 * h * machines_left:",
        ("tests/test_adversary.py::test_universes",),
    ),
    Mutant(
        "lb2_check: profiles counted only as far as the victim count",
        "src/parsched/adversary.py",
        "lb2_universe(m - m % 2, h), k + 1)",
        "lb2_universe(m - m % 2, h), k)",
        ("tests/test_adversary.py",),
    ),
    Mutant(
        "game: a top-up job one wave job too small",
        "src/parsched/adversary.py",
        "feed([1 - cj * size for cj in c if cj * size < 1])",
        "feed([1 - (cj + 1) * size for cj in c if cj * size < 1])",
        ("tests/test_adversary.py",),
    ),
    Mutant(
        "game: top-up job j sent to machine j + 1",
        "src/parsched/adversary.py",
        "            witness.assign(j, job)\n        if witness.makespan() != 1:",
        "            witness.assign(j + 1, job)\n        if witness.makespan() != 1:",
        ("tests/test_adversary.py",),
    ),
    Mutant(
        "game: the early-stop wave all on machine 1, not dealt round-robin",
        "src/parsched/adversary.py",
        "witness.assign(1 + k % (m - len(prefix)), job)",
        "witness.assign(1, job)",
        ("tests/test_adversary.py::test_game_matches_first_written_adversaries",),
    ),
    Mutant(
        "cli: every victim built before the victim count is checked",
        "src/parsched/cli.py",
        "        makers = _victims(args.victim, args.m)\n",
        "        makers = [lambda v=make(): v for make in _victims(args.victim, args.m)]\n",
        ("tests/test_cli.py::test_adversary_refuses_victim_count_before_building_a_victim",),
    ),
    # Each targeted-lane rule stated once.
    Mutant(
        "a3 targeted factory: the guess's canonical u not capped at kappa",
        "src/parsched/harness.py",
        "u = tuple(min(params.kappa, x) for x in params.canonical_u(counts))",
        "u = params.canonical_u(counts)",
        ("tests/test_harness.py::test_a3_factory_falls_back_to_capped_canonical_u",),
    ),
    Mutant(
        "a3 targeted factory: the census branch at the inner eps, not the dispatch's",
        "src/parsched/harness.py",
        "return a1_targeted_factory(seq, choice.eps)",
        "return a1_targeted_factory(seq, eps_inner)",
        ("tests/test_harness.py::test_a3_factory_guess_matches_checked_guess_with_fallback",),
    ),
    Mutant(
        "plain census run: its lane's plan built with exact=False",
        "src/parsched/harness.py",
        "A1Plan.build(partition, seq.m, vector)",
        "A1Plan.build(partition, seq.m, vector, exact=False)",
        ("tests/test_harness.py::test_plain_a1_lane_matches_one_vector_family",),
    ),
    Mutant(
        "accuracy: eps = 1 refused",
        "src/parsched/rational.py",
        "if not 0 < eps <= 1:",
        "if not 0 < eps < 1:",
        ("tests/test_rational.py::test_accuracy_range",),
    ),
    Mutant(
        "cli: lb1 does not parse --epsilon",
        "src/parsched/cli.py",
        "        eps = _rot(args.epsilon)\n",
        "        eps = _rot(args.epsilon) if args.theorem == \"lb2\" else None\n",
        ("tests/test_cli.py::test_bad_input_fails_cleanly_for_every_command",),
    ),
    Mutant(
        "cli: a victim constructor's refusal does not name its lane",
        "src/parsched/cli.py",
        'raise ValueError(f"{where}: {exc}") from None',
        "raise",
        ("tests/test_cli.py::test_malformed_victim_files_fail_cleanly",),
    ),
    # Only what a run uses in the package; exact inputs only.
    Mutant(
        "AStar._inners: a factory with no lanes accepted",
        "src/parsched/wrapper.py",
        '            if not inners:\n                raise ValueError("inner factory returned no lanes")\n',
        "",
        ("tests/test_wrapper.py::test_factory_without_lanes_is_refused_at_the_first_job",),
    ),
    Mutant(
        "JobSequence.from_sizes: a float size let through",
        "src/parsched/core.py",
        "if type(s) not in (int, Fraction, str):",
        "if type(s) not in (int, float, Fraction, str):",
        ("tests/test_core.py::test_sequence_refuses_inexact_sizes",),
    ),
    Mutant(
        "Job: a float size accepted",
        "src/parsched/core.py",
        "if type(self.p) not in (Fraction, int):",
        "if type(self.p) not in (Fraction, int, float):",
        ("tests/test_core.py::test_job_validation",),
    ),
    Mutant(
        "default_lane_cap: a bool accepted as a lane cap",
        "src/parsched/core.py",
        "if type(lane_cap) is not int or lane_cap < 1:",
        "if not isinstance(lane_cap, int) or lane_cap < 1:",
        ("tests/test_core.py::test_default_lane_cap_takes_positive_ints_only",),
    ),
    Mutant(
        "oracle: a public function no run calls",
        "src/parsched/oracle.py",
        "\n\nclass SearchBudgetExceeded(RuntimeError):",
        "\n\ndef volume_bound(total, m):\n    return total / m\n\n\nclass SearchBudgetExceeded(RuntimeError):",
        ("tests/test_public_api.py::test_every_public_name_is_read_by_the_package",),
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
