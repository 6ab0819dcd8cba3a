"""Batch reports compared byte for byte with committed golden files.

Each file under ``golden/`` is the ``--jsonl`` report of

    parsched batch --algo ALGO [--epsilon EPS] --m M [--mode MODE] --instances 3 --jsonl FILE

named ``batch-ALGO[-epsEPS]-mM[-MODE].jsonl`` (``1_2`` for ``1/2``).  A change that
is meant to keep every output must leave these bytes as they are; one
that changes outputs on purpose regenerates the files with the command
above and says which rows changed, and why.

The ``gen-m8-order-ORDER.json`` files are the instance files of

    parsched gen --m 8 --count-min 1 --count-max 4 --denom 48 --seed 3 --order ORDER --out FILE

one per arrival order, held to the same rule.
"""

from pathlib import Path

import pytest

from parsched.cli import main
from parsched.harness import ORDERS

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("list", None, 8), ("list", None, 256),
    ("a1", "1", 8), ("a1", "1", 256), ("a1", "1/2", 8), ("a1", "1/2", 256),
    ("a3", "1", 8), ("a3", "1", 256), ("a3", "1/2", 8), ("a3", "1/2", 256),
    ("a1star", "1", 8), ("a1star", "1", 256), ("a1star", "1/2", 8), ("a1star", "1/2", 256),
    ("a1star", "1/3", 8),  # eps' = 1/12: most wrapped census lanes start below unit*T.denominator
    ("a1star", "1/16", 8),  # small eps: 269 census classes (inner 1/32), suffixes of <= 16 jobs
    ("a3star", "1", 8), ("a3star", "1", 256), ("a3star", "1/2", 8), ("a3star", "1/2", 256),
    ("a3star", "1", 1024),  # wrapped configuration lanes: m=1024 clears the inner threshold
    ("a1", "1", 8, "full"),  # all 289 census vectors, each with an LPT plan
]


def golden_name(algo, eps, m, mode=None):
    tag = "" if eps is None else "-eps" + eps.replace("/", "_")
    return f"batch-{algo}{tag}-m{m}{'' if mode is None else '-' + mode}.jsonl"


def gen_golden_name(order):
    return f"gen-m8-order-{order}.json"


def test_golden_files_are_the_cases():
    want = [golden_name(*case) for case in CASES] + [gen_golden_name(order) for order in ORDERS]
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(want)


@pytest.mark.parametrize("case", CASES, ids=lambda case: "-".join(map(str, case)))
def test_batch_jsonl_matches_golden_bytes(tmp_path, capsys, case):
    algo, eps, m, *mode = case
    out = tmp_path / "batch.jsonl"
    argv = ["batch", "--algo", algo, "--m", str(m), "--instances", "3", "--jsonl", str(out)]
    if eps is not None:
        argv += ["--epsilon", eps]
    if mode:
        argv += ["--mode", *mode]
    assert main(argv) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / golden_name(*case)).read_bytes()


@pytest.mark.parametrize("order", ORDERS)
def test_gen_file_matches_golden_bytes(tmp_path, capsys, order):
    out = tmp_path / "seq.json"
    argv = ["gen", "--m", "8", "--count-min", "1", "--count-max", "4", "--denom", "48",
            "--seed", "3", "--order", order, "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / gen_golden_name(order)).read_bytes()
