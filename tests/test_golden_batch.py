"""Batch reports compared byte for byte with committed golden files.

Each file under ``golden/`` is the ``--jsonl`` report of

    parsched batch --algo ALGO [--epsilon EPS] --m M --instances 3 --jsonl FILE

named ``batch-ALGO[-epsEPS]-mM.jsonl`` (``1_2`` for ``1/2``).  A change that
is meant to keep every output must leave these bytes as they are; one
that changes outputs on purpose regenerates the files with the command
above and says which rows changed, and why.
"""

from pathlib import Path

import pytest

from parsched.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("list", None, 8), ("list", None, 256),
    ("a1", "1", 8), ("a1", "1", 256), ("a1", "1/2", 8), ("a1", "1/2", 256),
    ("a3", "1", 8), ("a3", "1", 256), ("a3", "1/2", 8), ("a3", "1/2", 256),
    ("a1star", "1", 8), ("a1star", "1", 256), ("a1star", "1/2", 8), ("a1star", "1/2", 256),
    ("a3star", "1", 8), ("a3star", "1", 256), ("a3star", "1/2", 8), ("a3star", "1/2", 256),
    ("a3star", "1", 1024),  # wrapped configuration lanes: m=1024 clears the inner threshold
]


def golden_name(algo, eps, m):
    tag = "" if eps is None else "-eps" + eps.replace("/", "_")
    return f"batch-{algo}{tag}-m{m}.jsonl"


def test_golden_files_are_the_cases():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(golden_name(*case) for case in CASES)


@pytest.mark.parametrize("algo, eps, m", CASES)
def test_batch_jsonl_matches_golden_bytes(tmp_path, capsys, algo, eps, m):
    out = tmp_path / "batch.jsonl"
    argv = ["batch", "--algo", algo, "--m", str(m), "--instances", "3", "--jsonl", str(out)]
    if eps is not None:
        argv += ["--epsilon", eps]
    assert main(argv) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / golden_name(algo, eps, m)).read_bytes()
