import json
from fractions import Fraction as F

from parsched.a2 import A2State, a2_config_from_u, a2_params
from parsched.cli import main
from parsched.core import JobSequence
from parsched.rational import format_rational


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def test_gen_and_oracle(tmp_path, capsys):
    seq_path = tmp_path / "seq.json"
    code, out = run_cli(capsys, "gen", "--m", "3", "--count-min", "2", "--count-max", "2",
                        "--denom", "12", "--seed", "4", "--out", str(seq_path))
    assert code == 0
    assert json.loads(out) == {"m": 3, "n": 6, "opt": "1/1"}
    seq = JobSequence.load(seq_path)
    assert seq.total() == 3

    code, out = run_cli(capsys, "oracle", "--input", str(seq_path))
    assert code == 0
    assert json.loads(out) == {"opt": "1/1"}


def test_run_subcommand(tmp_path, capsys):
    seq_path = tmp_path / "seq.json"
    run_cli(capsys, "gen", "--m", "2", "--count-min", "2", "--count-max", "3",
            "--denom", "24", "--seed", "9", "--out", str(seq_path))
    code, out = run_cli(capsys, "run", "--algo", "a1", "--epsilon", "1",
                        "--assumed-opt", "1", "--mode", "full",
                        "--input", str(seq_path), "--check-lemmas")
    assert code == 0
    doc = json.loads(out)
    assert doc["lanes"] == 25
    assert F(*map(int, doc["ratio"].split("/"))) <= 2

    trace_path = tmp_path / "trace.jsonl"
    code, out = run_cli(capsys, "run", "--algo", "a1star", "--epsilon", "1",
                        "--input", str(seq_path), "--trace", str(trace_path),
                        "--check-lemmas")
    assert code == 0
    doc = json.loads(out)
    assert doc["lanes"] == 28
    events = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert {e["event"] for e in events} >= {"init"}


def test_adversary_subcommand(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out = run_cli(capsys, "adversary", "--theorem", "lb1", "--m", "6",
                        "--victim", "list:2", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert F(*map(int, doc["forced_ratio"].split("/"))) >= F(4, 3)
    assert doc["opt"] == "1/1"

    strategy = tmp_path / "strategy.json"
    strategy.write_text(json.dumps({"lanes": [
        {"kind": "stack", "machine": 1},
        {"kind": "random", "seed": 3},
    ]}))
    code, out = run_cli(capsys, "adversary", "--theorem", "lb2", "--m", "8",
                        "--epsilon", "1/4", "--victim", f"file:{strategy}",
                        "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert F(*map(int, doc["forced_makespan"].split("/"))) >= F(5, 4)


def test_params_subcommand(capsys):
    code, out = run_cli(capsys, "params", "--algo", "a2", "--epsilon", "1", "--m", "256")
    assert code == 0
    doc = json.loads(out)
    assert doc["mu"] == 231 and doc["kappa"] == 60 and doc["m0"] == 8
    assert doc["family_size"] == 226_981
    assert doc["a"] == ["7/12", "5/8"] and doc["b"] == ["5/8", "7/6"]


def test_batch_subcommand(tmp_path, capsys):
    jsonl = tmp_path / "rows.jsonl"
    csv_path = tmp_path / "rows.csv"
    code, out = run_cli(capsys, "batch", "--algo", "list", "--m", "3",
                        "--instances", "3", "--denom", "12",
                        "--jsonl", str(jsonl), "--csv", str(csv_path))
    assert code == 0
    assert json.loads(out) == {"instances": 3}
    assert len(jsonl.read_text().splitlines()) == 3
    assert csv_path.read_text().splitlines()[0].startswith("instance_id,")


def test_run_reports_bad_guess_cleanly(tmp_path, capsys):
    seq_path = tmp_path / "seq.json"
    run_cli(capsys, "gen", "--m", "2", "--count-min", "2", "--count-max", "2",
            "--denom", "8", "--seed", "1", "--out", str(seq_path))
    code = main(["run", "--algo", "a1", "--epsilon", "1",
                 "--assumed-opt", "1/100", "--input", str(seq_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_run_full_a2_without_reserve_machines(tmp_path, capsys):
    """At m=8, eps=1 the core is every machine and m0 is 0, so every lane has
    the empty layout; the sweep must complete like A2State does."""
    seq_path = tmp_path / "seq.json"
    run_cli(capsys, "gen", "--m", "8", "--count-min", "2", "--count-max", "2",
            "--denom", "12", "--seed", "5", "--out", str(seq_path))
    code, out = run_cli(capsys, "run", "--algo", "a2", "--mode", "full", "--epsilon", "1",
                        "--input", str(seq_path))
    assert code == 0
    params = a2_params(F(1), 8, F(1))
    assert (params.mu, params.m0) == (8, 0)
    lane = A2State(a2_config_from_u(params, (0, 0, 0)))
    for job in JobSequence.load(seq_path):
        lane.step(job)
    doc = json.loads(out)
    assert doc["lanes"] == 226_981 and doc["best_label"] == 0
    assert doc["makespan"] == format_rational(max(lane.loads))


def test_run_rejects_bad_lane_caps(tmp_path, capsys, monkeypatch):
    seq_path = tmp_path / "seq.json"
    run_cli(capsys, "gen", "--m", "2", "--count-min", "2", "--count-max", "2",
            "--denom", "8", "--seed", "1", "--out", str(seq_path))
    argv = ["run", "--algo", "a1", "--epsilon", "1", "--mode", "full", "--input", str(seq_path)]
    for cap in ("0", "-5"):
        assert main(argv + ["--lane-cap", cap]) == 2
        assert "--lane-cap" in capsys.readouterr().err
    for raw in ("abc", "0", "-5", "1.5", ""):
        monkeypatch.setenv("PARSCHED_LANE_CAP", raw)
        assert main(argv) == 2
        assert "PARSCHED_LANE_CAP" in capsys.readouterr().err
    monkeypatch.setenv("PARSCHED_LANE_CAP", "25")
    assert main(argv) == 0  # the family has exactly 25 lanes
    monkeypatch.setenv("PARSCHED_LANE_CAP", "24")
    assert main(argv) == 2
