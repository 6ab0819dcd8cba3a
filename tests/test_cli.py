import json
from fractions import Fraction as F

import pytest

from parsched import cli
from parsched.a2 import A2State, a2_config_from_u, a2_params
from parsched.cli import main
from parsched.core import JobSequence
from parsched.harness import gen_planted
from parsched.rational import format_rational

from helpers import step


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


@pytest.mark.parametrize("count", [1, 2, 4])
def test_gen_equal_count_bounds_draw_one_count(tmp_path, capsys, count):
    """Equal --count-min and --count-max give every machine that count and
    draw no count, so the file is the one of the count passed on its own."""
    seq_path = tmp_path / "seq.json"
    assert main(["gen", "--m", "3", "--count-min", str(count), "--count-max", str(count),
                 "--denom", "12", "--seed", "7", "--out", str(seq_path)]) == 0
    capsys.readouterr()
    gen_planted(3, count, 12, seed=7).save(tmp_path / "want.json")
    assert seq_path.read_bytes() == (tmp_path / "want.json").read_bytes()


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
    assert (doc["live_lane"], doc["fill_violations"]) == (None, 0)  # no wrapper

    trace_path = tmp_path / "trace.jsonl"
    code, out = run_cli(capsys, "run", "--algo", "a1star", "--epsilon", "1",
                        "--input", str(seq_path), "--trace", str(trace_path),
                        "--check-lemmas")
    assert code == 0
    doc = json.loads(out)
    assert doc["lanes"] == 28
    assert (doc["live_lane"], doc["fill_violations"]) == (True, 0)
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
        step(lane, job)
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


@pytest.mark.parametrize("algo", ["list", "a1", "a1star"])
def test_run_rejects_bad_lane_cap_in_every_mode(tmp_path, capsys, algo):
    """A lane cap that is not a positive integer is bad input even where
    the run never reads it: targeted mode and list."""
    seq_path = tmp_path / "seq.json"
    JobSequence.from_sizes(2, ["1/2", "1/2"], F(1, 2)).save(seq_path)
    argv = ["run", "--algo", algo, "--epsilon", "1", "--input", str(seq_path)]
    for cap in ("0", "-5"):
        assert main(argv + ["--lane-cap", cap]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: lane cap (--lane-cap) must be a positive integer")
    assert main(argv + ["--lane-cap", "1"]) == 0


@pytest.mark.parametrize("algo", ["list", "a1star"])
def test_run_with_zero_optimum(tmp_path, capsys, algo):
    """An empty sequence may give its optimum as 0, and run then prints no
    ratio; a sequence with a job may not, and its file is bad input."""
    empty = tmp_path / "empty.json"
    empty.write_text('{"m": 2, "jobs": [], "opt": "0"}')
    code, out = run_cli(capsys, "run", "--algo", algo, "--epsilon", "1", "--input", str(empty))
    assert code == 0
    doc = json.loads(out)
    assert doc["opt"] == doc["makespan"] == format_rational(F(0))
    assert "ratio" not in doc
    zero = tmp_path / "zero.json"
    zero.write_text('{"m": 2, "jobs": ["1/2"], "opt": "0"}')
    assert main(["run", "--algo", algo, "--epsilon", "1", "--input", str(zero)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f'error: {zero}: "opt": must be positive')


def test_batch_rejects_bad_lane_cap_cleanly(monkeypatch, capsys):
    monkeypatch.setenv("PARSCHED_LANE_CAP", "abc")
    assert main(["batch", "--algo", "a1", "--epsilon", "1", "--m", "2", "--mode", "full"]) == 2
    assert "error: PARSCHED_LANE_CAP" in capsys.readouterr().err


def test_batch_reports_family_above_lane_cap_cleanly(monkeypatch, capsys):
    monkeypatch.setenv("PARSCHED_LANE_CAP", "1")
    assert main(["batch", "--algo", "a1", "--epsilon", "1", "--m", "2", "--mode", "full"]) == 2
    assert "above the cap 1" in capsys.readouterr().err


@pytest.mark.parametrize("name,text,reason", [
    ("invalid_json", '{"m": 2, "jobs": [', "Expecting value"),
    ("missing_m", '{"jobs": ["1/2"]}', 'missing "m"'),
    ("bad_job", '{"m": 2, "jobs": ["1/2", "abc"]}', "jobs[1]: not a nonnegative rational"),
    ("zero_job", '{"m": 2, "jobs": ["0"]}', "jobs[0]: must be positive"),
    ("zero_opt", '{"m": 2, "jobs": ["1/2"], "opt": "0"}', '"opt": must be positive'),
    ("float_job", '{"m": 2, "jobs": [0.1]}', "jobs[0]: expected an integer or a string"),
    ("bool_job", '{"m": 2, "jobs": ["1/2", true]}', "jobs[1]: expected an integer or a string"),
    ("missing_file", None, "No such file or directory"),
])
def test_malformed_sequence_files_fail_cleanly(tmp_path, capsys, name, text, reason):
    """run and oracle report a malformed or missing sequence file as
    `error: <path>: <reason>` with exit 2, not a traceback."""
    path = tmp_path / f"{name}.json"
    if text is not None:
        path.write_text(text)
    for argv in (["run", "--algo", "list"], ["oracle"]):
        assert main([*argv, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ")
        assert reason in captured.err


@pytest.mark.parametrize("argv, reason", [
    ("gen --m 2 --denom 1 --out {out}", "denominator must be at least 2"),
    ("gen --m 0 --out {out}", "machine count must be positive"),
    ("gen --m 2 --count-min 3 --count-max 1 --out {out}", "empty count range 3..1"),
    ("batch --algo list --m 2 --count-min 3 --count-max 1 --jsonl {out}",
     "empty count range 3..1"),
    ("batch --algo list --m 2 --instances -1 --jsonl {out}",
     "instance count must be nonnegative, got -1"),
    ("params --epsilon 2 --m 256", "eps must lie in (0, 1]"),
    # Wrapped runs halve eps for their inner lanes; eps itself must still be at most 1.
    ("batch --algo a1star --epsilon 2 --m 3 --instances 1 --jsonl {out}",
     "eps must lie in (0, 1]"),
    ("batch --algo a3star --epsilon 3/2 --m 3 --instances 1 --jsonl {out}",
     "eps must lie in (0, 1]"),
    ("adversary --theorem lb1 --m 6 --victim list:abc --out {out}", "got 'abc'"),
    ("adversary --theorem lb1 --m 6 --victim list:0 --out {out}", "need at least one victim"),
    ("adversary --theorem lb1 --m 6 --victim file:{missing} --out {out}",
     "No such file or directory"),
    ("oracle --cap 3 --input {seq}", "exceeds the search cap 3"),
    ("oracle --cap -1 --input {seq}", "search cap (--cap) must be nonnegative, got -1"),
    # Whether a zero least numerator yields a zero-size job depends on the seed.
    *((f"gen --m 3 --denom 4 --min-num 0 --seed {seed} --out {{out}}",
       "(--min-num) must be at least 1, got 0") for seed in range(4)),
    ("gen --m 3 --denom 4 --min-num -1 --out {out}", "(--min-num) must be at least 1, got -1"),
    ("gen --m 3 --verify-cap -1 --out {out}", "(--verify-cap) must be nonnegative, got -1"),
    # Whether a count range draws an infeasible count depends on the seed.
    *((f"gen --m 2 --count-min 0 --count-max 3 --seed {seed} --out {{out}}",
       "count range 0..3 (--count-min..--count-max)") for seed in range(6)),
    *((f"gen --m 4 --count-min 1 --count-max 60 --denom 48 --seed {seed} --out {{out}}",
       "count range 1..60 (--count-min..--count-max)") for seed in range(3)),
    ("batch --algo list --m 2 --count-min 0 --count-max 3 --jsonl {out}",
     "count range 0..3 (--count-min..--count-max)"),
    # Equal bounds are one count, refused as the range c..c whatever the seed.
    *((f"gen --m 2 --count-min {c} --count-max {c} --denom 48 --seed {seed} --out {{out}}",
       f"count range {c}..{c} (--count-min..--count-max)") for c in (0, 60) for seed in range(3)),
    *((f"batch --algo list --m 2 --count-min {c} --count-max {c} --seed {seed} --jsonl {{out}}",
       f"count range {c}..{c} (--count-min..--count-max)") for c in (0, 60) for seed in range(2)),
])
def test_bad_input_fails_cleanly_for_every_command(tmp_path, capsys, argv, reason):
    """Bad input to any command is `error: ...` with exit 2, not a traceback."""
    seq_path = tmp_path / "seq.json"
    JobSequence.from_sizes(2, [1] * 4).save(seq_path)
    out_path = tmp_path / "out.json"
    argv = argv.format(out=out_path, seq=seq_path, missing=tmp_path / "missing.json").split()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert reason in captured.err
    assert not out_path.exists()


@pytest.mark.parametrize("doc, reason", [
    ({"victims": []}, 'missing "lanes" list'),
    ([{"kind": "stack"}], 'missing "lanes" list'),
    ({"lanes": {"kind": "stack"}}, 'missing "lanes" list'),
    ({"lanes": [{"machine": 1}]}, 'lanes[0]: missing "kind"'),
    ({"lanes": [{"kind": "stack"}, "random"]}, 'lanes[1]: missing "kind"'),
    ({"lanes": [{"kind": "list", "perm": 5}]}, "lanes[0].perm: expected a list of machine numbers"),
    ({"lanes": [{"kind": "list", "perm": [1, "2", 3, 4, 5, 6]}]}, "lanes[0].perm: expected a list"),
    ({"lanes": [{"kind": "stack", "machine": "1"}]}, "lanes[0].machine: expected an integer"),
    ({"lanes": [{"kind": "stack", "machine": 1.5}]}, "lanes[0].machine: expected an integer"),
    ({"lanes": [{"kind": "random", "seed": True}]}, "lanes[0].seed: expected an integer"),
    ({"lanes": [{"kind": "random", "seed": [3]}]}, "lanes[0].seed: expected an integer"),
    ({"lanes": [{"kind": "greedy"}]}, "lanes[0]: unknown victim kind 'greedy'"),
])
def test_malformed_victim_files_fail_cleanly(tmp_path, capsys, doc, reason):
    """A `file:` victim strategy of the wrong shape is `error: <path>: ...`
    with exit 2, not a KeyError or TypeError traceback."""
    strategy = tmp_path / "strat.json"
    strategy.write_text(json.dumps(doc))
    out_path = tmp_path / "x.json"
    argv = ["adversary", "--theorem", "lb1", "--m", "6", "--victim", f"file:{strategy}",
            "--out", str(out_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {strategy}: ")
    assert reason in captured.err
    assert not out_path.exists()


def test_victim_file_defaults_and_null_perm(tmp_path, capsys):
    """Lanes may leave out `perm`, `machine` and `seed`, or give a null `perm`."""
    strategy = tmp_path / "strat.json"
    for lane in ({"kind": "list", "perm": None}, {"kind": "list", "perm": [6, 5, 4, 3, 2, 1]},
                 {"kind": "stack"}, {"kind": "random"}):
        strategy.write_text(json.dumps({"lanes": [lane]}))
        code, _ = run_cli(capsys, "adversary", "--theorem", "lb1", "--m", "6",
                          "--victim", f"file:{strategy}", "--out", str(tmp_path / "x.json"))
        assert code == 0, lane


@pytest.mark.parametrize("theorem, m, victim, most", [
    ("lb1", 2000, "list:2000", None),
    ("lb1", 6, "list:3", 2),
    ("lb1", 9, "file:{stacks}", 3),
    ("lb2", 4, "list:2", 1),  # m = 4 at eps 1/4 has two profiles
    ("lb2", 5, "file:{stacks}", 1),
])
def test_adversary_refuses_victim_count_before_building_a_victim(
        tmp_path, capsys, monkeypatch, theorem, m, victim, most):
    """Too many victims exit 2 with the theorem's own message, and no
    victim is constructed first (K list victims would cost K*m memory).
    The most victims the theorem covers are each built once."""
    built = []
    for name in ("ListScheduler", "StackScheduler"):
        kind = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, kind=kind: built.append(a) or kind(*a))
    stacks = tmp_path / "stacks.json"
    stacks.write_text(json.dumps({"lanes": [{"kind": "stack", "machine": j} for j in (1, 2, 3, 4)]}))
    out_path = tmp_path / "x.json"
    argv = ["adversary", "--theorem", theorem, "--m", str(m), "--epsilon", "1/4",
            "--victim", victim.format(stacks=stacks), "--out", str(out_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: too many schedules: the adversary guarantee is void\n"
    assert built == [] and not out_path.exists()
    if most is not None:
        argv[argv.index("--victim") + 1] = f"list:{most}"
        assert main(argv) == 0
        capsys.readouterr()
        assert len(built) == most


def test_run_refusals_reach_the_command_line(tmp_path, capsys):
    """A census lane with no rule under --check-lemmas is an invariant
    violation (exit 1); a wrapped full run over configuration lanes is bad
    input (exit 2)."""
    seq_path = tmp_path / "seq.json"
    seq_path.write_text(json.dumps({"m": 2, "jobs": ["2"]}))
    assert main(["run", "--algo", "a1", "--epsilon", "1", "--assumed-opt", "1", "--mode", "full",
                 "--check-lemmas", "--input", str(seq_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("invariant violated: census lane had no rule; "
                            "assumed optimum too small\n")

    gen_planted(1024, 1, 2).save(seq_path)
    assert main(["run", "--algo", "a3star", "--epsilon", "1", "--mode", "full",
                 "--input", str(seq_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: full mode wrapping is only supported for census lanes\n"
