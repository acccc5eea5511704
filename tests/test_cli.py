"""End-to-end checks for the `meg` command-line interface."""

import json

import pytest

from meg.cli import build_parser, main

HAPPY = {
    "n": 3,
    "f": 0,
    "guarantee": "Reliable",
    "delay": [1, 5],
    "drop": 0.0,
    "duplicate": 0.0,
    "partitions": [],
    "adversary": None,
    "rounds": 2,
    "updates_per_round": 2,
    "d": 2,
    "dummy_threshold": 0,
    "dummy_d": 10,
    "gossip_period": 0,
    "horizon": 150,
    "grace": 30,
    "seed": 7,
}


def write_scenario(tmp_path, name="happy3.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps({**HAPPY, **overrides}))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- width analytics --------------------------------------------------------------


def test_width_expect_golden(capsys):
    code, out, _ = run(capsys, "width", "expect", "--u0", "6", "--d", "2", "--k", "3", "--rounds", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "round,mean_width,stddev_removal"
    assert lines[1] == "0,6,0.7329965557"  # sqrt(1088/2025), exact-pmf cross-check
    assert lines[2] == "1,4.777777778,0.6534405213"


def test_width_pmf_golden(capsys):
    code, out, _ = run(capsys, "width", "pmf", "--u", "4", "--d", "2", "--k", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "j,probability"
    assert lines[1:] == ["2,0.1666666667", "3,0.6666666667", "4,0.1666666667"]


def test_width_rounds_grid(capsys):
    code, out, _ = run(capsys, "width", "rounds", "--d", "2..4", "--k", "3", "--u0-mult", "10")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "d,k,rounds"
    assert len(lines) == 4
    assert lines[1] == "2,3,12"


def test_width_montecarlo_shape(capsys):
    code, out, _ = run(
        capsys,
        "width", "montecarlo",
        "--u0", "20", "--d", "2", "--k", "3", "--rounds", "2",
        "--trials", "50", "--seed", "1",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "round,mean_width,lo95,hi95"
    assert len(lines) == 4
    assert lines[1].startswith("0,20,")


def test_width_writes_artifact(tmp_path, capsys):
    code, out, err = run(
        capsys,
        "width", "pmf", "--u", "4", "--d", "2", "--k", "2", "--out", str(tmp_path),
    )
    assert code == 0
    artifact = tmp_path / "pmf-u4-d2-k2.csv"
    assert artifact.read_text() == out
    assert "wrote" in err


# -- sim ---------------------------------------------------------------------------


def test_sim_happy_path(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    out_dir = tmp_path / "artifacts"
    code, out, _ = run(capsys, "sim", "--scenario", str(scenario), "--out", str(out_dir))
    assert code == 0
    assert "strong_convergence=True" in out
    assert "eventual_delivery=True" in out
    assert (out_dir / "happy3-seed7-width.csv").exists()
    assert (out_dir / "happy3-seed7-trace.tsv").exists()


def test_sim_seed_override_names_artifacts(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    out_dir = tmp_path / "artifacts"
    code, _, _ = run(
        capsys, "sim", "--scenario", str(scenario), "--seed", "9", "--out", str(out_dir)
    )
    assert code == 0
    assert (out_dir / "happy3-seed9-width.csv").exists()


def test_sim_reruns_are_byte_identical(tmp_path, capsys):
    scenario = write_scenario(tmp_path)
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code, _, _ = run(capsys, "sim", "--scenario", str(scenario), "--out", str(d))
        assert code == 0
    for name in ("happy3-seed7-width.csv", "happy3-seed7-trace.tsv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_sim_verdict_failure_exits_one(tmp_path, capsys):
    scenario = write_scenario(
        tmp_path, name="cramped.json", delay=[1, 100], rounds=3, horizon=30
    )
    code, out, _ = run(capsys, "sim", "--scenario", str(scenario), "--out", str(tmp_path / "x"))
    assert code == 1
    assert "termination=False" in out


def test_sim_missing_scenario_exits_two(tmp_path, capsys):
    code, _, err = run(capsys, "sim", "--scenario", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error" in err.lower()


def test_sim_invalid_scenario_exits_two(tmp_path, capsys):
    scenario = write_scenario(tmp_path, name="bad.json", guarantee="Sometimes")
    code, _, err = run(capsys, "sim", "--scenario", str(scenario))
    assert code == 2
    assert "guarantee" in err


def test_sim_out_of_range_replica_exits_two(tmp_path, capsys):
    equivocate = {"kind": "equivocate", "subset_a": [7], "subset_b": [1], "at_round": 0}
    adversary = {"byzantine": [2], "behaviors": [equivocate]}
    scenario = write_scenario(tmp_path, name="stray.json", f=1, adversary=adversary)
    code, _, err = run(capsys, "sim", "--scenario", str(scenario), "--out", str(tmp_path))
    assert code == 2
    assert "out of range" in err


def test_sim_malformed_scenario_exits_two(tmp_path, capsys):
    scenario = tmp_path / "five.json"
    scenario.write_text("5")
    code, _, err = run(capsys, "sim", "--scenario", str(scenario))
    assert code == 2
    assert "malformed scenario" in err


# -- argument errors ---------------------------------------------------------------


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_missing_required_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["width", "expect", "--u0", "6"])
    assert exc.value.code == 2


def test_bad_range_exits_two(capsys):
    code, _, err = run(capsys, "width", "rounds", "--d", "5..2", "--k", "3")
    assert code == 2
    assert "range" in err


def test_bad_domain_exits_two(capsys):
    code, _, err = run(capsys, "width", "expect", "--u0", "6", "--d", "1", "--k", "3", "--rounds", "1")
    assert code == 2
    assert "d must be" in err


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["width", "rounds", "--d", "2..10", "--k", "10", "--u0-mult", "100"])
    assert args.u0_mult == 100


# -- verify ------------------------------------------------------------------------


def test_verify_urn_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "urn")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines
    assert all(line.startswith("PASS [urn] ") for line in lines)


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = out.strip().split("\n")
    assert all(line.startswith("PASS") for line in lines)
    suites = {line.split("[", 1)[1].split("]", 1)[0] for line in lines}
    assert suites == {"urn", "lemmas", "sec"}
