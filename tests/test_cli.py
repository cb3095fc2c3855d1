"""Command-line interface: subcommands, outputs, exit codes."""

import json

import pytest

from fifosim.cli import main


def test_bounds_prints_value(capsys):
    assert main(["bounds", "--id", "LB_PUSHOUT_KGEB", "--buffer", "10"]) == 0
    assert capsys.readouterr().out.strip() == "1.8"


def test_bounds_npo_k(capsys):
    assert main(["bounds", "--id", "NPO_TIGHT_K", "--k", "5"]) == 0
    assert capsys.readouterr().out.strip() == "5"


def test_bounds_unknown_id_is_usage_error(capsys):
    assert main(["bounds", "--id", "WHAT"]) == 2
    assert "error" in capsys.readouterr().err


def test_simulate_missing_file_names_path(capsys):
    code = main(["simulate", "--trace", "/no/such/file.jsonl", "--policy", "po", "--buffer", "4"])
    assert code == 2
    assert "/no/such/file.jsonl" in capsys.readouterr().err


def test_gen_and_simulate_round_trip(tmp_path, capsys):
    out = tmp_path / "kgeb.jsonl"
    assert main([
        "gen", "--construction", "KGEB", "--buffer", "10", "--k", "10",
        "--periods", "2", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    assert main(["simulate", "--trace", str(out), "--policy", "po", "--buffer", "10"]) == 0
    line = capsys.readouterr().out
    assert "transmitted=20" in line


def test_simulate_malformed_trace_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"k": 2, "generator": "g", "params": {}, "seed": 0}\n{"slot": 1}\n')
    assert main(["simulate", "--trace", str(path), "--policy", "po", "--buffer", "4"]) == 2
    assert "line 2" in capsys.readouterr().err
    path.write_text('{"k": null, "generator": "g", "params": {}, "seed": 0}\n{"slot": 1, "work": 1}\n')
    assert main(["simulate", "--trace", str(path), "--policy", "po", "--buffer", "4"]) == 2
    assert "line 1" in capsys.readouterr().err


def test_simulate_events_flag(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    main(["gen", "--construction", "PO_VS_LPO", "--buffer", "2", "--out", str(out)])
    capsys.readouterr()
    assert main(["simulate", "--trace", str(out), "--policy", "lpo", "--buffer", "2", "--events"]) == 0
    assert "slot 1:" in capsys.readouterr().out


def test_gen_mmpp(tmp_path, capsys):
    out = tmp_path / "m.jsonl"
    assert main(["gen", "--mmpp", "--slots", "500", "--k", "3", "--seed", "9", "--out", str(out)]) == 0
    header = json.loads(out.read_text().splitlines()[0])
    assert header["k"] == 3 and header["generator"] == "mmpp"


def test_gen_rejects_bad_construction_params(capsys):
    code = main(["gen", "--construction", "KGEB", "--buffer", "10", "--k", "3", "--out", "/tmp/x"])
    assert code == 2
    assert "k >= B" in capsys.readouterr().err


def test_unknown_policy_is_usage_error(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    main(["gen", "--construction", "KGEB", "--buffer", "10", "--k", "10", "--out", str(out)])
    capsys.readouterr()
    assert main(["simulate", "--trace", str(out), "--policy", "magic", "--buffer", "10"]) == 2


def test_sweep_writes_outputs(tmp_path, capsys):
    prefix = str(tmp_path / "sw_")
    code = main([
        "sweep", "--param", "k", "--range", "1:3:2", "--buffer", "4", "--cores", "1",
        "--slots", "800", "--runs", "2", "--seed", "5", "--out", prefix,
    ])
    assert code == 0
    assert (tmp_path / "sw_results.csv").exists()
    assert (tmp_path / "sw_manifest.json").exists()
    assert (tmp_path / "sw_srpt.dat").exists()


def test_sweep_bad_range(capsys):
    assert main(["sweep", "--param", "k", "--range", "5", "--out", "/tmp/x_"]) == 2


def test_verify_micro_exit_zero(capsys):
    assert main(["verify", "--suite", "micro", "--count", "10", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")
    assert "1/1 checks passed" in out


def test_verify_bad_suite_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--id", "NPO_TIGHT_K", "--frobnicate"])
    assert exc.value.code == 2
