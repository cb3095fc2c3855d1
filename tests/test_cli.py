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


def test_simulate_directory_trace_names_path(tmp_path, capsys):
    assert main(["simulate", "--trace", str(tmp_path), "--policy", "po", "--buffer", "4"]) == 2
    assert str(tmp_path) in capsys.readouterr().err


def test_gen_and_simulate_round_trip(tmp_path, capsys):
    out = tmp_path / "kgeb.jsonl"
    assert main([
        "gen", "--construction", "KGEB", "--buffer", "10", "--k", "10",
        "--periods", "2", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    assert main(["simulate", "--trace", str(out), "--policy", "po", "--buffer", "10"]) == 0
    assert capsys.readouterr().out == (
        "policy=po B=10 C=1 final_slot=36 transmitted=20 dropped=16 pushed_out=2 admitted=22\n"
    )


def test_simulate_malformed_trace_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"k": 2, "generator": "g", "params": {}, "seed": 0}\n{"slot": 1}\n')
    assert main(["simulate", "--trace", str(path), "--policy", "po", "--buffer", "4"]) == 2
    assert "line 2" in capsys.readouterr().err
    path.write_text('{"k": null, "generator": "g", "params": {}, "seed": 0}\n{"slot": 1, "work": 1}\n')
    assert main(["simulate", "--trace", str(path), "--policy", "po", "--buffer", "4"]) == 2
    assert "line 1" in capsys.readouterr().err
    path.write_bytes(b"\xff\xfe")  # not UTF-8
    assert main(["simulate", "--trace", str(path), "--policy", "po", "--buffer", "4"]) == 2
    assert str(path) in capsys.readouterr().err


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


def test_gen_unwritable_out_names_path(tmp_path, capsys):
    for out in (tmp_path, tmp_path / "missing" / "x.jsonl"):
        code = main(["gen", "--mmpp", "--slots", "50", "--k", "3", "--out", str(out)])
        assert code == 2
        assert str(out) in capsys.readouterr().err


def test_gen_too_large_to_allocate_is_usage_error(tmp_path, capsys, monkeypatch):
    # numpy raises MemoryError when it refuses an allocation; a real one of
    # that size could instead be killed on a host that overcommits memory
    def refuse(*args):
        raise MemoryError("Unable to allocate 608. TiB for an array with shape (83560000000000,)")

    monkeypatch.setattr("fifosim.cli.gen_mmpp", refuse)
    out = tmp_path / "m.jsonl"
    assert main(["gen", "--mmpp", "--slots", "1000", "--k", "5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 608. TiB for an array with shape (83560000000000,)\n"
    assert not out.exists()


def test_gen_rejects_bad_construction_params(capsys):
    code = main(["gen", "--construction", "KGEB", "--buffer", "10", "--k", "3", "--out", "/tmp/x"])
    assert code == 2
    assert "k >= B" in capsys.readouterr().err
    level = ["gen", "--construction", "KGEB", "--buffer", "10", "--k", "10", "--level", "1", "--out", "/tmp/x"]
    assert main(level) == 2
    assert "KGEB takes no level" in capsys.readouterr().err
    # a generator's required size: --slots for mmpp, --buffer for a construction
    assert main(["gen", "--mmpp", "--k", "3", "--out", "/tmp/x"]) == 2
    assert "needs --slots" in capsys.readouterr().err
    assert main(["gen", "--mmpp", "--slots", "10", "--k", "3", "--lambda-off", "nan", "--out", "/tmp/x"]) == 2
    assert "lambda_off must be finite" in capsys.readouterr().err
    assert main(["gen", "--construction", "KGEB", "--out", "/tmp/x"]) == 2
    assert "needs --buffer" in capsys.readouterr().err


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


def test_sweep_missing_out_directory_fails_before_running(tmp_path, capsys, monkeypatch):
    import fifosim.cli

    def no_sweep(config):
        raise AssertionError("the sweep ran before the --out check")

    monkeypatch.setattr(fifosim.cli, "sweep", no_sweep)
    prefix = str(tmp_path / "missing" / "k_")
    code = main(["sweep", "--param", "k", "--range", "1:2", "--slots", "100", "--runs", "1", "--out", prefix])
    assert code == 2
    assert prefix in capsys.readouterr().err


def test_sweep_bad_point_or_repeated_policy_is_usage_error(capsys, monkeypatch):
    import fifosim.cli

    def no_sweep(config):
        raise AssertionError("the sweep ran on an invalid config")

    monkeypatch.setattr(fifosim.cli, "sweep", no_sweep)
    base = ["sweep", "--slots", "100", "--runs", "1", "--out", "/tmp/x_"]
    for extra in (
        ["--param", "k", "--range", "1:2", "--buffer", "0"],
        ["--param", "k", "--range", "1:2", "--cores", "0"],
        ["--param", "k", "--range", "0:3"],
        ["--param", "C", "--range", "0:2"],
        ["--param", "k", "--range", "1:2", "--policies", "npo,npo"],
        ["--param", "k", "--range", "1:2", "--policies", ","],  # no ids at all
    ):
        assert main(base + extra) == 2, extra
        assert "error" in capsys.readouterr().err


def test_sweep_bad_range(capsys):
    for spec in ("5", "5:3", "1:5:0"):
        assert main(["sweep", "--param", "k", "--range", spec, "--out", "/tmp/x_"]) == 2


def test_verify_micro_exit_zero(capsys):
    assert main(["verify", "--suite", "micro", "--count", "10", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")
    assert "1/1 checks passed" in out


def test_verify_constructions_exit_zero(capsys):
    assert main(["verify", "--suite", "constructions"]) == 0
    assert "14/14 checks passed" in capsys.readouterr().out


def test_verify_count_below_one_is_usage_error(capsys):
    for count in ("0", "-3"):
        assert main(["verify", "--suite", "micro", "--count", count]) == 2
        captured = capsys.readouterr()
        assert "--count" in captured.err
        assert captured.out == ""


def test_negative_seed_is_usage_error(capsys, monkeypatch):
    import fifosim.cli

    def no_sweep(config):
        raise AssertionError("the sweep ran with a negative seed")

    monkeypatch.setattr(fifosim.cli, "sweep", no_sweep)
    for argv in (
        ["verify", "--suite", "micro", "--seed", "-1"],
        ["sweep", "--param", "k", "--range", "1:2", "--slots", "100", "--runs", "1", "--seed", "-1",
         "--out", "/tmp/x_"],
        ["gen", "--mmpp", "--slots", "10", "--k", "3", "--seed", "-1", "--out", "/tmp/x_.trace"],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert "seed" in captured.err
        assert captured.out == ""


def test_verify_golden_prints_golden_then_sweep_claims(capsys, monkeypatch):
    import fifosim.cli
    from fifosim import SweepConfig

    small = dict(slots=2000, runs=2, workers=1)
    monkeypatch.setattr(fifosim.cli, "K_SWEEP", SweepConfig(param="k", values=(1, 2), B=10, C=1, **small))
    monkeypatch.setattr(fifosim.cli, "C_SWEEP", SweepConfig(param="C", values=(1, 2), k=5, B=10, **small))
    code = main(["verify", "--suite", "golden"])
    lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith(" ")]
    checks, summary = lines[:-1], lines[-1]
    assert len(checks) == 14
    assert all(line.startswith(("PASS ", "FAIL ")) for line in checks)
    assert checks[0].split(":")[0].endswith("LPO_VS_PO B=10 k=6 C=1 periods=200")
    assert checks[9].split(":")[0].endswith("LOG_RECURSIVE ratio growth (levels 0..2)")
    sweep_checks = [line.split(":")[0].split(" ", 1)[1] for line in checks[10:]]
    assert sweep_checks == [
        "k-sweep reproduction (B=10, C=1)",
        "ratio standard deviation (default sweep configs)",
        "C-sweep crossover (k=5, B=10)",
        "sweep determinism (byte-identical CSV)",
    ]
    passed = sum(line.startswith("PASS ") for line in checks)
    assert summary == f"{passed}/14 checks passed"
    assert (code == 0) == (passed == 14)
    assert code in (0, 1)


def test_verify_bad_suite_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--id", "NPO_TIGHT_K", "--frobnicate"])
    assert exc.value.code == 2
