"""Sweep harness: canonical ordering, determinism, CSV and plot emission."""

from dataclasses import replace

import pytest

from fifosim import (
    MmppParams,
    ResultTable,
    SweepConfig,
    SweepRow,
    derive_run_seed,
    emit_plot_data,
    sweep,
    write_results_csv,
)

SMALL = SweepConfig(
    param="k",
    values=(1, 3),
    B=4,
    C=1,
    policies=("npo", "po", "lpo"),
    slots=2000,
    runs=3,
    master_seed=99,
)


@pytest.fixture(scope="module")
def small_table():
    return sweep(SMALL)


def test_row_order_is_canonical(small_table):
    per_point = len(SMALL.policies) + 1  # + reference
    rows = small_table.rows
    assert len(rows) == len(SMALL.values) * SMALL.runs * per_point
    expect_policies = list(SMALL.policies) + ["srpt"]
    for i, row in enumerate(rows):
        assert row.policy == expect_policies[i % per_point]
    ks = [row.k for row in rows]
    assert ks == sorted(ks)


def test_reference_rows_have_unit_ratio(small_table):
    for row in small_table.rows:
        if row.policy == "srpt":
            assert row.ratio == 1.0


def test_same_trace_shared_across_policies(small_table):
    by_cell = {}
    for row in small_table.rows:
        by_cell.setdefault((row.k, row.seed), set()).add(row.reference)
    for refs in by_cell.values():
        assert len(refs) == 1  # identical traffic => identical denominator


def test_aggregates_mean_and_population_std(small_table):
    import numpy as np

    for agg in small_table.aggregates:
        ratios = [
            row.ratio
            for row in small_table.rows
            if row.policy == agg.policy and row.k == agg.k
        ]
        assert agg.mean_ratio == pytest.approx(float(np.mean(ratios)))
        assert agg.std_ratio == pytest.approx(float(np.std(ratios)))


def test_sweep_deterministic_and_worker_independent(tmp_path, small_table):
    serial = sweep(SweepConfig(**{**SMALL.__dict__, "workers": 1}))
    assert serial.rows == small_table.rows
    assert serial.aggregates == small_table.aggregates
    # a C-sweep over non-ascending values with the reference among the policies
    c_sweep = dict(
        param="C", values=(3, 1, 2), k=4, B=6, policies=("po", "srpt", "lpo"), slots=2000, runs=2, master_seed=11
    )
    tables = {workers: sweep(SweepConfig(**c_sweep, workers=workers)) for workers in (1, 2)}
    assert tables[1].rows == tables[2].rows
    assert tables[1].aggregates == tables[2].aggregates
    files = {}
    for workers, table in tables.items():
        out = tmp_path / f"w{workers}"
        out.mkdir()
        write_results_csv(table, out / "results.csv")
        emit_plot_data(table, f"{out}/")
        files[workers] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert list(files[1]) == ["lpo.dat", "manifest.json", "po.dat", "results.csv", "srpt.dat"]
    assert files[1] == files[2]


def test_csv_byte_identical_across_runs(tmp_path, small_table):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results_csv(small_table, p1)
    write_results_csv(sweep(SMALL), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_format(tmp_path, small_table):
    path = tmp_path / "out.csv"
    write_results_csv(small_table, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "policy,k,B,C,seed,transmitted,reference,ratio"
    n_rows = len(small_table.rows)
    assert len(lines) == 1 + n_rows + len(small_table.aggregates)
    for line in lines[1 : n_rows + 1]:
        ratio = line.split(",")[-1]
        assert len(ratio.split(".")[1]) == 6
    for line in lines[n_rows + 1 :]:
        assert line.split(",")[4] == "agg"


def test_csv_empty_table_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_results_csv(ResultTable(config=SMALL), path)
    assert path.read_text() == "policy,k,B,C,seed,transmitted,reference,ratio\n"


def test_csv_single_row_two_lines(tmp_path):
    table = ResultTable(config=SMALL, rows=[SweepRow("po", 1, 4, 1, 7, 10, 12, 10 / 12)])
    path = tmp_path / "one.csv"
    write_results_csv(table, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1] == "po,1,4,1,7,10,12,0.833333"


def test_plot_emission(tmp_path, small_table):
    prefix = str(tmp_path / "series_")
    written = emit_plot_data(small_table, prefix)
    # three policies + reference + manifest
    assert len(written) == 5
    ref = (tmp_path / "series_srpt.dat").read_text().splitlines()
    assert all(line.split()[1] == "1.000000" for line in ref)
    xs = [int(line.split()[0]) for line in (tmp_path / "series_po.dat").read_text().splitlines()]
    assert xs == sorted(SMALL.values)
    manifest = (tmp_path / "series_manifest.json").read_text()
    assert '"swept": "k"' in manifest


def test_plot_requires_aggregates(tmp_path):
    with pytest.raises(ValueError):
        emit_plot_data(ResultTable(config=SMALL), str(tmp_path / "x_"))


def test_seed_derivation_stable_and_policy_free():
    assert derive_run_seed(0, 0, 0) == derive_run_seed(0, 0, 0)
    seeds = {derive_run_seed(5, p, r) for p in range(10) for r in range(10)}
    assert len(seeds) == 100  # no collisions across the grid


def test_config_validation():
    # every point needs k, B and C >= 1, each swept value and each policy id
    # may appear once, the policy list must not be empty, the master seed must
    # be >= 0, and the ON-OFF settings are checked before any cell runs
    for bad in (
        dict(param="q", values=(1,)),
        dict(param="k", values=()),
        dict(param="k", values=(1,), policies=("nope",)),
        dict(param="k", values=(1,), policies=(["po"],)),  # an unhashable id
        dict(param="k", values=(1,), reference=["srpt"]),
        dict(param="k", values=(1,), runs=0),
        dict(param="k", values=(1,), B=0),
        dict(param="k", values=(1,), C=0),
        dict(param="k", values=(0, 1, 2, 3)),
        dict(param="C", values=(0, 1, 2)),
        dict(param="B", values=(0, 5)),
        dict(param="B", values=(12, 3, 7, 3)),
        dict(param="k", values=(1,), policies=("npo", "npo")),
        dict(param="k", values=(1,), policies=()),
        dict(param="k", values=(1,), master_seed=-1),
        dict(param="C", values=(1, 2), on_count_min=5, on_count_max=2, workers=2),
        dict(param="k", values=(1,), lambda_off=float("nan")),
        dict(param="k", values=(1,), lambda_off="x"),
    ):
        with pytest.raises(ValueError):
            SweepConfig(**bad)
    # a list could change after the checks, and a str would read as one id per letter
    for arg, bad in (
        ("values", dict(param="k", values=[1, 2], slots=100, runs=1, workers=1)),
        ("policies", dict(param="k", values=(1,), policies=["npo", "po"])),
        ("policies", dict(param="k", values=(1,), policies="npo")),
    ):
        with pytest.raises(ValueError, match=f"^{arg} must be a tuple"):
            SweepConfig(**bad)
    # a config made from a valid one is checked as it is built
    with pytest.raises(ValueError):
        replace(SMALL, B=0)


def test_non_integer_point_rejected():
    # refused when the config is built: C = 1.5 used to pass the check and
    # end in a TypeError inside the lazy loop
    for bad in (
        dict(param="C", values=(1.5, 2), slots=100, runs=1),
        dict(param="B", values=(2.5,)),
        dict(param="k", values=(2.0,)),
        dict(param="k", values=(1,), B=True),
        dict(param="k", values=(1,), slots=10.5, runs=1),
        dict(param="k", values=(1,), slots=100, runs=1.5),
        dict(param="k", values=(1,), slots=100, runs=1, master_seed=1.5),
        dict(param="k", values=(1,), slots=100, runs=1, workers=1.5),
    ):
        with pytest.raises(ValueError, match="integer"):
            SweepConfig(**bad)


def test_point_substitutes_swept_parameter():
    cfg = SweepConfig(param="B", values=(7,), k=3, B=99, C=2)
    assert cfg.point(7) == (3, 7, 2)


def test_params_carry_the_traffic_settings():
    cfg = SweepConfig(param="k", values=(7,), lambda_off=0.5, on_count_min=2, on_count_max=4,
                      p_on_to_off=0.3, p_off_to_on=0.1)
    assert cfg.params(7) == MmppParams(0.5, 2, 4, 0.3, 0.1, 7)


def test_cells_without_arrivals_read_unit_ratio(tmp_path):
    # no arrivals: every policy and the reference transmit 0, and 0/0 reads 1
    config = SweepConfig(param="k", values=(1, 2), slots=5, runs=2, lambda_off=0.0, p_off_to_on=1e-9, workers=1)
    path = tmp_path / "empty_cells.csv"
    write_results_csv(sweep(config), path)
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    runs, aggs = lines[:16], lines[16:]
    assert len(aggs) == 8
    assert all(line.endswith(",0,0,1.000000") for line in runs)
    assert all(line.endswith(",agg,0.000000,0.000000,1.000000") for line in aggs)
