"""Command-line interface: exit codes, manifests, byte-reproducibility."""

import csv
import json
import re

import numpy as np
import pytest
import scipy

from lohesphere import experiments
from lohesphere.cli import EXIT_ASSERTION, EXIT_PASS, EXIT_USAGE, main


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _rows(out) -> list[dict]:
    """The rows of a sweep's aggregate CSV, read back as a CSV."""
    with open(out / "sweep_aggregate.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def sim_config(tmp_path):
    return _write(
        tmp_path / "sim.json",
        {"n": 6, "d": 3, "kappa0": 1.0, "kappa1": 0.1, "delta": 0.3, "t_end": 1.0, "seed": 5,
         "n_samples": 40},
    )


def test_simulate_writes_csv_and_manifest(tmp_path, sim_config):
    out = tmp_path / "out"
    assert main(["simulate", "--config", sim_config, "--out", str(out)]) == EXIT_PASS
    csv_path = out / "simulate_observables.csv"
    manifest_path = out / "manifest.json"
    assert csv_path.exists() and manifest_path.exists()
    manifest = json.loads(manifest_path.read_text())
    assert manifest["command"] == "simulate"
    assert manifest["artifacts"] == ["simulate_observables.csv", "simulate_report.json"]
    assert len(manifest["config_sha256"]) == 64
    env = manifest["environment"]
    assert set(env) == {"python", "numpy", "scipy", "blas", "num_threads_env", "cpu_count"}
    assert env["numpy"] == np.__version__ and env["scipy"] == scipy.__version__
    assert isinstance(env["blas"], dict)
    assert all(key.endswith("_NUM_THREADS") for key in env["num_threads_env"])
    header = csv_path.read_text().split("\n", 1)[0]
    assert header.startswith("time,")


def test_simulate_is_byte_reproducible(tmp_path, sim_config):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", sim_config, "--out", str(out_a)]) == EXIT_PASS
    assert main(["simulate", "--config", sim_config, "--out", str(out_b)]) == EXIT_PASS
    bytes_a = (out_a / "simulate_observables.csv").read_bytes()
    bytes_b = (out_b / "simulate_observables.csv").read_bytes()
    assert bytes_a == bytes_b


@pytest.mark.parametrize(
    "payload",
    [{}, {"n": 12, "init": "uniform", "omega_scale": 0.5, "heterogeneous": True}],
    ids=["defaults", "uniform"],
)
def test_simulate_is_the_experiment_simulate(tmp_path, payload):
    # one run path: the command and the experiment id write the same series
    cfg = _write(tmp_path / "cfg.json", {**payload, "t_end": 0.5, "n_samples": 20})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == EXIT_PASS
    argv = ["experiment", "--experiment", "simulate", "--config", cfg, "--out", str(out_b)]
    assert main(argv) == EXIT_PASS
    csv_a, csv_b = (out / "simulate_observables.csv" for out in (out_a, out_b))
    assert csv_a.read_bytes() == csv_b.read_bytes()
    manifests = [json.loads((out / "manifest.json").read_text()) for out in (out_a, out_b)]
    assert [m["command"] for m in manifests] == ["simulate", "experiment"]
    assert manifests[0]["config_sha256"] == manifests[1]["config_sha256"]


def test_malformed_config_exits_2_without_partial_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 6,,}')
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(bad), "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


def test_unknown_simulate_key_exits_2(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {"n": 4, "bogus": True})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_USAGE


@pytest.mark.parametrize(
    "payload",
    [
        {"n_samples": 1},
        {"n": 0, "init": "uniform"},
        {"d": 0, "init": "uniform"},
        {"n_samples": True},
        {"n": 2.7},
        {"dt": True},
        {"omega_scale": -1},
        {"omega_scale": -1, "init": "uniform"},
        {"t_end": 1e300, "dt": 1e-10},
        {"dt": 1e-300},
        {"dt": 0},
        {"t_end": -1},
        {"heterogeneous": True, "init": "uniform"},
    ],
    ids=[
        "n_samples_1",
        "n_0",
        "d_0",
        "n_samples_bool",
        "n_fraction",
        "dt_bool",
        "omega_scale_negative",
        "omega_scale_negative_uniform",
        "steps_infinite",
        "steps_out_of_range",
        "dt_zero",
        "t_end_negative",
        "heterogeneous_at_spread_0",
    ],
)
def test_invalid_simulate_value_exits_2(tmp_path, capsys, payload):
    cfg = _write(tmp_path / "cfg.json", payload)
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_delta_under_uniform_init_exits_2(tmp_path, capsys):
    # uniform states have no cap: two deltas used to write cmp-identical CSVs
    cfg = _write(tmp_path / "cfg.json", {"n": 4, "init": "uniform", "delta": 0.3})
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "config error: config key 'delta' is not read by simulate\n" in err
    assert not out.exists()


def test_experiment_small_e1_passes(tmp_path, capsys):
    cfg = _write(
        tmp_path / "e1.json",
        {"experiment": "e1", "n": 8, "t_end": 3.0, "n_samples": 50},
    )
    out = tmp_path / "out"
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == EXIT_PASS
    # one line per check, each in the one shape
    lines = capsys.readouterr().out.splitlines()
    shape = r"\[PASS\] e1:\w+: observed \S+ <= \S+ \(tolerance \S+\)"
    assert len(lines) == 4 and all(re.fullmatch(shape, line) for line in lines), lines
    report = json.loads((out / "e1_report.json").read_text())
    assert report["passed"] is True
    assert [c["name"] for c in report["checks"]] == [line[7:].split(":")[1] for line in lines]
    assert (out / "e1_observables.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["artifacts"]) == ["e1_observables.csv", "e1_report.json"]


def test_experiment_unknown_id_exits_2(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {"experiment": "e9"})
    assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_USAGE


def test_experiment_inadmissible_delta_exits_2_before_running(tmp_path):
    # e5 used to run uniform states at a delta outside its cap's range, and pass
    for experiment, kappa1 in (("e1", 0.4), ("e5", 0.1)):
        cfg = _write(
            tmp_path / "cfg.json",
            {"experiment": experiment, "kappa1": kappa1, "delta": 0.9, "n": 4},
        )
        out = tmp_path / experiment
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()


def test_experiment_out_of_range_step_count_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.json", {"experiment": "e1", "n": 4, "dt": 1e-300})
    out = tmp_path / "o"
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    assert "config error: t_end / dt must be below 2**63" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_gain_exits_2(tmp_path, capsys):
    # e7 builds its coupling gains before any sampler could reject them
    cfg = _write(tmp_path / "cfg.json", {"experiment": "e7", "kappa0": float("nan")})
    out = tmp_path / "o"
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_e5_with_heterogeneous_frequencies_exits_2(tmp_path, capsys):
    configs = {
        # outside e5's hypotheses: this run used to fail three gating checks and exit 1
        "e5": {"experiment": "e5", "n": 10, "t_end": 10.0, "omega_scale": 0.4,
               "heterogeneous": True, "n_samples": 50},
        # e3 reads only the states of its draw, so it would ignore these frequencies
        "e3": {"experiment": "e3", "omega_scale": 0.5, "heterogeneous": True},
        # e1 and e6 used to fail their bounds after full runs and exit 1
        "e1": {"experiment": "e1", "omega_scale": 0.5, "heterogeneous": True},
        "e6": {"experiment": "e6", "omega_scale": 0.5, "heterogeneous": True},
        # e7 used to run at spread 1 here, and to draw a common Omega
        "e7": {"experiment": "e7", "omega_scale": 0.0, "heterogeneous": True},
        # e4's W_p ignores frequency tags, and it used to pass every check here
        "e4": {"experiment": "e4", "n": 8, "t_long": 5.0, "t_mid": 2.0, "omega_scale": 0.5,
               "heterogeneous": True},
    }
    for name, config in configs.items():
        cfg = _write(tmp_path / f"{name}.json", config)
        out = tmp_path / name
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()


def test_e6_on_c1_exits_2_before_any_run(tmp_path, capsys, monkeypatch):
    # scenario b's mirror cluster needs a real direction orthogonal to y, and
    # C^1 has none: this used to run scenario a, then crash with exit 1
    def no_run(*args):
        raise AssertionError("integrate called before the config was checked")

    monkeypatch.setattr(experiments, "integrate", no_run)
    cfg = _write(tmp_path / "cfg.json", {"experiment": "e6", "d": 1, "t_end": 0.1, "n_samples": 5})
    out = tmp_path / "o"
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    assert "config error: scenario b needs d >= 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 2**63], ids=["negative", "past_int64"])
@pytest.mark.parametrize("command", sorted(experiments.EXPERIMENTS))
def test_bad_seed_exits_2_before_any_run(tmp_path, capsys, monkeypatch, command, seed):
    # a negative seed used to crash e2, e4, e5, e6 and e7 with exit 1
    def no_run(*args):
        raise AssertionError("integrate called before the config was checked")

    monkeypatch.setattr(experiments, "integrate", no_run)
    cfg = _write(tmp_path / "cfg.json", {"experiment": command, "seed": seed})
    out = tmp_path / "o"
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    assert "config error: config key 'seed'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment, key, value",
    [("e3", "n", 8), ("e4", "t_end", 1.0), ("e7", "delta", 0.1), ("e1", "heterogeneous", True)],
)
def test_unread_key_exits_2_before_any_run(tmp_path, capsys, monkeypatch, experiment, key, value):
    # a key the experiment never reads used to repeat one run under another label
    def no_run(*args):
        raise AssertionError("integrate called before the config was checked")

    monkeypatch.setattr(experiments, "integrate", no_run)
    cfg = _write(tmp_path / "cfg.json", {"experiment": experiment, key: value})
    out = tmp_path / "o"
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"config error: config key {key!r} is not read by {experiment}" in err
    assert not out.exists()


def test_sweep_over_unread_key_writes_failed_rows(tmp_path, monkeypatch):
    # e3's nested draws take their sizes from n_grid: a sweep over n used to repeat one run
    def no_run(*args):
        raise AssertionError("integrate called for a key e3 does not read")

    monkeypatch.setattr(experiments, "integrate", no_run)
    cfg = _write(
        tmp_path / "sweep.json",
        {"experiment": "e3", "axis": {"parameter": "n", "values": [16, 32]}},
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_ASSERTION
    assert not (out / "point_000").exists()
    with open(out / "sweep_aggregate.csv", newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert [row[header.index("passed")] for row in rows] == ["0", "0"]
    errors = [row[header.index("error")] for row in rows]
    assert errors == ["config key 'n' is not read by e3"] * 2


def test_experiment_flag_overrides_config(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {"n": 8, "t_end": 2.0, "n_samples": 40})
    out = tmp_path / "out"
    code = main(
        ["experiment", "--config", cfg, "--out", str(out), "--experiment", "e7"]
    )
    assert code == EXIT_PASS
    assert (out / "e7_report.json").exists()


def test_seed_flag_overrides_config(tmp_path):
    cfg = _write(
        tmp_path / "sim.json",
        {"n": 4, "d": 2, "delta": 0.3, "t_end": 0.5, "seed": 1, "n_samples": 20},
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", cfg, "--out", str(out_a), "--seed", "99"])
    main(["simulate", "--config", cfg, "--out", str(out_b)])
    assert (out_a / "simulate_observables.csv").read_bytes() != (
        out_b / "simulate_observables.csv"
    ).read_bytes()


def test_sweep_single_point_matches_experiment(tmp_path):
    base = {"experiment": "e7", "n": 6, "t_end": 1.0, "n_samples": 30}
    sweep_cfg = _write(
        tmp_path / "sweep.json",
        {**base, "axis": {"parameter": "kappa1", "values": [0.2]}},
    )
    exp_cfg = _write(tmp_path / "exp.json", {**base, "kappa1": 0.2})
    out_sweep, out_exp = tmp_path / "sweep_out", tmp_path / "exp_out"
    assert main(["sweep", "--config", sweep_cfg, "--out", str(out_sweep)]) == EXIT_PASS
    assert main(["experiment", "--config", exp_cfg, "--out", str(out_exp)]) == EXIT_PASS
    sweep_report = json.loads((out_sweep / "point_000" / "e7_report.json").read_text())
    exp_report = json.loads((out_exp / "e7_report.json").read_text())
    assert sweep_report["data"] == exp_report["data"]
    agg = (out_sweep / "sweep_aggregate.csv").read_text().strip().split("\n")
    assert len(agg) == 2  # header + one point


def test_sweep_empty_axis_exits_2(tmp_path):
    cfg = _write(
        tmp_path / "sweep.json",
        {"experiment": "e7", "axis": {"parameter": "kappa1", "values": []}},
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_USAGE


@pytest.mark.parametrize(
    "axis, key",
    [
        ({"values": 5}, "values"),
        ({"values": "0.1"}, "values"),
        ({"parameter": ["kappa1"], "values": [0.1]}, "parameter"),
        ({}, "values"),
        ({"start": 0.0, "stop": 0.2, "num": 2}, "num"),
    ],
    ids=[
        "values_int",
        "values_str",
        "parameter_list",
        "values_missing",
        "linspace_form",
    ],
)
def test_sweep_axis_num_must_be_an_integer(tmp_path, capsys, axis, key):
    cfg = _write(
        tmp_path / "sweep.json",
        {"experiment": "e7", "axis": {"parameter": "kappa1", **axis}},
    )
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    assert f"config error: sweep axis {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_seed_axis_reports_spread(tmp_path):
    cfg = _write(
        tmp_path / "sweep.json",
        {
            "experiment": "e1",
            "n": 8,
            "t_end": 2.0,
            "n_samples": 30,
            "axis": {"parameter": "seed", "values": [1, 2, 3]},
        },
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_PASS
    lines = (out / "sweep_aggregate.csv").read_text().strip().split("\n")
    assert len(lines) == 4
    header = lines[0].split(",")
    assert "fitted_rate" in header
    rates = {line.split(",")[header.index("fitted_rate")] for line in lines[1:]}
    assert len(rates) == 3  # per-seed spread visible in the aggregate


def test_sweep_across_admissibility_boundary(tmp_path):
    # kappa1 sweep through |kappa1| = kappa0/2: inside the regime points pass,
    # outside they become failed rows (no admissible data exists there)
    cfg = _write(
        tmp_path / "sweep.json",
        {
            "experiment": "e1",
            "n": 8,
            "t_end": 2.0,
            "n_samples": 30,
            "delta": 0.05,
            "axis": {"parameter": "kappa1", "values": [-0.6, -0.2, 0.0, 0.2, 0.6]},
        },
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_ASSERTION
    lines = (out / "sweep_aggregate.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    passed_col = header.index("passed")
    flags = [line.split(",")[passed_col] for line in lines[1:]]
    assert flags == ["0", "1", "1", "1", "0"]


def test_sweep_diverging_point_becomes_failed_row(tmp_path):
    # dt = 0.3 drifts off the sphere past the tolerance and raises mid-run
    cfg = _write(
        tmp_path / "sweep.json",
        {
            "experiment": "e1",
            "n": 8,
            "t_end": 2.0,
            "n_samples": 30,
            "axis": {"parameter": "dt", "values": [0.001, 0.3]},
        },
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_ASSERTION
    assert (out / "point_000" / "e1_report.json").exists()
    assert not (out / "point_001").exists()
    rows = _rows(out)
    assert [row["passed"] for row in rows] == ["1", "0"]
    assert rows[0]["error"] == ""
    assert re.fullmatch(r".*drift.* at step \d+ \(t = \S+, particle \d+\)", rows[1]["error"])


def test_sweep_invalid_order_point_becomes_failed_row(tmp_path):
    cfg = _write(
        tmp_path / "sweep.json",
        {"experiment": "e4", "axis": {"parameter": "p_values", "values": [[0.5]]}},
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_ASSERTION
    rows = _rows(out)
    assert [row["passed"] for row in rows] == ["0"]
    assert rows[0]["error"] == (
        "config key 'p_values': expected one or more distinct orders p >= 1, got (0.5,)"
    )


def test_sweep_negative_seed_point_becomes_failed_row(tmp_path):
    # a negative seed used to end e2, e4, e5, e6 and e7 in a traceback, with no aggregate CSV
    cfg = _write(
        tmp_path / "sweep.json",
        {
            "experiment": "e1",
            "n": 8,
            "t_end": 2.0,
            "n_samples": 30,
            "axis": {"parameter": "seed", "values": [-1, 7]},
        },
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_ASSERTION
    assert (out / "manifest.json").exists()
    assert not (out / "point_000").exists()
    with open(out / "sweep_aggregate.csv", newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert [row[header.index("passed")] for row in rows] == ["0", "1"]
    assert "config key 'seed'" in rows[0][header.index("error")]


def test_sweep_list_experiment_point_becomes_failed_row(tmp_path):
    # a list id used to escape as a TypeError, with no aggregate CSV or manifest
    cfg = _write(
        tmp_path / "sweep.json",
        {"experiment": "e7", "axis": {"parameter": "experiment", "values": [["e7"]]}},
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_ASSERTION
    assert (out / "manifest.json").exists()
    with open(out / "sweep_aggregate.csv", newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert [row[header.index("passed")] for row in rows] == ["0"]
    assert "unknown experiment id" in rows[0][header.index("error")]


def test_sweep_tuple_axis_rows_match_header(tmp_path):
    cfg = _write(
        tmp_path / "sweep.json",
        {
            "experiment": "e4",
            "n": 4,
            "horizons": [0.1],
            "t_mid": 0.1,
            "t_long": 0.2,
            "n_samples": 5,
            "axis": {"parameter": "p_values", "values": [[1.0, 2.0], [0.5, 2.0]]},
        },
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_ASSERTION
    with open(out / "sweep_aggregate.csv", newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [len(header)] * 2
    assert [row[header.index("p_values")] for row in rows] == ["[1.0, 2.0]", "[0.5, 2.0]"]
    assert [row[header.index("passed")] for row in rows] == ["1", "0"]


def test_sweep_row_is_the_report_flattened(tmp_path):
    # each check's observed value under its name, then the scalar data; a point
    # that could not run keeps its message verbatim, commas and all
    cfg = _write(
        tmp_path / "sweep.json",
        {
            "experiment": "e5",
            "n": 4,
            "t_end": 0.2,
            "n_samples": 5,
            "axis": {"parameter": "dt", "values": [1e-3, 2e-3, 1e-300]},
        },
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_ASSERTION
    with open(out / "sweep_aggregate.csv", newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert len(set(header)) == len(header)
    for idx, row in enumerate(rows[:2]):
        cells = dict(zip(header, row))
        report = json.loads((out / f"point_{idx:03d}" / "e5_report.json").read_text())
        assert {c["name"]: float(cells[c["name"]]) for c in report["checks"]} == {
            c["name"]: c["observed"] for c in report["checks"]
        }
        assert {k: float(cells[k]) for k in report["data"]} == report["data"]
    assert dict(zip(header, rows[2]))["error"] == (
        "t_end / dt must be below 2**63 steps, got t_end = 0.2 and dt = 1e-300"
    )


def test_e5_delta_at_gains_without_a_cap_exits_2(tmp_path, capsys, monkeypatch):
    # e5 runs uniform states there: two deltas used to make one run under two labels
    def no_run(*args):
        raise AssertionError("integrate called before the config was checked")

    monkeypatch.setattr(experiments, "integrate", no_run)
    base = {"experiment": "e5", "n": 6, "kappa1": -0.5, "t_end": 0.5, "n_samples": 10}
    cfg = _write(tmp_path / "cfg.json", {**base, "delta": 0.1})
    out = tmp_path / "o"
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "config error: config key 'delta' is not read by e5\n" in err
    assert not out.exists()
    # in a sweep that point is a failed row, and a point at gains with a cap runs
    sweep = _write(
        tmp_path / "sweep.json",
        {**base, "delta": 0.1, "axis": {"parameter": "kappa1", "values": [0.1, -0.5]}},
    )
    monkeypatch.undo()
    assert main(["sweep", "--config", sweep, "--out", str(tmp_path / "s")]) == EXIT_ASSERTION
    rows = _rows(tmp_path / "s")
    assert [row["error"] for row in rows] == [
        "", "config key 'delta' is not read by e5"
    ]
    assert (tmp_path / "s" / "point_000" / "e5_report.json").exists()


def test_sweep_fractional_integer_point_becomes_failed_row(tmp_path):
    cfg = _write(
        tmp_path / "sweep.json",
        {
            "experiment": "e7",
            "t_end": 0.5,
            "n_samples": 20,
            "axis": {"parameter": "n", "values": [4.0, 2.5]},
        },
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_ASSERTION
    report = json.loads((out / "point_000" / "e7_report.json").read_text())
    assert report["config"]["n"] == 4
    rows = _rows(out)
    assert [row["passed"] for row in rows] == ["1", "0"]
    assert "expected an integer" in rows[1]["error"]


@pytest.mark.parametrize(
    "command, payload",
    [
        ("experiment", {"experiment": "e1", "n": 8, "t_end": 2.0, "n_samples": 30, "dt": 0.3}),
        ("simulate", {"dt": 1.0, "t_end": 2}),
    ],
    ids=["experiment", "simulate"],
)
def test_diverging_run_exits_2_with_one_line(tmp_path, capsys, command, payload):
    cfg = _write(tmp_path / "cfg.json", payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1
    assert re.fullmatch(r"integration error: .* at step \d+ \(t = \S+, particle \d+\)", err[0])


def test_usage_error_exit_code():
    assert main(["bogus-command"]) == EXIT_USAGE


def test_workers_flag_is_rejected(tmp_path, sim_config):
    out = tmp_path / "o"
    code = main(["simulate", "--config", sim_config, "--out", str(out), "--workers", "2"])
    assert code == EXIT_USAGE
    assert not out.exists()


def test_missing_config_file(tmp_path):
    assert (
        main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        == EXIT_USAGE
    )


def test_sweep_out_of_range_step_count_becomes_failed_row(tmp_path):
    cfg = _write(
        tmp_path / "sweep.json",
        {
            "experiment": "e7",
            "n": 4,
            "t_end": 0.5,
            "n_samples": 20,
            "axis": {"parameter": "dt", "values": [1e-3, 1e-300]},
        },
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_ASSERTION
    assert (out / "manifest.json").exists()
    assert not (out / "point_001").exists()
    rows = _rows(out)
    assert [row["passed"] for row in rows] == ["1", "0"]
    # the message keeps its comma: the writer quotes the cell
    assert rows[1]["error"] == (
        "t_end / dt must be below 2**63 steps, got t_end = 0.5 and dt = 1e-300"
    )
