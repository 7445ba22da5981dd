"""Command-line entry point: simulate, run experiments, sweep parameters.

Usage:

    lohesphere simulate  --config cfg.json --out DIR [--seed S]
    lohesphere experiment --experiment e1 --config cfg.json --out DIR [--seed S]
    lohesphere sweep     --config cfg.json --out DIR [--seed S]

``simulate`` runs the experiment id ``simulate``, as ``--experiment simulate``
does.  Configs are JSON key-value trees.  Exit codes: 0 on success (every check
passes), 1 on assertion failure, 2 on usage/config errors (a
``t_end / dt`` of 2**63 steps or more, a negative seed and an integer outside
int64 among them) and on a run that
diverges (an ``integration error:`` line names the step, t and the
particle).  A sweep records a point with either error as a failed row.  Every
emitted file is listed in a manifest; observable CSVs are byte-reproducible
for a fixed (config, seed, version).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .experiments import EXPERIMENTS, ConfigError, run_experiment, sweep_axis
from .integrators import IntegrationError

EXIT_PASS = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path!r} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path!r} must contain a JSON object")
    return raw


def _config_hash(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _environment() -> dict:
    """Versions, BLAS build and thread settings of this process.

    The scipy version comes from the package metadata, so a run that never
    solved a transport problem does not load scipy to write its manifest.
    """
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {}),
        "num_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
    }


def _write_manifest(out_dir: Path, command: str, config_path: str, raw: dict, artifacts) -> None:
    manifest = {
        "command": command,
        "config_path": str(config_path),
        "config_sha256": _config_hash(raw),
        "version": __version__,
        "out_dir": str(out_dir),
        "artifacts": sorted(str(a.relative_to(out_dir)) for a in artifacts),
        "environment": _environment(),
    }
    path = out_dir / "manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_report(report, out_dir: Path) -> list[Path]:
    artifacts = []
    report_path = out_dir / f"{report.experiment}_report.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report.to_payload(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    artifacts.append(report_path)
    for name, series in report.series.items():
        csv_path = out_dir / f"{report.experiment}_{name}.csv"
        series.to_csv(csv_path)
        artifacts.append(csv_path)
    return artifacts


def cmd_experiment(
    raw: dict, out_dir: Path, config_path: str, command: str, experiment: str | None
) -> int:
    """Run one experiment id, ``simulate`` among them; exit 0 iff every check passes."""
    raw = dict(raw)
    if experiment is not None:
        raw["experiment"] = experiment
    report = run_experiment(raw)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = _write_report(report, out_dir)
    _write_manifest(out_dir, command, config_path, raw, artifacts)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(
            f"[{status}] {report.experiment}:{check.name}: "
            f"observed {check.observed:.6g} <= {check.limit:.6g} (tolerance {check.tolerance:g})"
        )
    return EXIT_PASS if report.passed else EXIT_ASSERTION


def cmd_sweep(raw: dict, out_dir: Path, config_path: str) -> int:
    """Run an experiment across a parameter axis, one sub-report per point.

    A point's row in ``sweep_aggregate.csv`` is its report flattened: each
    check's observed value under the check's name, then the scalar data; a
    point that could not run holds its error message instead.
    """
    raw = dict(raw)
    parameter, values = sweep_axis(raw)
    base = {k: v for k, v in raw.items() if k != "axis"}
    if "experiment" not in base:
        raise ConfigError("sweep config needs an 'experiment' key")

    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = []
    rows = []
    all_passed = True
    for idx, value in enumerate(values):
        point = {**base, parameter: value}
        row = {"index": idx, parameter: value}
        # a grid point whose parameters are infeasible (e.g. a gain sweep that
        # crosses the admissibility boundary) or whose run diverges becomes a
        # failed row, not a crash
        try:
            report = run_experiment(point)
        except (ConfigError, IntegrationError) as exc:
            all_passed = False
            row["passed"] = 0
            row["error"] = str(exc)
        else:
            all_passed = all_passed and report.passed
            sub_dir = out_dir / f"point_{idx:03d}"
            sub_dir.mkdir(parents=True, exist_ok=True)
            artifacts.extend(_write_report(report, sub_dir))
            row["passed"] = int(report.passed)
            row.update((check.name, check.observed) for check in report.checks)
            row.update((k, v) for k, v in report.data.items() if isinstance(v, (int, float)))
        rows.append(row)

    columns = ["index", parameter, "passed"]
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    agg_path = out_dir / "sweep_aggregate.csv"
    with open(agg_path, "w", encoding="utf-8", newline="") as fh:
        # the writer quotes a cell holding a comma: a tuple-valued axis point or an error
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                f"{row[c]:.17g}" if isinstance(row.get(c), float) else str(row.get(c, ""))
                for c in columns
            )
    artifacts.append(agg_path)
    _write_manifest(out_dir, "sweep", config_path, raw, artifacts)
    return EXIT_PASS if all_passed else EXIT_ASSERTION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lohesphere",
        description="Aggregation dynamics on the complex unit sphere: runs and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("simulate", "integrate one configuration and dump observables"),
        ("experiment", "run a named verification experiment (e1..e7)"),
        ("sweep", "run an experiment across a parameter axis"),
    ):
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("--config", required=True, help="path to a JSON config")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "experiment":
            cmd.add_argument(
                "--experiment",
                default=None,
                help=f"experiment id ({', '.join(sorted(EXPERIMENTS))})",
            )
        if name == "simulate":
            cmd.set_defaults(experiment="simulate")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        raw = _load_config(args.config)
        if args.seed is not None:
            raw["seed"] = args.seed
        out_dir = Path(args.out)
        if args.command == "sweep":
            return cmd_sweep(raw, out_dir, args.config)
        return cmd_experiment(raw, out_dir, args.config, args.command, args.experiment)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IntegrationError as exc:
        print(f"integration error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
