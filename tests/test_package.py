"""Public surface: every module star-imports, every package export and every
name a demo imports resolves, every demo runs, the CLI imports no
private name of experiments, README's experiment keys are the table's, no
source line is wider than 100 columns, scipy loads only with the first
transport solve, and the benchmark's worker runs every workload on this tree."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lohesphere

MODULES = (
    "lohesphere",
    "lohesphere.cli",
    "lohesphere.dynamics",
    "lohesphere.experiments",
    "lohesphere.geometry",
    "lohesphere.integrators",
    "lohesphere.observables",
    "lohesphere.sampling",
    "lohesphere.transport",
)


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    # an __all__ entry left behind by a deletion breaks only star-import
    exec(f"from {module} import *", {})


def test_cli_imports_no_private_name_of_experiments():
    # the run layer is experiments' public surface; the CLI reads configs and writes files
    cli = Path(lohesphere.__file__).with_name("cli.py")
    imported = {
        alias.name
        for node in ast.walk(ast.parse(cli.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level, node.module) in ((1, "experiments"), (0, "lohesphere.experiments"))
        for alias in node.names
    }
    # one run entry: simulate is an experiment id like e1
    assert {name for name in imported if name.startswith("run_")} == {"run_experiment"}
    assert [name for name in imported if name.startswith("_")] == []


def test_readme_lists_each_experiments_config_keys():
    from lohesphere.experiments import EXPERIMENTS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Experiments", 1)[1].split("\n## ", 1)[0]
    table = [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("| ")]
    header, rows = table[0], table[2:]
    assert [cell.strip() for cell in header] == ["id", "claim under test", "config keys"]
    listed = {cells[0].strip(): set(cells[-1].strip().strip("`").split()) for cells in rows}
    assert listed == {experiment: set(keys) for experiment, (_, _, keys) in EXPERIMENTS.items()}


def test_source_lines_fit_100_columns():
    package = Path(lohesphere.__file__).parent
    wide = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert wide == []


def test_package_exports_resolve():
    missing = [name for name in lohesphere.__all__ if not hasattr(lohesphere, name)]
    assert missing == []


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_imports_resolve(demo):
    # a missing name fails here by name, before any demo runs
    imports = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "lohesphere"
        for alias in node.names
    ]
    assert imports
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


# Runs in a fresh interpreter: which scipy modules a workflow loads.
_SCIPY_LOADED = """
import sys
def scipy_loaded():
    return sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))
"""

_NO_TRANSPORT = _SCIPY_LOADED + """
import json
import lohesphere
stages = {"import lohesphere": scipy_loaded()}
from lohesphere import cli, experiments
config, out = sys.argv[1:]
assert cli.main(["simulate", "--config", config, "--out", out]) == 0
stages["simulate"] = scipy_loaded()
report = experiments.run_experiment(
    {"experiment": "e1", "n": 6, "t_end": 1.0, "n_samples": 20}
)
assert report.passed
stages["e1"] = scipy_loaded()
experiments.run_experiment({"experiment": "e6", "n": 5, "t_end": 1.0, "n_samples": 20})
stages["e6"] = scipy_loaded()
print(json.dumps(stages))
"""

_TRANSPORT = _SCIPY_LOADED + """
import numpy as np
from lohesphere import transport
from lohesphere.sampling import random_sphere_states
assert scipy_loaded() == []
rng = np.random.default_rng(3)
mu = transport.EmpiricalMeasure.uniform(random_sphere_states(rng, 5, 3))
nu = transport.EmpiricalMeasure.uniform(random_sphere_states(rng, 5, 3))
exact = transport.wasserstein_bruteforce(mu, nu)
assert abs(transport.wasserstein_uniform_nested(mu, nu) - exact) <= 1e-12
assert "scipy.optimize" in sys.modules
assert abs(transport.wasserstein_general(mu, nu)[0] - exact) <= 1e-12
assert "scipy.sparse" in sys.modules
"""


def _run_fresh(script, *args):
    src = str(Path(lohesphere.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_runs_without_transport_never_load_scipy(tmp_path):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"n": 6, "d": 3, "t_end": 0.5, "n_samples": 20}))
    stages = json.loads(_run_fresh(_NO_TRANSPORT, str(config), str(tmp_path / "out")))
    assert stages == {"import lohesphere": [], "simulate": [], "e1": [], "e6": []}


def test_transport_solvers_load_scipy_on_first_use():
    _run_fresh(_TRANSPORT)


#: one line of output per demo
DEMO_LINES = {
    "01_aggregation_decay.py": "fitted decay exponent of F:",
    "02_order_parameter.py": "R^2 monotone: min step increment",
    "03_wasserstein.py": "solver agreement on random uniform instances (N <= 7):",
    "04_solution_splitting.py": "split_transform(full run) vs direct zero-frequency run: max gap",
    "05_bipolar_exception.py": "final configuration is within",
    "06_tensor_model.py": "rank-1 reduction: max |lt_rhs - lhs_rhs|",
    "07_mean_field_limit.py": "Cauchy trend of the sups:",
}


@pytest.mark.parametrize("name", sorted(DEMO_LINES))
def test_demo_runs(name):
    # a demo reads results, which parsing its imports does not check
    demo = next(demo for demo in DEMOS if demo.name == name)
    out = _run_fresh(demo.read_text(encoding="utf-8"))
    assert DEMO_LINES[name] in out


ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_worker_runs_every_workload(workload):
    # the worker calls the library's API directly: a src change that breaks it
    # fails here, before a benchmark run does
    bench = ROOT / "perfbench"
    before = sorted(bench.rglob("*"))
    cmd = [sys.executable, str(bench / "worker.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0", "--mode", "run", "--size", "tiny"]
    proc = subprocess.run(
        cmd, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] >= 1 and result["failed"] == 0, result["failures"]
    assert sorted(bench.rglob("*")) == before
