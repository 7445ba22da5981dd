"""Experiment harnesses on scaled-down configs (full scale runs in acceptance)."""

import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lohesphere import experiments
from lohesphere.dynamics import CouplingParams, Ensemble, lhs_rhs
from lohesphere.experiments import (
    EXPERIMENTS,
    CheckResult,
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    run_e1,
    run_e6,
    run_experiment,
)
from lohesphere.integrators import IntegratorConfig, integrate, rk4_step
from lohesphere.observables import (
    aggregation_defect,
    dj_dt_norm_bound_check,
    functional_F,
    functional_G,
    j_vector,
    lp_distance,
    order_parameter,
)
from lohesphere.sampling import (
    admissible_threshold,
    random_frequencies,
    random_sphere_states,
    sample_admissible,
)
from lohesphere.transport import (
    EmpiricalMeasure,
    wasserstein_general,
    wasserstein_nested_track,
    wasserstein_uniform,
    wasserstein_uniform_nested,
)

# small overrides that keep each experiment's logic intact but quick
SMALL = {
    "e1": {"n": 12, "t_end": 5.0, "n_samples": 60},
    "e2": {"n": 8, "n_seeds": 3, "t_long": 20.0, "t_mid": 5.0, "n_samples": 80},
    "e3": {"n_grid": (8, 16, 32), "t_end": 10.0, "n_samples": 40},
    "e4": {"n": 8, "t_long": 20.0, "t_mid": 5.0, "n_samples": 60},
    "e5": {"n": 12, "t_end": 25.0, "delta": 0.45, "kappa1": 0.05, "n_samples": 100},
    "e6": {"n": 8, "t_end": 30.0, "n_samples": 80},
    "e7": {"n": 8, "t_end": 3.0, "n_samples": 60},
}


@pytest.mark.parametrize("experiment", sorted(SMALL))
def test_experiment_passes_at_small_scale(experiment):
    report = run_experiment({"experiment": experiment, **SMALL[experiment]})
    failed = [c.name for c in report.checks if not c.passed]
    assert report.passed, f"{experiment} failed checks: {failed}"
    assert report.wall_clock > 0.0
    names = [c.name for c in report.checks]
    assert len(set(names)) == len(names), names
    for check in report.checks:
        assert check.gating and np.isfinite(check.observed)


def test_standard_observers_share_one_pair_scan_per_record(monkeypatch):
    scans = []
    pair_extremes = experiments.pair_extremes

    def counted(states):
        scans.append(states)
        return pair_extremes(states)

    monkeypatch.setattr(experiments, "pair_extremes", counted)
    ens = sample_admissible(40, 3, 1.0, 0.1, 0.3, seed=4, omega_scale=0.5)
    params = ens.params
    traj, series = integrate(
        ens,
        IntegratorConfig(t_end=0.02, dt=1e-3, record_every=3),
        experiments.standard_observers(params, True),
    )
    assert len(scans) == len(traj.times) == 8
    for k, snap in enumerate(traj.snapshots):
        measure = EmpiricalMeasure.uniform(snap)
        r = order_parameter(measure)
        expected = {
            "F": functional_F(snap),
            "G": functional_G(snap),
            "R": r,
            "R2": r**2,
            "defect": aggregation_defect(measure),
            "dj_norm": dj_dt_norm_bound_check(measure, params.kappa0, params.kappa1)[0],
        }
        assert {name: series.column(name)[k] for name in expected} == expected


def test_pair_and_nested_tracks_equal_direct_distances():
    cfg = ExperimentConfig.from_dict(
        {"experiment": "e3", "d": 3, "n_grid": [2, 4, 8], "t_end": 0.2, "n_samples": 5}
    )
    rng = np.random.default_rng(4)
    states = random_sphere_states(rng, 8, 3)
    params = CouplingParams(cfg.kappa0, cfg.kappa1)
    icfg = experiments._integrator_config(cfg)
    # 3 pairs of 4 particles, each pair sharing its own frequencies
    pair_states = np.stack([random_sphere_states(rng, 8, 3).reshape(2, 4, 3) for _ in range(3)])
    pair_freqs = np.stack([random_frequencies(rng, 4, 3, 0.5, True) for _ in range(3)])[:, None]
    snaps = [
        [integrate(Ensemble(z, pair_freqs[k, 0], params), icfg)[0].snapshots for z in pair]
        for k, pair in enumerate(pair_states)
    ]

    def w_p(a, b, p):
        return wasserstein_uniform(EmpiricalMeasure.uniform(a), EmpiricalMeasure.uniform(b), p)

    # e2's comparison: one run of the whole batch, one lp track per pair
    pairs = Ensemble(pair_states, pair_freqs, params)
    times, tracks = experiments._pair_tracks(pairs, icfg, (1.0, 2.0), lp_distance)
    assert len(times) == 5 and tracks[2.0].shape == (5, 3)
    for p in (1.0, 2.0):
        for k, (snaps_a, snaps_b) in enumerate(snaps):
            assert tracks[p][:, k].tolist() == [
                lp_distance(a, b, p) for a, b in zip(snaps_a, snaps_b)
            ]
    # e4's comparison: one pair, its W_p track against each snapshot's distance
    for k, (snaps_a, snaps_b) in enumerate(snaps):
        pair = Ensemble(pair_states[k], pair_freqs[k], params)
        _, tracks = experiments._pair_tracks(pair, icfg, (1.0, 2.0), wasserstein_nested_track)
        for p in (1.0, 2.0):
            assert tracks[p].tolist() == [w_p(a, b, p) for a, b in zip(snaps_a, snaps_b)]

    # e3's comparison: nested zero-frequency runs, one W_2 track per (n, 2n)
    _, tracks, _ = experiments._nested_w2_tracks(cfg, states)
    assert list(tracks) == [(2, 4), (4, 8)]
    for small, big in tracks:
        clouds = {}
        for n in (small, big):
            snaps = integrate(Ensemble.zero_frequency(states[:n], params), icfg)[0].snapshots
            clouds[n] = [EmpiricalMeasure.uniform(s) for s in snaps]
        expected = [
            wasserstein_uniform_nested(a, b, 2.0) for a, b in zip(clouds[small], clouds[big])
        ]
        assert tracks[(small, big)].tolist() == expected


@pytest.mark.parametrize(
    "bound, observed, limit, tolerance, passed",
    [
        ("<=", 1.0, 1.0, 0.0, True),
        ("<=", np.nextafter(1.0, 2.0), 1.0, 0.0, False),
        ("<=", 1.5, 1.0, 0.5, True),
        ("<=", np.nextafter(1.5, 2.0), 1.0, 0.5, False),
        (">=", 1.0, 1.0, 0.0, True),
        (">=", np.nextafter(1.0, 0.0), 1.0, 0.0, False),
        (">=", 0.5, 1.0, 0.5, True),
        (">=", np.nextafter(0.5, 0.0), 1.0, 0.5, False),
        ("<=", np.nan, 1.0, 1.0, False),
        (">=", np.nan, 1.0, 1.0, False),
    ],
)
def test_check_result_judges_its_own_numbers(bound, observed, limit, tolerance, passed):
    # observed <= limit + tolerance; a lower bound observed >= limit - tolerance is
    # written as its negation, which is exact, so it keeps its verdict at the boundary
    sign = 1.0 if bound == "<=" else -1.0
    check = CheckResult("bound", np.float64(sign * observed), sign * limit, tolerance)
    assert check.passed is passed
    assert all(type(x) is float for x in (check.observed, check.limit, check.tolerance))
    with pytest.raises(TypeError):
        CheckResult("bound", observed, limit, tolerance, passed=True)


def test_check_result_rejects_unknown_comparator():
    # one shape, one comparator: none can be passed, and every check gates
    for knob in ({"comparator": "<="}, {"comparator": ">="}, {"gating": False}):
        with pytest.raises(TypeError):
            CheckResult("bound", 0.0, 1.0, 0.0, **knob)
    check = CheckResult("bound", 0.0, 1.0, 0.0)
    assert check.gating is True
    with pytest.raises(AttributeError):
        check.gating = False


def test_unknown_experiment_rejected():
    # a list or an object id used to escape from_dict as a TypeError
    for experiment in ("e9", ["e1"], {"id": "e1"}):
        with pytest.raises(ConfigError, match="unknown experiment"):
            ExperimentConfig.from_dict({"experiment": experiment})


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        ExperimentConfig.from_dict({"experiment": "e1", "bogus": 1})


@pytest.mark.parametrize(
    "key, value",
    [
        ("n_grid", [16, 32.5]),
        ("kappa1", True),
        ("n_grid", [16]),
        ("n_grid", []),
        ("n_grid", [16, 64]),
        ("n_grid", [32, 16]),
        ("n_grid", [0, 0]),
        ("horizons", []),
        ("horizons", [-1.0]),
        ("p_values", []),
        ("p_values", [0.5]),
        ("n_seeds", 0),
        ("omega_scale", -1.0),
        ("kappa0", float("nan")),
        ("t_end", float("inf")),
        ("dt", float("-inf")),
        ("horizons", [1.0, float("nan")]),
        ("p_values", [float("inf")]),
        ("n", float("inf")),
        ("n_grid", [16, float("-inf")]),
        ("t_mid", -1.0),     # the t <= t_mid window of the saturation check is empty
        ("t_mid", 100.0),    # = t_long: the saturation check compares a sup with itself
        ("seed", -1),
        ("seed", 2**63),     # numpy's seeding takes it, but every integer key is an int64
        ("n_seeds", 1e300),  # used to overflow in SeedSequence.spawn
        ("horizons", [0.1, 0.1]),        # both checks would be named T0.1
        ("p_values", [2.0, 2.0000001]),  # both checks would be named p2
        ("n", 0),            # these three used to print no key
        ("d", 0),
        ("n_samples", 1),
        ("p_values", "124"),  # used to run p = 1, 2 and 4
        ("kappa0", "1.5"),    # used to pass while "n": "8" did not
        ("horizons", {"0.5": 1}),  # used to give (0.5,)
        ("kappa0", 10**400),  # float() of it raises OverflowError
    ],
)
def test_mistyped_value_rejected(key, value):
    # on an experiment that reads the key, so the value is what gets rejected
    experiment = next(e for e in sorted(EXPERIMENTS) if key in EXPERIMENTS[e][2])
    with pytest.raises(ConfigError, match=f"config key {key!r}: "):
        ExperimentConfig.from_dict({"experiment": experiment, key: value})


def test_heterogeneous_needs_a_spread():
    # spread 0 draws the zero matrix, so the flag would label one run twice
    raw = {"experiment": "e2", "heterogeneous": True, "omega_scale": 0.0}
    with pytest.raises(ConfigError, match="^config key 'heterogeneous': "):
        ExperimentConfig.from_dict(raw)
    assert not ExperimentConfig.from_dict({**raw, "heterogeneous": False}).heterogeneous


def test_heterogeneous_frequencies_are_rejected_when_the_config_is_parsed():
    # only e2's claims cover per-particle frequencies; no other experiment reads the key,
    # and simulate integrates whatever it is given
    readers = {e for e, (_, _, keys) in EXPERIMENTS.items() if "heterogeneous" in keys}
    assert readers == {"e2", "simulate"}
    for experiment in sorted(EXPERIMENTS):
        for flag in (False, True):
            raw = {"experiment": experiment, "heterogeneous": flag}
            if experiment in readers:
                # simulate's default spread 0 draws the zero matrix, whatever the flag says
                raw["omega_scale"] = 0.5
                assert ExperimentConfig.from_dict(raw).heterogeneous is flag
            else:
                with pytest.raises(
                    ConfigError, match=f"config key 'heterogeneous' is not read by {experiment}$"
                ):
                    ExperimentConfig.from_dict(raw)


#: a tiny config of each experiment, and a second valid value of each key it reads.
#: e2's and e4's saturation ratios peak at t = 0 for a small jitter, whatever t_mid
#: (and e2's delta) is; a jitter of 1 (and, for e2's l^2 ratio, seed 5) makes them
#: grow, so both keys show.
TINY = {
    "e1": {"n": 4, "t_end": 0.2, "n_samples": 5},
    "e2": {"n": 4, "seed": 5, "n_seeds": 2, "jitter": 1.0, "horizons": [0.1, 0.2], "t_mid": 0.5,
           "t_long": 2.0, "n_samples": 9},
    "e3": {"n_grid": [2, 4], "t_end": 0.2, "n_samples": 5},
    "e4": {"n": 4, "jitter": 1.0, "horizons": [0.1, 0.2], "t_mid": 0.1, "t_long": 0.4,
           "n_samples": 9},
    "e5": {"n": 4, "t_end": 0.2, "n_samples": 5},
    "e6": {"n": 4, "t_end": 0.2, "n_samples": 5},
    "e7": {"n": 4, "t_end": 0.2, "n_samples": 5},
    "simulate": {"n": 4, "t_end": 0.2, "n_samples": 5, "omega_scale": 0.5, "heterogeneous": True},
}
SECOND_VALUE = {
    "n": 5, "d": 3, "kappa0": 1.5, "kappa1": 0.05, "delta": 0.2, "dt": 2e-3, "t_end": 0.3,
    "seed": 8, "n_samples": 7, "omega_scale": 0.3, "heterogeneous": False, "n_seeds": 3,
    "jitter": 2e-3, "horizons": [0.15], "p_values": [3.0], "t_mid": 0.05, "t_long": 0.6,
    "n_grid": [2, 4, 8], "cluster_spread": 0.3, "init": "uniform",
}


def _outcome(report) -> tuple:
    """Everything a run reports apart from its config and timings: the checks'
    numbers, the data and the series bytes."""
    data = {k: v for k, v in report.data.items() if k != "seconds"}
    series = {
        name: [s.times.tobytes(), *(col.tobytes() for col in s.series.values()), *s.series]
        for name, s in report.series.items()
    }
    checks = [(c.name, c.observed, c.limit, c.tolerance) for c in report.checks]
    return checks, json.dumps(data, sort_keys=True), series


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_every_accepted_key_is_read(experiment):
    # a key whose second value leaves the report unchanged is one the runner ignores
    base = {"experiment": experiment, **TINY[experiment]}
    outcome = _outcome(run_experiment(base))
    for key in sorted(EXPERIMENTS[experiment][2]):
        assert base.get(key) != SECOND_VALUE[key], key
        changed = _outcome(run_experiment({**base, key: SECOND_VALUE[key]}))
        assert changed != outcome, f"{experiment} ignores {key!r}"


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_data_repeats_no_check(experiment):
    # a check's observed value lives in the check; a sweep row reads it there
    report = run_experiment({"experiment": experiment, **TINY[experiment]})
    assert set(report.data).isdisjoint(c.name for c in report.checks)


@pytest.mark.parametrize(
    "raw, reads_delta",
    [
        ({"experiment": "e5", **TINY["e5"]}, True),
        ({"experiment": "e5", "n": 4, "kappa1": -0.5, "t_end": 0.2, "n_samples": 5}, False),
        ({"experiment": "simulate", **TINY["simulate"], "init": "uniform"}, False),
    ],
    ids=["e5_cap", "e5_no_cap", "simulate_uniform"],
)
def test_report_config_is_the_keys_the_run_read(raw, reads_delta):
    # e5 without a cap used to report its default delta, a key the run never read
    cfg = ExperimentConfig.from_dict(raw)
    report = run_experiment(cfg)
    assert set(report.config) == experiments._keys_read(cfg) | {"experiment"}
    assert ("delta" in report.config) is reads_delta


def test_every_other_key_is_a_config_error():
    names = {f.name for f in fields(ExperimentConfig)} - {"experiment"}
    assert set(SECOND_VALUE) == names
    for experiment, (_, _, keys) in EXPERIMENTS.items():
        assert keys <= names
        for key in sorted(names - keys):
            raw = {"experiment": experiment, key: SECOND_VALUE[key]}
            message = f"^config key {key!r} is not read by {experiment}$"
            with pytest.raises(ConfigError, match=message):
                ExperimentConfig.from_dict(raw)


def test_defaults_cover_every_experiment():
    for experiment in EXPERIMENTS:
        cfg = ExperimentConfig.from_dict({"experiment": experiment})
        assert cfg.experiment == experiment


def test_integer_keys_are_int64():
    assert ExperimentConfig.from_dict({"experiment": "e3", "seed": 2**63 - 1}).seed == 2**63 - 1
    with pytest.raises(ConfigError, match=r"config key 'n_seeds': expected an integer in \[-2\*\*63"):
        ExperimentConfig.from_dict({"experiment": "e2", "n_seeds": -(2**63) - 1})


def test_e1_reads_f0_from_its_first_record():
    cfg = ExperimentConfig.from_dict({"experiment": "e1", **SMALL["e1"]})
    report = run_experiment(cfg)
    assert report.data["f0"] == functional_F(experiments._admissible_ensemble(cfg).states)


def test_e1_rejects_inadmissible_delta_before_running():
    cfg = ExperimentConfig.from_dict(
        {"experiment": "e1", "kappa1": 0.4, "delta": 0.5, "n": 4, "t_end": 1.0}
    )
    with pytest.raises(ConfigError, match="delta"):
        run_e1(cfg)


def test_e1_identical_initial_data_trivially_pass():
    # delta so large that the cap collapses to (near-)consensus
    report = run_experiment(
        {"experiment": "e1", "n": 6, "delta": 0.94, "kappa1": 0.0, "t_end": 2.0, "n_samples": 40}
    )
    assert report.passed
    assert report.data["f0"] < 0.06


def test_e3_sup_series_nonincreasing():
    report = run_experiment({"experiment": "e3", **SMALL["e3"]})
    sups = report.data["sup_w2"]
    assert len(sups) == 2
    assert sups[0] >= sups[1]
    assert all(s >= 0 for s in report.data["initial_w2"])
    # e3 reports where its time went
    seconds = report.data["seconds"]
    assert set(seconds) == {"stepping", "transport"}
    assert all(v > 0 for v in seconds.values())


def test_e2_runs_without_p2_among_its_orders():
    # the grid-density change reads the p = 2 track whatever p_values holds
    report = run_experiment(
        {"experiment": "e2", "n": 6, "n_seeds": 1, "p_values": [1.0], "t_long": 2.0,
         "t_mid": 1.0, "n_samples": 20}
    )
    names = [c.name for c in report.checks if c.name.startswith("lp_bound")]
    assert names == ["lp_bound_T1_p1", "lp_bound_T2_p1"]
    assert report.data["grid_density_relative_change"] >= 0.0
    assert not any(c.name.startswith("grid_density") for c in report.checks)


def test_e5_negative_kappa1_boundary():
    # kappa0 + 2 kappa1 = 0: monotonicity must survive on the boundary, where no
    # cap exists and e5 reads no delta
    report = run_experiment(
        {
            "experiment": "e5",
            "n": 10,
            "kappa1": -0.5,
            "kappa0": 1.0,
            "t_end": 10.0,
            "n_samples": 50,
        }
    )
    r2_check = next(c for c in report.checks if c.name == "r_squared_nondecreasing")
    assert r2_check.passed


@pytest.mark.parametrize(
    "kappa1, delta",
    [
        (0.49, 0.01),
        (0.5, 0.01),
        (-0.49, 0.01),
        (-0.5, 0.01),
        (0.25, 0.49),
        (0.25, 0.5),
        (0.25, 0.51),
    ],
)
def test_e5_decays_the_defect_exactly_on_admissible_configs(kappa1, delta):
    # just inside and just outside |kappa1| < kappa0 / 2 and 0 < delta < 1 - 2 |kappa1| / kappa0:
    # gains without a cap run uniform states, which read no delta, and a delta outside
    # the cap's range is an error
    try:
        admissible_threshold(1.0, kappa1, delta)
        admissible = True
    except ValueError:
        admissible = False
    raw = {"experiment": "e5", "n": 6, "kappa1": kappa1, "delta": delta, "t_end": 0.5,
           "n_samples": 10}
    if abs(kappa1) >= 0.5:
        message = "^config key 'delta' is not read by e5$"
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(raw)
        del raw["delta"]
    elif not admissible:
        with pytest.raises(ConfigError, match="delta must lie in"):
            run_experiment(raw)
        return
    report = run_experiment(raw)
    assert any(c.name == "defect_decay" for c in report.checks) == admissible


def test_e5_reports_the_second_derivative_of_r_squared_as_data():
    raw = {"experiment": "e5", "n": 6, "t_end": 0.5, "n_samples": 10}
    report = run_experiment(raw)
    assert report.data["max_r_squared_second_derivative"] >= 0.0
    assert not any(c.name.startswith("r_squared_second") for c in report.checks)
    # two records have no second difference
    assert "max_r_squared_second_derivative" not in run_experiment({**raw, "n_samples": 2}).data


def test_e5_rejects_inadmissible_delta_before_running(monkeypatch):
    # gains with a cap but a delta outside its range: e5 used to run uniform states
    # here, drop defect_decay and pass, while e1 rejects the same config
    seen = _spy_integrate(monkeypatch)
    for experiment in ("e1", "e5"):
        with pytest.raises(ConfigError, match=r"delta must lie in \(0, 0.8\), got 0.9"):
            run_experiment({"experiment": experiment, "kappa1": 0.1, "delta": 0.9})
    assert seen == []


def test_e5_and_e6_observe_the_excess_over_zero(monkeypatch):
    # the lower bounds R^2 nondecreasing and min_j z_j . J/||J|| >= 1 - 1e-4 read as
    # the largest decrease of R^2 and the misalignment, each <= 0 + tolerance
    e5 = run_experiment({"experiment": "e5", **TINY["e5"]})
    r2 = e5.series["observables"].column("R2")
    check = next(c for c in e5.checks if c.name == "r_squared_nondecreasing")
    assert (check.observed, check.limit, check.tolerance) == (-np.min(np.diff(r2)), 0.0, 1e-10)
    runs = []

    def keep(*args, **kwargs):
        traj, series = integrate(*args, **kwargs)
        runs.append(traj)
        return traj, series

    monkeypatch.setattr(experiments, "integrate", keep)
    e6 = run_experiment({"experiment": "e6", **TINY["e6"]})
    final = runs[0].snapshots[-1]   # scenario a's final state
    j = j_vector(EmpiricalMeasure.uniform(final))
    misalignment = 1.0 - np.min((np.conj(final) @ (j / np.linalg.norm(j))).real)
    check = next(c for c in e6.checks if c.name == "a_alignment")
    assert (check.observed, check.limit, check.tolerance) == (misalignment, 0.0, 1e-4)


def test_e5_rejects_gains_outside_aligned_regime():
    with pytest.raises(ConfigError, match="kappa0"):
        run_experiment({"experiment": "e5", "kappa1": -0.6})


def test_e6_perfect_antipodal_pair_is_stationary():
    # J0 = 0 exactly: the two-atom bi-polar configuration never moves
    from lohesphere.dynamics import CouplingParams, Ensemble
    from lohesphere.integrators import IntegratorConfig, integrate

    states = np.array([[1.0, 0.0], [-1.0, 0.0]], dtype=complex)
    ens = Ensemble.zero_frequency(states, CouplingParams(1.0, 0.0))
    traj, _ = integrate(ens, IntegratorConfig(t_end=5.0, dt=1e-2, record_every=100))
    assert np.max(np.abs(traj.snapshots - states[None])) == 0.0


def test_e7_zero_frequency_runs_bitwise_identical():
    from lohesphere.dynamics import CouplingParams, Ensemble
    from lohesphere.integrators import IntegratorConfig, integrate
    from lohesphere.sampling import random_sphere_states

    rng = np.random.default_rng(0)
    states = random_sphere_states(rng, 6, 3)
    params = CouplingParams(1.0, 0.2)
    cfg = IntegratorConfig(t_end=1.0, dt=1e-2, record_every=10)
    traj_a, _ = integrate(Ensemble.zero_frequency(states, params), cfg)
    traj_b, _ = integrate(
        Ensemble.with_common_frequency(states.copy(), np.zeros((3, 3)), params), cfg
    )
    assert np.array_equal(traj_a.snapshots, traj_b.snapshots)


def test_e6_too_few_particles_is_a_config_error_before_any_run(monkeypatch):
    # scenario b's mirror cluster needs 3 particles; scenario a used to run first
    def no_run(*args):
        raise AssertionError("integrate called before the config was checked")

    monkeypatch.setattr(experiments, "integrate", no_run)
    with pytest.raises(ConfigError, match="at least 3 particles"):
        run_experiment({"experiment": "e6", "n": 2})


@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
def test_w2_to_a_dirac_is_the_root_mean_squared_cost(weighted):
    # the only coupling to a Dirac is the product measure; the LP is the oracle.
    # A weighted cloud with weights k_j / K is the uniform measure on its
    # atoms repeated k_j times.
    rng = np.random.default_rng(23)
    for n, d in [(1, 1), (5, 2), (40, 4), (100, 3)]:
        atoms = random_sphere_states(rng, n, d)
        y = random_sphere_states(rng, 1, d)[0]
        counts = rng.integers(1, 6, size=n) if weighted else np.ones(n, dtype=int)
        mu = EmpiricalMeasure(atoms, counts / np.sum(counts))
        exact, _ = wasserstein_general(mu, EmpiricalMeasure.uniform(y[None]), 2.0)
        closed = experiments._w2_to_dirac(np.repeat(atoms, counts, axis=0), y)
        assert closed == pytest.approx(exact, rel=0.0, abs=1e-12), (n, d)


@pytest.mark.parametrize("experiment", ["e2", "e4"])
def test_long_horizon_config_error_comes_before_any_run(monkeypatch, experiment):
    # a t_long out of range is a config error before the first step is taken
    def no_run(*args):
        raise AssertionError("integrate called before the config was checked")

    monkeypatch.setattr(experiments, "integrate", no_run)
    with pytest.raises(ConfigError, match="t_end / dt"):
        run_experiment({"experiment": experiment, "t_long": 1e300, "n": 8})


def _spy_integrate(monkeypatch):
    """Record every ensemble that ``experiments.integrate`` runs."""
    seen = []

    def spy(ens, *args, **kwargs):
        seen.append(ens)
        return integrate(ens, *args, **kwargs)

    monkeypatch.setattr(experiments, "integrate", spy)
    return seen


def test_e2_runs_its_identical_pair_in_the_seed_batch(monkeypatch):
    # the seed batch with the identical pair last, its double density, the saturation pair
    seen = _spy_integrate(monkeypatch)
    report = run_experiment(
        {"experiment": "e2", "n": 6, "n_seeds": 2, "t_long": 2.0, "t_mid": 1.0, "n_samples": 20}
    )
    assert [ens.states.shape for ens in seen] == [(3, 2, 6, 4), (2, 6, 4), (2, 6, 4)]
    assert np.array_equal(seen[0].states[-1, 0], seen[0].states[-1, 1])
    assert not np.any(seen[0].frequencies[-1])
    assert next(c for c in report.checks if c.name == "identical_data_stay_identical").passed


def test_e4_pair_stores_its_common_frequency_once(monkeypatch):
    seen = _spy_integrate(monkeypatch)
    report = run_experiment(
        {"experiment": "e4", "n": 8, "t_long": 5.0, "t_mid": 2.0, "omega_scale": 0.5,
         "n_samples": 40}
    )
    assert report.passed
    assert len(seen) == 2
    for pair in seen:
        assert pair.homogeneous and np.any(pair.common_frequency)
        assert pair.frequencies.strides[:2] == (0, 0)


def test_e5_without_admissible_cap_keeps_its_common_frequency(monkeypatch):
    # kappa1 = -kappa0 / 2 admits no cap; the uniform fallback used to run at Omega = 0
    seen = _spy_integrate(monkeypatch)
    report = run_experiment(
        {"experiment": "e5", "n": 10, "kappa1": -0.5, "omega_scale": 0.5, "t_end": 5.0,
         "n_samples": 50}
    )
    (ens,) = seen
    assert ens.homogeneous and np.any(ens.common_frequency)
    assert report.passed
    assert not any(c.name == "defect_decay" for c in report.checks)


@pytest.mark.parametrize("experiment", ["e2", "e4"])
def test_zero_jitter_is_a_config_error_before_the_long_run(monkeypatch, experiment):
    # the copy differs from its original by one more normalization, and the ratio
    # of the stability check would gauge that rounding noise
    seen = _spy_integrate(monkeypatch)
    with pytest.raises(ConfigError, match=r"^config key 'jitter': a pair starts .* apart$"):
        run_experiment({"experiment": experiment, **SMALL[experiment], "jitter": 0.0})
    assert len(seen) == 1  # the horizon run; the long pair never starts


@pytest.mark.parametrize(
    "raw",
    [
        # renormalizing the unjittered copy leaves every row's bits unchanged
        {"experiment": "e4", "n": 4, "seed": 4, "horizons": [0.1], "t_long": 0.2, "t_mid": 0.1},
        # seed 0's first pair starts bitwise identical, its second does not
        {"experiment": "e2", "n": 4, "seed": 0, "n_seeds": 2, "horizons": [0.1], "t_long": 0.2,
         "t_mid": 0.1, "n_samples": 5},
    ],
    ids=["e4", "e2"],
)
def test_identical_start_names_jitter_not_p_values(monkeypatch, raw):
    # d_p(0) reads 0 at every p, as an underflowed order does; the start distance
    # that tells them apart does not depend on p, and it is read first
    seen = _spy_integrate(monkeypatch)
    with pytest.raises(ConfigError, match=r"^config key 'jitter': a pair starts 0 apart$"):
        run_experiment({**raw, "jitter": 0.0})
    assert len(seen) == 1  # the horizon run; the long pair never starts


def test_stability_checks_fail_when_the_constant_is_too_small(monkeypatch):
    # e2's and e4's horizon checks share one ratio: a constant of 1e-3 breaks both
    monkeypatch.setattr(experiments, "_stability_constant", lambda *args: 1e-3)
    for experiment, name in (("e2", "lp_bound_"), ("e4", "wp_stability_")):
        report = run_experiment({"experiment": experiment, **SMALL[experiment]})
        checks = [c for c in report.checks if c.name.startswith(name)]
        assert len(checks) == 6 and not any(c.passed for c in checks), experiment


def test_e7_without_a_spread_is_a_config_error_before_any_run(monkeypatch):
    # e7 used to run at spread 1 here, under the label omega_scale 0
    def no_run(*args):
        raise AssertionError("integrate called before the config was checked")

    monkeypatch.setattr(experiments, "integrate", no_run)
    with pytest.raises(ConfigError, match="^config key 'omega_scale': e7 expects > 0, got 0$"):
        run_experiment({"experiment": "e7", "omega_scale": 0.0})


def test_e4_underflowing_order_is_a_config_error_before_the_long_run(monkeypatch):
    # chordal costs near the 1e-3 jitter: cost^150 underflows to 0, and the p = 150
    # gate used to compare 0.0 with 0.0 under "identical measures stay identical"
    seen = _spy_integrate(monkeypatch)
    raw = {"experiment": "e4", "n": 6, "horizons": [0.5], "p_values": [2, 150]}
    with pytest.raises(ConfigError, match="config key 'p_values'.* p = 150$"):
        run_experiment(raw)
    assert len(seen) == 1  # the horizon run; the long pair never starts
    # p = 2 alone runs its ratio check
    check = run_experiment({**raw, "p_values": [2], "t_long": 1.0, "t_mid": 0.5}).checks[0]
    assert check.name == "wp_stability_T0.5_p2" and check.limit > 0.0


def test_e2_underflowing_order_is_a_config_error_before_the_long_run(monkeypatch):
    # ||z_k - w_k||^300 underflows to 0: the p = 300 ratio was NaN, and max(0.0, ...)
    # turned it into a pass at 0.0
    seen = _spy_integrate(monkeypatch)
    raw = {"experiment": "e2", "n": 4, "n_seeds": 2, "horizons": [0.1], "p_values": [2, 300],
           "t_long": 0.4, "t_mid": 0.1, "n_samples": 5}
    with pytest.raises(ConfigError, match="config key 'p_values'.* p = 300$"):
        run_experiment(raw)
    assert len(seen) == 1


def test_e1_two_particle_fitted_rate_floor():
    # near-identical pair: the fitted exponent clears the 0.1 kappa0 delta floor
    report = run_experiment(
        {"experiment": "e1", "n": 2, "kappa1": 0.0, "delta": 0.5, "t_end": 5.0,
         "n_samples": 60}
    )
    assert report.passed
    assert report.data["fitted_rate"] >= 0.1 * 1.0 * 0.5


def test_stability_constant_arithmetic():
    # kappa0 = 1, kappa1 = 0, T = 1 gives exp(4)
    from lohesphere.experiments import _stability_constant

    assert _stability_constant(1.0, 0.0, 1.0) == pytest.approx(np.exp(4.0))
    assert _stability_constant(1.0, -0.5, 2.0) == pytest.approx(np.exp(4.0))


def test_duplicated_ensemble_keeps_zero_wasserstein():
    # mu^2N built by duplicating mu^N: identical empirical measures stay
    # identical under the flow, so W2 vanishes for all time
    from lohesphere.dynamics import CouplingParams, Ensemble
    from lohesphere.integrators import IntegratorConfig, integrate
    from lohesphere.sampling import random_sphere_states
    from lohesphere.transport import EmpiricalMeasure, wasserstein_uniform_nested

    rng = np.random.default_rng(3)
    states = random_sphere_states(rng, 6, 3)
    params = CouplingParams(1.0, 0.2)
    cfg = IntegratorConfig(t_end=1.0, dt=1e-3, record_every=200)
    traj_small, _ = integrate(Ensemble.zero_frequency(states, params), cfg)
    doubled = np.repeat(states, 2, axis=0)
    traj_big, _ = integrate(Ensemble.zero_frequency(doubled, params), cfg)
    for k in range(len(traj_small.times)):
        w2 = wasserstein_uniform_nested(
            EmpiricalMeasure.uniform(traj_small.snapshots[k]),
            EmpiricalMeasure.uniform(traj_big.snapshots[k]),
            2.0,
        )
        assert w2 <= 1e-12


def test_e5_monotone_under_common_rotation():
    # nonzero common frequency: R and the analytic rate are rotation
    # invariant, so monotonicity and the finite-difference match survive
    report = run_experiment(
        {"experiment": "e5", "n": 10, "t_end": 10.0, "omega_scale": 0.4, "n_samples": 50}
    )
    assert next(c for c in report.checks if c.name == "r_squared_nondecreasing").passed
    assert next(c for c in report.checks if c.name == "rate_matches_finite_difference").passed


def _fd_rate_reference(ens, h):
    """The rate from four probes, each its own scalar-step RK4 call."""

    def r2_after(step_h):
        stepped = rk4_step(
            ens.states, step_h, lambda s, out: lhs_rhs(ens.replace_states(s), out=out)
        )
        zc = stepped.mean(axis=0)
        return float(np.vdot(zc, zc).real)

    def centered(step_h):
        return (r2_after(step_h) - r2_after(-step_h)) / (2.0 * step_h)

    return (4.0 * centered(h / 2.0) - centered(h)) / 3.0


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([(0.0, False), (1.0, False), (1.0, True)]),
    st.integers(1, 10),
    st.integers(1, 69),
    st.integers(1, 5),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.integers(0, 2**32 - 1),
)
def test_batched_fd_r_squared_rate_is_each_snapshots_own(mode, b, n, d, kappa0, kappa1, seed):
    # one batched RK4 step for every probe of every member, bit for bit the
    # member's own call and four separate scalar-step probes
    rng = np.random.default_rng(seed)
    states = np.stack([random_sphere_states(rng, n, d) for _ in range(b)])
    freqs = random_frequencies(rng, n, d, *mode)
    params = CouplingParams(kappa0, kappa1)
    rates = experiments.fd_r_squared_rate(Ensemble(states, freqs, params))
    assert rates.shape == (b,)
    for k in range(b):
        member = Ensemble(states[k], freqs, params)
        own = experiments.fd_r_squared_rate(member)
        assert isinstance(own, float)
        assert np.float64(own).tobytes() == rates[k].tobytes()
        assert np.float64(own).tobytes() == np.float64(_fd_rate_reference(member, 1e-3)).tobytes()


def test_report_payload_shape():
    report = run_experiment({"experiment": "e7", **SMALL["e7"]})
    payload = report.to_payload()
    assert payload["experiment"] == "e7"
    assert isinstance(payload["passed"], bool)
    assert all(
        set(check) == {"name", "observed", "limit", "tolerance", "detail", "passed"}
        for check in payload["checks"]
    )
    assert payload["wall_clock_seconds"] > 0
    # the snapshot holds the id and the keys e7 reads, not delta or any other experiment's
    assert report.config == {
        "experiment": "e7", "n": 8, "d": 4, "kappa0": 1.0, "kappa1": 0.2, "dt": 1e-3,
        "t_end": 3.0, "seed": 7, "n_samples": 60, "omega_scale": 1.0,
    }
    json.dumps(payload)
    # the payload turns a tuple-valued key into a list
    tuples = ExperimentReport(config={"p_values": (1.0, 2.0)}).to_payload()["config"]
    assert tuples == {"p_values": [1.0, 2.0]}


def test_experiment_is_deterministic():
    a = run_experiment({"experiment": "e1", "n": 8, "t_end": 2.0, "n_samples": 30})
    b = run_experiment({"experiment": "e1", "n": 8, "t_end": 2.0, "n_samples": 30})
    sa = a.series["observables"]
    sb = b.series["observables"]
    assert np.array_equal(sa.column("F"), sb.column("F"))
    assert np.array_equal(sa.column("G"), sb.column("G"))
