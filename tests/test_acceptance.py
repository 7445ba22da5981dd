"""Acceptance suite: every quantitative claim at its stated tolerance.

Each criterion prints one [PASS]/[FAIL] line (run with -s to see them all).
Experiment-backed criteria share one cached run per experiment id at its
default, full-scale configuration.
"""

import time

import numpy as np
import pytest

from lohesphere.dynamics import CouplingParams, Ensemble, TensorEnsemble, lhs_rhs, lhs_rhs_pairwise, lt_rhs
from lohesphere.experiments import fd_r_squared_rate, run_experiment
from lohesphere.integrators import IntegratorConfig, integrate
from lohesphere.observables import functional_F, functional_G, r_squared_rate
from lohesphere.sampling import (
    admissible_cap_states,
    random_skew_hermitian,
    random_sphere_states,
    sample_admissible,
)
from lohesphere.transport import (
    EmpiricalMeasure,
    wasserstein_bruteforce,
    wasserstein_general,
    wasserstein_uniform,
)

_REPORT_CACHE: dict[str, object] = {}


def _report(experiment: str):
    if experiment not in _REPORT_CACHE:
        _REPORT_CACHE[experiment] = run_experiment({"experiment": experiment})
    return _REPORT_CACHE[experiment]


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


def _verdict(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def test_c01_exponential_aggregation():
    report = _report("e1")
    assert report.config["n"] == 64 and report.config["d"] == 4
    assert report.config["kappa1"] == -0.2 and report.config["delta"] == 0.05
    f_ok = _check(report, "F_exponential_bound").passed
    g_ok = _check(report, "G_exponential_bound").passed
    fast = report.wall_clock < 10.0
    _verdict(
        1,
        "F <= F0 exp(-0.1 t) and G <= 2 sqrt(F0) exp(-0.05 t) on [0, 20]",
        f_ok and g_ok and fast,
        f"wall {report.wall_clock:.2f}s",
    )


def test_c02_pair_inequality_everywhere():
    worst = -np.inf
    for experiment in ("e1", "e5", "e6", "e7"):
        check = _check(_report(experiment), "pair_inequality")
        worst = max(worst, check.observed)
    # extra coverage beyond the cached experiments: a heterogeneous run and a
    # real-restricted run, scanned directly
    params = CouplingParams(1.0, -0.3)
    rng = np.random.default_rng(123)
    states = random_sphere_states(rng, 24, 4)
    freqs = np.stack([random_skew_hermitian(rng, 4, 0.8) for _ in range(24)])
    observers = {
        "F": lambda t, s: functional_F(s),
        "G": lambda t, s: functional_G(s),
    }
    _, series = integrate(
        Ensemble(states, freqs, params),
        IntegratorConfig(t_end=2.0, dt=1e-3, record_every=20),
        observers,
    )
    worst = max(worst, float(np.max(series.column("G") - 2 * np.sqrt(series.column("F")))))
    x = rng.standard_normal((16, 4))
    x /= np.linalg.norm(x, axis=1)[:, None]
    _, series = integrate(
        Ensemble.zero_frequency(x.astype(complex), CouplingParams(1.0, 0.0)),
        IntegratorConfig(t_end=2.0, dt=1e-3, record_every=20),
        observers,
    )
    worst = max(worst, float(np.max(series.column("G") - 2 * np.sqrt(series.column("F")))))
    _verdict(2, "G <= 2 sqrt(F) at every recorded time", worst <= 1e-12, f"max gap {worst:.2e}")


def test_c03_order_parameter_calculus():
    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    worst_step = 0.0
    for run in range(20):
        kappa0 = float(rng.uniform(0.5, 2.0))
        kappa1 = float(rng.uniform(-0.4, 0.4)) * kappa0
        if kappa0 + 2 * kappa1 < 0 or abs(kappa1) >= kappa0 / 2:
            kappa1 = 0.1 * kappa0
        delta = float(rng.uniform(0.1, 0.5)) * (1 - 2 * abs(kappa1) / kappa0)
        ens = sample_admissible(16, 4, kappa0, kappa1, delta, seed=1000 + run)
        mu_rate = lambda s: r_squared_rate(EmpiricalMeasure.uniform(s), kappa0, kappa1)
        traj, series = integrate(
            ens,
            IntegratorConfig(t_end=1.0, dt=1e-3, record_every=50),
            {"R2": lambda t, s: float(np.vdot(s.mean(axis=0), s.mean(axis=0)).real)},
        )
        r2 = series.column("R2")
        worst_step = min(worst_step, float(np.min(np.diff(r2))))
        for k in (0, len(traj.times) // 2, len(traj.times) - 1):
            snap = traj.snapshots[k]
            analytic = mu_rate(snap)
            fd = fd_r_squared_rate(ens.replace_states(snap))
            worst_rel = max(worst_rel, abs(analytic - fd) / max(abs(analytic), 1e-12))
    ok = worst_rel <= 1e-5 and worst_step >= -1e-10
    _verdict(
        3,
        "analytic R^2 rate vs finite differences (rel <= 1e-5), R^2 nondecreasing",
        ok,
        f"worst rel err {worst_rel:.2e}, worst step {worst_step:.2e}",
    )


def test_c04_dj_dt_bound():
    report = _report("e5")
    check = _check(report, "dj_dt_bound")
    # a second aligned-regime run with different gains
    extra = run_experiment(
        {"experiment": "e5", "n": 16, "kappa0": 1.5, "kappa1": 0.0, "delta": 0.4,
         "t_end": 20.0, "n_samples": 100, "seed": 11}
    )
    extra_check = _check(extra, "dj_dt_bound")
    ok = check.passed and extra_check.passed
    _verdict(
        4,
        "||dJ/dt|| <= 2 (kappa0 + kappa1) + 1e-8 at every sample of every e5 run",
        ok,
        f"max {check.observed:.4g} vs {check.limit:.4g}",
    )


def test_c05_lp_stability():
    report = _report("e2")
    assert report.config["n_seeds"] == 20
    lp_checks = [c for c in report.checks if c.name.startswith("lp_bound_")]
    assert len(lp_checks) == 6  # T in {1, 2} x p in {1, 2, 4}
    uniform = _check(report, "admissible_uniform_in_time")
    ok = all(c.passed for c in lp_checks) and uniform.passed
    _verdict(
        5,
        "sup_t ||Z-Z~||_p <= exp(2T(|k0|+|k0+2k1|)) ||Z0-Z~0||_p, 20 seeds; "
        "admissible p=2 ratio growth <= 5% from t=10 to t=100",
        ok,
        f"ratio growth {uniform.observed / max(uniform.limit / 1.05, 1e-300):.4f}",
    )


def test_c06_wasserstein_exactness():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 8))
        p = float(rng.choice([1.0, 2.0, 4.0]))
        mu = EmpiricalMeasure.uniform(random_sphere_states(rng, n, 3))
        nu = EmpiricalMeasure.uniform(random_sphere_states(rng, n, 3))
        worst = max(
            worst, abs(wasserstein_uniform(mu, nu, p) - wasserstein_bruteforce(mu, nu, p))
        )
    # closed forms
    for _ in range(20):
        x = random_sphere_states(rng, 1, 4)[0]
        y = random_sphere_states(rng, 1, 4)[0]
        p = float(rng.choice([1.0, 2.0, 4.0]))
        single = wasserstein_uniform(
            EmpiricalMeasure.uniform(x[None]), EmpiricalMeasure.uniform(y[None]), p
        )
        worst = max(worst, abs(single - float(np.linalg.norm(x - y))))
        m = float(rng.uniform(0.1, 0.9))
        dist, _ = wasserstein_general(
            EmpiricalMeasure(atoms=x[None], weights=np.array([1.0])),
            EmpiricalMeasure(atoms=np.stack([y, -y]), weights=np.array([m, 1 - m])),
            2.0,
        )
        closed = m * np.linalg.norm(x - y) ** 2 + (1 - m) * np.linalg.norm(x + y) ** 2
        worst = max(worst, abs(dist**2 - closed))
    _verdict(6, "assignment solver == permutation oracle; closed forms reproduce",
             worst <= 1e-12, f"worst gap {worst:.2e}")


def test_c07_mean_field_cauchy():
    report = _report("e3")
    assert tuple(report.config["n_grid"]) == (16, 32, 64, 128)
    ok = _check(report, "cauchy_nonincreasing").passed and report.wall_clock < 120.0
    sups = report.data["sup_w2"]
    _verdict(
        7,
        "sup_{t<=50} W2(mu^N, mu^2N) nonincreasing over N pairs, runtime < 2 min",
        ok,
        f"sups {[f'{s:.4f}' for s in sups]}, wall {report.wall_clock:.1f}s",
    )


def test_c08_solution_splitting():
    report = _report("e7")
    assert report.config["t_end"] == 10.0 and report.config["dt"] == 1e-3
    assert report.config["d"] == 4
    check = _check(report, "splitting_max_deviation")
    _verdict(
        8,
        "max_j ||z_j(t) - exp(Omega t) w_j(t)|| <= 1e-6 for t <= 10",
        check.passed,
        f"max deviation {check.observed:.2e}",
    )


def test_c09_defect_decay_and_bipolar_exclusion():
    e5 = _report("e5")
    defect = _check(e5, "defect_decay")
    e6 = _report("e6")
    alignment = _check(e6, "a_alignment")
    ok = defect.passed and alignment.passed
    _verdict(
        9,
        "defect(50) <= 1e-6 max(defect(0), 1e-12); 1 - min_j z_j . (J/||J||) <= 1e-4",
        ok,
        f"defect ratio {defect.observed / max(defect.limit / 1e-6, 1e-300):.2e}, "
        f"misalignment {alignment.observed:.2e}",
    )


def test_c10_performance_contract():
    rng = np.random.default_rng(31)
    # equality of the centroid reduction against the pairwise reference
    worst = 0.0
    for n in (64, 256, 1024):
        states = random_sphere_states(rng, n, 4)
        omega = random_skew_hermitian(rng, 4, 0.5)
        ens = Ensemble.with_common_frequency(states, omega, CouplingParams(1.0, -0.2))
        worst = max(worst, float(np.max(np.abs(lhs_rhs(ens) - lhs_rhs_pairwise(ens)))))
    equality_ok = worst <= 1e-12

    # wall-clock scaling of one evaluation when N doubles
    timings = {}
    for n in (2**14, 2**15):
        states = random_sphere_states(rng, n, 4)
        omega = random_skew_hermitian(rng, 4, 0.5)
        ens = Ensemble.with_common_frequency(states, omega, CouplingParams(1.0, 0.2))
        lhs_rhs(ens)  # warm-up
        best = np.inf
        for _ in range(9):
            start = time.perf_counter()
            lhs_rhs(ens)
            best = min(best, time.perf_counter() - start)
        timings[n] = best
    ratio = timings[2**15] / timings[2**14]
    _verdict(
        10,
        "centroid RHS == pairwise to 1e-12; doubling N costs <= 2.5x at N = 2^14 -> 2^15",
        equality_ok and ratio <= 2.5,
        f"max gap {worst:.2e}, scaling ratio {ratio:.2f} "
        f"(best {1e3 * timings[2**14]:.3f} ms at 2^14, {1e3 * timings[2**15]:.3f} ms at 2^15)",
    )


def test_c11_tensor_rank1_reduction():
    rng = np.random.default_rng(47)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 10))
        d = int(rng.integers(2, 5))
        k0, k1 = np.abs(rng.standard_normal(2))
        states = random_sphere_states(rng, n, d)
        freqs = np.stack([random_skew_hermitian(rng, d, 0.8) for _ in range(n)])
        ens = Ensemble(states, freqs, CouplingParams(k0, k1))
        tens = TensorEnsemble(states, freqs, {(0,): k0, (1,): k1})
        worst = max(worst, float(np.max(np.abs(lt_rhs(tens) - lhs_rhs(ens)))))
    _verdict(
        11,
        "rank-1 tensor model equals the vector model to 1e-12 on 100 instances",
        worst <= 1e-12,
        f"worst gap {worst:.2e}",
    )
