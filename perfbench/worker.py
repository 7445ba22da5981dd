"""One benchmark process: set up a workload, run it closed loop, check it.

run.py starts this script in fresh processes; every mode prints one JSON
object as its last line.

    --mode setup   set up and stop (one sample of the set-up time)
    --mode run     set up, run repetitions until --seconds of them are timed
    --mode trace   set up, run a fixed number of repetitions without and then
                   with the span wrappers, and report the per-layer numbers
    --mode blas1   time the large_n right-hand side alone (run.py starts it
                   with single-threaded BLAS)

Inputs depend only on --workload, --seed and --size.  Every library function
is looked up on its module at call time, so the wrappers installed for a
traced run see the benchmark's own calls as well as the library's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
# The script's directory is not on sys.path under python -P or PYTHONSAFEPATH.
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "lohesphere"
MODULES = ("dynamics", "integrators", "observables", "transport", "sampling", "experiments")

#: fewest repetitions a run times, whatever --seconds says
MIN_REPS = 3

#: consecutive record intervals per block; a block's p90 has 10 samples beyond it
RECORD_BLOCK = 100

#: the LP sizes whose solve times the per-layer metrics name, in order
LP_METRICS = ("ms_n64", "ms_n256", "ms_n512")


def import_library() -> SimpleNamespace:
    """Import lohesphere from this checkout's src/ and nowhere else."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"no {PACKAGE} sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import importlib

    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != SRC / PACKAGE:
        raise SystemExit(f"{PACKAGE} was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})


class RecordClock:
    """Extra observer that stamps the wall time of every recorded sample.

    A record at t = 0 opens a new integrate call, so intervals are only
    taken between consecutive records of one call.
    """

    def __init__(self) -> None:
        self.intervals: list[float] = []
        self._last = 0.0

    def observe(self, t, states) -> float:
        now = perf_counter()
        if t != 0.0:
            self.intervals.append(now - self._last)
        self._last = now
        return 0.0


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """What every workload has: its inputs are built by setup() from the seed."""

    #: typical seconds of one repetition; fixes the traced run's repetition count
    nominal_rep_s = 1.0
    #: support sizes of the LP solves whose times LP_METRICS report
    lp_sizes = (64, 256, 512)

    def finish(self):
        """Work done once per run, after the repetitions; returns its outputs."""

    def check_finish(self, outputs) -> list[tuple[str, bool]]:
        return []


class MeanField(Workload):
    """e3 shortened in time only (t_end = 2): nested admissible ensembles N = 16..128,
    the zero-frequency run, the heterogeneous short-horizon run, and one
    nested W2 assignment per snapshot, ending in e3's verdicts."""

    nominal_rep_s = 5.5
    #: run_e3 integrates its heterogeneous variant to this fixed horizon.
    #: t_end equals it, so both phases record every 10 steps; a shorter
    #: t_end splits the record intervals into two equal modes, and their
    #: median then falls in the gap between them.
    HET_HORIZON = 2.0

    def __init__(self, lib, seed: int, tiny: bool):
        # e3 keeps its own seed: its cauchy_nonincreasing gate compares one
        # draw per ensemble size, and on some seeds (108, 109, 126 and 129 of
        # 100..139) the nested W2 already increases across pairs at t = 0, so
        # the verdict fails at any horizon.  --seed is not used here.
        self.lib = lib
        self.raw = {"experiment": "e3", "t_end": 2.0}
        if tiny:
            self.raw.update(t_end=0.01, n_grid=[2, 4], n_samples=5)

    def setup(self) -> None:
        self.config = self.lib.experiments.ExperimentConfig.from_dict(self.raw)
        cfg = self.config
        steps = max(round(cfg.t_end / cfg.dt), 1) + round(self.HET_HORIZON / cfg.dt)
        self.work_per_rep = sum(set(cfg.n_grid)) * steps

    def warm_up(self) -> None:
        lib = self.lib
        rng = np.random.default_rng(0)
        states = lib.sampling.random_sphere_states(rng, 32, self.config.d)
        freqs = [lib.sampling.random_skew_hermitian(rng, self.config.d, 0.5) for _ in range(16)]
        params = lib.dynamics.CouplingParams(1.0, 0.1)
        icfg = lib.integrators.IntegratorConfig(t_end=0.01, dt=self.config.dt)
        lib.integrators.integrate(lib.dynamics.Ensemble.zero_frequency(states[:16], params), icfg)
        lib.integrators.integrate(lib.dynamics.Ensemble(states[:16], freqs, params), icfg)
        em = lib.transport.EmpiricalMeasure.uniform
        lib.transport.wasserstein_uniform_nested(em(states[:16]), em(states), 2.0)

    def rep(self, clock: RecordClock):
        exp = self.lib.experiments
        integrate = exp.integrate

        def integrate_with_clock(ens, cfg, observers=None):
            return integrate(ens, cfg, {"clock": clock.observe, **(observers or {})})

        exp.integrate = integrate_with_clock
        try:
            return exp.run_experiment(self.config)
        finally:
            exp.integrate = integrate

    def check(self, report) -> list[tuple[str, bool]]:
        return [(f"e3.{c.name}", bool(c.passed)) for c in report.checks if c.gating]


class LargeN(Workload):
    """One ensemble of N = 2^16 states in C^4 with a common frequency,
    stepped by integrate while only the O(N) order parameter is recorded."""

    nominal_rep_s = 2.3
    D = 4
    DT = 1e-3
    #: particles the lhs_rhs oracle check compares on
    ORACLE_SLICE = 1024

    def __init__(self, lib, seed: int, tiny: bool):
        self.lib = lib
        self.seed = seed
        self.n = 256 if tiny else 2**16
        self.steps = 3 if tiny else 25

    def setup(self) -> None:
        lib = self.lib
        rng = np.random.default_rng(self.seed)
        center = lib.sampling.random_sphere_states(rng, 1, self.D)[0]
        states = lib.sampling.cap_states(rng, self.n, self.D, center, 1.0)
        self.omega = lib.sampling.random_skew_hermitian(rng, self.D, 1.0)
        self.params = lib.dynamics.CouplingParams(1.0, 0.1)
        self.ens = lib.dynamics.Ensemble.with_common_frequency(states, self.omega, self.params)
        self.cfg = lib.integrators.IntegratorConfig(t_end=self.steps * self.DT, dt=self.DT)
        self.work_per_rep = self.n * self.cfg.n_steps

    def order_parameter(self, t, states) -> float:
        lib = self.lib
        return lib.observables.order_parameter(lib.transport.EmpiricalMeasure.uniform(states))

    def warm_up(self) -> None:
        lib = self.lib
        lib.dynamics.lhs_rhs(self.ens)
        part = lib.dynamics.Ensemble.with_common_frequency(
            self.ens.states[:256], self.omega, self.params
        )
        cfg = lib.integrators.IntegratorConfig(t_end=self.DT, dt=self.DT)
        lib.integrators.integrate(part, cfg, {"R": self.order_parameter})

    def rep(self, clock: RecordClock):
        observers = {"clock": clock.observe, "R": self.order_parameter}
        return self.lib.integrators.integrate(self.ens, self.cfg, observers)

    def check(self, outputs) -> list[tuple[str, bool]]:
        lib = self.lib
        traj, series = outputs
        drift = float(np.max(np.abs(np.linalg.norm(traj.snapshots, axis=2) - 1.0)))
        r_sq = series.column("R") ** 2
        part = lib.dynamics.Ensemble.with_common_frequency(
            traj.snapshots[-1][: self.ORACLE_SLICE], self.omega, self.params
        )
        gap = float(
            np.max(np.abs(lib.dynamics.lhs_rhs(part) - lib.dynamics.lhs_rhs_pairwise(part)))
        )
        return [
            ("unit_norms_1e-12", drift <= 1e-12),
            ("r_squared_nondecreasing", bool(np.all(np.diff(r_sq) >= 0.0))),
            ("lhs_rhs_matches_pairwise_1e-12", gap <= 1e-12),
        ]


class Measures(Workload):
    """integrate at N = 1024 with every standard observer recorded at every
    step, then W_p over the recorded clouds: a nested assignment per record,
    one W_1 assignment and weighted LPs at 64 and 256 atoms; once per run,
    a uniform LP at 512 atoms."""

    nominal_rep_s = 3.5
    D = 4
    DT = 1e-3
    #: atoms in the uniform pair that compares assignment against LP
    CROSS_CHECK_ATOMS = 64

    def __init__(self, lib, seed: int, tiny: bool):
        self.lib = lib
        self.seed = seed
        self.n = 64 if tiny else 1024
        self.steps = 3 if tiny else 100
        self.nested = (8, 16) if tiny else (128, 256)
        self.lp_sizes = (8, 16, 32) if tiny else (64, 256, 512)
        self.last_clouds = ()

    def setup(self) -> None:
        lib = self.lib
        rng = np.random.default_rng(self.seed)
        threshold = lib.sampling.admissible_threshold(1.0, 0.1, 0.3)
        states = lib.sampling.admissible_cap_states(rng, self.n, self.D, threshold)
        omega = lib.sampling.random_skew_hermitian(rng, self.D, 0.5)
        self.params = lib.dynamics.CouplingParams(1.0, 0.1)
        self.ens = lib.dynamics.Ensemble.with_common_frequency(states, omega, self.params)
        self.cfg = lib.integrators.IntegratorConfig(t_end=self.steps * self.DT, dt=self.DT)
        self.lp_weights = {
            n: (rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))) for n in self.lp_sizes[:2]
        }
        self.work_per_rep = self.n * self.cfg.n_steps

    def warm_up(self) -> None:
        lib = self.lib
        part = lib.dynamics.Ensemble.with_common_frequency(
            self.ens.states[:16], self.ens.common_frequency, self.params
        )
        cfg = lib.integrators.IntegratorConfig(t_end=self.DT, dt=self.DT)
        lib.integrators.integrate(part, cfg, lib.experiments.standard_observers(self.params, True))
        em = lib.transport.EmpiricalMeasure
        a, b = self.ens.states[:8], self.ens.states[8:16]
        lib.transport.wasserstein_uniform_nested(em.uniform(a[:4]), em.uniform(a), 2.0)
        lib.transport.wasserstein_uniform(em.uniform(a), em.uniform(b), 1.0)
        # Every repetition solves the LP at the middle size.  The first such
        # solve raises glibc's mmap threshold, after which the observers' 16 MiB
        # Gram temporaries are reused instead of page-faulted in (records then
        # take half the time), so set-up does one to start every repetition alike.
        n = self.lp_sizes[1]
        wa, wb = self.lp_weights[n]
        states = self.ens.states
        lib.transport.wasserstein_general(em(states[:n], wa), em(states[n : 2 * n], wb), 2.0)

    def rep(self, clock: RecordClock):
        lib = self.lib
        observers = {
            "clock": clock.observe,
            **lib.experiments.standard_observers(self.params, with_dj=True),
        }
        traj, series = lib.integrators.integrate(self.ens, self.cfg, observers)
        tr = lib.transport
        em = tr.EmpiricalMeasure
        snaps = traj.snapshots
        small, big = self.nested
        nested = [
            tr.wasserstein_uniform_nested(em.uniform(s[:small]), em.uniform(s[:big]), 2.0)
            for s in snaps
        ]
        w1 = tr.wasserstein_uniform(em.uniform(snaps[0]), em.uniform(snaps[-1]), 1.0)
        lp = [
            tr.wasserstein_general(em(snaps[0][:n], wa), em(snaps[-1][:n], wb), 2.0)[0]
            for n, (wa, wb) in self.lp_weights.items()
        ]
        self.last_clouds = snaps[0], snaps[-1]
        return traj, series, [*nested, w1, *lp]

    def finish(self):
        """One LP at the largest size, with uniform weights.

        Its time varies with the data by up to a third, so it stays out of
        the repetitions.  The weights are uniform because wasserstein_general
        rejects HiGHS's own plans for weighted measures at 512 atoms on some
        seeds (see tests/test_known_defects.py).
        """
        tr = self.lib.transport
        n = self.lp_sizes[2]
        mu, nu = (tr.EmpiricalMeasure.uniform(c[:n]) for c in self.last_clouds)
        return mu, nu, tr.wasserstein_general(mu, nu, 2.0)[0]

    def check_finish(self, outputs) -> list[tuple[str, bool]]:
        mu, nu, w_lp = outputs
        gap = abs(w_lp - self.lib.transport.wasserstein_uniform(mu, nu, 2.0))
        return [("w2_lp_at_largest_size_matches_assignment_1e-9", gap <= 1e-9)]

    def check(self, outputs) -> list[tuple[str, bool]]:
        lib = self.lib
        traj, series, distances = outputs
        f, g = series.column("F"), series.column("G")
        f_scan, g_scan = pair_scan(traj.snapshots[-1])
        em = lib.transport.EmpiricalMeasure
        k = self.CROSS_CHECK_ATOMS
        mu, nu = em.uniform(traj.snapshots[0][:k]), em.uniform(traj.snapshots[-1][:k])
        w_assign = lib.transport.wasserstein_uniform(mu, nu, 2.0)
        w_lp = lib.transport.wasserstein_general(mu, nu, 2.0)[0]
        distances = np.asarray(distances)
        distances_ok = np.all(np.isfinite(distances) & (distances >= 0.0))
        return [
            ("pair_inequality", bool(np.all(g <= 2.0 * np.sqrt(f)))),
            ("F_matches_pair_scan_1e-12", abs(f[-1] - f_scan) <= 1e-12),
            ("G_matches_pair_scan_1e-12", abs(g[-1] - g_scan) <= 1e-12),
            ("w2_assignment_matches_lp_1e-9", abs(w_assign - w_lp) <= 1e-9),
            ("distances_finite_nonnegative", bool(distances_ok)),
        ]


def pair_scan(states) -> tuple[float, float]:
    """F and G by an explicit loop over rows, independent of the library's Gram."""
    f = g = 0.0
    for z in states:
        inner = (np.conj(z)[None, :] * states).sum(axis=1)
        f = max(f, float(np.max(np.abs(1.0 - inner))))
        g = max(g, float(np.max(np.linalg.norm(states - z[None, :], axis=1))))
    return f, g


WORKLOADS = {"mean_field": MeanField, "large_n": LargeN, "measures": Measures}


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


class Outcome:
    """Repetition times and check counts of one phase."""

    def __init__(self) -> None:
        self.rep_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run_rep(self, workload, clock: RecordClock, paused) -> bool:
        """Time one repetition and check it outside the timed span; False on error."""
        try:
            t0 = perf_counter()
            outputs = workload.rep(clock)
            self.rep_s.append(perf_counter() - t0)
            with paused():
                checks = workload.check(outputs)
        except Exception:  # a failed call is a failed operation, not a crash
            return self._error()
        self._count(checks)
        return True

    def run_finish(self, workload, paused) -> None:
        try:
            outputs = workload.finish()
            with paused():
                self._count(workload.check_finish(outputs))
        except Exception:  # as in run_rep
            self._error()

    def _error(self) -> bool:
        traceback.print_exc()
        self._count([("exception", False)])
        return False

    def _count(self, checks) -> None:
        for name, ok in checks:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.append(name)


@contextmanager
def no_pause():
    yield


def record_percentiles(intervals: list[float]) -> tuple[float, float, int]:
    """p50 and p90 of the record intervals in ms, and the number of blocks they came from.

    Each block of RECORD_BLOCK consecutive intervals gives its own p50 and
    p90, and the medians over blocks are reported.  The host stalls the
    process for stretches of a second or so; pooled over a whole run, the
    p90 jumps between a fast and a slow mode with the share of stalled time,
    while the median over blocks moves only when most blocks are stalled.
    """
    if not intervals:
        return 0.0, 0.0, 0
    ms = np.asarray(intervals) * 1e3
    blocks = [
        ms[i : i + RECORD_BLOCK] for i in range(0, len(ms) - RECORD_BLOCK + 1, RECORD_BLOCK)
    ] or [ms]
    p50, p90 = np.median([np.percentile(b, [50, 90]) for b in blocks], axis=0)
    return float(p50), float(p90), len(blocks)


def run_timed(workload, seconds: float, stop_at: float) -> dict:
    """Repetitions until `seconds` of them are timed (at least MIN_REPS).

    No repetition after the first starts past the monotonic time `stop_at`,
    so a machine that runs slow still ends the run within its deadline, on
    fewer repetitions.
    """
    clock = RecordClock()
    outcome = Outcome()

    def more() -> bool:
        if outcome.rep_s and time.clock_gettime(time.CLOCK_MONOTONIC) > stop_at:
            return False
        return sum(outcome.rep_s) < seconds or len(outcome.rep_s) < MIN_REPS

    while more():
        if not outcome.run_rep(workload, clock, no_pause):
            break
    else:
        outcome.run_finish(workload, no_pause)
    p50, p90, blocks = record_percentiles(clock.intervals)
    return {
        "rep_s": outcome.rep_s,
        "work_per_rep": workload.work_per_rep,
        "record_p50_ms": p50,
        "record_p90_ms": p90,
        "record_samples": len(clock.intervals),
        "record_blocks": blocks,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
    }


def install_tracer(lib) -> tuple[Tracer, dict]:
    """Wrap the public functions of each layer; returns the tracer and integrate's tallies."""
    tracer = Tracer(PACKAGE)
    tally = {"records": 0, "snapshot_bytes": 0}

    def traced_integrate(integrate):
        def run(ens, cfg, observers=None):
            observers = {
                k: tracer.span("integrators.observer", fn) for k, fn in (observers or {}).items()
            }
            traj, series = integrate(ens, cfg, observers)
            if tracer.on:
                tally["records"] += len(traj.times)
                tally["snapshot_bytes"] = max(tally["snapshot_bytes"], traj.snapshots.nbytes)
            return traj, series

        return tracer.span("integrators.integrate", run)

    def span(name, **kw):
        return lambda fn: tracer.span(name, fn, **kw)

    def atoms(mu, nu, *args, **kwargs):
        return max(mu.n_atoms, nu.n_atoms)

    tracer.patch(
        lib.dynamics,
        "lhs_rhs",
        span("dynamics.lhs_rhs", size=lambda ens: ens.states.shape[0], keep_largest=True),
    )
    tracer.patch(lib.integrators, "integrate", traced_integrate)
    tracer.patch(lib.integrators, "rk4_step", lambda fn: tracer.counter("integrators.rk4_step", fn))
    for name in OBSERVABLES:
        tracer.patch(lib.observables, name, span(f"observables.{name}"))
    tracer.patch_method(lib.transport.EmpiricalMeasure, "__init__", span("transport.EmpiricalMeasure"))
    for name in TRANSPORT:
        kw = {"size": atoms} if name == "wasserstein_general" else {}
        tracer.patch(lib.transport, name, span(f"transport.{name}", **kw))
    tracer.patch(lib.sampling, "admissible_cap_states", span("sampling.admissible_cap_states"))
    tracer.patch(lib.sampling, "cap_states", lambda fn: tracer.counter("sampling.cap_states", fn))
    tracer.patch(lib.experiments, "run_experiment", span("experiments.run_experiment"))
    return tracer, tally


OBSERVABLES = (
    "functional_F",
    "functional_G",
    "order_parameter",
    "aggregation_defect",
    "dj_dt_norm_bound_check",
)
TRANSPORT = ("wasserstein_uniform_nested", "wasserstein_uniform", "wasserstein_general")

#: metrics computed from a counter whose name they do not start with
DERIVED_FROM = {
    "integrators.rhs_evals_per_step": "integrators.rk4_step",
    "sampling.cap_draws_per_accept": "sampling.cap_states",
}


def alloc_per_particle(lib, tracer: Tracer) -> float:
    """tracemalloc peak of one lhs_rhs call on the largest ensemble seen, per particle."""
    n, args = tracer.largest.get("dynamics.lhs_rhs", (0, ()))
    if not n:
        return 0.0
    lib.dynamics.lhs_rhs(*args)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lib.dynamics.lhs_rhs(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / n


def run_traced(workload, seconds: float, spans_path: Path) -> dict:
    """A fixed repetition count (from --seconds), so the counts repeat exactly."""
    lib = workload.lib
    reps = max(1, round(seconds / (2.0 * workload.nominal_rep_s)))
    plain, traced = Outcome(), Outcome()
    # The first repetition after set-up is the slowest (allocator and caches
    # settle); it is checked but timed in neither column.
    plain.run_rep(workload, RecordClock(), no_pause)
    plain.rep_s.clear()

    tracer, tally = install_tracer(lib)
    try:
        workload.setup()  # inputs again, so the sampling layer is traced
        tracer.restore()
        for _ in range(reps):  # alternate, so drift in machine load hits both columns
            plain.run_rep(workload, RecordClock(), no_pause)
            tracer.reinstall()
            traced.run_rep(workload, RecordClock(), tracer.paused)
            tracer.restore()
        tracer.reinstall()
        traced.run_finish(workload, tracer.paused)
    finally:
        tracer.restore()
    alloc = alloc_per_particle(lib, tracer)
    tracer.write_csv(spans_path)

    summary = tracer.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0}

    def row(name):
        return summary.get(name, empty)

    metrics: dict[str, tuple[float, str]] = {}

    def calls_and_self(name, calls_key="calls"):
        metrics[f"{name}.{calls_key}"] = (row(name)["calls"], "count")
        metrics[f"{name}.self_s"] = (row(name)["self_s"], "s")

    rhs = row("dynamics.lhs_rhs")
    calls_and_self("dynamics.lhs_rhs")
    metrics["dynamics.lhs_rhs.ns_per_particle"] = (
        1e9 * rhs["self_s"] / rhs["size"] if rhs["size"] else 0.0,
        "ns",
    )
    metrics["dynamics.lhs_rhs.peak_alloc_b_per_particle"] = (alloc, "B")

    calls_and_self("integrators.integrate")
    metrics["integrators.rk4_step.calls"] = (tracer.count_events("integrators.rk4_step"), "count")
    steps = tracer.count_events("integrators.rk4_step", "integrators.integrate")
    evals = tracer.count_spans("dynamics.lhs_rhs", "integrators.integrate")
    metrics["integrators.rhs_evals_per_step"] = (evals / steps if steps else 0.0, "count")
    metrics["integrators.snapshot_mb"] = (tally["snapshot_bytes"] / 2**20, "MiB")

    for name in OBSERVABLES:
        calls_and_self(f"observables.{name}")
    observer_s = row("integrators.observer")["total_s"]
    metrics["observables.observer_ms_per_record"] = (
        1e3 * observer_s / tally["records"] if tally["records"] else 0.0,
        "ms",
    )

    calls_and_self("transport.EmpiricalMeasure", "constructions")
    for name in TRANSPORT:
        calls_and_self(f"transport.{name}")
    for size, label in zip(workload.lp_sizes, LP_METRICS):
        metrics[f"transport.wasserstein_general.{label}"] = (
            tracer.median_ms("transport.wasserstein_general", size),
            "ms",
        )

    calls_and_self("sampling.admissible_cap_states")
    accepts = row("sampling.admissible_cap_states")["calls"]
    draws = tracer.count_events("sampling.cap_states", "sampling.admissible_cap_states")
    metrics["sampling.cap_draws_per_accept"] = (draws / accepts if accepts else 0.0, "ratio")

    metrics["experiments.run_experiment.self_s"] = (row("experiments.run_experiment")["self_s"], "s")
    metrics["trace_overhead_share"] = (
        statistics.median(traced.rep_s) / statistics.median(plain.rep_s) - 1.0
        if traced.rep_s and plain.rep_s
        else 0.0,
        "ratio",
    )

    def present(metric: str) -> bool:
        inputs = (metric, DERIVED_FROM.get(metric, metric))
        return not any(m.startswith(a + ".") or m == a for m in inputs for a in tracer.absent)

    return {
        "layers": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if present(k)},
        "absent": tracer.absent,
        "reps": reps,
        "untraced_rep_s": plain.rep_s,
        "traced_rep_s": traced.rep_s,
        "spans": len(tracer.names),
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "failures": plain.failures + traced.failures,
    }


def run_blas1(workload) -> dict:
    """Mean lhs_rhs time per particle on the large_n ensemble (set up by the caller)."""
    lib = workload.lib
    if not hasattr(lib.dynamics, "lhs_rhs"):
        return {"ns_per_particle": None}
    for _ in range(2):
        lib.dynamics.lhs_rhs(workload.ens)
    calls = 20
    t0 = perf_counter()
    for _ in range(calls):
        lib.dynamics.lhs_rhs(workload.ens)
    elapsed = perf_counter() - t0
    return {"ns_per_particle": 1e9 * elapsed / (calls * workload.n)}


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace", "blas1"), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--spans", type=Path, help="CSV file the traced run writes its spans to")
    parser.add_argument(
        "--stop-at",
        type=float,
        default=float("inf"),
        help="CLOCK_MONOTONIC time after which --mode run starts no repetition",
    )
    args = parser.parse_args(argv)

    lib = import_library()
    workload_cls = LargeN if args.mode == "blas1" else WORKLOADS[args.workload]
    workload = workload_cls(lib, args.seed, args.size == "tiny")
    workload.setup()
    workload.warm_up()
    t_ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    if args.mode == "setup":
        result = {}
    elif args.mode == "run":
        result = run_timed(workload, args.seconds, args.stop_at)
    elif args.mode == "trace":
        result = run_traced(workload, args.seconds, args.spans)
    else:
        result = run_blas1(workload)
    result["t_ready"] = t_ready
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
