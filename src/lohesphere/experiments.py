"""Quantitative verification experiments.

Seven named experiments, each packaging one quantitative statement about
the aggregation model into a deterministic, seeded run with explicit
pass/fail verdicts:

  e1  exponential decay of the worst-pair functionals F and G
  e2  l^p stability of the particle flow with the constant exp(2T(|k0|+|k0+2k1|))
  e3  Cauchy property of nested empirical measures in W_2 (mean-field limit)
  e4  finite-time W_p stability of measure solutions under initial perturbations
  e5  order-parameter calculus: monotone R^2, analytic rate, defect decay, dJ/dt bound
  e6  complete aggregation vs an exactly antipodal exceptional atom (bi-polar limit)
  e7  solution splitting: rotating frame reproduces the zero-frequency flow

``simulate``, one more entry of the same table, integrates one configuration
and reports its observables with no checks.  Every verdict cites the
tolerance it used; each report serializes to JSON with its time series as
separate CSVs.  All randomness flows from the config seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np
from numpy.typing import NDArray

from .dynamics import CouplingParams, Ensemble, lhs_rhs
from .integrators import IntegratorConfig, integrate, rk4_step, split_transform
from .observables import (
    ObservableSeries,
    aggregation_defect,
    dj_dt_norm_bound_check,
    functional_F,
    j_vector,
    lp_distance,
    order_parameter,
    pair_extremes,
    r_squared_rate,
)
from .sampling import (
    jitter_states,
    random_frequencies,
    random_sphere_states,
    sample_admissible,
)
from .transport import (
    EmpiricalMeasure,
    wasserstein_nested_track,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "CheckResult",
    "ExperimentReport",
    "EXPERIMENTS",
    "run_experiment",
    "run_simulate",
    "sweep_axis",
    "run_e1",
    "run_e2",
    "run_e3",
    "run_e4",
    "run_e5",
    "run_e6",
    "run_e7",
]


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 2)."""


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Declarative run configuration (flat key-value tree): the experiment id
    and the keys of every entry of ``EXPERIMENTS``.

    ``from_dict`` merges a raw config over the entry's defaults, accepts
    only the keys the entry's runner reads (``_keys_read``) and coerces
    every value to its field's type.  Any other field keeps its default,
    which that runner does not read.
    """

    experiment: str
    # the ensemble, gains, stepping, frequencies and seed of every run
    n: int = 64
    d: int = 4
    kappa0: float = 1.0
    kappa1: float = 0.0
    delta: float = 0.05
    dt: float = 1e-3
    t_end: float = 20.0
    seed: int = 7
    n_samples: int = 200
    omega_scale: float = 0.0
    heterogeneous: bool = False
    # simulate: the initial data, an admissible cap draw or uniform states
    init: str = "admissible"
    # e2 / e4: stability sweeps
    n_seeds: int = 20
    jitter: float = 1e-2
    horizons: tuple[float, ...] = (1.0, 2.0)
    p_values: tuple[float, ...] = (1.0, 2.0, 4.0)
    t_mid: float = 10.0
    t_long: float = 100.0
    # e3: nested ensemble sizes, consecutive doublings
    n_grid: tuple[int, ...] = (16, 32, 64, 128)
    # e6 scenario b: transverse spread of the mirror cluster
    cluster_spread: float = 0.2

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment id {self.experiment!r}; expected one of {sorted(EXPERIMENTS)}"
            )
        grid = self.n_grid
        _check_rules(self, {
            "n": (self.n >= 1, ">= 1"),
            "d": (self.d >= 1, ">= 1"),
            "n_samples": (self.n_samples >= 2, ">= 2"),
            "omega_scale": (self.omega_scale >= 0, ">= 0"),
            "seed": (self.seed >= 0, ">= 0"),
            "init": (self.init in ("admissible", "uniform"), "'admissible' or 'uniform'"),
            "n_seeds": (self.n_seeds >= 1, ">= 1"),
            # distinct as the check names print them
            "horizons": (
                len(self.horizons) >= 1
                and all(h >= 0 for h in self.horizons)
                and len({f"{h:g}" for h in self.horizons}) == len(self.horizons),
                "one or more distinct times >= 0",
            ),
            "p_values": (
                len(self.p_values) >= 1
                and all(p >= 1 for p in self.p_values)
                and len({f"{p:g}" for p in self.p_values}) == len(self.p_values),
                "one or more distinct orders p >= 1",
            ),
            "t_mid": (0 <= self.t_mid < self.t_long, f"0 <= t_mid < t_long = {self.t_long:g}"),
            "n_grid": (
                len(grid) >= 2
                and grid[0] >= 1
                and all(big == 2 * small for small, big in zip(grid, grid[1:])),
                "two or more consecutive doublings, e.g. 16,32,64,128",
            ),
        })
        # spread 0 draws the zero matrix, whatever the flag says
        if self.heterogeneous and not self.omega_scale > 0:
            raise ConfigError("config key 'heterogeneous': true needs omega_scale > 0")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if "experiment" not in raw:
            raise ConfigError("config is missing the 'experiment' key")
        known = {f.name: f for f in fields(cls)}
        unknown = [key for key in raw if key not in known]
        if unknown:
            raise ConfigError(f"unknown config key {unknown[0]!r}")
        # an id with no entry reads every key here; __post_init__ rejects it, whatever its type
        _, defaults, keys = EXPERIMENTS.get(str(raw["experiment"]), (None, {}, raw))
        _reject_unread(raw, keys)
        coerced: dict = {}
        for key, value in {**defaults, **raw}.items():
            try:
                coerced[key] = _coerce(known[key].type, value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
        cfg = cls(**coerced)
        # the keys a run reads can depend on its values: uniform draws read no delta
        _reject_unread(raw, _keys_read(cfg))
        return cfg


def _reject_unread(raw: dict, keys) -> None:
    unread = [key for key in raw if key not in keys and key != "experiment"]
    if unread:
        raise ConfigError(f"config key {unread[0]!r} is not read by {raw['experiment']}")


def _keys_read(cfg: ExperimentConfig) -> frozenset:
    """The config keys ``cfg``'s run reads: its ``EXPERIMENTS`` entry's keys,
    less the cap's margin ``delta`` where the run draws uniform states
    (``simulate`` at ``init`` "uniform", e5 at gains that admit no cap)."""
    keys = EXPERIMENTS[cfg.experiment][2]
    if cfg.init == "uniform" or (cfg.experiment == "e5" and not _e5_admits_cap(cfg)):
        return keys - {"delta"}
    return keys


def _check_rules(cfg, rules: dict[str, tuple[bool, str]]) -> None:
    """Raise a config error for the first key whose rule ``(valid, expected)`` fails."""
    for key, (valid, expected) in rules.items():
        if not valid:
            raise ConfigError(f"config key {key!r}: expected {expected}, got {getattr(cfg, key)!r}")


def _coerce(type_name: str, value):
    if type_name == "int":
        # int() of an infinity raises OverflowError, whose message names no value
        if isinstance(value, bool) or value in (math.inf, -math.inf) or int(value) != value:
            raise ValueError(f"expected an integer, got {value!r}")
        # an int64, like the step count t_end / dt
        if not -(2**63) <= value < 2**63:
            raise ValueError(f"expected an integer in [-2**63, 2**63), got {value!r}")
        return int(value)
    if type_name == "float":
        # a JSON number: float("1.5") and float(True) would pass
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"expected a number, got {value!r}")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {value!r}")
        return value
    if type_name == "bool":
        if not isinstance(value, bool):
            raise ValueError(f"expected a boolean, got {value!r}")
        return value
    if type_name == "str":
        return str(value)
    if type_name.startswith("tuple"):
        # a JSON list: a string or an object would iterate
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"expected a list, got {value!r}")
        item = "int" if "int" in type_name else "float"
        return tuple(_coerce(item, v) for v in value)
    return value


def sweep_axis(raw: dict) -> tuple[str, list]:
    """The parameter and the values of a sweep config's ``axis``: a config
    key name and a list of ``values``."""
    axis = raw.get("axis")
    if not isinstance(axis, dict) or "parameter" not in axis:
        raise ConfigError("sweep config needs an 'axis' object with a 'parameter' key")
    extra = sorted(set(axis) - {"parameter", "values"})
    if extra:
        raise ConfigError(f"sweep axis {extra[0]!r}: unknown key (an axis lists its 'values')")
    parameter, values = axis["parameter"], axis.get("values")
    if not isinstance(parameter, str):
        raise ConfigError(f"sweep axis 'parameter': expected a config key name, got {parameter!r}")
    if not isinstance(values, list):
        raise ConfigError(f"sweep axis 'values': expected a list, got {values!r}")
    if not values:
        raise ConfigError("sweep axis is empty")
    return parameter, values


@dataclass
class CheckResult:
    """One asserted bound, ``observed <= limit + tolerance``; every check
    gates its experiment's verdict.

    The numbers are stored as floats and ``passed`` is computed from them at
    construction, so a verdict always matches its own numbers; a NaN fails.
    """

    name: str
    observed: float
    limit: float
    tolerance: float
    detail: str = ""
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        self.observed = float(self.observed)
        self.limit = float(self.limit)
        self.tolerance = float(self.tolerance)
        self.passed = self.observed <= self.limit + self.tolerance

    @property
    def gating(self) -> bool:
        """Always true; kept for readers that filter checks on it."""
        return True


@dataclass
class ExperimentReport:
    """Experiment output: config snapshot, verdicts, summary data, series.

    A runner fills in the verdicts, data and series; ``data`` holds only
    numbers that no check observes.  ``run_experiment`` sets the experiment
    id, the seed and the config: the id and the keys the run read.
    """

    experiment: str = ""
    config: dict = field(default_factory=dict)
    seed: int = 0
    checks: list[CheckResult] = field(default_factory=list)
    data: dict = field(default_factory=dict)
    series: dict[str, ObservableSeries] = field(default_factory=dict)
    wall_clock: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_payload(self) -> dict:
        return {
            "experiment": self.experiment,
            "config": _jsonable(self.config),
            "seed": self.seed,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
            "data": _jsonable(self.data),
            "wall_clock_seconds": self.wall_clock,
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _integrator_config(cfg: ExperimentConfig, t_end: float | None = None) -> IntegratorConfig:
    """Stepping up to t_end (default ``cfg.t_end``) in about ``cfg.n_samples`` records;
    an invalid dt or t_end, or a step count ``t_end / dt`` out of range, is a config error."""
    try:
        icfg = IntegratorConfig(t_end=cfg.t_end if t_end is None else t_end, dt=cfg.dt)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return replace(icfg, record_every=max(icfg.n_steps // (cfg.n_samples - 1), 1))


def standard_observers(params: CouplingParams, with_dj: bool) -> dict:
    """Observer set recorded along every experiment trajectory.

    The observers of one record share one pair scan for F and G, one
    uniform measure and one R.  They are kept for the last snapshot seen,
    matched by identity: ``integrate`` passes every observer of a record
    the same recorded snapshot, and the kept reference stops its id from
    being reused by the next record's snapshot.
    """
    last: dict = {}

    def record(s) -> dict:
        if last.get("states") is not s:
            f, g = pair_extremes(s)
            measure = EmpiricalMeasure.uniform(s)
            last.update(states=s, F=f, G=g, measure=measure, R=order_parameter(measure))
        return last

    obs = {
        "F": lambda t, s: record(s)["F"],
        "G": lambda t, s: record(s)["G"],
        "R": lambda t, s: record(s)["R"],
        "R2": lambda t, s: record(s)["R"] ** 2,
        "defect": lambda t, s: aggregation_defect(record(s)["measure"]),
    }
    if with_dj:
        obs["dj_norm"] = lambda t, s: dj_dt_norm_bound_check(
            record(s)["measure"], params.kappa0, params.kappa1
        )[0]
    return obs


def pair_inequality_check(series: ObservableSeries) -> CheckResult:
    """G <= 2 sqrt(F) at every recorded time, to 1e-12."""
    gap = np.max(series.column("G") - 2.0 * np.sqrt(np.maximum(series.column("F"), 0.0)))
    return CheckResult(
        "pair_inequality",
        gap,
        0.0,
        1e-12,
        detail="max over recorded times of G - 2 sqrt(F)",
    )


#: step h of ``fd_r_squared_rate``'s probes
FD_STEP = 1e-3


def fd_r_squared_rate(ens: Ensemble) -> float | NDArray:
    """Centered finite difference of R^2 along the flow, Richardson-extrapolated once.

    ``ens`` may be a batch, (..., N, d).  The probes at +h, -h, +h/2 and -h/2
    (h = ``FD_STEP``) of every member advance in one RK4 step, on a repeated
    copy of the states (a stride-0 view would change the bits of the
    centroid sums).
    Returns one rate per member, or a float for a single ensemble.
    """
    steps = np.array([FD_STEP, -FD_STEP, FD_STEP / 2.0, -FD_STEP / 2.0])
    repeated = np.repeat(ens.states[..., None, :, :], 4, axis=-3)
    probes = Ensemble(repeated, ens.frequencies[..., None, :, :, :], ens.params)
    moved = rk4_step(
        repeated, steps[:, None, None], lambda s, out: lhs_rhs(probes.replace_states(s), out=out)
    )
    zc = moved.mean(axis=-2)
    # one np.vdot per probe: a vectorized |zc|^2 sums in another order
    r2 = np.reshape([np.vdot(z, z).real for z in zc.reshape(-1, zc.shape[-1])], zc.shape[:-1])
    centered = (r2[..., 0::2] - r2[..., 1::2]) / (2.0 * steps[0::2])
    rate = (4.0 * centered[..., 1] - centered[..., 0]) / 3.0
    return float(rate) if ens.states.ndim == 2 else rate


def fit_decay_rate(times: NDArray, values: NDArray) -> float:
    """Least-squares slope of log(values); returns the positive decay rate."""
    mask = values > max(1e-300, values[0] * 1e-12)
    if np.count_nonzero(mask) < 2:
        return 0.0
    slope = np.polyfit(times[mask], np.log(values[mask]), 1)[0]
    return float(-slope)


def _saturation_check(
    name: str, ratio: NDArray, times: NDArray, t_mid: float, detail: str
) -> CheckResult:
    """Uniform-in-time check: the sup of ratio over the whole run is at most
    1.05 times its sup over t <= t_mid."""
    sup_mid = float(np.max(ratio[times <= t_mid + 1e-12]))
    return CheckResult(name, np.max(ratio), 1.05 * sup_mid, 0.0, detail=detail)


def _admissible_ensemble(cfg: ExperimentConfig) -> Ensemble:
    try:
        return sample_admissible(
            cfg.n,
            cfg.d,
            cfg.kappa0,
            cfg.kappa1,
            cfg.delta,
            cfg.seed,
            omega_scale=cfg.omega_scale,
            heterogeneous=cfg.heterogeneous,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _uniform_ensemble(cfg: ExperimentConfig) -> Ensemble:
    """Uniform states on the sphere, then the config's frequencies, both
    drawn from ``default_rng(cfg.seed)``."""
    rng = np.random.default_rng(cfg.seed)
    states = random_sphere_states(rng, cfg.n, cfg.d)
    freqs = random_frequencies(rng, cfg.n, cfg.d, cfg.omega_scale, cfg.heterogeneous)
    return Ensemble(states, freqs, CouplingParams(cfg.kappa0, cfg.kappa1))


def _perturbed_pair(cfg: ExperimentConfig, seed: np.random.SeedSequence) -> Ensemble:
    """The config's admissible draw and a copy jittered by ``cfg.jitter`` from
    ``default_rng(seed)``, as one (2, N, d) batch at the draw's common frequency."""
    ens = _admissible_ensemble(cfg)
    other = jitter_states(np.random.default_rng(seed), ens.states, cfg.jitter)
    return Ensemble(np.stack([ens.states, other]), ens.common_frequency, ens.params)


def run_simulate(cfg: ExperimentConfig) -> ExperimentReport:
    """Integrate one configuration, with no checks: the standard observers
    without dJ/dt, then the centroid J of every record as columns j_re_k and
    j_im_k."""
    ens = _admissible_ensemble(cfg) if cfg.init == "admissible" else _uniform_ensemble(cfg)
    traj, series = integrate(ens, _integrator_config(cfg), standard_observers(ens.params, False))
    centroids = traj.snapshots.mean(axis=1)
    for k in range(cfg.d):
        series.series[f"j_re_{k}"] = centroids[:, k].real
        series.series[f"j_im_{k}"] = centroids[:, k].imag
    return ExperimentReport(series={"observables": series})


# ---------------------------------------------------------------------------
# E1: exponential aggregation
# ---------------------------------------------------------------------------


def run_e1(cfg: ExperimentConfig) -> ExperimentReport:
    """Exponential decay of F and G for admissible data.

    Asserts F(t) <= F0 exp(-2 kappa0 delta t) and
    G(t) <= 2 sqrt(F0) exp(-kappa0 delta t) at every recorded time, checks the
    differential inequality of F by finite differences, and reports the
    fitted decay exponent of F next to the guaranteed rate.
    """
    ens = _admissible_ensemble(cfg)
    params = ens.params
    icfg = _integrator_config(cfg)
    _, series = integrate(ens, icfg, standard_observers(params, with_dj=False))

    times = series.times
    f_vals = series.column("F")
    f0 = float(f_vals[0])
    g_vals = series.column("G")
    rate = 2.0 * cfg.kappa0 * cfg.delta
    f_bound = f0 * np.exp(-rate * times)
    g_bound = 2.0 * math.sqrt(f0) * np.exp(-0.5 * rate * times)

    checks = [
        CheckResult(
            "F_exponential_bound",
            np.max(f_vals - f_bound),
            0.0,
            1e-12,
            detail=f"max_t F(t) - F0 exp(-{rate:g} t); first violation would be reported",
        ),
        CheckResult(
            "G_exponential_bound",
            np.max(g_vals - g_bound),
            0.0,
            1e-12,
            detail=f"max_t G(t) - 2 sqrt(F0) exp(-{rate / 2:g} t)",
        ),
        pair_inequality_check(series),
    ]
    bad = np.nonzero(f_vals > f_bound + 1e-12)[0]
    if bad.size:
        checks[0].detail += f"; first violating time t = {times[bad[0]]:g}"

    # differential inequality of F, discretization error absorbed by 1e-3 slack
    ratio = 2.0 * abs(cfg.kappa1) / cfg.kappa0
    if len(times) >= 3:
        fdot = (f_vals[2:] - f_vals[:-2]) / (times[2:] - times[:-2])
        f_mid = f_vals[1:-1]
        rhs = -2.0 * cfg.kappa0 * (1.0 - f_mid - ratio) * f_mid + 1e-3 * (1.0 + np.abs(fdot))
        checks.append(
            CheckResult(
                "f_differential_inequality",
                np.max(fdot - rhs),
                0.0,
                0.0,
                detail="dF/dt <= -2 kappa0 (1 - F - 2|kappa1|/kappa0) F + 1e-3 (1 + |dF/dt|)",
            )
        )

    return ExperimentReport(
        checks=checks,
        data={"f0": f0, "guaranteed_rate": rate, "fitted_rate": fit_decay_rate(times, f_vals)},
        series={"observables": series},
    )


# ---------------------------------------------------------------------------
# E2: l^p stability
# ---------------------------------------------------------------------------


def _stability_constant(kappa0: float, kappa1: float, horizon: float) -> float:
    return math.exp(2.0 * horizon * (abs(kappa0) + abs(kappa0 + 2.0 * kappa1)))


def _pair_tracks(
    pairs: Ensemble, icfg: IntegratorConfig, p_values, track
) -> tuple[NDArray, dict[float, NDArray]]:
    """Integrate a batch whose axis -3 holds the two members of each pair, in
    one run, and return the recorded times and, per p, ``track(snaps_a,
    snaps_b, p)`` on the (T, ..., N, d) snapshot stacks of the two members."""
    traj, _ = integrate(pairs, icfg)
    snaps_a, snaps_b = np.moveaxis(traj.snapshots, -3, 0)
    return traj.times, {p: track(snaps_a, snaps_b, p) for p in p_values}


def _stability_checks(
    name: str,
    cfg: ExperimentConfig,
    pairs: NDArray,
    times: NDArray,
    tracks: dict[float, NDArray],
    ratio: str,
) -> list[CheckResult]:
    """Per horizon T and order p, the worst pair's ratio
    sup_{t<=T} d_p(t) / (G_T d_p(0)) against 1, from ``tracks[p]`` of shape
    (T,) or (T, pairs); ``ratio`` words it in the detail.  Returns the checks,
    named ``{name}_T{T:g}_p{p:g}``.

    Two starts are config errors, read before any ratio: a pair that starts
    within 1e-12, whose ratio would gauge rounding noise, and a d_p(0)^p
    below the smallest normal double, which is cost^p lost to underflow (the
    ratio would read 0 or NaN).  An identical pair reads d_p(0) = 0 at every
    p too, so it is told apart by a start distance that does not depend on
    p: the largest atom gap max_k ||z_k - w_k|| of the closest pair in
    ``pairs``, the (..., 2, N, d) initial states.  Identical data are e2's
    uniqueness check.
    """
    gaps = np.linalg.norm(pairs[..., 0, :, :] - pairs[..., 1, :, :], axis=-1)
    gap = np.min(np.max(gaps, axis=-1))
    starts = {p: np.min(tracks[p][0]) for p in cfg.p_values}
    lost = [p for p, start in starts.items() if start**p < np.finfo(float).tiny]
    if lost and gap > 1e-12:
        raise ConfigError(f"config key 'p_values': the pair's cost^p underflows at p = {lost[0]:g}")
    closest = min(gap, *starts.values())
    if closest <= 1e-12:
        raise ConfigError(f"config key 'jitter': a pair starts {closest:.2g} apart")
    checks = []
    for h in cfg.horizons:
        gain = _stability_constant(cfg.kappa0, cfg.kappa1, h)
        for p in cfg.p_values:
            track = tracks[p]
            worst = np.max(np.max(track[times <= h + 1e-12], axis=0) / (gain * track[0]))
            detail = f"{ratio}, G_T = exp(2*{h:g}*(|kappa0|+|kappa0+2 kappa1|)) = {gain:.6g}"
            checks.append(CheckResult(f"{name}_T{h:g}_p{p:g}", worst, 1.0, 0.0, detail=detail))
    return checks


def _long_pair_check(
    name: str, cfg: ExperimentConfig, long_cfg: IntegratorConfig, pair: Ensemble, track
) -> tuple[CheckResult, NDArray, NDArray]:
    """Step an admissible pair to t_long and check that its p = 2 ratio
    d_2(t) / d_2(0) saturates.  Returns ``_saturation_check``'s check, the
    recorded times and the ratio."""
    times, dists = _pair_tracks(pair, long_cfg, (2.0,), track)
    ratio = dists[2.0] / dists[2.0][0]
    detail = (
        f"admissible p=2 ratio: sup over t <= {cfg.t_long:g} vs "
        f"1.05 * sup over t <= {cfg.t_mid:g}"
    )
    return _saturation_check(name, ratio, times, cfg.t_mid, detail), times, ratio


def run_e2(cfg: ExperimentConfig) -> ExperimentReport:
    """l^p stability of the particle flow.

    For generic (not necessarily admissible) data and every p in p_values,
    T in horizons:  sup_{t<=T} ||Z - Z~||_p <= exp(2T(|k0|+|k0+2k1|)) ||Z0 - Z~0||_p
    across n_seeds independent draws.  Identical initial data must stay
    identical to 1e-9.  For admissible data the p = 2 ratio saturates: the
    sup over t <= t_long exceeds the sup over t <= t_mid by at most 5%.
    The seed pairs and the identical pair, last, run as one (n_seeds + 1, 2, N, d) batch.
    """
    params = CouplingParams(cfg.kappa0, cfg.kappa1)
    icfg = _integrator_config(cfg, t_end=max(cfg.horizons))
    long_cfg = _integrator_config(cfg, t_end=cfg.t_long)
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_seeds + 1)

    states = np.empty((cfg.n_seeds + 1, 2, cfg.n, cfg.d), dtype=np.complex128)
    freqs = []
    for k in range(cfg.n_seeds):
        rng = np.random.default_rng(seeds[k])
        states[k, 0] = random_sphere_states(rng, cfg.n, cfg.d)
        states[k, 1] = jitter_states(rng, states[k, 0], cfg.jitter)
        freqs.append(random_frequencies(rng, cfg.n, cfg.d, cfg.omega_scale, cfg.heterogeneous))
    # the last pair starts identical, at zero frequency
    states[-1] = random_sphere_states(np.random.default_rng(seeds[-1]), cfg.n, cfg.d)
    freqs.append(np.zeros_like(freqs[-1]))
    # one (d, d) or (N, d, d) draw per seed, shared by both members of its pair
    freqs = np.reshape(freqs, (cfg.n_seeds + 1, 1, -1, cfg.d, cfg.d))
    # the grid-density change below reads the p = 2 track
    times, dists = _pair_tracks(
        Ensemble(states, freqs, params), icfg, {*cfg.p_values, 2.0}, lp_distance
    )
    identical = dists[2.0][:, -1]
    dists = {p: track[:, :-1] for p, track in dists.items()}
    wording = "worst seed ratio sup_t ||Z-Z~||_p / (G_T ||Z0-Z~0||_p)"
    checks = _stability_checks("lp_bound", cfg, states[:-1], times, dists, wording)
    # seed 0's p=2 sup at doubled sample density: how much the record grid misses
    dense = replace(icfg, record_every=max(icfg.record_every // 2, 1))
    _, dists_d = _pair_tracks(Ensemble(states[0], freqs[0], params), dense, (2.0,), lp_distance)
    sup_coarse = float(np.max(dists[2.0][:, 0]))
    sup_dense = float(np.max(dists_d[2.0]))

    # identical initial data stay identical (uniqueness of the flow)
    checks.append(
        CheckResult(
            "identical_data_stay_identical",
            float(np.max(identical)),
            0.0,
            1e-9,
            detail="sup_t ||Z - Z~||_2 for Z~0 = Z0",
        )
    )

    # admissible long-run saturation of the p = 2 ratio
    pair = _perturbed_pair(
        replace(cfg, heterogeneous=False, omega_scale=0.0), seeds[-1].spawn(1)[0]
    )
    saturation, _, _ = _long_pair_check(
        "admissible_uniform_in_time", cfg, long_cfg, pair, lp_distance
    )
    checks.append(saturation)

    change = abs(sup_dense - sup_coarse) / max(sup_coarse, 1e-300)
    return ExperimentReport(checks=checks, data={"grid_density_relative_change": change})


# ---------------------------------------------------------------------------
# E3: mean-field Cauchy property
# ---------------------------------------------------------------------------


def _nested_w2_tracks(
    cfg: ExperimentConfig, states: NDArray
) -> tuple[NDArray, dict[tuple[int, int], NDArray], dict[str, float]]:
    """Integrate the nested zero-frequency ensembles ``states[:n]`` for n in
    n_grid up to cfg.t_end and return the recorded times, per consecutive
    pair (n, 2n) the track of W_2(mu^n_t, mu^2n_t), and the seconds spent
    stepping and in transport.
    """
    params = CouplingParams(cfg.kappa0, cfg.kappa1)
    icfg = _integrator_config(cfg)
    start = time.perf_counter()
    snaps = {}
    for n in cfg.n_grid:
        traj, _ = integrate(Ensemble.zero_frequency(states[:n], params), icfg)
        snaps[n] = traj.snapshots
    stepped = time.perf_counter()
    tracks = {
        (small, big): wasserstein_nested_track(snaps[small], snaps[big], 2.0)
        for small, big in zip(cfg.n_grid, cfg.n_grid[1:])
    }
    seconds = {"stepping": stepped - start, "transport": time.perf_counter() - stepped}
    return traj.times, tracks, seconds


def run_e3(cfg: ExperimentConfig) -> ExperimentReport:
    """Cauchy property of nested empirical measures in W_2.

    Builds nested admissible ensembles (each doubled ensemble keeps the
    smaller one's atoms and adds fresh draws from the same cap), integrates
    them at zero frequency, and checks that
    sup_{t<=T} W_2(mu^N_t, mu^{2N}_t) is nonincreasing across the pairs and
    uniformly controlled by the initial distances with one fitted constant.
    A common frequency Omega would leave every W_2 unchanged: the splitting
    gives z(t) = exp(Omega t) w(t), and the chordal cost is unitarily
    invariant, so e3 reads no frequency key.
    """
    n_max = cfg.n_grid[-1]
    states = _admissible_ensemble(replace(cfg, n=n_max)).states

    grid, w2, seconds = _nested_w2_tracks(cfg, states)
    pairs = list(w2)
    sups = [float(np.max(track)) for track in w2.values()]
    initials = [float(track[0]) for track in w2.values()]

    sups_arr = np.asarray(sups)
    initials_arr = np.asarray(initials)
    fitted_c = float(np.sum(sups_arr * initials_arr) / np.sum(initials_arr**2))
    checks = [
        CheckResult(
            "cauchy_nonincreasing",
            float(np.max(np.diff(sups_arr))) if len(sups_arr) > 1 else 0.0,
            0.0,
            0.0,
            detail="max increase of sup_t W2(mu^N, mu^2N) across consecutive pairs",
        ),
        CheckResult(
            "uniform_bound_fitted_constant",
            float(np.max(sups_arr - fitted_c * initials_arr)),
            0.05,
            0.0,
            detail=f"sup_t W2 <= C * W2(0) + 0.05 with single fitted C = {fitted_c:.6g}",
        ),
    ]

    series = ObservableSeries(
        times=grid,
        series={f"w2_{small}_{big}": track for (small, big), track in w2.items()},
    )

    return ExperimentReport(
        checks=checks,
        data={
            "pairs": [list(p) for p in pairs],
            "sup_w2": sups,
            "initial_w2": initials,
            "fitted_constant": fitted_c,
            "seconds": seconds,
        },
        series={"wasserstein": series},
    )


# ---------------------------------------------------------------------------
# E4: finite-time stability of measure solutions
# ---------------------------------------------------------------------------


def run_e4(cfg: ExperimentConfig) -> ExperimentReport:
    """W_p stability of empirical-measure solutions under initial perturbation.

    Two admissible atomic measures whose initial states differ by a small
    jitter are integrated at the same zero or common frequency; asserts
    sup_{t<=T} W_p(mu_t, nu_t) / (G_T W_p(mu_0, nu_0)) <= 1 over the
    horizons and p values, and that the p = 2 ratio at t_long exceeds the
    t_mid ratio by at most 5%.  W_p compares the states only, so e4 does not
    read ``heterogeneous``.
    """
    icfg = _integrator_config(cfg, t_end=max(cfg.horizons))
    long_cfg = _integrator_config(cfg, t_end=cfg.t_long)
    pair = _perturbed_pair(cfg, np.random.SeedSequence(cfg.seed).spawn(1)[0])

    times, w_tracks = _pair_tracks(pair, icfg, cfg.p_values, wasserstein_nested_track)
    wording = "ratio sup_t W_p(mu_t, nu_t) / (G_T W_p(mu_0, nu_0))"
    checks = _stability_checks("wp_stability", cfg, pair.states, times, w_tracks, wording)
    saturation, times_l, ratio = _long_pair_check(
        "admissible_t_independent_constant", cfg, long_cfg, pair, wasserstein_nested_track
    )
    checks.append(saturation)
    return ExperimentReport(
        checks=checks,
        series={"w2_ratio": ObservableSeries(times=times_l, series={"w2_ratio": ratio})},
    )


# ---------------------------------------------------------------------------
# E5: order-parameter calculus
# ---------------------------------------------------------------------------


def _e5_admits_cap(cfg: ExperimentConfig) -> bool:
    """Whether e5's gains admit an admissible cap, |kappa1| < kappa0 / 2.
    Gains outside the aligned regime, kappa0 > 0 and kappa0 + 2 kappa1 >= 0,
    are a config error."""
    if not cfg.kappa0 > 0 or cfg.kappa0 + 2.0 * cfg.kappa1 < 0:
        raise ConfigError("e5 requires kappa0 > 0 and kappa0 + 2 kappa1 >= 0")
    return abs(cfg.kappa1) < cfg.kappa0 / 2.0


def run_e5(cfg: ExperimentConfig) -> ExperimentReport:
    """Order-parameter calculus along an admissible aligned-regime run.

    Asserts (a) R^2 nondecreasing per recorded step, (b) the analytic R^2
    rate matches centered finite differences, (c) the aggregation defect
    decays by six orders at t_end, (d) ||dJ/dt|| stays below 2 (kappa0 +
    kappa1) at every sample, and reports the observed bound on the second
    difference of R^2 (its theoretical constant is never pinned down).
    These claims are stated for zero or common frequency, so e5 does not
    read ``heterogeneous``.  Gains that admit no cap (|kappa1| >= kappa0 / 2)
    run uniform states at the config's own frequency, without the defect
    check; any other inadmissible config is a config error, as in e1.
    """
    # the defect-decay claim needs admissible data; monotonicity, the rate
    # identity and the dJ/dt bound hold for any data in the aligned regime
    # (including the boundary kappa1 = -kappa0/2, where no cap is admissible)
    admissible_mode = _e5_admits_cap(cfg)
    ens = _admissible_ensemble(cfg) if admissible_mode else _uniform_ensemble(cfg)
    params = ens.params
    icfg = _integrator_config(cfg)
    traj, series = integrate(ens, icfg, standard_observers(params, with_dj=True))

    times = series.times
    r2 = series.column("R2")
    defect = series.column("defect")
    dj = series.column("dj_norm")

    checks = [
        CheckResult(
            "r_squared_nondecreasing",
            float(-np.min(np.diff(r2))) if len(r2) > 1 else 0.0,
            0.0,
            1e-10,
            detail="largest per-step decrease of R^2 over recorded times, -min diff(R^2)",
        ),
        CheckResult(
            "dj_dt_bound",
            float(np.max(dj)),
            2.0 * (cfg.kappa0 + cfg.kappa1),
            1e-8,
            detail="max_t ||dJ/dt|| (particle form) vs 2 (kappa0 + kappa1) + 1e-8",
        ),
        pair_inequality_check(series),
    ]
    if admissible_mode:
        checks.append(
            CheckResult(
                "defect_decay",
                defect[-1],
                1e-6 * max(defect[0], 1e-12),
                0.0,
                detail=f"defect({cfg.t_end:g}) vs 1e-6 * max(defect(0), 1e-12)",
            )
        )

    # analytic rate vs centered finite differences at early probes
    n_probes = min(10, len(times))
    probes = traj.snapshots[:n_probes]
    fd = fd_r_squared_rate(Ensemble(probes, ens.frequencies, params))
    rel_errs = []
    for snap, fd_k in zip(probes, fd):
        analytic = r_squared_rate(EmpiricalMeasure.uniform(snap), cfg.kappa0, cfg.kappa1)
        rel_errs.append(abs(analytic - fd_k) / max(abs(analytic), 1e-12))
    checks.append(
        CheckResult(
            "rate_matches_finite_difference",
            float(np.max(rel_errs)),
            1e-5,
            0.0,
            detail=f"relative error over the first {n_probes} recorded states",
        )
    )

    data = {"defect_initial": float(defect[0])}
    if len(times) >= 3:
        # observed sup |d2 R^2/dt^2|; its theoretical constant is not pinned
        step = float(np.mean(np.diff(times)))
        second = np.abs(np.diff(r2, 2)) / step**2
        data["max_r_squared_second_derivative"] = float(np.max(second))

    return ExperimentReport(checks=checks, data=data, series={"observables": series})


# ---------------------------------------------------------------------------
# E6: complete aggregation and the bi-polar exceptional set
# ---------------------------------------------------------------------------


def _mirror_cluster_states(
    rng: np.random.Generator, n: int, d: int, spread: float
) -> NDArray:
    """Real configuration: a mirror-symmetric cluster near +y and one atom at -y.

    Pairs normalize(y + spread u) / normalize(y - spread u) with u orthogonal
    to y keep the centroid exactly on the y axis for all time, so the
    antipodal atom sits on the exceptional stable manifold: it is a genuine
    equilibrium of the induced flow up to rounding.
    """
    if n < 3:
        raise ConfigError("scenario b needs at least 3 particles")
    if d < 2:
        raise ConfigError("scenario b needs d >= 2: C^1 has no real direction orthogonal to y")
    y = rng.standard_normal(d)
    y /= np.linalg.norm(y)
    cluster = n - 1
    states = [(-y).copy()]
    if cluster % 2 == 1:
        states.append(y.copy())
    for _ in range(cluster // 2):
        u = rng.standard_normal(d)
        u -= (u @ y) * y
        u /= np.linalg.norm(u)
        plus = y + spread * u
        minus = y - spread * u
        states.append(plus / np.linalg.norm(plus))
        states.append(minus / np.linalg.norm(minus))
    out = np.asarray(states, dtype=np.complex128)
    return out


def _w2_to_dirac(atoms: NDArray, y: NDArray) -> float:
    """W2 between the uniform measure on (N, d) atoms and the Dirac at y.

    The only coupling to a Dirac is the product measure, so W2^2 is the mean
    squared chordal cost, and no transport problem is solved.
    """
    return float(np.sqrt(np.mean(np.sum(np.abs(atoms - y) ** 2, axis=1))))


def run_e6(cfg: ExperimentConfig) -> ExperimentReport:
    """Complete aggregation vs the antipodal exceptional atom.

    Scenario (a): admissible data fully aggregate onto the direction of J
    (no mass ends up at -J).  Scenario (b): real data with one atom placed
    exactly antipodal to a mirror-symmetric cluster converge to the two-point
    configuration (1 - 1/N) delta_y + (1/N) delta_-y, the antipodal atom never
    leaving its exceptional position.
    """
    params = CouplingParams(cfg.kappa0, cfg.kappa1)
    checks: list[CheckResult] = []
    # scenario (b)'s own seed, drawn first: too few particles or d < 2 fail before any run
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(2)[1])
    states_b = _mirror_cluster_states(rng, cfg.n, cfg.d, cfg.cluster_spread)

    # scenario (a): admissible data -> Dirac limit along J
    ens = _admissible_ensemble(cfg)
    icfg = _integrator_config(cfg)
    traj, series = integrate(ens, icfg, standard_observers(params, with_dj=False))
    final = traj.snapshots[-1]
    j_final = j_vector(EmpiricalMeasure.uniform(final))
    j_hat = j_final / np.linalg.norm(j_final)
    checks.append(
        CheckResult(
            "a_alignment",
            1.0 - np.min((np.conj(final) @ j_hat).real),
            0.0,
            1e-4,
            detail="1 - min_j z_j . (J/||J||) at t_end (complete aggregation, no antipodal mass)",
        )
    )
    checks.append(
        CheckResult(
            "a_dirac_convergence",
            _w2_to_dirac(final, j_hat),
            1e-3,
            0.0,
            detail="W2(mu_t_end, delta_{J/||J||})",
        )
    )
    checks.append(pair_inequality_check(series))

    # scenario (b): real flow with an exactly antipodal exceptional atom
    t_end_b = min(cfg.t_end, 20.0)
    ens_b = Ensemble.zero_frequency(states_b, CouplingParams(cfg.kappa0, 0.0))
    icfg_b = _integrator_config(cfg, t_end=t_end_b)
    traj_b, _ = integrate(ens_b, icfg_b)

    antipodal_gap = 0.0
    for snap in traj_b.snapshots:
        j_hat_t = snap[1:].mean(axis=0)
        j_hat_t = j_hat_t / np.linalg.norm(j_hat_t)
        antipodal_gap = max(
            antipodal_gap, 1.0 + float((np.conj(snap[0]) @ j_hat_t).real)
        )
    final_b = traj_b.snapshots[-1]
    y_hat = final_b[1:].mean(axis=0)
    y_hat /= np.linalg.norm(y_hat)
    two_point = float(
        np.max(
            np.minimum(
                np.linalg.norm(final_b - y_hat[None, :], axis=1),
                np.linalg.norm(final_b + y_hat[None, :], axis=1),
            )
        )
    )
    checks.extend(
        [
            CheckResult(
                "b_antipodal_persistence",
                antipodal_gap,
                0.0,
                1e-8,
                detail="max_t (1 + x_antipodal . y_hat(t)): the exceptional atom stays put",
            ),
            CheckResult(
                "b_two_point_limit",
                two_point,
                1e-4,
                0.0,
                detail="max_j distance of final states to the {y, -y} pair",
            ),
            CheckResult(
                "b_cluster_aggregation",
                functional_F(final_b[1:]),
                1e-6,
                0.0,
                detail="worst-pair defect of the cluster at t_end",
            ),
            CheckResult(
                "b_real_invariance",
                float(np.max(np.abs(traj_b.snapshots.imag))),
                0.0,
                1e-12,
                detail="real initial data keep zero imaginary parts along the run",
            ),
        ]
    )

    return ExperimentReport(
        checks=checks, data={"b_antipodal_mass": 1.0 / cfg.n}, series={"observables": series}
    )


# ---------------------------------------------------------------------------
# E7: solution splitting
# ---------------------------------------------------------------------------


def run_e7(cfg: ExperimentConfig) -> ExperimentReport:
    """Solution splitting: the rotating frame of a homogeneous run solves the
    zero-frequency system.

    Runs the same initial data with common frequency Omega and with Omega = 0,
    then asserts max_j ||z_j(t) - exp(Omega t) w_j(t)|| <= 1e-6 on t <= t_end
    and that the scalar observables F, G, R agree between the runs to 1e-8.
    """
    # spread 0 would make the splitting trivial
    if not cfg.omega_scale > 0:
        raise ConfigError(f"config key 'omega_scale': e7 expects > 0, got {cfg.omega_scale:g}")
    ens_full = _uniform_ensemble(cfg)
    params = ens_full.params
    icfg = _integrator_config(cfg)
    ens_zero = Ensemble.zero_frequency(ens_full.states, params)
    traj_full, series_full = integrate(ens_full, icfg, standard_observers(params, False))
    traj_zero, series_zero = integrate(ens_zero, icfg, standard_observers(params, False))

    # exp(Omega t) is unitary, so ||z_j - exp(Omega t) w_j|| = ||exp(-Omega t) z_j - w_j||
    split = split_transform(traj_full)
    deviation = float(np.max(np.linalg.norm(split - traj_zero.snapshots, axis=2)))

    obs_gap = max(
        float(np.max(np.abs(series_full.column(name) - series_zero.column(name))))
        for name in ("F", "G", "R")
    )
    checks = [
        CheckResult(
            "splitting_max_deviation",
            deviation,
            1e-6,
            0.0,
            detail="max_{t, j} ||z_j(t) - exp(Omega t) w_j(t)||",
        ),
        CheckResult(
            "observable_agreement",
            obs_gap,
            1e-8,
            0.0,
            detail="max_t |F/G/R of the rotating run minus the zero-frequency run|",
        ),
        pair_inequality_check(series_full),
    ]
    return ExperimentReport(checks=checks, series={"observables": series_full})


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

#: keys of a run that steps one draw to t_end, of e2's and e4's pairs (stepped to
#: the horizons and t_long) and of e3's nested zero-frequency draws
_RUN = frozenset("n d kappa0 kappa1 delta dt t_end seed n_samples omega_scale".split())
_PAIR = _RUN - {"t_end"} | {"jitter", "horizons", "p_values", "t_mid", "t_long"}
_NESTED = _RUN - {"n", "omega_scale"} | {"n_grid"}
#: experiment id -> its runner, the values that differ from the ExperimentConfig
#: defaults, and the config keys the runner reads (see ``_keys_read``)
EXPERIMENTS: dict[str, tuple] = {
    "e1": (run_e1, {"kappa1": -0.2}, _RUN),
    "e2": (
        run_e2,
        {
            "n": 16,
            "kappa1": 0.2,
            "delta": 0.5,
            "omega_scale": 0.5,
            "heterogeneous": True,
        },
        _PAIR | {"heterogeneous", "n_seeds"},
    ),
    "e3": (run_e3, {"kappa1": 0.1, "delta": 0.3, "t_end": 50.0}, _NESTED),
    "e4": (run_e4, {"n": 16, "kappa1": 0.1, "delta": 0.3, "jitter": 1e-3}, _PAIR),
    "e5": (run_e5, {"n": 32, "kappa1": 0.1, "delta": 0.3, "t_end": 50.0}, _RUN),
    "e6": (
        run_e6,
        {"n": 16, "kappa1": 0.1, "delta": 0.3, "t_end": 50.0},
        _RUN | {"cluster_spread"},
    ),
    "e7": (run_e7, {"n": 32, "kappa1": 0.2, "t_end": 10.0, "omega_scale": 1.0}, _RUN - {"delta"}),
    "simulate": (
        run_simulate,
        {"n": 32, "delta": 0.1, "t_end": 5.0, "seed": 0},
        _RUN | {"heterogeneous", "init"},
    ),
}


def run_experiment(cfg: ExperimentConfig | dict) -> ExperimentReport:
    """Dispatch an experiment by id, timing the run."""
    if isinstance(cfg, dict):
        cfg = ExperimentConfig.from_dict(cfg)
    start = time.perf_counter()
    report = EXPERIMENTS[cfg.experiment][0](cfg)
    report.wall_clock = time.perf_counter() - start
    report.experiment, report.seed = cfg.experiment, cfg.seed
    keys = _keys_read(cfg) | {"experiment"}
    report.config = {k: v for k, v in asdict(cfg).items() if k in keys}
    return report
