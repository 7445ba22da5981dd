"""Time stepping with norm renormalization and the splitting transform.

Classical RK4 on the states (complex arrays are the interleaved real
embedding, and the stepper only ever forms real-linear combinations, so
stepping in C^d and in R^{2d} are the same computation).  The right-hand
side is tangent to the sphere, leaving only O(dt^5) norm drift per step;
a cheap per-particle renormalization after every step removes it.  Drift
beyond the configured tolerance, or any non-finite value, aborts the run
with a diagnostic naming the step, t and the particle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
from numpy.typing import NDArray

from .dynamics import CouplingParams, Ensemble, lhs_rhs
from .geometry import matrix_exp_family
from .observables import ObservableSeries

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "IntegrationError",
    "rk4_step",
    "integrate",
    "split_transform",
]


class IntegrationError(RuntimeError):
    """Raised when a run produces non-finite states or excessive norm drift."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Stepping parameters.

    dt and t_end are in the time units of the coupling gains; the run takes
    ``round(t_end / dt)`` steps.  Norm drift is checked against
    unit_drift_tol before the renormalization that ends every step.
    """

    t_end: float
    dt: float = 1e-3
    record_every: int = 1
    unit_drift_tol: float = 1e-8

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end < 0:
            raise ValueError(f"t_end must be nonnegative, got {self.t_end}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass
class Trajectory:
    """Recorded run: strictly increasing times and the state snapshots at them.

    Frequencies are constant in time, so only states are stored per snapshot;
    the frequency array and coupling params ride along once for downstream
    consumers (observables, the splitting transform).
    """

    times: NDArray[np.floating]
    snapshots: NDArray[np.complexfloating]        # (T, N, d)
    frequencies: NDArray[np.complexfloating]      # (N, d, d)
    params: CouplingParams
    homogeneous: bool = True
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.times) != len(self.snapshots):
            raise ValueError("times and snapshots must have equal length")
        if len(self.times) > 1 and np.min(np.diff(self.times)) <= 0:
            raise ValueError("trajectory times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)


def rk4_step(y: np.ndarray, dt: float, rhs: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """One classical 4th-order step of dy/dt = rhs(y); local error O(dt^5)."""
    k1 = rhs(y)
    k2 = rhs(y + (0.5 * dt) * k1)
    k3 = rhs(y + (0.5 * dt) * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _renormalize(
    states: NDArray[np.complexfloating], tol: float, step: int, t: float
) -> NDArray[np.complexfloating]:
    """Project every state back onto the sphere after checking its norm drift.

    The row norms are computed once and serve both the check and the
    projection; the offending particle's index is looked up only on failure.
    """
    norms = np.linalg.norm(states, axis=1)
    gaps = np.abs(norms - 1.0)
    drift = float(np.max(gaps))
    if not math.isfinite(drift):
        worst = int(np.argmin(np.isfinite(norms)))
        raise IntegrationError(f"non-finite state at step {step} (t = {t:g}, particle {worst})")
    if drift > tol:
        worst = int(np.argmax(gaps))
        raise IntegrationError(
            f"norm drift {drift:g} exceeds tolerance {tol:g} "
            f"at step {step} (t = {t:g}, particle {worst})"
        )
    return states / norms[:, None]


def integrate(
    ens: Ensemble,
    cfg: IntegratorConfig,
    observers: Mapping[str, Callable[[float, np.ndarray], float]] | None = None,
) -> tuple[Trajectory, ObservableSeries]:
    """Integrate an ensemble, recording snapshots and observer values.

    Observers map a name to a callback ``(t, states) -> float`` invoked at
    every recorded time (step multiples of record_every, always including
    t = 0 and the final step).
    """
    observers = dict(observers or {})
    n_steps = cfg.n_steps
    states = ens.states.copy()
    rhs_ens = ens.replace_states(states)

    def rhs(x):
        return lhs_rhs(rhs_ens.replace_states(x))

    times: list[float] = []
    snaps: list[np.ndarray] = []
    columns: dict[str, list[float]] = {name: [] for name in observers}

    def record(step: int) -> None:
        t = step * cfg.dt
        times.append(t)
        snaps.append(states.copy())
        for name, fn in observers.items():
            columns[name].append(float(fn(t, states)))

    record(0)
    for step in range(1, n_steps + 1):
        states = rk4_step(states, cfg.dt, rhs)
        states = _renormalize(states, cfg.unit_drift_tol, step, step * cfg.dt)
        if step % cfg.record_every == 0 or step == n_steps:
            record(step)

    traj = Trajectory(
        times=np.asarray(times),
        snapshots=np.asarray(snaps),
        frequencies=ens.frequencies,
        params=ens.params,
        homogeneous=ens.homogeneous,
    )
    series = ObservableSeries(
        times=np.asarray(times),
        series={name: np.asarray(vals) for name, vals in columns.items()},
        metadata={
            "kappa0": ens.params.kappa0,
            "kappa1": ens.params.kappa1,
            "dt": cfg.dt,
            "n_particles": ens.n_particles,
            "dim": ens.dim,
        },
    )
    return traj, series


def split_transform(traj: Trajectory, omega) -> Trajectory:
    """Undo the free rotation of a homogeneous run: ``w_j(t) = exp(-Omega t) z_j(t)``.

    Requires a homogeneous trajectory whose common frequency equals omega.
    The propagator family is eigendecomposed once and evaluated per snapshot
    time; unitarity keeps every transformed snapshot on the sphere.
    """
    omega = np.asarray(omega, dtype=np.complex128)
    if not traj.homogeneous:
        raise ValueError("splitting transform requires a homogeneous ensemble")
    if np.linalg.norm(traj.frequencies[0] - omega) > 1e-12 * max(
        1.0, float(np.linalg.norm(omega))
    ):
        raise ValueError("omega does not match the trajectory's common frequency")

    propagator = matrix_exp_family(omega)
    transformed = np.empty_like(traj.snapshots)
    for k, t in enumerate(traj.times):
        u_back = propagator(-float(t))
        transformed[k] = traj.snapshots[k] @ u_back.T
    return Trajectory(
        times=traj.times.copy(),
        snapshots=transformed,
        frequencies=np.zeros_like(traj.frequencies),
        params=traj.params,
        homogeneous=True,
        metadata={**traj.metadata, "split_from_omega": True},
    )
