"""Time stepping with norm renormalization and the splitting transform.

Classical RK4 on the states (complex arrays are the interleaved real
embedding, and the stepper only ever forms real-linear combinations, so
stepping in C^d and in R^{2d} are the same computation).  The right-hand
side is tangent to the sphere, leaving only O(dt^5) norm drift per step;
a cheap per-particle renormalization after every step removes it.  Drift
beyond the configured tolerance, or any non-finite value, aborts the run
with a diagnostic naming the step, t, the particle and, in a batched run,
the batch member.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
from numpy.typing import NDArray

from .dynamics import Ensemble, lhs_rhs
from .geometry import matrix_exp_family, row_norms
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
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if not 0 <= self.t_end < math.inf:
            raise ValueError(f"t_end must be finite and nonnegative, got {self.t_end}")
        # 2**63 steps overflow a numpy index, and an infinite t_end / dt
        # would fail in round() with no field named
        if not self.t_end / self.dt < 2.0**63:
            raise ValueError(
                "t_end / dt must be below 2**63 steps, "
                f"got t_end = {self.t_end!r} and dt = {self.dt!r}"
            )
        if not 0 <= self.unit_drift_tol < math.inf:
            raise ValueError(
                f"unit_drift_tol must be finite and nonnegative, got {self.unit_drift_tol}"
            )
        try:
            record_every = operator.index(self.record_every)
        except TypeError:
            record_every = 0
        if record_every < 1:
            raise ValueError(f"record_every must be an integer >= 1, got {self.record_every!r}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass
class Trajectory:
    """Recorded run: strictly increasing times and the state snapshots at them.

    A snapshot has the run's (..., N, d) state shape.  ``ensemble`` is the
    ``Ensemble`` the run started from (the splitting transform reads its
    common frequency).  ``integrate`` puts its run counts into metadata:
    ``steps``, ``rhs_evals`` and ``max_norm_drift``, the worst norm drift
    before a renormalization.
    """

    times: NDArray[np.floating]
    snapshots: NDArray[np.complexfloating]        # (T, ..., N, d)
    ensemble: Ensemble
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.times) != len(self.snapshots):
            raise ValueError("times and snapshots must have equal length")
        if len(self.times) > 1 and np.min(np.diff(self.times)) <= 0:
            raise ValueError("trajectory times must be strictly increasing")


def rk4_step(y: np.ndarray, dt: float, rhs: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """One classical 4th-order step of dy/dt = rhs(y); local error O(dt^5).

    Bit for bit ``y + (dt/6) (k1 + 2 k2 + 2 k3 + k4)`` with the stage
    inputs ``y + (dt/2) k1`` and so on, evaluated in place: the result is
    the array that the second ``rhs`` call returned, and the stage slopes
    are overwritten, so ``rhs`` must return a new array on every call.
    ``y`` is never written; ``dt`` may be an array that broadcasts against it.
    """
    k1 = rhs(y)
    stage = np.multiply(k1, 0.5 * dt)
    stage += y
    k2 = rhs(stage)
    np.multiply(k2, 0.5 * dt, out=stage)
    stage += y
    k3 = rhs(stage)
    np.multiply(k3, dt, out=stage)
    stage += y
    k4 = rhs(stage)
    k2 *= 2.0
    k2 += k1
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= dt / 6.0
    k2 += y
    return k2


def _renormalize(states: NDArray[np.complexfloating], tol: float, step: int, t: float) -> float:
    """Project every state back onto the sphere, in place, after checking its norm drift.

    The row norms are computed once and serve both the check and the
    projection; the offending particle is looked up only on failure, and in
    a batch also its member, counted in C order over the batch axes.
    Returns the worst drift ``max | ||z_j|| - 1 |`` over every particle of
    every member before the projection.
    """
    norms = row_norms(states)
    gaps = np.abs(norms - 1.0)
    drift = float(np.maximum.reduce(gaps, axis=None))
    if not drift <= tol:
        finite = math.isfinite(drift)
        flat = int(np.argmax(gaps) if finite else np.argmin(np.isfinite(norms)))
        member, j = divmod(flat, norms.shape[-1])
        where = f"particle {j}" if norms.ndim == 1 else f"member {member}, particle {j}"
        what = f"norm drift {drift:g} exceeds tolerance {tol:g}" if finite else "non-finite state"
        raise IntegrationError(f"{what} at step {step} (t = {t:g}, {where})")
    states /= norms[..., None]
    return drift


def integrate(
    ens: Ensemble,
    cfg: IntegratorConfig,
    observers: Mapping[str, Callable[[float, np.ndarray], float]] | None = None,
) -> tuple[Trajectory, ObservableSeries]:
    """Integrate an ensemble, or a batch of them, recording snapshots and observer values.

    A batch advances in one loop, each member bit for bit as in its own
    run.  Observers map a name to a callback ``(t, states) -> float`` invoked at
    every recorded time (step multiples of record_every, always including
    t = 0 and the final step).  Every observer of a record gets the same
    object, the recorded snapshot, which the run never writes again.
    """
    observers = dict(observers or {})
    n_steps = cfg.n_steps
    states = ens.states.copy()
    rhs_ens = ens.replace_states(states)     # private: its states are swapped per call
    rhs_evals = 0

    def rhs(x):
        nonlocal rhs_evals
        rhs_evals += 1
        rhs_ens.states = x
        return lhs_rhs(rhs_ens)

    # t = 0, every record_every-th step and the last step
    n_records = 1 + -(-n_steps // cfg.record_every)
    times = np.empty(n_records)
    snapshots = np.empty((n_records, *states.shape), dtype=states.dtype)
    columns: dict[str, list[float]] = {name: [] for name in observers}
    n_recorded = 0

    def record(step: int) -> None:
        nonlocal n_recorded
        t = step * cfg.dt
        times[n_recorded] = t
        snapshots[n_recorded] = states
        snap = snapshots[n_recorded]
        n_recorded += 1
        for name, fn in observers.items():
            columns[name].append(float(fn(t, snap)))

    record(0)
    max_drift = 0.0
    for step in range(1, n_steps + 1):
        states = rk4_step(states, cfg.dt, rhs)
        drift = _renormalize(states, cfg.unit_drift_tol, step, step * cfg.dt)
        max_drift = max(max_drift, drift)
        if step % cfg.record_every == 0 or step == n_steps:
            record(step)

    traj = Trajectory(
        times=times,
        snapshots=snapshots,
        ensemble=ens,
        metadata={"steps": n_steps, "rhs_evals": rhs_evals, "max_norm_drift": max_drift},
    )
    series = ObservableSeries(
        times=times.copy(),
        series={name: np.asarray(vals) for name, vals in columns.items()},
    )
    return traj, series


def split_transform(traj: Trajectory) -> NDArray[np.complexfloating]:
    """Undo the free rotation of a homogeneous run: ``w_j(t) = exp(-Omega t) z_j(t)``.

    Omega is ``traj.ensemble.common_frequency`` (a heterogeneous run raises),
    and the result is the rotated (T, ..., N, d) snapshot stack.  The
    propagator family is eigendecomposed once and evaluated per snapshot
    time; unitarity keeps every transformed snapshot on the sphere.
    """
    propagator = matrix_exp_family(traj.ensemble.common_frequency)
    transformed = np.empty_like(traj.snapshots)
    for k, t in enumerate(traj.times):
        u_back = propagator(-float(t))
        transformed[k] = traj.snapshots[k] @ u_back.T
    return transformed
