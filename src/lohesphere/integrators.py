"""Time stepping with norm renormalization and the splitting transform.

Classical RK4 on the states (complex arrays are the interleaved real
embedding, and the stepper only ever forms real-linear combinations, so
stepping in C^d and in R^{2d} are the same computation).  The right-hand
side is tangent to the sphere, leaving only O(dt^5) norm drift per step;
a cheap per-particle renormalization after every step removes it.  Drift
beyond ``UNIT_DRIFT_TOL``, or any non-finite value, aborts the run
with a diagnostic naming the step, t, the particle and, in a batched run,
the batch member.

Each ``integrate`` call builds one workspace before its first step: the
result buffer, which swaps with the states after every step, the RK4 slope
and stage, the right-hand side's temporaries and the norms and gaps of the
renormalization.  A step then allocates nothing and runs the same ufuncs in
the same order as the textbook expressions, writing into those buffers, so
at the N = 16..128 of the experiments it pays for its numpy calls and not
for allocation, and every bit is the bit of the unfused step.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
from numpy.typing import NDArray

from .dynamics import Ensemble, RhsWorkspace, lhs_rhs
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

#: largest norm drift a step may leave before its renormalization, read at
#: every ``integrate`` call
UNIT_DRIFT_TOL = 1e-8


class IntegrationError(RuntimeError):
    """Raised when a run produces non-finite states or excessive norm drift."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Stepping parameters.

    dt and t_end are in the time units of the coupling gains; the run takes
    ``round(t_end / dt)`` steps.
    """

    t_end: float
    dt: float = 1e-3
    record_every: int = 1

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


def rk4_step(
    y: np.ndarray,
    dt: float,
    rhs: Callable[[np.ndarray, np.ndarray | None], np.ndarray],
    *,
    out: np.ndarray | None = None,
    slope: np.ndarray | None = None,
    stage: np.ndarray | None = None,
) -> np.ndarray:
    """One classical 4th-order step of dy/dt = rhs(y); local error O(dt^5).

    Bit for bit ``y + (dt/6) (k1 + 2 k2 + 2 k3 + k4)`` with the stage
    inputs ``y + (dt/2) k1`` and so on, evaluated in place.  ``rhs(x, buf)``
    returns the slope at x, written into the array ``buf``, or a new array
    if ``buf`` is None (it may also ignore ``buf``); rk4_step overwrites
    whatever it returns.  k2 goes into ``out`` and becomes the result; k1,
    k3 and k4 go into ``slope``, each spent before the next is asked for;
    the stage inputs go into ``stage``.  A buffer left None is a new array,
    and none may be ``y``, which is never written.  ``dt`` may be an array
    that broadcasts against ``y``.
    """
    k = rhs(y, slope)                       # k1
    stage = np.multiply(k, 0.5 * dt, out=stage)
    stage += y
    result = rhs(stage, out)                # k2
    np.multiply(result, 0.5 * dt, out=stage)
    stage += y
    result *= 2.0
    result += k
    k = rhs(stage, k)                       # k3
    np.multiply(k, dt, out=stage)
    stage += y
    k *= 2.0
    result += k
    k = rhs(stage, k)                       # k4
    result += k
    result *= dt / 6.0
    result += y
    return result


class _Workspace:
    """Every array one run's steps write, built once per ``integrate`` call."""

    __slots__ = ("out", "slope", "stage", "rhs", "norms", "gaps", "norm_col")

    def __init__(self, ens: Ensemble):
        states = ens.states
        self.out = np.empty_like(states)
        self.slope = np.empty_like(states)
        self.stage = np.empty_like(states)
        self.rhs = RhsWorkspace(ens)
        self.norms = np.empty(states.shape[:-1])
        self.gaps = np.empty_like(self.norms)
        self.norm_col = self.norms[..., None]


def _renormalize(
    states: NDArray[np.complexfloating], tol: float, step: int, dt: float, work: _Workspace
) -> float:
    """Project every state back onto the sphere, in place, after checking its norm drift.

    The row norms are computed once and serve both the check and the
    projection; the offending particle is looked up only on failure, and in
    a batch also its member, counted in C order over the batch axes.  The
    stage is spent when a step ends, so it holds the squares of the norms.
    Returns the worst drift ``max | ||z_j|| - 1 |`` over every particle of
    every member before the projection.
    """
    norms = row_norms(states, out=work.norms, scratch=work.stage)
    gaps = np.abs(np.subtract(norms, 1.0, out=work.gaps), out=work.gaps)
    drift = float(np.maximum.reduce(gaps, axis=None))
    if not drift <= tol:
        finite = math.isfinite(drift)
        flat = int(np.argmax(gaps) if finite else np.argmin(np.isfinite(norms)))
        member, j = divmod(flat, norms.shape[-1])
        where = f"particle {j}" if norms.ndim == 1 else f"member {member}, particle {j}"
        what = f"norm drift {drift:g} exceeds tolerance {tol:g}" if finite else "non-finite state"
        raise IntegrationError(f"{what} at step {step} (t = {step * dt:g}, {where})")
    # a complex division, as in y / np.linalg.norm(y): a real multiply by
    # 1 / norms would keep the -0.0 of -0.0 + 1.0j, which the division makes +0.0
    states /= work.norm_col
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
    n_steps, dt, tol, record_every = cfg.n_steps, cfg.dt, UNIT_DRIFT_TOL, cfg.record_every
    states = ens.states.copy()
    work = _Workspace(ens)
    rhs_ens = ens.replace_states(states)     # private: its states are swapped per call
    rhs_evals = 0

    def rhs(x, buf):
        nonlocal rhs_evals
        rhs_evals += 1
        rhs_ens.states = x
        return lhs_rhs(rhs_ens, out=buf, work=work.rhs)

    # t = 0, every record_every-th step and the last step
    n_records = 1 + -(-n_steps // record_every)
    times = np.empty(n_records)
    snapshots = np.empty((n_records, *states.shape), dtype=states.dtype)
    columns: dict[str, list[float]] = {name: [] for name in observers}
    n_recorded = 0

    def record(step: int) -> None:
        nonlocal n_recorded
        t = step * dt
        times[n_recorded] = t
        snapshots[n_recorded] = states
        snap = snapshots[n_recorded]
        n_recorded += 1
        for name, fn in observers.items():
            columns[name].append(float(fn(t, snap)))

    record(0)
    max_drift = 0.0
    for step in range(1, n_steps + 1):
        stepped = rk4_step(states, dt, rhs, out=work.out, slope=work.slope, stage=work.stage)
        drift = _renormalize(stepped, tol, step, dt, work)
        max_drift = max(max_drift, drift)
        work.out, states = states, stepped
        if step % record_every == 0 or step == n_steps:
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
