"""Exact Wasserstein-p distances between atomic measures on the unit sphere.

Ground cost is the chordal (ambient) norm ||z - w||; measures that carry
frequency matrices use the product-space cost
``sqrt(||z - w||^2 + ||Omega - Omega'||_F^2)`` instead, a documented
convention (every aligned-regime statement uses a common frequency, where
the two costs coincide).

Uniform equal-size measures are solved by exact min-cost assignment; the
general weighted case by the discrete transport linear program (HiGHS dual
simplex, no regularization).  An exhaustive-permutation oracle is kept for
cross-checking the solvers at small N.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

from .geometry import check_unit_rows

__all__ = [
    "EmpiricalMeasure",
    "TransportPlan",
    "SupportSizeError",
    "wasserstein_uniform",
    "wasserstein_uniform_nested",
    "wasserstein_general",
    "wasserstein_bruteforce",
]

#: largest support accepted by the exact linear-program solver
MAX_SUPPORT = 512

#: weight-sum tolerance for a probability measure
WEIGHT_TOL = 1e-12


class SupportSizeError(ValueError):
    """Raised when a measure's support exceeds the exact solver's capability."""


@dataclass
class EmpiricalMeasure:
    """Weighted point cloud on the unit sphere, optionally frequency-tagged.

    atoms: (N, d) complex unit vectors; weights: nonnegative, summing to 1.
    frequencies, when present, make this a measure on the full phase space
    and switch the ground cost to the product-space norm.
    """

    atoms: NDArray[np.complexfloating]
    weights: NDArray[np.floating] | None = None
    frequencies: NDArray[np.complexfloating] | None = None

    def __post_init__(self) -> None:
        self.atoms = np.asarray(self.atoms, dtype=np.complex128)
        if self.atoms.ndim != 2 or self.atoms.shape[0] == 0:
            raise ValueError("atoms must form a nonempty (N, d) array")
        n = self.atoms.shape[0]
        check_unit_rows(self.atoms, "measure atoms")
        if self.weights is None:
            self.weights = np.full(n, 1.0 / n)
        else:
            self.weights = np.asarray(self.weights, dtype=np.float64)
            if self.weights.shape != (n,):
                raise ValueError("weights must have one entry per atom")
            if np.min(self.weights) < -WEIGHT_TOL:
                raise ValueError("weights must be nonnegative")
            if abs(float(np.sum(self.weights)) - 1.0) > WEIGHT_TOL:
                raise ValueError("weights must sum to 1")
        if self.frequencies is not None:
            self.frequencies = np.asarray(self.frequencies, dtype=np.complex128)
            if self.frequencies.shape[0] != n:
                raise ValueError("frequency tags must have one entry per atom")

    @classmethod
    def uniform(cls, atoms, frequencies=None) -> "EmpiricalMeasure":
        return cls(atoms=np.asarray(atoms, dtype=np.complex128), frequencies=frequencies)

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    def is_uniform(self) -> bool:
        return bool(np.max(np.abs(self.weights - 1.0 / self.n_atoms)) <= WEIGHT_TOL)


@dataclass
class TransportPlan:
    """Coupling matrix between two supports, with its marginals and cost.

    Row sums reproduce the source weights and column sums the target weights,
    each to 1e-10; the plan's cost matches the reported distance.
    """

    coupling: NDArray[np.floating]
    source_weights: NDArray[np.floating]
    target_weights: NDArray[np.floating]
    cost_power: float

    MARGINAL_TOL = 1e-10

    def __post_init__(self) -> None:
        self.coupling = np.asarray(self.coupling, dtype=np.float64)
        row_err = float(np.max(np.abs(self.coupling.sum(axis=1) - self.source_weights)))
        col_err = float(np.max(np.abs(self.coupling.sum(axis=0) - self.target_weights)))
        if max(row_err, col_err) > self.MARGINAL_TOL:
            raise ValueError(
                f"transport plan marginals are off by {max(row_err, col_err):g}"
            )
        if float(np.min(self.coupling)) < -self.MARGINAL_TOL:
            raise ValueError("transport plan has negative mass")

    def cost(self, cost_matrix: NDArray[np.floating]) -> float:
        return float(np.sum(self.coupling * cost_matrix**self.cost_power))


def _cost_matrix(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> NDArray:
    if mu.atoms.shape[1] != nu.atoms.shape[1]:
        raise ValueError("measures live on spheres of different dimension")
    diff = mu.atoms[:, None, :] - nu.atoms[None, :, :]
    cost_sq = np.sum(np.abs(diff) ** 2, axis=2)
    if mu.frequencies is not None and nu.frequencies is not None:
        fd = mu.frequencies[:, None] - nu.frequencies[None, :]
        cost_sq = cost_sq + np.sum(np.abs(fd) ** 2, axis=tuple(range(2, fd.ndim)))
    elif (mu.frequencies is None) != (nu.frequencies is None):
        raise ValueError("cannot mix frequency-tagged and plain measures")
    return np.sqrt(cost_sq)


def _check_p(p: float) -> float:
    p = float(p)
    if not 1 <= p < math.inf:
        raise ValueError(f"order p must be finite and >= 1, got {p}")
    return p


def wasserstein_uniform(mu: EmpiricalMeasure, nu: EmpiricalMeasure, p: float = 2.0) -> float:
    """W_p between uniform equal-size measures by exact min-cost assignment.

    Equal-size pairs are the nested solve at size ratio 1.  Unequal atom
    counts or non-uniform weights route to the general linear program; the
    result is the same metric either way.
    """
    p = _check_p(p)
    if mu.n_atoms != nu.n_atoms or not (mu.is_uniform() and nu.is_uniform()):
        distance, _ = wasserstein_general(mu, nu, p)
        return distance
    return wasserstein_uniform_nested(mu, nu, p)


def wasserstein_uniform_nested(
    mu: EmpiricalMeasure, nu: EmpiricalMeasure, p: float = 2.0
) -> float:
    """Exact W_p between uniform measures whose sizes divide one another.

    Each atom of the smaller measure is replicated size-ratio times, which
    turns the transport program into an equal-marginal one; its vertices are
    permutations, so a single assignment solve is exact.  Cheap enough to
    evaluate along whole trajectories.
    """
    p = _check_p(p)
    if not (mu.is_uniform() and nu.is_uniform()):
        raise ValueError("nested evaluation requires uniform measures")
    small, big = (mu, nu) if mu.n_atoms <= nu.n_atoms else (nu, mu)
    ratio, rem = divmod(big.n_atoms, small.n_atoms)
    if rem != 0:
        raise ValueError("atom counts must divide one another")
    rep_freqs = None
    if small.frequencies is not None:
        rep_freqs = np.repeat(small.frequencies, ratio, axis=0)
    replicated = EmpiricalMeasure.uniform(
        np.repeat(small.atoms, ratio, axis=0), frequencies=rep_freqs
    )
    cost = _cost_matrix(replicated, big)
    rows, cols = linear_sum_assignment(cost**p)
    return float(np.mean(cost[rows, cols] ** p) ** (1.0 / p))


def wasserstein_general(
    mu: EmpiricalMeasure, nu: EmpiricalMeasure, p: float = 2.0
) -> tuple[float, TransportPlan]:
    """Exact discrete optimal transport between weighted atomic measures.

    Solves the transport linear program with HiGHS (dual simplex over the
    sparse marginal constraints); returns the distance and the optimal plan.
    Supports up to 512 atoms per side.
    """
    p = _check_p(p)
    n, m = mu.n_atoms, nu.n_atoms
    if max(n, m) > MAX_SUPPORT:
        raise SupportSizeError(
            f"support size {max(n, m)} exceeds the exact solver limit {MAX_SUPPORT}"
        )
    cost = _cost_matrix(mu, nu)
    objective = (cost**p).ravel()

    row_idx = np.repeat(np.arange(n), m)
    col_idx = n + np.tile(np.arange(m), n)
    var_idx = np.arange(n * m)
    a_eq = sparse.coo_matrix(
        (
            np.ones(2 * n * m),
            (np.concatenate([row_idx, col_idx]), np.concatenate([var_idx, var_idx])),
        ),
        shape=(n + m, n * m),
    ).tocsc()
    b_eq = np.concatenate([mu.weights, nu.weights])

    res = linprog(objective, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport linear program failed: {res.message}")
    coupling = np.clip(res.x.reshape(n, m), 0.0, None)
    plan = TransportPlan(
        coupling=coupling,
        source_weights=mu.weights,
        target_weights=nu.weights,
        cost_power=p,
    )
    return float(plan.cost(cost) ** (1.0 / p)), plan


def wasserstein_bruteforce(mu: EmpiricalMeasure, nu: EmpiricalMeasure, p: float = 2.0) -> float:
    """Ground truth by exhaustive search over all N! matchings (N <= 8)."""
    p = _check_p(p)
    if mu.n_atoms != nu.n_atoms or not (mu.is_uniform() and nu.is_uniform()):
        raise ValueError("brute force requires uniform measures of equal size")
    n = mu.n_atoms
    if n > 8:
        raise ValueError(f"brute force is limited to N <= 8, got {n}")
    cost_p = _cost_matrix(mu, nu) ** p
    rows = np.arange(n)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        total = float(np.sum(cost_p[rows, list(perm)]))
        if total < best:
            best = total
    return float((best / n) ** (1.0 / p))
