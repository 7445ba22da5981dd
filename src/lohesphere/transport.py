"""Exact Wasserstein-p distances between atomic measures on the unit sphere.

A measure is its atoms and weights, and the ground cost is the chordal
(ambient) norm ||z - w||.

Uniform measures whose sizes divide one another are solved by exact
min-cost assignment on the small-by-big cost block with each row repeated
size-ratio times (the cost matrix of the repeated atoms); the general
weighted case by the discrete transport linear program (HiGHS dual simplex,
no regularization), solved on a sparse arc set that grows by column
generation until reduced costs certify the plan optimal on every arc
(Schmitzer, "A sparse multiscale algorithm for dense optimal transport",
JMIV 2016).  An exhaustive-permutation oracle is kept for
cross-checking the solvers at small N.  Costs are summed in row blocks
through ``geometry.row_sum``, bit for bit the full reduction.  Along a track
of nested snapshots (:func:`wasserstein_nested_track`) atoms are checked
once.

Every solve holds one n-by-m cost array.  The squared distances are written
into it, and the root and the power p are taken in place, which gives the
bits of ``np.sqrt(cost_sq) ** p``.  A nested solve's array is its (m, m)
assignment matrix, filled row group by row group and reused for every
snapshot of a track; the LP prices its reduced costs into one second
buffer.  Measured by ``getrusage`` on a 2-CPU Linux VM, W2 between two
uniform 4096-atom clouds peaks 129 MiB above the process baseline (the
matrix is 128 MiB) and nested 1024 -> 2048 at 33 MiB (a 32 MiB matrix).

scipy's solvers are imported on first use, so a process that never solves
a transport problem (``simulate``, e1, e2, e5, e6, e7) never loads scipy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .geometry import check_unit_rows, row_sum

__all__ = [
    "EmpiricalMeasure",
    "TransportPlan",
    "SupportSizeError",
    "wasserstein_uniform",
    "wasserstein_uniform_nested",
    "wasserstein_nested_track",
    "wasserstein_general",
    "wasserstein_bruteforce",
]

#: largest support accepted by the exact linear-program solver
MAX_SUPPORT = 512

#: weight-sum tolerance for a probability measure
WEIGHT_TOL = 1e-12

#: complex entries of the (rows, m, k) difference block a cost sum holds at once
COST_BLOCK = 2**15

#: arcs per row and per column that start the transport LP's arc set, and
#: that each pricing round adds
ARCS_PER_LINE = 32


def linear_sum_assignment(cost_matrix):
    """``scipy.optimize.linear_sum_assignment``, imported on first call."""
    from scipy import optimize

    return optimize.linear_sum_assignment(cost_matrix)


def linprog(c, **kwargs):
    """``scipy.optimize.linprog``, imported on first call."""
    from scipy import optimize

    return optimize.linprog(c, **kwargs)


class SupportSizeError(ValueError):
    """Raised when a measure's support exceeds the exact solver's capability."""


@dataclass
class EmpiricalMeasure:
    """Weighted point cloud on the unit sphere.

    atoms: (N, d) complex unit vectors; weights: nonnegative, summing to 1.
    """

    atoms: NDArray[np.complexfloating]
    weights: NDArray[np.floating] | None = None

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
            if not np.min(self.weights) >= -WEIGHT_TOL:
                raise ValueError("weights must be finite and nonnegative")
            if not abs(float(np.sum(self.weights)) - 1.0) <= WEIGHT_TOL:
                raise ValueError("weights must sum to 1")

    @classmethod
    def uniform(cls, atoms) -> "EmpiricalMeasure":
        return cls(atoms=np.asarray(atoms, dtype=np.complex128))

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

    MARGINAL_TOL = 1e-10

    def __post_init__(self) -> None:
        self.coupling = np.asarray(self.coupling, dtype=np.float64)
        row_err = np.max(np.abs(self.coupling.sum(axis=1) - self.source_weights))
        col_err = np.max(np.abs(self.coupling.sum(axis=0) - self.target_weights))
        err = float(np.maximum(row_err, col_err))  # NaN-propagating, unlike max()
        if not err <= self.MARGINAL_TOL:
            raise ValueError(f"transport plan marginals are off by {err:g}")
        if not float(np.min(self.coupling)) >= -self.MARGINAL_TOL:
            raise ValueError("transport plan has negative mass")


def _squared_distances(
    x: NDArray, y: NDArray, out: NDArray | None = None
) -> NDArray[np.floating]:
    """(n, m) matrix of ``sum |x_i - y_j|^2`` between (n, d) x and (m, d) y.

    Bit for bit ``np.sum(np.abs(x[:, None] - y[None]) ** 2, axis=2)``: each
    block of rows is summed by ``row_sum``, so at most ``COST_BLOCK``
    differences are held at once.  The matrix is written into ``out`` (any
    (n, m) float view) if given.
    """
    if out is None:
        out = np.empty((len(x), len(y)))
    rows = max(1, COST_BLOCK // out.shape[1] // x.shape[1])
    for i in range(0, len(x), rows):
        out[i : i + rows] = row_sum(np.abs(x[i : i + rows, None] - y[None]) ** 2)
    return out


def _check_same_sphere(a: NDArray, b: NDArray) -> None:
    """Reject atoms, or stacks of atoms, that live on spheres of different dimension."""
    if a.shape[-1] != b.shape[-1]:
        raise ValueError("measures live on spheres of different dimension")


def _cost_matrix(mu: EmpiricalMeasure, nu: EmpiricalMeasure, p: float = 1.0) -> NDArray:
    """(n, m) ground cost between the atoms of mu and nu, raised to the power p."""
    _check_same_sphere(mu.atoms, nu.atoms)
    return _cost_power(_squared_distances(mu.atoms, nu.atoms), p)


def _cost_power(cost_sq: NDArray, p: float) -> NDArray[np.floating]:
    """Turn squared atom distances into cost^p in place and return the same array.

    The root and the power are taken in place; the bits are those of
    ``np.sqrt(cost_sq) ** p``.
    """
    np.sqrt(cost_sq, out=cost_sq)
    return np.power(cost_sq, p, out=cost_sq)


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

    Each atom of the smaller measure counts size-ratio times, which turns
    the transport program into an equal-marginal one; its vertices are
    permutations, so a single assignment solve is exact.  The assignment
    runs on the small-by-big cost block with every row repeated size-ratio
    times, the cost matrix of the repeated atoms.
    """
    p = _check_p(p)
    if not (mu.is_uniform() and nu.is_uniform()):
        raise ValueError("nested evaluation requires uniform measures")
    small, big = (mu, nu) if mu.n_atoms <= nu.n_atoms else (nu, mu)
    _check_same_sphere(small.atoms, big.atoms)
    return float(_nested_track(small.atoms[None], big.atoms[None], p)[0])


def wasserstein_nested_track(small_snaps, big_snaps, p: float = 2.0) -> NDArray[np.floating]:
    """W_p between the uniform measures of two nested runs at every snapshot.

    small_snaps is a (T, n, d) stack of atoms and big_snaps a (T, m, d) one
    with m a multiple of n; entry k of the result is, bit for bit,
    ``wasserstein_uniform_nested`` of the measures on ``small_snaps[k]`` and
    ``big_snaps[k]``.  Each stack is validated once.
    """
    p = _check_p(p)
    small = np.asarray(small_snaps, dtype=np.complex128)
    big = np.asarray(big_snaps, dtype=np.complex128)
    if small.ndim != 3 or big.ndim != 3 or len(small) != len(big) or 0 in small.shape:
        raise ValueError(
            "snapshots must be nonempty (T, n, d) and (T, m, d) stacks of equal length T"
        )
    check_unit_rows(small, "track atoms")
    check_unit_rows(big, "track atoms")
    _check_same_sphere(small, big)
    return _nested_track(small, big, p)


def _nested_track(small: NDArray, big: NDArray, p: float) -> NDArray[np.floating]:
    """One exact assignment per snapshot of validated (T, n, d) and (T, m, d) stacks.

    The (m, m) assignment matrix is the only per-snapshot cost array: each
    snapshot's cost^p block is computed into the first row of every repeat
    group, then copied to the other ratio - 1 rows of the group (none at
    ratio 1).
    """
    n, m = small.shape[1], big.shape[1]
    ratio, rem = divmod(m, n)
    if ratio == 0 or rem != 0:
        raise ValueError("atom counts must divide one another")
    cost_p = np.empty((m, m))
    groups = cost_p.reshape(n, ratio, m)
    track = np.empty(len(small))
    for k in range(len(small)):
        _cost_power(_squared_distances(small[k], big[k], out=groups[:, 0]), p)
        # a ufunc copy: assignment between two views of one buffer would
        # first copy the source into an (n, m) temporary
        np.positive(groups[:, :1], out=groups[:, 1:])
        rows, cols = linear_sum_assignment(cost_p)
        track[k] = np.mean(cost_p[rows, cols]) ** (1.0 / p)
    return track


def wasserstein_general(
    mu: EmpiricalMeasure, nu: EmpiricalMeasure, p: float = 2.0
) -> tuple[float, TransportPlan]:
    """Exact discrete optimal transport between weighted atomic measures.

    Solves the transport linear program by column generation: HiGHS (dual
    simplex, presolve off) solves it on a small arc set, the north-west-corner
    staircase of the two weight vectors (which makes it feasible) and each
    row's and column's ``ARCS_PER_LINE`` cheapest arcs.  The duals then price
    every arc outside the set; each round adds every row's and column's
    ``ARCS_PER_LINE`` most negative reduced costs, until no arc outside the set
    has a reduced cost below HiGHS's dual feasibility tolerance.  That
    certifies the plan optimal for the full program to the same tolerance a
    solve on all n m arcs has.  Both HiGHS tolerances are the plan's marginal
    tolerance, 1e-10.  Returns the distance and the optimal plan.  Supports
    up to 512 atoms per side.
    """
    from scipy import sparse

    p = _check_p(p)
    n, m = mu.n_atoms, nu.n_atoms
    if max(n, m) > MAX_SUPPORT:
        raise SupportSizeError(
            f"support size {max(n, m)} exceeds the exact solver limit {MAX_SUPPORT}"
        )
    cost_p = _cost_matrix(mu, nu, p)
    reduced = np.empty_like(cost_p)
    tol = TransportPlan.MARGINAL_TOL
    arcs = _staircase(mu.weights, nu.weights) | _lowest_per_line(cost_p)
    b_eq = np.concatenate([mu.weights, nu.weights])
    while True:
        rows, cols = np.nonzero(arcs)
        size = len(rows)
        a_eq = sparse.csc_matrix(
            (
                np.ones(2 * size),
                np.column_stack([rows, n + cols]).ravel(),
                np.arange(0, 2 * size + 1, 2),
            ),
            shape=(n + m, size),
        )
        res = linprog(
            cost_p[rows, cols],
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=(0, None),
            method="highs",
            options={
                "presolve": False,
                "primal_feasibility_tolerance": tol,
                "dual_feasibility_tolerance": tol,
            },
        )
        if not res.success:
            raise RuntimeError(f"transport linear program failed: {res.message}")
        duals = res.eqlin.marginals
        np.subtract(cost_p, duals[:n, None], out=reduced)
        reduced -= duals[None, n:]
        violated = (reduced < -tol) & ~arcs
        if not violated.any():
            break
        np.copyto(reduced, np.inf, where=~violated)
        arcs |= _lowest_per_line(reduced) & violated
    coupling = np.zeros((n, m))
    coupling[rows, cols] = np.clip(res.x, 0.0, None)
    plan = TransportPlan(
        coupling=coupling,
        source_weights=mu.weights,
        target_weights=nu.weights,
    )
    # the plan's cost sum(coupling * cost^p), its products priced into the spent buffer
    return float(np.sum(np.multiply(coupling, cost_p, out=reduced))) ** (1.0 / p), plan


def _staircase(a: NDArray[np.floating], b: NDArray[np.floating]) -> NDArray[np.bool_]:
    """(n, m) mask of the north-west-corner staircase of weights a and b.

    Row i spans the columns whose cumulative-weight intervals meet its own,
    n + m - 1 arcs in all, so the corner rule's plan lies on the mask.
    Negative round-off weights count as zero, which keeps the cumulative
    sums sorted and every row's span nonempty.
    """
    cum_a = np.cumsum(np.clip(a, 0.0, None))
    cum_b = np.cumsum(np.clip(b, 0.0, None))
    ends = np.searchsorted(cum_b[:-1], cum_a[:-1])
    first = np.concatenate([[0], ends])
    last = np.concatenate([ends, [len(b) - 1]])
    cols = np.arange(len(b))
    return (first[:, None] <= cols) & (cols <= last[:, None])


def _lowest_per_line(values: NDArray[np.floating]) -> NDArray[np.bool_]:
    """Mask of the ``ARCS_PER_LINE`` lowest entries of every row and every column."""
    mask = np.zeros(values.shape, dtype=bool)
    for axis in (0, 1):
        k = min(ARCS_PER_LINE, values.shape[axis])
        idx = np.argpartition(values, k - 1, axis=axis).take(range(k), axis=axis)
        np.put_along_axis(mask, idx, True, axis=axis)
    return mask


def wasserstein_bruteforce(mu: EmpiricalMeasure, nu: EmpiricalMeasure, p: float = 2.0) -> float:
    """Ground truth by exhaustive search over all N! matchings (N <= 8)."""
    p = _check_p(p)
    if mu.n_atoms != nu.n_atoms or not (mu.is_uniform() and nu.is_uniform()):
        raise ValueError("brute force requires uniform measures of equal size")
    n = mu.n_atoms
    if n > 8:
        raise ValueError(f"brute force is limited to N <= 8, got {n}")
    cost_p = _cost_matrix(mu, nu, p)
    rows = np.arange(n)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        total = float(np.sum(cost_p[rows, list(perm)]))
        if total < best:
            best = total
    return float((best / n) ** (1.0 / p))
