"""Scalar and vector diagnostics of ensembles and atomic measures.

The two aggregation functionals are

    F = max_{k,l} |1 - <z_k, z_l>|       G = max_{k,l} ||z_k - z_l||

with the pair inequality G <= 2 sqrt(F) holding pointwise.  Both come from
one exact pair scan over the Gram in cache-sized row blocks
(:func:`pair_extremes`): O(N^2 d) time at every N, memory linear in N,
nothing subsampled.  The first moment J of a measure gives the order
parameter R = ||J||; its square grows at the analytic rate

    dR^2/dt = 2 kappa0 sum_j w_j (||J||^2 - (z_j . J)^2)
              + 2 (kappa0 + 2 kappa1) sum_j w_j ((i z_j) . J)^2

whose first summand (without the gains) is the aggregation defect: it
vanishes exactly when every atom is parallel, in the real-dot sense, to J.
All integrals over measures are weighted sums over atoms, which is exactly
how the measure-valued solutions are built in the first place.  An
ensemble's centroid, order parameter and R^2 rate are those of its uniform
measure ``EmpiricalMeasure.uniform(states)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .geometry import row_norms
from .transport import EmpiricalMeasure, _check_p

__all__ = [
    "pair_extremes",
    "functional_F",
    "functional_G",
    "j_vector",
    "order_parameter",
    "r_squared_rate",
    "aggregation_defect",
    "dj_dt_norm_bound_check",
    "lp_distance",
    "ObservableSeries",
]

#: Gram entries per row block of the pair scan (32 rows at N = 1024), so a
#: block and its real temporaries stay in L2
PAIR_BLOCK = 2**15

#: m n k of the smallest complex product OpenBLAS hands to its thread pool.
#: It is an OpenBLAS build setting (GEMM_MULTITHREAD_THRESHOLD), here as
#: measured on OpenBLAS 0.3.31, not a numpy contract.
BLAS_THREADED_SIZE = 2**16


def _as_ensemble(states) -> NDArray[np.complexfloating]:
    states = np.asarray(states, dtype=np.complex128)
    if states.ndim != 2 or states.shape[0] == 0:
        raise ValueError("expected a nonempty (N, d) state array")
    return states


def pair_extremes(states) -> tuple[float, float]:
    """``(F, G)`` from an exact scan of the Gram ``<z_k, z_l>`` in row blocks.

    Each block of rows is one matmul into a reused buffer, followed by the
    expressions the full Gram would get, in the same operation order:
    ``|1 - g|`` for F and ``(|z_k|^2 + |z_l|^2) - 2 Re g`` for G.  F and G
    are exact at every N and bitwise equal to those unblocked formulas;
    time is O(N^2 d), memory O(N * block).

    G needs every ``|z_l|^2``, the Gram's diagonal, which the F sweep reads
    off each block.  A second sweep then recomputes only the blocks that
    can hold G's maximum, usually one or two (see the bounds below).

    Every block has all N columns and at least two rows: a product of
    another shape (a block's own small Gram; one row, which numpy computes
    as a matrix-vector product; half a Gram, as ``conj(s) @ s.T`` from BLAS
    is not bitwise Hermitian) can differ from the full Gram in the last bit.

    A scan of one or two ``PAIR_BLOCK`` blocks (N <= 312) is cut into blocks
    below ``BLAS_THREADED_SIZE`` instead: in some processes a lone threaded
    product after idle time stalls for about 16 ms.  Back-to-back products
    of a longer scan do not, and run faster in the larger blocks.
    """
    states = _as_ensemble(states)
    n, d = states.shape
    n_blocks = max(1, n // max(2, PAIR_BLOCK // n))
    if n_blocks <= 2:
        cap = max(1, (BLAS_THREADED_SIZE - 1) // (n * d))
        n_blocks = max(1, min(n // 2, -(-n // cap)))
    edges = [n * k // n_blocks for k in range(n_blocks + 1)]
    blocks = list(zip(edges, edges[1:]))
    rows = -(-n // n_blocks)
    conj, cols = np.conj(states), states.T
    gram = np.empty((rows, n), dtype=np.complex128)
    work = np.empty((rows, n))
    norm_sq, re_min, f_max = np.empty(n), np.empty(n), np.empty(n_blocks)
    for k, (a, b) in enumerate(blocks):
        g, w = np.matmul(conj[a:b], cols, out=gram[: b - a]), work[: b - a]
        norm_sq[a:b] = np.diagonal(g[:, a:b]).real
        np.copyto(w, g.real)
        w.min(axis=1, out=re_min[a:b])
        np.subtract(1.0, g, out=g)
        f_max[k] = np.abs(g, out=w).max()
    # Rounding is monotone, so row k's squared distances are all at most
    # (|z_k|^2 + max |z|^2) - 2 min_l Re g_kl, and one is at least
    # (|z_k|^2 + min |z|^2) - 2 min_l Re g_kl.  A row whose upper bound is
    # below some row's lower bound cannot hold the maximum; NaN keeps a row.
    upper = (norm_sq + norm_sq.max()) - 2.0 * re_min
    lower = (norm_sq + norm_sq.min()) - 2.0 * re_min
    keep = ~(upper < lower.max())
    g_max = []
    for a, b in blocks:
        if keep[a:b].any():
            g, d = np.matmul(conj[a:b], cols, out=gram[: b - a]), work[: b - a]
            np.add(norm_sq[a:b, None], norm_sq[None, :], out=d)
            np.multiply(2.0, g.real, out=g.real)
            g_max.append(np.subtract(d, g.real, out=d).max())
    return float(f_max.max()), float(np.sqrt(max(float(np.max(g_max)), 0.0)))


def functional_F(states) -> float:
    """Worst pair correlation defect ``max_{k,l} |1 - <z_k, z_l>|``.

    The exact scan of :func:`pair_extremes`, O(N^2) in time at every N: a
    rejection sampler that calls it per draw pays seconds per draw once N
    is well above 10^4.
    """
    return pair_extremes(states)[0]


def functional_G(states) -> float:
    """Ensemble diameter ``max_{k,l} ||z_k - z_l||``, exact (see :func:`pair_extremes`)."""
    return pair_extremes(states)[1]


def j_vector(measure: EmpiricalMeasure) -> NDArray[np.complexfloating]:
    """Weighted first moment ``sum_j w_j z_j`` of an atomic measure."""
    total = float(np.sum(measure.weights))
    if not abs(total - 1.0) <= 1e-12:
        raise ValueError(f"measure weights must sum to 1, got {total!r}")
    return measure.weights @ measure.atoms


def order_parameter(measure: EmpiricalMeasure) -> float:
    """R = ||J|| in [0, 1]; equals 1 exactly at consensus."""
    return float(np.linalg.norm(j_vector(measure)))


def r_squared_rate(measure: EmpiricalMeasure, kappa0: float, kappa1: float) -> float:
    """Analytic time derivative of R^2 along the zero-frequency flow.

    Nonnegative whenever kappa0 > 0 and kappa0 + 2 kappa1 >= 0, which is what
    makes R^2 a Lyapunov-type quantity for the aligned regime.
    """
    inner = np.conj(measure.atoms) @ j_vector(measure)  # <z_j, J>
    defect_term = aggregation_defect(measure)
    phase_term = float(np.sum(measure.weights * inner.imag**2))
    return 2.0 * kappa0 * defect_term + 2.0 * (kappa0 + 2.0 * kappa1) * phase_term


def aggregation_defect(measure: EmpiricalMeasure) -> float:
    """Alignment defect ``sum_j w_j (||J||^2 - (z_j . J)^2)``.

    Zero exactly when every atom is parallel (real-dot sense) to J; bounded
    below by -1e-12 only through rounding.
    """
    j = j_vector(measure)
    inner = np.conj(measure.atoms) @ j
    j_sq = float(np.vdot(j, j).real)
    return float(np.sum(measure.weights * (j_sq - inner.real**2)))


def dj_dt_norm_bound_check(
    measure: EmpiricalMeasure, kappa0: float, kappa1: float
) -> tuple[float, float]:
    """Norm of dJ/dt in particle form, paired with its a-priori bound 2(kappa0+kappa1).

    dJ/dt = sum_j w_j Q_{z_j}(J) with Q the coupling map.  Requires the
    aligned-regime gains kappa0 > 0, kappa0 + 2 kappa1 >= 0 under which the
    bound is proved.
    """
    if not kappa0 > 0:
        raise ValueError(f"bound requires kappa0 > 0, got {kappa0}")
    if kappa0 + 2.0 * kappa1 < 0:
        raise ValueError(f"bound requires kappa0 + 2 kappa1 >= 0, got {kappa0 + 2 * kappa1}")
    j = j_vector(measure)
    atoms = measure.atoms
    inner_zj = np.conj(atoms) @ j               # <z_j, J>
    inner_jz = np.conj(inner_zj)                # <J, z_j>
    terms = kappa0 * (j[None, :] - inner_jz[:, None] * atoms)
    terms += kappa1 * (inner_zj - inner_jz)[:, None] * atoms
    dj = measure.weights @ terms
    return float(np.linalg.norm(dj)), 2.0 * (kappa0 + kappa1)


def lp_distance(states_a, states_b, p: float):
    """Configuration distance ``(sum_k ||z_k - w_k||^p)^(1/p)``.

    Two (N, d) configurations give a float.  Two (..., N, d) stacks, such
    as the snapshots of two runs, give an array with one distance per
    leading index, each bit for bit the distance of its own pair: numpy's
    array power is not bitwise its scalar power, so each root is taken as
    a scalar.
    """
    p = _check_p(p)
    a = np.asarray(states_a, dtype=np.complex128)
    b = np.asarray(states_b, dtype=np.complex128)
    if a.shape != b.shape:
        raise ValueError(f"configuration shape mismatch: {a.shape} vs {b.shape}")
    sums = np.sum(row_norms(a - b) ** p, axis=-1)
    if sums.ndim == 0:
        return float(sums ** (1.0 / p))
    return np.array([s ** (1.0 / p) for s in sums.flat]).reshape(sums.shape)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass
class ObservableSeries:
    """Time-indexed record of named scalar diagnostics.

    CSV layout: header ``time,<name>,...`` in series insertion order, one row
    per recorded time, every value printed with 17 significant digits.
    """

    times: NDArray[np.floating]
    series: dict[str, NDArray[np.floating]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.times)
        for name, values in self.series.items():
            if len(values) != n:
                raise ValueError(f"series {name!r} has length {len(values)}, expected {n}")

    def column(self, name: str) -> NDArray[np.floating]:
        return np.asarray(self.series[name])

    def to_csv(self, path) -> None:
        names = list(self.series)
        lines = [",".join(["time", *names])]
        for k, t in enumerate(self.times):
            row = [_fmt(float(t))] + [_fmt(float(self.series[name][k])) for name in names]
            lines.append(",".join(row))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
