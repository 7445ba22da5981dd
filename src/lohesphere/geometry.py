"""Geometry of the complex unit sphere in C^d.

Two inner products drive everything here: the Hermitian form
``<w, z> = sum_i conj(w^i) z^i`` and the real dot ``w . z = Re <w, z>``,
which coincides with the Euclidean dot product of the interleaved real
embedding of C^d into R^{2d}.  On top of those sit the tangent/phase
projections at a unit vector, the coupling map ``q_map`` built from them,
and the unitary propagator family ``t -> exp(Omega t)`` for skew-Hermitian
Omega.

All functions are pure and operate on plain complex ndarrays.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.typing import NDArray

ComplexVector = NDArray[np.complexfloating]
RealVector = NDArray[np.floating]

#: tolerance on | ||z|| - 1 | accepted when validating a unit state
UNIT_TOL = 1e-12

#: relative tolerance on ||A + A^dagger||_F accepted for skew-Hermitian input
SKEW_TOL = 1e-12

__all__ = [
    "UNIT_TOL",
    "SKEW_TOL",
    "hermitian_inner",
    "real_dot",
    "embed",
    "unembed",
    "as_unit_state",
    "as_skew_hermitian",
    "random_unit_state",
    "project_tangent",
    "project_phase",
    "q_map",
    "matrix_exp_family",
    "row_sum",
    "row_norms",
]

#: floats numpy's pairwise sum adds in one unrolled block; longer rows recurse
_PAIRWISE_BLOCK = 128

#: below this many rows numpy's one reduction call costs less than column adds
_COLUMN_SUM_MIN_ROWS = 256


def _as_complex(z) -> ComplexVector:
    return np.asarray(z, dtype=np.complex128)


def hermitian_inner(w, z) -> complex:
    """Hermitian inner product ``sum_i conj(w^i) z^i`` (conjugate-linear in w)."""
    w = _as_complex(w)
    z = _as_complex(z)
    if w.shape != z.shape:
        raise ValueError(f"dimension mismatch: {w.shape} vs {z.shape}")
    return complex(np.vdot(w, z))


def real_dot(w, z) -> float:
    """Real dot product of w and z, equal to ``embed(w) @ embed(z)``.

    Equals ``Re hermitian_inner(w, z)``: the Hermitian form decomposes as
    ``<z, w> = z.w - i (z.(i w))``.
    """
    return hermitian_inner(w, z).real


def embed(z) -> RealVector:
    """Interleaved real embedding ``(Re z^1, Im z^1, ..., Re z^d, Im z^d)``."""
    z = _as_complex(z)
    out = np.empty(2 * z.shape[0], dtype=np.float64)
    out[0::2] = z.real
    out[1::2] = z.imag
    return out


def unembed(x) -> ComplexVector:
    """Inverse of :func:`embed`; rejects odd-length input."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] % 2 != 0:
        raise ValueError(f"real embedding must have even length, got {x.shape[0]}")
    return x[0::2] + 1j * x[1::2]


def as_unit_state(z, tol: float = UNIT_TOL) -> ComplexVector:
    """Validate that z lies on the unit sphere (within tol) and return it.

    Validation happens once, at construction time; the geometric operations
    below assume their unit-vector arguments have already passed through here
    (or are renormalized by the integrator).
    """
    z = _as_complex(z)
    nrm = np.linalg.norm(z)
    if not np.isfinite(nrm) or abs(nrm - 1.0) > tol:
        raise ValueError(f"state is not unit norm: ||z|| = {nrm!r}")
    return z


def as_skew_hermitian(omega, tol: float = SKEW_TOL) -> NDArray[np.complexfloating]:
    """Validate a d x d skew-Hermitian matrix (Omega^dagger = -Omega)."""
    omega = np.asarray(omega, dtype=np.complex128)
    if omega.ndim != 2 or omega.shape[0] != omega.shape[1]:
        raise ValueError(f"frequency matrix must be square, got shape {omega.shape}")
    nrm = np.linalg.norm(omega)
    defect = np.linalg.norm(omega + omega.conj().T)
    if not np.isfinite(nrm) or defect > tol * max(1.0, nrm):
        raise ValueError(f"matrix is not skew-Hermitian: ||A + A^dagger||_F = {defect!r}")
    return omega


def random_unit_state(rng: np.random.Generator, d: int) -> ComplexVector:
    """Draw a uniformly distributed point on the unit sphere of C^d."""
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def _check_unit(z: ComplexVector) -> None:
    nrm = np.linalg.norm(z)
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"projection base point must be unit norm, got ||z|| = {nrm!r}")


def project_tangent(z, v) -> ComplexVector:
    """Projection onto the real-orthogonal complement of unit z: ``v - (z.v) z``."""
    z = _as_complex(z)
    v = _as_complex(v)
    _check_unit(z)
    return v - real_dot(z, v) * z


def project_phase(z, v) -> ComplexVector:
    """Projection onto the phase direction i z: ``((i z).v) (i z)``."""
    z = _as_complex(z)
    v = _as_complex(v)
    _check_unit(z)
    iz = 1j * z
    return real_dot(iz, v) * iz


def q_map(z, v, kappa0: float, kappa1: float) -> ComplexVector:
    """Coupling map ``kappa0 (v - <v,z> z) + kappa1 (<z,v> - <v,z>) z`` at unit z.

    Decomposes as ``kappa0 P_tangent + (kappa0 + 2 kappa1) P_phase``; the two
    routes agree to 1e-13 and the projection form is kept test-side as the
    cross-check.
    """
    z = _as_complex(z)
    v = _as_complex(v)
    _check_unit(z)
    vz = hermitian_inner(v, z)
    zv = hermitian_inner(z, v)
    return kappa0 * (v - vz * z) + kappa1 * (zv - vz) * z


def matrix_exp_family(omega) -> Callable[[float], NDArray[np.complexfloating]]:
    """Unitary propagator ``t -> exp(Omega t)`` for skew-Hermitian Omega.

    One eigendecomposition of the Hermitian matrix -i Omega serves every t,
    so the result is unitary to machine precision for any t.  Useful when a
    trajectory needs the propagator on a whole grid of times.
    """
    omega = as_skew_hermitian(omega)
    # Omega = i H with H Hermitian; exp(Omega t) = V diag(exp(i lam t)) V^dagger
    lam, vecs = np.linalg.eigh(-1j * omega)

    def propagator(t: float) -> NDArray[np.complexfloating]:
        phases = np.exp(1j * lam * t)
        return (vecs * phases) @ vecs.conj().T

    return propagator


def row_sum(m: NDArray) -> NDArray:
    """Sum over the last axis into a new array, bit for bit ``m.sum(axis=-1)``.

    numpy sums each row with one call of its pairwise-sum kernel, which is
    most of the cost of short rows; this adds whole columns in the kernel's
    order instead.  The kernel sees a complex entry as 2 floats: a row of
    fewer than 8 floats is added left to right, a longer one goes into 8
    float lanes (4 complex or 8 real column lanes) that combine pairwise,
    ``(l0 + l1) + (l2 + l3)`` for 4, and the remaining columns are added one
    by one.  Fewer than ``_COLUMN_SUM_MIN_ROWS`` rows, where one numpy call
    is cheaper, and rows longer than one kernel block go to numpy's
    reduction itself.  Like numpy's, every sum starts from +0.0, so a row of
    -0.0 sums to +0.0.
    ``test_row_sum_and_row_norms_are_numpy_bits`` pins the order, so a numpy
    release that changes it fails there instead of changing results.
    """
    d = m.shape[-1]
    width = 2 if m.dtype.kind == "c" else 1          # floats per entry
    if d == 0 or d * width > _PAIRWISE_BLOCK or m.size < _COLUMN_SUM_MIN_ROWS * d:
        return np.add.reduce(m, axis=-1)
    lanes = 8 // width
    if d < lanes:
        total = m[..., 0] + 0.0               # numpy's sum starts from +0.0
        for k in range(1, d):
            total += m[..., k]
        return total
    full = d - d % lanes
    acc = m[..., :lanes]
    if full > lanes:
        acc = acc + m[..., lanes : 2 * lanes]
        for k in range(2 * lanes, full, lanes):
            acc += m[..., k : k + lanes]
    while acc.shape[-1] > 2:
        acc = acc[..., 0::2] + acc[..., 1::2]
    total = acc[..., 0] + acc[..., 1]
    total += 0.0                              # adding +0.0 first or last is the same
    for k in range(full, d):
        total += m[..., k]
    return total


def row_norms(x: NDArray) -> NDArray[np.floating]:
    """Euclidean norm of every row (last axis), bit for bit ``np.linalg.norm(x, axis=-1)``.

    numpy's norm is ``sqrt`` of the row sums of ``(conj(x) * x).real``; the
    sums go through :func:`row_sum`.  ``x.real**2 + x.imag**2`` is not the
    same bits, because the complex product rounds differently.
    """
    return np.sqrt(row_sum((np.conj(x) * x).real))
