"""Geometry of the complex unit sphere in C^d.

The two invariants of the model are checked here, once each: unit-norm
rows (:func:`check_unit_rows`) and skew-Hermitian frequency matrices
(:func:`as_skew_hermitian`); both reject non-finite input.  Beside them
sit uniform sampling on the sphere, the unitary propagator family
``t -> exp(Omega t)`` for skew-Hermitian Omega, and the row sums and row
norms that reproduce numpy's bits.

All functions are pure and operate on plain complex ndarrays.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.typing import NDArray

ComplexVector = NDArray[np.complexfloating]

#: tolerance on | ||z|| - 1 | accepted when validating a unit state
UNIT_TOL = 1e-12

#: relative tolerance on ||A + A^dagger||_F accepted for skew-Hermitian input
SKEW_TOL = 1e-12

__all__ = [
    "UNIT_TOL",
    "SKEW_TOL",
    "check_unit_rows",
    "as_skew_hermitian",
    "random_unit_state",
    "matrix_exp_family",
    "row_sum",
    "row_norms",
]

#: floats numpy's pairwise sum adds in one unrolled block; longer rows recurse
_PAIRWISE_BLOCK = 128

#: below this many rows numpy's one reduction call costs less than column adds
_COLUMN_SUM_MIN_ROWS = 256


def check_unit_rows(x: NDArray, noun: str) -> None:
    """Raise ``ValueError`` unless every row (last axis) of x has unit norm.

    The worst drift ``max | ||row|| - 1 |`` must be at most ``UNIT_TOL``; a
    NaN or infinite entry makes it non-finite and fails the same test.
    """
    worst = float(np.max(np.abs(row_norms(x) - 1.0)))
    if not worst <= UNIT_TOL:
        raise ValueError(f"{noun} must be unit norm, worst drift {worst:g}")


def as_skew_hermitian(omega) -> NDArray[np.complexfloating]:
    """Validate a (..., d, d) stack of skew-Hermitian matrices and return it as complex.

    Every matrix A must be finite and satisfy
    ``||A + A^dagger||_F <= SKEW_TOL * max(1, ||A||_F)``.
    """
    omega = np.asarray(omega, dtype=np.complex128)
    if omega.ndim < 2 or omega.shape[-1] != omega.shape[-2]:
        raise ValueError(f"frequency matrix must be square, got shape {omega.shape}")
    nrm = np.linalg.norm(omega, axis=(-2, -1))
    defect = np.linalg.norm(omega + np.conj(np.swapaxes(omega, -2, -1)), axis=(-2, -1))
    if not (np.all(np.isfinite(nrm)) and np.all(defect <= SKEW_TOL * np.maximum(1.0, nrm))):
        raise ValueError(
            "frequency matrices must be finite and skew-Hermitian, "
            f"worst ||A + A^dagger||_F = {np.max(defect):g}"
        )
    return omega


def random_unit_state(rng: np.random.Generator, d: int) -> ComplexVector:
    """Draw a uniformly distributed point on the unit sphere of C^d."""
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def matrix_exp_family(omega) -> Callable[[float], NDArray[np.complexfloating]]:
    """Unitary propagator ``t -> exp(Omega t)`` for skew-Hermitian Omega.

    One eigendecomposition of the Hermitian matrix -i Omega serves every t,
    so the result is unitary to machine precision for any t.  Useful when a
    trajectory needs the propagator on a whole grid of times.
    """
    omega = as_skew_hermitian(omega)
    if omega.ndim != 2:
        raise ValueError(f"propagator needs one (d, d) matrix, got shape {omega.shape}")
    # Omega = i H with H Hermitian; exp(Omega t) = V diag(exp(i lam t)) V^dagger
    lam, vecs = np.linalg.eigh(-1j * omega)

    def propagator(t: float) -> NDArray[np.complexfloating]:
        phases = np.exp(1j * lam * t)
        return (vecs * phases) @ vecs.conj().T

    return propagator


def row_sum(m: NDArray, out: NDArray | None = None) -> NDArray:
    """Sum over the last axis into ``out`` (a new array if None), bit for bit ``m.sum(axis=-1)``.

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
        return np.add.reduce(m, axis=-1, out=out)
    lanes = 8 // width
    if d < lanes:
        total = np.add(m[..., 0], 0.0, out=out)   # numpy's sum starts from +0.0
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
    total = np.add(acc[..., 0], acc[..., 1], out=out)
    total += 0.0                              # adding +0.0 first or last is the same
    for k in range(full, d):
        total += m[..., k]
    return total


def row_norms(
    x: NDArray, out: NDArray | None = None, scratch: NDArray | None = None
) -> NDArray[np.floating]:
    """Euclidean norm of every row (last axis), bit for bit ``np.linalg.norm(x, axis=-1)``.

    numpy's norm is ``sqrt`` of the row sums of ``(conj(x) * x).real``; the
    sums go through :func:`row_sum`.  ``x.real**2 + x.imag**2`` is not the
    same bits, because the complex product rounds differently.  The norms go
    into ``out`` and the products into ``scratch`` (x's shape and dtype),
    each a new array if None.  The products overwrite the conjugates, so at
    most one temporary of x's size is made; a one-element product goes to a
    new array, because numpy rounds it differently into one of its inputs.
    """
    conj = np.conjugate(x, out=scratch)
    squares = np.multiply(conj, x, out=conj if conj.size > 1 else None)
    return np.sqrt(row_sum(squares.real, out=out), out=out)
