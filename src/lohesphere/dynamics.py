"""Right-hand sides of the aggregation models.

The core model couples N unit vectors in C^d through their centroid
``z_c = (1/N) sum_k z_k``:

    dz_j/dt = Omega_j z_j
              + kappa0 (<z_j, z_j> z_c - <z_c, z_j> z_j)
              + kappa1 (<z_j, z_c> - <z_c, z_j>) z_j

Every evaluation is O(N d) after one centroid reduction; the O(N^2)
pairwise form is kept solely as a correctness oracle.  The rank-m
tensor generalization (``lt_rhs``, whose rank-1 case reproduces the
model above) shares the same centroid structure.  All right-hand sides
are tangent to the sphere, which is what conserves the particle norms.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from numpy.typing import NDArray

from .geometry import as_skew_hermitian, check_unit_rows, row_sum

__all__ = [
    "CouplingParams",
    "Ensemble",
    "RhsWorkspace",
    "TensorEnsemble",
    "lhs_rhs",
    "lhs_rhs_pairwise",
    "lt_rhs",
]


@dataclass(frozen=True)
class CouplingParams:
    """Coupling gains of the model: kappa0 (sphere gain) and kappa1 (rotational gain).

    Both carry units 1/time.  No sign restriction is imposed here; the
    exponential-aggregation regime allows kappa1 < 0.
    """

    kappa0: float
    kappa1: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.kappa0) and math.isfinite(self.kappa1)):
            raise ValueError(f"coupling gains must be finite, got {self}")


class Ensemble:
    """Full phase-space configuration: unit states, their frequencies, couplings.

    states has shape (..., N, d) complex: each leading index is one
    independent ensemble of N particles with its own centroid, so one run
    advances a whole batch.  frequencies may take any shape that broadcasts
    to (..., N, d, d), such as one (d, d) matrix, an (N, d, d) stack or one
    matrix per batch member; it is stored as a read-only broadcast view of
    that shape, the only form the right-hand sides read.  ``homogeneous``
    is exact: True iff every frequency matrix equals the first entry by
    entry (``==``, no tolerance).  It selects no arithmetic; it only gates
    ``common_frequency`` and the splitting transform.
    """

    __slots__ = ("states", "frequencies", "params", "homogeneous", "_omega_zero")

    def __init__(self, states, frequencies, params: CouplingParams):
        states = np.array(states, dtype=np.complex128)
        if states.ndim < 2:
            raise ValueError(f"states must have shape (..., N, d), got {states.shape}")
        check_unit_rows(states, "ensemble states")

        if isinstance(frequencies, np.ndarray):
            # a broadcast view's shared axes (stride 0) hold one matrix each:
            # keep them length 1, so the copy is the matrices given, not their stack
            frequencies = frequencies[tuple(
                slice(0, 1) if stride == 0 else slice(None) for stride in frequencies.strides[:-2]
            )]
        frequencies = np.array(frequencies, dtype=np.complex128)
        target, shape = (*states.shape, states.shape[-1]), frequencies.shape
        if shape[-2:] != target[-2:] or len(shape) > len(target) or any(
            f not in (1, t) for f, t in zip(shape[::-1], target[::-1])
        ):
            raise ValueError(f"frequencies must broadcast to (..., N, d, d) {target}, got {shape}")
        as_skew_hermitian(frequencies)
        # both flags read the array as given: a common matrix is d*d entries,
        # not the N*d*d of its broadcast view
        self._omega_zero = bool(np.max(np.abs(frequencies)) == 0.0)
        self.homogeneous = bool(np.all(frequencies == frequencies[(0,) * (len(shape) - 2)]))
        # a matrix shared along an axis is stored once: stride 0 on that axis
        self.frequencies = np.broadcast_to(frequencies, target)
        self.states = states
        self.params = params

    @classmethod
    def with_common_frequency(cls, states, omega, params: CouplingParams) -> "Ensemble":
        """Ensemble in which every particle shares the frequency matrix omega."""
        return cls(states, omega, params)

    @classmethod
    def zero_frequency(cls, states, params: CouplingParams) -> "Ensemble":
        """Ensemble with Omega_j = 0 (the normal form of the homogeneous model)."""
        d = np.shape(states)[-1]
        return cls(states, np.zeros((d, d), dtype=np.complex128), params)

    @property
    def common_frequency(self) -> NDArray[np.complexfloating]:
        if not self.homogeneous:
            raise ValueError("ensemble frequencies are heterogeneous, not homogeneous")
        return self.frequencies[(0,) * (self.frequencies.ndim - 2)]

    def replace_states(self, states: NDArray[np.complexfloating]) -> "Ensemble":
        """New ensemble sharing frequencies/params; skips frequency revalidation.

        Intended for the integrator hot path, where states were just
        renormalized and frequencies are untouched.
        """
        new = copy.copy(self)
        new.states = states
        return new


#: particles per block of the centroid right-hand side: a block's (rows, d)
#: temporaries stay in cache, so the cost per particle does not grow with N
BLOCK_ROWS = 2048


def _free_flow(
    frequencies: NDArray[np.complexfloating], states: NDArray[np.complexfloating], out=None
) -> NDArray[np.complexfloating]:
    """Omega_j z_j for the (..., N, d, d) ``frequencies`` of ``states``, into ``out`` if given.

    One einsum for every ensemble and batch; ``Ensemble.homogeneous``
    selects nothing here.  A common frequency is read through its stride-0
    (..., N, d, d) view, which gives the bits of the single-matrix
    ``einsum("jb,ab->ja", states, Omega)``.
    At its default ``optimize=False`` einsum never calls BLAS, whose threaded
    (N, d) x (d, d) product costs more to start than to compute and is not
    linear in N.
    """
    return np.einsum("...jab,...jb->...ja", frequencies, states, out=out)


class _BlockBuffers:
    """The temporaries of one block of ``rows`` particles of every batch member.

    ``conj`` stacks ``conj(z_c)`` (repeated over the rows) on ``conj(z_j)``,
    so one multiply by the states and one row sum give ``sums`` =
    (<z_c, z_j>, <z_j, z_j>); ``inner``, ``imag`` and ``norm_sq`` are column
    views of them.  ``rot`` holds the rotational factor and ``scratch`` one
    (..., rows, d) product.
    """

    __slots__ = ("conj", "conj_c", "conj_j", "sums", "inner", "imag", "norm_sq", "rot", "scratch")

    def __init__(self, lead: tuple, rows: int, d: int):
        self.conj = np.empty((2, *lead, rows, d), dtype=np.complex128)
        self.conj_c, self.conj_j = self.conj
        self.sums = np.empty((2, *lead, rows), dtype=np.complex128)
        self.inner = self.sums[0][..., None]
        self.imag = self.sums[0].imag[..., None]
        self.norm_sq = self.sums[1].real[..., None]
        self.rot = np.empty((*lead, rows, 1), dtype=np.complex128)
        self.scratch = np.empty((*lead, rows, d), dtype=np.complex128)


class RhsWorkspace:
    """Every temporary of ``lhs_rhs`` on one ensemble's states and gains, built once.

    A run evaluates states of one (..., N, d) shape under one set of gains,
    so ``integrate`` builds one workspace from its ensemble.  ``zc`` holds
    the centroids; ``full`` serves every block of ``BLOCK_ROWS`` particles
    (all N of them with one block) and ``last`` the shorter last block, if
    any.  The scalars of the arithmetic are held as the complex 0-d arrays
    that numpy would convert them to on every call: the same bits, without
    the conversion.
    """

    __slots__ = ("zc", "full", "last", "n", "kappa0", "kappa1", "minus_2j")

    def __init__(self, ens: "Ensemble"):
        *lead, n, d = ens.states.shape
        self.zc = np.empty((*lead, 1, d), dtype=np.complex128)
        self.full = _BlockBuffers(lead, min(n, BLOCK_ROWS), d)
        tail = n % BLOCK_ROWS
        self.last = _BlockBuffers(lead, tail, d) if n > BLOCK_ROWS and tail else self.full
        self.n, self.minus_2j = np.array(n, dtype=np.complex128), np.array(-2j)
        self.kappa0 = np.array(ens.params.kappa0, dtype=np.complex128)
        self.kappa1 = np.array(ens.params.kappa1, dtype=np.complex128)


def _block_into(
    ens: "Ensemble",
    states: NDArray[np.complexfloating],
    frequencies: NDArray[np.complexfloating],
    out: NDArray[np.complexfloating],
    work: RhsWorkspace,
    buf: _BlockBuffers,
) -> None:
    """Write dz/dt of ``states`` (one block of every member) into ``out``."""
    # Both reductions share one multiply-then-sum path so that the
    # self-coupling bracket cancels exactly when z_c coincides bitwise with a
    # state (consensus and N = 1 are exact equilibria, not 1e-16 ones).
    zc = work.zc
    np.conjugate(zc, out=buf.conj_c)
    np.conjugate(states, out=buf.conj_j)
    row_sum(np.multiply(states, buf.conj, out=buf.conj), out=buf.sums)
    np.multiply(buf.norm_sq, zc, out=out)
    out -= np.multiply(buf.inner, states, out=buf.scratch)
    out *= work.kappa0
    if ens.params.kappa1 != 0.0:
        # <z_j, z_c> - <z_c, z_j> = conj(a) - a = -2i Im(a) with a = <z_c, z_j>
        rot = np.multiply(work.minus_2j, buf.imag, out=buf.rot)
        np.multiply(work.kappa1, rot, out=rot)
        out += np.multiply(rot, states, out=buf.scratch)
    if not ens._omega_zero:
        out += _free_flow(frequencies, states, out=buf.scratch)


def lhs_rhs(
    ens: Ensemble,
    *,
    out: NDArray[np.complexfloating] | None = None,
    work: RhsWorkspace | None = None,
) -> NDArray[np.complexfloating]:
    """Time derivative of every state under the centroid-reduced model, into ``out`` if given.

    One reduction over the particle axis (-2) gives each batch member's
    z_c; the per-particle force follows in O(N d), one block of BLOCK_ROWS
    particles of every member at a time, written straight into ``out``
    (which must not share memory with the states).  Each member gets the
    bits of its own unbatched call.  ``work`` is a ``RhsWorkspace`` of this
    ensemble that a caller evaluating many times (one run) builds once;
    without it every call builds its own.  Makes no BLAS call, so its O(N)
    cost does not depend on the BLAS thread count.
    """
    states = ens.states
    n = states.shape[-2]
    if out is None:
        out = np.empty_like(states)
    if work is None:
        work = RhsWorkspace(ens)
    # states.mean(axis=-2) bit for bit (the same sum and division) without its
    # Python wrapper, which costs about 5 % of a call at N = 16..128
    zc = np.add.reduce(states, axis=-2, keepdims=True, out=work.zc)
    zc /= work.n
    if n <= BLOCK_ROWS:
        _block_into(ens, states, ens.frequencies, out, work, work.full)
        return out
    for start in range(0, n, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        buf = work.full if start + BLOCK_ROWS <= n else work.last
        block_freqs = ens.frequencies[..., rows, :, :]
        _block_into(ens, states[..., rows, :], block_freqs, out[..., rows, :], work, buf)
    return out


def lhs_rhs_pairwise(ens: Ensemble) -> NDArray[np.complexfloating]:
    """O(N^2) reference evaluation via the explicit double sum.

    Exists solely as the correctness oracle for the centroid reduction;
    agreement is required to 1e-12.
    """
    states = ens.states
    n = states.shape[-2]
    kappa0, kappa1 = ens.params.kappa0, ens.params.kappa1
    gram = np.conj(states) @ np.swapaxes(states, -2, -1)   # gram[..., k, j] = <z_k, z_j>
    norm_sq = np.diagonal(gram, axis1=-2, axis2=-1).real
    col_sum = gram.sum(axis=-2)                  # sum_k <z_k, z_j>
    sum_states = states.sum(axis=-2, keepdims=True)
    out = np.zeros_like(states) if ens._omega_zero else _free_flow(ens.frequencies, states)
    out += (kappa0 / n) * (norm_sq[..., None] * sum_states - col_sum[..., None] * states)
    # sum_k (<z_j, z_k> - <z_k, z_j>) = conj(col_sum_j) - col_sum_j
    out += (kappa1 / n) * (np.conj(col_sum) - col_sum)[..., None] * states
    return out


class TensorEnsemble:
    """N rank-m complex tensors with unit Frobenius norm, skew frequency tensors
    and one coupling gain per index pattern in {0,1}^m.

    Restricted to m <= 3 and at most 10^4 entries per tensor: enough for
    desk-scale verification, and the general case adds only index bookkeeping.
    """

    __slots__ = ("tensors", "frequency_tensors", "couplings", "rank", "shape")

    MAX_RANK = 3
    MAX_SIZE = 10_000

    def __init__(self, tensors, frequency_tensors, couplings: Mapping[tuple, float]):
        tensors = np.array(tensors, dtype=np.complex128)
        if tensors.ndim < 2:
            raise ValueError("tensors must have shape (N, d1, ..., dm)")
        self.rank = tensors.ndim - 1
        self.shape = tensors.shape[1:]
        if self.rank > self.MAX_RANK:
            raise ValueError(f"rank {self.rank} exceeds supported maximum {self.MAX_RANK}")
        size = int(np.prod(self.shape))
        if size > self.MAX_SIZE:
            raise ValueError(f"tensor size {size} exceeds supported maximum {self.MAX_SIZE}")

        n = tensors.shape[0]
        check_unit_rows(tensors.reshape(n, -1), "tensors")

        frequency_tensors = np.array(frequency_tensors, dtype=np.complex128)
        if frequency_tensors.shape != (n, *self.shape, *self.shape):
            raise ValueError(
                "frequency tensors must have shape (N, d1..dm, d1..dm), got "
                f"{frequency_tensors.shape}"
            )
        as_skew_hermitian(frequency_tensors.reshape(n, size, size))

        patterns = {tuple(int(b) for b in key) for key in couplings}
        expected = {tuple(bits) for bits in np.ndindex(*(2,) * self.rank)}
        if patterns != expected:
            raise ValueError(
                f"couplings must cover every index pattern in {{0,1}}^{self.rank}; "
                f"got {sorted(patterns)}"
            )
        self.couplings = {tuple(int(b) for b in k): float(v) for k, v in couplings.items()}
        if any(v < 0.0 for v in self.couplings.values()):
            warnings.warn(
                "negative coupling gain passed to the tensor model; the tensor-level "
                "theory assumes nonnegative gains (the rank-1 model is the path that "
                "supports negative rotational gain)",
                stacklevel=2,
            )
        self.tensors = tensors
        self.frequency_tensors = frequency_tensors


_OUT_LETTERS = "abc"
_SUM_LETTERS = "uvw"


def lt_rhs(tens: TensorEnsemble) -> NDArray[np.complexfloating]:
    """Component-wise rank-m tensor model with centroid T_c = (1/N) sum_k T_k.

    For each index pattern i in {0,1}^m the coupling contributes

        kappa_i sum_g ( T_c[sel(i)] conj(T_j)[g] T_j[sel(1-i)]
                        - T_j[sel(i)] conj(T_c)[g] T_j[sel(1-i)] )

    where sel(i) picks the free index in slot k when i_k = 0 and the summed
    index g_k when i_k = 1.  Pattern (0,...,0) is the sphere-type gain and
    (1,...,1) the rotational one; for m = 1 this reduces exactly to the
    rank-1 model under the correspondence kappa_(0) = kappa0, kappa_(1) = kappa1.
    """
    m = tens.rank
    out_idx = _OUT_LETTERS[:m]
    sum_idx = _SUM_LETTERS[:m]
    tensors = tens.tensors
    t_c = tensors.mean(axis=0)
    conj_t = np.conj(tensors)

    out = np.einsum(
        f"j{out_idx}{sum_idx},j{sum_idx}->j{out_idx}", tens.frequency_tensors, tensors
    )
    for pattern, kappa in tens.couplings.items():
        if kappa == 0.0:
            continue
        sel = "".join(out_idx[k] if pattern[k] == 0 else sum_idx[k] for k in range(m))
        sel_comp = "".join(sum_idx[k] if pattern[k] == 0 else out_idx[k] for k in range(m))
        term_c = np.einsum(
            f"{sel},j{sum_idx},j{sel_comp}->j{out_idx}", t_c, conj_t, tensors
        )
        term_j = np.einsum(
            f"j{sel},{sum_idx},j{sel_comp}->j{out_idx}", tensors, np.conj(t_c), tensors
        )
        out += kappa * (term_c - term_j)
    return out
