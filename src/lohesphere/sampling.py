"""Samplers for admissible initial data and random frequency matrices.

The exponential-aggregation regime requires |kappa1| < kappa0 / 2 together
with an initial worst-pair correlation defect

    F0 = max_{k,l} |1 - <z_k, z_l>| < 1 - 2 |kappa1| / kappa0 - delta

for some delta > 0.  States are drawn inside a spherical cap around a random
reference point, with the cap radius shrunk until the strict F-condition
holds; everything is deterministic given the seed.
"""

from __future__ import annotations

import math
import numpy as np
from numpy.typing import NDArray

from .dynamics import CouplingParams, Ensemble
from .geometry import random_unit_state, row_norms
from .observables import functional_F

__all__ = [
    "admissible_threshold",
    "cap_states",
    "admissible_cap_states",
    "random_skew_hermitian",
    "random_frequencies",
    "sample_admissible",
    "random_sphere_states",
    "jitter_states",
]

#: shrink factor applied to the cap radius after a rejected draw
CAP_SHRINK = 0.7

#: accepted draws must satisfy F0 <= CAP_SAFETY * threshold (strictness margin)
CAP_SAFETY = 0.98

#: draws, each in a cap shrunk by CAP_SHRINK, before the sampler gives up
CAP_MAX_ATTEMPTS = 200


def admissible_threshold(kappa0: float, kappa1: float, delta: float) -> float:
    """Strict upper bound on F0; raises when the parameters make it empty."""
    if not kappa0 > 0 or not abs(kappa1) < kappa0 / 2.0:
        raise ValueError(
            f"admissibility requires |kappa1| < kappa0 / 2, got kappa0={kappa0}, kappa1={kappa1}"
        )
    bound = 1.0 - 2.0 * abs(kappa1) / kappa0
    if not 0.0 < delta < bound:
        raise ValueError(f"delta must lie in (0, {bound:g}), got {delta}")
    return bound - delta


def random_sphere_states(rng: np.random.Generator, n: int, d: int) -> NDArray:
    """n independent uniform points on the unit sphere of C^d."""
    z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return z / row_norms(z)[:, None]


def jitter_states(rng: np.random.Generator, states: NDArray, scale: float) -> NDArray:
    """Perturb states by a scaled complex Gaussian and renormalize."""
    noise = rng.standard_normal(states.shape) + 1j * rng.standard_normal(states.shape)
    raw = states + scale * noise
    return raw / row_norms(raw)[:, None]


def cap_states(
    rng: np.random.Generator, n: int, d: int, center: NDArray, radius: float
) -> NDArray:
    """n states in the spherical cap ``normalize(center + radius * noise)``."""
    return jitter_states(rng, np.broadcast_to(center, (n, d)), radius)


def admissible_cap_states(
    rng: np.random.Generator,
    n: int,
    d: int,
    threshold: float,
) -> NDArray:
    """Rejection-sample n states whose worst-pair defect stays below threshold.

    Draws in a cap around a random reference point and shrinks the cap until
    F < CAP_SAFETY * threshold, so downstream bounds start with a margin.
    F is the exact O(N^2) pair scan at every N, so a draw at N well above
    10^4 takes seconds.
    """
    if n < 1:
        raise ValueError("need at least one state")
    center = random_unit_state(rng, d)
    if n == 1:
        return center[None, :]
    radius = min(1.0, math.sqrt(threshold))
    for _ in range(CAP_MAX_ATTEMPTS):
        states = cap_states(rng, n, d, center, radius)
        if functional_F(states) <= CAP_SAFETY * threshold:
            return states
        radius *= CAP_SHRINK
    raise RuntimeError(
        f"failed to draw an admissible cap after {CAP_MAX_ATTEMPTS} attempts "
        f"(threshold {threshold:g})"
    )


def random_skew_hermitian(rng: np.random.Generator, d: int, scale: float) -> NDArray:
    """Skew-Hermitian matrix with independent Gaussian entries at the given spread."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * 0.5 * (g - g.conj().T)


def random_frequencies(
    rng: np.random.Generator, n: int, d: int, scale: float, heterogeneous: bool
) -> NDArray:
    """Frequencies of n particles in C^d, as ``Ensemble`` accepts them.

    Spread 0 gives the zero (d, d) matrix and draws nothing; otherwise
    heterogeneous=True gives n independent draws of shape (n, d, d), and
    heterogeneous=False one common (d, d) draw.
    """
    if scale == 0.0:
        return np.zeros((d, d), dtype=np.complex128)
    if heterogeneous:
        return np.stack([random_skew_hermitian(rng, d, scale) for _ in range(n)])
    return random_skew_hermitian(rng, d, scale)


def sample_admissible(
    n: int,
    d: int,
    kappa0: float,
    kappa1: float,
    delta: float,
    seed: int,
    omega_scale: float = 0.0,
    heterogeneous: bool = False,
) -> Ensemble:
    """Admissible ensemble: cap-sampled states plus frequency matrices.

    Frequencies come from ``random_frequencies`` (zero spread gives the
    zero-frequency normal form).  Deterministic given the seed.
    """
    threshold = admissible_threshold(kappa0, kappa1, delta)
    rng = np.random.default_rng(seed)
    states = admissible_cap_states(rng, n, d, threshold)
    freqs = random_frequencies(rng, n, d, omega_scale, heterogeneous)
    return Ensemble(states, freqs, CouplingParams(kappa0, kappa1))
