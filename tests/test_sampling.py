"""Admissible-data sampler: cap rejection, determinism, feasibility errors."""

import numpy as np
import pytest

from lohesphere.observables import functional_F
from lohesphere.sampling import (
    admissible_threshold,
    random_frequencies,
    random_skew_hermitian,
    sample_admissible,
)


def test_tight_cap_for_large_delta():
    # kappa1 = 0, delta = 0.9: the cap must deliver F0 < 0.1
    ens = sample_admissible(12, 3, 1.0, 0.0, 0.9, seed=0)
    assert functional_F(ens.states) < 0.1


def test_single_particle_always_admissible():
    ens = sample_admissible(1, 4, 1.0, 0.2, 0.1, seed=1)
    assert functional_F(ens.states) == 0.0


def test_sampled_ensembles_pass_admissibility_check():
    for seed in range(100):
        kappa0, kappa1, delta = 1.0, -0.2, 0.1
        ens = sample_admissible(8, 3, kappa0, kappa1, delta, seed=seed)
        assert functional_F(ens.states) < admissible_threshold(kappa0, kappa1, delta)


def test_admissibility_check_rejects_violations():
    with pytest.raises(ValueError):
        admissible_threshold(1.0, 0.6, 0.1)      # |kappa1| >= kappa0/2
    with pytest.raises(ValueError):
        admissible_threshold(1.0, 0.0, -0.1)     # delta <= 0
    assert 0.6 > admissible_threshold(1.0, 0.0, 0.5)      # F0 too large


def test_deterministic_given_seed():
    a = sample_admissible(10, 4, 1.0, 0.1, 0.2, seed=42, omega_scale=0.5)
    b = sample_admissible(10, 4, 1.0, 0.1, 0.2, seed=42, omega_scale=0.5)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.frequencies, b.frequencies)


def test_infeasible_delta_raises():
    with pytest.raises(ValueError, match="delta"):
        sample_admissible(8, 3, 1.0, 0.4, 0.5, seed=0)  # bound is 1 - 0.8 = 0.2 < delta
    with pytest.raises(ValueError, match="kappa"):
        admissible_threshold(1.0, 0.6, 0.1)


@pytest.mark.parametrize("heterogeneous", [False, True], ids=["common", "heterogeneous"])
@pytest.mark.parametrize("scale", [0.0, 0.7], ids=["zero", "spread"])
def test_random_frequencies_draws_one_matrix_per_particle_or_one_or_none(scale, heterogeneous):
    rng, twin = np.random.default_rng(3), np.random.default_rng(3)
    freqs = random_frequencies(rng, 5, 3, scale, heterogeneous)
    if scale == 0.0:
        expected = np.zeros((3, 3), dtype=complex)
    elif heterogeneous:
        expected = np.stack([random_skew_hermitian(twin, 3, scale) for _ in range(5)])
    else:
        expected = random_skew_hermitian(twin, 3, scale)
    assert freqs.shape == expected.shape
    assert np.array_equal(freqs, expected)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_heterogeneous_frequencies():
    ens = sample_admissible(6, 3, 1.0, 0.0, 0.3, seed=5, omega_scale=0.7, heterogeneous=True)
    assert not ens.homogeneous
    common = sample_admissible(6, 3, 1.0, 0.0, 0.3, seed=5, omega_scale=0.7)
    assert common.homogeneous
