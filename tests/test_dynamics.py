"""Right-hand sides: centroid reduction, real restriction, tensor model.

The real-restricted (LS) model is ``lhs_rhs`` on real states with real
antisymmetric frequencies: the output is real and the rotational gain
kappa1 drops out exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lohesphere import dynamics
from lohesphere.dynamics import (
    CouplingParams,
    Ensemble,
    TensorEnsemble,
    lhs_rhs,
    lhs_rhs_pairwise,
    lt_rhs,
)
from lohesphere.geometry import matrix_exp_family
from lohesphere.integrators import IntegratorConfig, integrate, rk4_step, split_transform
from lohesphere.sampling import random_skew_hermitian, random_sphere_states

PARAMS = CouplingParams(1.0, 0.3)


def _random_ensemble(rng, n, d, params=PARAMS, omega_scale=0.0, heterogeneous=False):
    states = random_sphere_states(rng, n, d)
    if heterogeneous:
        freqs = np.stack([random_skew_hermitian(rng, d, omega_scale) for _ in range(n)])
        return Ensemble(states, freqs, params)
    if omega_scale == 0.0:
        return Ensemble.zero_frequency(states, params)
    return Ensemble.with_common_frequency(states, random_skew_hermitian(rng, d, omega_scale), params)


def test_consensus_is_equilibrium():
    # dyadic entries keep every reduction exact, so consensus is an exact
    # equilibrium at the bit level, not a 1e-16 one
    state = np.array([0.5, 0.5j, 0.5, 0.5], dtype=complex)
    states = np.tile(state, (5, 1))
    ens = Ensemble.zero_frequency(states, PARAMS)
    assert np.all(lhs_rhs(ens) == 0.0)


def test_consensus_is_equilibrium_generic_count():
    state = np.array([0.6, 0.8j, 0.0], dtype=complex)
    states = np.tile(state, (5, 1))
    ens = Ensemble.zero_frequency(states, PARAMS)
    np.testing.assert_allclose(lhs_rhs(ens), np.zeros((5, 3)), atol=1e-15)


def test_antipodal_pair_is_equilibrium():
    states = np.array([[1.0, 0.0], [-1.0, 0.0]], dtype=complex)
    ens = Ensemble.zero_frequency(states, PARAMS)
    np.testing.assert_allclose(lhs_rhs(ens), np.zeros((2, 2)), atol=1e-16)
    np.testing.assert_allclose(lhs_rhs_pairwise(ens), np.zeros((2, 2)), atol=1e-15)


def test_single_particle_feels_only_free_flow():
    rng = np.random.default_rng(0)
    z = random_sphere_states(rng, 1, 4)
    omega = random_skew_hermitian(rng, 4, 1.0)
    ens = Ensemble.with_common_frequency(z, omega, PARAMS)
    expected = z @ omega.T
    np.testing.assert_allclose(lhs_rhs(ens), expected, atol=1e-16)
    np.testing.assert_allclose(lhs_rhs_pairwise(ens), expected, atol=1e-15)


def test_free_flow_without_blas_at_large_n():
    # At N = 2^13 a BLAS (N, d) x (d, d) product would run threaded; the free
    # flow must be the per-row einsum and give the bits of the single-matrix
    # form einsum("jb,ab->ja"), whether the common frequency is stored once
    # or per particle.
    rng = np.random.default_rng(12)
    n = 2**13
    free = CouplingParams(0.0, 0.0)
    for d in (1, 2, 3, 4, 8):
        states = random_sphere_states(rng, n, d)
        omega = random_skew_hermitian(rng, d, 1.0)
        expected = np.einsum("jb,ab->ja", states, omega)
        forms = (omega, np.tile(omega, (n, 1, 1)))
        for freqs in forms:
            assert np.array_equal(lhs_rhs(Ensemble(states, freqs, free)), expected)
        coupled = [lhs_rhs(Ensemble(states, freqs, PARAMS)) for freqs in forms]
        assert np.array_equal(*coupled)
        rows = np.array([omega @ z for z in states])
        np.testing.assert_allclose(expected, rows, atol=1e-15, rtol=0)


def test_near_equal_frequencies_rotate_each_particle_by_its_own():
    # Omega plus per-particle skew noise of about 1e-13: the stack is not
    # common, so each particle turns by its own matrix and no splitting applies
    rng = np.random.default_rng(16)
    n, d = 64, 4
    states = random_sphere_states(rng, n, d)
    omega = random_skew_hermitian(rng, d, 1.0)
    stack = omega + np.stack([random_skew_hermitian(rng, d, 1e-13) for _ in range(n)])
    ens = Ensemble(states, stack, CouplingParams(0.0, 0.0))
    assert not ens.homogeneous
    assert np.array_equal(lhs_rhs(ens), np.einsum("jab,jb->ja", stack, states))
    traj, _ = integrate(ens, IntegratorConfig(t_end=0.01, dt=0.01))
    with pytest.raises(ValueError, match="homogeneous"):
        split_transform(traj)


def test_broadcast_frequencies_keep_stride_zero_and_the_rhs_bits():
    # a broadcast view is stored as a view of the matrices it repeats, not
    # copied into its full stack; the right-hand side gives the copy's bits
    rng = np.random.default_rng(22)
    n, d = 64, 4
    states = random_sphere_states(rng, n, d)
    common = Ensemble.with_common_frequency(states, random_skew_hermitian(rng, d, 1.0), PARAMS)
    stack = np.stack([random_skew_hermitian(rng, d, 1.0) for _ in range(n)])
    batch = np.stack([states, random_sphere_states(rng, n, d), states])
    members = Ensemble(batch, common.common_frequency, PARAMS)
    probes = np.repeat(batch[:, None], 4, axis=1)
    cases = [
        (states, common.frequencies, (0,)),                    # a common frequency again
        (probes, members.frequencies[..., None, :, :, :], (0, 0, 0)),  # e5's R^2 probes
        (batch, np.broadcast_to(stack, (3, n, d, d)), (0,)),   # one stack for every member
    ]
    for st_, freqs, zero_axes in cases:
        ens = Ensemble(st_, freqs, PARAMS)
        assert ens.frequencies.strides[: len(zero_axes)] == zero_axes
        copied = Ensemble(st_, np.array(freqs), PARAMS)
        assert copied.frequencies.strides[0] != 0
        assert (ens.homogeneous, ens._omega_zero) == (copied.homogeneous, copied._omega_zero)
        assert lhs_rhs(ens).tobytes() == lhs_rhs(copied).tobytes()


@pytest.mark.parametrize("omega_scale, heterogeneous", [(0.0, False), (0.5, False), (0.5, True)])
def test_blocks_do_not_change_the_rhs(monkeypatch, omega_scale, heterogeneous):
    # one block is checked against the pairwise oracle; many blocks, with a
    # short last one, must give the same bits
    rng = np.random.default_rng(13)
    ens = _random_ensemble(
        rng, 100, 4, CouplingParams(1.0, -0.3), omega_scale=omega_scale, heterogeneous=heterogeneous
    )
    whole = lhs_rhs(ens)
    monkeypatch.setattr(dynamics, "BLOCK_ROWS", 7)
    assert np.array_equal(lhs_rhs(ens), whole)


def test_rhs_is_tangent():
    rng = np.random.default_rng(1)
    for het in (False, True):
        ens = _random_ensemble(rng, 24, 5, omega_scale=0.8, heterogeneous=het)
        rhs = lhs_rhs(ens)
        radial = np.einsum("jd,jd->j", np.conj(rhs), ens.states).real
        assert np.max(np.abs(radial)) < 1e-12


def test_centroid_reduction_matches_pairwise():
    rng = np.random.default_rng(2)
    for n in (2, 3, 17, 64):
        for _ in range(25):
            k0, k1 = rng.standard_normal(2)
            ens = _random_ensemble(rng, n, 4, CouplingParams(k0, k1), omega_scale=0.5)
            np.testing.assert_allclose(
                lhs_rhs(ens), lhs_rhs_pairwise(ens), atol=1e-12, rtol=0
            )
    # a batch of 3 ensembles, one frequency matrix per member
    states = np.stack([random_sphere_states(rng, 17, 4) for _ in range(3)])
    freqs = np.stack([random_skew_hermitian(rng, 4, 0.5) for _ in range(3)])[:, None]
    batch = Ensemble(states, freqs, CouplingParams(*rng.standard_normal(2)))
    np.testing.assert_allclose(lhs_rhs(batch), lhs_rhs_pairwise(batch), atol=1e-12, rtol=0)


def test_permutation_equivariance():
    rng = np.random.default_rng(3)
    ens = _random_ensemble(rng, 12, 3, omega_scale=0.5, heterogeneous=True)
    perm = rng.permutation(12)
    permuted = Ensemble(ens.states[perm], ens.frequencies[perm], ens.params)
    np.testing.assert_allclose(lhs_rhs(permuted), lhs_rhs(ens)[perm], atol=1e-13)


#: (omega_scale, heterogeneous) of each frequency mode
FREQUENCY_MODES = {"zero": (0.0, False), "common": (1.0, False), "per_particle": (1.0, True)}


@st.composite
def rhs_cases(draw):
    """A frequency mode, an ensemble in it with gains of either sign, a block
    size small enough for rows to cross block edges, and an rng."""
    mode = draw(st.sampled_from(sorted(FREQUENCY_MODES)))
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 4))
    params = CouplingParams(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ens = _random_ensemble(rng, n, d, params, *FREQUENCY_MODES[mode])
    return mode, ens, draw(st.integers(1, 8)), rng


def _blocked_rhs(ens, rows):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "BLOCK_ROWS", rows)
        return lhs_rhs(ens)


@settings(max_examples=150, deadline=None)
@given(rhs_cases())
def test_rhs_permutation_equivariant_across_blocks(case):
    _, ens, rows, rng = case
    perm = rng.permutation(ens.states.shape[0])
    permuted = Ensemble(ens.states[perm], ens.frequencies[perm], ens.params)
    np.testing.assert_allclose(
        _blocked_rhs(permuted, rows), _blocked_rhs(ens, rows)[perm], rtol=0, atol=1e-13
    )


@settings(max_examples=150, deadline=None)
@given(rhs_cases(), st.floats(-3.0, 3.0))
def test_rhs_covariant_under_unitaries_commuting_with_omega(case, s):
    # the coupling is covariant under every common unitary U, the free flow
    # under those that commute with each Omega_j
    mode, ens, rows, rng = case
    d = ens.states.shape[1]
    if mode == "zero":
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        u = np.linalg.qr(g)[0]
    elif mode == "common":
        u = matrix_exp_family(ens.frequencies[0])(s)
    else:
        u = np.exp(1j * s) * np.eye(d)
    rotated = Ensemble(ens.states @ u.T, ens.frequencies, ens.params)
    np.testing.assert_allclose(
        _blocked_rhs(rotated, rows), _blocked_rhs(ens, rows) @ u.T, rtol=0, atol=1e-13
    )


def _assert_real_restriction(ens):
    """lhs_rhs of a real ensemble is exactly real and exactly free of kappa1."""
    out = lhs_rhs(ens)
    assert np.all(out.imag == 0.0)
    no_kappa1 = CouplingParams(ens.params.kappa0, 0.0)
    assert np.all(out == lhs_rhs(Ensemble(ens.states, ens.frequencies, no_kappa1)))
    return out.real


def test_ls_matches_complex_rhs_on_real_data():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((10, 4))
    x /= np.linalg.norm(x, axis=1)[:, None]
    g = rng.standard_normal((4, 4))
    omega = 0.5 * (g - g.T)
    ens = Ensemble.with_common_frequency(x.astype(complex), omega.astype(complex), PARAMS)
    real = _assert_real_restriction(ens)
    # each member of a batch has its own centroid
    batch = Ensemble(np.stack([x, x[::-1] * [1, -1, 1, 1]]).astype(complex), omega, PARAMS)
    assert np.all(_assert_real_restriction(batch)[0] == real)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(sorted(FREQUENCY_MODES)),
    st.integers(1, 40),
    st.integers(1, 5),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.integers(0, 2**32 - 1),
)
def test_ls_matches_lhs_on_real_states_and_frequencies(mode, n, d, kappa0, kappa1, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    x /= np.linalg.norm(x, axis=1)[:, None]
    omega_scale, heterogeneous = FREQUENCY_MODES[mode]
    g = omega_scale * rng.standard_normal((n, d, d) if heterogeneous else (d, d))
    omegas = 0.5 * (g - np.swapaxes(g, -1, -2))
    _assert_real_restriction(
        Ensemble(x.astype(complex), omegas.astype(complex), CouplingParams(kappa0, kappa1))
    )


def test_ls_consensus_is_equilibrium():
    x = np.tile(np.array([0.5, 0.5, 0.5, 0.5]), (6, 1)).astype(complex)
    ens = Ensemble.zero_frequency(x, PARAMS)
    assert np.all(_assert_real_restriction(ens) == 0.0)


def test_ls_orthogonal_pair_hand_value():
    # x1 = e1, x2 = e2 on the circle: dx1/dt = kappa0 (x_c - (x_c . x1) x1)
    # with x_c = (e1 + e2)/2, so dx1/dt = kappa0 e2 / 2; kappa1 drops out
    x = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    kappa0 = 0.8
    ens = Ensemble.zero_frequency(x, CouplingParams(kappa0, 0.5))
    out = _assert_real_restriction(ens)
    np.testing.assert_allclose(out[0], [0.0, kappa0 / 2.0], atol=1e-15)
    np.testing.assert_allclose(out[1], [kappa0 / 2.0, 0.0], atol=1e-15)


def test_real_data_stay_real_over_many_steps():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((8, 3))
    x /= np.linalg.norm(x, axis=1)[:, None]
    ens = Ensemble.zero_frequency(x.astype(complex), CouplingParams(1.0, 0.4))
    states = ens.states

    def rhs(s, out):
        return lhs_rhs(ens.replace_states(s), out=out)

    for _ in range(10_000):
        states = rk4_step(states, 1e-3, rhs)
        states /= np.linalg.norm(states, axis=1)[:, None]
    assert np.max(np.abs(states.imag)) <= 1e-12


def _rank1_tensor_ensemble(rng, n, d, k0, k1):
    states = random_sphere_states(rng, n, d)
    freqs = np.stack([random_skew_hermitian(rng, d, 0.7) for _ in range(n)])
    ens = Ensemble(states, freqs, CouplingParams(k0, k1))
    tens = TensorEnsemble(states, freqs, {(0,): k0, (1,): k1})
    return ens, tens


def test_lt_rank1_reduction():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        k0, k1 = np.abs(rng.standard_normal(2))
        ens, tens = _rank1_tensor_ensemble(rng, n, 4, k0, k1)
        np.testing.assert_allclose(lt_rhs(tens), lhs_rhs(ens), atol=1e-12, rtol=0)


def test_lt_identical_tensors_no_free_flow():
    t = np.zeros((2, 3), dtype=complex)
    t[:, 0] = 1.0
    freqs = np.zeros((2, 3, 3), dtype=complex)
    tens = TensorEnsemble(t, freqs, {(0,): 1.0, (1,): 0.5})
    np.testing.assert_allclose(lt_rhs(tens), np.zeros((2, 3)), atol=1e-15)


def test_lt_single_tensor_free_flow_only():
    rng = np.random.default_rng(8)
    states = random_sphere_states(rng, 1, 3)
    freqs = random_skew_hermitian(rng, 3, 1.0)[None]
    tens = TensorEnsemble(states, freqs, {(0,): 2.0, (1,): 1.0})
    np.testing.assert_allclose(lt_rhs(tens), states @ freqs[0].T, atol=1e-14)


def test_lt_rank2_norm_conservation():
    rng = np.random.default_rng(9)
    n, d1, d2 = 4, 3, 2
    t = rng.standard_normal((n, d1, d2)) + 1j * rng.standard_normal((n, d1, d2))
    t /= np.linalg.norm(t.reshape(n, -1), axis=1)[:, None, None]
    size = d1 * d2
    a = rng.standard_normal((n, size, size)) + 1j * rng.standard_normal((n, size, size))
    a = 0.5 * (a - np.conj(np.swapaxes(a, 1, 2)))
    freqs = a.reshape(n, d1, d2, d1, d2)
    couplings = {(0, 0): 1.0, (0, 1): 0.5, (1, 0): 0.25, (1, 1): 0.75}
    tens = TensorEnsemble(t, freqs, couplings)
    rhs = lt_rhs(tens)
    radial = np.einsum("jab,jab->j", np.conj(rhs), t).real
    assert np.max(np.abs(radial)) < 1e-12


def test_lt_warns_on_negative_coupling():
    rng = np.random.default_rng(10)
    states = random_sphere_states(rng, 3, 2)
    freqs = np.zeros((3, 2, 2), dtype=complex)
    with pytest.warns(UserWarning, match="negative coupling"):
        TensorEnsemble(states, freqs, {(0,): 1.0, (1,): -0.2})


def test_lt_rejects_incomplete_couplings():
    rng = np.random.default_rng(11)
    states = random_sphere_states(rng, 3, 2)
    freqs = np.zeros((3, 2, 2), dtype=complex)
    with pytest.raises(ValueError, match="index pattern"):
        TensorEnsemble(states, freqs, {(0,): 1.0})


def test_lt_rejects_non_unit_tensors():
    states = 2.0 * np.ones((2, 2), dtype=complex)
    freqs = np.zeros((2, 2, 2, 2, 2), dtype=complex)
    with pytest.raises(ValueError):
        TensorEnsemble(states, freqs, {(0,): 1.0, (1,): 1.0})


def test_ensemble_validation():
    with pytest.raises(ValueError, match="unit norm"):
        Ensemble.zero_frequency(np.ones((3, 2), dtype=complex), PARAMS)
    states = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="skew-Hermitian"):
        Ensemble.with_common_frequency(states, np.eye(2, dtype=complex), PARAMS)
    with pytest.raises(ValueError, match="finite"):
        CouplingParams(np.nan, 0.0)


def test_homogeneous_flag():
    rng = np.random.default_rng(14)
    states = random_sphere_states(rng, 3, 2)
    common = Ensemble.with_common_frequency(states, random_skew_hermitian(rng, 2, 1.0), PARAMS)
    assert common.homogeneous
    freqs = np.stack([random_skew_hermitian(rng, 2, 1.0) for _ in range(3)])
    mixed = Ensemble(states, freqs, PARAMS)
    assert not mixed.homogeneous
    with pytest.raises(ValueError, match="heterogeneous"):
        _ = mixed.common_frequency


def test_common_frequency_is_stored_once():
    rng = np.random.default_rng(15)
    states = random_sphere_states(rng, 5, 3)
    omega = random_skew_hermitian(rng, 3, 1.0)
    for ens, matrix in (
        (Ensemble.with_common_frequency(states, omega, PARAMS), omega),
        (Ensemble.zero_frequency(states, PARAMS), np.zeros((3, 3))),
    ):
        assert ens.frequencies.shape == (5, 3, 3)
        assert ens.frequencies.strides[0] == 0
        assert not ens.frequencies.flags.writeable
        assert np.array_equal(ens.frequencies, np.broadcast_to(matrix, (5, 3, 3)))
        with pytest.raises(ValueError, match="read-only"):
            ens.frequencies[0, 0, 0] = 1.0
    # one matrix per batch member: stored once per member, read-only
    per_member = np.stack([omega, -omega])[:, None]
    batch = Ensemble(np.stack([states, states]), per_member, PARAMS)
    assert batch.frequencies.shape == (2, 5, 3, 3)
    assert batch.frequencies.strides[1] == 0
    assert not batch.frequencies.flags.writeable
    assert np.array_equal(batch.frequencies, np.broadcast_to(per_member, (2, 5, 3, 3)))
    assert not batch.homogeneous
    with pytest.raises(ValueError, match="read-only"):
        batch.frequencies[1, 0, 0, 0] = 1.0


def test_frequencies_must_broadcast_to_the_states():
    rng = np.random.default_rng(16)
    states = random_sphere_states(rng, 3, 2)
    batch = np.stack([states, states])
    for bad in (np.zeros(2), np.zeros((1, 1)), np.zeros((2, 2, 2)), np.zeros((4, 3, 2, 2))):
        with pytest.raises(ValueError, match=r"broadcast to \(\.\.\., N, d, d\)"):
            Ensemble(states, bad, PARAMS)
    with pytest.raises(ValueError, match="broadcast"):
        Ensemble(batch, np.zeros((3, 3, 2, 2)), PARAMS)
    for good in (np.zeros((2, 2)), np.zeros((3, 2, 2)), np.zeros((2, 1, 2, 2))):
        assert Ensemble(batch, good, PARAMS).frequencies.shape == (2, 3, 2, 2)
