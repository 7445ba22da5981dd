"""Inner products, the real embedding, projections, q_map, matrix_exp_family."""

import numpy as np
import pytest

from lohesphere.geometry import (
    as_skew_hermitian,
    as_unit_state,
    embed,
    hermitian_inner,
    matrix_exp_family,
    project_phase,
    project_tangent,
    q_map,
    random_unit_state,
    real_dot,
    row_norms,
    row_sum,
    unembed,
)

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)


def test_hermitian_inner_unit_self():
    assert hermitian_inner(E1, E1) == 1.0


def test_hermitian_inner_conjugates_first_argument():
    # componentwise: conj(i) * 1 = -i
    assert hermitian_inner(1j * E1, E1) == pytest.approx(-1j)


def test_hermitian_inner_orthogonal_pair():
    w = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    z = np.array([1.0, -1.0j]) / np.sqrt(2.0)
    expected = np.sum(np.conj(w) * z)  # direct componentwise evaluation
    assert expected == pytest.approx(0.0)
    assert hermitian_inner(w, z) == pytest.approx(expected, abs=1e-15)


def test_hermitian_inner_conjugate_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(50):
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert hermitian_inner(w, z) == pytest.approx(np.conj(hermitian_inner(z, w)))


def test_hermitian_inner_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        hermitian_inner(np.ones(2, complex), np.ones(3, complex))


def test_real_dot_phase_direction_vanishes():
    rng = np.random.default_rng(1)
    for _ in range(50):
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert real_dot(z, 1j * z) == pytest.approx(0.0, abs=1e-13)


def test_real_dot_examples():
    assert real_dot(E1, E1) == 1.0
    # oracle: embed to R^4 and take the Euclidean dot product
    w = (1.0 + 1.0j) * E1
    assert embed(w) @ embed(E1) == pytest.approx(1.0)
    assert real_dot(w, E1) == pytest.approx(1.0)


def test_real_dot_matches_embedding_on_random_vectors():
    rng = np.random.default_rng(2)
    for _ in range(100):
        w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert real_dot(w, z) == pytest.approx(embed(w) @ embed(z), abs=1e-12)


def test_embed_interleaves():
    np.testing.assert_allclose(embed(np.array([1 + 2j, 3 + 0j])), [1.0, 2.0, 3.0, 0.0])


def test_unembed_singleton():
    np.testing.assert_allclose(unembed(np.array([0.0, 1.0])), [1j])


def test_embed_roundtrip_exact():
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert np.array_equal(unembed(embed(z)), z)


def test_embed_preserves_norm():
    rng = np.random.default_rng(4)
    for _ in range(100):
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert np.linalg.norm(embed(z)) == pytest.approx(np.linalg.norm(z), rel=1e-14)


def test_unembed_rejects_odd_length():
    with pytest.raises(ValueError, match="even length"):
        unembed(np.array([1.0, 2.0, 3.0]))


def test_as_unit_state_validates():
    as_unit_state(E1)
    with pytest.raises(ValueError, match="unit norm"):
        as_unit_state(1.5 * E1)


def test_project_tangent_examples():
    np.testing.assert_allclose(project_tangent(E1, E1), np.zeros(2), atol=1e-15)
    np.testing.assert_allclose(project_tangent(E1, E2), E2)
    # real_dot(e1, i e1) = 0, so the phase direction is already tangent
    np.testing.assert_allclose(project_tangent(E1, 1j * E1), 1j * E1)


def test_project_tangent_rejects_non_unit():
    with pytest.raises(ValueError, match="unit norm"):
        project_tangent(2.0 * E1, E2)


def test_project_tangent_output_is_tangent_and_idempotent():
    rng = np.random.default_rng(5)
    for _ in range(100):
        z = random_unit_state(rng, 4)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        p = project_tangent(z, v)
        assert real_dot(z, p) == pytest.approx(0.0, abs=1e-13)
        np.testing.assert_allclose(project_tangent(z, p), p, atol=1e-13)


def test_project_phase_examples():
    np.testing.assert_allclose(project_phase(E1, 1j * E1), 1j * E1)
    np.testing.assert_allclose(project_phase(E1, E1), np.zeros(2), atol=1e-15)
    np.testing.assert_allclose(project_phase(E1, E2), np.zeros(2), atol=1e-15)


def test_project_phase_idempotent():
    rng = np.random.default_rng(6)
    for _ in range(100):
        z = random_unit_state(rng, 3)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        p = project_phase(z, v)
        np.testing.assert_allclose(project_phase(z, p), p, atol=1e-13)


def test_q_map_self_coupling_vanishes():
    rng = np.random.default_rng(7)
    for _ in range(20):
        z = random_unit_state(rng, 4)
        k0, k1 = rng.standard_normal(2)
        np.testing.assert_allclose(q_map(z, z, k0, k1), np.zeros(4), atol=1e-14)


def test_q_map_orthogonal_target():
    np.testing.assert_allclose(q_map(E1, E2, 0.7, -0.3), 0.7 * E2, atol=1e-15)


def test_q_map_phase_direction():
    rng = np.random.default_rng(8)
    z = random_unit_state(rng, 3)
    k0, k1 = 0.9, 0.4
    np.testing.assert_allclose(q_map(z, 1j * z, k0, k1), 2.0 * (k0 + k1) * 1j * z, atol=1e-13)


def test_q_map_projection_decomposition():
    # direct formula == kappa0 P_tangent + (kappa0 + 2 kappa1) P_phase,
    # including negative rotational gain
    rng = np.random.default_rng(9)
    for _ in range(200):
        z = random_unit_state(rng, 4)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        k0 = rng.standard_normal()
        k1 = rng.standard_normal() - 0.5
        direct = q_map(z, v, k0, k1)
        split = k0 * project_tangent(z, v) + (k0 + 2.0 * k1) * project_phase(z, v)
        np.testing.assert_allclose(direct, split, atol=1e-13)


def test_real_dot_identities():
    # (iz).w = -z.(iw);  (iz).(iw) = z.w;
    # (b w).z = Re(b) w.z + Im(b) (iw).z;  (b w).(c z) = (b conj(c) w).z
    rng = np.random.default_rng(10)
    for _ in range(1000):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        beta = complex(rng.standard_normal(), rng.standard_normal())
        gamma = complex(rng.standard_normal(), rng.standard_normal())
        assert real_dot(1j * z, w) == pytest.approx(-real_dot(z, 1j * w), abs=1e-13)
        assert real_dot(1j * z, 1j * w) == pytest.approx(real_dot(z, w), abs=1e-13)
        assert real_dot(beta * w, z) == pytest.approx(
            beta.real * real_dot(w, z) + beta.imag * real_dot(1j * w, z), abs=1e-12
        )
        assert real_dot(beta * w, gamma * z) == pytest.approx(
            real_dot(beta * np.conj(gamma) * w, z), abs=1e-12
        )


def test_hermitian_real_split():
    # <z, w> = z.w - i (z.(i w))
    rng = np.random.default_rng(11)
    for _ in range(1000):
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        lhs = hermitian_inner(z, w)
        rhs = real_dot(z, w) - 1j * real_dot(z, 1j * w)
        assert abs(lhs - rhs) < 1e-13 * max(1.0, abs(lhs))


def test_tangent_projection_commutes_with_embedding():
    # P_tangent = unembed o P_{embed(z) perp} o embed, with the real-space
    # projection computed independently
    rng = np.random.default_rng(12)
    for _ in range(100):
        z = random_unit_state(rng, 3)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x, u = embed(z), embed(v)
        real_proj = u - (u @ x) * x
        np.testing.assert_allclose(project_tangent(z, v), unembed(real_proj), atol=1e-13)


def test_matrix_exp_zero_is_identity():
    np.testing.assert_allclose(matrix_exp_family(np.zeros((3, 3)))(2.5), np.eye(3), atol=1e-14)


def test_matrix_exp_diagonal_closed_form():
    omega = np.diag([1j, -1j])
    for t in (0.0, 0.3, 2.0, -1.7):
        expected = np.diag([np.exp(1j * t), np.exp(-1j * t)])
        np.testing.assert_allclose(matrix_exp_family(omega)(t), expected, atol=1e-13)


def _random_skew(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (g - g.conj().T)


def test_matrix_exp_group_inverse():
    rng = np.random.default_rng(13)
    omega = _random_skew(rng, 4)
    u_fwd = matrix_exp_family(omega)(1.3)
    u_bwd = matrix_exp_family(omega)(-1.3)
    np.testing.assert_allclose(u_fwd @ u_bwd, np.eye(4), atol=1e-10)


def test_matrix_exp_unitary():
    rng = np.random.default_rng(14)
    for _ in range(20):
        omega = _random_skew(rng, 5)
        u = matrix_exp_family(omega)(rng.standard_normal() * 3.0)
        assert np.linalg.norm(u.conj().T @ u - np.eye(5)) < 1e-10


def test_matrix_exp_semigroup():
    rng = np.random.default_rng(15)
    fam = matrix_exp_family(_random_skew(rng, 4))
    for _ in range(20):
        s, t = rng.standard_normal(2) * 2.0
        np.testing.assert_allclose(fam(s) @ fam(t), fam(s + t), atol=1e-9)


def test_matrix_exp_rejects_non_skew():
    with pytest.raises(ValueError, match="skew-Hermitian"):
        matrix_exp_family(np.eye(3))(1.0)


def test_as_skew_hermitian_accepts_valid():
    rng = np.random.default_rng(16)
    omega = _random_skew(rng, 3)
    np.testing.assert_array_equal(as_skew_hermitian(omega), omega)


@pytest.mark.parametrize("d", [*range(1, 10), 17, 65, 130])
def test_row_sum_and_row_norms_are_numpy_bits(d):
    # the column order mirrors numpy's pairwise-sum kernel; if a numpy
    # release changes that order, this fails instead of results drifting
    rng = np.random.default_rng(d)
    # few rows go to numpy's own reduction, many to the column adds
    for n in (1, 255, 256, 257, 2999, *rng.integers(1, 3000, 5)):
        scale = 10.0 ** rng.uniform(-8.0, 8.0, (n, d))
        x = scale * (rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
        x[0] = complex(-0.0, -0.0)              # numpy sums it to +0.0
        for m in (x, x.real, (np.conj(x) * x).real, x.reshape(1, n, d)):
            _assert_same_bits(row_sum(m), m.sum(axis=-1))
        for m in (x, x.real):
            _assert_same_bits(row_norms(m), np.linalg.norm(m, axis=-1))


def _assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
