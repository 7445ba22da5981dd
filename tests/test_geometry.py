"""The two invariant checks, the coupling map Q_z, matrix_exp_family, row sums."""

import numpy as np
import pytest

from lohesphere.dynamics import CouplingParams, Ensemble, TensorEnsemble, lhs_rhs
from lohesphere.geometry import (
    as_skew_hermitian,
    check_unit_rows,
    matrix_exp_family,
    random_unit_state,
    row_norms,
    row_sum,
)
from lohesphere.transport import EmpiricalMeasure

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)


def test_check_unit_rows_validates():
    check_unit_rows(np.stack([E1, E2]), "states")
    with pytest.raises(ValueError, match="states must be unit norm"):
        check_unit_rows(np.stack([E1, 1.5 * E2]), "states")


PARAMS = CouplingParams(1.0, 0.0)
STATES = np.stack([E1, E2])
SKEW = np.array([[1j, 1.0], [-1.0, 0.0]])
SKEW_STACK = np.stack([SKEW, -SKEW, 2.0 * SKEW])
COUPLINGS = {(0,): 1.0, (1,): 0.5}


def _with(x, value, index):
    x = np.array(x, dtype=complex)
    x[index] = value
    return x


UNIT_CASES = {
    "ensemble-states": lambda x: Ensemble.zero_frequency(_with(STATES, x, (1, 0)), PARAMS),
    "tensor-tensors": lambda x: TensorEnsemble(
        _with(STATES, x, (0, 1)), np.zeros((2, 2, 2)), COUPLINGS
    ),
    "measure-atoms": lambda x: EmpiricalMeasure.uniform(_with(STATES, x, (1, 1))),
}

SKEW_CASES = {
    "ensemble-common": lambda x: Ensemble.with_common_frequency(
        STATES, _with(SKEW, x, (0, 1)), PARAMS
    ),
    "ensemble-stack": lambda x: Ensemble(
        np.stack([E1, E2, E1]), _with(SKEW_STACK, x, (1, 1, 1)), PARAMS
    ),
    "tensor-frequencies": lambda x: TensorEnsemble(
        STATES, _with(SKEW_STACK[:2], x, (1, 0, 0)), COUPLINGS
    ),
    "matrix-exp": lambda x: matrix_exp_family(_with(SKEW, x, (1, 0))),
    "as-skew-hermitian": lambda x: as_skew_hermitian(_with(SKEW_STACK, x, (1, 1, 0))),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "case, message",
    [*((c, "unit norm") for c in UNIT_CASES), *((c, "skew-Hermitian") for c in SKEW_CASES)],
)
def test_invariant_checks_reject_non_finite_input(case, message, value):
    # a comparison with NaN is False, so a check written "drift > tol" lets NaN pass
    build = {**UNIT_CASES, **SKEW_CASES}[case]
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=message):
        build(value)


def test_one_bad_matrix_in_a_stack_is_rejected():
    stack = _with(SKEW_STACK, 1.0, (1, 0, 1))  # the middle matrix loses skewness
    with pytest.raises(ValueError, match="skew-Hermitian"):
        as_skew_hermitian(stack)
    with pytest.raises(ValueError, match="skew-Hermitian"):
        Ensemble(np.stack([E1, E2, E1]), stack, PARAMS)
    np.testing.assert_array_equal(as_skew_hermitian(SKEW_STACK), SKEW_STACK)
    assert not Ensemble(np.stack([E1, E2, E1]), SKEW_STACK, PARAMS).homogeneous


def _q(z, v, kappa0, kappa1):
    """Q_z(v) as row 0 of the zero-frequency right-hand side.  The ensemble
    (z, h + t u, h - t u) with h = (3c - z)/2, u = i h/||h|| and
    t = sqrt(1 - ||h||^2) has unit rows and centroid c = 0.2 v/||v||, so row 0
    is Q_z(c); Q_z is real-linear in its target."""
    r = np.linalg.norm(v)
    c = 0.2 * v / r
    h = (3.0 * c - z) / 2.0
    u = 1j * h / np.linalg.norm(h)
    t = np.sqrt(1.0 - np.linalg.norm(h) ** 2)
    states = np.stack([z, h + t * u, h - t * u])
    return lhs_rhs(Ensemble.zero_frequency(states, CouplingParams(kappa0, kappa1)))[0] * (r / 0.2)


def test_q_map_self_coupling_vanishes():
    rng = np.random.default_rng(7)
    for _ in range(20):
        z = random_unit_state(rng, 4)
        k0, k1 = rng.standard_normal(2)
        np.testing.assert_allclose(_q(z, z, k0, k1), np.zeros(4), atol=1e-14)


def test_q_map_orthogonal_target():
    np.testing.assert_allclose(_q(E1, E2, 0.7, -0.3), 0.7 * E2, atol=1e-15)


def test_q_map_phase_direction():
    rng = np.random.default_rng(8)
    z = random_unit_state(rng, 3)
    k0, k1 = 0.9, 0.4
    np.testing.assert_allclose(_q(z, 1j * z, k0, k1), 2.0 * (k0 + k1) * 1j * z, atol=1e-13)


def test_q_map_projection_decomposition():
    # Q_z == kappa0 P_tangent + (kappa0 + 2 kappa1) P_phase, including
    # negative rotational gain; both projections use the real dot Re <w, v>
    rng = np.random.default_rng(9)
    for _ in range(200):
        z = random_unit_state(rng, 4)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        k0 = rng.standard_normal()
        k1 = rng.standard_normal() - 0.5
        tangent = v - np.vdot(z, v).real * z
        phase = np.vdot(1j * z, v).real * (1j * z)
        split = k0 * tangent + (k0 + 2.0 * k1) * phase
        np.testing.assert_allclose(_q(z, v, k0, k1), split, atol=1e-13)


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
        # one element: numpy's product into one of its inputs rounds it differently
        for m in (x, x.real, x[-1:, :1]):
            want = np.linalg.norm(m, axis=-1)
            _assert_same_bits(row_norms(m), want)
            buffers = {"out": np.empty(m.shape[:-1]), "scratch": np.empty_like(m)}
            _assert_same_bits(row_norms(m, **buffers), want)


def _assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
