"""Diagnostics: F/G pair scan, moments, rates, defect, dJ/dt bound."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lohesphere import observables
from lohesphere.dynamics import CouplingParams, Ensemble, lhs_rhs
from lohesphere.experiments import fd_r_squared_rate
from lohesphere.integrators import IntegratorConfig, integrate
from lohesphere.observables import (
    ObservableSeries,
    aggregation_defect,
    dj_dt_norm_bound_check,
    functional_F,
    functional_G,
    j_vector,
    lp_distance,
    order_parameter,
    pair_extremes,
    r_squared_rate,
)
from lohesphere.sampling import (
    admissible_cap_states,
    jitter_states,
    random_sphere_states,
    sample_admissible,
)
from lohesphere.transport import EmpiricalMeasure

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)


def test_functionals_vanish_at_consensus():
    states = np.tile(E1, (4, 1))
    assert functional_F(states) == 0.0
    assert functional_G(states) == 0.0


def test_functionals_antipodal_pair():
    states = np.stack([E1, -E1])
    assert functional_F(states) == pytest.approx(2.0)
    assert functional_G(states) == pytest.approx(2.0)


def test_functionals_quarter_turn():
    states = np.stack([E1, 1j * E1])
    assert functional_F(states) == pytest.approx(np.sqrt(2.0))
    assert functional_G(states) == pytest.approx(np.sqrt(2.0))
    # and the pair inequality holds: sqrt(2) <= 2 * 2^(1/4)
    assert functional_G(states) <= 2.0 * np.sqrt(functional_F(states))


def test_pair_inequality_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        states = random_sphere_states(rng, int(rng.integers(2, 12)), 3)
        assert functional_G(states) <= 2.0 * np.sqrt(functional_F(states)) + 1e-12


def _unblocked_pair_extremes(states):
    """F and G from one full Gram, the formulas the blocked scan must reproduce."""
    gram = np.conj(states) @ states.T
    f = float(np.max(np.abs(1.0 - gram)))
    norm_sq = np.diag(gram).real
    dist_sq = norm_sq[:, None] + norm_sq[None, :] - 2.0 * gram.real
    return f, float(np.sqrt(max(float(np.max(dist_sq)), 0.0)))


def _exact_unit_row(d, phase):
    """A unit row whose Gram entries are exact: (1+i)/2 and (1-i)/2, or one phase."""
    row = np.zeros(d, dtype=complex)
    if d == 1:
        row[0] = phase
    else:
        row[0], row[1] = 0.5 * (1 + 1j) * phase, 0.5 * (1 - 1j) * phase
    return row


@st.composite
def ensembles(draw, near_consensus=False):
    """Random unit states, some rows replaced by one exact unit row; with
    near_consensus, optionally all of them jittered off one point instead,
    so that G is made of rounding noise and many rows nearly tie for it."""
    n = draw(st.integers(1, 300))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = random_sphere_states(rng, n, d)
    spread = draw(st.sampled_from([None, 1e-15, 1e-9, 1e-4])) if near_consensus else None
    if spread is not None:
        return jitter_states(rng, np.repeat(states[:1], n, axis=0), spread), False
    n_consensus = draw(st.integers(0, n))
    phase = draw(st.sampled_from([1, -1, 1j, -1j]))
    states[:n_consensus] = _exact_unit_row(d, phase)
    return states, n_consensus == n


def _edge_ensemble(n, d):
    return random_sphere_states(np.random.default_rng(n * d), n, d), False


@settings(max_examples=200, deadline=None)
@given(ensembles(near_consensus=True), st.none() | st.integers(1, 5))
# the library's own blocks (rows None) at the edges of their rule: a single
# (128, 4) x (4, 128) product would reach BLAS_THREADED_SIZE, and 312 atoms
# are the last scan cut below it while 313 keep their PAIR_BLOCK blocks
@example(_edge_ensemble(128, 4), None)
@example(_edge_ensemble(256, 4), None)
@example(_edge_ensemble(312, 4), None)
@example(_edge_ensemble(313, 4), None)
def test_pair_scan_in_small_blocks_equals_unblocked_formula(ensemble, rows):
    states, consensus = ensemble
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(observables, "PAIR_BLOCK", rows * states.shape[0])
        f, g = pair_extremes(states)
    assert (f, g) == _unblocked_pair_extremes(states)
    assert (f, g) == pair_extremes(states)
    if consensus:
        assert f == 0.0 and g == 0.0


@settings(max_examples=100, deadline=None)
@given(ensembles(), st.integers(0, 2**32 - 1))
def test_pair_scan_is_permutation_invariant_and_meets_pair_inequality(ensemble, seed):
    states, _ = ensemble
    f, g = pair_extremes(states)
    perm = np.random.default_rng(seed).permutation(states.shape[0])
    f_perm, g_perm = pair_extremes(states[perm])
    # the same pairs at other places in the Gram, which BLAS may round differently
    assert f_perm == pytest.approx(f, rel=0.0, abs=1e-14)
    assert g_perm**2 == pytest.approx(g**2, rel=0.0, abs=1e-14)
    assert g <= 2.0 * np.sqrt(f)


def test_pair_scan_is_exact_above_4096_atoms():
    # the worst pair sits at two indices a 4096-atom subsample skips
    n, d = 5000, 3
    rng = np.random.default_rng(11)
    states = admissible_cap_states(rng, n, d, 0.3)
    skipped = sorted(set(range(n)) - set(np.linspace(0, n - 1, 4096).astype(int)))
    i, j = skipped[100], skipped[-100]
    axis = np.zeros(d, dtype=complex)
    axis[0] = 1.0
    states[i], states[j] = axis, -axis

    def row(k):
        # row k of the Gram, as the first row of a two-row product
        return (np.conj(states[[k, k - 1]]) @ states.T)[0]

    def row_scan():
        norm_sq = np.array([row(k)[k].real for k in range(n)])
        f = g_sq = 0.0
        for k in range(n):
            gram_row = row(k)
            f = max(f, float(np.max(np.abs(1.0 - gram_row))))
            g_sq = max(g_sq, float(np.max(norm_sq[k] + norm_sq - 2.0 * gram_row.real)))
        return f, float(np.sqrt(g_sq))

    assert pair_extremes(states) == row_scan() == (2.0, 2.0)
    assert functional_F(states) == 2.0 and functional_G(states) == 2.0
    subsample = np.delete(states, skipped, axis=0)
    assert max(pair_extremes(subsample)) < 2.0


def test_correlations_identity_at_consensus():
    states = np.tile(E1, (3, 1))
    assert pair_extremes(states) == (0.0, 0.0)


def test_correlations_hermitian_symmetry_and_f():
    rng = np.random.default_rng(1)
    for _ in range(20):
        states = random_sphere_states(rng, 8, 4)
        h = np.conj(states) @ states.T
        np.testing.assert_allclose(h, h.conj().T, atol=1e-14)
        # F from the split h = R + i I with J = 1 - R: max sqrt(I^2 + J^2)
        f_split = float(np.sqrt(np.max(h.imag**2 + (1.0 - h.real) ** 2)))
        assert f_split == pytest.approx(functional_F(states), abs=1e-13)


def test_centroid_examples():
    def centroid(states):
        return j_vector(EmpiricalMeasure.uniform(states))

    states = np.tile(E1, (3, 1))
    np.testing.assert_allclose(centroid(states), E1)
    np.testing.assert_allclose(centroid(np.stack([E1, -E1])), np.zeros(2), atol=1e-16)
    np.testing.assert_allclose(centroid(np.stack([E1, E2])), [0.5, 0.5])


def test_j_vector_and_order_parameter():
    mu = EmpiricalMeasure.uniform(np.stack([E1, E2]))
    np.testing.assert_allclose(j_vector(mu), [0.5, 0.5])
    assert order_parameter(mu) == pytest.approx(1.0 / np.sqrt(2.0))
    assert order_parameter(EmpiricalMeasure.uniform(np.tile(E1, (5, 1)))) == pytest.approx(1.0)
    assert order_parameter(EmpiricalMeasure.uniform(np.stack([E1, -E1]))) == pytest.approx(0.0)


def test_j_vector_rejects_bad_weights():
    mu = EmpiricalMeasure.uniform(np.stack([E1, E2]))
    for weights in ([0.7, 0.6], [0.5, np.nan]):
        mu.weights = np.array(weights)
        with pytest.raises(ValueError, match="sum to 1"):
            j_vector(mu)


def test_r_squared_rate_trivial_cases():
    k0, k1 = 1.0, 0.3
    consensus = EmpiricalMeasure.uniform(np.tile(E1, (4, 1)))
    assert r_squared_rate(consensus, k0, k1) == pytest.approx(0.0, abs=1e-14)
    antipodal = EmpiricalMeasure.uniform(np.stack([E1, -E1]))
    assert r_squared_rate(antipodal, k0, k1) == pytest.approx(0.0, abs=1e-14)


def test_r_squared_rate_nonnegative_in_aligned_regime():
    rng = np.random.default_rng(2)
    for _ in range(100):
        states = random_sphere_states(rng, 10, 3)
        k0 = float(np.abs(rng.standard_normal()) + 0.1)
        k1 = float(rng.uniform(-0.5, 1.0)) * k0 / 2.0
        if k0 + 2 * k1 < 0:
            continue
        assert r_squared_rate(EmpiricalMeasure.uniform(states), k0, k1) >= -1e-12


def test_r_squared_rate_matches_finite_difference():
    rng = np.random.default_rng(3)
    for _ in range(5):
        states = admissible_cap_states(rng, 12, 4, 0.5)
        k0, k1 = 1.0, 0.2
        ens = Ensemble.zero_frequency(states, CouplingParams(k0, k1))
        analytic = r_squared_rate(EmpiricalMeasure.uniform(states), k0, k1)
        fd = fd_r_squared_rate(ens)
        assert abs(analytic - fd) <= 1e-5 * max(abs(analytic), 1e-12)


def test_centroid_rate_equals_measure_rate():
    # d||z_c||^2/dt = 2 Re <z_c, dz_c/dt>, and dz_c/dt is the mean particle velocity
    rng = np.random.default_rng(4)
    for _ in range(100):
        states = random_sphere_states(rng, int(rng.integers(2, 16)), 3)
        k0, k1 = rng.standard_normal(2)
        measure_rate = r_squared_rate(EmpiricalMeasure.uniform(states), k0, k1)
        ens = Ensemble.zero_frequency(states, CouplingParams(k0, k1))
        zc = states.mean(axis=0)
        particle_rate = 2.0 * np.vdot(zc, lhs_rhs(ens).mean(axis=0)).real
        assert abs(measure_rate - particle_rate) <= 1e-12


def test_centroid_rate_matches_finite_difference():
    rng = np.random.default_rng(5)
    states = admissible_cap_states(rng, 10, 3, 0.5)
    k0, k1 = 1.0, -0.1
    ens = Ensemble.zero_frequency(states, CouplingParams(k0, k1))
    fd = fd_r_squared_rate(ens)
    assert abs(r_squared_rate(EmpiricalMeasure.uniform(states), k0, k1) - fd) <= 1e-5 * abs(fd)


def test_aggregation_defect_examples():
    assert aggregation_defect(EmpiricalMeasure.uniform(np.tile(E1, (3, 1)))) == pytest.approx(
        0.0, abs=1e-14
    )
    bipolar = EmpiricalMeasure.uniform(np.stack([E1, -E1]))
    assert aggregation_defect(bipolar) == pytest.approx(0.0, abs=1e-14)
    # uniform over {e1, e2}: ||J||^2 = 1/2, z_j . J = 1/2, defect = 1/4
    mu = EmpiricalMeasure.uniform(np.stack([E1, E2]))
    assert aggregation_defect(mu) == pytest.approx(0.25)


def test_aggregation_defect_nonnegative():
    rng = np.random.default_rng(6)
    for _ in range(200):
        states = random_sphere_states(rng, int(rng.integers(1, 9)), 4)
        assert aggregation_defect(EmpiricalMeasure.uniform(states)) >= -1e-12


def test_dj_dt_bound_identical_states():
    value, bound = dj_dt_norm_bound_check(EmpiricalMeasure.uniform(np.tile(E1, (4, 1))), 1.0, 0.3)
    assert value == pytest.approx(0.0, abs=1e-14)
    assert bound == pytest.approx(2.6)


def test_dj_dt_bound_antipodal_pair():
    value, bound = dj_dt_norm_bound_check(EmpiricalMeasure.uniform(np.stack([E1, -E1])), 1.0, 0.0)
    assert value == pytest.approx(0.0, abs=1e-14)
    assert bound == pytest.approx(2.0)


def test_dj_dt_bound_random_ensembles():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        states = random_sphere_states(rng, int(rng.integers(2, 10)), 3)
        k0 = float(np.abs(rng.standard_normal()) + 0.05)
        k1 = float(rng.uniform(-0.5, 1.5)) * k0 / 2.0
        if k0 + 2 * k1 < 0:
            continue
        value, bound = dj_dt_norm_bound_check(EmpiricalMeasure.uniform(states), k0, k1)
        assert value <= bound + 1e-10


def test_dj_dt_bound_rejects_bad_gains():
    mu = EmpiricalMeasure.uniform(np.stack([E1, E2]))
    with pytest.raises(ValueError, match="kappa0"):
        dj_dt_norm_bound_check(mu, -1.0, 0.0)
    with pytest.raises(ValueError, match="kappa0"):
        dj_dt_norm_bound_check(mu, 1.0, -0.8)


def test_lp_distance_examples():
    states = np.stack([E1, E2])
    assert lp_distance(states, states, 2.0) == 0.0
    for p in (1.0, 2.0, 4.0):
        assert lp_distance(E1[None, :], E2[None, :], p) == pytest.approx(np.sqrt(2.0))


def test_lp_distance_p2_is_frobenius():
    rng = np.random.default_rng(8)
    a = random_sphere_states(rng, 7, 3)
    b = random_sphere_states(rng, 7, 3)
    frob = np.linalg.norm((a - b).ravel())
    assert lp_distance(a, b, 2.0) == pytest.approx(frob, rel=1e-14)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(1, 64),
    st.sampled_from([1.0, 1.5, 2.0, 3.3, 4.0]),
    st.sampled_from([1e-8, 1e-3, 1.0]),
    st.integers(0, 2**32 - 1),
)
def test_lp_distance_on_stacks_equals_each_snapshot(d, t, n, p, scale, seed):
    rng = np.random.default_rng(seed)
    a = random_sphere_states(rng, t * n, d)
    b = jitter_states(rng, a, scale).reshape(t, n, d)
    a = a.reshape(t, n, d)
    track = lp_distance(a, b, p)
    assert track.shape == (t,)
    assert track.tolist() == [lp_distance(x, y, p) for x, y in zip(a, b)]
    assert track.tolist() == [
        float(np.sum(np.linalg.norm(x - y, axis=1) ** p) ** (1.0 / p)) for x, y in zip(a, b)
    ]


def test_lp_distance_validation():
    with pytest.raises(ValueError, match="mismatch"):
        lp_distance(np.ones((2, 2), complex), np.ones((3, 2), complex), 2.0)
    with pytest.raises(ValueError, match="p must be"):
        lp_distance(np.ones((2, 2), complex), np.ones((2, 2), complex), 0.5)


def test_pair_inequality_along_trajectory():
    ens = sample_admissible(12, 3, 1.0, 0.1, 0.2, seed=9)
    _, series = integrate(
        ens,
        IntegratorConfig(t_end=1.0, dt=1e-3, record_every=50),
        {"F": lambda t, s: functional_F(s), "G": lambda t, s: functional_G(s)},
    )
    gap = series.column("G") - 2.0 * np.sqrt(series.column("F"))
    assert np.max(gap) <= 1e-12


def test_observable_series_roundtrip(tmp_path):
    series = ObservableSeries(
        times=np.array([0.0, 0.5, 1.0]),
        series={"F": np.array([0.3, 0.2, 0.1]), "R": np.array([0.9, 0.95, 1.0])},
    )
    csv_path = tmp_path / "series.csv"
    series.to_csv(csv_path)
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "time,F,R"
    assert len(lines) == 4


def test_observable_series_full_precision(tmp_path):
    value = 0.1234567890123456789
    series = ObservableSeries(times=np.array([0.0]), series={"x": np.array([value])})
    path = tmp_path / "precision.csv"
    series.to_csv(path)
    written = float(path.read_text().strip().split("\n")[1].split(",")[1])
    assert written == value


def test_observable_series_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        ObservableSeries(times=np.array([0.0, 1.0]), series={"x": np.array([1.0])})
