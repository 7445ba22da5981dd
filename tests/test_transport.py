"""Wasserstein distances: assignment solver, transport LP, brute-force oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

from lohesphere import transport
from lohesphere.observables import lp_distance
from lohesphere.sampling import (
    admissible_cap_states,
    admissible_threshold,
    random_skew_hermitian,
    random_sphere_states,
)
from lohesphere.transport import (
    EmpiricalMeasure,
    SupportSizeError,
    wasserstein_bruteforce,
    wasserstein_general,
    wasserstein_nested_track,
    wasserstein_uniform,
    wasserstein_uniform_nested,
)

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)


def _uniform(atoms):
    return EmpiricalMeasure.uniform(np.asarray(atoms, dtype=complex))


def test_dirac_pair_distance_is_chordal_norm():
    rng = np.random.default_rng(0)
    for p in (1.0, 2.0, 3.5):
        x = random_sphere_states(rng, 1, 4)
        y = random_sphere_states(rng, 1, 4)
        expected = float(np.linalg.norm(x[0] - y[0]))
        assert wasserstein_uniform(_uniform(x), _uniform(y), p) == pytest.approx(expected)


def test_distance_to_self_is_zero():
    rng = np.random.default_rng(1)
    mu = _uniform(random_sphere_states(rng, 5, 3))
    assert wasserstein_uniform(mu, mu, 2.0) == 0.0


def test_permuted_copy_has_zero_distance():
    rng = np.random.default_rng(2)
    atoms = random_sphere_states(rng, 6, 3)
    mu = _uniform(atoms)
    nu = _uniform(atoms[rng.permutation(6)])
    assert wasserstein_uniform(mu, nu, 2.0) == pytest.approx(0.0, abs=1e-12)
    assert wasserstein_bruteforce(mu, nu, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_two_atom_example():
    mu = _uniform([E1, E2])
    nu = _uniform([E1, -E2])
    # both matchings cost 2 in squared distance, so W2^2 = 2
    assert wasserstein_uniform(mu, nu, 2.0) == pytest.approx(np.sqrt(2.0))


def test_solver_matches_bruteforce():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        p = float(rng.choice([1.0, 2.0, 4.0]))
        mu = _uniform(random_sphere_states(rng, n, 3))
        nu = _uniform(random_sphere_states(rng, n, 3))
        assert wasserstein_uniform(mu, nu, p) == pytest.approx(
            wasserstein_bruteforce(mu, nu, p), abs=1e-12
        )


def test_bruteforce_rejects_large_supports():
    rng = np.random.default_rng(4)
    mu = _uniform(random_sphere_states(rng, 9, 2))
    with pytest.raises(ValueError, match="N <= 8"):
        wasserstein_bruteforce(mu, mu, 2.0)


def test_general_two_atom_closed_form():
    # W2^2(delta_x, m delta_y + (1-m) delta_-y) = m ||x-y||^2 + (1-m) ||x+y||^2
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = random_sphere_states(rng, 1, 3)[0]
        y = random_sphere_states(rng, 1, 3)[0]
        m = float(rng.uniform(0.05, 0.95))
        mu = EmpiricalMeasure(atoms=x[None, :], weights=np.array([1.0]))
        nu = EmpiricalMeasure(atoms=np.stack([y, -y]), weights=np.array([m, 1.0 - m]))
        dist, plan = wasserstein_general(mu, nu, 2.0)
        expected = m * np.linalg.norm(x - y) ** 2 + (1 - m) * np.linalg.norm(x + y) ** 2
        assert dist**2 == pytest.approx(expected, abs=1e-12)
        np.testing.assert_allclose(plan.coupling, [[m, 1.0 - m]], atol=1e-10)


def test_general_antipodal_half_mass():
    # m = 1/2, x = y on the unit sphere: W2^2 = 1/2 * 0 + 1/2 * 4 = 2
    x = E1
    mu = EmpiricalMeasure(atoms=x[None, :], weights=np.array([1.0]))
    nu = EmpiricalMeasure(atoms=np.stack([x, -x]), weights=np.array([0.5, 0.5]))
    dist, _ = wasserstein_general(mu, nu, 2.0)
    assert dist**2 == pytest.approx(2.0, abs=1e-12)


def test_general_agrees_with_assignment():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        p = float(rng.choice([1.0, 2.0]))
        mu = _uniform(random_sphere_states(rng, n, 3))
        nu = _uniform(random_sphere_states(rng, n, 3))
        dist, plan = wasserstein_general(mu, nu, p)
        assert dist == pytest.approx(wasserstein_uniform(mu, nu, p), abs=1e-10)
        # marginal feasibility and cost consistency
        np.testing.assert_allclose(plan.coupling.sum(axis=1), mu.weights, atol=1e-10)
        np.testing.assert_allclose(plan.coupling.sum(axis=0), nu.weights, atol=1e-10)


def test_weighted_lp_at_256_atoms_meets_its_marginals():
    # the measures benchmark's setup at seed 804: with HiGHS's default
    # feasibility tolerance this plan missed its marginals by 5.6e-8
    rng = np.random.default_rng(804)
    states = admissible_cap_states(rng, 1024, 4, admissible_threshold(1.0, 0.1, 0.3))
    random_skew_hermitian(rng, 4, 0.5)  # the recipe's frequency draw precedes the weights
    weights = [(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))) for n in (64, 256)]
    mu = EmpiricalMeasure(states[:256], weights[1][0])
    nu = EmpiricalMeasure(states[256:512], weights[1][1])
    dist, plan = wasserstein_general(mu, nu, 2.0)
    tol = transport.TransportPlan.MARGINAL_TOL
    assert np.max(np.abs(plan.coupling.sum(axis=1) - mu.weights)) <= tol
    assert np.max(np.abs(plan.coupling.sum(axis=0) - nu.weights)) <= tol
    assert 0.0 < dist <= 2.0


def _dense_lp_distance(mu, nu, p):
    """Reference W_p: the transport LP on all n m arcs, solved by HiGHS as given."""
    n, m = mu.n_atoms, nu.n_atoms
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m : (i + 1) * m] = 1.0
        a_eq[n : n + m, i * m : (i + 1) * m] = np.eye(m)
    cost = transport._cost_matrix(mu, nu)
    res = linprog(
        (cost**p).ravel(),
        A_eq=a_eq,
        b_eq=np.concatenate([mu.weights, nu.weights]),
        bounds=(0, None),
        method="highs",
        # both tolerances at the sparse solve's: at HiGHS's default dual
        # tolerance of 1e-7 an arc of cost^p below it can be left unused
        options={
            "primal_feasibility_tolerance": transport.TransportPlan.MARGINAL_TOL,
            "dual_feasibility_tolerance": transport.TransportPlan.MARGINAL_TOL,
        },
    )
    assert res.success, res.message
    return float(np.sum(np.clip(res.x, 0.0, None) * (cost**p).ravel()) ** (1.0 / p))


def _test_weights(rng, n, kind):
    if kind == "uniform":
        return np.full(n, 1.0 / n)
    w = rng.dirichlet(np.ones(n))
    if kind != "dirichlet" and n > 1:
        # exact zeros, or the round-off negatives EmpiricalMeasure accepts
        picked = rng.choice(n, size=rng.integers(1, n), replace=False)
        w[picked] = 0.0 if kind == "zeros" else -rng.uniform(0.0, 1e-12, size=len(picked))
        w[np.setdiff1d(np.arange(n), picked)[0]] += 1.0 - np.sum(w)
    return w


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 48),
    st.integers(1, 48),
    st.sampled_from(["uniform", "dirichlet", "zeros", "negative"]),
    st.sampled_from(["uniform", "dirichlet", "zeros", "negative"]),
    st.sampled_from([1.0, 2.0, 3.0]),
    st.integers(1, 3),
    st.booleans(),
    st.sampled_from([1, 3, transport.ARCS_PER_LINE]),
    st.integers(0, 2**32 - 1),
)
def test_sparse_lp_equals_dense_lp(n, m, kind_a, kind_b, p, d, duplicated, arcs, seed):
    rng = np.random.default_rng(seed)
    if duplicated:
        # atoms from a small pool: ties, and atoms shared by both measures
        pool = random_sphere_states(rng, 3, d)
        atoms_a = pool[rng.integers(0, 3, size=n)]
        atoms_b = pool[rng.integers(0, 3, size=m)]
    else:
        atoms_a, atoms_b = random_sphere_states(rng, n, d), random_sphere_states(rng, m, d)
    mu = EmpiricalMeasure(atoms_a, _test_weights(rng, n, kind_a))
    nu = EmpiricalMeasure(atoms_b, _test_weights(rng, m, kind_b))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "ARCS_PER_LINE", arcs)
        dist, plan = wasserstein_general(mu, nu, p)
    expected = _dense_lp_distance(mu, nu, p)
    # a negative weight leaves the program infeasible by its size, within
    # HiGHS's tolerance, and two solves may put that mass on different arcs
    slack = np.sum(np.clip(-mu.weights, 0.0, None)) + np.sum(np.clip(-nu.weights, 0.0, None))
    if slack == 0.0:
        assert dist == pytest.approx(expected, rel=0.0, abs=1e-12)
    else:
        bound = 1e-12 + 2.0 * slack * np.max(transport._cost_matrix(mu, nu) ** p)
        assert dist**p == pytest.approx(expected**p, rel=0.0, abs=bound)
    assert np.max(np.abs(plan.coupling.sum(axis=1) - mu.weights)) <= 1e-10
    assert np.max(np.abs(plan.coupling.sum(axis=0) - nu.weights)) <= 1e-10
    assert np.min(plan.coupling) >= 0.0


def test_sparse_lp_prices_arcs_the_first_set_misses(monkeypatch):
    # Two heavy sources A and B far from a cluster of 64 targets must split
    # them between them, while 62 massless sources sit inside the cluster.
    # Every column's 32 cheapest arcs come from the massless sources, each
    # heavy row's 32 cheapest follow the first tilt of the cluster, and the
    # optimal split follows the second, so the first arc set misses part of
    # the optimal plan and pricing has to add it.
    rng = np.random.default_rng(21)
    n = 64
    e1, e2, e3 = np.eye(3, dtype=complex)
    heavy = np.stack([e1 + e2, e1 - e2]) / np.sqrt(2.0)
    tilt = rng.uniform(-3.0, 3.0, size=(n, 1)) * e1 + rng.uniform(-1.0, 1.0, size=(n, 1)) * e2
    targets = e3 + 0.05 * tilt
    massless = e3 + 0.05 * rng.uniform(-1.0, 1.0, size=(n - 2, 3))
    sources = np.concatenate([massless[: n // 2], heavy, massless[n // 2 :]])
    sources /= np.linalg.norm(sources, axis=1, keepdims=True)
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    weights = np.zeros(n)
    weights[n // 2 : n // 2 + 2] = 0.5
    mu, nu = EmpiricalMeasure(sources, weights), _uniform(targets)
    solves = []

    def counted(*args, **kwargs):
        solves.append(len(args[0]))
        return linprog(*args, **kwargs)

    monkeypatch.setattr(transport, "linprog", counted)
    for p in (1.0, 2.0, 3.0):
        solves.clear()
        dist, plan = wasserstein_general(mu, nu, p)
        assert len(solves) >= 2, p
        assert solves[0] < n * n
        assert dist == pytest.approx(_dense_lp_distance(mu, nu, p), rel=0.0, abs=1e-12)
        assert np.max(np.abs(plan.coupling.sum(axis=0) - nu.weights)) <= 1e-10


def test_nested_solver_is_exact():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        mu = _uniform(random_sphere_states(rng, n, 3))
        nu = _uniform(random_sphere_states(rng, 2 * n, 3))
        fast = wasserstein_uniform_nested(mu, nu, 2.0)
        exact, _ = wasserstein_general(mu, nu, 2.0)
        assert fast == pytest.approx(exact, abs=1e-10)
        # size ratio 1: the equal-size assignment, bit for bit
        same_size = _uniform(nu.atoms[:n])
        for p in (1.0, 2.0, 4.0):
            assert wasserstein_uniform(mu, same_size, p) == wasserstein_uniform_nested(
                mu, same_size, p
            )


def test_nested_solver_rejects_non_divisible():
    rng = np.random.default_rng(8)
    mu = _uniform(random_sphere_states(rng, 3, 2))
    nu = _uniform(random_sphere_states(rng, 7, 2))
    with pytest.raises(ValueError, match="divide"):
        wasserstein_uniform_nested(mu, nu, 2.0)
    for small, big in ((mu, nu), (nu, mu)):  # the track takes the small run first
        with pytest.raises(ValueError, match="divide"):
            wasserstein_nested_track(small.atoms[None], big.atoms[None], 2.0)


def test_support_size_cap():
    atoms = np.zeros((513, 1), dtype=complex)
    atoms[:, 0] = 1.0
    mu = EmpiricalMeasure.uniform(atoms)
    with pytest.raises(SupportSizeError):
        wasserstein_general(mu, mu, 2.0)


def test_unequal_counts_route_to_general():
    rng = np.random.default_rng(9)
    mu = _uniform(random_sphere_states(rng, 3, 2))
    nu = _uniform(random_sphere_states(rng, 5, 2))
    dist = wasserstein_uniform(mu, nu, 2.0)
    expected, _ = wasserstein_general(mu, nu, 2.0)
    assert dist == pytest.approx(expected, abs=1e-12)


def test_metric_axioms():
    rng = np.random.default_rng(10)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        mu = _uniform(random_sphere_states(rng, n, 3))
        nu = _uniform(random_sphere_states(rng, n, 3))
        rho = _uniform(random_sphere_states(rng, n, 3))
        d_mn = wasserstein_uniform(mu, nu, 2.0)
        d_nm = wasserstein_uniform(nu, mu, 2.0)
        d_mr = wasserstein_uniform(mu, rho, 2.0)
        d_rn = wasserstein_uniform(rho, nu, 2.0)
        assert d_mn >= 0.0
        assert abs(d_mn - d_nm) <= 1e-12
        assert d_mn <= d_mr + d_rn + 1e-10


def test_monotone_in_p_ordering():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        mu = _uniform(random_sphere_states(rng, n, 3))
        nu = _uniform(random_sphere_states(rng, n, 3))
        w1 = wasserstein_uniform(mu, nu, 1.0)
        w2 = wasserstein_uniform(mu, nu, 2.0)
        w4 = wasserstein_uniform(mu, nu, 4.0)
        assert w1 <= w2 + 1e-12
        assert w2 <= w4 + 1e-12


def test_plan_serialization():
    rng = np.random.default_rng(14)
    mu = _uniform(random_sphere_states(rng, 3, 2))
    nu = _uniform(random_sphere_states(rng, 4, 2))
    dist, plan = wasserstein_general(mu, nu, 2.0)
    assert float(np.sum(plan.coupling)) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("p", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize(
    "distance",
    [
        lp_distance,
        lambda a, b, p: wasserstein_uniform(_uniform(a), _uniform(b), p),
        lambda a, b, p: wasserstein_uniform_nested(_uniform(a), _uniform(b), p),
        lambda a, b, p: wasserstein_nested_track(a[None], b[None], p),
        lambda a, b, p: wasserstein_general(_uniform(a), _uniform(b), p),
        lambda a, b, p: wasserstein_bruteforce(_uniform(a), _uniform(b), p),
    ],
    ids=["lp_distance", "uniform", "uniform_nested", "nested_track", "general", "bruteforce"],
)
def test_non_finite_order_p_is_rejected(distance, p):
    # at p = inf, (sum gaps**p)**(1/p) is 0**0 or inf**0 = 1.0 for any pair
    rng = np.random.default_rng(15)
    a = random_sphere_states(rng, 3, 2)
    b = random_sphere_states(rng, 3, 2)
    with pytest.raises(ValueError, match="p must be finite"):
        distance(a, b, p)


@pytest.mark.parametrize(
    "distance",
    [
        lambda a, b: wasserstein_uniform(_uniform(a), _uniform(b), 2.0),
        lambda a, b: wasserstein_uniform_nested(_uniform(a), _uniform(b), 2.0),
        lambda a, b: wasserstein_nested_track(a[None], b[None], 2.0),
        lambda a, b: wasserstein_general(_uniform(a), _uniform(b), 2.0),
        lambda a, b: wasserstein_bruteforce(_uniform(a), _uniform(b), 2.0),
    ],
    ids=["uniform", "uniform_nested", "nested_track", "general", "bruteforce"],
)
def test_measures_on_spheres_of_different_dimension_are_rejected(distance):
    rng = np.random.default_rng(19)
    on_c2 = random_sphere_states(rng, 3, 2)
    on_c3 = random_sphere_states(rng, 3, 3)
    for a, b in ((on_c2, on_c3), (on_c3, on_c2)):
        with pytest.raises(ValueError, match="different dimension"):
            distance(a, b)


def test_measure_validation():
    with pytest.raises(ValueError, match="unit norm"):
        EmpiricalMeasure.uniform(np.ones((2, 2), dtype=complex))
    atoms = np.stack([E1, E2])
    with pytest.raises(ValueError, match="sum to 1"):
        EmpiricalMeasure(atoms=atoms, weights=np.array([0.7, 0.6]))
    with pytest.raises(ValueError, match="nonnegative"):
        EmpiricalMeasure(atoms=atoms, weights=np.array([1.5, -0.5]))
    with pytest.raises(ValueError, match="finite"):
        EmpiricalMeasure(atoms=np.stack([E1, E2, E1]), weights=[0.5, np.nan, 0.5])


@pytest.mark.parametrize(
    "coupling, source, match",
    [
        ([[0.5, 0.0], [0.0, 0.5]], [0.5, 0.5], None),
        ([[0.5, np.nan], [0.0, 0.5]], [0.5, 0.5], "marginals"),
        ([[0.5, 0.0], [0.0, 0.5]], [0.5, np.nan], "marginals"),
        ([[0.6, 0.0], [0.0, 0.5]], [0.6, 0.5], "marginals"),
        ([[0.6, -0.1], [-0.1, 0.6]], [0.5, 0.5], "negative"),
    ],
    ids=["valid", "nan_entry", "nan_source_weight", "off_column_sum", "negative_entry"],
)
def test_transport_plan_checks_marginals_and_mass(coupling, source, match):
    def plan():
        return transport.TransportPlan(coupling, np.array(source), np.array([0.5, 0.5]))

    if match is None:
        plan()
    else:
        with pytest.raises(ValueError, match=match):
            plan()


def test_cost_matrix_is_the_full_reduction_bitwise():
    # the blocked cost must be the (n, m, d) numpy reduction bit for bit,
    # also at d >= 4 where row_sum works in lanes
    rng = np.random.default_rng(17)
    for d in range(1, 10):
        for n, m in [(1, 1), (5, 3), (40, 300)]:
            a = random_sphere_states(rng, n, d)
            b = random_sphere_states(rng, m, d)
            plain = np.sum(np.abs(a[:, None] - b[None]) ** 2, axis=2)
            cost = transport._cost_matrix(_uniform(a), _uniform(b))
            assert np.array_equal(cost, np.sqrt(plain)), (d, n, m)


def _repeated_atoms_distance(small, big, p):
    """Reference nested W_p: repeat the small measure's atoms, then one assignment."""
    ratio = len(big) // len(small)
    atoms = np.repeat(small, ratio, axis=0)
    cost_sq = np.sum(np.abs(atoms[:, None, :] - big[None, :, :]) ** 2, axis=2)
    cost = np.sqrt(cost_sq)
    rows, cols = linear_sum_assignment(cost**p)
    return float(np.mean(cost[rows, cols] ** p) ** (1.0 / p))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6),
    st.sampled_from([1, 2, 4]),
    st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0]),
    st.integers(1, 4),
    st.integers(1, 3),
    st.sampled_from([1, 7, transport.COST_BLOCK]),
    st.integers(0, 2**32 - 1),
)
def test_nested_paths_equal_repeated_atoms(n, ratio, p, d, n_snaps, block, seed):
    rng = np.random.default_rng(seed)
    # atoms drawn from a small pool, so duplicates (ties) are common
    pool = random_sphere_states(rng, 3, d)
    small = pool[rng.integers(0, 3, size=(n_snaps, n))]
    big = pool[rng.integers(0, 3, size=(n_snaps, n * ratio))]
    expected = [_repeated_atoms_distance(s, b, p) for s, b in zip(small, big)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "COST_BLOCK", block)
        track = wasserstein_nested_track(small, big, p)
        single = [
            wasserstein_uniform_nested(_uniform(s), _uniform(b), p) for s, b in zip(small, big)
        ]
    assert track.tolist() == expected
    assert single == expected


def _out_of_place_lp(mu, nu, p):
    """Reference wasserstein_general: its column generation with a new array per step.

    The cost is the full (n, m, d) reduction, cost^p a second array, every
    round's reduced costs a new one, and the distance sums coupling * cost**p.
    """
    n, m = mu.n_atoms, nu.n_atoms
    cost_sq = np.sum(np.abs(mu.atoms[:, None] - nu.atoms[None]) ** 2, axis=2)
    cost = np.sqrt(cost_sq)
    cost_p = cost**p
    tol = transport.TransportPlan.MARGINAL_TOL
    arcs = transport._staircase(mu.weights, nu.weights) | transport._lowest_per_line(cost_p)
    while True:
        rows, cols = np.nonzero(arcs)
        size = len(rows)
        a_eq = sparse.csc_matrix(
            (
                np.ones(2 * size),
                np.column_stack([rows, n + cols]).ravel(),
                np.arange(0, 2 * size + 1, 2),
            ),
            shape=(n + m, size),
        )
        res = linprog(
            cost_p[rows, cols],
            A_eq=a_eq,
            b_eq=np.concatenate([mu.weights, nu.weights]),
            bounds=(0, None),
            method="highs",
            options={
                "presolve": False,
                "primal_feasibility_tolerance": tol,
                "dual_feasibility_tolerance": tol,
            },
        )
        assert res.success, res.message
        duals = res.eqlin.marginals
        reduced = cost_p - duals[:n, None] - duals[None, n:]
        violated = (reduced < -tol) & ~arcs
        if not violated.any():
            break
        arcs |= transport._lowest_per_line(np.where(violated, reduced, np.inf)) & violated
    coupling = np.zeros((n, m))
    coupling[rows, cols] = np.clip(res.x, 0.0, None)
    return float(np.sum(coupling * cost**p) ** (1.0 / p)), coupling


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 6),
    st.sampled_from([1, 2, 4]),
    st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    st.integers(1, 3),
    st.booleans(),
    st.sampled_from([1, 3, transport.ARCS_PER_LINE]),
    st.integers(0, 2**32 - 1),
)
def test_lp_in_one_cost_buffer_equals_out_of_place_reference(n, ratio, p, d, weighted, arcs, seed):
    rng = np.random.default_rng(seed)
    pool = random_sphere_states(rng, 3, d)
    pick_a, pick_b = rng.integers(0, 3, size=n), rng.integers(0, 3, size=n * ratio)
    measures = [
        EmpiricalMeasure(pool[pick], rng.dirichlet(np.ones(len(pick))) if weighted else None)
        for pick in (pick_a, pick_b)
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "ARCS_PER_LINE", arcs)
        dist, plan = wasserstein_general(*measures, p)
        expected, coupling = _out_of_place_lp(*measures, p)
    assert dist == expected
    assert np.array_equal(plan.coupling, coupling)


def _traced_peak(solve) -> int:
    """Peak bytes that tracemalloc sees allocated while ``solve()`` runs."""
    tracemalloc.start()
    try:
        solve()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "n_small, solve",
    [(1024, wasserstein_uniform), (512, wasserstein_uniform_nested)],
    ids=["ratio_1", "nested_512_to_1024"],
)
def test_assignment_holds_one_cost_matrix(n_small, solve):
    # the (1024, 1024) float assignment matrix is 8 MiB; a second n x m cost
    # array (squared distances, their root, the power or a repeated copy)
    # would take the peak to 1.5 x that or more
    rng = np.random.default_rng(18)
    big = _uniform(random_sphere_states(rng, 1024, 3))
    small = _uniform(random_sphere_states(rng, n_small, 3))
    wasserstein_uniform(_uniform(big.atoms[:2]), _uniform(small.atoms[:2]))  # loads scipy
    assert _traced_peak(lambda: solve(small, big, 2.0)) <= 1.25 * 1024 * 1024 * 8
