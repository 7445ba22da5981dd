"""Stepping, renormalization, drift diagnostics, and the splitting transform."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lohesphere import dynamics, integrators
from lohesphere.dynamics import BLOCK_ROWS, CouplingParams, Ensemble, lhs_rhs
from lohesphere.geometry import matrix_exp_family
from lohesphere.integrators import (
    IntegrationError,
    IntegratorConfig,
    integrate,
    rk4_step,
    split_transform,
)
from lohesphere.observables import functional_F
from lohesphere.sampling import random_skew_hermitian, random_sphere_states, sample_admissible

PARAMS = CouplingParams(1.0, 0.2)


def test_equilibrium_step_is_exact():
    state = np.array([0.5, 0.5j, 0.5, 0.5], dtype=complex)
    states = np.tile(state, (5, 1))
    ens = Ensemble.zero_frequency(states, PARAMS)
    traj, _ = integrate(ens, IntegratorConfig(t_end=1e-2, dt=1e-2))
    assert np.array_equal(traj.snapshots[-1], states)


def test_single_particle_matches_linear_flow():
    omega = np.diag([1j, -1j]).astype(complex)
    z = np.array([[0.6, 0.8j]], dtype=complex)
    dt = 1e-2
    ens = Ensemble.with_common_frequency(z, omega, PARAMS)
    traj, _ = integrate(ens, IntegratorConfig(t_end=dt, dt=dt))
    exact = (matrix_exp_family(omega)(dt) @ z[0])[None, :]
    # single-step defect of RK4 against the exact rotation is O(dt^5)
    assert np.max(np.abs(traj.snapshots[-1] - exact)) < 10 * dt**5


def test_order_four_convergence(monkeypatch):
    # coarse steps drift more than the default tolerance before renorm
    monkeypatch.setattr(integrators, "UNIT_DRIFT_TOL", 1e-4)
    rng = np.random.default_rng(0)
    states = random_sphere_states(rng, 6, 3)
    omega = random_skew_hermitian(rng, 3, 1.0)
    ens = Ensemble.with_common_frequency(states, omega, PARAMS)

    def final_states(dt, t_end=0.5):
        cfg = IntegratorConfig(t_end=t_end, dt=dt, record_every=10**9)
        traj, _ = integrate(ens, cfg)
        return traj.snapshots[-1]

    ref = final_states(0.5 / 1024)
    err_h = np.max(np.abs(final_states(0.05) - ref))
    err_h2 = np.max(np.abs(final_states(0.025) - ref))
    ratio = err_h / err_h2
    assert 8.0 < ratio < 32.0  # within a factor 2 of the ideal 16


def test_integrate_zero_horizon_returns_initial_state():
    rng = np.random.default_rng(1)
    ens = Ensemble.zero_frequency(random_sphere_states(rng, 4, 3), PARAMS)
    traj, series = integrate(ens, IntegratorConfig(t_end=0.0))
    assert len(traj.times) == 1
    assert traj.times[0] == 0.0
    np.testing.assert_array_equal(traj.snapshots[0], ens.states)
    assert len(series.times) == 1


def test_unit_norm_conserved_at_recorded_times():
    rng = np.random.default_rng(2)
    ens = Ensemble.zero_frequency(random_sphere_states(rng, 12, 4), PARAMS)
    traj, _ = integrate(ens, IntegratorConfig(t_end=2.0, dt=1e-3, record_every=50))
    drift = np.max(np.abs(np.linalg.norm(traj.snapshots, axis=2) - 1.0))
    assert drift <= 1e-9


def test_f_decreases_along_admissible_trajectory():
    ens = sample_admissible(16, 4, 1.0, -0.1, 0.2, seed=3)
    _, series = integrate(
        ens,
        IntegratorConfig(t_end=2.0, dt=1e-3, record_every=100),
        {"F": lambda t, s: functional_F(s)},
    )
    f_vals = series.column("F")
    assert np.all(np.diff(f_vals) < 0.0)


def test_drift_violation_raises_with_diagnostic(monkeypatch):
    rng = np.random.default_rng(4)
    states = random_sphere_states(rng, 4, 2)
    omega = random_skew_hermitian(rng, 2, 10.0)
    ens = Ensemble.with_common_frequency(states, omega, PARAMS)
    monkeypatch.setattr(integrators, "UNIT_DRIFT_TOL", 1e-10)
    with pytest.raises(IntegrationError, match=r"drift .* at step \d+ \(t = .*, particle \d+\)"):
        integrate(ens, IntegratorConfig(t_end=10.0, dt=0.9))
    # in a batch the member is named too: member 0 is a consensus at rest,
    # member 1 the drifting ensemble above
    rest = np.tile(np.array([0.6, 0.8j]), (4, 1))
    batch = Ensemble(np.stack([rest, states]), np.stack([0.0 * omega, omega])[:, None], PARAMS)
    with pytest.raises(IntegrationError, match=r"drift .* \(t = .*, member 1, particle \d+\)"):
        integrate(batch, IntegratorConfig(t_end=10.0, dt=0.9))
    # an overflowing step is named the same way, even under a drift tolerance
    # that no finite drift exceeds
    monkeypatch.setattr(integrators, "UNIT_DRIFT_TOL", np.finfo(float).max)
    huge = Ensemble.zero_frequency(states, CouplingParams(1e308, 0.0))
    with np.errstate(all="ignore"), pytest.raises(IntegrationError, match=r"non-finite .*particle"):
        integrate(huge, IntegratorConfig(t_end=1e10, dt=1e10))


def test_reversed_time_consistency():
    rng = np.random.default_rng(5)
    ens = Ensemble.zero_frequency(random_sphere_states(rng, 8, 3), PARAMS)

    def rhs(s, out=None):
        return lhs_rhs(ens.replace_states(s), out=out)

    dt = 1e-2
    forward = rk4_step(ens.states, dt, rhs)
    back = rk4_step(forward, dt, lambda s, out: -rhs(s))
    assert np.max(np.abs(back - ens.states)) < 1e-8


def test_observers_record_at_sample_times():
    rng = np.random.default_rng(6)
    ens = Ensemble.zero_frequency(random_sphere_states(rng, 4, 2), PARAMS)
    seen = []
    _, series = integrate(
        ens,
        IntegratorConfig(t_end=0.1, dt=1e-2, record_every=2),
        {"probe": lambda t, s: seen.append(t) or float(len(seen))},
    )
    np.testing.assert_allclose(series.times, [0.0, 0.02, 0.04, 0.06, 0.08, 0.1])
    assert seen == list(series.times)


def test_split_transform_identity_for_zero_frequency():
    rng = np.random.default_rng(7)
    ens = Ensemble.zero_frequency(random_sphere_states(rng, 6, 3), PARAMS)
    traj, _ = integrate(ens, IntegratorConfig(t_end=0.5, dt=1e-2, record_every=5))
    split = split_transform(traj)
    np.testing.assert_array_equal(split, traj.snapshots)


def test_split_transform_free_flow_is_constant():
    # with zero coupling the split of the free rotation never moves
    rng = np.random.default_rng(8)
    states = random_sphere_states(rng, 5, 3)
    omega = random_skew_hermitian(rng, 3, 1.0)
    ens = Ensemble.with_common_frequency(states, omega, CouplingParams(0.0, 0.0))
    traj, _ = integrate(ens, IntegratorConfig(t_end=2.0, dt=1e-3, record_every=200))
    split = split_transform(traj)
    spread = np.max(np.abs(split - split[0][None]))
    assert spread < 1e-9


def test_split_transform_rejects_heterogeneous():
    rng = np.random.default_rng(9)
    states = random_sphere_states(rng, 3, 2)
    freqs = np.stack([random_skew_hermitian(rng, 2, 1.0) for _ in range(3)])
    ens = Ensemble(states, freqs, PARAMS)
    traj, _ = integrate(ens, IntegratorConfig(t_end=0.01, dt=1e-2))
    with pytest.raises(ValueError, match="homogeneous"):
        split_transform(traj)


def test_split_transform_solves_zero_frequency_system():
    # finite-difference residual of the transformed trajectory against the
    # zero-frequency right-hand side
    rng = np.random.default_rng(10)
    states = random_sphere_states(rng, 8, 4)
    omega = random_skew_hermitian(rng, 4, 1.0)
    ens = Ensemble.with_common_frequency(states, omega, PARAMS)
    traj, _ = integrate(ens, IntegratorConfig(t_end=0.2, dt=1e-3, record_every=1))
    split = split_transform(traj)
    worst = 0.0
    for k in range(1, len(traj.times) - 1):
        h = traj.times[k + 1] - traj.times[k]
        w_dot = (split[k + 1] - split[k - 1]) / (2.0 * h)
        residual = w_dot - lhs_rhs(Ensemble.zero_frequency(split[k], PARAMS))
        worst = max(worst, float(np.max(np.abs(residual))))
    assert worst < 1e-6


def test_splitting_property_particle_form():
    # short-horizon version of the full invariant: simulate with Omega and
    # with Omega = 0, rotate the latter, compare
    rng = np.random.default_rng(11)
    states = random_sphere_states(rng, 10, 4)
    omega = random_skew_hermitian(rng, 4, 1.0)
    cfg = IntegratorConfig(t_end=2.0, dt=1e-3, record_every=100)
    traj_full, _ = integrate(Ensemble.with_common_frequency(states, omega, PARAMS), cfg)
    traj_zero, _ = integrate(Ensemble.zero_frequency(states.copy(), PARAMS), cfg)
    fam = matrix_exp_family(omega)
    worst = 0.0
    for k, t in enumerate(traj_full.times):
        rotated = traj_zero.snapshots[k] @ fam(float(t)).T
        worst = max(worst, float(np.max(np.linalg.norm(traj_full.snapshots[k] - rotated, axis=1))))
    assert worst < 1e-6


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=1.0, dt=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=-1.0)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"dt": np.inf}, "dt"),
        ({"dt": np.nan}, "dt"),
        ({"t_end": np.inf}, "t_end"),
        ({"t_end": np.nan}, "t_end"),
        ({"dt": -1e-3}, "dt"),
        ({"t_end": -np.inf}, "t_end"),
        ({"record_every": 2.5}, "record_every"),
        ({"record_every": 0}, "record_every"),
        ({"record_every": np.int64(3)}, None),
        ({"t_end": 1e300, "dt": 1e-10}, "t_end.*dt"),   # t_end / dt overflows to inf
        ({"t_end": 1e10, "dt": 1e-10}, "t_end.*dt"),    # 1e20 steps, beyond a numpy index
    ],
)
def test_integrator_config_rejects_values_that_break_a_run(kwargs, field):
    # each rejected value used to run 0 steps, switch the drift check off or
    # fail only inside integrate with an error that names no field
    config = {"t_end": 1.0, **kwargs}
    if field is None:
        assert IntegratorConfig(**config).n_steps == 1000
    else:
        with pytest.raises(ValueError, match=field):
            IntegratorConfig(**config)


def _reference_rhs(ens, states):
    """The unfused right-hand side: whole-array ``.sum(axis=-1)`` row reductions."""
    zc = np.add.reduce(states, axis=-2, keepdims=True) / states.shape[-2]
    inner_cj = (states * np.conj(zc)).sum(axis=-1)
    norm_sq = (states * np.conj(states)).sum(axis=-1).real
    out = ens.params.kappa0 * (norm_sq[..., None] * zc - inner_cj[..., None] * states)
    if ens.params.kappa1 != 0.0:
        out += (ens.params.kappa1 * (-2j * inner_cj.imag))[..., None] * states
    if ens._omega_zero:
        return out
    if ens.homogeneous:
        return out + np.einsum("...jb,ab->...ja", states, ens.common_frequency)
    return out + np.einsum("...jab,...jb->...ja", ens.frequencies, states)


def _reference_rk4(ens, y, dt):
    """The unfused RK4 expression, before the projection onto the sphere."""
    k1 = _reference_rhs(ens, y)
    k2 = _reference_rhs(ens, y + (0.5 * dt) * k1)
    k3 = _reference_rhs(ens, y + (0.5 * dt) * k2)
    k4 = _reference_rhs(ens, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reference_step(ens, y, dt):
    """The unfused RK4 expression followed by np.linalg.norm renormalization."""
    y = _reference_rk4(ens, y, dt)
    return y / np.linalg.norm(y, axis=-1)[..., None]


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize(
    "batch, n, omega_scale, heterogeneous, kappa1, real",
    [
        # rows beyond BLOCK_ROWS cross a block edge
        pytest.param((), BLOCK_ROWS + 37, 0.0, False, -0.3, False, id="0.0-False"),
        pytest.param((), BLOCK_ROWS + 37, 0.7, False, -0.3, False, id="0.7-False"),
        pytest.param((), BLOCK_ROWS + 37, 0.7, True, -0.3, False, id="0.7-True"),
        # one block (every experiment's size), stepped without slices
        pytest.param((), 16, 0.0, False, -0.3, False, id="one_block-zero"),
        pytest.param((), 16, 0.7, True, -0.3, False, id="one_block-per_particle"),
        pytest.param((3,), 16, 0.7, True, -0.3, False, id="one_block-batch"),
        pytest.param((), 16, 0.7, False, 0.0, False, id="one_block-kappa1_zero"),
        # real data at zero Omega stay real: exact zeros whose signs are pinned
        pytest.param((), 16, 0.0, False, 0.4, True, id="one_block-real"),
    ],
)
def test_integrate_is_bitwise_the_unfused_step(batch, n, omega_scale, heterogeneous, kappa1, real):
    # 5 steps recorded every 2nd also record the last step
    rng = np.random.default_rng(17)
    d, dt, members = 4, 1e-2, int(np.prod(batch, dtype=int))
    states = random_sphere_states(rng, members * n, d)
    if real:
        x = rng.standard_normal((members * n, d))
        states = (x / np.linalg.norm(x, axis=1)[:, None]).astype(complex)
    states = states.reshape(*batch, n, d)
    if heterogeneous:
        freqs = np.stack([random_skew_hermitian(rng, d, omega_scale) for _ in range(members * n)])
        freqs = freqs.reshape(*batch, n, d, d)
    else:
        freqs = random_skew_hermitian(rng, d, omega_scale)
    ens = Ensemble(states, freqs, CouplingParams(1.0, kappa1))
    traj, _ = integrate(ens, IntegratorConfig(t_end=5 * dt, dt=dt, record_every=2))
    expected, y = [states], states
    for step in range(1, 6):
        y = _reference_step(ens, y, dt)
        if step % 2 == 0 or step == 5:
            expected.append(y)
    assert traj.snapshots.shape == (4, *batch, n, d)
    if real:
        assert not np.any(traj.snapshots.imag)
    for got, want in zip(traj.snapshots, expected):
        assert _same_bits(got, want)   # signed zeros too


def test_renormalization_is_a_complex_division():
    # At zero gains every slope is a signed zero, and one step of these states
    # leaves -0.0 + 0.0j in row 1 before the projection by its norm 1.0.
    # numpy's complex division (as np.linalg.norm projection) makes it
    # +0.0 + 0.0j; a real multiply of the float view by 1 / norm keeps -0.0.
    states = np.array(
        [
            [complex(-1.0, -0.0), complex(0.0, -0.0)],
            [complex(-0.0, 0.0), complex(1.0, -0.0)],
            [complex(-1.0, 0.0), complex(0.0, 0.0)],
        ]
    )
    ens = Ensemble.zero_frequency(states, CouplingParams(0.0, 0.0))
    dt = 1e-2
    traj, _ = integrate(ens, IntegratorConfig(t_end=dt, dt=dt))
    before = _reference_rk4(ens, states, dt)
    norms = np.linalg.norm(before, axis=-1)
    divided = before / norms[:, None]
    multiplied = (before.view(float) * (1.0 / norms)[:, None]).view(complex)
    assert np.signbit(before[1, 0].real) and before[1, 0] == 0.0
    assert _same_bits(traj.snapshots[-1], divided)
    assert not _same_bits(multiplied, divided)


def test_integrate_calls_lhs_rhs_and_rk4_step_through_their_module_bindings(monkeypatch):
    # The benchmark's tracer replaces every binding of dynamics.lhs_rhs and
    # integrators.rk4_step inside the package, and sizes each right-hand side
    # span from its positional arguments (the ensemble alone).
    calls = {"lhs_rhs": [], "rk4_step": []}

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append(len(args))
            return fn(*args, **kwargs)

        return wrapper

    for name, original in (("lhs_rhs", dynamics.lhs_rhs), ("rk4_step", integrators.rk4_step)):
        wrapper = wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.partition(".")[0] != "lohesphere":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, wrapper)
    rng = np.random.default_rng(23)
    ens = Ensemble.zero_frequency(random_sphere_states(rng, 16, 4), PARAMS)
    traj, _ = integrate(ens, IntegratorConfig(t_end=0.05, dt=1e-2, record_every=2))
    assert traj.metadata["steps"] == len(calls["rk4_step"]) == 5
    assert calls["lhs_rhs"] == [1] * 20


def test_rk4_step_leaves_its_input_unchanged():
    rng = np.random.default_rng(18)
    ens = Ensemble.with_common_frequency(
        random_sphere_states(rng, 9, 3), random_skew_hermitian(rng, 3, 1.0), PARAMS
    )
    y = ens.states.copy()
    stepped = rk4_step(ens.states, 1e-2, lambda s, out: lhs_rhs(ens.replace_states(s), out=out))
    assert np.array_equal(ens.states, y)
    assert stepped is not ens.states


def test_observers_of_one_record_get_the_recorded_snapshot():
    # one object per record, shared by every observer and never written again
    rng = np.random.default_rng(20)
    ens = Ensemble.zero_frequency(random_sphere_states(rng, 6, 3), PARAMS)
    seen = {"a": [], "b": []}
    observers = {name: lambda t, s, name=name: seen[name].append(s) or 0.0 for name in seen}
    traj, _ = integrate(ens, IntegratorConfig(t_end=0.05, dt=1e-2, record_every=2), observers)
    assert len(seen["a"]) == len(seen["b"]) == len(traj.times) == 4
    for k, (a, b) in enumerate(zip(seen["a"], seen["b"])):
        assert a is b
        assert np.shares_memory(a, traj.snapshots)
        assert np.array_equal(a, traj.snapshots[k])
    assert traj.ensemble is ens


def test_run_counts_in_trajectory_metadata():
    rng = np.random.default_rng(19)
    ens = Ensemble.zero_frequency(random_sphere_states(rng, 6, 3), PARAMS)
    cfg = IntegratorConfig(t_end=0.07, dt=1e-2, record_every=3)
    traj, _ = integrate(ens, cfg)
    meta = traj.metadata
    assert (meta["steps"], meta["rhs_evals"]) == (7, 28)
    assert 0.0 < meta["max_norm_drift"] <= integrators.UNIT_DRIFT_TOL
    still, _ = integrate(ens, IntegratorConfig(t_end=0.0))
    assert still.metadata == {"steps": 0, "rhs_evals": 0, "max_norm_drift": 0.0}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(0.0, False), (1.0, False), (1.0, True)]),
    st.integers(1, 40),
    st.integers(1, 5),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.integers(0, 2**32 - 1),
)
def test_integrate_keeps_every_snapshot_row_on_the_sphere(mode, n, d, kappa0, kappa1, seed):
    omega_scale, heterogeneous = mode
    rng = np.random.default_rng(seed)
    states = random_sphere_states(rng, n, d)
    if heterogeneous:
        freqs = np.stack([random_skew_hermitian(rng, d, omega_scale) for _ in range(n)])
    else:
        freqs = random_skew_hermitian(rng, d, omega_scale)
    ens = Ensemble(states, freqs, CouplingParams(kappa0, kappa1))
    traj, _ = integrate(ens, IntegratorConfig(t_end=0.1, dt=1e-2, record_every=3))
    assert np.max(np.abs(np.linalg.norm(traj.snapshots, axis=2) - 1.0)) <= 1e-12


def _batch_frequencies(rng, mode, b, n, d):
    """Frequencies of b ensembles of n particles: zero, one matrix per member, or per particle."""
    if mode == "zero":
        return np.zeros((d, d))
    if mode == "common":
        return np.stack([random_skew_hermitian(rng, d, 1.0) for _ in range(b)])[:, None]
    return np.stack([[random_skew_hermitian(rng, d, 1.0) for _ in range(n)] for _ in range(b)])


# B * N on both sides of geometry._COLUMN_SUM_MIN_ROWS (256), where row sums change path
@pytest.mark.parametrize("b, n", [(2, 16), (20, 16), (3, 100)])
@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from(["zero", "common", "per_particle"]),
    st.integers(1, 4),
    st.sampled_from([BLOCK_ROWS, 7]),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.integers(0, 2**32 - 1),
)
def test_batched_run_is_bitwise_each_members_own_run(b, n, mode, d, rows, kappa0, kappa1, seed):
    rng = np.random.default_rng(seed)
    states = np.stack([random_sphere_states(rng, n, d) for _ in range(b)])
    freqs = _batch_frequencies(rng, mode, b, n, d)
    params = CouplingParams(kappa0, kappa1)
    batch = Ensemble(states, freqs, params)
    cfg = IntegratorConfig(t_end=0.05, dt=1e-2, record_every=2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "BLOCK_ROWS", rows)
        rhs = lhs_rhs(batch)
        traj, _ = integrate(batch, cfg)
        assert traj.snapshots.shape == (4, b, n, d)
        for k in range(b):
            member = Ensemble(states[k], freqs if mode == "zero" else freqs[k], params)
            assert lhs_rhs(member).tobytes() == rhs[k].tobytes()
            own, _ = integrate(member, cfg)
            assert own.snapshots.tobytes() == traj.snapshots[:, k].tobytes()
