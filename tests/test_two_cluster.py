"""Exact two-cluster solutions: the N-particle flow against an answer known
independently of the code.

Put m atoms at x and N - m at y, unit vectors in C^d, and let
h = <x, y> = sum_k conj(x_k) y_k.  Each cluster moves as one atom, and

    dh/dt = kappa0 (1 - h^2) - 2 i kappa1 Im(h) h

for every N, m and d, and under any common Omega, which leaves h invariant.
For real h0, or at kappa1 = 0, the solution is
h(t) = tanh(kappa0 t + artanh h0), for complex |h0| < 1 as well; otherwise
the reference is scipy's DOP853 on the scalar equation.  With cluster
weights a = m / N and b = 1 - a, the observables are closed forms of h:

    F = |1 - h|,  G^2 = 2 - 2 Re h,  R^2 = a^2 + b^2 + 2ab Re h,
    dR^2/dt = 2ab (kappa0 (1 - (Re h)^2) + (kappa0 + 2 kappa1) (Im h)^2).

G is checked squared: sqrt(2 - 2 Re h) magnifies the rounding of h by 1/G,
and at G ~ 2e-3 even the exact |x - y| of a snapshot misses it by 2e-13.

Both right-hand-side forms of the code share their gains, signs and
centroid normalization, so only an answer from outside the code can catch
a defect in them.  The free-flow sign is invisible here (h is invariant
under the common rotation); e7's splitting check covers it.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from lohesphere.dynamics import CouplingParams, Ensemble
from lohesphere.integrators import IntegratorConfig, integrate
from lohesphere.observables import order_parameter, pair_extremes, r_squared_rate
from lohesphere.sampling import random_skew_hermitian, random_sphere_states
from lohesphere.transport import EmpiricalMeasure

#: largest |h - h_ref| over t <= T_END at DT for gains up to 2: about 10x RK4's
#: worst error over 150 random draws at N <= 64, a grid of extreme gains and N = 4096
H_BOUND = 1e-6
#: largest spread of a cluster, and largest gap between an observable and its closed form
EXACT_TOL = 1e-13
DT, T_END, RECORD_EVERY = 1e-2, 3.0, 10


def two_cluster_ensemble(n, m, d, h0, kappa0, kappa1, omega_scale, seed) -> Ensemble:
    """m atoms at x and n - m at y with <x, y> = h0, at one common frequency
    drawn with spread ``omega_scale`` (the zero matrix at 0)."""
    rng = np.random.default_rng(seed)
    x, u = random_sphere_states(rng, 2, d)
    u = u - np.vdot(x, u) * x
    u /= np.linalg.norm(u)
    y = h0 * x + np.sqrt(1.0 - abs(h0) ** 2) * u
    y /= np.linalg.norm(y)
    states = np.concatenate([np.tile(x, (m, 1)), np.tile(y, (n - m, 1))])
    omega = random_skew_hermitian(rng, d, omega_scale)
    return Ensemble(states, omega, CouplingParams(kappa0, kappa1))


def run_two_cluster(ens: Ensemble, m: int, dt: float = DT, record_every: int = RECORD_EVERY):
    """The recorded times, snapshots and h(t) = <x(t), y(t)> of a run to T_END,
    after checking that each cluster stayed one atom to EXACT_TOL."""
    traj, _ = integrate(ens, IntegratorConfig(t_end=T_END, dt=dt, record_every=record_every))
    snaps = traj.snapshots
    for cluster in (snaps[:, :m], snaps[:, m:]):
        spread = np.max(np.linalg.norm(cluster - cluster[:, :1], axis=-1))
        assert spread <= EXACT_TOL, spread
    h = np.sum(np.conj(snaps[:, 0]) * snaps[:, m], axis=-1)
    return traj.times, snaps, h


def h_reference(h0: complex, kappa0: float, kappa1: float, times) -> np.ndarray:
    """h(t) from the closed form where there is one, else from DOP853 at rtol 1e-13."""
    if h0.imag == 0 or kappa1 == 0:
        return np.tanh(kappa0 * times + np.arctanh(complex(h0)))

    def rhs(t, v):
        h = complex(v[0], v[1])
        dh = kappa0 * (1.0 - h * h) - 2j * kappa1 * h.imag * h
        return [dh.real, dh.imag]

    sol = solve_ivp(
        rhs, (0.0, times[-1]), [h0.real, h0.imag], method="DOP853", rtol=1e-13, atol=1e-15,
        t_eval=times,
    )
    return sol.y[0] + 1j * sol.y[1]


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(2, 64),
    cut=st.floats(0.0, 1.0),
    d=st.integers(2, 4),
    h0_re=st.floats(-0.95, 0.95),
    h0_im=st.sampled_from([0.0, 0.2, -0.25]),
    kappa0=st.floats(-2.0, 2.0),
    kappa1=st.sampled_from([0.0, 0.3, -0.4]),
    omega_scale=st.sampled_from([0.0, 1.0]),
    seed=st.integers(0, 2**16),
)
# the two kappa1 signs with complex data and a common Omega
@example(n=12, cut=0.4, d=3, h0_re=0.3, h0_im=0.2, kappa0=1.0, kappa1=0.3, omega_scale=1.0,
         seed=1)
@example(n=12, cut=0.4, d=3, h0_re=-0.5, h0_im=-0.25, kappa0=1.5, kappa1=-0.4, omega_scale=1.0,
         seed=2)
@example(n=2, cut=0.5, d=2, h0_re=0.5, h0_im=0.0, kappa0=-1.0, kappa1=0.3, omega_scale=0.0,
         seed=3)
# clusters that nearly merge by T_END (G ~ 1e-3)
@example(n=2, cut=0.0, d=2, h0_re=0.875, h0_im=0.0, kappa0=2.0, kappa1=0.0, omega_scale=0.0,
         seed=0)
def test_two_clusters_follow_the_exact_solution(
    n, cut, d, h0_re, h0_im, kappa0, kappa1, omega_scale, seed
):
    m = min(max(int(cut * n), 1), n - 1)
    h0 = complex(h0_re, h0_im)
    ens = two_cluster_ensemble(n, m, d, h0, kappa0, kappa1, omega_scale, seed)
    times, snaps, h = run_two_cluster(ens, m)
    assert np.max(np.abs(h - h_reference(h0, kappa0, kappa1, times))) <= H_BOUND

    # every record's observables are the closed forms of its own h
    a = m / n
    b = 1.0 - a
    for snap, hk in zip(snaps, h):
        f, g = pair_extremes(snap)
        measure = EmpiricalMeasure.uniform(snap)
        r2 = a * a + b * b + 2 * a * b * hk.real
        rate = 2 * a * b * (kappa0 * (1 - hk.real**2) + (kappa0 + 2 * kappa1) * hk.imag**2)
        assert abs(f - abs(1.0 - hk)) <= EXACT_TOL
        assert abs(g * g - (2.0 - 2.0 * hk.real)) <= EXACT_TOL
        assert abs(order_parameter(measure) ** 2 - r2) <= EXACT_TOL
        assert abs(r_squared_rate(measure, kappa0, kappa1) - rate) <= EXACT_TOL


def test_two_clusters_at_4096_atoms():
    n, m, h0 = 4096, 1500, complex(-0.6, 0.0)
    ens = two_cluster_ensemble(n, m, 4, h0, 1.0, -0.3, 1.0, seed=4)
    times, _, h = run_two_cluster(ens, m, record_every=50)
    assert np.max(np.abs(h - h_reference(h0, 1.0, -0.3, times))) <= H_BOUND


def test_rk4_error_falls_at_fourth_order():
    # complex h0 at kappa1 = 0 has the closed form; each halving of dt divides
    # RK4's error by 2^4 = 16
    n, m, h0 = 12, 3, complex(0.2, 0.6)
    ens = two_cluster_ensemble(n, m, 3, h0, 2.0, 0.0, 1.0, seed=5)
    errors = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        times, _, h = run_two_cluster(ens, m, dt=dt, record_every=int(round(0.5 / dt)))
        errors.append(np.max(np.abs(h - h_reference(h0, 2.0, 0.0, times))))
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all((14.0 <= ratios) & (ratios <= 18.0)), (errors, ratios)
