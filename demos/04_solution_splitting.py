#!/usr/bin/env python3
"""Solution splitting: free rotation factors out of the homogeneous flow.

When all particles share one frequency matrix Omega, the flow factorizes as
z_j(t) = exp(Omega t) w_j(t) where w solves the zero-frequency system.  This
script integrates both sides separately and watches the factorization hold to
integrator precision, along with the rotation invariance of every scalar
observable (F, G, R).
"""

import numpy as np

from lohesphere import (
    CouplingParams,
    Ensemble,
    IntegratorConfig,
    functional_F,
    functional_G,
    integrate,
    matrix_exp_family,
    split_transform,
)
from lohesphere.sampling import random_skew_hermitian, random_sphere_states

rng = np.random.default_rng(21)
params = CouplingParams(1.0, 0.2)
states = random_sphere_states(rng, 32, 4)
omega = random_skew_hermitian(rng, 4, 1.0)

cfg = IntegratorConfig(t_end=10.0, dt=1e-3, record_every=500)
traj_full, _ = integrate(Ensemble.with_common_frequency(states, omega, params), cfg)
traj_zero, _ = integrate(Ensemble.zero_frequency(states.copy(), params), cfg)

propagator = matrix_exp_family(omega)
print(f"{'t':>5} {'max_j ||z_j - exp(Om t) w_j||':>30} {'|F_z - F_w|':>14} {'|G_z - G_w|':>14}")
for k, t in enumerate(traj_full.times):
    rotated = traj_zero.snapshots[k] @ propagator(float(t)).T
    dev = np.max(np.linalg.norm(traj_full.snapshots[k] - rotated, axis=1))
    df = abs(functional_F(traj_full.snapshots[k]) - functional_F(traj_zero.snapshots[k]))
    dg = abs(functional_G(traj_full.snapshots[k]) - functional_G(traj_zero.snapshots[k]))
    print(f"{t:5.1f} {dev:30.3e} {df:14.3e} {dg:14.3e}")

# the same factorization, via the trajectory transform
split = split_transform(traj_full)
residual = np.max(np.abs(split - traj_zero.snapshots))
print(f"\nsplit_transform(full run) vs direct zero-frequency run: max gap {residual:.3e}")
print("(both are numerical solutions; the gap is two accumulated RK4 errors)")
