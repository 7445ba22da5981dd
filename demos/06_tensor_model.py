#!/usr/bin/env python3
"""The rank-m tensor aggregation model and its rank-1 reduction.

Rank-m unit-Frobenius tensors couple through their centroid with one gain per
index pattern in {0,1}^m.  For m = 1 the pattern (0) is the sphere-type gain
and (1) the rotational one, and the model collapses to the vector model
exactly.  For higher rank the right-hand side stays tangent, so Frobenius
norms are conserved to first order.
"""

import numpy as np

from lohesphere import CouplingParams, Ensemble, TensorEnsemble, lhs_rhs, lt_rhs
from lohesphere.integrators import rk4_step
from lohesphere.sampling import random_skew_hermitian, random_sphere_states

rng = np.random.default_rng(9)

# rank-1 reduction: identical right-hand sides under the pattern map
n, d = 8, 4
states = random_sphere_states(rng, n, d)
freqs = np.stack([random_skew_hermitian(rng, d, 0.7) for _ in range(n)])
k0, k1 = 0.9, 0.35
vector_rhs = lhs_rhs(Ensemble(states, freqs, CouplingParams(k0, k1)))
tensor_rhs = lt_rhs(TensorEnsemble(states, freqs, {(0,): k0, (1,): k1}))
print(f"rank-1 reduction: max |lt_rhs - lhs_rhs| = {np.max(np.abs(tensor_rhs - vector_rhs)):.2e}")

# a rank-2 ensemble (matrices), all four patterns active, clustered start;
# zero free flow so the coupling alone drives the evolution
n, d1, d2 = 6, 3, 2
size = d1 * d2
base = rng.standard_normal((d1, d2)) + 1j * rng.standard_normal((d1, d2))
t = base[None] + 0.4 * (rng.standard_normal((n, d1, d2)) + 1j * rng.standard_normal((n, d1, d2)))
t /= np.linalg.norm(t.reshape(n, -1), axis=1)[:, None, None]
a = np.zeros((n, size, size), dtype=complex)
couplings = {(0, 0): 1.0, (0, 1): 0.1, (1, 0): 0.1, (1, 1): 0.05}
tens = TensorEnsemble(t, a.reshape(n, d1, d2, d1, d2), couplings)

rhs = lt_rhs(tens)
radial = np.einsum("jab,jab->j", np.conj(rhs), t).real
print(f"rank-2 tangency: max |Re <dT_j/dt, T_j>_F| = {np.max(np.abs(radial)):.2e}")

# integrate the rank-2 model a short while: norms conserved, spread shrinking
current = tens.tensors.copy()


def tensor_flow(x, out=None):
    return lt_rhs(TensorEnsemble(
        x / np.linalg.norm(x.reshape(n, -1), axis=1)[:, None, None],
        tens.frequency_tensors, couplings))


def spread(x):
    flat = x.reshape(n, -1)
    gram = np.conj(flat) @ flat.T
    return float(np.max(np.abs(1.0 - gram)))


print(f"\n{'t':>5} {'worst norm drift':>18} {'pair spread':>14}")
for step in range(501):
    if step % 100 == 0:
        norms = np.linalg.norm(current.reshape(n, -1), axis=1)
        print(f"{step * 1e-2:5.1f} {np.max(np.abs(norms - 1)):18.2e} {spread(current):14.6f}")
    current = rk4_step(current, 1e-2, tensor_flow)
    current /= np.linalg.norm(current.reshape(n, -1), axis=1)[:, None, None]
