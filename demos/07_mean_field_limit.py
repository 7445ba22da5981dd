#!/usr/bin/env python3
"""Mean-field limit watched through exact Wasserstein-2 distances.

Nested empirical measures mu^N (each doubling keeps the previous atoms and
adds fresh draws from the same cap) approximate one kinetic solution.  If the
limit exists uniformly in time, sup_t W2(mu^N_t, mu^2N_t) must shrink as N
grows: the sequence is Cauchy in the Wasserstein metric.  Distances between
the N- and 2N-atom measures are computed exactly by one min-cost assignment
per time sample, on the N-by-2N cost block with every row repeated twice.
"""

import numpy as np

from lohesphere import CouplingParams, Ensemble, IntegratorConfig, integrate
from lohesphere.sampling import admissible_cap_states, admissible_threshold
from lohesphere.transport import wasserstein_nested_track

KAPPA0, KAPPA1, DELTA = 1.0, 0.1, 0.3
SIZES = (16, 32, 64, 128)

rng = np.random.default_rng(7)
threshold = admissible_threshold(KAPPA0, KAPPA1, DELTA)
pool = admissible_cap_states(rng, max(SIZES), 4, threshold)
params = CouplingParams(KAPPA0, KAPPA1)

# every sup of this draw sits at t = 0, so t_end = 50 prints the same table
cfg = IntegratorConfig(t_end=10.0, dt=1e-3, record_every=100)
trajectories = {}
for n in SIZES:
    trajectories[n], _ = integrate(Ensemble.zero_frequency(pool[:n], params), cfg)
    print(f"integrated the {n}-particle prefix")

print(f"\n{'pair':>12} {'W2 at t=0':>12} {'sup_t W2':>12}")
sups = []
for n in SIZES[:-1]:
    vals = wasserstein_nested_track(trajectories[n].snapshots, trajectories[2 * n].snapshots, 2.0)
    sups.append(max(vals))
    print(f"{n:>5} vs {2 * n:<5} {vals[0]:12.5f} {max(vals):12.5f}")

trend = " > ".join(f"{s:.4f}" for s in sups)
print(f"\nCauchy trend of the sups: {trend}" + ("  (nonincreasing)" if
      all(a >= b for a, b in zip(sups, sups[1:])) else "  (NOT monotone)"))
