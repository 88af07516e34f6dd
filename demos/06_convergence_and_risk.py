# Convergence in the number of steps and quadratic risk across particle
# counts, both measured against the self-consistency oracle.
#
# Pooling positions across independent replicas gives a histogram whose
# total variation distance to the oracle density decays geometrically until
# it hits the statistical noise floor; the fitted per-step rate is compared
# with the theoretical contraction floor (1 + kappa h)^(-1).

import math

import numpy as np

import mfkl
from mfkl import ChainParams, Observer, RngStream

model = mfkl.quadratic_model(1.0, 0.25)
grid = mfkl.default_grid_for_quadratic(1.0)
density = mfkl.self_consistent_fixed_point(model, grid, tol=1e-12).density

n_particles, reps = 32, 512
params = ChainParams(h=0.05, gamma=1.0, n_steps=160, master_seed=404)
pooled = {}
for k in range(reps):
    rng = RngStream(mfkl.derive_seed(params.master_seed, k))
    init = mfkl.sample_initial({"kind": "point", "at": 2.0}, n_particles, model.space, rng)
    obs = Observer(lambda step, state: (step, state.positions[:, 0].copy()), stride=1)
    mfkl.run_chain(model, init, params, [obs], rng)
    for step, xs in obs.records:
        pooled.setdefault(step, []).append(xs)

steps = sorted(pooled)
tv = np.array([
    mfkl.histogram_divergence(np.concatenate(pooled[s]), density, 30, "tv")
    for s in steps
])
print("step   TV to oracle")
for s, value in zip(steps, tv):
    if s % 20 == 0:
        print(f"{s:5d}  {value:.4f}")

floor = float(np.median(tv[-len(tv) // 5:]))
from mfkl.harness import decaying_segment

start, end = decaying_segment(tv, floor)
fit = mfkl.fit_geometric_rate(tv[start:end])
kappa = mfkl.contraction_constants(params.gamma, 1.0).kappa
print(f"\nfitted rate per recorded step: {fit.rate:.4f} (r^2 {fit.r_squared:.3f})")
print(f"theoretical floor (1 + kappa h)^-1 = {1 / (1 + kappa * params.h):.6f} "
      "(observed decay is far faster)")

# --- quadratic risk of the particle-average estimator ---------------------
f = lambda x: np.clip(np.sum(x * x, axis=-1), 0.0, 25.0)
oracle_mean = mfkl.reference_expectation(density, lambda x: np.clip(x * x, 0.0, 25.0))
risk_params = ChainParams(h=0.05, gamma=1.0, n_steps=2000, master_seed=909)
print(f"\nquadratic risk of mean f(X_i), f = min(x^2, 25), oracle {oracle_mean:.4f}")
print("N     risk          std err")
for n in (8, 16, 32, 64):
    estimate = mfkl.quadratic_risk(
        model, f, risk_params, n, 32, oracle_mean,
        {"kind": "gaussian", "mean": 0.0, "std": 1.0},
    )
    print(f"{n:<4d}  {estimate.value:.5f}  {estimate.std_err:.5f}")
print("risk shrinks with N (propagation of chaos); the dominant term is Var(f)/N")
