"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

import mfkl as m
from mfkl import (
    ChainParams,
    LyapunovSpec,
    ModelCoefficients,
    ParticleState,
    RngStream,
    Space,
)
from mfkl.harness import decaying_segment, run_experiment

# every (tv, kl) histogram pair computed during this suite; criterion 8
# asserts the Pinsker inequality on all of them
PINSKER_PAIRS = []


def verdict(number, ok, detail):
    line = f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def oracle_density():
    model = m.quadratic_model(1.0, 0.25)
    grid = m.default_grid_for_quadratic(1.0)
    return m.self_consistent_fixed_point(model, grid, tol=1e-12).density


def test_criterion_1_constants_reproduction():
    start = time.perf_counter()
    tc = m.contraction_constants(1.0, 1.0)
    ok_a = abs(tc.a - 1.0 / 55.0) <= 1e-12
    ok_kappa = abs(tc.kappa - 1.0 / 171.0) <= 1e-12
    coeffs = ModelCoefficients(r_conf=1.0, c0=0.5, c1=0.5)
    consts = m.lyapunov_constants(Space("euclidean", 1), 1.0, coeffs, 1)
    ok_lambda0 = consts.lambda0 >= 2.0 / 15713.0
    ok_alpha = abs(consts.alpha - 1.0 / 7.0) <= 0.03 * (1.0 / 7.0)
    ok_theta = abs(consts.theta - 1.0 / 35.0) <= 0.03 * (1.0 / 35.0)
    elapsed = time.perf_counter() - start
    ok = ok_a and ok_kappa and ok_lambda0 and ok_alpha and ok_theta and elapsed < 1.0
    verdict(
        1, ok,
        f"a={tc.a:.12g} kappa={tc.kappa:.12g} alpha={consts.alpha:.6g} "
        f"theta={consts.theta:.6g} lambda0={consts.lambda0:.6g} "
        f">= 2/15713={2.0 / 15713.0:.6g} in {elapsed * 1e3:.1f} ms",
    )


def test_criterion_2_torus_drift():
    spec = LyapunovSpec(kind=m.VELOCITY_SIXTH)
    n_particles, m_draws = 8, 10_000
    cases = 0
    worst = math.inf
    failed = []
    for d in (1, 2):
        model = m.torus_trig_model(0.3, 0.2, d=d)
        rng = RngStream(2311 + d)
        states = []
        for j in range(100):
            scale = (0.5, 1.0, 3.0)[j % 3]
            states.append(ParticleState(
                rng.uniforms(n_particles * d).reshape(n_particles, d),
                scale * rng.normal_matrix((n_particles, d)),
                model.space,
            ))
        for h in (0.01, 0.05, 0.1):
            params = ChainParams(h=h, gamma=1.0, n_steps=1)
            for idx, state in enumerate(states):
                report = m.estimate_kernel_drift(
                    model, state, params, spec, m_draws=m_draws, rng=RngStream(5)
                )
                cases += 1
                worst = min(worst, report.margin_sigmas)
                if not report.holds:
                    failed.append((d, h, idx))
    verdict(
        2, not failed,
        f"{cases} (d, h, state) cases; explicit bound held in all "
        f"(tightest margin {worst:.1f} sigma)" if not failed else f"failures: {failed[:5]}",
    )


def test_criterion_3_euclidean_slope():
    model = m.quadratic_model(1.0, 0.0)
    n_particles, h = 16, 0.1
    consts = m.lyapunov_constants(model.space, 1.0, model.coeffs, n_particles)
    spec = LyapunovSpec.for_model(model, 1.0, n_particles)
    rng = RngStream(31)
    states = []
    for j in range(200):
        scale = (0.5, 1.0, 2.0, 3.0)[j % 4]
        states.append(ParticleState(
            scale * rng.normal_matrix((n_particles, 1)),
            scale * rng.normal_matrix((n_particles, 1)),
            model.space,
        ))
    params = ChainParams(h=h, gamma=1.0, n_steps=1)
    fit = m.drift_slope_regression(model, states, params, spec, m_draws=10_000, seed=123)
    gate = 1.0 - consts.theta * h + 2.0 * fit.slope_std_err
    verdict(
        3, fit.slope <= gate,
        f"regressed slope {fit.slope:.5f} (se {fit.slope_std_err:.5f}) <= "
        f"1 - theta h + 2 se = {gate:.5f} over 200 states",
    )


def test_criterion_4_stationary_bias_order():
    model = m.quadratic_model(1.0, 0.0)
    step_sizes = (0.025, 0.05, 0.1, 0.2)
    oracle_biases = []
    deviations = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", m.StepSizeWarning)
        for h in step_sizes:
            params = ChainParams(h=h, gamma=1.0, n_steps=1_000_000, master_seed=6001)
            rng = RngStream(params.master_seed)
            init = m.sample_initial({"kind": "point", "at": 0.0}, 1, model.space, rng)
            batches = {"current": [], "means": []}

            class BatchMeans:
                def notify(self, step, state):
                    if step <= 20_000:
                        return
                    batches["current"].append(float(state.positions[0, 0] ** 2))
                    if len(batches["current"]) == 10_000:
                        batches["means"].append(float(np.mean(batches["current"])))
                        batches["current"] = []

            m.run_chain(model, init, params, [BatchMeans()], rng)
            means = np.asarray(batches["means"])
            estimate = means.mean()
            std_err = means.std(ddof=1) / math.sqrt(len(means))
            oracle = m.stationary_covariance_quadratic(1.0, 1.0, h)[0, 0]
            deviations.append(abs(estimate - oracle) / std_err)
            oracle_biases.append(abs(oracle - 1.0))
    slope = float(np.polyfit(np.log(step_sizes), np.log(oracle_biases), 1)[0])
    chain_matches_oracle = all(dev <= 4.0 for dev in deviations)
    ok = chain_matches_oracle and 1.5 <= slope <= 2.5
    verdict(
        4, ok,
        f"chain/oracle deviations {['%.2f' % d for d in deviations]} sigma (<= 4); "
        f"|E[x^2]-1| vs h log-log slope {slope:.3f} in [1.5, 2.5]",
    )


def test_criterion_5_self_consistency_oracle(oracle_density):
    start = time.perf_counter()
    variance = oracle_density.variance()
    ok_var = abs(variance - 2.0 / 3.0) <= 1e-3
    model = m.quadratic_model(1.0, 0.25)
    grid = m.default_grid_for_quadratic(1.0)
    result = m.self_consistent_fixed_point(model, grid, tol=1e-10)
    ok_resid = result.residual < 1e-8
    plain = m.self_consistent_fixed_point(m.quadratic_model(1.0, 0.0), grid, tol=1e-10)
    ok_one = plain.iterations == 1
    elapsed = time.perf_counter() - start
    ok = ok_var and ok_resid and ok_one
    verdict(
        5, ok,
        f"variance {variance:.6f} (target 2/3 +- 1e-3), residual {result.residual:.2e} "
        f"< 1e-8, s=0 converged in {plain.iterations} iteration, {elapsed:.1f} s",
    )


def test_criterion_6_convergence_floor(oracle_density):
    model = m.quadratic_model(1.0, 0.25)
    n_particles, h, reps, n_steps = 32, 0.05, 512, 160
    params = ChainParams(h=h, gamma=1.0, n_steps=n_steps, master_seed=404)
    pooled = {}
    for k in range(reps):
        rng = RngStream(m.derive_seed(params.master_seed, k))
        init = m.sample_initial({"kind": "point", "at": 2.0}, n_particles, model.space, rng)
        obs = m.Observer(lambda step, state: (step, state.positions[:, 0].copy()), stride=1)
        m.run_chain(model, init, params, [obs], rng)
        for step, xs in obs.records:
            pooled.setdefault(step, []).append(xs)
    tv_series = []
    for step in sorted(pooled):
        samples = np.concatenate(pooled[step])
        tv = m.histogram_divergence(samples, oracle_density, 30, "tv")
        kl = m.histogram_divergence(samples, oracle_density, 30, "kl")
        PINSKER_PAIRS.append((tv, kl))
        tv_series.append(tv)
    tv_series = np.asarray(tv_series)
    floor = float(np.median(tv_series[-len(tv_series) // 5:]))
    start, end = decaying_segment(tv_series, floor)
    fit = m.fit_geometric_rate(tv_series[start:end])
    kappa = m.contraction_constants(1.0, 1.0).kappa
    gate = 1.0 / (1.0 + kappa * h) + 0.02
    ok = fit.rate <= gate and fit.r_squared > 0.9
    verdict(
        6, ok,
        f"fitted per-step TV rate {fit.rate:.4f} <= floor gate {gate:.4f}, "
        f"r^2 {fit.r_squared:.3f} > 0.9 on steps [{start}, {end})",
    )


def test_criterion_7_propagation_of_chaos_trend(oracle_density):
    model = m.quadratic_model(1.0, 0.25)
    params = ChainParams(h=0.05, gamma=1.0, n_steps=4000, master_seed=909)
    f = lambda x: np.clip(np.sum(x * x, axis=-1), 0.0, 25.0)
    oracle_mean = m.reference_expectation(
        oracle_density, lambda x: np.clip(x * x, 0.0, 25.0)
    )
    init = {"kind": "gaussian", "mean": 0.0, "std": 1.0}
    small = m.quadratic_risk(model, f, params, 8, 64, oracle_mean, init)
    large = m.quadratic_risk(model, f, params, 64, 64, oracle_mean, init)
    gap = small.value - large.value
    combined = math.hypot(small.std_err, large.std_err)
    ok = large.value < small.value and gap >= 2.0 * combined
    verdict(
        7, ok,
        f"risk(N=8) {small.value:.4f} (se {small.std_err:.4f}) vs risk(N=64) "
        f"{large.value:.4f} (se {large.std_err:.4f}); gap {gap / combined:.1f} "
        "combined sigmas (>= 2)",
    )


def test_criterion_8_property_suites(tmp_path):
    checks = {}

    # Verlet reversibility at 1e-9 over 50 random states
    model = m.quadratic_model(1.0, 0.25)
    rng = RngStream(202)
    worst = 0.0
    for _ in range(50):
        state = ParticleState(
            rng.normal_matrix((6, 1)), rng.normal_matrix((6, 1)), model.space
        )
        forward = m.verlet_step(model, state, 0.05)
        back = m.verlet_step(
            model, ParticleState(forward.positions, -forward.velocities, model.space), 0.05
        )
        scale = 1.0 + float(np.max(np.abs(state.positions)))
        worst = max(worst, float(np.max(np.abs(back.positions - state.positions))) / scale)
        worst = max(worst, float(np.max(np.abs(-back.velocities - state.velocities))) / scale)
    checks["reversibility"] = worst <= 1e-9

    # finite-difference force consistency at 1e-5 relative
    def fd_gradient(mod, positions, step=1e-5):
        grad = np.zeros_like(positions)
        for i in range(positions.shape[0]):
            for k in range(positions.shape[1]):
                plus, minus = positions.copy(), positions.copy()
                plus[i, k] += step
                minus[i, k] -= step
                grad[i, k] = (
                    m.system_potential(mod, plus) - m.system_potential(mod, minus)
                ) / (2 * step)
        return grad

    fd_ok = True
    for mod in (m.quadratic_model(1.0, 0.25, d=2),
                m.gauss_attract_repel_model(0.7, 0.1, 1.0, d=2),
                m.torus_trig_model(0.3, 0.2, d=2)):
        for _ in range(20):
            if mod.space.is_torus:
                x = rng.uniforms(8).reshape(4, 2)
            else:
                x = rng.normal_matrix((4, 2))
            grad = m.potential_gradient(mod, x)
            scale = max(1.0, float(np.max(np.abs(grad))))
            fd_ok &= float(np.max(np.abs(grad - fd_gradient(mod, x)))) <= 1e-5 * scale
    checks["finite_difference"] = fd_ok

    # bitwise permutation equivariance
    perm_rng = np.random.RandomState(4)
    perm_ok = True
    for mod in (m.quadratic_model(1.0, 0.25, d=2),
                m.gauss_attract_repel_model(1.0, 0.1, 1.0, d=2),
                m.torus_trig_model(0.3, 0.2, d=2)):
        x = rng.uniforms(16).reshape(8, 2) if mod.space.is_torus else rng.normal_matrix((8, 2))
        grad = m.potential_gradient(mod, x)
        for _ in range(5):
            sigma = perm_rng.permutation(8)
            perm_ok &= np.array_equal(m.potential_gradient(mod, x[sigma]), grad[sigma])
    checks["permutation_equivariance"] = perm_ok

    # refresh leaves the standard Gaussian invariant (orders 2, 4, 6 at 3 sigma)
    n = 100_000
    refresh_rng = RngStream(5150)
    state = ParticleState(
        np.zeros((n, 1)), refresh_rng.normal_matrix((n, 1)), Space("euclidean", 1)
    )
    refreshed = m.refresh_velocities(state, 0.9, refresh_rng)
    v = refreshed.velocities[:, 0]
    refresh_ok = True
    for order, mean, var in ((2, 1.0, 2.0), (4, 3.0, 96.0), (6, 15.0, 10170.0)):
        refresh_ok &= abs(float(np.mean(v ** order)) - mean) <= 3.0 * math.sqrt(var / n)
    checks["refresh_stationarity"] = refresh_ok

    # Gaussian sixth-moment identities
    checks["sixth_moment_identities"] = (
        m.gaussian_sixth_moment_exact(1) == 15.0 == m.gaussian_sixth_moment_bound(1)
        and m.gaussian_sixth_moment_exact(3) == 105.0
        and m.gaussian_sixth_moment_bound(3) == 405.0
        and all(
            m.gaussian_sixth_moment_exact(d) <= m.gaussian_sixth_moment_bound(d)
            for d in range(1, 12)
        )
    )

    # Pinsker inequality on every histogram pair computed in this suite
    pairs = list(PINSKER_PAIRS)
    extra_rng = RngStream(23)
    grid = m.default_grid_for_quadratic(1.0)
    reference = m.GridDensity.from_unnormalized(grid, np.exp(-0.5 * grid.centers ** 2))
    for scale in (0.5, 1.0, 2.0):
        samples = scale * extra_rng.normals(5000)
        pairs.append((
            m.histogram_divergence(samples, reference, 40, "tv"),
            m.histogram_divergence(samples, reference, 40, "kl"),
        ))
    checks["pinsker"] = bool(pairs) and all(
        tv <= math.sqrt(kl / 2.0) + 1e-12 for tv, kl in pairs if math.isfinite(kl)
    )

    # byte-for-byte reproducibility of a seeded experiment
    config = {
        "kind": "sample",
        "model": {"variant": "quadratic", "r": 1.0, "s": 0.25},
        "n_particles": 4,
        "chain": {"h": 0.05, "gamma": 1.0, "n_steps": 100, "seed": 2024},
        "init": {"kind": "gaussian", "mean": 0.0, "std": 1.0},
        "stride": 10,
    }
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_experiment(config, out_dir=str(out_a))
    run_experiment(config, out_dir=str(out_b))
    checks["reproducibility"] = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("trajectory.csv", "final_state.csv", "config.json")
    )

    failed = sorted(name for name, ok in checks.items() if not ok)
    verdict(
        8, not failed,
        "all property suites passed: " + ", ".join(sorted(checks))
        if not failed else f"failed: {failed}",
    )
