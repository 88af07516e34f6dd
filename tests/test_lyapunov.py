import math

import numpy as np
import pytest

import mfkl as m
from mfkl import (
    CapabilityError,
    ChainParams,
    ConfigurationError,
    InvariantViolationError,
    LyapunovSpec,
    NumericalDomainError,
    Observer,
    ParticleState,
    RngStream,
    Space,
)
from mfkl.lyapunov import c1_moment_observer_fn, kernel_values_monte_carlo


def half_square(x):
    return 0.5 * np.sum(np.atleast_1d(x) ** 2, axis=-1)


class TestLyapunovValue:
    def test_torus_zero_velocities(self):
        spec = LyapunovSpec(kind=m.VELOCITY_SIXTH)
        state = ParticleState(np.full((4, 1), 0.5), np.zeros((4, 1)), Space("torus", 1))
        assert m.lyapunov_value(spec, state) == 0.0

    def test_energy_cubed_hand_value(self):
        spec = LyapunovSpec(kind=m.ENERGY_CUBED, alpha=0.5, v_ref=half_square)
        state = ParticleState(np.array([[2.0]]), np.array([[1.0]]), Space("euclidean", 1))
        # (2 + 0.5 + 0.5*2*1)^3
        assert m.lyapunov_value(spec, state) == pytest.approx(42.875)

    def test_energy_sandwich(self):
        # V = x^2/2 gives c0 = c1 = 1/2, R0 = R1 = 0, alpha = sqrt(c0/2) = 1/2
        alpha, c0, c1 = 0.5, 0.5, 0.5
        spec = LyapunovSpec(kind=m.ENERGY_CUBED, alpha=alpha, v_ref=half_square)
        rng = RngStream(404)
        for _ in range(100):
            x = 3.0 * rng.normals(1)
            v = 3.0 * rng.normals(1)
            phi = half_square(x) + 0.5 * v[0] ** 2 + alpha * x[0] * v[0]
            lower = 0.5 * c0 * x[0] ** 2 + 0.25 * v[0] ** 2
            upper = 1.5 * c1 * x[0] ** 2 + 0.75 * v[0] ** 2
            assert lower - 1e-12 <= phi <= upper + 1e-12
            state = ParticleState(x[:, None], v[:, None], Space("euclidean", 1))
            assert m.lyapunov_value(spec, state) == pytest.approx(phi ** 3)

    def test_negative_energy_rejected(self):
        spec = LyapunovSpec(kind=m.ENERGY_CUBED, alpha=5.0, v_ref=half_square)
        state = ParticleState(np.array([[1.0]]), np.array([[-1.0]]), Space("euclidean", 1))
        with pytest.raises(InvariantViolationError):
            m.lyapunov_value(spec, state)

    def test_space_mismatch(self):
        spec = LyapunovSpec(kind=m.VELOCITY_SIXTH)
        state = ParticleState(np.zeros((1, 1)), np.zeros((1, 1)), Space("euclidean", 1))
        with pytest.raises(ConfigurationError):
            m.lyapunov_value(spec, state)

    def test_for_model_picks_constants(self, quad_plain, torus_model):
        spec = LyapunovSpec.for_model(quad_plain, 1.0, 4)
        assert spec.kind == m.ENERGY_CUBED
        assert spec.alpha == pytest.approx(6.0 / 43.0)
        assert LyapunovSpec.for_model(torus_model, 1.0, 4).kind == m.VELOCITY_SIXTH


class TestKernelDrift:
    def test_torus_small_velocities_hold(self, torus_model):
        rng = RngStream(31)
        state = ParticleState(
            rng.uniforms(8).reshape(8, 1),
            np.clip(rng.normal_matrix((8, 1)), -1.0, 1.0),
            torus_model.space,
        )
        params = ChainParams(h=0.05, gamma=1.0, n_steps=1)
        report = m.estimate_kernel_drift(
            torus_model, state, params, LyapunovSpec(kind=m.VELOCITY_SIXTH),
            m_draws=10_000, rng=RngStream(7),
        )
        assert report.holds

    def test_default_rng_is_the_master_seed_stream(self, torus_model):
        rng = RngStream(31)
        state = ParticleState(
            rng.uniforms(8).reshape(8, 1), rng.normal_matrix((8, 1)), torus_model.space
        )
        params = ChainParams(h=0.05, gamma=1.0, n_steps=1, master_seed=17)
        spec = LyapunovSpec(kind=m.VELOCITY_SIXTH)
        default = m.estimate_kernel_drift(torus_model, state, params, spec, m_draws=2000)
        seeded = m.estimate_kernel_drift(
            torus_model, state, params, spec, m_draws=2000, rng=RngStream(17)
        )
        assert default == seeded

    @pytest.mark.parametrize("h", [0.01, 0.05, 0.1, 0.2])
    def test_zero_force_exact_value(self, h):
        # with no force and zero start, P V is exactly N (1-eta^2)^3 E|G|^6
        model = m.torus_trig_model(0.0, 0.0, d=1)
        n = 8
        state = ParticleState(np.full((n, 1), 0.3), np.zeros((n, 1)), model.space)
        params = ChainParams(h=h, gamma=1.0, n_steps=1)
        eta = params.eta
        exact = n * (1.0 - eta * eta) ** 3 * m.gaussian_sixth_moment_exact(1)
        from mfkl.lyapunov import kernel_values_monte_carlo

        values = kernel_values_monte_carlo(
            model, state, params, LyapunovSpec(kind=m.VELOCITY_SIXTH), 20_000, RngStream(3)
        )
        std_err = values.std(ddof=1) / math.sqrt(len(values))
        assert abs(values.mean() - exact) <= 3.0 * std_err
        # the exact kernel value sits under the explicit additive bound
        assert exact <= n * h * 766.0

    def test_large_velocity_contraction_dominates(self, torus_model):
        n = 8
        state = ParticleState(
            np.full((n, 1), 0.25), np.full((n, 1), 10.0), torus_model.space
        )
        params = ChainParams(h=0.05, gamma=1.0, n_steps=1)
        report = m.estimate_kernel_drift(
            torus_model, state, params, LyapunovSpec(kind=m.VELOCITY_SIXTH),
            m_draws=10_000, rng=RngStream(13),
        )
        assert report.holds
        assert report.pv_estimate < m.lyapunov_value(LyapunovSpec(kind=m.VELOCITY_SIXTH), state)

    def test_torus_grid_of_states(self, torus_model):
        # explicit bound holds across h values and state scales
        params_seed = 1
        rng = RngStream(2311)
        states = []
        for j in range(100):
            scale = [0.5, 1.0, 3.0][j % 3]
            states.append(ParticleState(
                rng.uniforms(8).reshape(8, 1),
                scale * rng.normal_matrix((8, 1)),
                torus_model.space,
            ))
        for h in (0.01, 0.05, 0.1):
            params = ChainParams(h=h, gamma=1.0, n_steps=1, master_seed=params_seed)
            for state in states:
                report = m.estimate_kernel_drift(
                    torus_model, state, params, LyapunovSpec(kind=m.VELOCITY_SIXTH),
                    m_draws=1_000, rng=RngStream(5),
                )
                assert report.holds, (h, report)

    def test_euclidean_needs_constant_or_regression(self, quad_plain):
        spec = LyapunovSpec.for_model(quad_plain, 1.0, 4)
        state = ParticleState(np.ones((4, 1)), np.ones((4, 1)), quad_plain.space)
        params = ChainParams(h=0.05, gamma=1.0, n_steps=1)
        with pytest.raises(CapabilityError):
            m.estimate_kernel_drift(quad_plain, state, params, spec, m_draws=1000,
                                    rng=RngStream(1))

    def test_euclidean_slope_regression(self, quad_plain):
        consts = m.lyapunov_constants(quad_plain.space, 1.0, quad_plain.coeffs, 16)
        spec = LyapunovSpec.for_model(quad_plain, 1.0, 16)
        rng = RngStream(31)
        states = []
        for j in range(200):
            scale = [0.5, 1.0, 2.0, 3.0][j % 4]
            states.append(ParticleState(
                scale * rng.normal_matrix((16, 1)),
                scale * rng.normal_matrix((16, 1)),
                quad_plain.space,
            ))
        params = ChainParams(h=0.1, gamma=1.0, n_steps=1)
        fit = m.drift_slope_regression(
            quad_plain, states, params, spec, m_draws=10_000, seed=123
        )
        assert fit.slope <= 1.0 - consts.theta * 0.1 + 2.0 * fit.slope_std_err


class TestGaussianMomentTools:
    def test_exact_and_bound(self):
        assert m.gaussian_sixth_moment_exact(1) == 15.0
        assert m.gaussian_sixth_moment_bound(1) == 15.0
        assert m.gaussian_sixth_moment_exact(3) == 105.0
        assert m.gaussian_sixth_moment_bound(3) == 405.0

    def test_wick_against_monte_carlo(self):
        rng = RngStream(606)
        for d in (1, 2, 4):
            g = rng.normal_matrix((400_000, d))
            v6 = np.sum(g * g, axis=1) ** 3
            std_err = v6.std(ddof=1) / math.sqrt(len(v6))
            assert abs(v6.mean() - m.gaussian_sixth_moment_exact(d)) <= 3.5 * std_err

    def test_refresh_bound_eps_domain(self):
        with pytest.raises(NumericalDomainError):
            m.refresh_sixth_moment_bound(0.9, 1.0, 0.2, 1)
        with pytest.raises(NumericalDomainError):
            m.refresh_sixth_moment_bound(0.9, 1.0, 0.0, 1)

    def test_quad_form_degenerate(self):
        assert m.quad_form_cube_bound(1.0, 0.0, 0.0, 5) == 1.0

    def test_quad_form_against_monte_carlo(self):
        rng = RngStream(19)
        a, c, d = 0.7, 0.3, 3
        b = np.array([0.5, -0.2, 0.1])
        g = rng.normal_matrix((200_000, d))
        vals = (a + g @ b + c * np.sum(g * g, axis=1)) ** 3
        bound = m.quad_form_cube_bound(a, float(np.linalg.norm(b)), c, d)
        std_err = vals.std(ddof=1) / math.sqrt(len(vals))
        assert vals.mean() - 3.0 * std_err <= bound


class TestMomentConstant:
    def test_zero_trajectory(self, quad_plain):
        v = np.zeros((5, 3))
        g = np.zeros((5, 3))
        assert m.estimate_moment_constant(v, g, quad_plain.coeffs, 1) == 0.0

    def test_single_record_arithmetic(self):
        coeffs = m.ModelCoefficients(m1x=1.0, m1m=0.0, l1=1.0, l2=0.0, l3=0.0)
        value = m.estimate_moment_constant(
            np.array([[2.0, 0.0, 0.0]]), np.array([[1.0, 0.0, 0.0]]), coeffs, 1
        )
        assert value == 3.0

    def test_missing_coefficients(self):
        model = m.gauss_attract_repel_model(1.0, 0.1, 1.0)
        with pytest.raises(CapabilityError):
            m.estimate_moment_constant(np.zeros((1, 3)), np.zeros((1, 3)), model.coeffs, 1)

    def test_running_max_stabilizes(self, quad_interacting):
        params = ChainParams(h=0.05, gamma=1.0, n_steps=100_000, master_seed=13)
        rng = RngStream(params.master_seed)
        init = m.sample_initial(
            {"kind": "gaussian", "mean": 0.0, "std": 0.8}, 32, quad_interacting.space, rng
        )
        obs = Observer(c1_moment_observer_fn(quad_interacting), stride=100)
        m.run_chain(quad_interacting, init, params, [obs], rng)
        records = np.asarray(obs.records)
        series = m.moment_constant_series(
            records[:, :3], records[:, 3:], quad_interacting.coeffs, 1
        )
        running = np.maximum.accumulate(series)
        at_three_quarters = running[int(0.75 * len(running)) - 1]
        assert at_three_quarters >= 0.9 * running[-1]

    def test_observer_matches_six_moment_formula(self, make_random_state):
        rng = RngStream(21)
        for model in (
            m.quadratic_model(1.0, 0.25),
            m.gauss_attract_repel_model(1.0, 0.1, 1.0, d=2),
            m.torus_trig_model(0.3, 0.2, d=2),
        ):
            fn = c1_moment_observer_fn(model)
            for scale in (0.5, 3.0):
                state = make_random_state(model, 9, rng, scale=scale)
                speed_sq = np.sum(state.velocities ** 2, axis=-1)
                grad = m.potential_gradient(model, state.positions)
                grad_sq = np.sum(grad * grad, axis=-1)
                expected = (
                    float(np.mean(speed_sq)),
                    float(np.mean(speed_sq ** 2)),
                    float(np.mean(speed_sq ** 3)),
                    float(np.mean(grad_sq)),
                    float(np.mean(grad_sq ** 2)),
                    float(np.mean(grad_sq ** 3)),
                )
                record = fn(0, state.readonly_view())
                assert type(record) is tuple
                assert [v.hex() for v in record] == [v.hex() for v in expected], model.name


class TestLongRunBoundedness:
    @pytest.mark.parametrize("model_name,h", [("quadratic", 0.05), ("gauss", 0.04)])
    def test_sixth_moments_do_not_grow(self, model_name, h, quad_interacting):
        model = (
            quad_interacting
            if model_name == "quadratic"
            else m.gauss_attract_repel_model(1.0, 5e-5, 1.0)
        )
        params = ChainParams(h=h, gamma=1.0, n_steps=100_000, master_seed=31)
        rng = RngStream(params.master_seed)
        n = 16
        init = ParticleState(np.full((n, 1), 3.0), 3.0 * rng.normal_matrix((n, 1)), model.space)
        series = []

        class Acc:
            def notify(self, step, state):
                if step % 10 == 0:
                    series.append(float(np.mean(
                        np.sum(state.positions ** 2, axis=1) ** 3
                        + np.sum(state.velocities ** 2, axis=1) ** 3
                    )))

        m.run_chain(model, init, params, [Acc()], rng)
        half = len(series) // 2
        first = max(series[:half])
        last = max(series[half:])
        assert last <= 1.1 * first


class TestKernelValuesMatchKernel:
    """The batched one-step kernel equals refresh then Verlet, draw by draw."""

    @pytest.mark.parametrize("variant", ["torus", "gauss"])
    def test_bitwise_per_draw(self, variant):
        from mfkl.lyapunov import kernel_values_monte_carlo

        rng = RngStream(12)
        n, d, draws = 4, 2, 1000
        if variant == "torus":
            model = m.torus_trig_model(0.3, 0.2, d=d)
            positions = rng.uniforms(n * d).reshape(n, d)
            spec = LyapunovSpec(kind=m.VELOCITY_SIXTH)
        else:
            model = m.gauss_attract_repel_model(1.0, 0.1, 1.0, d=d)
            positions = rng.normal_matrix((n, d))
            spec = LyapunovSpec(
                kind=m.ENERGY_CUBED, alpha=0.1, v_ref=model.external_potential
            )
        state = ParticleState(positions, rng.normal_matrix((n, d)), model.space)
        params = ChainParams(h=0.1, gamma=1.0, n_steps=1)
        values = kernel_values_monte_carlo(model, state, params, spec, draws, RngStream(5))
        gaussians = RngStream(5).normal_matrix((draws, n, d))
        expected = [
            m.lyapunov_value(
                spec,
                m.verlet_step(
                    model,
                    m.refresh_velocities(state, params.eta, gaussians=gaussians[k]),
                    params.h,
                ),
            )
            for k in range(draws)
        ]
        assert np.array_equal(values, np.asarray(expected))


def _euclidean_builtins():
    xs = np.array([[1.0, 0.5], [-0.5, 1.0], [0.25, -1.0]])
    return [
        m.quadratic_model(1.0, 0.25),
        m.quadratic_model(0.01, 0.0, d=2),
        m.quadratic_model(100.0, 1.0),
        m.gauss_attract_repel_model(1.0, 0.1, 1.0, d=2),
        m.gauss_attract_repel_model(0.0, 0.0, 5.0),
        m.flat_convex_regression_model(xs, np.array([1.0, 0.0, 1.0]), ridge_r=0.5),
    ]


@pytest.mark.parametrize("model", _euclidean_builtins(), ids=lambda model: model.name)
def test_for_model_alpha_never_exceeds_the_confinement_cap(model):
    # lyapunov_constants caps alpha at sqrt(c0/2), so for_model needs no re-check
    cap = math.sqrt(model.coeffs.c0 / 2.0)
    for gamma in np.geomspace(1e-3, 1e3, 61):
        spec = LyapunovSpec.for_model(model, float(gamma), n_particles=4)
        assert 0.0 < spec.alpha <= cap


def test_for_model_alpha_equals_the_cap_where_it_binds():
    quad = m.quadratic_model(1.0, 0.25)
    coeffs = m.ModelCoefficients(r_conf=1.0, c0=1e-4, c1=0.5)
    model = m.MeanFieldModel(space=quad.space, force=quad.force, coeffs=coeffs,
                             external_potential=quad.external_potential)
    assert LyapunovSpec.for_model(model, 1.0).alpha == math.sqrt(1e-4 / 2.0)


_QUAD = m.quadratic_model(1.0, 0.25)
_NO_POTENTIAL = m.MeanFieldModel(space=_QUAD.space, force=_QUAD.force, coeffs=_QUAD.coeffs)
_TORUS_STATE = ParticleState([[0.5]], [[0.0]], Space("torus", 1))
_STATE = ParticleState([[0.5]], [[0.0]], _QUAD.space)
_ENERGY = LyapunovSpec(kind=m.ENERGY_CUBED, alpha=0.1, v_ref=half_square)
_L123 = m.ModelCoefficients(l1=1.0, l2=1.0, l3=1.0)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: LyapunovSpec(kind="nope"), ConfigurationError,
                 "unknown Lyapunov kind 'nope'", id="unknown kind"),
    pytest.param(lambda: LyapunovSpec(kind=m.ENERGY_CUBED, alpha=-0.1, v_ref=half_square),
                 ConfigurationError, "alpha must be nonnegative", id="alpha<0"),
    pytest.param(lambda: LyapunovSpec(kind=m.ENERGY_CUBED, alpha=np.nan, v_ref=half_square),
                 ConfigurationError, "alpha must be nonnegative", id="alpha=nan"),
    pytest.param(lambda: LyapunovSpec(kind=m.ENERGY_CUBED, alpha=np.inf, v_ref=half_square),
                 ConfigurationError, "alpha must be finite", id="alpha=inf"),
    pytest.param(lambda: LyapunovSpec(kind=m.ENERGY_CUBED, alpha=0.1), ConfigurationError,
                 "energy_cubed needs the external potential", id="no v_ref"),
    pytest.param(lambda: LyapunovSpec.for_model(_NO_POTENTIAL, 1.0), CapabilityError,
                 "model does not expose its external potential", id="for_model no potential"),
    pytest.param(lambda: m.lyapunov_value(_ENERGY, _TORUS_STATE), ConfigurationError,
                 "energy_cubed is the Euclidean Lyapunov function", id="energy on torus"),
    pytest.param(
        lambda: kernel_values_monte_carlo(
            _QUAD, _STATE, ChainParams(0.05, 1.0, 1), _ENERGY, 999, RngStream(0)),
        ConfigurationError, "use at least 1000 Monte Carlo draws", id="m_draws=999"),
    pytest.param(lambda: m.gaussian_sixth_moment_exact(0), NumericalDomainError,
                 "dimension must be >= 1", id="sixth moment d=0"),
    pytest.param(lambda: m.gaussian_sixth_moment_bound(0), NumericalDomainError,
                 "dimension must be >= 1", id="sixth moment bound d=0"),
    pytest.param(lambda: m.refresh_sixth_moment_bound(0.5, 1.0, 0.2, 1), NumericalDomainError,
                 "eps must lie in (0, 1/10]", id="refresh eps"),
    pytest.param(lambda: m.refresh_sixth_moment_bound(1.0, 1.0, 0.1, 1), NumericalDomainError,
                 "eta must lie in (0, 1)", id="refresh eta"),
    pytest.param(lambda: m.refresh_sixth_moment_bound(0.5, -1.0, 0.1, 1), NumericalDomainError,
                 "need |w| >= 0 and d >= 1", id="refresh w<0"),
    pytest.param(lambda: m.refresh_sixth_moment_bound(0.5, np.nan, 0.1, 1), NumericalDomainError,
                 "need |w| >= 0 and d >= 1", id="refresh w=nan"),
    pytest.param(lambda: m.refresh_sixth_moment_bound(0.5, 1.0, 0.1, 0), NumericalDomainError,
                 "need |w| >= 0 and d >= 1", id="refresh d=0"),
    pytest.param(lambda: m.quad_form_cube_bound(-1.0, 0.0, 0.0, 1), NumericalDomainError,
                 "need a, c, |b| >= 0 and d >= 1", id="cube bound a<0"),
    pytest.param(lambda: m.quad_form_cube_bound(np.nan, 0.0, 0.0, 1), NumericalDomainError,
                 "need a, c, |b| >= 0 and d >= 1", id="cube bound a=nan"),
    pytest.param(lambda: m.quad_form_cube_bound(0.0, np.nan, 0.0, 1), NumericalDomainError,
                 "need a, c, |b| >= 0 and d >= 1", id="cube bound b=nan"),
    pytest.param(lambda: m.quad_form_cube_bound(0.0, 0.0, np.nan, 1), NumericalDomainError,
                 "need a, c, |b| >= 0 and d >= 1", id="cube bound c=nan"),
    pytest.param(lambda: m.moment_constant_series([[1.0, 2.0]], [[1.0, 2.0]], _L123, 1),
                 ConfigurationError, "moment records must be (T, 3) arrays", id="record shape"),
    pytest.param(lambda: m.estimate_moment_constant(np.zeros((0, 3)), np.zeros((0, 3)),
                                                    _L123, 1),
                 ConfigurationError, "no records supplied", id="no records"),
])
def test_raise_sites(raises_exactly, call, error, message):
    raises_exactly(call, error, message)
