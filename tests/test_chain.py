import itertools
import math
import re

import numpy as np
import pytest

import mfkl as m
from mfkl import (
    ChainParams,
    ConfigurationError,
    Observer,
    ObserverError,
    ParticleState,
    PerParticleStreams,
    RngStream,
    Space,
    StepSizeWarning,
)


class ZeroNoise:
    """Injected noise source producing exact zeros (deterministic branch)."""

    def normal_matrix(self, shape):
        return np.zeros(shape)


def zero_force_model(space=None):
    space = space or Space("euclidean", 1)
    return m.MeanFieldModel(
        space=space,
        force=lambda p, x: np.zeros_like(x),
        force_all=lambda p: np.zeros_like(p),
    )


class TestChainParams:
    def test_eta_derived(self):
        params = ChainParams(h=0.1, gamma=2.0, n_steps=10)
        assert params.eta == pytest.approx(0.8)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChainParams(h=0.0, gamma=1.0, n_steps=1)
        with pytest.raises(ConfigurationError):
            ChainParams(h=1.0, gamma=1.5, n_steps=1)
        with pytest.raises(ConfigurationError):
            ChainParams(h=0.1, gamma=1.0, n_steps=-1)

    def test_step_size_warning(self, torus_model):
        params = ChainParams(h=0.1, gamma=1.0, n_steps=1, master_seed=1)
        init = m.sample_initial({"kind": "uniform"}, 4, torus_model.space, RngStream(0))
        with pytest.warns(StepSizeWarning):
            m.run_chain(torus_model, init, params, [], RngStream(0))

    def test_no_warning_for_small_step(self, quad_plain):
        params = ChainParams(h=0.05, gamma=1.0, n_steps=1, master_seed=1)
        init = m.sample_initial({"kind": "point", "at": 0.0}, 2, quad_plain.space, RngStream(0))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", StepSizeWarning)
            m.run_chain(quad_plain, init, params, [], RngStream(0))


class TestVerlet:
    def test_free_flight(self):
        model = zero_force_model()
        state = ParticleState(np.array([[0.5]]), np.array([[2.0]]), model.space)
        new = m.verlet_step(model, state, 0.25)
        assert np.allclose(new.positions, [[1.0]])
        assert np.array_equal(new.velocities, state.velocities)

    def test_harmonic_hand_values(self, quad_plain):
        state = ParticleState(np.array([[1.0]]), np.array([[0.0]]), quad_plain.space)
        new = m.verlet_step(quad_plain, state, 0.1)
        assert new.positions[0, 0] == pytest.approx(0.995, abs=1e-15)
        assert new.velocities[0, 0] == pytest.approx(-0.09975, abs=1e-15)

    @pytest.mark.parametrize("model_name", ["quadratic", "gauss", "torus"])
    def test_reversibility(self, model_name, quad_interacting, torus_model):
        model = {
            "quadratic": quad_interacting,
            "gauss": m.gauss_attract_repel_model(1.0, 0.1, 1.0),
            "torus": torus_model,
        }[model_name]
        rng = RngStream(202)
        for _ in range(50):
            if model.space.is_torus:
                x = rng.uniforms(6).reshape(6, 1)
            else:
                x = rng.normal_matrix((6, 1))
            v = rng.normal_matrix((6, 1))
            state = ParticleState(x, v, model.space)
            forward = m.verlet_step(model, state, 0.05)
            back = m.verlet_step(
                model,
                ParticleState(forward.positions, -forward.velocities, model.space),
                0.05,
            )
            dx = model.space.min_image(back.positions - state.positions)
            dv = -back.velocities - state.velocities
            scale = 1.0 + float(np.max(np.abs(state.positions)))
            assert np.max(np.abs(dx)) <= 1e-9 * scale
            assert np.max(np.abs(dv)) <= 1e-9 * (1.0 + float(np.max(np.abs(v))))

    def test_energy_error_is_third_order(self, quad_plain):
        def hamiltonian(state):
            return m.system_potential(quad_plain, state.positions) + 0.5 * float(
                np.sum(state.velocities ** 2)
            )

        rng = RngStream(77)
        states = [
            ParticleState(2.0 * rng.normal_matrix((4, 1)), 2.0 * rng.normal_matrix((4, 1)),
                          quad_plain.space)
            for _ in range(50)
        ]
        hs = [0.2, 0.1, 0.05, 0.025]
        worst = []
        for h in hs:
            ratios = []
            for state in states:
                new = m.verlet_step(quad_plain, state, h)
                z = math.sqrt(float(np.sum(state.positions ** 2) + np.sum(state.velocities ** 2)))
                ratios.append(abs(hamiltonian(new) - hamiltonian(state)) / (1.0 + z ** 3))
            worst.append(max(ratios))
        slope = np.polyfit(np.log(hs), np.log(worst), 1)[0]
        assert 2.5 <= slope <= 3.5


class TestRefresh:
    def test_injected_zero_noise(self):
        state = ParticleState(np.array([[0.0]]), np.array([[2.0]]), Space("euclidean", 1))
        out = m.refresh_velocities(state, 0.9, gaussians=np.zeros((1, 1)))
        assert out.velocities[0, 0] == pytest.approx(1.8)
        assert np.array_equal(out.positions, state.positions)

    def test_eta_domain(self):
        state = ParticleState(np.zeros((1, 1)), np.zeros((1, 1)), Space("euclidean", 1))
        with pytest.raises(ConfigurationError):
            m.refresh_velocities(state, 1.0, gaussians=np.zeros((1, 1)))

    def test_gaussian_stationarity_moments(self):
        # the refresh is an AR(1) step whose invariant law is standard normal
        rng = RngStream(5150)
        n = 100_000
        state = ParticleState(
            np.zeros((n, 1)), rng.normal_matrix((n, 1)), Space("euclidean", 1)
        )
        out = m.refresh_velocities(state, 0.9, rng)
        v = out.velocities[:, 0]
        for order, mean, var in [(2, 1.0, 2.0), (4, 3.0, 96.0), (6, 15.0, 10170.0)]:
            std_err = math.sqrt(var / n)
            assert abs(np.mean(v ** order) - mean) <= 3.0 * std_err, order

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sixth_moment_bound(self, d):
        # Monte Carlo mean stays under the closed-form refresh bound
        eta, eps = 0.9, 0.1
        rng = RngStream(88 + d)
        w = np.full(d, 1.3 / math.sqrt(d))
        g = rng.normal_matrix((200_000, d))
        vals = np.sum((eta * w + math.sqrt(1 - eta * eta) * g) ** 2, axis=1) ** 3
        bound = m.refresh_sixth_moment_bound(eta, float(np.linalg.norm(w)), eps, d)
        std_err = vals.std(ddof=1) / math.sqrt(len(vals))
        assert vals.mean() - 3.0 * std_err <= bound


# signed zeros, subnormals, normals and values whose sum overflows
_KICK_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, -1e-310, 1.0, -3.5,
                1.7e308, -1.7e308, 2.0 ** 1023]


@pytest.mark.parametrize("size", ["one", "large"])
def test_kick_matches_textbook_form_bitwise(size):
    # _verlet kicks with (-h/2)(g0 + g1) + v: the bits of v - (h/2)(g0 + g1)
    # at every size, single elements and arrays of 256 KiB or more, where
    # numpy reuses the temporary's buffer
    from mfkl.chain import _verlet

    h = 0.1
    triples = np.array(list(itertools.product(_KICK_VALUES, repeat=3)))
    if size == "one":
        cases = [column[:, None] for column in triples[:, :, None]]
    else:  # 40 * 11^3 rows of 8 bytes: 416 KiB
        cases = [np.ascontiguousarray(np.tile(triples, (40, 1)).T)[:, :, None]]
    for v, g0, g1 in cases:
        model = m.MeanFieldModel(space=Space("euclidean", 1), force=None,
                                 force_all=lambda positions, g1=g1: g1)
        with np.errstate(over="ignore"):
            _, v_new, _ = _verlet(model, model.space, np.zeros_like(v), v, h, g0)
            expected = v - (0.5 * h) * (g0 + g1)
        assert v_new.tobytes() == expected.tobytes()


class TestKernelStep:
    def test_zero_force_deterministic_branch(self):
        model = zero_force_model()
        params = ChainParams(h=0.1, gamma=1.0, n_steps=1)
        state = ParticleState(np.array([[1.0]]), np.array([[2.0]]), model.space)
        out = m.kernel_step(model, state, params, ZeroNoise())
        eta = params.eta
        assert out.positions[0, 0] == pytest.approx(1.0 + 0.1 * eta * 2.0)
        assert out.velocities[0, 0] == pytest.approx(eta * 2.0)

    def test_same_seed_bitwise(self, quad_interacting):
        params = ChainParams(h=0.05, gamma=1.0, n_steps=1)
        state = m.sample_initial(
            {"kind": "gaussian", "mean": 0.0, "std": 1.0}, 6, quad_interacting.space,
            RngStream(4),
        )
        a = m.kernel_step(quad_interacting, state, params, RngStream(9))
        b = m.kernel_step(quad_interacting, state, params, RngStream(9))
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.velocities, b.velocities)

    def test_long_run_variance_window(self, quad_plain):
        # scalar Gaussian target: empirical Var(x) within the h^2 bias window
        params = ChainParams(h=0.1, gamma=1.0, n_steps=1_000_000, master_seed=6001)
        rng = RngStream(params.master_seed)
        init = m.sample_initial({"kind": "point", "at": 0.0}, 1, quad_plain.space, rng)
        total = {"sum": 0.0, "count": 0}

        class Acc:
            def notify(self, step, state):
                if step > 10_000:
                    total["sum"] += float(state.positions[0, 0] ** 2)
                    total["count"] += 1

        m.run_chain(quad_plain, init, params, [Acc()], rng)
        var = total["sum"] / total["count"]
        assert 0.98 <= var <= 1.03
        oracle = m.stationary_covariance_quadratic(1.0, 1.0, 0.1)[0, 0]
        assert var == pytest.approx(oracle, abs=0.02)


class TestRunChain:
    def test_zero_steps_identity(self, quad_interacting):
        init = m.sample_initial(
            {"kind": "gaussian", "mean": 0.0, "std": 1.0}, 4, quad_interacting.space,
            RngStream(1),
        )
        params = ChainParams(h=0.05, gamma=1.0, n_steps=0)
        final, _ = m.run_chain(quad_interacting, init, params, [], RngStream(2))
        assert np.array_equal(final.positions, init.positions)
        assert np.array_equal(final.velocities, init.velocities)

    def test_default_rng_is_the_master_seed_stream(self, quad_interacting):
        init = m.sample_initial(
            {"kind": "gaussian", "mean": 0.0, "std": 1.0}, 4, quad_interacting.space,
            RngStream(1),
        )
        params = ChainParams(h=0.05, gamma=1.0, n_steps=20, master_seed=41)
        default, _ = m.run_chain(quad_interacting, init, params)
        seeded, _ = m.run_chain(quad_interacting, init, params, rng=RngStream(41))
        assert np.array_equal(default.positions, seeded.positions)
        assert np.array_equal(default.velocities, seeded.velocities)

    def test_observer_stride_record_count(self, quad_plain):
        init = m.sample_initial({"kind": "point", "at": 0.0}, 2, quad_plain.space, RngStream(1))
        params = ChainParams(h=0.05, gamma=1.0, n_steps=100)
        obs = Observer(lambda step, state: step, stride=10)
        _, records = m.run_chain(quad_plain, init, params, [obs], RngStream(3))
        assert records[0] == [0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100]

    def test_observer_failure_aborts_with_context(self, quad_plain):
        init = m.sample_initial({"kind": "point", "at": 0.0}, 2, quad_plain.space, RngStream(1))
        params = ChainParams(h=0.05, gamma=1.0, n_steps=10)

        def boom(step, state):
            if step == 5:
                raise ValueError("broken observer")
            return step

        with pytest.raises(ObserverError, match="step 5"):
            m.run_chain(quad_plain, init, params, [Observer(boom)], RngStream(3))

    @pytest.mark.parametrize("stride", [1, 3])
    def test_observer_cannot_write_the_state(self, quad_plain, stride):
        init = m.sample_initial({"kind": "point", "at": 0.0}, 2, quad_plain.space, RngStream(1))
        params = ChainParams(h=0.05, gamma=1.0, n_steps=4)

        def scribble(step, state):
            if step > 0:
                state.positions[0, 0] = 1.0
            return step

        with pytest.raises(ObserverError, match=f"step {stride}"):
            m.run_chain(quad_plain, init, params, [Observer(scribble, stride)], RngStream(3))

    @pytest.mark.parametrize("observed", [False, True])
    def test_overflowing_positions_raise(self, observed):
        model = zero_force_model()
        init = ParticleState([[1.7e308]], [[1e308]], model.space)
        params = ChainParams(h=0.5, gamma=1.0, n_steps=3)

        def finite_only(step, state):
            assert np.isfinite(state.positions).all(), "observer saw non-finite positions"
            return step

        observers = [Observer(finite_only)] if observed else []
        with np.errstate(over="ignore"), pytest.raises(m.NumericalDomainError,
                                                      match="non-finite"):
            m.run_chain(model, init, params, observers, RngStream(3))

    def test_finite_state_whose_sum_overflows_runs(self):
        # the one-sum finiteness screen overflows to inf here; the exact
        # np.isfinite pass behind it must clear the finite state
        model = zero_force_model()
        params = ChainParams(h=0.01, gamma=1.0, n_steps=5)
        with np.errstate(over="ignore"):
            init = ParticleState([[1e308], [1e308]], [[0.0], [0.0]], model.space)
            final, _ = m.run_chain(model, init, params, [Observer(lambda s, st: s)],
                                   RngStream(3))
        assert np.array_equal(final.positions, init.positions)
        assert np.isfinite(final.velocities).all()

    def test_nan_force_names_particle(self):
        calls = []

        def force_all(positions):
            calls.append(None)
            out = np.zeros_like(positions)
            if len(calls) > 2:  # step 1 evaluates two gradients
                out[1] = np.nan
            return out

        model = m.MeanFieldModel(space=Space("euclidean", 1), force=None, force_all=force_all)
        init = ParticleState(np.zeros((3, 1)), np.zeros((3, 1)), model.space)
        params = ChainParams(h=0.1, gamma=1.0, n_steps=4)
        with pytest.raises(m.NumericalDomainError,
                           match=r"step 2: non-finite force at particle index \(1,\)"):
            m.run_chain(model, init, params, [], RngStream(3))

    def test_gradient_cache_matches_naive_kernel(self, quad_interacting, torus_model):
        for model in (quad_interacting, torus_model):
            if model.space.is_torus:
                init_law = {"kind": "uniform"}
            else:
                init_law = {"kind": "gaussian", "mean": 0.0, "std": 1.0}
            init = m.sample_initial(init_law, 5, model.space, RngStream(21))
            params = ChainParams(h=0.02, gamma=1.0, n_steps=100)
            fast, _ = m.run_chain(model, init.copy(), params, [], RngStream(77))
            state = init.copy()
            rng = RngStream(77)
            for _ in range(params.n_steps):
                state = m.kernel_step(model, state, params, rng)
            assert np.array_equal(fast.positions, state.positions), model.name
            assert np.array_equal(fast.velocities, state.velocities), model.name

    def test_determinism_full_run(self, quad_interacting):
        params = ChainParams(h=0.05, gamma=1.0, n_steps=200, master_seed=99)
        outs = []
        for _ in range(2):
            rng = RngStream(params.master_seed)
            init = m.sample_initial(
                {"kind": "gaussian", "mean": 0.0, "std": 1.0}, 8, quad_interacting.space, rng
            )
            final, _ = m.run_chain(quad_interacting, init, params, [], rng)
            outs.append(final)
        assert np.array_equal(outs[0].positions, outs[1].positions)
        assert np.array_equal(outs[0].velocities, outs[1].velocities)

    def test_exchangeability_under_relabeling(self, quad_interacting):
        # per-particle substreams travel with their particles, so relabeling
        # at initialization permutes the whole trajectory
        n, seed = 6, 4242
        base_ranks = list(range(n))
        init_rng = RngStream(11)
        positions = init_rng.normal_matrix((n, 1))
        velocities = init_rng.normal_matrix((n, 1))
        params = ChainParams(h=0.05, gamma=1.0, n_steps=50)
        sigma = [4, 2, 0, 5, 1, 3]

        run_a, _ = m.run_chain(
            quad_interacting,
            ParticleState(positions, velocities, quad_interacting.space),
            params,
            [],
            PerParticleStreams(seed, base_ranks),
        )
        run_b, _ = m.run_chain(
            quad_interacting,
            ParticleState(positions[sigma], velocities[sigma], quad_interacting.space),
            params,
            [],
            PerParticleStreams(seed, sigma),
        )
        assert np.array_equal(run_b.positions, run_a.positions[sigma])
        assert np.array_equal(run_b.velocities, run_a.velocities[sigma])

    def test_torus_moment_stays_under_drift_ceiling(self, torus_model):
        # consequence of the explicit torus drift bound, with 5% slack
        n = 32
        params = ChainParams(h=0.05, gamma=1.0, n_steps=100_000, master_seed=2024)
        rng = RngStream(params.master_seed)
        init = m.sample_initial({"kind": "uniform"}, n, torus_model.space, rng)
        running = {"max": 0.0}

        class Acc:
            def notify(self, step, state):
                if step % 10 == 0:
                    v6 = float(np.mean(np.sum(state.velocities ** 2, axis=-1) ** 3))
                    running["max"] = max(running["max"], v6)

        with pytest.warns(StepSizeWarning):
            m.run_chain(torus_model, init, params, [Acc()], rng)
        df_sup = torus_model.coeffs.df_sup
        ceiling = max(15.0, 766.0 + df_sup ** 6) * 1.05
        assert running["max"] <= ceiling


class TestSampleInitial:
    def test_point_mass(self):
        state = m.sample_initial({"kind": "point", "at": 0.0}, 4, Space("euclidean", 2),
                                 RngStream(3))
        assert np.array_equal(state.positions, np.zeros((4, 2)))
        assert not np.array_equal(state.velocities, np.zeros((4, 2)))

    def test_velocity_sixth_moment_matches_wick(self):
        state = m.sample_initial(
            {"kind": "point", "at": 0.0}, 100_000, Space("euclidean", 2), RngStream(303)
        )
        v6 = np.sum(state.velocities ** 2, axis=1) ** 3
        exact = m.gaussian_sixth_moment_exact(2)
        std_err = v6.std(ddof=1) / math.sqrt(len(v6))
        assert abs(v6.mean() - exact) <= 3.0 * std_err

    def test_sixth_moment_identities(self):
        assert m.gaussian_sixth_moment_exact(1) == 15.0 == m.gaussian_sixth_moment_bound(1)
        assert m.gaussian_sixth_moment_exact(3) == 105.0 <= m.gaussian_sixth_moment_bound(3)

    def test_gaussian_on_torus_needs_wrap(self):
        with pytest.raises(ConfigurationError):
            m.sample_initial(
                {"kind": "gaussian", "mean": 0.5, "std": 0.1}, 4, Space("torus", 1),
                RngStream(1),
            )
        state = m.sample_initial(
            {"kind": "gaussian", "mean": 0.5, "std": 0.1, "wrap": True}, 4,
            Space("torus", 1), RngStream(1),
        )
        assert (state.positions >= 0.0).all() and (state.positions < 1.0).all()

    def test_negative_std_rejected(self):
        with pytest.raises(ConfigurationError, match="std"):
            m.sample_initial({"kind": "gaussian", "std": -1.0}, 4, Space("euclidean", 1),
                             RngStream(1))

    @pytest.mark.parametrize("law, field", [
        ({"kind": "point", "at": 0.5, "std": 1.0}, "std"),
        ({"kind": "point", "at": 0.5, "wrap": True}, "wrap"),
        ({"kind": "gaussian", "mean": 0.5, "wrap": True, "at": 0.5}, "at"),
        ({"kind": "uniform", "mean": 0.5}, "mean"),
        ({"kind": "uniform", "at": 0.5}, "at"),
    ])
    def test_field_the_law_does_not_read_rejected(self, law, field):
        with pytest.raises(ConfigurationError, match=f"does not read field\\(s\\): {field}"):
            m.sample_initial(law, 4, Space("torus", 1), RngStream(1))

    @pytest.mark.parametrize("wrap", [True, False])
    def test_wrap_on_euclidean_space_rejected(self, wrap):
        with pytest.raises(ConfigurationError, match=r"does not read field\(s\): wrap"):
            m.sample_initial({"kind": "gaussian", "mean": 0.5, "wrap": wrap}, 4,
                             Space("euclidean", 1), RngStream(1))

    def test_uniform_is_torus_only(self):
        with pytest.raises(ConfigurationError):
            m.sample_initial({"kind": "uniform"}, 4, Space("euclidean", 1), RngStream(1))


class TestRunReplicas:
    def test_matches_hand_loop_bitwise(self, quad_interacting):
        from mfkl.chain import run_replicas

        params = ChainParams(h=0.05, gamma=1.0, n_steps=30, master_seed=77)
        law = {"kind": "gaussian", "mean": 0.5, "std": 1.0}

        def observe(step, state):
            return step, state.positions.copy(), state.velocities.copy()

        runs = run_replicas(quad_interacting, law, 5, params, 4, observe, 7)
        assert len(runs) == 4
        for k, (final, records) in enumerate(runs):
            rng = RngStream(m.derive_seed(77, k))
            init = m.sample_initial(law, 5, quad_interacting.space, rng)
            obs = Observer(observe, stride=7)
            ref, _ = m.run_chain(quad_interacting, init, params, [obs], rng)
            assert final.positions.tobytes() == ref.positions.tobytes()
            assert final.velocities.tobytes() == ref.velocities.tobytes()
            assert [s for s, _, _ in records] == [0, 7, 14, 21, 28]
            for (s, x, v), (s_ref, x_ref, v_ref) in zip(records, obs.records, strict=True):
                assert s == s_ref
                assert x.tobytes() == x_ref.tobytes() and v.tobytes() == v_ref.tobytes()

    def test_without_observer_records_nothing(self, quad_interacting):
        from mfkl.chain import run_replicas

        params = ChainParams(h=0.05, gamma=1.0, n_steps=3, master_seed=1)
        runs = run_replicas(quad_interacting, {"kind": "point", "at": 0.0}, 2, params, 2)
        assert [records for _, records in runs] == [[], []]

    @pytest.mark.parametrize("law, init_calls", [
        ({"kind": "point", "at": 0.0}, 1),
        ({"kind": "gaussian", "mean": 0.0, "std": 1.0}, 2),
    ])
    def test_call_counts_match_closed_forms(self, quad_interacting, monkeypatch, law,
                                            init_calls):
        """One normals call per step (plus the initial draws) and one gradient
        per step plus one at start, per replica: the counts a traced
        benchmark run checks."""
        import mfkl.chain as chain_module
        from mfkl.chain import run_replicas

        calls = {"normals": 0, "gradient": 0}
        normals, gradient = RngStream.normals, chain_module.potential_gradient

        def counted_normals(self, n):
            calls["normals"] += 1
            return normals(self, n)

        def counted_gradient(model, positions):
            calls["gradient"] += 1
            return gradient(model, positions)

        monkeypatch.setattr(RngStream, "normals", counted_normals)
        monkeypatch.setattr(chain_module, "potential_gradient", counted_gradient)
        params = ChainParams(h=0.05, gamma=1.0, n_steps=600, master_seed=5)

        init = m.sample_initial(law, 3, quad_interacting.space, RngStream(4))
        calls.update(normals=0, gradient=0)
        m.run_chain(quad_interacting, init, params, [Observer(lambda s, x: s)], RngStream(5))
        assert calls == {"normals": params.n_steps, "gradient": params.n_steps + 1}

        calls.update(normals=0, gradient=0)
        run_replicas(quad_interacting, law, 3, params, 4, lambda s, x: s)
        assert calls == {"normals": 4 * (params.n_steps + init_calls),
                         "gradient": 4 * (params.n_steps + 1)}

    @pytest.mark.parametrize("n, h, n_steps, burn_in",
                             [(8, 0.05, 1600, 200), (32, 0.07, 1100, 150)])
    def test_time_average_matches_exact_interacting_second_moment(self, quad_interacting,
                                                                  n, h, n_steps, burn_in):
        """The chain's law of x_i^2 at N > 1, where the interaction acts.

        The quadratic force is linear, so the chain splits into modes: the
        particle mean moves at stiffness r with noise of variance 1/N, and
        each of the N - 1 deviations from it at stiffness r + 2s.  With P(k)
        the scalar chain's exact stationary variance at stiffness k, every
        particle has E x_i^2 = P(r)/N + P(r + 2s)(1 - 1/N) under the chain's
        stationary law (0.708959 at N = 8, h = 0.05).  The chain reads
        z = +0.54 and -0.20 here; with s halved in the force it read +6.4
        and +13.5.
        """
        from mfkl.chain import run_replicas

        r, s, reps = 1.0, 0.25, 12
        exact = (m.stationary_covariance_quadratic(r, 1.0, h)[0, 0] / n
                 + m.stationary_covariance_quadratic(r + 2.0 * s, 1.0, h)[0, 0] * (1.0 - 1.0 / n))
        params = ChainParams(h=h, gamma=1.0, n_steps=n_steps, master_seed=1)
        law = {"kind": "gaussian", "mean": 0.0, "std": 1.0}
        runs = run_replicas(quad_interacting, law, n, params, reps,
                            lambda step, state: float(np.mean(state.positions ** 2)), 4)
        # observed at steps 0, 4, 8, ...: each replica's average after burn-in
        averages = np.array([np.mean(records[burn_in // 4:]) for _, records in runs])
        std_err = averages.std(ddof=1) / math.sqrt(reps)
        assert abs(averages.mean() - exact) <= 4.0 * std_err, (averages.mean(), exact, std_err)


_QUAD = m.quadratic_model(1.0, 0.25)
_R1 = Space("euclidean", 1)
_PARAMS = ChainParams(h=0.05, gamma=1.0, n_steps=1)


@pytest.mark.parametrize("field, value, build", [
    (field, value, build)
    for field, build in [
        ("n_steps", lambda v: ChainParams(0.1, 1.0, v)),
        ("master_seed", lambda v: ChainParams(0.1, 1.0, 1, master_seed=v)),
        ("stride", lambda v: Observer(len, stride=v)),
        ("n_cells", lambda v: m.GridSpec(0.0, 1.0, v)),
        ("d", lambda v: Space("euclidean", v)),
        ("reps", lambda v: m.quadratic_risk(
            _QUAD, np.sin, _PARAMS, 2, v, 0.0, {"kind": "point"})),
        ("n_particles", lambda v: m.sample_initial({"kind": "point"}, v, _R1, RngStream(0))),
    ]
    for value in (math.nan, 2.5, 8.5, True, "3")
])
def test_integer_inputs_reject_non_integers(field, value, build):
    # the config schema rejects these too; library callers get the same error
    with pytest.raises(ConfigurationError,
                       match=rf"^{field} must be an integer, got {re.escape(repr(value))}$"):
        build(value)


def test_integer_inputs_accept_numpy_integers():
    params = ChainParams(0.1, 1.0, np.int32(3), master_seed=np.uint64(2 ** 64 - 1))
    assert (params.n_steps, params.master_seed) == (3, 2 ** 64 - 1)
    assert m.GridSpec(0.0, 1.0, np.int64(4)).centers.shape == (4,)
    assert Observer(len, stride=np.int64(2)).stride == 2


_TORUS_STATE = ParticleState([[0.5]], [[0.0]], Space("torus", 1))
_STATE = ParticleState([[0.5]], [[0.0]], _R1)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: m.verlet_step(_QUAD, _STATE, 0.0), ConfigurationError,
                 "step size h must be positive", id="verlet_step h=0"),
    pytest.param(lambda: m.run_chain(_QUAD, _TORUS_STATE, _PARAMS), ConfigurationError,
                 "initial state does not live in the model's space", id="run_chain space"),
    pytest.param(lambda: ChainParams(0.1, 0.0, 1), ConfigurationError,
                 "friction gamma must be positive", id="gamma=0"),
    pytest.param(lambda: ChainParams(0.1, math.nan, 1), ConfigurationError,
                 "friction gamma must be positive", id="gamma=nan"),
    pytest.param(lambda: ChainParams(0.1, 1.0, 1, master_seed=-1), ConfigurationError,
                 "master_seed must fit in 64 bits", id="seed=-1"),
    pytest.param(lambda: ChainParams(0.1, 1.0, 1, master_seed=2 ** 64), ConfigurationError,
                 "master_seed must fit in 64 bits", id="seed=2**64"),
    pytest.param(lambda: m.refresh_velocities(_STATE, 0.5), ConfigurationError,
                 "refresh needs an rng or injected gaussians", id="refresh without noise"),
    pytest.param(lambda: Observer(len, stride=0), ConfigurationError,
                 "observer stride must be >= 1", id="stride=0"),
    pytest.param(lambda: m.sample_initial({"kind": "point"}, 0, _R1, RngStream(0)),
                 ConfigurationError, "need at least one particle", id="draw n=0"),
])
def test_raise_sites(raises_exactly, call, error, message):
    raises_exactly(call, error, message)
