import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfkl as m
from mfkl import (
    ChainParams,
    ConfigurationError,
    GridDensity,
    GridSpec,
    NumericalDomainError,
    RngStream,
)
from mfkl.risk import _fit_line


def gaussian_reference(n_cells=2001):
    grid = GridSpec(-8.0, 8.0, n_cells)
    return GridDensity.from_unnormalized(grid, np.exp(-0.5 * grid.centers ** 2))


class TestQuadraticRisk:
    def test_constant_observable_is_exactly_zero(self, quad_interacting):
        params = ChainParams(h=0.05, gamma=1.0, n_steps=50, master_seed=8)
        est = m.quadratic_risk(
            quad_interacting,
            lambda x: np.full(x.shape[0], 2.5),
            params, 4, 8, 2.5, {"kind": "gaussian", "mean": 0.0, "std": 1.0},
        )
        assert est.value == 0.0
        assert est.std_err == 0.0

    def test_minimum_replicas(self, quad_interacting):
        params = ChainParams(h=0.05, gamma=1.0, n_steps=10)
        with pytest.raises(ConfigurationError):
            m.quadratic_risk(
                quad_interacting, lambda x: x[:, 0], params, 4, 7, 0.0,
                {"kind": "gaussian", "mean": 0.0, "std": 1.0},
            )

    def test_risk_bound_consistency_with_surrogates(self, quad_interacting,
                                                    quad_oracle_density):
        # measured risk stays under the theory bound with histogram
        # surrogates for the total variation and entropy terms
        params = ChainParams(h=0.05, gamma=1.0, n_steps=1500, master_seed=77)
        f = lambda x: np.clip(np.sum(x * x, axis=-1), 0.0, 25.0)
        f_sup = 25.0
        oracle_mean = m.reference_expectation(
            quad_oracle_density, lambda x: np.clip(x * x, 0.0, 25.0)
        )
        init = {"kind": "gaussian", "mean": 0.0, "std": 1.0}
        n_particles = 16
        est = m.quadratic_risk(
            quad_interacting, f, params, n_particles, 16, oracle_mean, init
        )
        pooled = []
        for k in range(16):
            rng = RngStream(m.derive_seed(params.master_seed, k))
            start = m.sample_initial(init, n_particles, quad_interacting.space, rng)
            final, _ = m.run_chain(quad_interacting, start, params, [], rng)
            pooled.append(final.positions[:, 0])
        samples = np.concatenate(pooled)
        tv_hat = m.histogram_divergence(samples, quad_oracle_density, 50, "tv")
        kl_hat = m.histogram_divergence(samples, quad_oracle_density, 50, "kl")
        bound = m.risk_bounds(
            f_sup, n_particles, kl_hat, "tv2", tv=tv_hat
        ) + 3.0 * est.std_err
        assert est.value <= bound


class TestEmpiricalMoments:
    def test_zero_states(self, quad_plain):
        states = [
            m.ParticleState(np.zeros((4, 1)), np.zeros((4, 1)), quad_plain.space)
            for _ in range(3)
        ]
        series = m.empirical_moments(states)
        for p in (2, 4, 6):
            assert series.position_max(p) == 0.0
            assert series.velocity_max(p) == 0.0

    def test_iid_gaussian_sixth_moment(self):
        rng = RngStream(99)
        state = m.ParticleState(
            np.zeros((100_000, 1)), rng.normal_matrix((100_000, 1)),
            m.Space("euclidean", 1),
        )
        series = m.empirical_moments([state], orders=(6,))
        std_err = math.sqrt(10170.0 / 100_000)
        assert abs(series.velocity[6][0] - 15.0) <= 3.0 * std_err

    def test_stationary_second_moment_matches_oracle(self, quad_interacting,
                                                     quad_oracle_density):
        params = ChainParams(h=0.05, gamma=1.0, n_steps=30_000, master_seed=21)
        rng = RngStream(params.master_seed)
        init = m.sample_initial(
            {"kind": "gaussian", "mean": 0.0, "std": 0.8}, 32, quad_interacting.space, rng
        )
        kept = []

        class Acc:
            def notify(self, step, state):
                if step >= 2000 and step % 5 == 0:
                    kept.append(float(np.mean(state.positions[:, 0] ** 2)))

        m.run_chain(quad_interacting, init, params, [Acc()], rng)
        values = np.asarray(kept)
        batches = values[: len(values) // 20 * 20].reshape(20, -1).mean(axis=1)
        std_err = batches.std(ddof=1) / math.sqrt(len(batches))
        allowance = 3.0 * std_err + 0.02 * params.h ** 2
        assert abs(values.mean() - quad_oracle_density.variance()) <= allowance

    def test_orders_validated(self):
        with pytest.raises(ConfigurationError):
            m.empirical_moments([], orders=(3,))


class TestHistogramDivergence:
    def test_identical_histograms(self):
        ref = gaussian_reference()
        rng = RngStream(1)
        samples = rng.normals(20_000)
        assert m.histogram_divergence(samples, ref, 50, "kl") >= 0.0
        # comparing binned masses of the reference against itself
        centers = ref.centers
        weights = ref.values * ref.dx
        resampled = np.repeat(centers, np.round(weights * 10_000).astype(int))
        tv = m.histogram_divergence(resampled, ref, 50, "tv")
        assert tv < 5e-3

    def test_self_draw_small_tv(self):
        ref = gaussian_reference()
        samples = RngStream(11).normals(100_000)
        assert m.histogram_divergence(samples, ref, 50, "tv") <= 0.03

    def test_disjoint_supports(self):
        grid = GridSpec(0.0, 1.0, 100)
        left = GridDensity.from_unnormalized(
            grid, np.where(grid.centers < 0.5, 1.0, 0.0)
        )
        samples = np.full(1000, 0.9)
        assert m.histogram_divergence(samples, left, 10, "tv") == pytest.approx(1.0)

    def test_infinite_kl_flag(self):
        grid = GridSpec(0.0, 1.0, 100)
        left = GridDensity.from_unnormalized(
            grid, np.where(grid.centers < 0.5, 1.0, 0.0)
        )
        value = m.histogram_divergence(np.full(100, 0.9), left, 10, "kl")
        assert math.isinf(value) and value > 0

    def test_clipping_reports_count(self):
        ref = gaussian_reference()
        samples = np.concatenate([np.zeros(100), np.full(3, 100.0)])
        with pytest.warns(UserWarning, match="3 of 103"):
            m.histogram_divergence(samples, ref, 10, "tv")

    def test_pinsker_on_random_histograms(self):
        ref = gaussian_reference()
        rng = RngStream(23)
        for scale in (0.5, 1.0, 2.0):
            samples = scale * rng.normals(5000)
            tv = m.histogram_divergence(samples, ref, 40, "tv")
            kl = m.histogram_divergence(samples, ref, 40, "kl")
            if math.isfinite(kl):
                assert tv <= math.sqrt(kl / 2.0) + 1e-12

    def test_tv_range_and_triangle(self):
        grid = GridSpec(-4.0, 4.0, 200)
        c = grid.centers
        densities = [
            GridDensity.from_unnormalized(grid, np.exp(-0.5 * (c - mu) ** 2))
            for mu in (-1.0, 0.0, 1.5)
        ]
        tv01 = m.density_total_variation(densities[0], densities[1])
        tv12 = m.density_total_variation(densities[1], densities[2])
        tv02 = m.density_total_variation(densities[0], densities[2])
        for tv in (tv01, tv12, tv02):
            assert 0.0 <= tv <= 1.0
        assert tv02 <= tv01 + tv12 + 1e-12


class TestGeometricRate:
    def test_exact_geometric(self):
        series = 3.0 * 0.9 ** np.arange(40)
        fit = m.fit_geometric_rate(series)
        assert fit.rate == pytest.approx(0.9, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_noisy_geometric(self):
        rng = np.random.RandomState(3)
        series = 3.0 * 0.9 ** np.arange(100) * np.exp(0.05 * rng.randn(100))
        fit = m.fit_geometric_rate(series)
        assert fit.rate == pytest.approx(0.9, abs=0.01)
        assert fit.r_squared > 0.95

    def test_domain_errors(self):
        with pytest.raises(NumericalDomainError):
            m.fit_geometric_rate([1.0, -1.0] + [1.0] * 10)
        with pytest.raises(ConfigurationError):
            m.fit_geometric_rate([1.0] * 5)

    @given(rate=st.floats(0.5, 0.99), scale=st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_recovers_any_exact_rate(self, rate, scale):
        series = scale * rate ** np.arange(25)
        fit = m.fit_geometric_rate(series)
        assert fit.rate == pytest.approx(rate, rel=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_centred_least_squares_bitwise(self, seed):
        # reference: the centred slope / residual arithmetic written out
        rng = np.random.RandomState(seed)
        series = 3.0 * 0.9 ** np.arange(60) * np.exp(0.1 * rng.randn(60))
        y = np.log(series)
        t = np.arange(series.size, dtype=float)
        tc = t - t.mean()
        slope = float(np.sum(tc * y) / np.sum(tc * tc))
        intercept = float(y.mean() - slope * t.mean())
        resid = y - intercept - slope * t
        tss = float(np.sum((y - y.mean()) ** 2))
        fit = m.fit_geometric_rate(series)
        assert fit.rate == math.exp(slope)
        assert fit.r_squared == 1.0 - float(np.sum(resid * resid)) / tss


_REFERENCE = GridDensity(GridSpec(-1.0, 1.0, 4), np.full(4, 0.5))
# duck-typed reference whose tabulated values carry no mass
_MASSLESS = SimpleNamespace(lo=-1.0, hi=1.0, centers=_REFERENCE.centers, dx=0.5,
                            values=np.zeros(4))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: m.histogram_divergence([], _REFERENCE), ConfigurationError,
                 "no samples supplied", id="no samples"),
    pytest.param(lambda: m.histogram_divergence([0.0], _MASSLESS), NumericalDomainError,
                 "reference density has no mass on its own domain", id="massless reference"),
    pytest.param(lambda: m.histogram_divergence([0.0], _REFERENCE, kind="hellinger"),
                 ConfigurationError, "unknown divergence kind 'hellinger'", id="unknown kind"),
    pytest.param(lambda: m.histogram_divergence([0.0], _REFERENCE, 9), ConfigurationError,
                 "need at least 10 histogram bins, got 9", id="9 bins"),
    pytest.param(lambda: m.histogram_divergence([0.0], _REFERENCE, 12.5), ConfigurationError,
                 "n_bins must be an integer, got 12.5", id="12.5 bins"),
    pytest.param(lambda: m.histogram_divergence([math.nan] * 5 + [0.1] * 20, _REFERENCE),
                 NumericalDomainError, "5 of 25 samples are not finite", id="nan samples"),
    pytest.param(lambda: m.histogram_divergence([math.nan] * 3, _REFERENCE),
                 NumericalDomainError, "3 of 3 samples are not finite", id="all nan"),
    pytest.param(lambda: m.histogram_divergence([math.inf, 0.1, -math.inf], _REFERENCE),
                 NumericalDomainError, "2 of 3 samples are not finite", id="inf samples"),
    pytest.param(lambda: _fit_line(np.ones(3), np.arange(3.0), "x"), NumericalDomainError,
                 "no spread in x", id="fit without spread"),
    pytest.param(lambda: m.RiskEstimate(-1.0, 0.0, 8), NumericalDomainError,
                 "risk estimate must be nonnegative", id="negative risk"),
])
def test_raise_sites(raises_exactly, call, error, message):
    raises_exactly(call, error, message)
