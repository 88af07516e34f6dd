import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfkl as m
from mfkl import (
    CapabilityError,
    ConfigurationError,
    LsiConstants,
    ModelCoefficients,
    NumericalDomainError,
    Space,
    TheoremInapplicableError,
)


class TestContractionConstants:
    def test_unit_friction_values(self):
        tc = m.contraction_constants(1.0, 1.0)
        assert tc.a == pytest.approx(1.0 / 55.0, abs=1e-12)
        assert tc.kappa == pytest.approx(1.0 / 171.0, abs=1e-12)

    def test_c2_arithmetic(self):
        tc = m.contraction_constants(1.0, 1.0, c1_hat=1.0)
        assert tc.c2 == pytest.approx(171.0 * 64.0, rel=1e-12)

    def test_kappa_independent_of_large_rho(self):
        assert m.contraction_constants(1.0, 1.0).kappa == m.contraction_constants(1.0, 10.0).kappa

    def test_tampered_fields_rejected(self):
        tc = m.contraction_constants(1.0, 1.0)
        with pytest.raises(ConfigurationError):
            m.TheoryConstants(
                gamma=tc.gamma, rho=tc.rho, c1_hat=tc.c1_hat,
                a=tc.a * 1.01, kappa=tc.kappa, c2=tc.c2,
            )

    @pytest.mark.parametrize("field, value", [
        ("gamma", 0.0), ("gamma", -1.0), ("rho", 0.0), ("rho", -1.0),
        ("c1_hat", -1.0), ("delta_n", -1.0),
        ("gamma", math.nan), ("rho", math.nan), ("c1_hat", math.nan), ("delta_n", math.nan),
    ])
    def test_invalid_inputs_rejected(self, field, value):
        # the error names the input, NaN included
        inputs = {"gamma": 1.0, "rho": 1.0, "c1_hat": 1.0, "delta_n": 0.5}
        with pytest.raises(ConfigurationError, match=f"^{field} must be"):
            m.contraction_constants(**{**inputs, field: value})
        tc = m.contraction_constants(**inputs)
        with pytest.raises(ConfigurationError, match=f"^{field} must be"):
            dataclasses.replace(tc, **{field: value})

    def test_monotone_in_gamma(self):
        gammas = np.linspace(0.05, 3.0, 40)
        a_vals = [m.contraction_constants(g, 1.0).a for g in gammas]
        k_vals = [m.contraction_constants(g, 1.0).kappa for g in gammas]
        assert all(x < y for x, y in zip(a_vals, a_vals[1:]))
        assert all(x < y for x, y in zip(k_vals, k_vals[1:]))

    def test_kappa_nondecreasing_in_rho(self):
        rhos = [0.1, 0.3, 0.5, 1.0, 2.0, 5.0]
        vals = [m.contraction_constants(1.0, r).kappa for r in rhos]
        assert all(x <= y for x, y in zip(vals, vals[1:]))


class TestEntropyBound:
    def test_large_n_limit_is_floor(self):
        tc = m.contraction_constants(1.0, 1.0, c1_hat=2.0, delta_n=0.5)
        floor = tc.delta_n / tc.rho + tc.c2 * 4 * 1 * 0.1 ** 4
        assert m.entropy_bound(10 ** 9, 4, 1, 0.1, 3.0, 1.0, tc) == pytest.approx(floor)

    def test_stationary_start(self):
        tc = m.contraction_constants(1.0, 1.0, c1_hat=1.0)
        value = m.entropy_bound(5, 3, 2, 0.1, 0.0, 0.0, tc)
        assert value == pytest.approx(tc.c2 * 3 * 8 * 0.1 ** 4, rel=1e-12)

    def test_transient_approaches_inverse_e(self):
        tc = m.contraction_constants(1.0, 1.0)
        n = 1710  # kappa * h = 1/1710 at h = 0.1
        value = m.entropy_bound(n, 1, 1, 0.1, 1.0, 0.0, tc)
        assert value == pytest.approx(math.exp(-1.0), abs=1e-3)

    def test_nonincreasing_in_n(self):
        tc = m.contraction_constants(0.7, 0.8, c1_hat=1.0, delta_n=0.2)
        values = [m.entropy_bound(n, 2, 1, 0.05, 2.0, 1.5, tc) for n in range(0, 10_001)]
        assert all(x >= y for x, y in zip(values, values[1:]))

    def test_negative_inputs_rejected(self):
        tc = m.contraction_constants(1.0, 1.0)
        with pytest.raises(NumericalDomainError):
            m.entropy_bound(1, 1, 1, 0.1, -1.0, 0.0, tc)


class TestRiskBounds:
    def test_only_one_over_n(self):
        assert m.risk_bounds(1.0, 100, 0.0, "tv2", tv=0.0) == pytest.approx(0.04)

    def test_tv2_arithmetic(self):
        value = m.risk_bounds(1.0, 100, 0.02, "tv2", tv=0.01)
        assert value == pytest.approx(4.0 * (0.01 + 0.2 + 0.01))

    def test_entropy_arithmetic(self):
        value = m.risk_bounds(1.0, 100, 0.5, "entropy", r_entropy=2.0, eta_n=1.0)
        assert value == pytest.approx(4.0 * (0.01 + 2.0 * math.sqrt(2.0 / 100.0)))
        assert value == pytest.approx(1.1714, abs=1e-4)

    def test_negative_rejected(self):
        with pytest.raises(NumericalDomainError):
            m.risk_bounds(1.0, 10, -0.1, "tv2", tv=0.0)
        with pytest.raises(NumericalDomainError):
            m.risk_bounds(1.0, 10, 0.1, "tv2", tv=-1.0)

    @pytest.mark.parametrize("mode,extras", [
        ("tv2", {"tv": 0.05}),
        ("entropy", {"r_entropy": 2.0, "eta_n": 1.0}),
    ])
    def test_nonincreasing_in_n(self, mode, extras):
        values = [m.risk_bounds(2.0, n, 0.3, mode, **extras) for n in (2, 4, 8, 64, 512)]
        assert all(x >= y for x, y in zip(values, values[1:]))


class TestLsiConstants:
    def test_zero_interaction_degenerates(self):
        report = m.lsi_constants(
            LsiConstants(rho_bar=1.5, mmm=0.0, eps=0.3, lambda_flat=0.1, alpha_n=2.0),
            50, 3,
        )
        assert report.lambda_tilde == 0.0
        assert report.delta_n == pytest.approx(8.0 * 1.5 * 0.7 * 2.0)
        assert report.rho_prime_star == pytest.approx(2.0 * 0.7 * 0.8 * 1.5)

    def test_worked_example(self):
        report = m.lsi_constants(LsiConstants(rho_bar=1.0, mmm=1.0, eps=0.5), 100, 1)
        assert report.lambda_tilde == pytest.approx(14.0)
        assert report.delta_n == pytest.approx(8.0)
        assert report.rho_prime_star == pytest.approx(0.86)

    def test_flat_convex_tight_case(self):
        report = m.lsi_constants(LsiConstants(rho_bar=1.0, mmm=0.0), 10, 1)
        assert report.r_entropy == 1.0
        assert report.eta_n == 0.0

    def test_lambda_too_large(self):
        with pytest.raises(TheoremInapplicableError):
            m.lsi_constants(LsiConstants(rho_bar=1.0, mmm=1.0, lambda_flat=0.6), 10, 1)

    def test_small_n_has_no_defective_constant(self):
        report = m.lsi_constants(LsiConstants(rho_bar=1.0, mmm=1.0, eps=0.5), 10, 1)
        assert report.rho_prime_star is None
        assert "lambda_tilde" in report.rho_prime_reason

    def test_tight_constant_needs_positive_slack(self):
        inputs = LsiConstants(rho_bar=1.0, mmm=1.0, eps=0.5, rho_n=0.005)
        report = m.lsi_constants(inputs, 100, 1)
        assert report.rho_star is None and "not positive" in report.rho_star_reason
        report2 = m.lsi_constants(
            LsiConstants(rho_bar=1.0, mmm=1.0, eps=0.5, rho_n=2.0), 100, 1
        )
        assert report2.rho_star is not None

    @given(
        rho_bar=st.floats(0.1, 5.0),
        mmm=st.floats(0.0, 2.0),
        eps=st.floats(0.05, 0.95),
        lam=st.floats(0.0, 0.45),
        rho_n=st.floats(0.5, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_tight_never_exceeds_defective(self, rho_bar, mmm, eps, lam, rho_n):
        report = m.lsi_constants(
            LsiConstants(rho_bar=rho_bar, mmm=mmm, eps=eps, lambda_flat=lam, rho_n=rho_n),
            1000, 2,
        )
        if report.rho_star is not None:
            assert report.rho_star <= report.rho_prime_star + 1e-12

    def test_defect_linear_in_dimension(self):
        base = LsiConstants(rho_bar=1.3, mmm=0.7, eps=0.4, alpha_n=1.1)
        r1 = m.lsi_constants(base, 100, 3)
        r2 = m.lsi_constants(base, 100, 6)
        alpha_part = 4.0 * 1.3 * 0.6 * 2.0 * 1.1
        assert (r2.delta_n - alpha_part) == pytest.approx(2.0 * (r1.delta_n - alpha_part))


class TestLyapunovConstants:
    def test_reference_pipeline_values(self):
        coeffs = ModelCoefficients(r_conf=1.0, c0=0.5, c1=0.5)
        consts = m.lyapunov_constants(Space("euclidean", 1), 1.0, coeffs, 1)
        assert consts.alpha == pytest.approx(6.0 / 43.0, rel=1e-12)
        assert consts.theta == pytest.approx(6.0 / 215.0, rel=1e-12)
        # rounded values quoted alongside the exact ones agree within 3%
        assert consts.alpha == pytest.approx(1.0 / 7.0, rel=0.03)
        assert consts.theta == pytest.approx(1.0 / 35.0, rel=0.03)

    def test_lambda0_threshold(self):
        coeffs = ModelCoefficients(r_conf=1.0, c0=0.5, c1=0.5)
        consts = m.lyapunov_constants(Space("euclidean", 1), 1.0, coeffs, 1)
        assert consts.lambda0 == pytest.approx(1.34e-4, rel=5e-3)
        assert consts.lambda0 >= 2.0 / 15713.0

    def test_torus_additive(self):
        coeffs = ModelCoefficients(df_sup=0.0)
        consts = m.lyapunov_constants(Space("torus", 1), 1.0, coeffs, 4)
        assert consts.torus_additive == pytest.approx(766.0)

    def test_alpha_capped_by_confinement(self):
        for gamma in (0.2, 1.0, 4.0):
            for c0 in (0.1, 0.5, 2.0):
                coeffs = ModelCoefficients(r_conf=1.0, c0=c0, c1=c0)
                consts = m.lyapunov_constants(Space("euclidean", 2), gamma, coeffs, 8)
                assert consts.alpha <= math.sqrt(c0 / 2.0) + 1e-15

    def test_lambda0_nondecreasing_in_n_with_limit(self):
        coeffs = ModelCoefficients(r_conf=1.0, c0=0.5, c1=0.5)
        values = [
            m.lyapunov_constants(Space("euclidean", 1), 1.0, coeffs, n).lambda0
            for n in (1, 2, 4, 16, 256, 10 ** 6, 10 ** 7)
        ]
        assert all(x <= y for x, y in zip(values, values[1:]))
        assert values[-1] == pytest.approx(values[-2], rel=1e-4)

    def test_missing_coefficients(self):
        with pytest.raises(CapabilityError, match="df_sup"):
            m.lyapunov_constants(Space("torus", 1), 1.0, ModelCoefficients(), 4)
        with pytest.raises(CapabilityError, match="c0"):
            m.lyapunov_constants(
                Space("euclidean", 1), 1.0, ModelCoefficients(r_conf=1.0), 4
            )


class TestGaussianInitDivergences:
    def test_matched_initialisation_is_zero(self):
        h0, i0 = m.gaussian_quadratic_init_divergences(1.0, 0.0, 5, 2, 0.0, 1.0)
        assert h0 == pytest.approx(0.0, abs=1e-12)
        assert i0 == pytest.approx(0.0, abs=1e-12)

    def test_matches_dense_linear_algebra(self):
        # independent check: build the full covariance matrices and evaluate
        # the Gaussian divergences directly
        r, s, n, d, mean, std = 1.2, 0.3, 4, 2, 0.7, 0.9
        h0, i0 = m.gaussian_quadratic_init_divergences(r, s, n, d, mean, std)
        precision_block = (r + 2 * s) * np.eye(n) - (2 * s / n) * np.ones((n, n))
        precision = np.kron(precision_block, np.eye(d))
        mu = np.tile(np.full(d, mean), n)
        sigma1 = std ** 2 * np.eye(n * d)
        sigma2 = np.linalg.inv(precision)
        k = n * d
        h0_dense = 0.5 * (
            np.trace(precision @ sigma1) - k + mu @ precision @ mu
            + math.log(np.linalg.det(sigma2) / np.linalg.det(sigma1))
        )
        diff = precision - np.linalg.inv(sigma1)
        i0_dense = float(mu @ precision @ precision @ mu + np.trace(diff @ sigma1 @ diff))
        assert h0 == pytest.approx(h0_dense, rel=1e-9)
        assert i0 == pytest.approx(i0_dense, rel=1e-9)


_TC = m.contraction_constants(1.0, 1.0)
_EUCLIDEAN_COEFFS = ModelCoefficients(r_conf=1.0, c0=0.5, c1=0.5)
# function -> valid keyword arguments; each row below sets one of them to NaN
_VALID = {
    "entropy_bound": (m.entropy_bound, dict(
        n=5, n_particles=3, d=2, h=0.1, h0=0.5, i0=0.0, constants=_TC)),
    "risk_bounds_tv2": (m.risk_bounds, dict(
        f_sup=1.0, n_particles=10, h_mn=0.1, mode="tv2", tv=0.0)),
    "risk_bounds_entropy": (m.risk_bounds, dict(
        f_sup=1.0, n_particles=10, h_mn=0.1, mode="entropy", r_entropy=2.0, eta_n=1.0)),
    "LsiConstants": (LsiConstants, dict(rho_bar=1.0, mmm=0.1, rho_n=1.0)),
    "lsi_constants": (m.lsi_constants, dict(
        inputs=LsiConstants(rho_bar=1.0, mmm=0.1), n_particles=4, d=1)),
    "lyapunov_constants": (m.lyapunov_constants, dict(
        space=Space("euclidean", 1), gamma=1.0, coeffs=_EUCLIDEAN_COEFFS, n_particles=4)),
    "gaussian_quadratic_init_divergences": (m.gaussian_quadratic_init_divergences, dict(
        r=1.0, s=0.25, n_particles=4, d=1, mean=0.0, std=1.0)),
    "stationary_covariance_quadratic": (m.stationary_covariance_quadratic, dict(
        r=1.0, gamma=1.0, h=0.1)),
}


@pytest.mark.parametrize("name, function, error", [
    ("n", "entropy_bound", ConfigurationError),
    ("n_particles", "entropy_bound", ConfigurationError),
    ("d", "entropy_bound", ConfigurationError),
    ("h", "entropy_bound", ConfigurationError),
    ("h0", "entropy_bound", NumericalDomainError),
    ("i0", "entropy_bound", NumericalDomainError),
    ("f_sup", "risk_bounds_tv2", NumericalDomainError),
    ("n_particles", "risk_bounds_tv2", NumericalDomainError),
    ("h_mn", "risk_bounds_tv2", NumericalDomainError),
    ("tv", "risk_bounds_tv2", NumericalDomainError),
    ("r_entropy", "risk_bounds_entropy", NumericalDomainError),
    ("eta_n", "risk_bounds_entropy", NumericalDomainError),
    ("rho_bar", "LsiConstants", ConfigurationError),
    ("mmm", "LsiConstants", ConfigurationError),
    ("alpha_n", "LsiConstants", ConfigurationError),
    ("alpha_n_prime", "LsiConstants", ConfigurationError),
    ("lambda_prime", "LsiConstants", ConfigurationError),
    ("rho_n", "LsiConstants", ConfigurationError),
    ("n_particles", "lsi_constants", ConfigurationError),
    ("d", "lsi_constants", ConfigurationError),
    ("gamma", "lyapunov_constants", ConfigurationError),
    ("n_particles", "lyapunov_constants", ConfigurationError),
    ("r", "gaussian_quadratic_init_divergences", ConfigurationError),
    ("s", "gaussian_quadratic_init_divergences", ConfigurationError),
    ("n_particles", "gaussian_quadratic_init_divergences", ConfigurationError),
    ("d", "gaussian_quadratic_init_divergences", ConfigurationError),
    ("std", "gaussian_quadratic_init_divergences", ConfigurationError),
    ("r", "stationary_covariance_quadratic", ConfigurationError),
    ("gamma", "stationary_covariance_quadratic", ConfigurationError),
    ("h", "stationary_covariance_quadratic", ConfigurationError),
])
def test_nan_input_raises_naming_it(name, function, error):
    # domain checks read "not x >= 0" / "not x > 0", so NaN fails them
    fn, valid = _VALID[function]
    fn(**valid)
    label = "N" if name == "n_particles" else name  # messages write the particle count N
    with pytest.raises(error, match=rf"\b{label}\b"):
        fn(**{**valid, name: math.nan})
