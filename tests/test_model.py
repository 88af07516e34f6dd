import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import mfkl as m
from mfkl import (
    CapabilityError,
    ConfigurationError,
    ModelCoefficients,
    NumericalDomainError,
    ParticleState,
    Space,
)


def euclid(d=1):
    return Space("euclidean", d)


class TestSpace:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Space("weird", 1)
        with pytest.raises(ConfigurationError):
            Space("torus", 0)

    def test_wrap_and_min_image(self):
        torus = Space("torus", 2)
        wrapped = torus.wrap(np.array([[1.25, -0.25]]))
        assert np.allclose(wrapped, [[0.25, 0.75]])
        # representative lives in (-1/2, 1/2]
        delta = np.array([0.5, -0.5, 0.3, -0.3, 1.6])
        image = torus.min_image(delta)
        assert np.allclose(image, [0.5, 0.5, 0.3, -0.3, -0.4])
        flat = euclid(2)
        same = np.array([[1.25, -0.25]])
        assert np.array_equal(flat.wrap(same), same)


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-1e-17)
@example(-(2.0 ** -54))
@example(-(2.0 ** -53))
def test_torus_wrap_lands_in_unit_interval(x):
    wrapped = Space("torus", 1).wrap(np.array([[x]]))
    assert 0.0 <= wrapped[0, 0] < 1.0


def test_verlet_step_just_below_zero_wraps_to_zero():
    # x - floor(x) rounds up to 1.0 here; the step must still land in [0, 1)
    model = m.torus_trig_model(0.0, 0.0)
    state = ParticleState([[0.0]], [[-1e-17]], model.space)
    new = m.verlet_step(model, state, 0.5)
    assert new.positions[0, 0] == 0.0


class TestParticleState:
    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            ParticleState(np.zeros((2, 1)), np.zeros((3, 1)), euclid())

    def test_torus_range(self):
        with pytest.raises(ConfigurationError):
            ParticleState(np.array([[1.0]]), np.zeros((1, 1)), Space("torus", 1))

    def test_non_finite(self):
        with pytest.raises(NumericalDomainError):
            ParticleState(np.array([[np.nan]]), np.zeros((1, 1)), euclid())

    def test_readonly_view(self):
        state = ParticleState(np.zeros((2, 1)), np.zeros((2, 1)), euclid())
        view = state.readonly_view()
        with pytest.raises(ValueError):
            view.positions[0, 0] = 1.0


class TestCoefficients:
    def test_ordering_constraints(self):
        with pytest.raises(ConfigurationError):
            ModelCoefficients(c0=2.0, c1=1.0)
        with pytest.raises(ConfigurationError):
            ModelCoefficients(r0_low=1.0, r1_up=0.5)

    def test_l1_consistency(self):
        with pytest.raises(ConfigurationError):
            ModelCoefficients(m1x=1.0, m1m=1.0, l1=3.0)
        ModelCoefficients(m1x=1.0, m1m=1.0, l1=2.0)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelCoefficients(df_sup=-1.0)

    def test_require_names_missing(self):
        with pytest.raises(CapabilityError, match="df_sup"):
            ModelCoefficients().require("df_sup")


class TestGradient:
    def test_pairwise_hand_example(self):
        # V(x) = x^2/2, W(x,y) = (x-y)^2, N=2, x=(1,-1):
        # row i = x_i + (1/N) sum_j 2 (x_i - x_j) = (3, -3)
        model = m.pairwise_model(
            euclid(),
            grad_v=lambda x: x,
            grad_w=lambda x, y: 2.0 * (x - y),
            v=lambda x: 0.5 * np.sum(x * x, axis=-1),
            w=lambda x, y: np.sum((x - y) ** 2, axis=-1),
        )
        grad = m.potential_gradient(model, np.array([[1.0], [-1.0]]))
        assert np.allclose(grad, [[3.0], [-3.0]])

    def test_zero_force_model(self):
        model = m.pairwise_model(
            euclid(),
            grad_v=lambda x: np.zeros_like(x),
            grad_w=lambda x, y: np.zeros_like(x),
        )
        grad = m.potential_gradient(model, np.linspace(-1, 1, 5)[:, None])
        assert np.array_equal(grad, np.zeros((5, 1)))

    def test_force_only_model_falls_back_to_rows(self):
        inner = m.gauss_attract_repel_model(1.0, 0.1, 1.0)
        model = m.MeanFieldModel(space=inner.space, force=inner.force)
        x = m.RngStream(5).normal_matrix((6, 1))
        rows = np.stack([inner.force(x, x[i]) for i in range(6)])
        assert m.potential_gradient(model, x).tobytes() == rows.tobytes()
        for batch in ((2, 3, 1), (5000, 8, 1)):  # one block, and many
            with pytest.raises(CapabilityError, match="force_all"):
                m.potential_gradient(model, np.zeros(batch))

    def test_quadratic_closed_form(self):
        model = m.quadratic_model(1.0, 0.25)
        grad = m.potential_gradient(model, np.array([[0.0], [1.0], [2.0]]))
        assert np.allclose(grad, [[-0.5], [1.0], [2.5]], atol=1e-14)

    def test_non_finite_force_names_particle(self):
        def bad_force_all(positions):
            out = np.array(positions)
            out[1] = np.nan
            return out

        model = m.MeanFieldModel(space=euclid(), force=None, force_all=bad_force_all)
        with pytest.raises(NumericalDomainError, match="particle index \\(1,\\)"):
            m.potential_gradient(model, np.zeros((3, 1)))

    def test_rows_match_per_particle_force_bitwise(self):
        rng = m.RngStream(17)
        for model in (
            m.quadratic_model(1.0, 0.3, d=2),
            m.gauss_attract_repel_model(1.0, 0.1, 1.0, d=2),
            m.torus_trig_model(0.3, 0.2, d=2),
        ):
            if model.space.is_torus:
                x = rng.uniforms(12).reshape(6, 2)
            else:
                x = rng.normal_matrix((6, 2))
            batch = m.potential_gradient(model, x)
            rows = np.stack([model.force(x, x[i]) for i in range(6)])
            assert np.array_equal(batch, rows), model.name
        # flat-convex regression: its dataset sums must not mix query rows
        for n_data, d, n in _FLAT_CONVEX_GRID:
            model, x = _flat_convex_case(n_data, d, (n, d))
            rows = np.stack([model.force(x, row) for row in x])
            assert np.array_equal(m.potential_gradient(model, x), rows), (n_data, d, n)
        model, x = _flat_convex_case(8, 2, (5, 16, 2))
        batch = m.potential_gradient(model, x)
        for k in range(5):
            assert np.array_equal(batch[k], model.force_all(x[k])), k
            rows = np.stack([model.force(x[k], row) for row in x[k]])
            assert np.array_equal(batch[k], rows), k


class TestPotential:
    def test_quadratic_no_interaction(self):
        model = m.quadratic_model(1.0, 0.0, d=1)
        value = m.system_potential(model, np.array([[1.0], [1.0]]))
        assert value == pytest.approx(1.0, abs=1e-14)

    def test_zero_configuration(self):
        model = m.quadratic_model(1.0, 0.25)
        assert m.system_potential(model, np.zeros((4, 1))) == 0.0

    def test_pairwise_double_sum(self):
        model = m.pairwise_model(
            euclid(),
            grad_v=lambda x: np.zeros_like(x),
            grad_w=lambda x, y: 2.0 * (x - y),
            v=lambda x: np.zeros(x.shape[:-1]),
            w=lambda x, y: np.sum((x - y) ** 2, axis=-1),
        )
        value = m.system_potential(model, np.array([[0.0], [2.0]]))
        assert value == pytest.approx(2.0, abs=1e-14)

    def test_energy_absent(self):
        model = m.MeanFieldModel(space=euclid(), force=lambda p, x: np.zeros_like(x))
        with pytest.raises(CapabilityError):
            m.system_potential(model, np.zeros((2, 1)))


# (dataset size K, dimension d, particles N) for the flat-convex contract cases
_FLAT_CONVEX_GRID = [(k, d, n) for k in (1, 8, 17) for d in (1, 2, 5) for n in (7, 33)]


def _flat_convex_case(n_data, d, shape):
    rng = m.RngStream(100 * n_data + d)
    model = m.flat_convex_regression_model(
        rng.normal_matrix((n_data, d)), rng.uniforms(n_data), ridge_r=0.7
    )
    return model, 1.5 * rng.normal_matrix(shape)


def central_difference_gradient(model, positions, step=1e-5):
    grad = np.zeros_like(positions)
    for i in range(positions.shape[0]):
        for k in range(positions.shape[1]):
            plus = positions.copy()
            minus = positions.copy()
            plus[i, k] += step
            minus[i, k] -= step
            grad[i, k] = (
                m.system_potential(model, plus) - m.system_potential(model, minus)
            ) / (2.0 * step)
    return grad


@pytest.mark.parametrize("d", [1, 2, 3])
def test_finite_difference_consistency(d):
    rng = m.RngStream(100 + d)
    models = [
        m.quadratic_model(1.0, 0.25, d=d),
        m.gauss_attract_repel_model(0.7, 0.1, 1.0, d=d),
        m.torus_trig_model(0.3, 0.2, d=d),
    ]
    for model in models:
        for trial in range(20):
            n = 2 + trial % 4
            if model.space.is_torus:
                x = rng.uniforms(n * d).reshape(n, d)
            else:
                x = rng.normal_matrix((n, d))
            grad = m.potential_gradient(model, x)
            fd = central_difference_gradient(model, x)
            scale = max(1.0, float(np.max(np.abs(grad))))
            assert np.max(np.abs(grad - fd)) <= 1e-5 * scale, model.name


def test_finite_difference_regression_model():
    rng = m.RngStream(55)
    xs = rng.normal_matrix((6, 2))
    ys = rng.uniforms(6)
    model = m.flat_convex_regression_model(xs, ys, ridge_r=0.5)
    for _ in range(5):
        theta = rng.normal_matrix((3, 2))
        grad = m.potential_gradient(model, theta)
        fd = central_difference_gradient(model, theta)
        assert np.max(np.abs(grad - fd)) <= 1e-5 * max(1.0, float(np.max(np.abs(grad))))


def test_regression_force_matches_matrix_product_reference():
    # the matrix-product formula the model was first written with; the model
    # sums the dataset elementwise, in another order, so they agree to rounding
    from mfkl.model import _sigmoid, ordered_mean

    rng = m.RngStream(56)
    for n_data, d, n in _FLAT_CONVEX_GRID:
        xs, ys = rng.normal_matrix((n_data, d)), rng.uniforms(n_data)
        x = 1.5 * rng.normal_matrix((n, d))
        act = _sigmoid(x @ xs.T)
        resid = ordered_mean(act, axis=-2) - ys
        expected = 0.7 * x + (resid * act * (1.0 - act)) @ xs / n_data
        got = m.flat_convex_regression_model(xs, ys, ridge_r=0.7).force_all(x)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_permutation_equivariance_bitwise():
    rng = m.RngStream(23)
    perm_rng = np.random.RandomState(4)
    for model in (
        m.quadratic_model(1.0, 0.25, d=2),
        m.gauss_attract_repel_model(1.0, 0.1, 1.0, d=2),
        m.torus_trig_model(0.3, 0.2, d=2),
    ):
        if model.space.is_torus:
            x = rng.uniforms(20).reshape(10, 2)
        else:
            x = rng.normal_matrix((10, 2))
        grad = m.potential_gradient(model, x)
        for _ in range(5):
            sigma = perm_rng.permutation(10)
            assert np.array_equal(m.potential_gradient(model, x[sigma]), grad[sigma])
    for n_data, d, n in _FLAT_CONVEX_GRID:
        model, x = _flat_convex_case(n_data, d, (n, d))
        grad = m.potential_gradient(model, x)
        for _ in range(5):
            sigma = perm_rng.permutation(n)
            assert np.array_equal(
                m.potential_gradient(model, x[sigma]), grad[sigma]
            ), (n_data, d, n)
    model, x = _flat_convex_case(8, 2, (5, 16, 2))
    grad = m.potential_gradient(model, x)
    for _ in range(5):
        sigma = perm_rng.permutation(16)
        assert np.array_equal(m.potential_gradient(model, x[:, sigma]), grad[:, sigma])


def test_lambda_growth_certificate():
    # bounded part of the force stays under L sqrt(2) exp(-1/2)
    big_l, s, r = 1.3, 0.2, 1.0
    model = m.gauss_attract_repel_model(big_l, s, r, d=2)
    cap = big_l * math.sqrt(2.0) * math.exp(-0.5)
    assert model.coeffs.m_bnd == pytest.approx(cap)
    rng = m.RngStream(61)
    for _ in range(100):
        x = 2.0 * rng.normal_matrix((7, 2))
        y = 2.0 * rng.normals(2)
        force = model.force(x, y)
        linear = r * y + 2.0 * s * (y - np.sort(x, axis=0).sum(axis=0) / 7)
        assert np.linalg.norm(force - linear) <= cap + 1e-12


class TestBuiltinFactory:
    def test_quadratic_example(self):
        model = m.make_builtin_model({"variant": "quadratic", "r": 1.0, "s": 0.25})
        grad = m.potential_gradient(model, np.array([[0.0], [1.0], [2.0]]))
        assert np.allclose(grad, [[-0.5], [1.0], [2.5]])
        assert model.coeffs.lambda_growth == pytest.approx(0.5)

    def test_single_particle_gauss_force_is_confinement(self):
        model = m.make_builtin_model(
            {"variant": "gauss_attract_repel", "L": 1.0, "s": 0.0, "r": 1.0}
        )
        x = np.array([[0.7]])
        assert np.array_equal(m.potential_gradient(model, x), x)

    def test_torus_trig_df_sup(self):
        model = m.make_builtin_model({"variant": "torus_trig", "a": 0.3, "b": 0.2, "d": 2})
        cap = 2.0 * math.pi * 0.5 * math.sqrt(2.0)
        assert model.coeffs.df_sup == pytest.approx(cap)
        assert model.coeffs.df_sup == pytest.approx(4.4429, abs=1e-4)
        # numerical sup of the force over a grid of states stays below the cap
        rng = m.RngStream(8)
        sup = 0.0
        for _ in range(50):
            x = rng.uniforms(10).reshape(5, 2)
            y = rng.uniforms(2)
            sup = max(sup, float(np.linalg.norm(model.force(x, y))))
        assert sup <= cap + 1e-12

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            m.make_builtin_model({"variant": "quadratic", "r": -1.0, "s": 0.0})
        with pytest.raises(ConfigurationError):
            m.make_builtin_model({"variant": "unknown_kind"})
        with pytest.raises(ConfigurationError):
            m.make_builtin_model({"variant": "quadratic", "r": 1.0, "bogus": 2})


def test_torus_positions_stay_canonical(torus_model):
    rng = m.RngStream(3)
    state = m.ParticleState(
        rng.uniforms(8).reshape(8, 1), 3.0 * rng.normal_matrix((8, 1)), torus_model.space
    )
    new = m.verlet_step(torus_model, state, 0.3)
    assert (new.positions >= 0.0).all() and (new.positions < 1.0).all()


# Reference pair sums: the hand-written closures the Gaussian and torus
# models were first defined with.  Forces sum each row's N pair terms over j
# in one canonical particle order: lexicographic over coordinates, on the
# float64 bit patterns mapped to integers in value order (-0.0 before +0.0).
# The Gaussian model and the torus pair model below must reproduce them
# exactly.


def _canonical_particles(positions):
    """``positions`` with each system's particles in canonical order."""
    bits = positions.view(np.int64)
    keys = np.where(bits < 0, bits ^ np.iinfo(np.int64).max, bits)
    n = positions.shape[-2]
    order = [sorted(range(n), key=rows.__getitem__)
             for rows in keys.reshape((-1,) + keys.shape[-2:]).tolist()]
    order = np.array(order, dtype=np.intp).reshape(positions.shape[:-1])
    return np.take_along_axis(positions, order[..., None], axis=-2)


def _sum_over_j(pair):
    """Sum ``(..., N, d)`` pair terms over N, along a contiguous last axis."""
    return np.add.reduce(np.ascontiguousarray(np.moveaxis(pair, -2, -1)), axis=-1)


def _reference_gauss(big_l, s, r):
    from mfkl.model import ordered_mean, ordered_sum

    def pair_grad(x, y):
        delta = x - y
        sq = np.sum(delta * delta, axis=-1, keepdims=True)
        return (-2.0 * big_l) * np.exp(-sq) * delta + 2.0 * s * delta

    def force(positions, x):
        cols = _canonical_particles(positions)
        pair = pair_grad(np.broadcast_to(x, positions.shape), cols)
        return r * x + _sum_over_j(pair) / positions.shape[-2]

    def force_all(positions):
        n = positions.shape[-2]
        cols = _canonical_particles(positions)
        pair = pair_grad(positions[..., :, None, :], cols[..., None, :, :])
        return r * positions + _sum_over_j(pair) / n

    def energy(positions):
        n = positions.shape[-2]
        ext = 0.5 * r * ordered_mean(np.sum(positions * positions, axis=-1), axis=-1)
        delta = positions[..., :, None, :] - positions[..., None, :, :]
        sq = np.sum(delta * delta, axis=-1)
        pair = big_l * np.exp(-sq) + s * sq
        inter = ordered_sum(pair.reshape(pair.shape[:-2] + (n * n,)), axis=-1)
        return ext + inter / (2.0 * n * n)

    return force, force_all, energy


def _reference_torus(a, b, space):
    from mfkl.model import ordered_mean, ordered_sum

    two_pi = 2.0 * np.pi

    def grad_v(x):
        return -two_pi * a * np.sin(two_pi * x)

    def pair_grad(x, y):
        return -two_pi * b * np.sin(two_pi * space.min_image(x - y))

    def force(positions, x):
        cols = _canonical_particles(positions)
        pair = pair_grad(np.broadcast_to(x, positions.shape), cols)
        return grad_v(x) + _sum_over_j(pair) / positions.shape[-2]

    def force_all(positions):
        n = positions.shape[-2]
        cols = _canonical_particles(positions)
        pair = pair_grad(positions[..., :, None, :], cols[..., None, :, :])
        return grad_v(positions) + _sum_over_j(pair) / n

    def energy(positions):
        n = positions.shape[-2]
        ext = ordered_mean(np.sum(a * np.cos(two_pi * positions), axis=-1), axis=-1)
        delta = space.min_image(positions[..., :, None, :] - positions[..., None, :, :])
        pair = np.sum(b * np.cos(two_pi * delta), axis=-1)
        inter = ordered_sum(pair.reshape(pair.shape[:-2] + (n * n,)), axis=-1)
        return ext + inter / (2.0 * n * n)

    return force, force_all, energy


def _torus_pair_model(a, b, d):
    # the torus model's kernels through the generic pair kernel: a periodic
    # case of pairwise_model (torus_trig_model itself uses the addition identity)
    space = Space("torus", d)
    two_pi = 2.0 * np.pi
    return m.pairwise_model(
        space,
        grad_v=lambda x: -two_pi * a * np.sin(two_pi * x),
        grad_w=lambda x, y: -two_pi * b * np.sin(two_pi * space.min_image(x - y)),
        v=lambda x: np.sum(a * np.cos(two_pi * x), axis=-1),
        w=lambda x, y: np.sum(b * np.cos(two_pi * space.min_image(x - y)), axis=-1),
    )


@pytest.mark.parametrize("variant, d", [("gauss", 1), ("gauss", 2), ("torus", 2)])
def test_pair_models_match_reference_sums(variant, d):
    rng = m.RngStream(41 + d)
    if variant == "gauss":
        model = m.gauss_attract_repel_model(0.9, 0.15, 1.3, d=d)
        force, force_all, energy = _reference_gauss(0.9, 0.15, 1.3)
        x = rng.normal_matrix((4, 7, d))
    else:
        model = _torus_pair_model(0.3, -0.2, d)
        force, force_all, energy = _reference_torus(0.3, -0.2, model.space)
        x = rng.uniforms(4 * 7 * d).reshape(4, 7, d)
    # batched force over a leading axis of four systems
    assert np.array_equal(model.force_all(x), force_all(x))
    for system in x:
        assert np.array_equal(model.force_all(system), force_all(system))
        for row in system:
            assert np.array_equal(model.force(system, row), force(system, row))
    # the model sums each row's pair terms in canonical particle order and
    # then the rows, the reference sorts all N^2 terms at once: they agree to
    # rounding, within a few ulps of the sum of the terms' magnitudes (the
    # torus energy can cancel to near zero, so a bound relative to the energy
    # itself can too)
    delta = x[..., :, None, :] - x[..., None, :, :]
    if variant == "gauss":
        ext = 0.5 * 1.3 * np.sum(x * x, axis=-1)
        sq = np.sum(delta * delta, axis=-1)
        pair = 0.9 * np.exp(-sq) + 0.15 * sq
    else:
        two_pi_x, two_pi_delta = 2.0 * np.pi * x, 2.0 * np.pi * model.space.min_image(delta)
        ext = np.sum(np.abs(0.3 * np.cos(two_pi_x)), axis=-1)
        pair = np.sum(np.abs(0.2 * np.cos(two_pi_delta)), axis=-1)
    magnitude = np.mean(np.abs(ext), axis=-1) + np.mean(np.abs(pair), axis=(-2, -1)) / 2.0
    eps = np.finfo(float).eps
    assert np.all(np.abs(model.energy(x) - energy(x)) <= 4.0 * eps * magnitude)


# Blocked pair kernel: forces are evaluated a block of query rows at a time.
# These cases cross block boundaries, with a ragged last block, and must
# reproduce the one-shot reference sums byte for byte (signs of zero too).


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


_BLOCK_CASES = [("gauss", (n, d)) for d in (1, 2, 3) for n in (300, 1024)] + [
    ("gauss", (5, 64, 2)),
    ("torus", (64, 33, 2)),
    ("torus", (10_000, 8, 2)),
]


@pytest.mark.parametrize("rows_per_block", [None, 7])
@pytest.mark.parametrize("variant, shape", _BLOCK_CASES)
def test_blocked_pair_forces_match_reference_bitwise(variant, shape, rows_per_block, monkeypatch):
    import mfkl.model

    if rows_per_block is not None:
        # a budget that admits 7 query rows per block for this shape
        monkeypatch.setattr(
            mfkl.model, "_PAIR_BLOCK", rows_per_block * math.prod(shape), raising=False
        )
    rng = m.RngStream(shape[-2] * 10 + shape[-1])
    d = shape[-1]
    if variant == "gauss":
        model = m.gauss_attract_repel_model(0.9, 0.15, 1.3, d=d)
        force, force_all, _ = _reference_gauss(0.9, 0.15, 1.3)
        x = rng.normal_matrix(shape)
    else:
        model = _torus_pair_model(0.3, 0.2, d)
        force, force_all, _ = _reference_torus(0.3, 0.2, model.space)
        x = rng.uniforms(math.prod(shape)).reshape(shape)
    assert _same_bytes(model.force_all(x), force_all(x))
    system = x.reshape((-1,) + shape[-2:])[0]
    for row in system[:3]:
        assert _same_bytes(model.force(system, row), force(system, row))


@pytest.mark.parametrize("budget", ["row", 1 << 12, 1 << 15, 1 << 17, "all"])
def test_gauss_force_same_bytes_at_every_block_budget(budget, monkeypatch):
    import mfkl.model

    n, d = 1024, 2
    x = m.RngStream(1024).normal_matrix((n, d))
    model = m.gauss_attract_repel_model(1.0, 0.1, 1.0, d=d)
    expected = model.force_all(x)
    # one query row (n * d values) per block, up to every row in one block
    values = {"row": n * d, "all": n * n * d}.get(budget, budget)
    monkeypatch.setattr(mfkl.model, "_PAIR_BLOCK", values)
    assert _same_bytes(model.force_all(x), expected)


def _gauss_pair_grad_expression(big_l, s):
    # the Gaussian pair gradient as one expression, as _reference_gauss states it
    def pair_grad(x, y):
        delta = x - y
        sq = np.sum(delta * delta, axis=-1, keepdims=True)
        return (-2.0 * big_l) * np.exp(-sq) * delta + 2.0 * s * delta

    return pair_grad


def _captured_pair_kernel(model, d, monkeypatch):
    """The kernel factory that ``model.force_all`` hands to the pair kernel."""
    import mfkl.model

    seen = []
    pair_sums = mfkl.model._pair_sums

    def spy(kernel, *args):
        seen.append(kernel)
        return pair_sums(kernel, *args)

    monkeypatch.setattr(mfkl.model, "_pair_sums", spy)
    model.force_all(np.zeros((1, d)))
    monkeypatch.setattr(mfkl.model, "_pair_sums", pair_sums)
    return seen[0]


# coincident points (zero deltas, of either sign) and deltas whose Gaussian
# factor is subnormal (|delta|^2 near 740) or underflows to 0
_GAUSS_EDGE_POINTS = np.array([
    [0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [0.3, -1.2], [0.3, -1.2],
    [27.2, 0.0], [0.0, -27.3], [40.0, 1e3], [-1e200, 2.0], [1e-300, -5e-324],
])


@pytest.mark.parametrize("coordinate_major", [False, True])
@pytest.mark.parametrize("big_l, s", [(0.9, 0.15), (1.0, 0.0), (0.0, 0.0)])
def test_gauss_pair_grad_matches_expression_bitwise(big_l, s, coordinate_major, monkeypatch):
    points = _GAUSS_EDGE_POINTS
    kernel = _captured_pair_kernel(m.gauss_attract_repel_model(big_l, s, 1.0, d=2), 2,
                                   monkeypatch)
    if coordinate_major:
        # the strided views the pair kernel builds from (d, N) memory
        cm = np.ascontiguousarray(points.T)
        x, y = np.moveaxis(cm[:, :, None], 0, -1), np.moveaxis(cm[:, None, :], 0, -1)
    else:
        x, y = points[:, None, :], points[None, :, :]
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _gauss_pair_grad_expression(big_l, s)(x, y)
        pair_grad = kernel(np.broadcast_shapes(x.shape, y.shape))
        assert _same_bytes(pair_grad(x, y), expected)
        # a ragged block: the leading rows of the workspace
        assert _same_bytes(pair_grad(x[3:7], y), expected[3:7])


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [300, 1024])
def test_gauss_pair_sums_are_accurate(n, d, monkeypatch):
    # each row's pair sum is within 4 eps sum_j |T_ij| of the correctly
    # rounded sum of the same terms (math.fsum); summing each row's sorted
    # terms one at a time reached 15.0 eps sum_j |T_ij| on these rows at d = 2
    import mfkl.model

    kernel = _captured_pair_kernel(m.gauss_attract_repel_model(1.0, 0.1, 1.0, d=d), d,
                                   monkeypatch)
    eps = np.finfo(float).eps
    for seed in range(3):
        x = m.RngStream(100 * n + 10 * d + seed).normal_matrix((n, d))
        terms = _gauss_pair_grad_expression(1.0, 0.1)(x[:, None, :], x[None, :, :])
        exact = [[math.fsum(t) for t in row] for row in np.moveaxis(terms, -2, -1).tolist()]
        error = np.abs(mfkl.model._pair_sums(kernel, x, x) - np.array(exact))
        assert np.all(error <= 4.0 * eps * np.sum(np.abs(terms), axis=-2)), seed


# The Gaussian pair kernel allocates one workspace per _pair_sums call and
# computes every row block in it: the points of each case make the last block
# ragged (N = 1000, d = 2 at the default budget: blocks of 16 rows, the last
# of 8).
_WORKSPACE_CASES = {
    "n1000-d1": ((1000, 1), None),
    "n1000-d2": ((1000, 2), None),
    "n1001-d3": ((1001, 3), None),
    "batch1-d2": ((3, 200, 2), None),
    "batch2-d3": ((2, 3, 70, 3), None),
    # 3 query rows per block over 10 rows: blocks of 3, 3, 3 and 1
    "edge-points": (None, 3),
    "edge-points-batch1": ((2,), 3),
}


def _workspace_points(case):
    shape, _ = _WORKSPACE_CASES[case]
    if case.startswith("edge-points"):
        points = _GAUSS_EDGE_POINTS
        if shape:  # each batch element the edge points in its own order
            rs = np.random.RandomState(8)
            points = np.stack([points[rs.permutation(10)] for _ in range(shape[0])])
        return points
    return m.RngStream(math.prod(shape)).normal_matrix(shape)


@pytest.mark.parametrize("case", sorted(_WORKSPACE_CASES))
def test_gauss_pair_kernel_one_workspace_per_call(case, monkeypatch):
    import mfkl.model

    x = _workspace_points(case)
    _, rows_per_block = _WORKSPACE_CASES[case]
    n, d = x.shape[-2:]
    if rows_per_block is not None:
        monkeypatch.setattr(mfkl.model, "_PAIR_BLOCK", rows_per_block * x.size)
    model = m.gauss_attract_repel_model(0.9, 0.15, 1.3, d=d)
    expression = _gauss_pair_grad_expression(0.9, 0.15)
    pair_sums = mfkl.model._pair_sums
    calls = []

    def spy(kernel, *args):
        # the bases are kept alive, so a buffer allocated afresh for a block
        # could reuse neither the address nor the object of an earlier one
        call = {"factory_calls": 0, "rows": [], "addresses": set(), "bases": []}
        calls.append(call)

        def spying_kernel(shape):
            call["factory_calls"] += 1
            terms = kernel(shape)

            def spying_terms(x, y):
                pairs = terms(x, y)
                call["rows"].append(x.shape[-3])
                call["addresses"].add(pairs.__array_interface__["data"][0])
                call["bases"].append(pairs.base)
                return pairs

            return spying_terms

        sums = pair_sums(spying_kernel, *args)
        # the same sums from the one-expression pair gradient, which
        # allocates its temporaries afresh in every block
        assert _same_bytes(sums, pair_sums(lambda shape: expression, *args))
        return sums

    monkeypatch.setattr(mfkl.model, "_pair_sums", spy)
    with np.errstate(over="ignore", invalid="ignore"):
        forces = model.force_all(x)
    monkeypatch.setattr(mfkl.model, "_pair_sums", pair_sums)
    assert len(calls) == 1
    (call,) = calls
    assert call["factory_calls"] == 1
    rows = call["rows"]
    assert len(rows) > 1 and sum(rows) == n and rows[-1] < rows[0]  # a ragged last block
    assert len(call["addresses"]) == 1
    # on a 64-byte line, wherever the allocator put the workspace
    assert min(call["addresses"]) % 64 == 0
    assert all(base is call["bases"][0] for base in call["bases"])
    # every row in one block
    monkeypatch.setattr(mfkl.model, "_PAIR_BLOCK", n * x.size)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _same_bytes(model.force_all(x), forces)


def test_gauss_force_all_shares_no_buffers_between_threads():
    # two threads evaluate one model on different inputs at once: numpy
    # releases the interpreter lock inside ufuncs, so a workspace held by the
    # model would be overwritten mid-call and the forces would differ
    model = m.gauss_attract_repel_model(1.0, 0.1, 1.0, d=2)
    inputs = [m.RngStream(600 + k).normal_matrix((512, 2)) for k in range(2)]
    expected = [model.force_all(x) for x in inputs]
    results = [[], []]
    start = threading.Barrier(2, timeout=60)

    def work(k):
        start.wait()
        for _ in range(50):
            results[k].append(model.force_all(inputs[k]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k in range(2):
        assert len(results[k]) == 50
        assert all(_same_bytes(forces, expected[k]) for forces in results[k]), k


def test_blocked_torus_force_keeps_signed_zeros():
    # all particles at 0: every pair term and the confinement are -0.0
    model = _torus_pair_model(0.3, 0.2, 2)
    _, force_all, _ = _reference_torus(0.3, 0.2, model.space)
    x = np.zeros((3, 5, 2))
    assert _same_bytes(model.force_all(x), force_all(x))


def _batched_tie_case():
    # three systems, each the same ten particles (ties and signed zeros
    # among them) in its own order
    cases = _tie_cases()
    base = np.concatenate([cases["duplicates"][:6], cases["signed_zeros"][:4]])
    rs = np.random.RandomState(5)
    return base, np.stack([rs.permutation(10) for _ in range(3)])


def _tie_cases():
    rng = m.RngStream(77)
    dup = rng.normal_matrix((12, 2))
    dup[[5, 7]], dup[9] = dup[2], dup[1]
    shared = rng.normal_matrix((12, 2))
    shared[:6, 0] = 0.3  # ties on the first coordinate only
    zeros = np.array([[0.0, 1.0], [-0.0, 1.0], [0.5, 0.0], [0.5, -0.0], [-0.0, -0.0],
                      [0.0, 0.0], [0.0, -0.0], [-0.0, 0.0], [0.5, 0.0]])
    return {"duplicates": dup, "shared_first_coordinate": shared, "signed_zeros": zeros,
            "coincident_plus_zero": np.zeros((6, 2)),
            "coincident_minus_zero": np.full((6, 2), -0.0)}


@pytest.mark.parametrize("case", sorted(_tie_cases()) + ["batched"])
@pytest.mark.parametrize("variant", ["gauss", "torus"])
def test_canonical_order_ties_and_signed_zeros_bitwise(variant, case, monkeypatch):
    import mfkl.model

    if case == "batched":
        base, perms = _batched_tie_case()
        x = base[perms]
    else:
        x = _tie_cases()[case]
    if variant == "gauss":
        model = m.gauss_attract_repel_model(0.9, 0.15, 1.3, d=2)
    else:
        model = _torus_pair_model(0.3, 0.2, 2)
    grad = model.force_all(x)
    rs = np.random.RandomState(6)
    for sigma in (rs.permutation(x.shape[-2]) for _ in range(4)):
        assert _same_bytes(model.force_all(x[..., sigma, :]), grad[..., sigma, :])
    if case == "batched":
        assert _same_bytes(grad, model.force_all(base)[perms])
    d = x.shape[-1]
    for system, rows in zip(x.reshape(-1, x.shape[-2], d), grad.reshape(-1, x.shape[-2], d)):
        for particle, row in zip(system, rows):
            assert _same_bytes(model.force(system, particle), row)
    for values in (x.size, x.size * x.shape[-2]):  # one query row, every row
        monkeypatch.setattr(mfkl.model, "_PAIR_BLOCK", values)
        assert _same_bytes(model.force_all(x), grad)


# (N, d) with a batch axis of two systems; N = 1024 stays at d = 1 to keep
# the reference's (2, N, N, d) pair arrays at 16 MiB
_TORUS_IDENTITY_CASES = [(1, 1), (1, 3), (2, 2), (7, 2), (64, 3), (333, 2), (1024, 1)]


@pytest.mark.parametrize("b", [0.45, -0.45])
@pytest.mark.parametrize("n, d", _TORUS_IDENTITY_CASES)
def test_torus_identity_matches_pair_sums(n, d, b):
    # the addition identity reorders the pair sums, so it agrees with them to
    # rounding: forces within a few ulps of their bound 2 pi (|a| + |b|), the
    # energy within a few ulps of the sum of its terms' magnitudes (the energy
    # itself can cancel to near zero)
    a = 0.3
    model = m.torus_trig_model(a, b, d=d)
    force, force_all, energy = _reference_torus(a, b, model.space)
    rng = m.RngStream(1000 * n + 10 * d + (b > 0))
    x = rng.uniforms(2 * n * d).reshape(2, n, d)
    eps = np.finfo(float).eps
    force_tol = 8.0 * eps * 2.0 * math.pi * (abs(a) + abs(b))
    assert np.max(np.abs(model.force_all(x) - force_all(x))) <= force_tol
    for row in x[0, :3]:
        assert np.max(np.abs(model.force(x[0], row) - force(x[0], row))) <= force_tol
    delta = model.space.min_image(x[:, :, None, :] - x[:, None, :, :])
    magnitude = np.mean(np.sum(np.abs(a * np.cos(2.0 * np.pi * x)), axis=-1), axis=-1) + (
        np.mean(np.sum(np.abs(b * np.cos(2.0 * np.pi * delta)), axis=-1), axis=(-2, -1)) / 2.0
    )
    assert np.all(np.abs(model.energy(x) - energy(x)) <= 8.0 * eps * magnitude)


def _mod_min_image(delta):
    return 0.5 - np.mod(0.5 - delta, 1.0)


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(0.0)
@example(-0.0)
@example(0.5)
@example(-0.5)
@example(1.5)
@example(2.0 ** -54)
@example(-(2.0 ** -54))
@example(1e300)
@example(-1e300)
@example(5e-324)
@example(-5e-324)
@example(1e-310)
@example(-1e-310)
def test_min_image_matches_mod_formula_bitwise(delta):
    torus = Space("torus", 1)
    values = np.array([delta, -delta])
    assert _same_bytes(torus.min_image(values), _mod_min_image(values))


def test_pair_force_memory_is_blocked():
    import tracemalloc

    model = m.gauss_attract_repel_model(1.0, 0.1, 1.0, d=2)
    x = m.RngStream(9).normal_matrix((2048, 2))
    tracemalloc.start()
    try:
        model.force_all(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one-shot (N, N, d) pair arrays peak at about 224 MB here
    assert peak < 32 * 2 ** 20


def test_torus_force_memory_is_linear():
    import tracemalloc

    n, d = 4096, 2
    model = m.torus_trig_model(0.3, 0.2, d=d)
    x = m.RngStream(9).uniforms(n * d).reshape(n, d)
    tracemalloc.start()
    try:
        model.force_all(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # O(N d): a few (N, d) temporaries, far under one 1 MiB pair block
    assert peak <= 8 * n * d * 8


def test_pair_energy_memory_is_blocked():
    import tracemalloc

    model = m.gauss_attract_repel_model(1.0, 0.1, 1.0, d=2)
    x = m.RngStream(9).normal_matrix((2048, 2))
    tracemalloc.start()
    try:
        model.energy(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one-shot (N, N, d) pair arrays peak at about 160 MiB here
    assert peak < 32 * 2 ** 20


# (m_draws, N, d) of the Lyapunov Monte Carlo step: 512 KiB float64 arrays,
# above the 256 KiB from which numpy reuses temporaries, and lyapunov_check's
# own 10^4 draws
_MC_SHAPE = (4000, 8, 2)
_MC_SHAPE_FULL = (10_000, 8, 2)


def _torus_drift_case(shape, seed=4):
    model = m.torus_trig_model(0.3, 0.2, d=2)
    rng = m.RngStream(seed)
    n, d = shape[1:]
    state = ParticleState(rng.uniforms(n * d).reshape(n, d), rng.normal_matrix((n, d)),
                          model.space)
    params = m.ChainParams(0.05, 1.0, 1)
    return model, state, params, m.LyapunovSpec.for_model(model, params.gamma, n)


def _mc_values_call(shape):
    from mfkl.lyapunov import kernel_values_monte_carlo

    model, state, params, spec = _torus_drift_case(shape)
    return lambda: kernel_values_monte_carlo(model, state, params, spec, shape[0],
                                             m.RngStream(5))


def _normals_call(shape):
    rng = m.RngStream(5)
    return lambda: rng.normals(math.prod(shape))


def _torus_force_all_call(shape):
    model = m.torus_trig_model(0.3, 0.2, d=2)
    x = m.RngStream(9).uniforms(math.prod(shape)).reshape(shape)
    return lambda: model.force_all(x)


# bounds in (m_draws, N, d) arrays: above these kernels' peaks of 4.80, 4.05,
# 2.50 and 3.38; the step peaked at 6.39 and 6.30 while it kept its draws and
# trailing gradient, and the normals and the torus force at 4.50 and 5.38 with
# full-size temporaries.  The blocked gradient's temporaries are a larger
# share of the smaller step.
@pytest.mark.parametrize("make_call, shape, bound", [
    pytest.param(_mc_values_call, _MC_SHAPE, 5.0, id="kernel_values_monte_carlo"),
    pytest.param(_mc_values_call, _MC_SHAPE_FULL, 4.3, id="kernel_values_monte_carlo 10^4"),
    pytest.param(_normals_call, _MC_SHAPE, 2.8, id="normals"),  # output, words, half radius
    pytest.param(_torus_force_all_call, _MC_SHAPE, 3.6, id="torus force_all"),
])
def test_drift_step_works_in_its_own_buffers(make_call, shape, bound):
    import tracemalloc

    call = make_call(shape)
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * math.prod(shape) * 8


# Batched potential_gradient: a batch runs in blocks of its leading axis, of
# at most _PAIR_BLOCK values each, and must give the bytes of one force_all
# call.
# With (N, d) = (8, 2), a block is 2048 leading rows.
_GRADIENT_BLOCK_SHAPES = [
    pytest.param((5000, 8, 2), id="ragged"),
    pytest.param((3, 1500, 8, 2), id="two leading axes"),
    pytest.param((2048, 8, 2), id="one block"),
]


def _batched_case(variant, shape):
    rng = m.RngStream(math.prod(shape))
    if variant == "quadratic":
        return m.quadratic_model(1.0, 0.3, d=2), rng.normal_matrix(shape)
    if variant == "gauss":
        return m.gauss_attract_repel_model(0.9, 0.15, 1.3, d=2), rng.normal_matrix(shape)
    if variant == "torus":
        return m.torus_trig_model(0.3, 0.2, d=2), rng.uniforms(math.prod(shape)).reshape(shape)
    return _flat_convex_case(3, 2, shape)


@pytest.mark.parametrize("shape", _GRADIENT_BLOCK_SHAPES)
@pytest.mark.parametrize("variant", ["quadratic", "gauss", "torus", "flat_convex"])
def test_blocked_gradient_matches_one_force_all_call_bitwise(variant, shape):
    model, x = _batched_case(variant, shape)
    assert _same_bytes(m.potential_gradient(model, x), model.force_all(x))


@pytest.mark.parametrize("shape, calls", [
    ((5000, 8, 2), [2048, 2048, 904]),
    ((3, 1500, 8, 2), [1, 1, 1]),
    ((2048, 8, 2), [2048]),
    ((3, 4, 2), [3]),  # a small batch takes the same path, in one block
    ((4097, 8), [4097]),  # no batch axis: one call, whatever its size
])
def test_blocked_gradient_calls_stay_within_the_budget(shape, calls):
    from mfkl.model import _PAIR_BLOCK

    inner = m.quadratic_model(1.0, 0.3, d=shape[-1])
    seen = []

    def force_all(positions):
        seen.append(positions.shape)
        return inner.force_all(positions)

    model = m.MeanFieldModel(space=inner.space, force=inner.force, force_all=force_all)
    x = m.RngStream(3).normal_matrix(shape)
    assert _same_bytes(m.potential_gradient(model, x), inner.force_all(x))
    assert [s[0] for s in seen] == calls
    assert all(s[1:] == shape[1:] for s in seen)
    if len(shape) > 2:
        assert all(math.prod(s) <= _PAIR_BLOCK for s in seen)


def _frozen(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


def _torus_field_expression(a, b, positions, queries):
    """The torus force as one expression, without in-place steps."""
    from mfkl.model import ordered_mean

    two_pi = 2.0 * np.pi
    c = ordered_mean(np.cos(two_pi * positions), axis=-2, keepdims=True)
    s = ordered_mean(np.sin(two_pi * positions), axis=-2, keepdims=True)
    sin_q, cos_q = np.sin(two_pi * queries), np.cos(two_pi * queries)
    return -two_pi * a * sin_q - two_pi * b * (sin_q * c - cos_q * s)


def test_drift_step_leaves_its_inputs_alone():
    from mfkl.lyapunov import kernel_values_monte_carlo

    model, state, params, spec = _torus_drift_case(_MC_SHAPE, seed=6)
    x = m.RngStream(7).uniforms(3 * 8 * 2).reshape(3, 8, 2)
    x[0, 0] = 0.0  # signed zeros in the force
    x_before, frozen = x.copy(), _frozen(x)
    assert _same_bytes(model.force_all(frozen), _torus_field_expression(0.3, 0.2, x, x))
    query = _frozen(x[1, 2])
    assert _same_bytes(model.force(frozen, query),
                       _torus_field_expression(0.3, 0.2, x, x[1, 2][None, :])[:, 0, :])
    assert _same_bytes(model.force(frozen[0], query),
                       _torus_field_expression(0.3, 0.2, x[0], x[1, 2][None, :])[0])
    assert _same_bytes(frozen, x_before) and _same_bytes(query, x[1, 2])
    pos, vel = state.positions.copy(), state.velocities.copy()
    state.positions.flags.writeable = state.velocities.flags.writeable = False
    kernel_values_monte_carlo(model, state, params, spec, 1000, m.RngStream(1))
    assert _same_bytes(state.positions, pos) and _same_bytes(state.velocities, vel)


@pytest.mark.parametrize("positions", [
    np.array([[1.25, -0.25], [-1e-17, 3.0]]),
    np.array([[[0.5, -2.5]], [[-(2.0 ** -54), 7.75]]]),
    np.array(-1e-17),
    np.array(1.5),
    -1e-17,
    0.25,
    [0.5, -0.2, -1e-17],
    np.array([1.5, -0.5, -1e-9], dtype=np.float32),
    np.array([1, -2]),
    np.float64(-2.5),
], ids=lambda p: type(p).__name__ + str(np.shape(p)))
def test_torus_wrap_is_fresh_and_leaves_its_input_alone(positions):
    torus = Space("torus", 1)
    before = np.array(positions, copy=True)
    if isinstance(positions, np.ndarray):
        positions = _frozen(positions)
    wrapped = torus.wrap(positions)
    reference = np.asarray(before) - np.floor(before)
    assert _same_bytes(wrapped, np.where(reference == 1.0, 0.0, reference))
    assert isinstance(wrapped, np.ndarray)
    assert not np.shares_memory(wrapped, np.asarray(positions))
    assert _same_bytes(positions, before)


def _check_ordered_reductions(values, axis, keepdims):
    """``ordered_sum`` and ``ordered_mean`` give the bits of numpy's sum of
    the sorted values, and leave the values as they were."""
    from mfkl.model import ordered_mean, ordered_sum

    before = values.copy()
    want = np.sum(np.sort(values, axis=axis), axis=axis, keepdims=keepdims)
    got = ordered_sum(values, axis, keepdims=keepdims)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    mean = ordered_mean(values, axis, keepdims=keepdims)
    assert mean.tobytes() == (want / values.shape[axis]).tobytes()
    assert _same_bytes(values, before)


@pytest.mark.parametrize("axis", [-1, -2])
@pytest.mark.parametrize("keepdims", [False, True])
@pytest.mark.parametrize("transposed", [False, True])
def test_ordered_reductions_match_sum_of_sorted_bitwise(axis, keepdims, transposed):
    # a leading batch axis of 3, mixed magnitudes, and long enough reduction
    # axes for numpy's pairwise summation to matter
    values = m.RngStream(8).normal_matrix((3, 150, 140)) * np.logspace(-8, 8, 140)
    if transposed:
        values = values.swapaxes(-1, -2)
    _check_ordered_reductions(values, axis, keepdims)


def _particle_values(kind, shape):
    """``(..., N, d)`` values whose sum depends on the order of the N terms."""
    rng = m.RngStream(math.prod(shape) + 1)
    if kind == "mixed magnitudes":
        return rng.normal_matrix(shape) * np.logspace(-8, 8, shape[-2])[:, None]
    if kind == "-0.0":
        return np.full(shape, -0.0)
    if kind == "+-0 and +-1":  # zero lanes of either sign, and lanes that cancel to zero
        picks = (rng.uniforms(math.prod(shape)) * 4).astype(int)
        return np.array([-0.0, 0.0, -1.0, 1.0])[picks].reshape(shape)
    # a slice of a wider array, not C-contiguous (except at one particle)
    return _particle_values("mixed magnitudes", shape[:-1] + (shape[-1] + 1,))[..., 1:]


@pytest.mark.parametrize("kind", ["mixed magnitudes", "-0.0", "+-0 and +-1", "sliced"])
@pytest.mark.parametrize("batch", [(), (5,), (2, 3)], ids=str)
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 1024])
def test_ordered_reductions_over_the_particle_axis_match_sum_of_sorted_bitwise(
        monkeypatch, n, d, batch, kind):
    """The particle axis of ``(..., N, d)`` values: a C-contiguous input with
    d > 1 is summed in sorted lanes, which any number of lanes takes here."""
    from mfkl import model

    monkeypatch.setattr(model, "_MIN_LANES", 1)
    values = _particle_values(kind, batch + (n, d))
    values.flags.writeable = False
    for axis in (-2, len(batch)):
        for keepdims in (False, True):
            _check_ordered_reductions(values, axis, keepdims)


_R1 = Space("euclidean", 1)
_NAN_ENERGY = m.MeanFieldModel(space=_R1, force=lambda positions, x: x,
                               energy=lambda positions: np.nan)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: ParticleState(np.zeros((0, 1)), np.zeros((0, 1)), _R1),
                 ConfigurationError, "need at least one particle", id="N=0"),
    pytest.param(lambda: ParticleState(np.zeros((2, 2)), np.zeros((2, 2)), _R1),
                 ConfigurationError, "state dimension 2 does not match space dimension 1",
                 id="dimension mismatch"),
    pytest.param(lambda: m.system_potential(_NAN_ENERGY, [[0.0]]), NumericalDomainError,
                 "non-finite potential value", id="non-finite potential"),
    pytest.param(lambda: m.quadratic_model(1.0, -0.1), ConfigurationError,
                 "quadratic model needs s >= 0", id="quadratic s<0"),
    pytest.param(lambda: m.gauss_attract_repel_model(1.0, 0.1, 0.0), ConfigurationError,
                 "gauss_attract_repel needs r > 0", id="gauss r=0"),
    pytest.param(lambda: m.gauss_attract_repel_model(-1.0, 0.1, 1.0), ConfigurationError,
                 "gauss_attract_repel needs L >= 0 and s >= 0", id="gauss L<0"),
    pytest.param(lambda: m.gauss_attract_repel_model(1.0, -0.1, 1.0), ConfigurationError,
                 "gauss_attract_repel needs L >= 0 and s >= 0", id="gauss s<0"),
    pytest.param(lambda: m.flat_convex_regression_model(np.zeros((3, 2)), np.zeros(2)),
                 ConfigurationError, "dataset must be xs (K, d) with ys (K,)",
                 id="flat-convex shape"),
    pytest.param(lambda: m.flat_convex_regression_model(np.zeros((3, 2)), np.zeros(3), 0.0),
                 ConfigurationError, "ridge coefficient must be positive",
                 id="flat-convex ridge"),
    pytest.param(lambda: m.make_builtin_model(["quadratic"]), ConfigurationError,
                 "model spec must be a mapping with a 'variant' key", id="spec not a mapping"),
])
def test_raise_sites(raises_exactly, call, error, message):
    raises_exactly(call, error, message)
