import re

import numpy as np
import pytest

import mfkl as m


@pytest.fixture(scope="session")
def quad_interacting():
    return m.quadratic_model(1.0, 0.25)


@pytest.fixture(scope="session")
def quad_plain():
    return m.quadratic_model(1.0, 0.0)


@pytest.fixture(scope="session")
def torus_model():
    return m.torus_trig_model(0.3, 0.2, d=1)


@pytest.fixture(scope="session")
def quad_oracle_density(quad_interacting):
    grid = m.default_grid_for_quadratic(1.0)
    return m.self_consistent_fixed_point(quad_interacting, grid, tol=1e-12).density


def random_state(model, n_particles, rng, scale=1.0):
    d = model.space.d
    if model.space.is_torus:
        positions = rng.uniforms(n_particles * d).reshape(n_particles, d)
    else:
        positions = scale * rng.normal_matrix((n_particles, d))
    velocities = scale * rng.normal_matrix((n_particles, d))
    return m.ParticleState(positions, velocities, model.space)


@pytest.fixture
def make_random_state():
    return random_state


@pytest.fixture
def raises_exactly():
    """``check(call, error, message)``: ``call()`` raises ``error`` itself, not
    a subclass, with the message ``message`` (a string, or a compiled regex
    that must match all of it)."""

    def check(call, error, message):
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error
        text = str(info.value)
        if isinstance(message, re.Pattern):
            assert message.fullmatch(text), text
        else:
            assert text == message

    return check
