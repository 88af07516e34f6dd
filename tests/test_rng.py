import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfkl import PerParticleStreams, RngStream, derive_seed
from mfkl.rng import mix64


def test_same_seed_same_stream():
    a = RngStream(123456789)
    b = RngStream(123456789)
    assert np.array_equal(a.normals(1001), b.normals(1001))
    assert np.array_equal(a.uniforms(17), b.uniforms(17))


def test_chunked_normals_match_bulk():
    bulk = RngStream(7).normals(101)
    chunked = RngStream(7)
    parts = [chunked.normals(n) for n in (1, 2, 3, 50, 45)]
    assert np.array_equal(np.concatenate(parts), bulk)


def test_normal_matrix_is_row_major_fill():
    flat = RngStream(9).normals(12)
    mat = RngStream(9).normal_matrix((3, 4))
    assert np.array_equal(mat.reshape(-1), flat)


def test_uniforms_in_unit_interval():
    u = RngStream(5).uniforms(10_000)
    assert (u >= 0.0).all() and (u < 1.0).all()


def test_normals_distribution_sanity():
    z = RngStream(2718).normals(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02
    assert abs(np.mean(z ** 3)) < 0.05


def test_derive_seed_distinct_and_stable():
    children = [derive_seed(42, k) for k in range(64)]
    assert len(set(children)) == 64
    assert children == [derive_seed(42, k) for k in range(64)]
    with pytest.raises(ValueError):
        derive_seed(42, -1)


def test_mix64_is_a_permutation_sample():
    outs = {mix64(x) for x in range(1000)}
    assert len(outs) == 1000


def test_seed_range_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(2 ** 64)


def test_per_particle_streams_permute_with_ranks():
    base = PerParticleStreams(99, ranks=range(5))
    draws = base.normal_matrix((5, 3))
    perm = [3, 0, 4, 1, 2]
    permuted = PerParticleStreams(99, ranks=perm)
    assert np.array_equal(permuted.normal_matrix((5, 3)), draws[perm])


def test_per_particle_streams_disjoint_from_replica_streams():
    particle = PerParticleStreams(1234, ranks=[0]).normal_matrix((1, 4))[0]
    replica = RngStream(derive_seed(1234, 0)).normals(4)
    assert not np.array_equal(particle, replica)


class _ReferenceStream:
    """The unbuffered Box-Muller stream: one Philox word pair per normal pair,
    drawn on request, with the unpaired second member carried over."""

    def __init__(self, seed):
        self._bits = np.random.Philox(key=seed)
        self._spare = None

    def raw(self, n):
        return self._bits.random_raw(n)

    def uniforms(self, n):
        return (self.raw(n) >> np.uint64(11)) * 2.0 ** -53

    def normals(self, n):
        out = np.empty(n)
        filled = 0
        if self._spare is not None and n > 0:
            out[0] = self._spare
            self._spare = None
            filled = 1
        remaining = n - filled
        if remaining > 0:
            pairs = (remaining + 1) // 2
            u = self.uniforms(2 * pairs)
            g = 1.0 - u[0::2]
            radius = np.sqrt(-2.0 * np.log(g))
            angle = 2.0 * np.pi * u[1::2]
            z = np.empty(2 * pairs)
            z[0::2] = radius * np.cos(angle)
            z[1::2] = radius * np.sin(angle)
            out[filled:] = z[:remaining]
            if 2 * pairs > remaining:
                self._spare = z[-1]
        return out

    def normal_matrix(self, shape):
        return self.normals(int(np.prod(shape))).reshape(shape)


# sizes run past two read-ahead blocks (rng._PAIR_BLOCK = 256 pairs, so 512
# normals a block), so draws cross, end on and straddle block boundaries
_small = st.integers(0, 7)
_draws = st.one_of(
    st.tuples(st.just("normals"), st.one_of(_small, st.integers(0, 1100))),
    st.tuples(st.just("normal_matrix"), st.tuples(st.integers(0, 40), st.integers(1, 3))),
    st.tuples(st.just("normal_matrix"), st.tuples(st.integers(1, 520), st.just(2))),
    st.tuples(st.just("uniforms"), st.one_of(_small, st.integers(0, 600))),
    st.tuples(st.just("raw"), _small),
)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), draws=st.lists(_draws, max_size=25))
def test_interleaved_draws_match_unbuffered_stream(seed, draws):
    stream, reference = RngStream(seed), _ReferenceStream(seed)
    for method, size in draws:
        got = getattr(stream, method)(size)
        want = getattr(reference, method)(size)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (method, size)


def test_negative_normal_count_raises():
    stream = RngStream(11)
    stream.normals(3)  # leaves buffered normals behind
    with pytest.raises(ValueError):
        stream.normals(-1)
    assert np.array_equal(stream.normals(4), _ReferenceStream(11).normals(7)[3:])


def test_writing_into_drawn_normals_leaves_later_draws_unchanged():
    # 3: refill of the read-ahead block; 4: served from it; 505: the rest of
    # the block; 1: refill again; 2000: straight into its own array
    sizes = (3, 4, 505, 1, 2000, 2, 7)
    stream, reference = RngStream(5), _ReferenceStream(5)
    drawn = []
    for n in sizes:
        got = stream.normals(n)
        assert got.flags.owndata and got.flags.writeable
        assert got.tobytes() == reference.normals(n).tobytes(), n
        drawn.append(got.copy())
        got[...] = np.nan
    # the split requests are one stream
    assert np.concatenate(drawn).tobytes() == RngStream(5).normals(sum(sizes)).tobytes()


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: PerParticleStreams(1, [0, 1]).normal_matrix((3, 2)), ValueError,
                 "row count does not match number of particle streams", id="row mismatch"),
])
def test_raise_sites(raises_exactly, call, error, message):
    raises_exactly(call, error, message)
