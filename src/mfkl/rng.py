"""Deterministic random number streams.

All randomness in mfkl flows through :class:`RngStream`, a thin layer over
the Philox 4x64 counter-based generator (numpy implementation) with a
fixed 128-bit key ``(seed, 0)`` and counter starting at zero.  Standard
normals are produced by the Box-Muller transform on 53-bit uniforms.  The
same seed gives the same bytes under the same numpy version and the same
SIMD dispatch target: numpy picks its float64 ``log`` by CPU features, and
another target can move some normals by an ulp or two (1,715 of the first
10^6 of seed 12345 between the AVX-512 and the baseline x86-64 targets).
The stream is:

* raw words: Philox4x64 outputs taken in counter order;
* uniform in [0, 1): ``(word >> 11) * 2**-53``;
* normals: for each uniform pair (u1, u2), with ``g = 1 - u1`` in (0, 1],
  emit ``sqrt(-2 ln g) cos(2 pi u2)`` then ``sqrt(-2 ln g) sin(2 pi u2)``.

An unconsumed second member of a Box-Muller pair is carried over to the
next request, so splitting one request for ``n`` normals into several
smaller requests yields the identical sequence.

Small requests are served from a read-ahead buffer of ``_PAIR_BLOCK``
Box-Muller pairs, drawn one block at a time; requests of a block or more
are transformed straight into their output array.  The read-ahead is
invisible in the byte stream: the generator state before each block is
kept, and the next ``raw``/``uniforms`` request first rewinds to it and
re-draws only the words of the pairs already handed out, keeping the
unpaired member of a half-used pair as the carry.  Interleaving normals
with raw words or uniforms therefore gives the same numbers as the
unbuffered stream described above.

Substream derivation uses the SplitMix64 output function: child ``k`` of a
stream seeded with ``s`` is seeded with ``mix64(s + (k+1) * GOLDEN)``,
which is the ``(k+1)``-th output of the SplitMix64 sequence started at
``s``.
"""

import math

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF

# salt applied before deriving per-particle substreams, so that particle
# substreams never collide with replica substreams of the same master seed
PARTICLE_SALT = 0x632BE59BD9B4E019

# Box-Muller pairs drawn per refill of the read-ahead buffer of normals
_PAIR_BLOCK = 256


def mix64(x):
    """SplitMix64 finalizer: a documented 64-bit mixing function."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(master_seed, index):
    """Child seed ``index`` of ``master_seed`` (replica/worker derivation)."""
    if index < 0:
        raise ValueError("substream index must be nonnegative")
    return mix64((int(master_seed) + (index + 1) * GOLDEN) & _MASK64)


def _box_muller(words, out):
    """Normals of the pairs in ``words`` (an even count) written into ``out``.

    ``out`` holds either one normal per word or one fewer; in the second
    case the sine member of the last pair does not fit and is returned.
    Consumes ``words``: its memory holds the uniforms, then the cosines
    and sines, so the transform needs one half-size buffer of its own.
    """
    np.right_shift(words, np.uint64(11), out=words)
    u = words.view(np.float64)
    u[...] = words  # exact below 2**53; np.multiply(..., out=u) would copy words
    u *= 2.0 ** -53
    radius = np.subtract(1.0, u[0::2])  # 1 - u in (0, 1]: finite log
    np.log(radius, out=radius)
    np.multiply(-2.0, radius, out=radius)
    np.sqrt(radius, out=radius)
    cosine, sine = u[0::2], u[1::2]
    np.multiply(2.0 * np.pi, sine, out=sine)  # the angle
    np.cos(sine, out=cosine)
    np.sin(sine, out=sine)
    np.multiply(radius, cosine, out=out[0::2])
    if out.size % 2:
        np.multiply(radius[:-1], sine[:-1], out=out[1::2])
        return radius[-1] * sine[-1]
    np.multiply(radius, sine, out=out[1::2])
    return None


class RngStream:
    """Sequential stream of uniforms/normals from a keyed Philox generator."""

    def __init__(self, seed):
        seed = int(seed)
        if not 0 <= seed <= _MASK64:
            raise ValueError("seed must fit in 64 bits")
        self._bits = np.random.Philox(key=seed)
        # normals drawn but not yet handed out start at self._buf[self._pos];
        # self._block_state is the generator state before their words were
        # drawn, or None once the buffer holds only a carried pair member
        self._buf = np.empty(0)
        self._pos = 0
        self._block_state = None

    def _rewind(self):
        """Return the read-ahead words of pairs not yet handed out."""
        pos = self._pos
        if pos < self._buf.size:
            self._bits.state = self._block_state
            self._bits.random_raw(2 * ((pos + 1) // 2))
            self._buf = self._buf[pos:pos + pos % 2]
            self._pos = 0
        self._block_state = None

    def raw(self, n):
        """Next ``n`` raw 64-bit words."""
        if self._block_state is not None:
            self._rewind()
        return self._bits.random_raw(n)

    def uniforms(self, n):
        """Next ``n`` uniforms in [0, 1) with 53-bit resolution."""
        return (self.raw(n) >> np.uint64(11)) * 2.0 ** -53

    def normals(self, n):
        """Next ``n`` standard normals (Box-Muller, with pair carry)."""
        pos = self._pos
        if 0 <= n <= self._buf.size - pos:
            self._pos = pos + n
            return self._buf[pos:pos + n].copy()
        out = np.empty(n)
        filled = min(n, self._buf.size - pos)
        out[:filled] = self._buf[pos:pos + filled]
        self._pos = pos + filled
        rest = n - filled
        if rest >= 2 * _PAIR_BLOCK:
            self._block_state = None
            carry = _box_muller(self._bits.random_raw(rest + rest % 2), out[filled:])
            self._buf = np.empty(0) if carry is None else np.array([carry])
            self._pos = 0
        elif rest > 0:
            self._block_state = self._bits.state
            self._buf = np.empty(2 * _PAIR_BLOCK)
            _box_muller(self._bits.random_raw(2 * _PAIR_BLOCK), self._buf)
            out[filled:] = self._buf[:rest]
            self._pos = rest
        return out

    def normal_matrix(self, shape):
        """Normals filled in row-major order (particle-major, coordinate-minor)."""
        return self.normals(math.prod(shape)).reshape(shape)


class PerParticleStreams:
    """Noise source with one substream per particle rank.

    Row ``i`` of every requested matrix is drawn from the substream of
    ``ranks[i]``, so relabeling particles together with their ranks permutes
    the generated noise identically.  Used to check exchangeability of the
    chain; the default sampler is the sequential :class:`RngStream`.
    """

    def __init__(self, master_seed, ranks):
        self.streams = [
            RngStream(derive_seed(int(master_seed) ^ PARTICLE_SALT, r)) for r in ranks
        ]

    def normal_matrix(self, shape):
        n_rows, n_cols = shape
        if n_rows != len(self.streams):
            raise ValueError("row count does not match number of particle streams")
        return np.stack([s.normals(n_cols) for s in self.streams])
