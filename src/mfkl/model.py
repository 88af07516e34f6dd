"""State spaces, particle states, and mean-field energy models.

A model is described by the force its energy functional exerts on a
particle given the empirical measure of all particles, i.e. the gradient
of the first variation of the energy.  The N-particle potential is N times
the energy of the empirical measure; its gradient drives the sampler.

No reduction over particles depends on the order the particles come in,
which makes every force evaluation bitwise permutation-equivariant: means
sum their values sorted componentwise, and pair sums add the j terms in one
canonical particle order, the particles sorted by their coordinates' bits.
"""

import dataclasses
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CapabilityError, ConfigurationError, NumericalDomainError, _require_integer

EUCLIDEAN = "euclidean"
TORUS = "torus"


# Sums over fewer lanes than this (values that share every index but the
# one summed over) keep numpy's sort and reduce.  The lane path adds one
# column of lanes per call, which pays only over many lanes: over (M/2, N, 2)
# inputs it took 0.53-0.75 of the reduce's time at M = 256 lanes for N from
# 2 to 128, but 1.2-1.7 of it at M = 64 (median of 11 interleaved timeits,
# 2-core Xeon host).
_MIN_LANES = 256


def ordered_sum(values, axis, keepdims=False):
    """Sum along ``axis`` in ascending value order (permutation-invariant).

    The bits are those of ``np.add.reduce(np.sort(values, axis), axis)``,
    the reduction ``np.sum`` dispatches to, and follow numpy's summation
    order.  Along an axis that is the innermost loop of the reduction (the
    last axis of a C-contiguous array, or one followed only by size-1 axes)
    numpy adds pairwise; along any other axis it adds the terms one at a
    time, in order, starting from +0.0.  Like every result of this package,
    the bits hold for one numpy version and one SIMD dispatch target.

    A C-contiguous float64 input with more than one value after ``axis``
    and at least ``_MIN_LANES`` lanes gets those in-order bits faster: its
    lanes are copied into C order with ``axis`` last and sorted in place,
    and their columns are added in order to +0.0 + the first column.
    """
    if (
        isinstance(values, np.ndarray)
        and values.size >= _MIN_LANES  # first: it turns away the small d = 1 inputs
        and values.dtype == np.float64
        and values.flags.c_contiguous
        and axis in range(-values.ndim, values.ndim)
        and values.size >= _MIN_LANES * values.shape[axis]
        and math.prod(values.shape[axis:]) > values.shape[axis]
    ):
        axis %= values.ndim
        n, after = values.shape[axis], values.shape[axis + 1:]
        lanes = values.reshape(-1, n, math.prod(after)).transpose(0, 2, 1).copy()
        lanes.sort(axis=-1)
        total = lanes[..., 0] + 0.0
        for k in range(1, n):
            total += lanes[..., k]
        return total.reshape(values.shape[:axis] + ((1,) if keepdims else ()) + after)
    return np.add.reduce(np.sort(values, axis=axis), axis=axis, keepdims=keepdims)


def ordered_mean(values, axis, keepdims=False):
    """Mean along ``axis`` of the ascending-order sum (see :func:`ordered_sum`)."""
    return ordered_sum(values, axis, keepdims) / values.shape[axis]


def _first_non_finite(*arrays):
    """``(k, row)`` for the first of ``arrays`` holding a non-finite entry,
    with ``row`` its first such row (index over the leading axes); None when
    every entry is finite.  The arrays share one shape.

    One sum screens them all: a finite ``np.add.reduce`` of their elementwise
    sum means every entry is finite.  Only a non-finite sum (a non-finite
    entry, or finite entries whose sum overflowed) runs the exact
    ``np.isfinite`` pass, array by array.  Summing finite entries near the
    float64 limit can overflow, with numpy's overflow warning.
    """
    screen = arrays[0]
    for a in arrays[1:]:
        screen = screen + a
    if math.isfinite(np.add.reduce(screen, axis=None)):
        return None
    for k, a in enumerate(arrays):
        bad = np.argwhere(~np.isfinite(a).all(axis=-1))
        if len(bad):
            return k, tuple(int(i) for i in bad[0])
    return None


@dataclass(frozen=True)
class Space:
    """Ambient space: Euclidean R^d or the flat torus [0,1)^d."""

    kind: str
    d: int

    def __post_init__(self):
        if self.kind not in (EUCLIDEAN, TORUS):
            raise ConfigurationError(f"unknown space kind {self.kind!r}")
        _require_integer("d", self.d)
        if self.d < 1:
            raise ConfigurationError("space dimension must be >= 1")

    @property
    def is_torus(self):
        return self.kind == TORUS

    def wrap(self, positions):
        """Canonical representative: componentwise in [0,1) on the torus.

        ``x - floor(x)`` rounds up to exactly 1.0 for x in (-2^-54, 0); that
        point is the same as 0.0 on the circle and is mapped there.
        """
        if not self.is_torus:
            return positions
        wrapped = positions - np.floor(positions)
        # a fresh float array, 0-d and integer inputs included
        wrapped = np.asarray(wrapped, dtype=np.result_type(wrapped, 0.0))
        wrapped[wrapped == 1.0] = 0.0
        return wrapped

    def min_image(self, delta):
        """Minimal-image displacement in (-1/2, 1/2]^d (identity on R^d)."""
        if not self.is_torus:
            return delta
        # t - floor(t) is np.mod(t, 1.0) bitwise for finite t, at a quarter
        # of its cost: both round the exact fraction (+1 when t < 0) once
        t = 0.5 - delta
        return 0.5 - (t - np.floor(t))


@dataclass
class ParticleState:
    """Positions and velocities of N particles, tagged with their space."""

    positions: np.ndarray
    velocities: np.ndarray
    space: Space

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.velocities = np.asarray(self.velocities, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape != self.velocities.shape:
            raise ConfigurationError(
                "positions and velocities must be matching (N, d) arrays"
            )
        n, d = self.positions.shape
        if n < 1:
            raise ConfigurationError("need at least one particle")
        if d != self.space.d:
            raise ConfigurationError(
                f"state dimension {d} does not match space dimension {self.space.d}"
            )
        with np.errstate(over="ignore", invalid="ignore"):  # a valid state never warns
            bad = _first_non_finite(self.positions, self.velocities)
        if bad is not None:
            raise NumericalDomainError("non-finite entries in particle state")
        if self.space.is_torus and (
            (self.positions < 0.0).any() or (self.positions >= 1.0).any()
        ):
            raise ConfigurationError("torus positions must lie in [0, 1)")

    @property
    def n_particles(self):
        return self.positions.shape[0]

    @property
    def d(self):
        return self.positions.shape[1]

    def copy(self):
        return ParticleState(self.positions.copy(), self.velocities.copy(), self.space)

    def readonly_view(self):
        """Same data with write access disabled (handed to observers)."""
        return readonly_state(self.positions, self.velocities, self.space)


def readonly_state(positions, velocities, space):
    """A :class:`ParticleState` over write-protected views of the arrays.

    Skips validation: the caller vouches that the arrays already form a
    valid state (matching ``(N, d)`` shapes, finite, wrapped on the torus).
    """
    pos = positions.view()
    vel = velocities.view()
    pos.flags.writeable = False
    vel.flags.writeable = False
    view = object.__new__(ParticleState)
    view.positions = pos
    view.velocities = vel
    view.space = space
    return view


@dataclass(frozen=True)
class ModelCoefficients:
    """Declared regularity and drift coefficients of a model.

    Every field is optional; diagnostics that need an absent coefficient
    raise :class:`CapabilityError` instead of guessing.  ``l1`` must equal
    ``m1x + m1m`` whenever all three are declared.
    """

    m1x: float | None = None
    m1m: float | None = None
    l1: float | None = None
    l2: float | None = None
    l3: float | None = None
    df_sup: float | None = None
    m_bnd: float | None = None
    lambda_growth: float | None = None
    r_conf: float | None = None
    c0: float | None = None
    c1: float | None = None
    r0_low: float | None = None
    r1_up: float | None = None

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is not None and (not math.isfinite(value) or value < 0.0):
                raise ConfigurationError(f"coefficient {f.name} must be a nonnegative real")
        if self.c0 is not None and self.c1 is not None and self.c0 > self.c1:
            raise ConfigurationError("need c0 <= c1")
        if self.r0_low is not None and self.r1_up is not None and self.r0_low > self.r1_up:
            raise ConfigurationError("need r0_low <= r1_up")
        if self.m1x is not None and self.m1m is not None and self.l1 is not None:
            if not math.isclose(self.l1, self.m1x + self.m1m, rel_tol=1e-12, abs_tol=1e-12):
                raise ConfigurationError("l1 must equal m1x + m1m when all are declared")

    def require(self, *names):
        """Return the named coefficients, or raise naming what is missing."""
        missing = [n for n in names if getattr(self, n) is None]
        if missing:
            raise CapabilityError(
                "model does not declare coefficient(s) "
                + ", ".join(missing)
                + "; the dependent diagnostic is disabled"
            )
        return tuple(getattr(self, n) for n in names)


@dataclass
class MeanFieldModel:
    """Mean-field energy exposed through its force on a single particle.

    ``force(positions, x)`` evaluates the intrinsic derivative of the energy
    at the empirical measure of ``positions``, at the query point ``x``.  It
    must be pure and permutation-invariant in the particle rows.

    ``force_all`` is an optional vectorized evaluation returning the force
    at every particle of ``positions`` (any number of leading batch axes);
    its rows must coincide bitwise with per-row ``force`` calls, and each
    batch element's rows must not depend on the other batch elements, so
    that :func:`potential_gradient` may evaluate a batch in blocks.  Built-in
    models state the force once, as ``field(positions, queries)`` at
    ``(..., M, d)`` query points, computing each query row on its own;
    ``force`` is the field at ``x`` alone, ``force_all`` at the particles.
    Built-in pair forces and energies sum over j in one canonical particle
    order (see :func:`_pair_sums`) and take O(B N d) memory.
    """

    space: Space
    force: "callable"
    coeffs: ModelCoefficients = dataclasses.field(default_factory=ModelCoefficients)
    force_all: "callable | None" = None
    energy: "callable | None" = None
    linear_derivative: "callable | None" = None
    external_potential: "callable | None" = None
    name: str = "custom"


def potential_gradient(model, positions):
    """Gradient of the N-particle potential: row i is the force at particle i.

    Accepts leading batch axes when the model provides a vectorized
    ``force_all``; otherwise falls back to one ``force`` call per particle.
    A batch (positions with axes before ``(N, d)``) is evaluated in blocks
    of its leading axis, each of at most ``_PAIR_BLOCK`` values (one leading
    row at least), written into one preallocated output: ``force_all``'s
    temporaries stay cache-sized instead of growing with the batch, and as
    no batch element's rows depend on another's, the bits are those of one
    call over the whole batch.
    """
    positions = np.asarray(positions, dtype=float)
    if model.force_all is None:
        if positions.ndim != 2:
            raise CapabilityError("batched gradients need a model with force_all")
        grad = np.stack([model.force(positions, positions[i]) for i in range(positions.shape[0])])
    elif positions.ndim > 2:
        rows = max(1, _PAIR_BLOCK // math.prod(positions.shape[1:]))
        grad = np.empty(positions.shape)
        for start in range(0, positions.shape[0], rows):
            grad[start:start + rows] = model.force_all(positions[start:start + rows])
    else:
        grad = model.force_all(positions)
    bad = _first_non_finite(grad)
    if bad is not None:
        raise NumericalDomainError(f"non-finite force at particle index {bad[1]}")
    return grad


def system_potential(model, positions):
    """N-particle potential: N times the energy of the empirical measure."""
    positions = np.asarray(positions, dtype=float)
    if model.energy is None:
        raise CapabilityError("model does not expose an energy")
    value = positions.shape[-2] * model.energy(positions)
    if not np.all(np.isfinite(value)):
        raise NumericalDomainError("non-finite potential value")
    return value


# ---------------------------------------------------------------------------
# built-in models


# Elements of one (..., B, N, d) pair temporary of the pair kernel, every
# batch axis counted, and of one block of a batched potential_gradient:
# 2^15 float64 values, 256 KiB.  The Gaussian kernel's workspace, which
# _pair_sums has it allocate once per call and which every block reuses,
# holds two such arrays and a (..., B, N, 1) scale, well inside a 2 MiB L2
# cache.  At N = 1024, d = 2, force_all took 14.2 ms at 2^15, 14.9-15.2 ms
# at 2^13, 2^14 and 2^16, 17.7 ms at 2^17 and 26.0 ms at 2^18 (median of 150
# calls each, 2-core Xeon host; the sweep is in BENCH_14.json).  With the
# workspace it took 6.83 ms at 2^15, 9.72 ms at 2^13, 7.73 ms at 2^14,
# 6.45 ms at 2^16 and 8.47 ms at 2^17 (BENCH_25.json); the budget also sets
# the blocks of a batched gradient, where 2^16 was not measured.
_PAIR_BLOCK = 1 << 15


def _coordinate_major(points):
    """Copy ``(..., M, d)`` points into ``(d, ..., M)`` memory."""
    return np.ascontiguousarray(np.moveaxis(points, -1, 0))


def _canonical_order(points_cm):
    """Indices sorting ``(d, ..., N)`` coordinate-major points along N.

    The order is lexicographic over coordinates, coordinate 0 first, on a
    total order of the float64 bit patterns: -0.0 sorts before +0.0, and
    points with equal keys are bitwise equal, so the sorted points do not
    depend on the order they came in.
    """
    bits = points_cm.view(np.int64)
    keys = bits ^ ((bits >> 63) & np.int64(np.iinfo(np.int64).max))
    return np.lexsort(keys[::-1], axis=-1)


def _pair_sums(kernel, positions, queries, width=None):
    """Row i: the ordered sum over j of the pair terms of ``queries[i]`` and ``positions[j]``.

    ``kernel(shape)`` is called once per call, with the pair shape
    ``(..., B, N, d)`` of the largest block, and returns the two-argument
    ``(x, y) -> terms`` function applied to every block; the terms are
    ``(..., b, N, width)`` for a block of b <= B query rows, ``width``
    defaulting to d (forces), and pair energies pass 1.  A kernel that works
    in buffers allocates them in that call, so one workspace serves every
    block of the call and none outlives it.  Both point sets are copied once
    into coordinate-major memory, the particles in :func:`_canonical_order`,
    so the strided views handed to the terms function produce pair arrays
    whose j axis is contiguous for every coordinate, and each row is numpy's
    pairwise sum over j in that one order.  Query rows are taken B at a
    time, with (batch size) * B * N * d <= ``_PAIR_BLOCK``: memory is
    O(B N d) instead of O(N^2 d), and blocking does not change a bit.
    """
    rows_cm = _coordinate_major(queries)
    cols_cm = rows_cm if queries is positions else _coordinate_major(positions)
    cols_cm = np.take_along_axis(cols_cm, _canonical_order(cols_cm)[None], axis=-1)
    rows = np.moveaxis(rows_cm[..., :, None], 0, -1)
    cols = np.moveaxis(cols_cm[..., None, :], 0, -1)
    batch = np.broadcast_shapes(rows_cm.shape[1:-1], cols_cm.shape[1:-1])
    d, n_rows, n = cols_cm.shape[0], rows_cm.shape[-1], cols_cm.shape[-1]
    block = max(1, min(n_rows, _PAIR_BLOCK // max(1, math.prod(batch) * n * d)))
    # allocated before the first block: allocated after it, the peak RSS of
    # the N=1024 pair force run grew by 0.5 MB
    out = np.empty(batch + (n_rows, width or d))
    terms = kernel(batch + (block, n, d))
    for start in range(0, n_rows, block):
        pairs = terms(rows[..., start:start + block, :, :], cols)
        out[..., start:start + block, :] = np.add.reduce(pairs, axis=-2)
    return out


def _field_model(space, field, **fields):
    """A :class:`MeanFieldModel` whose ``force`` and ``force_all`` evaluate ``field``."""

    def force(positions, x):
        positions = np.asarray(positions, dtype=float)
        x = np.asarray(x, dtype=float)
        query = np.broadcast_to(x, x.shape[:-1] + positions.shape[-1:])[..., None, :]
        return field(positions, query)[..., 0, :]

    def force_all(positions):
        positions = np.asarray(positions, dtype=float)
        return field(positions, positions)

    return MeanFieldModel(space=space, force=force, force_all=force_all, **fields)


def _confinement(r):
    """The external potential ``(r/2)|x|^2`` and the coefficients it fixes."""

    def external(x):
        return 0.5 * r * np.sum(np.atleast_1d(x) ** 2, axis=-1)

    return external, dict(r_conf=r, c0=0.5 * r, c1=0.5 * r, r0_low=0.0, r1_up=0.0)


def pairwise_model(space, grad_v, grad_w, v=None, w=None, coeffs=None, name="pairwise"):
    """Energy from an external potential V and a symmetric pair kernel W.

    The force field at query q is ``grad_v(q) + mean_j grad_w(q, x_j)``.
    ``grad_v(x)`` and ``grad_w(x, y)`` (gradient in the first argument) must
    broadcast over leading axes.  ``grad_w`` and ``w`` receive strided views
    of ``(..., B, 1, d)`` query rows and ``(..., 1, N, d)`` particles, the
    particles in canonical order (sorted by their coordinates' bits), not in
    the order of ``positions``; they must act elementwise over the leading
    axes and may reduce only over the last (coordinate) axis.  Pair sums are
    taken B query rows at a time, so forces and energy need O(B N d) memory;
    ``grad_w`` and ``w`` are called on every block as given, and the model
    keeps no buffer between calls.
    The self-interaction term j = i is kept, matching the empirical-measure
    definition of the force.  ``v``/``w`` enable the energy, whose pair part
    is an ordered sum over rows of each row's sum over j in canonical order;
    on the torus the callables themselves are responsible for periodicity.
    """
    return _pair_model(space, grad_v, lambda shape: grad_w, v, w, coeffs, name)


def _pair_model(space, grad_v, kernel, v, w, coeffs, name):
    """:func:`pairwise_model` with the pair gradient given as a kernel factory.

    ``kernel(shape)`` returns the ``grad_w`` of every block of one
    :func:`_pair_sums` call, whose largest block has pair shape ``shape``;
    :func:`gauss_attract_repel_model` allocates its workspace there.
    """

    def field(positions, queries):
        return grad_v(queries) + _pair_sums(kernel, positions, queries) / positions.shape[-2]

    energy = None
    if v is not None and w is not None:
        def pair_energy(x, y):
            return w(x, y)[..., None]

        def energy(positions):
            positions = np.asarray(positions, dtype=float)
            n = positions.shape[-2]
            ext = ordered_sum(v(positions), axis=-1) / n
            rows = _pair_sums(lambda shape: pair_energy, positions, positions, 1)
            return ext + ordered_sum(rows[..., 0], axis=-1) / (2.0 * n * n)

    return _field_model(space, field, energy=energy, coeffs=coeffs or ModelCoefficients(),
                        name=name)


def quadratic_model(r, s, d=1):
    """Quadratic confinement (r/2)|x|^2 with quadratic interaction s|x-y|^2.

    The mean-field force is ``r x + 2 s (x - mean)``; the stationary law in
    one dimension is the centered Gaussian with variance 1/(r + 2 s).
    """
    if r <= 0.0:
        raise ConfigurationError("quadratic model needs r > 0")
    if s < 0.0:
        raise ConfigurationError("quadratic model needs s >= 0")
    external, confinement = _confinement(r)

    def field(positions, queries):
        mean = ordered_mean(positions, axis=-2, keepdims=True)
        return r * queries + 2.0 * s * (queries - mean)

    def energy(positions):
        positions = np.asarray(positions, dtype=float)
        sq = np.sum(positions * positions, axis=-1)
        m2 = ordered_mean(sq, axis=-1)
        m1 = ordered_mean(positions, axis=-2)
        return 0.5 * r * m2 + s * (m2 - np.sum(m1 * m1, axis=-1))

    def linear_derivative(density, x):
        m1 = density.expectation(lambda y: y)
        m2 = density.expectation(lambda y: y * y)
        x = np.asarray(x, dtype=float)
        return 0.5 * r * x * x + s * (x * x - 2.0 * x * m1 + m2)

    coeffs = ModelCoefficients(
        m1x=r + 2.0 * s,
        m1m=2.0 * s,
        l1=r + 4.0 * s,
        l2=0.0,
        l3=0.0,
        lambda_growth=2.0 * s,
        m_bnd=0.0,
        **confinement,
    )
    return _field_model(
        Space(EUCLIDEAN, d),
        field,
        energy=energy,
        linear_derivative=linear_derivative if d == 1 else None,
        external_potential=external,
        coeffs=coeffs,
        name=f"quadratic(r={r}, s={s})",
    )


def gauss_attract_repel_model(big_l, s, r, d=1):
    """Gaussian short-range repulsion with quadratic long-range attraction.

    Pair kernel ``L exp(-|x-y|^2) + s |x-y|^2`` over confinement
    ``(r/2)|x|^2``.  The bounded part of the mean-field force never exceeds
    ``L * sqrt(2) * exp(-1/2)`` in norm.
    """
    if r <= 0.0:
        raise ConfigurationError("gauss_attract_repel needs r > 0")
    if big_l < 0.0 or s < 0.0:
        raise ConfigurationError("gauss_attract_repel needs L >= 0 and s >= 0")
    space = Space(EUCLIDEAN, d)
    external, confinement = _confinement(r)

    def pair_grad(shape):
        # one workspace per pair-sum call, shared by its blocks (a ragged last
        # block takes the leading rows), in one allocation of 2d + 1 planes of
        # (..., B, N) values: the d coordinates of delta, the d of out, then
        # the scale.  The buffers are coordinate-major like the temporaries of
        # x - y on the kernel's views, so the j axis of each coordinate stays
        # contiguous (C-order buffers ran 4x slower and changed the bits of
        # the sums).  Every plane starts on a 64-byte line: with delta or out
        # off one, as numpy's 16-byte-aligned allocations land, the pair sum
        # at N = 1024, d = 2 took 7.0-9.3 ms instead of 6.4-6.5 ms
        # (BENCH_25.json).
        d, plane = shape[-1], math.prod(shape[:-1])
        stride = -(-plane // 8) * 8
        raw = np.empty((2 * d + 1) * stride + 7)
        first = (-raw.ctypes.data % 64) // 8
        planes = raw[first:first + (2 * d + 1) * stride].reshape(2 * d + 1, stride)[:, :plane]
        delta_ws = np.moveaxis(planes[:d].reshape((d,) + shape[:-1]), 0, -1)
        out_ws = np.moveaxis(planes[d:2 * d].reshape((d,) + shape[:-1]), 0, -1)
        scale_ws = planes[2 * d].reshape(shape[:-1] + (1,))

        def terms(x, y):
            # the bits of (-2 L) exp(-|delta|^2) delta + 2 s delta: the same
            # operations in the same order, in place in the workspace
            rows = slice(x.shape[-3])
            delta = np.subtract(x, y, out=delta_ws[..., rows, :, :])
            out = np.multiply(delta, delta, out=out_ws[..., rows, :, :])
            scale = np.add.reduce(out, axis=-1, keepdims=True, out=scale_ws[..., rows, :, :])
            np.negative(scale, out=scale)
            np.exp(scale, out=scale)
            np.multiply(-2.0 * big_l, scale, out=scale)
            np.multiply(scale, delta, out=out)
            np.multiply(2.0 * s, delta, out=delta)
            return np.add(out, delta, out=out)

        return terms

    def pair_w(x, y):
        delta = x - y
        sq = np.sum(delta * delta, axis=-1)
        return big_l * np.exp(-sq) + s * sq

    def linear_derivative(density, x):
        x = np.asarray(x, dtype=float)
        y = density.centers
        delta = x[..., None] - y
        kernel = big_l * np.exp(-delta * delta) + s * delta * delta
        return 0.5 * r * x * x + kernel @ (density.values * density.dx)

    bounded_force = big_l * math.sqrt(2.0) * math.exp(-0.5)
    hess_w1 = 2.0 * big_l  # curvature bound of the Gaussian bump, d = 1
    coeffs = ModelCoefficients(
        m1x=r + 2.0 * s + hess_w1,
        m1m=2.0 * s + hess_w1,
        l1=r + 4.0 * s + 2.0 * hess_w1,
        lambda_growth=2.0 * s,
        m_bnd=bounded_force,
        **confinement,
    )
    return replace(
        _pair_model(space, lambda x: r * x, pair_grad, external, pair_w, coeffs,
                    f"gauss_attract_repel(L={big_l}, s={s}, r={r})"),
        linear_derivative=linear_derivative if d == 1 else None,
        external_potential=external,
    )


def torus_trig_model(a, b, d=1):
    """Periodic cosine potential and cosine pair kernel on the torus.

    ``V(x) = a sum_j cos(2 pi x_j)``, ``W(delta) = b sum_j cos(2 pi delta_j)``;
    the mean-field force is bounded by ``2 pi (|a| + |b|) sqrt(d)``.  Per
    coordinate, sin 2 pi (q - x) = sin 2 pi q cos 2 pi x - cos 2 pi q sin 2 pi x,
    so with C, S the ordered means of cos 2 pi x_j, sin 2 pi x_j the pair force
    at q is ``-2 pi b (C sin 2 pi q - S cos 2 pi q)`` and the pair energy
    ``b/2 sum_coords (C^2 + S^2)``: O(N d) time and memory.
    """
    two_pi = 2.0 * np.pi

    def trig(points):
        phase = np.asarray(two_pi * points)  # a fresh array, 0-d included
        cosine = np.cos(phase)
        return cosine, np.sin(phase, out=phase)

    def field(positions, queries):
        cos_x, sin_x = trig(positions)
        if queries is positions:
            cos_q, sin_q = cos_x, sin_x
        else:  # query buffers of the output's shape, batch axes included
            batch = np.broadcast_shapes(queries.shape[:-2], positions.shape[:-2])
            cos_q, sin_q = trig(np.broadcast_to(queries, batch + queries.shape[-2:]))
        c, s = (ordered_mean(t, axis=-2, keepdims=True) for t in (cos_x, sin_x))
        # the bits of -2 pi a sin_q - 2 pi b (sin_q c - cos_q s), built in the
        # trig buffers: IEEE products commute exactly
        pair = sin_q * c
        cos_q *= s
        pair -= cos_q
        pair *= two_pi * b
        sin_q *= -two_pi * a
        sin_q -= pair
        return sin_q

    def energy(positions):
        cos_x, sin_x = trig(np.asarray(positions, dtype=float))
        c, s = ordered_mean(cos_x, axis=-2), ordered_mean(sin_x, axis=-2)
        ext = ordered_mean(np.sum(a * cos_x, axis=-1), axis=-1)
        return ext + 0.5 * b * np.sum(c * c + s * s, axis=-1)

    def external(x):
        return np.sum(a * np.cos(two_pi * np.atleast_1d(x)), axis=-1)

    def linear_derivative(density, x):
        weights = density.values * density.dx
        cos_avg, sin_avg = (float(t @ weights) for t in trig(density.centers))
        cos_x, sin_x = trig(np.asarray(x, dtype=float))
        return a * cos_x + b * (cos_x * cos_avg + sin_x * sin_avg)

    coeffs = ModelCoefficients(
        m1x=4.0 * np.pi ** 2 * (abs(a) + abs(b)),
        m1m=4.0 * np.pi ** 2 * abs(b),
        l1=4.0 * np.pi ** 2 * (abs(a) + 2.0 * abs(b)),
        df_sup=two_pi * (abs(a) + abs(b)) * math.sqrt(d),
    )
    return _field_model(Space(TORUS, d), field, energy=energy, external_potential=external,
                        linear_derivative=linear_derivative if d == 1 else None,
                        coeffs=coeffs, name=f"torus_trig(a={a}, b={b})")


def _sigmoid(t):
    return 1.0 / (1.0 + np.exp(-t))


def flat_convex_regression_model(xs, ys, ridge_r=1.0):
    """Mean-field ridge regression of a single sigmoid neuron population.

    Quadratic loss against a finite dataset; the population predictor is
    the average of ``sigmoid(theta . x)`` over particles, which makes the
    data term convex along linear interpolations of measures.  Sums over
    the dataset and the coordinates are elementwise per row (no matrix
    products), so each force row depends only on its own query point and
    on the sorted particle average; temporaries are ``(..., M, K, d)``.
    """
    try:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
    except (TypeError, ValueError) as err:
        raise ConfigurationError("dataset must be numeric xs (K, d) with ys (K,)") from err
    if xs.ndim != 2 or ys.ndim != 1 or xs.shape[0] != ys.shape[0]:
        raise ConfigurationError("dataset must be xs (K, d) with ys (K,)")
    if ridge_r <= 0.0:
        raise ConfigurationError("ridge coefficient must be positive")
    n_data, d = xs.shape
    external, confinement = _confinement(ridge_r)

    def activations(points):
        # (..., M, K): sigmoid(theta_m . x_k)
        return _sigmoid(np.sum(points[..., :, None, :] * xs, axis=-1))

    def field(positions, queries):
        act = activations(positions)
        slope = act if queries is positions else activations(queries)
        resid = ordered_mean(act, axis=-2)[..., None, :] - ys  # (..., 1, K)
        weight = resid * (slope * (1.0 - slope))  # (..., M, K)
        return ridge_r * queries + np.sum(weight[..., None] * xs, axis=-2) / n_data

    def energy(positions):
        positions = np.asarray(positions, dtype=float)
        resid = ordered_mean(activations(positions), axis=-2) - ys
        ridge = 0.5 * ridge_r * ordered_mean(np.sum(positions * positions, axis=-1), axis=-1)
        return ridge + 0.5 * np.mean(resid * resid, axis=-1)

    data_scale = float(np.mean((1.0 + np.abs(ys)) * np.sum(xs * xs, axis=1)))
    curv = data_scale / (6.0 * math.sqrt(3.0))  # |sigmoid''| <= 1/(6 sqrt 3)
    mix = float(np.mean(np.sum(xs * xs, axis=1))) / 16.0
    coeffs = ModelCoefficients(
        m1x=ridge_r + curv + mix,
        m1m=mix,
        l1=ridge_r + curv + 2.0 * mix,
        lambda_growth=0.0,
        m_bnd=float(np.mean((1.0 + np.abs(ys)) * np.linalg.norm(xs, axis=1)) / 4.0)
        / math.sqrt(d),
        **confinement,
    )
    return _field_model(
        Space(EUCLIDEAN, d),
        field,
        energy=energy,
        external_potential=external,
        coeffs=coeffs,
        name=f"flat_convex_regression(K={n_data}, d={d}, ridge={ridge_r})",
    )


_VARIANTS = {
    "quadratic": (quadratic_model, ("r", "s", "d")),
    "gauss_attract_repel": (gauss_attract_repel_model, ("L", "s", "r", "d")),
    "torus_trig": (torus_trig_model, ("a", "b", "d")),
    "flat_convex_regression": (flat_convex_regression_model, ("xs", "ys", "ridge_r")),
}


def make_builtin_model(spec):
    """Build a model from a JSON-style mapping ``{"variant": ..., params}``."""
    if not isinstance(spec, dict) or "variant" not in spec:
        raise ConfigurationError("model spec must be a mapping with a 'variant' key")
    variant = spec["variant"]
    if variant not in _VARIANTS:
        raise ConfigurationError(
            f"unknown model variant {variant!r}; expected one of {sorted(_VARIANTS)}"
        )
    builder, allowed = _VARIANTS[variant]
    params = {k: v for k, v in spec.items() if k != "variant"}
    unknown = set(params) - set(allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown parameter(s) {sorted(unknown)} for model variant {variant!r}"
        )
    if variant == "gauss_attract_repel" and "L" in params:
        params["big_l"] = params.pop("L")
    return builder(**params)
