"""Span tracing of the mfkl layers, installed from outside the package.

Every public function of a layer module, and every public plain method of
a public class defined there, is replaced by a wrapper that records one
span ``(name, start_ns, end_ns, parent, amount)``.  The wrapper is put at
every binding of the original object in every loaded ``mfkl`` module, so
names imported by value (``from .model import potential_gradient`` in
``chain`` and ``lyapunov``, ``run_chain`` in ``harness`` and ``risk``) are
traced too.  ``uninstall`` puts the originals back.

A span's exclusive time is its duration minus that of its direct children.
A layer's self time is the sum of the exclusive times of its spans.
"""

import functools
import inspect
import math
import os
import sys
import time

LAYERS = ("rng", "model", "chain", "lyapunov", "risk", "oracle", "harness")

# Spans named here collect the exclusive time of same-layer helpers they
# call (``ordered_sum`` inside a gradient, ``uniforms`` inside ``normals``),
# so that e.g. the gradient's own time includes its reductions.
_BUCKETS = {
    "rng.RngStream.normals",
    "model.potential_gradient",
    "chain.run_chain",
    "chain.sample_initial",
    "chain.Observer.notify",
    "lyapunov.kernel_values_monte_carlo",
    "risk.histogram_divergence",
    "risk.fit_geometric_rate",
    "oracle.self_consistent_fixed_point",
    "harness.validate_config",
    "harness.write_csv",
    "harness.write_json",
}


# built-in models whose force sums a kernel over all (particle, particle) pairs
_PAIR_MODELS = ("gauss_attract_repel", "torus_trig", "pairwise")


def _normals(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs["n"]


def _gradient(args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    # result has the shape (..., N, d) of the positions
    return result.shape, model.name.split("(", 1)[0] in _PAIR_MODELS


def _steps(args, kwargs, result):
    return (args[2] if len(args) > 2 else kwargs["params"]).n_steps


def _visit(args, kwargs, result):
    observer, step = args[0], args[1]
    return 1 if step % observer.stride == 0 else 0


def _draws(args, kwargs, result):
    return args[4] if len(args) > 4 else kwargs["m_draws"]


def _iterations(args, kwargs, result):
    return result.iterations


def _written(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


# Per-span work amounts, read from a call's arguments and result.
_AMOUNTS = {
    "rng.RngStream.normals": _normals,
    "model.potential_gradient": _gradient,
    "chain.run_chain": _steps,
    "chain.Observer.notify": _visit,
    "lyapunov.kernel_values_monte_carlo": _draws,
    "oracle.self_consistent_fixed_point": _iterations,
    "harness.write_csv": _written,
    "harness.write_json": _written,
}


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn, amount=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if amount is not None:
                spans[index] = (name, start, end, parent, amount(args, kwargs, result))
            return result

        return traced

    def install(self):
        """Wrap the public functions of every layer at all their bindings."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "mfkl" or k.startswith("mfkl."))]
        replacements = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = sys.modules[f"mfkl.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    replacements[id(obj)] = (obj, self._wrap(name, obj, _AMOUNTS.get(name)))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        name = f"{layer}.{attr}.{meth}"
                        self._patches.append((obj, meth, fn))
                        setattr(obj, meth, self._wrap(name, fn, _AMOUNTS.get(name)))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def summarize(spans):
    """Per-layer metrics of one traced experiment call, from its spans."""
    n = len(spans)
    child_ns = [0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    bucket = [None] * n
    inclusive = {}
    exclusive = {}
    calls = {}
    amounts = {}
    layer_self = dict.fromkeys(LAYERS, 0)
    for i, (name, start, end, parent, amount) in enumerate(spans):
        layer = name.split(".", 1)[0]
        if name in _BUCKETS or parent < 0 or not spans[parent][0].startswith(layer + "."):
            bucket[i] = name
        else:
            bucket[i] = bucket[parent]
        own = end - start - child_ns[i]
        layer_self[layer] += own
        exclusive[bucket[i]] = exclusive.get(bucket[i], 0) + own
        inclusive[name] = inclusive.get(name, 0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if amount is not None:
            amounts.setdefault(name, []).append(amount)

    def s(ns):
        return ns * 1e-9

    def per(total, count, scale):
        return total * scale / count if count else 0.0

    grads = amounts.get("model.potential_gradient", [])
    grad_rows = sum(math.prod(shape[:-1]) for shape, _ in grads)
    # pair kernels touch batch x N^2 (particle, particle) terms; the bytes are
    # those of one (..., N, N, d) float64 pair array, computed from shapes
    pair_shapes = [shape for shape, pair in grads if pair]
    pair_terms = [math.prod(shape[:-2]) * shape[-2] ** 2 for shape in pair_shapes]
    pair_bytes = 8 * sum(t * shape[-1] for t, shape in zip(pair_terms, pair_shapes))
    normals_drawn = sum(amounts.get("rng.RngStream.normals", []))
    steps = sum(amounts.get("chain.run_chain", []))
    grad_calls = calls.get("model.potential_gradient", 0)
    writes = ("harness.write_csv", "harness.write_json")
    return {
        "rng.normals_calls": calls.get("rng.RngStream.normals", 0),
        "rng.normals_drawn": normals_drawn,
        "rng.self_s": s(layer_self["rng"]),
        "rng.ns_per_normal": per(inclusive.get("rng.RngStream.normals", 0), normals_drawn, 1.0),
        "model.grad_calls": grad_calls,
        "model.grad_rows": grad_rows,
        "model.pair_terms": sum(pair_terms),
        "model.grad_self_s": s(exclusive.get("model.potential_gradient", 0)),
        "model.us_per_grad": per(inclusive.get("model.potential_gradient", 0), grad_calls, 1e-3),
        "model.pair_bytes_computed": pair_bytes,
        "chain.run_calls": calls.get("chain.run_chain", 0),
        "chain.steps": steps,
        "chain.self_s": s(layer_self["chain"]),
        "chain.us_per_step_self": per(exclusive.get("chain.run_chain", 0), steps, 1e-3),
        "chain.init_s": s(inclusive.get("chain.sample_initial", 0)),
        "chain.observer_visits": sum(amounts.get("chain.Observer.notify", [])),
        "chain.observer_s": s(inclusive.get("chain.Observer.notify", 0)),
        "lyapunov.mc_calls": calls.get("lyapunov.kernel_values_monte_carlo", 0),
        "lyapunov.mc_draws": sum(amounts.get("lyapunov.kernel_values_monte_carlo", [])),
        "lyapunov.self_s": s(layer_self["lyapunov"]),
        "risk.histogram_calls": calls.get("risk.histogram_divergence", 0),
        "risk.histogram_s": s(inclusive.get("risk.histogram_divergence", 0)),
        "risk.rate_fit_s": s(inclusive.get("risk.fit_geometric_rate", 0)),
        "oracle.fixed_point_iters": sum(amounts.get("oracle.self_consistent_fixed_point", [])),
        "oracle.fixed_point_s": s(inclusive.get("oracle.self_consistent_fixed_point", 0)),
        "harness.validate_s": s(inclusive.get("harness.validate_config", 0)),
        "harness.write_calls": sum(calls.get(w, 0) for w in writes),
        "harness.bytes_written": sum(sum(amounts.get(w, [])) for w in writes),
        "harness.write_s": s(sum(inclusive.get(w, 0) for w in writes)),
    }
