"""Experiment configuration, drivers, and file output.

Configs are strict JSON (a field the kind does not read is rejected with its path);
numeric tables are written as comma-separated UTF-8 with a header row and
full-precision floats, so rerunning a config with the same seed reproduces
every output byte for byte.  Timestamps appear only in the report index.
"""

import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np
from jsonschema import Draft202012Validator, validators

from .chain import ChainParams, Observer, _initial_law, run_chain, run_replicas, sample_initial
from .errors import ConfigurationError, MissingArtifactError
from .lyapunov import (
    LyapunovSpec, _require_slope_states, drift_slope_regression, estimate_kernel_drift,
)
from .model import ParticleState, make_builtin_model
from .oracle import (
    TORUS_GRID,
    GridSpec,
    _require_fixed_point_model,
    reference_expectation,
    self_consistent_fixed_point,
)
from .rng import RngStream, derive_seed
from .risk import (
    _require_rate_points, _require_replicas, fit_geometric_rate, histogram_divergence,
    quadratic_risk,
)
from .theory import (
    LsiConstants,
    contraction_constants,
    lsi_constants,
    lyapunov_constants,
)

# bounded observables by id: f maps positions (N, d) -> (N,), with sup norm
# (``np.add.reduce`` is the reduction ``np.sum`` dispatches to: same bits,
# less per-call cost on the per-step observer path)
OBSERVABLES = {
    "x2_clip25": (lambda x: np.clip(np.add.reduce(x * x, axis=-1), 0.0, 25.0), 25.0),
    "cos_x1": (lambda x: np.cos(x[..., 0]), 1.0),
    "x2": (lambda x: np.add.reduce(x * x, axis=-1), math.inf),
}

# header of the one-row-per-parameter tables (sweeps, Euclidean drift slopes)
_TABLE_HEADER = ("parameter", "estimate", "std_err", "gate_lo", "gate_hi", "pass")


def validate_config(config):
    """Strict validation against the schema of the config's kind (its fields,
    no others; a ``number`` is an int or float within float64 range, not a bool,
    NaN or infinity, and an ``integer`` such an int, not 4.0), naming the field."""
    errors = list(_KIND_VALIDATOR.iter_errors(config)) or sorted(
        _VALIDATORS[config["kind"]].iter_errors(config), key=lambda e: e.json_path)
    if errors:
        first = errors[0]
        message, value = first.message, first.instance
        if first.validator == "required" and not first.path and "kind" in value:
            missing = ", ".join(name for name in first.validator_value if name not in value)
            raise ConfigurationError(f"config kind {value['kind']!r} requires field(s): {missing}")
        if _is_real(value) and not abs(value) <= sys.float_info.max:
            message = "not a finite number"  # NaN, an infinity or past float64
        raise ConfigurationError(f"config invalid at {first.json_path}: {message}")
    return config


def _is_real(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _read_json(path, error, what):
    """JSON object at ``path``; raises ``error`` naming the file when it
    cannot be read, is not UTF-8 JSON, or holds JSON that is not an object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except OSError as err:
        raise error(f"cannot read {what} {path}: {err.strerror or err}") from err
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise error(f"{what} {path} is not UTF-8 JSON: {err}") from err
    if not isinstance(document, dict):
        raise error(f"{what} {path} holds a JSON {type(document).__name__}, not an object")
    return document


def load_config(path):
    return validate_config(_read_json(path, ConfigurationError, "config"))


def _fmt(value):
    # exact type tests first: Python floats and ints are nearly every cell,
    # and bool, np.float64 and np.bool_ fail them and take the general path
    if type(value) is float:
        return repr(value)
    if type(value) is int:
        return str(value)
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _chain_params(config, h=None):
    """The chain's parameters, at step size ``h`` if given, else ``chain.h``."""
    chain = config["chain"]
    h = chain["h"] if h is None else h
    return ChainParams(h, chain["gamma"], chain.get("n_steps", 0), chain.get("seed", 0))


def _require_sweep_grid(config, name):
    """A sweep over ``config[name]`` needs two distinct values."""
    grid = config[name]
    if len(set(grid)) < 2:
        raise ConfigurationError(f"{name} needs at least two distinct values, got {grid}")
    return grid


def _first_kept_step(config):
    """First step whose ``sweep_h`` record is kept; at least one record
    (stride 10 by default) must fall at or after it."""
    stride = config.get("stride", 10)
    n_steps = config["chain"].get("n_steps", 0)
    first_kept = int(config.get("burn_in", 0.2) * n_steps)
    if n_steps - n_steps % stride < first_kept:
        raise ConfigurationError(
            f"no observer record falls after burn-in (stride {stride}, "
            f"n_steps {n_steps}, first kept step {first_kept})"
        )
    return first_kept


def _oracle_density(config, model):
    """``() -> density``: the model's capability and the grid are checked
    now, the fixed point runs on call (its non-convergence is a run failure,
    not a config error)."""
    _require_fixed_point_model(model)
    if "grid" in config:
        grid = GridSpec(**config["grid"])
    else:
        grid = TORUS_GRID if model.space.is_torus else GridSpec(-8.0, 8.0, 2001)
    settings = config.get("damping", 0.5), config.get("tol", 1e-10), config.get("max_iter", 500)
    return lambda: self_consistent_fixed_point(model, grid, *settings).density


def _oracle_value(config, model, f):
    """``() -> value``: the config's ``oracle_mean``, in place of the oracle and
    its settings, else the mean of ``f`` under the oracle density."""
    if "oracle_mean" in config:
        unread = ", ".join(name for name in _ORACLE_FIELDS if name in config)
        if unread:
            raise ConfigurationError(f"{unread} not read: oracle_mean replaces the oracle")
        return lambda: config["oracle_mean"]
    density = _oracle_density(config, model)
    return lambda: reference_expectation(density(), lambda x: f(x[:, None]))


def _bounded_observable(config):
    obs_id = config["observable"]
    f, f_sup = OBSERVABLES[obs_id]
    if not math.isfinite(f_sup):
        raise ConfigurationError(f"observable {obs_id!r} is unbounded; risk needs bounded f")
    return obs_id, f


def _chain_model(config):
    """The model, and the draw of the config's initial law on its space."""
    model = make_builtin_model(config["model"])
    return model, _initial_law(config["init"], model.space)


def decaying_segment(tv_series, floor):
    """Index range of the geometric decay: drop the saturated head (TV at or
    above 0.85, near its maximum of 1) and the tail that has reached the
    statistical noise floor (TV below 2.5 x ``floor``)."""
    tv_series = np.asarray(tv_series)
    below_head = tv_series < 0.85
    start = int(np.argmax(below_head)) if below_head.any() else 0
    below_floor = tv_series < 2.5 * max(floor, 1e-12)
    end = int(np.argmax(below_floor)) if below_floor.any() else len(tv_series)
    if end - start < 10:
        start, end = 0, len(tv_series)
    return start, end


# ---------------------------------------------------------------------------
# experiment kinds: one prepare step each, ``prepare(config)``.  It parses
# the whole config and builds everything that can reject it (model, chain
# parameters, oracle capability and grid, observable, initial law, gates),
# draws nothing, and returns ``run(out_dir) -> payload``.  A kind with a
# JSON result file has that payload written there with the config.


def _prepare_sample(config):
    params = _chain_params(config)
    model, draw = _chain_model(config)
    n_particles, stride = config["n_particles"], config.get("stride", 1)

    def snapshot(step, state):
        return step, state.positions.copy(), state.velocities.copy()

    def state_rows(pos, vel):
        """One ``(particle, coord, x, v)`` row per coordinate, particle-major."""
        n, d = pos.shape
        pos, vel = pos.tolist(), vel.tolist()  # Python floats: write_csv's fast path
        return [(i, k, pos[i][k], vel[i][k]) for i in range(n) for k in range(d)]

    def run(out_dir):
        rng = RngStream(params.master_seed)
        obs = Observer(snapshot, stride=stride)
        final, _ = run_chain(model, draw(n_particles, rng), params, [obs], rng)
        header = ["particle", "coord", "x", "v"]
        rows = [(step, *row) for step, pos, vel in obs.records for row in state_rows(pos, vel)]
        write_csv(os.path.join(out_dir, "trajectory.csv"), ["step", *header], rows)
        write_csv(os.path.join(out_dir, "final_state.csv"), header,
                  state_rows(final.positions, final.velocities))
        return {}

    return run


def _prepare_sweep_h(config):
    h_grid = _require_sweep_grid(config, "h_grid")
    first_kept = _first_kept_step(config)
    per_h = [_chain_params(config, h) for h in h_grid]
    gate = config.get("slope_gate", [1.5, 2.5])
    if gate[0] > gate[1]:
        raise ConfigurationError(f"slope_gate needs lo <= hi, got {gate}")
    model, _ = _chain_model(config)
    obs_id = config["observable"]
    f = OBSERVABLES[obs_id][0]
    oracle_value = _oracle_value(config, model, f)
    n_particles, reps = config["n_particles"], config.get("reps", 4)
    stride = config.get("stride", 10)

    def visit(step, state):
        """Particle-average observable after burn-in, None before it (the
        bits of ``np.mean``)."""
        if step < first_kept:
            return None
        values = f(state.positions)
        return float(np.add.reduce(values) / values.size)

    def run(out_dir):
        value = oracle_value()
        rows, biases = [], []
        for params in per_h:
            runs = run_replicas(model, config["init"], n_particles, params, reps, visit, stride)
            # each replica's time average over its post-burn-in records
            estimates = np.asarray(
                [float(np.mean([v for v in records if v is not None])) for _, records in runs]
            )
            bias = float(estimates.mean() - value)
            std_err = float(estimates.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
            biases.append(abs(bias))
            rows.append((params.h, bias, std_err, None, None, None))
        write_csv(os.path.join(out_dir, "sweep.csv"), _TABLE_HEADER, rows)
        hs = np.asarray(h_grid, dtype=float)
        slope = float(np.polyfit(np.log(hs), np.log(np.maximum(biases, 1e-300)), 1)[0])
        return {
            "experiment": "sweep_h",
            "observable": obs_id,
            "oracle_value": value,
            "slope": slope,
            "gate": gate,
            "pass": bool(gate[0] <= slope <= gate[1]),
        }

    return run


def _prepare_sweep_n(config):
    n_grid = _require_sweep_grid(config, "n_grid")
    params = _chain_params(config)
    _require_replicas(config["reps"])
    model, _ = _chain_model(config)
    obs_id, f = _bounded_observable(config)

    def run(out_dir):
        estimates = [
            quadratic_risk(
                model, f, params, n_particles, config["reps"],
                config["oracle_mean"], config["init"], f_id=obs_id,
            )
            for n_particles in n_grid
        ]
        rows = [(n, est.value, est.std_err, None, None, None)
                for n, est in zip(n_grid, estimates)]
        write_csv(os.path.join(out_dir, "sweep.csv"), _TABLE_HEADER, rows)
        decreasing = all(a.value > b.value for a, b in zip(estimates, estimates[1:]))
        return {
            "experiment": "sweep_N",
            "observable": obs_id,
            "risk_decreasing_in_N": decreasing,
            "pass": decreasing,
        }

    return run


def _prepare_converge(config):
    params = _chain_params(config)
    model, _ = _chain_model(config)
    density = _oracle_density(config, model)
    stride, n_bins = config.get("stride", 1), config.get("n_bins", 50)
    _require_rate_points(params.n_steps // stride + 1)  # one TV value per record
    kappa = contraction_constants(params.gamma, config.get("rho", 1.0)).kappa
    gate = 1.0 / (1.0 + kappa * params.h) + 0.02

    def run(out_dir):
        reference = density()
        runs = run_replicas(
            model, config["init"], config["n_particles"], params, config.get("reps", 64),
            lambda step, state: state.positions[:, 0].copy(), stride,
        )
        rows, tv_series = [], []
        # every replica records the first coordinates at steps 0, stride, 2 stride, ...
        for i, step in enumerate(range(0, params.n_steps + 1, stride)):
            samples = np.concatenate([records[i] for _, records in runs])
            tv = histogram_divergence(samples, reference, n_bins=n_bins, kind="tv")
            kl = histogram_divergence(samples, reference, n_bins=n_bins, kind="kl")
            tv_series.append(tv)
            rows.append((step, tv, kl))
        write_csv(os.path.join(out_dir, "series.csv"), ["step", "tv", "kl"], rows)

        tv_series = np.asarray(tv_series)
        floor = float(np.median(tv_series[-max(3, len(tv_series) // 5):]))
        start, end = decaying_segment(tv_series, floor)
        fit = fit_geometric_rate(tv_series[start:end])
        rate_per_step = fit.rate ** (1.0 / stride)  # records are stride steps apart
        return {
            "experiment": "converge",
            "rate": rate_per_step,
            "r_squared": fit.r_squared,
            "segment": [int(start), int(end)],
            "tv_floor": floor,
            "rate_gate": gate,
            "pass": bool(rate_per_step <= gate and fit.r_squared > 0.9),
        }

    return run


def _random_states(model, n_particles, scales, n_states, rng):
    """State ``j`` at spread ``scales[j % len(scales)]``: uniform positions on
    the torus, N(0, scale^2) on R^d, and N(0, scale^2) velocities."""
    states = []
    for j in range(n_states):
        scale = scales[j % len(scales)]
        law = {"kind": "uniform"} if model.space.is_torus else {"kind": "gaussian", "std": scale}
        init = sample_initial(law, n_particles, model.space, rng)
        states.append(ParticleState(init.positions, scale * init.velocities, model.space))
    return states


def _prepare_lyapunov_check(config):
    per_h = [_chain_params(config, h) for h in config["h_grid"]]
    model = make_builtin_model(config["model"])
    gamma, seed = per_h[0].gamma, per_h[0].master_seed
    n_particles, n_states = config["n_particles"], config.get("n_states", 100)
    m_draws = config.get("m_draws", 10_000)
    scales = config.get("state_scales", [0.5, 1.0, 3.0])
    spec = LyapunovSpec.for_model(model, gamma, n_particles)
    torus = model.space.is_torus
    if not torus:
        _require_slope_states(n_states)
        theta = lyapunov_constants(model.space, gamma, model.coeffs, n_particles).theta

    def run(out_dir):
        states = _random_states(model, n_particles, scales, n_states, RngStream(seed))
        rows, failures = [], []
        for params in per_h:
            if torus:
                for idx, state in enumerate(states):
                    report = estimate_kernel_drift(
                        model, state, params, spec, m_draws=m_draws,
                        rng=RngStream(derive_seed(seed, 1)),
                    )
                    rows.append((
                        idx, params.h, report.pv_estimate, report.pv_std_err,
                        report.rhs_bound, report.margin_sigmas, report.holds,
                    ))
                    if not report.holds:
                        failures.append({"state": idx, "h": params.h})
            else:
                fit = drift_slope_regression(
                    model, states, params, spec, m_draws=m_draws, seed=derive_seed(seed, 1)
                )
                gate = 1.0 - theta * params.h + 2.0 * fit.slope_std_err
                ok = fit.slope <= gate
                rows.append((params.h, fit.slope, fit.slope_std_err, None, gate, ok))
                if not ok:
                    failures.append({"h": params.h, "slope": fit.slope, "gate": gate})
        header = ("state", "h", "pv_estimate", "pv_std_err", "rhs_bound", "margin_sigmas",
                  "holds") if torus else _TABLE_HEADER
        write_csv(os.path.join(out_dir, "drift.csv"), header, rows)
        return {
            "experiment": "lyapunov_check", "failures": failures, "pass": not failures,
            "mode": "torus_bound" if torus else "euclidean_slope",
        }

    return run


def _prepare_oracle(config):
    density = _oracle_density(config, make_builtin_model(config["model"]))

    def run(out_dir):
        solved = density()
        rows = list(zip(solved.centers, solved.values))
        write_csv(os.path.join(out_dir, "density.csv"), ["x", "density"], rows)
        return {}

    return run


def _prepare_constants(config):
    """Closed-form arithmetic only, so the payload is computed here."""
    for name, blocks in (("d", ("lsi",)), ("n_particles", ("lsi", "model"))):
        if name in config and not any(block in config for block in blocks):
            raise ConfigurationError(f"constants reads {name} only with {' or '.join(blocks)}")
    payload = asdict(contraction_constants(
        config["gamma"], config["rho"],
        c1_hat=config.get("c1_hat", 0.0), delta_n=config.get("delta_n", 0.0),
    ))
    if "lsi" in config:
        payload["lsi"] = asdict(lsi_constants(
            LsiConstants(**config["lsi"]), config.get("n_particles", 1), config.get("d", 1)
        ))
    if "model" in config:
        model = make_builtin_model(config["model"])
        payload["lyapunov"] = asdict(lyapunov_constants(
            model.space, config["gamma"], model.coeffs, config.get("n_particles", 1)
        ))
    return lambda out_dir: payload


def _prepare_risk(config):
    params = _chain_params(config)
    _require_replicas(config["reps"])
    model, _ = _chain_model(config)
    obs_id, f = _bounded_observable(config)
    oracle_value = _oracle_value(config, model, f)

    def run(out_dir):
        value = oracle_value()
        estimate = quadratic_risk(
            model, f, params, config["n_particles"], config["reps"],
            value, config["init"], f_id=obs_id,
        )
        return {
            "value": estimate.value,
            "std_err": estimate.std_err,
            "reps": estimate.reps,
            "oracle_mean": value,
        }

    return run


_NUM = {"type": "number"}
_NONNEG = {"type": "number", "minimum": 0}
_POS_INT = {"type": "integer", "minimum": 1}
_NONNEG_INT = {"type": "integer", "minimum": 0}


def _object(properties, *required):
    """Schema of a JSON object with these fields, the ``required`` ones
    among them, and no others."""
    return {"type": "object", "additionalProperties": False, "properties": properties,
            "required": list(required)}


def _chain_schema(fields):
    """The ``chain`` of a kind with these fields: ``gamma``, ``seed``, ``h``
    unless the kind takes its step sizes from ``h_grid``, and ``n_steps`` if it
    runs chains from an ``init`` law (``lyapunov_check`` makes single steps)."""
    # sweep_h and lyapunov_check still take an unread h: the benchmark's configs carry it
    taken = {name: schema for name, schema in _FIELDS["chain"]["properties"].items()
             if name != "n_steps" or "init" in fields}
    return _object(taken, "gamma", *(() if "h_grid" in fields else ("h",)))


_FIELDS = {
    "out_dir": {"type": "string"},
    "model": _object({
        "variant": {"type": "string"},
        "r": _NUM, "s": _NUM, "L": _NUM, "a": _NUM, "b": _NUM,
        "d": _POS_INT, "ridge_r": _NUM,
        "xs": {"type": "array", "items": {"type": "array", "items": _NUM}},
        "ys": {"type": "array", "items": _NUM},
    }, "variant"),
    "n_particles": _POS_INT,
    # every chain field; each kind takes its part of them (_chain_schema)
    "chain": _object({"h": _NUM, "gamma": _NUM, "n_steps": _NONNEG_INT, "seed": _NONNEG_INT}),
    "init": _object({
        "kind": {"enum": ["point", "gaussian", "uniform"]},
        "at": {"type": ["number", "array"], "items": _NUM},
        "mean": {"type": ["number", "array"], "items": _NUM},
        "std": _NONNEG,
        "wrap": {"type": "boolean"},
    }),
    "grid": _object({"lo": _NUM, "hi": _NUM, "n_cells": _POS_INT}, "lo", "hi", "n_cells"),
    "observable": {"enum": sorted(OBSERVABLES)},
    "stride": _POS_INT,
    "burn_in": {"type": "number", "minimum": 0.0, "maximum": 0.9},
    "h_grid": {"type": "array", "items": _NUM, "minItems": 1},
    "n_grid": {"type": "array", "items": _POS_INT, "minItems": 1},
    "reps": _POS_INT,
    # the histogram, Monte Carlo and fixed-point solvers' own ranges
    "n_bins": {"type": "integer", "minimum": 10},
    "n_states": _POS_INT,
    "m_draws": {"type": "integer", "minimum": 1000},
    "state_scales": {"type": "array", "items": _NONNEG, "minItems": 1},
    "slope_gate": {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2},
    "damping": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
    "tol": _NUM,
    "max_iter": _POS_INT,
    "oracle_mean": _NUM,
    "gamma": _NUM,
    "rho": _NUM,
    "c1_hat": _NUM,
    "delta_n": _NUM,
    "lsi": _object({
        "rho_bar": _NUM, "mmm": _NUM, "eps": _NUM,
        "lambda_flat": _NUM, "alpha_n": _NUM,
        "alpha_n_prime": _NUM, "lambda_prime": _NUM, "rho_n": _NUM,
    }, "rho_bar", "mmm"),
    "d": _POS_INT,
}

# fields of every kind that runs chains from an initial law
_CHAIN_FIELDS = ("model", "n_particles", "chain", "init")
# the fixed-point oracle's grid and solver settings (see _oracle_density)
_ORACLE_FIELDS = ("grid", "damping", "tol", "max_iter")

# kind -> (prepare, required fields, result file, optional fields); the kind takes
# these fields, ``kind`` and ``out_dir`` and no others.  The result file is written
# last, so a directory without it holds a run that did not finish.
_KINDS = {
    "sample": (_prepare_sample, _CHAIN_FIELDS, "final_state.csv", ("stride",)),
    "sweep_h": (_prepare_sweep_h, (*_CHAIN_FIELDS, "h_grid", "observable"), "summary.json",
                ("stride", "burn_in", "reps", "slope_gate", "oracle_mean", *_ORACLE_FIELDS)),
    "sweep_N": (_prepare_sweep_n, ("model", "chain", "init", "n_grid", "reps", "observable",
                                   "oracle_mean"), "summary.json", ()),
    "converge": (_prepare_converge, _CHAIN_FIELDS, "summary.json",
                 ("stride", "n_bins", "rho", "reps", *_ORACLE_FIELDS)),
    "lyapunov_check": (_prepare_lyapunov_check, ("model", "n_particles", "chain", "h_grid"),
                       "summary.json", ("n_states", "m_draws", "state_scales")),
    "oracle": (_prepare_oracle, ("model",), "density.csv", _ORACLE_FIELDS),
    "constants": (_prepare_constants, ("gamma", "rho"), "constants.json",
                  ("c1_hat", "delta_n", "lsi", "n_particles", "d", "model")),
    "risk": (_prepare_risk, (*_CHAIN_FIELDS, "reps", "observable"), "risk.json",
             ("oracle_mean", *_ORACLE_FIELDS)),
}

EXPERIMENT_KINDS = tuple(_KINDS)

# Python's JSON reader accepts NaN, Infinity and integers of any size, and
# jsonschema's own types count all of them as numbers and 4.0 as an integer
_TYPES = Draft202012Validator.TYPE_CHECKER.redefine_many({
    "number": lambda checker, v: _is_real(v) and abs(v) <= sys.float_info.max,
    "integer": lambda checker, v: isinstance(v, int) and checker.is_type(v, "number"),
})
_Validator = validators.extend(Draft202012Validator, type_checker=_TYPES)
_KIND_VALIDATOR = _Validator({"type": "object", "required": ["kind"],
                              "properties": {"kind": {"enum": list(_KINDS)}}})
_VALIDATORS = {kind: _Validator(_object(
    {"kind": {}, **{f: _FIELDS[f] for f in ("out_dir", *req, *opt)},
     **({"chain": _chain_schema(req)} if "chain" in req else {})}, *req
)) for kind, (_, req, _, opt) in _KINDS.items()}


def run_experiment(config, out_dir=None, seed=None, threads=1):
    """Run one experiment described by a validated config mapping.

    ``seed`` overrides ``chain.seed`` and is validated with it, so the kinds
    without a ``chain`` (``oracle``, ``constants``) reject it; outputs land
    in ``out_dir`` (or the config's ``out_dir``).  Returns the summary payload
    of the experiment; a kind with a JSON result file writes that payload
    there with the config.
    Replicas run one after another, so ``threads`` must be 1.  That check,
    the kind's schema, with its required fields, and the kind's prepare step,
    which parses the rest of the config, all run before the output
    directory is made, so every :class:`ConfigurationError`, and the
    :class:`CapabilityError` of a model the fixed-point oracle cannot take,
    is raised while no file exists.
    """
    if threads != 1:
        raise ConfigurationError(f"replicas run in one thread, got threads={threads!r}")
    config = dict(config)
    if seed is not None and isinstance(config.get("chain", {}), dict):
        config["chain"] = {**config.get("chain", {}), "seed": int(seed)}
    config = validate_config(config)
    prepare, _, result_file, _ = _KINDS[config["kind"]]
    out_dir = out_dir or config.get("out_dir")
    if not out_dir:
        raise ConfigurationError("no output directory given (config out_dir or --out)")
    run = prepare(config)
    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, "config.json"), config)
    payload = run(out_dir)
    if result_file.endswith(".json"):
        write_json(os.path.join(out_dir, result_file), {**payload, "config": config})
    return payload


def emit_report(results_dir):
    """Summarize an experiment directory: pass/fail text plus a file index.

    Returns the report text.  Raises :class:`MissingArtifactError` when the
    directory lacks its kind's result file, its config names no known kind,
    or its config or a JSON result file cannot be read as a JSON object.
    """
    if not os.path.isdir(results_dir):
        raise MissingArtifactError(f"no results directory {results_dir!r}")
    files = sorted(
        f for f in os.listdir(results_dir) if os.path.isfile(os.path.join(results_dir, f))
    )
    if "config.json" not in files:
        raise MissingArtifactError(
            f"{results_dir!r} has no config.json; not an experiment directory"
        )
    config = _read_json(
        os.path.join(results_dir, "config.json"), MissingArtifactError, "result file"
    )
    kind = config.get("kind")
    if kind not in EXPERIMENT_KINDS:
        raise MissingArtifactError(
            f"{results_dir!r} config.json names no known experiment kind: {kind!r}"
        )
    result_file = _KINDS[kind][2]
    if result_file not in files:
        raise MissingArtifactError(
            f"{results_dir!r} lacks {result_file}; the {kind} run did not finish"
        )
    path, summary = os.path.join(results_dir, result_file), {}
    if path.endswith(".json"):  # as run_experiment tells which result files are JSON
        summary = _read_json(path, MissingArtifactError, "result file")
    verdict = summary.get("pass")
    lines = [f"experiment: {kind}",
             "OK (no gates declared)" if verdict is None else "PASS" if verdict else "FAIL"]
    if not summary.get("pass", True) and summary.get("failures"):
        for failure in summary["failures"]:
            lines.append("  failed: " + json.dumps(failure, sort_keys=True))
    for key in ("slope", "rate", "r_squared", "rate_gate", "tv_floor"):
        if key in summary:
            lines.append(f"  {key} = {summary[key]}")
    report_text = "\n".join(lines) + "\n"
    with open(os.path.join(results_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(report_text)
    index = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "experiment": kind,
        "files": [
            {"name": f, "bytes": os.path.getsize(os.path.join(results_dir, f))}
            for f in files
        ],
    }
    write_json(os.path.join(results_dir, "index.json"), index)
    return report_text
