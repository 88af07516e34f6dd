"""Experiment configuration, drivers, and file output.

Configs are strict JSON (unknown fields are rejected with their path);
numeric tables are written as comma-separated UTF-8 with a header row and
full-precision floats, so rerunning a config with the same seed reproduces
every output byte for byte.  Timestamps appear only in the report index.
"""

import json
import math
import os
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np
from jsonschema import Draft202012Validator

from .chain import ChainParams, Observer, run_chain, run_replicas, sample_initial
from .errors import ConfigurationError, MissingArtifactError
from .lyapunov import LyapunovSpec, drift_slope_regression, estimate_kernel_drift
from .model import ParticleState, make_builtin_model
from .oracle import (
    TORUS_GRID,
    GridSpec,
    reference_expectation,
    self_consistent_fixed_point,
)
from .rng import RngStream, derive_seed
from .risk import fit_geometric_rate, histogram_divergence, quadratic_risk
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
    """Strict-schema validation, then no NaN or infinite number anywhere;
    raises with the offending field path."""
    errors = sorted(_VALIDATOR.iter_errors(config), key=lambda e: e.json_path)
    if errors:
        first = errors[0]
        raise ConfigurationError(f"config invalid at {first.json_path}: {first.message}")
    _require_finite(config, "$")
    return config


def _require_finite(value, path):
    """Python's JSON reader accepts NaN and Infinity, and the schema's number
    checks let them through."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigurationError(f"config invalid at {path}: not a finite number")
    if isinstance(value, dict):
        for key, item in value.items():
            _require_finite(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _require_finite(item, f"{path}[{i}]")


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
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _chain_params(config, h_override=None):
    chain = dict(config.get("chain", {}))
    h = h_override if h_override is not None else chain.get("h")
    if h is None or "gamma" not in chain:
        raise ConfigurationError("config requires chain.h and chain.gamma")
    return ChainParams(
        h=h,
        gamma=chain["gamma"],
        n_steps=chain.get("n_steps", 0),
        master_seed=chain.get("seed", 0),
    )


def _per_h_params(config):
    """Chain parameters at each step size of ``h_grid``."""
    return [_chain_params(config, h_override=h) for h in config["h_grid"]]


def _require_sweep_grid(config, name):
    """A sweep over ``config[name]`` needs two distinct values."""
    grid = config[name]
    if len(set(grid)) < 2:
        raise ConfigurationError(f"{name} needs at least two distinct values, got {grid}")


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


def _grid(config, model):
    if "grid" in config:
        return GridSpec(**config["grid"])
    if model.space.is_torus:
        return TORUS_GRID
    return GridSpec(-8.0, 8.0, 2001)


def _oracle_density(config, model):
    result = self_consistent_fixed_point(
        model,
        _grid(config, model),
        damping=config.get("damping", 0.5),
        tol=config.get("tol", 1e-10),
        max_iter=config.get("max_iter", 500),
    )
    return result.density


def _oracle_value(config, model, f):
    """The config's ``oracle_mean``, else the mean of ``f`` under the oracle density."""
    if "oracle_mean" in config:
        return config["oracle_mean"]
    return reference_expectation(_oracle_density(config, model), lambda x: f(x[:, None]))


def _observable(config):
    return config["observable"], *OBSERVABLES[config["observable"]]


def _bounded_observable(config):
    obs_id, f, f_sup = _observable(config)
    if not math.isfinite(f_sup):
        raise ConfigurationError(f"observable {obs_id!r} is unbounded; risk needs bounded f")
    return obs_id, f


def resolve_threads(explicit=None):
    """--threads flag, else the MFKL_THREADS environment variable, else 1."""
    if explicit is not None:
        return max(1, int(explicit))
    env = os.environ.get("MFKL_THREADS")
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ConfigurationError(f"MFKL_THREADS must be an integer, got {env!r}") from None


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
# experiment drivers (one per kind); each takes (config, out_dir, threads),
# where threads sizes the worker pool of the replica kinds.  A driver whose
# kind has a JSON result file returns that file's payload, which
# run_experiment writes with the config.


def _run_sample(config, out_dir, threads):
    model = make_builtin_model(config["model"])
    params = _chain_params(config)
    rng = RngStream(params.master_seed)
    init = sample_initial(config["init"], config["n_particles"], model.space, rng)
    stride = config.get("stride", 1)

    def snapshot(step, state):
        return step, state.positions.copy(), state.velocities.copy()

    def state_rows(pos, vel):
        """One ``(particle, coord, x, v)`` row per coordinate, particle-major."""
        n, d = pos.shape
        return [(i, k, pos[i, k], vel[i, k]) for i in range(n) for k in range(d)]

    obs = Observer(snapshot, stride=stride)
    final, _ = run_chain(model, init, params, [obs], rng)

    header = ["particle", "coord", "x", "v"]
    rows = [(step, *row) for step, pos, vel in obs.records for row in state_rows(pos, vel)]
    write_csv(os.path.join(out_dir, "trajectory.csv"), ["step", *header], rows)
    write_csv(os.path.join(out_dir, "final_state.csv"), header,
              state_rows(final.positions, final.velocities))
    return {}


def _run_sweep_h(config, out_dir, threads):
    h_grid = config["h_grid"]
    stride = config.get("stride", 10)
    first_kept = _first_kept_step(config)
    model = make_builtin_model(config["model"])
    obs_id, f, _ = _observable(config)
    oracle_value = _oracle_value(config, model, f)

    def visit(step, state):
        """Particle-average observable after burn-in, None before it (the
        bits of ``np.mean``)."""
        if step < first_kept:
            return None
        values = f(state.positions)
        return float(np.add.reduce(values) / values.size)

    reps = config.get("reps", 4)
    gate_lo, gate_hi = config.get("slope_gate", [1.5, 2.5])
    rows = []
    biases = []
    for h, params in zip(h_grid, _per_h_params(config)):
        runs = run_replicas(
            model, config["init"], config["n_particles"], params, reps, visit, stride, threads
        )
        # each replica's time average over its post-burn-in records
        estimates = np.asarray(
            [float(np.mean([v for v in records if v is not None])) for _, records in runs]
        )
        bias = float(estimates.mean() - oracle_value)
        std_err = float(estimates.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
        biases.append(abs(bias))
        rows.append((h, bias, std_err, None, None, None))
    write_csv(os.path.join(out_dir, "sweep.csv"), _TABLE_HEADER, rows)
    hs = np.asarray(h_grid, dtype=float)
    slope = float(np.polyfit(np.log(hs), np.log(np.maximum(biases, 1e-300)), 1)[0])
    return {
        "experiment": "sweep_h",
        "observable": obs_id,
        "oracle_value": oracle_value,
        "slope": slope,
        "gate": [gate_lo, gate_hi],
        "pass": bool(gate_lo <= slope <= gate_hi),
    }


def _run_sweep_n(config, out_dir, threads):
    n_grid = config["n_grid"]
    model = make_builtin_model(config["model"])
    obs_id, f = _bounded_observable(config)
    params = _chain_params(config)
    rows = []
    estimates = []
    for n_particles in n_grid:
        est = quadratic_risk(
            model, f, params, n_particles, config["reps"],
            config["oracle_mean"], config["init"], f_id=obs_id, threads=threads,
        )
        estimates.append(est)
        rows.append((n_particles, est.value, est.std_err, None, None, None))
    write_csv(os.path.join(out_dir, "sweep.csv"), _TABLE_HEADER, rows)
    decreasing = all(
        estimates[i].value > estimates[i + 1].value for i in range(len(estimates) - 1)
    )
    return {
        "experiment": "sweep_N",
        "observable": obs_id,
        "risk_decreasing_in_N": decreasing,
        "pass": decreasing,
    }


def _run_converge(config, out_dir, threads):
    model = make_builtin_model(config["model"])
    density = _oracle_density(config, model)
    params = _chain_params(config)
    stride = config.get("stride", 1)
    n_bins = config.get("n_bins", 50)
    runs = run_replicas(
        model, config["init"], config["n_particles"], params, config.get("reps", 64),
        lambda step, state: state.positions[:, 0].copy(), stride, threads,
    )

    rows = []
    tv_series = []
    # every replica records the first coordinates at steps 0, stride, 2 stride, ...
    for i, step in enumerate(range(0, params.n_steps + 1, stride)):
        samples = np.concatenate([records[i] for _, records in runs])
        tv = histogram_divergence(samples, density, n_bins=n_bins, kind="tv")
        kl = histogram_divergence(samples, density, n_bins=n_bins, kind="kl")
        tv_series.append(tv)
        rows.append((step, tv, kl))
    write_csv(os.path.join(out_dir, "series.csv"), ["step", "tv", "kl"], rows)

    tv_series = np.asarray(tv_series)
    floor = float(np.median(tv_series[-max(3, len(tv_series) // 5):]))
    start, end = decaying_segment(tv_series, floor)
    fit = fit_geometric_rate(tv_series[start:end])
    rate_per_step = fit.rate ** (1.0 / stride)  # records are stride steps apart
    kappa = contraction_constants(params.gamma, config.get("rho", 1.0)).kappa
    gate = 1.0 / (1.0 + kappa * params.h) + 0.02
    return {
        "experiment": "converge",
        "rate": rate_per_step,
        "r_squared": fit.r_squared,
        "segment": [int(start), int(end)],
        "tv_floor": floor,
        "rate_gate": gate,
        "pass": bool(rate_per_step <= gate and fit.r_squared > 0.9),
    }


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


def _run_lyapunov_check(config, out_dir, threads):
    model = make_builtin_model(config["model"])
    per_h = _per_h_params(config)
    gamma, seed = per_h[0].gamma, per_h[0].master_seed
    n_states = config.get("n_states", 100)
    m_draws = config.get("m_draws", 10_000)
    scales = config.get("state_scales", [0.5, 1.0, 3.0])
    n_particles = config["n_particles"]
    states = _random_states(model, n_particles, scales, n_states, RngStream(seed))
    spec = LyapunovSpec.for_model(model, gamma, n_particles)

    rows = []
    failures = []
    if model.space.is_torus:
        for params in per_h:
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
        header = ["state", "h", "pv_estimate", "pv_std_err", "rhs_bound", "margin_sigmas",
                  "holds"]
        mode = "torus_bound"
    else:
        theta = lyapunov_constants(model.space, gamma, model.coeffs, n_particles).theta
        for params in per_h:
            fit = drift_slope_regression(
                model, states, params, spec, m_draws=m_draws, seed=derive_seed(seed, 1)
            )
            gate = 1.0 - theta * params.h + 2.0 * fit.slope_std_err
            ok = fit.slope <= gate
            rows.append((params.h, fit.slope, fit.slope_std_err, None, gate, ok))
            if not ok:
                failures.append({"h": params.h, "slope": fit.slope, "gate": gate})
        header = _TABLE_HEADER
        mode = "euclidean_slope"
    write_csv(os.path.join(out_dir, "drift.csv"), header, rows)
    return {
        "experiment": "lyapunov_check", "mode": mode, "failures": failures,
        "pass": not failures,
    }


def _run_oracle(config, out_dir, threads):
    model = make_builtin_model(config["model"])
    density = _oracle_density(config, model)
    rows = list(zip(density.centers, density.values))
    write_csv(os.path.join(out_dir, "density.csv"), ["x", "density"], rows)
    return {}


def _run_constants(config, out_dir, threads):
    payload = asdict(contraction_constants(
        config["gamma"], config["rho"],
        c1_hat=config.get("c1_hat", 0.0), delta_n=config.get("delta_n", 0.0),
    ))
    if "lsi" in config:
        payload["lsi"] = asdict(lsi_constants(
            LsiConstants(**config["lsi"]),
            config.get("n_particles", 1),
            config.get("d", 1),
        ))
    if "model" in config:
        model = make_builtin_model(config["model"])
        payload["lyapunov"] = asdict(lyapunov_constants(
            model.space, config["gamma"], model.coeffs, config.get("n_particles", 1)
        ))
    return payload


def _run_risk(config, out_dir, threads):
    model = make_builtin_model(config["model"])
    obs_id, f = _bounded_observable(config)
    oracle_value = _oracle_value(config, model, f)
    params = _chain_params(config)
    estimate = quadratic_risk(
        model, f, params, config["n_particles"], config["reps"],
        oracle_value, config["init"], f_id=obs_id, threads=threads,
    )
    return {
        "value": estimate.value,
        "std_err": estimate.std_err,
        "reps": estimate.reps,
        "oracle_mean": oracle_value,
    }


# fields of every kind that runs chains from an initial law
_CHAIN_FIELDS = ("model", "n_particles", "chain", "init")


def _check_sweep_h(config):
    _require_sweep_grid(config, "h_grid")
    _first_kept_step(config)
    _per_h_params(config)


def _check_sweep_n(config):
    _require_sweep_grid(config, "n_grid")
    _chain_params(config)


def _no_check(config):
    """Kinds without chain parameters or a sweep grid."""


# kind -> (driver, required config fields, result file, check).  ``check``
# raises the config errors the driver would meet in its chain parameters and
# sweep grid; it runs before the output directory is made.  The result file
# is written last, so a directory without it holds a run that did not finish.
_KINDS = {
    "sample": (_run_sample, _CHAIN_FIELDS, "final_state.csv", _chain_params),
    "sweep_h": (_run_sweep_h, (*_CHAIN_FIELDS, "h_grid", "observable"), "summary.json",
                _check_sweep_h),
    "sweep_N": (_run_sweep_n,
                ("model", "chain", "init", "n_grid", "reps", "observable", "oracle_mean"),
                "summary.json", _check_sweep_n),
    "converge": (_run_converge, _CHAIN_FIELDS, "summary.json", _chain_params),
    "lyapunov_check": (_run_lyapunov_check, ("model", "n_particles", "chain", "h_grid"),
                       "summary.json", _per_h_params),
    "oracle": (_run_oracle, ("model",), "density.csv", _no_check),
    "constants": (_run_constants, ("gamma", "rho"), "constants.json", _no_check),
    "risk": (_run_risk, (*_CHAIN_FIELDS, "reps", "observable"), "risk.json", _chain_params),
}

EXPERIMENT_KINDS = tuple(_KINDS)

_NUM = {"type": "number"}
_NONNEG = {"type": "number", "minimum": 0}
_POS_INT = {"type": "integer", "minimum": 1}

_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": list(EXPERIMENT_KINDS)},
        "out_dir": {"type": "string"},
        "model": {
            "type": "object",
            "additionalProperties": False,
            "required": ["variant"],
            "properties": {
                "variant": {"type": "string"},
                "r": _NUM, "s": _NUM, "L": _NUM, "a": _NUM, "b": _NUM,
                "d": _POS_INT, "ridge_r": _NUM,
                "xs": {"type": "array", "items": {"type": "array", "items": _NUM}},
                "ys": {"type": "array", "items": _NUM},
            },
        },
        "n_particles": _POS_INT,
        "chain": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "h": _NUM,
                "gamma": _NUM,
                "n_steps": {"type": "integer", "minimum": 0},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
        "init": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["point", "gaussian", "uniform"]},
                "at": {"type": ["number", "array"], "items": _NUM},
                "mean": {"type": ["number", "array"], "items": _NUM},
                "std": _NONNEG,
                "wrap": {"type": "boolean"},
            },
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"lo": _NUM, "hi": _NUM, "n_cells": _POS_INT},
            "required": ["lo", "hi", "n_cells"],
        },
        "observable": {"enum": sorted(OBSERVABLES)},
        "stride": _POS_INT,
        "burn_in": {"type": "number", "minimum": 0.0, "maximum": 0.9},
        "h_grid": {"type": "array", "items": _NUM, "minItems": 1},
        "n_grid": {"type": "array", "items": _POS_INT, "minItems": 1},
        "reps": _POS_INT,
        "n_bins": _POS_INT,
        "n_states": _POS_INT,
        "m_draws": _POS_INT,
        "state_scales": {"type": "array", "items": _NONNEG, "minItems": 1},
        "slope_gate": {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2},
        "damping": _NUM,
        "tol": _NUM,
        "max_iter": _POS_INT,
        "oracle_mean": _NUM,
        "gamma": _NUM,
        "rho": _NUM,
        "c1_hat": _NUM,
        "delta_n": _NUM,
        "lsi": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rho_bar": _NUM, "mmm": _NUM, "eps": _NUM,
                "lambda_flat": _NUM, "alpha_n": _NUM,
                "alpha_n_prime": _NUM, "lambda_prime": _NUM, "rho_n": _NUM,
            },
            "required": ["rho_bar", "mmm"],
        },
        "d": _POS_INT,
    },
}

_VALIDATOR = Draft202012Validator(_SCHEMA)


def run_experiment(config, out_dir=None, seed=None, threads=None):
    """Run one experiment described by a validated config mapping.

    ``seed`` overrides the config seed; outputs land in ``out_dir`` (or the
    config's ``out_dir``).  Returns the summary payload of the experiment;
    a kind with a JSON result file writes that payload there with the config.
    Required fields, chain parameters, sweep grids and ``MFKL_THREADS`` are
    checked before the output directory is made.
    """
    config = validate_config(dict(config))
    if seed is not None:
        config["chain"] = {**config.get("chain", {}), "seed": int(seed)}
    driver, required, result_file, check = _KINDS[config["kind"]]
    missing = [name for name in required if name not in config]
    if missing:
        raise ConfigurationError(
            f"config kind {config['kind']!r} requires field(s): {', '.join(missing)}"
        )
    check(config)
    threads = resolve_threads(threads)
    out_dir = out_dir or config.get("out_dir")
    if not out_dir:
        raise ConfigurationError("no output directory given (config out_dir or --out)")
    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, "config.json"), config)
    payload = driver(config, out_dir, threads)
    if result_file.endswith(".json"):
        write_json(os.path.join(out_dir, result_file), {**payload, "config": config})
    return payload


def emit_report(results_dir):
    """Summarize an experiment directory: pass/fail text plus a file index.

    Returns the report text.  Raises :class:`MissingArtifactError` when the
    directory lacks its kind's result file, or its config names no known kind.
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
    lines = [f"experiment: {kind}"]
    if result_file == "summary.json":
        summary = _read_json(
            os.path.join(results_dir, result_file), MissingArtifactError, "result file"
        )
        verdict = summary.get("pass")
        if verdict is not None:
            lines.append("PASS" if verdict else "FAIL")
        if not summary.get("pass", True) and summary.get("failures"):
            for failure in summary["failures"]:
                lines.append("  failed: " + json.dumps(failure, sort_keys=True))
        for key in ("slope", "rate", "r_squared", "rate_gate", "tv_floor"):
            if key in summary:
                lines.append(f"  {key} = {summary[key]}")
    else:
        lines.append("OK (no gates declared)")
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
