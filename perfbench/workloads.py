"""Benchmark workloads: one fixed experiment config per workload.

Each workload is one ``mfkl`` experiment config plus the closed forms the
benchmark checks against: the particle-step work of one call, and the exact
counts a traced call must reproduce.  This module imports nothing from
``mfkl`` or numpy, so the set-up probe can load it before timing starts.
"""

# Sizes per workload.  "full" is what the benchmark measures; "tiny" is the
# smoke check's size, with the same shapes and the same code paths.
_SIZES = {
    "scalar_long": {"full": {"n_steps": 2000, "reps": 2}, "tiny": {"n_steps": 40, "reps": 1}},
    "replica_converge": {"full": {"n_steps": 160, "reps": 64}, "tiny": {"n_steps": 160, "reps": 8}},
    "pair_force": {"full": {"n_steps": 6, "n": 1024}, "tiny": {"n_steps": 2, "n": 64}},
    "drift_mc": {"full": {"n_states": 3}, "tiny": {"n_states": 1}},
}

WORKLOADS = tuple(_SIZES)


def config(name, size="full"):
    """The experiment config of workload ``name`` (the seed is set per call)."""
    z = _SIZES[name][size]
    if name == "scalar_long":
        # criterion-4 shape; h <= 0.1 keeps h sqrt(m1x + m1m) <= 1/10, so no
        # StepSizeWarning.  No oracle_mean: the fixed-point oracle runs.
        return {
            "kind": "sweep_h",
            "model": {"variant": "quadratic", "r": 1.0, "s": 0.0},
            "n_particles": 1,
            "chain": {"h": 0.1, "gamma": 1.0, "n_steps": z["n_steps"]},
            "init": {"kind": "point", "at": 0.0},
            "h_grid": [0.025, 0.05, 0.1],
            "observable": "x2",
            "reps": z["reps"],
            "stride": 1,
        }
    if name == "replica_converge":
        # criterion-6 shape; 200 seeds at full size all passed with
        # r_squared >= 0.92 against the 0.9 gate
        return {
            "kind": "converge",
            "model": {"variant": "quadratic", "r": 1.0, "s": 0.25},
            "n_particles": 32,
            "chain": {"h": 0.05, "gamma": 1.0, "n_steps": z["n_steps"]},
            "init": {"kind": "point", "at": 2.0},
            "reps": z["reps"],
            "stride": 1,
        }
    if name == "pair_force":
        return {
            "kind": "sample",
            "model": {"variant": "gauss_attract_repel", "L": 1.0, "s": 0.1, "r": 1.0, "d": 2},
            "n_particles": z["n"],
            # h sqrt(m1x + m1m) = 0.04 sqrt(5.4) <= 1/10: no StepSizeWarning
            "chain": {"h": 0.04, "gamma": 1.0, "n_steps": z["n_steps"]},
            "init": {"kind": "gaussian", "mean": 0.0, "std": 1.0},
            "stride": 3 if size == "full" else 1,
        }
    if name == "drift_mc":
        # criterion-2 shape; 150 seeds all held the bound by >= 80 sigma
        return {
            "kind": "lyapunov_check",
            "model": {"variant": "torus_trig", "a": 0.3, "b": 0.2, "d": 2},
            "n_particles": 8,
            "chain": {"h": 0.05, "gamma": 1.0},
            "h_grid": [0.05, 0.1],
            "n_states": z["n_states"],
            "m_draws": 10_000,
        }
    raise KeyError(name)


def _dim(cfg):
    return cfg["model"].get("d", 1)


def _runs(cfg):
    """Number of ``run_chain`` calls one experiment call makes."""
    kind = cfg["kind"]
    if kind == "sweep_h":
        return cfg["reps"] * len(cfg["h_grid"])
    if kind == "converge":
        return cfg["reps"]
    if kind == "sample":
        return 1
    return 0


def particle_steps(cfg):
    """N x kernel transitions one experiment call completes."""
    n = cfg["n_particles"]
    if cfg["kind"] == "lyapunov_check":
        return cfg["n_states"] * len(cfg["h_grid"]) * cfg["m_draws"] * n
    return _runs(cfg) * cfg["chain"]["n_steps"] * n


def gates_on_pass(name):
    """Whether the experiment's own ``pass`` verdict is part of correctness.

    ``scalar_long`` is not gated: the h^2 bias needs criterion-4 lengths
    (10^6 steps per h) to resolve, so its slope verdict is noise here.
    """
    return name in ("replica_converge", "drift_mc")


def expected_counts(cfg):
    """Exact per-call counts a traced experiment call must reproduce."""
    n, d = cfg["n_particles"], _dim(cfg)
    runs = _runs(cfg)
    writes = 3  # config.json plus two outputs for every kind used here
    if cfg["kind"] == "lyapunov_check":
        states, mc = cfg["n_states"], cfg["n_states"] * len(cfg["h_grid"])
        # velocities of each random state, then one block per MC call
        return {
            "model.grad_calls": 2 * mc,  # g0 and g1 of one batched step
            "rng.normals_calls": states + mc,
            "rng.normals_drawn": (states + mc * cfg["m_draws"]) * n * d,
            "chain.run_calls": 0,
            "chain.steps": 0,
            "chain.observer_visits": 0,
            "lyapunov.mc_calls": mc,
            "lyapunov.mc_draws": mc * cfg["m_draws"],
            "harness.write_calls": writes,
        }
    n_steps = cfg["chain"]["n_steps"]
    # point init draws velocities only; gaussian init draws positions too
    init_calls = 1 if cfg["init"]["kind"] == "point" else 2
    visits = n_steps // cfg["stride"] + 1
    counts = {
        # run_chain evaluates one gradient at start and one per step
        "model.grad_calls": runs * (n_steps + 1),
        "rng.normals_calls": runs * (n_steps + init_calls),
        "rng.normals_drawn": runs * (n_steps + init_calls) * n * d,
        "chain.run_calls": runs,
        "chain.steps": runs * n_steps,
        "chain.observer_visits": runs * visits,
        "lyapunov.mc_calls": 0,
        "lyapunov.mc_draws": 0,
        "harness.write_calls": writes,
    }
    if cfg["kind"] == "converge":
        counts["risk.histogram_calls"] = 2 * visits  # tv and kl per record step
    return counts
