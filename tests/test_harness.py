import csv
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import mfkl as m
from mfkl import ConfigurationError, MissingArtifactError
from mfkl.harness import (
    EXPERIMENT_KINDS,
    _FIELDS,
    _KINDS,
    _random_states,
    decaying_segment,
    emit_report,
    load_config,
    run_experiment,
    validate_config,
    write_csv,
    write_json,
)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def run_cli(*args):
    # the package's src on PYTHONPATH, so the CLI runs from a checkout too
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "mfkl.cli", *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


class TestConfigValidation:
    def test_unknown_field_rejected_with_path(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            validate_config({"kind": "constants", "bogus": 1})

    def test_nested_unknown_field(self):
        with pytest.raises(ConfigurationError, match="model"):
            validate_config(
                {"kind": "oracle", "model": {"variant": "quadratic", "nope": 2}}
            )

    def test_kind_required(self):
        with pytest.raises(ConfigurationError):
            validate_config({})

    def test_missing_kind_specific_field(self, tmp_path):
        with pytest.raises(ConfigurationError, match="requires field"):
            run_experiment({"kind": "risk"}, out_dir=str(tmp_path))


class TestConstantsKind:
    def test_json_contains_reference_values(self, tmp_path):
        out = tmp_path / "out"
        run_experiment({"kind": "constants", "gamma": 1.0, "rho": 1.0}, out_dir=str(out))
        payload = json.loads((out / "constants.json").read_text())
        assert payload["a"] == pytest.approx(0.0181818, abs=1e-6)
        assert payload["kappa"] == pytest.approx(0.0058479, abs=1e-6)
        assert "config" in payload

    def test_lyapunov_block_from_model(self, tmp_path):
        out = tmp_path / "out"
        run_experiment(
            {
                "kind": "constants", "gamma": 1.0, "rho": 1.0,
                "model": {"variant": "torus_trig", "a": 0.0, "b": 0.0, "d": 1},
            },
            out_dir=str(out),
        )
        payload = json.loads((out / "constants.json").read_text())
        assert payload["lyapunov"]["torus_additive"] == pytest.approx(766.0)

    def test_lsi_block_from_lsi_n_particles_and_d(self, tmp_path):
        lsi = {"rho_bar": 1.0, "mmm": 0.1, "lambda_flat": 0.1, "alpha_n": 0.05}
        run_experiment(
            {"kind": "constants", "gamma": 1.0, "rho": 1.0, "lsi": lsi, "n_particles": 8, "d": 2},
            out_dir=str(tmp_path),
        )
        payload = json.loads((tmp_path / "constants.json").read_text())
        assert payload["lsi"] == asdict(m.lsi_constants(m.LsiConstants(**lsi), 8, 2))
        assert payload["lsi"] != asdict(m.lsi_constants(m.LsiConstants(**lsi), 1, 1))


class TestOracleKind:
    def test_density_csv_variance(self, tmp_path):
        out = tmp_path / "out"
        run_experiment(
            {"kind": "oracle", "model": {"variant": "quadratic", "r": 1.0, "s": 0.25}},
            out_dir=str(out),
        )
        rows = read_csv(out / "density.csv")
        x = np.array([float(r["x"]) for r in rows])
        p = np.array([float(r["density"]) for r in rows])
        dx = x[1] - x[0]
        mean = np.sum(x * p) * dx
        var = np.sum((x - mean) ** 2 * p) * dx
        assert var == pytest.approx(2.0 / 3.0, abs=1e-3)


class TestSampleKind:
    def test_zero_steps_final_equals_initial(self, tmp_path):
        out = tmp_path / "out"
        config = {
            "kind": "sample",
            "model": {"variant": "quadratic", "r": 1.0, "s": 0.0},
            "n_particles": 3,
            "chain": {"h": 0.05, "gamma": 1.0, "n_steps": 0, "seed": 5},
            "init": {"kind": "gaussian", "mean": 0.0, "std": 1.0},
        }
        run_experiment(config, out_dir=str(out))
        trajectory = read_csv(out / "trajectory.csv")
        final = read_csv(out / "final_state.csv")
        assert len(trajectory) == 3 and len(final) == 3
        for t_row, f_row in zip(trajectory, final):
            assert t_row["step"] == "0"
            assert t_row["x"] == f_row["x"] and t_row["v"] == f_row["v"]

    def test_trajectory_schema_and_stride(self, tmp_path):
        out = tmp_path / "out"
        config = {
            "kind": "sample",
            "model": {"variant": "quadratic", "r": 1.0, "s": 0.25},
            "n_particles": 2,
            "chain": {"h": 0.05, "gamma": 1.0, "n_steps": 100, "seed": 5},
            "init": {"kind": "gaussian", "mean": 0.0, "std": 1.0},
            "stride": 10,
        }
        run_experiment(config, out_dir=str(out))
        rows = read_csv(out / "trajectory.csv")
        assert list(rows[0]) == ["step", "particle", "coord", "x", "v"]
        assert len(rows) == 11 * 2  # 11 recorded steps, N=2, d=1


# one cell per value type the CSV writer meets, with its exact text; numpy 2
# reprs np.float64(1.0) as "np.float64(1.0)", so numpy floats must not reach
# repr unconverted, and bool is an int subclass but writes as true/false
_CSV_CELLS = [
    (1.5, "1.5"), (np.float64(1.0), "1.0"), (np.float64(0.1), "0.1"), (-0.0, "-0.0"),
    (np.float64(-0.0), "-0.0"), (5e-324, "5e-324"), (1e300, "1e+300"), (7, "7"),
    (np.int64(-3), "-3"), (True, "true"), (False, "false"), (np.bool_(False), "false"),
    (None, ""), ("tag", "tag"),
]


def test_write_csv_bytes_per_value_type(tmp_path):
    path = tmp_path / "cells.csv"
    values, cells = zip(*_CSV_CELLS)
    header = [f"c{i}" for i in range(len(values))]
    write_csv(str(path), header, [values, values[::-1]])
    expected = "".join(",".join(line) + "\n" for line in (header, cells, cells[::-1]))
    assert path.read_bytes() == expected.encode("utf-8")


class TestReproducibility:
    def test_same_seed_same_bytes(self, tmp_path):
        config = {
            "kind": "sample",
            "model": {"variant": "quadratic", "r": 1.0, "s": 0.25},
            "n_particles": 4,
            "chain": {"h": 0.05, "gamma": 1.0, "n_steps": 50, "seed": 31},
            "init": {"kind": "gaussian", "mean": 0.0, "std": 1.0},
            "stride": 5,
        }
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_experiment(config, out_dir=str(out_a))
        run_experiment(config, out_dir=str(out_b))
        for name in ("trajectory.csv", "final_state.csv", "config.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_override_changes_results(self, tmp_path):
        config = {
            "kind": "sample",
            "model": {"variant": "quadratic", "r": 1.0, "s": 0.25},
            "n_particles": 4,
            "chain": {"h": 0.05, "gamma": 1.0, "n_steps": 50, "seed": 31},
            "init": {"kind": "gaussian", "mean": 0.0, "std": 1.0},
        }
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_experiment(config, out_dir=str(out_a))
        run_experiment(config, out_dir=str(out_b), seed=32)
        assert (out_a / "final_state.csv").read_bytes() != (out_b / "final_state.csv").read_bytes()


class TestLyapunovCheckKind:
    def test_torus_mode_passes(self, tmp_path):
        out = tmp_path / "out"
        summary = run_experiment(
            {
                "kind": "lyapunov_check",
                "model": {"variant": "torus_trig", "a": 0.3, "b": 0.2, "d": 1},
                "n_particles": 6,
                "chain": {"gamma": 1.0, "seed": 3},
                "h_grid": [0.05],
                "n_states": 6,
                "m_draws": 1000,
            },
            out_dir=str(out),
        )
        assert summary["pass"] is True
        rows = read_csv(out / "drift.csv")
        assert len(rows) == 6
        assert all(r["holds"] == "true" for r in rows)

    def test_euclidean_mode_slope(self, tmp_path):
        out = tmp_path / "out"
        summary = run_experiment(
            {
                "kind": "lyapunov_check",
                "model": {"variant": "quadratic", "r": 1.0, "s": 0.0},
                "n_particles": 8,
                "chain": {"gamma": 1.0, "seed": 3},
                "h_grid": [0.1],
                "n_states": 40,
                "m_draws": 2000,
            },
            out_dir=str(out),
        )
        assert summary["mode"] == "euclidean_slope"
        assert summary["pass"] is True

    @pytest.mark.parametrize("model", [
        m.torus_trig_model(0.3, 0.2, d=2),
        m.quadratic_model(1.0, 0.25, d=2),
    ], ids=["torus", "euclidean"])
    def test_random_states_match_reference_draws(self, model, make_random_state):
        scales = [0.5, 1.0, 3.0]
        states = _random_states(model, 5, scales, 7, m.RngStream(11))
        rng = m.RngStream(11)
        for j, state in enumerate(states):
            expected = make_random_state(model, 5, rng, scale=scales[j % len(scales)])
            assert state.positions.tobytes() == expected.positions.tobytes(), j
            assert state.velocities.tobytes() == expected.velocities.tobytes(), j


class TestRiskKind:
    def test_risk_json(self, tmp_path):
        out = tmp_path / "out"
        run_experiment(
            {
                "kind": "risk",
                "model": {"variant": "quadratic", "r": 1.0, "s": 0.25},
                "n_particles": 8,
                "chain": {"h": 0.05, "gamma": 1.0, "n_steps": 200, "seed": 12},
                "init": {"kind": "gaussian", "mean": 0.0, "std": 1.0},
                "reps": 8,
                "observable": "x2_clip25",
                "oracle_mean": 0.6666667,
            },
            out_dir=str(out),
        )
        payload = json.loads((out / "risk.json").read_text())
        assert payload["value"] >= 0.0
        assert payload["reps"] == 8

    def test_unbounded_observable_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unbounded"):
            run_experiment(
                {
                    "kind": "risk",
                    "model": {"variant": "quadratic", "r": 1.0, "s": 0.25},
                    "n_particles": 8,
                    "chain": {"h": 0.05, "gamma": 1.0, "n_steps": 10, "seed": 12},
                    "init": {"kind": "gaussian", "mean": 0.0, "std": 1.0},
                    "reps": 8,
                    "observable": "x2",
                    "oracle_mean": 0.67,
                },
                out_dir=str(tmp_path / "out"),
            )


class TestSweepKinds:
    def test_sweep_h_rows_and_slope(self, tmp_path):
        out = tmp_path / "out"
        summary = run_experiment(
            {
                "kind": "sweep_h",
                "model": {"variant": "quadratic", "r": 1.0, "s": 0.0},
                "n_particles": 1,
                "chain": {"gamma": 1.0, "n_steps": 2000, "seed": 9},
                "init": {"kind": "point", "at": 0.0},
                "h_grid": [0.1, 0.2, 0.4],
                "observable": "x2",
                "oracle_mean": 1.0,
                "reps": 2,
                "stride": 4,
            },
            out_dir=str(out),
        )
        rows = read_csv(out / "sweep.csv")
        assert [r["parameter"] for r in rows] == ["0.1", "0.2", "0.4"]
        assert list(rows[0]) == ["parameter", "estimate", "std_err",
                                 "gate_lo", "gate_hi", "pass"]
        assert np.isfinite(summary["slope"])
        assert summary["gate"] == [1.5, 2.5]

    def test_sweep_h_without_post_burn_in_record_is_rejected(self, tmp_path):
        out = tmp_path / "out"
        config = {
            "kind": "sweep_h",
            "model": {"variant": "quadratic", "r": 1.0, "s": 0.0},
            "n_particles": 1,
            "chain": {"gamma": 1.0, "n_steps": 10, "seed": 9},
            "init": {"kind": "point", "at": 0.0},
            "h_grid": [0.1, 0.2],
            "observable": "x2",
            "oracle_mean": 1.0,
            "stride": 50,
        }
        with pytest.raises(ConfigurationError, match="burn-in"):
            run_experiment(config, out_dir=str(out))
        assert not (out / "sweep.csv").exists()

    def test_sweep_n_risk_table(self, tmp_path):
        out = tmp_path / "out"
        summary = run_experiment(
            {
                "kind": "sweep_N",
                "model": {"variant": "quadratic", "r": 1.0, "s": 0.25},
                "chain": {"h": 0.05, "gamma": 1.0, "n_steps": 400, "seed": 5},
                "init": {"kind": "gaussian", "mean": 0.0, "std": 1.0},
                "n_grid": [4, 32],
                "reps": 16,
                "observable": "x2_clip25",
                "oracle_mean": 0.6666667,
            },
            out_dir=str(out),
        )
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 2
        estimates = [float(r["estimate"]) for r in rows]
        assert all(v >= 0.0 for v in estimates)
        assert summary["risk_decreasing_in_N"] == (estimates[0] > estimates[1])


class TestConvergeKind:
    def test_series_and_summary(self, tmp_path):
        out = tmp_path / "out"
        summary = run_experiment(
            {
                "kind": "converge",
                "model": {"variant": "quadratic", "r": 1.0, "s": 0.25},
                "n_particles": 16,
                "chain": {"h": 0.05, "gamma": 1.0, "n_steps": 120, "seed": 6},
                "init": {"kind": "point", "at": 2.0},
                "reps": 96,
                "stride": 2,
                "n_bins": 25,
            },
            out_dir=str(out),
        )
        rows = read_csv(out / "series.csv")
        assert list(rows[0]) == ["step", "tv", "kl"]
        assert summary["rate"] < 1.0


class TestDecayingSegment:
    def test_trims_head_and_tail(self):
        series = np.concatenate([
            np.full(5, 0.99), 0.8 * 0.9 ** np.arange(30), np.full(20, 0.02),
        ])
        start, end = decaying_segment(series, floor=0.02)
        assert start == 5
        assert end < len(series)

    def test_short_series_untouched(self):
        series = np.linspace(1.0, 0.5, 8)
        assert decaying_segment(series, floor=0.01) == (0, 8)


class TestEmitReport:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(MissingArtifactError):
            emit_report(str(tmp_path / "nope"))

    def test_empty_directory(self, tmp_path):
        with pytest.raises(MissingArtifactError):
            emit_report(str(tmp_path))

    def test_gate_arithmetic_pass_line(self, tmp_path):
        # a sweep summary whose slope 2.1 sits inside the [1.5, 2.5] gate
        write_json(tmp_path / "config.json", {"kind": "sweep_h"})
        write_json(
            tmp_path / "summary.json",
            {"experiment": "sweep_h", "slope": 2.1, "gate": [1.5, 2.5], "pass": True},
        )
        text = emit_report(str(tmp_path))
        assert "PASS" in text
        assert "slope = 2.1" in text

    def test_fail_line_names_state_and_h(self, tmp_path):
        write_json(tmp_path / "config.json", {"kind": "lyapunov_check"})
        write_json(
            tmp_path / "summary.json",
            {
                "experiment": "lyapunov_check",
                "pass": False,
                "failures": [{"state": 17, "h": 0.1}],
            },
        )
        text = emit_report(str(tmp_path))
        assert "FAIL" in text
        assert '"state": 17' in text and '"h": 0.1' in text

    def test_index_lists_files(self, tmp_path):
        write_json(tmp_path / "config.json", {"kind": "constants"})
        write_json(tmp_path / "constants.json", {"a": 1.0})
        emit_report(str(tmp_path))
        index = json.loads((tmp_path / "index.json").read_text())
        names = {f["name"] for f in index["files"]}
        assert {"config.json", "constants.json"} <= names


class TestCli:
    def test_constants_roundtrip(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"kind": "constants", "gamma": 1.0, "rho": 1.0}))
        result = run_cli("constants", "--config", str(config_path), "--out",
                         str(tmp_path / "out"))
        assert result.returncode == 0
        assert (tmp_path / "out" / "constants.json").exists()

    def test_schema_violation_exit_2(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"kind": "constants", "gamma": 1.0,
                                           "rho": 1.0, "junk": True}))
        result = run_cli("constants", "--config", str(config_path), "--out",
                         str(tmp_path / "out"))
        assert result.returncode == 2
        assert "junk" in result.stderr

    def test_nan_constant_exit_2_naming_it(self, tmp_path):
        # Python's JSON reader accepts NaN, and the schema lets it through
        config_path = tmp_path / "c.json"
        config_path.write_text('{"kind": "constants", "gamma": 1.0, "rho": NaN}')
        result = run_cli("constants", "--config", str(config_path), "--out",
                         str(tmp_path / "out"))
        assert result.returncode == 2
        assert "$.rho" in result.stderr
        assert "Traceback" not in result.stderr

    def test_missing_config_file_exit_2(self, tmp_path):
        config_path = tmp_path / "nope.json"
        result = run_cli("constants", "--config", str(config_path), "--out",
                         str(tmp_path / "out"))
        assert result.returncode == 2
        assert str(config_path) in result.stderr
        assert "Traceback" not in result.stderr

    def test_truncated_config_file_exit_2(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text('{"kind": "const')
        result = run_cli("constants", "--config", str(config_path), "--out",
                         str(tmp_path / "out"))
        assert result.returncode == 2
        assert str(config_path) in result.stderr
        assert "Traceback" not in result.stderr

    def test_non_utf8_config_file_exit_2(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_bytes(b'{"kind": "\xff"}')
        result = run_cli("constants", "--config", str(config_path), "--out",
                         str(tmp_path / "out"))
        assert result.returncode == 2
        assert str(config_path) in result.stderr

    def test_unavailable_diagnostic_exit_1(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({
            "kind": "oracle",
            "model": {"variant": "quadratic", "r": 1, "s": 0.25, "d": 2},
        }))
        result = run_cli("oracle", "--config", str(config_path), "--out",
                         str(tmp_path / "out"))
        assert result.returncode == 1
        assert "linear derivative" in result.stderr
        assert "Traceback" not in result.stderr

    def test_report_without_out_exit_2(self):
        result = run_cli("report")
        assert result.returncode == 2
        assert "--out" in result.stderr

    def test_kind_without_config_exit_2(self, tmp_path):
        result = run_cli("constants", "--out", str(tmp_path / "out"))
        assert result.returncode == 2
        assert "--config" in result.stderr

    def test_kind_mismatch_exit_2(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"kind": "constants", "gamma": 1.0, "rho": 1.0}))
        result = run_cli("oracle", "--config", str(config_path), "--out",
                         str(tmp_path / "out"))
        assert result.returncode == 2

    def test_numerical_domain_exit_3(self, tmp_path):
        # unstable step size: the Verlet map diverges and overflows
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({
            "kind": "sample",
            "model": {"variant": "quadratic", "r": 1.0, "s": 0.0},
            "n_particles": 2,
            "chain": {"h": 9.9, "gamma": 0.1, "n_steps": 500, "seed": 1},
            "init": {"kind": "gaussian", "mean": 0.0, "std": 1.0},
        }))
        result = run_cli("sample", "--config", str(config_path), "--out",
                         str(tmp_path / "out"))
        assert result.returncode == 3
        assert "step" in result.stderr

    def test_non_convergence_exit_4(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({
            "kind": "oracle",
            "model": {"variant": "quadratic", "r": 1.0, "s": 0.25},
            "tol": 1e-14,
            "max_iter": 2,
        }))
        result = run_cli("oracle", "--config", str(config_path), "--out",
                         str(tmp_path / "out"))
        assert result.returncode == 4

    def test_report_missing_exit_5(self, tmp_path):
        result = run_cli("report", "--out", str(tmp_path / "empty"))
        assert result.returncode == 5


_QUAD = {"variant": "quadratic", "r": 1.0, "s": 0.25}
_GAUSS_INIT = {"kind": "gaussian", "mean": 0.0, "std": 1.0}
_REPLICA_CONFIGS = {
    "sweep_h": {
        "kind": "sweep_h", "model": _QUAD, "n_particles": 2,
        "chain": {"gamma": 1.0, "n_steps": 60, "seed": 9},
        "init": {"kind": "point", "at": 0.0}, "h_grid": [0.03, 0.06],
        "observable": "x2_clip25", "oracle_mean": 0.6666667, "reps": 3, "stride": 3,
    },
    "sweep_N": {
        "kind": "sweep_N", "model": _QUAD,
        "chain": {"h": 0.05, "gamma": 1.0, "n_steps": 40, "seed": 5},
        "init": _GAUSS_INIT, "n_grid": [2, 6], "reps": 9,
        "observable": "x2_clip25", "oracle_mean": 0.6666667,
    },
    "converge": {
        "kind": "converge", "model": _QUAD, "n_particles": 8,
        "chain": {"h": 0.05, "gamma": 1.0, "n_steps": 40, "seed": 2},
        "init": {"kind": "point", "at": 2.0}, "reps": 7, "stride": 2,
        "grid": {"lo": -6.0, "hi": 6.0, "n_cells": 201},
    },
    "risk": {
        "kind": "risk", "model": _QUAD, "n_particles": 4,
        "chain": {"h": 0.05, "gamma": 1.0, "n_steps": 40, "seed": 12},
        "init": _GAUSS_INIT, "reps": 9, "observable": "x2_clip25", "oracle_mean": 0.6666667,
    },
}


def _output_bytes(config, out, seed=None):
    run_experiment(config, out_dir=str(out), seed=seed)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _results(outputs):
    """Every file but ``config.json``, with the config that JSON result
    files embed left out, so only what the chains computed is compared."""
    results = {}
    for name, data in outputs.items():
        if name.endswith(".json"):
            data = {k: v for k, v in json.loads(data).items() if k != "config"}
        results[name] = data
    del results["config.json"]
    return results


@pytest.mark.parametrize("kind", sorted(_REPLICA_CONFIGS))
def test_replica_kinds_reproduce_bytes(tmp_path, kind):
    config = _REPLICA_CONFIGS[kind]
    first = _output_bytes(config, tmp_path / "first")
    assert len(first) >= 2  # config.json and at least one result file
    assert _output_bytes(config, tmp_path / "again") == first
    other = _output_bytes(config, tmp_path / "other", seed=config["chain"]["seed"] + 1)
    assert other.keys() == first.keys()
    first, other = _results(first), _results(other)
    assert any(other[name] != first[name] for name in first)


class TestThreadsRemoved:
    """Replicas run in one thread: the CLI has no ``--threads`` and
    ``run_experiment`` takes only ``threads=1``."""

    def test_cli_threads_flag_exit_2(self, tmp_path):
        out = tmp_path / "out"
        result = run_cli("risk", "--config", _write_config(tmp_path, _REPLICA_CONFIGS["risk"]),
                         "--out", str(out), "--threads", "2")
        assert result.returncode == 2
        assert "--threads" in result.stderr
        assert not out.exists()

    def test_run_experiment_threads_2_rejected(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ConfigurationError, match="threads"):
            run_experiment(_REPLICA_CONFIGS["risk"], out_dir=str(out), threads=2)
        assert not out.exists()

    def test_run_experiment_threads_1_runs(self, tmp_path):
        out = tmp_path / "out"
        payload = run_experiment(_REPLICA_CONFIGS["risk"], out_dir=str(out), threads=1)
        assert payload["reps"] == _REPLICA_CONFIGS["risk"]["reps"]
        assert (out / "risk.json").is_file()


def _write_config(tmp_path, config):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    return str(path)


@pytest.mark.parametrize("kind, field, grid", [
    ("sweep_h", "h_grid", [0.1]),
    ("sweep_h", "h_grid", [0.1, 0.1]),
    ("sweep_N", "n_grid", [4]),
    ("sweep_N", "n_grid", [4, 4]),
])
def test_sweep_needs_two_distinct_grid_values_exit_2(tmp_path, kind, field, grid):
    config = {**_REPLICA_CONFIGS[kind], field: grid}
    out = tmp_path / "out"
    result = run_cli(kind, "--config", _write_config(tmp_path, config), "--out", str(out))
    assert result.returncode == 2
    assert field in result.stderr
    assert "Traceback" not in result.stderr
    assert not (out / "sweep.csv").exists()


_LYAPUNOV_CONFIG = {
    "kind": "lyapunov_check",
    "model": {"variant": "torus_trig", "a": 0.3, "b": 0.2, "d": 1},
    "n_particles": 4, "chain": {"gamma": 1.0, "seed": 3}, "h_grid": [0.05],
    "n_states": 2, "m_draws": 1000,
}


@pytest.mark.parametrize("chain, seed_args, message", [
    ({"seed": 3}, [], "gamma"),
    ({"gamma": 1.0}, ["--seed", "-1"], "seed"),
    ({"gamma": 1.0}, ["--seed", str(2 ** 64)], "seed"),
])
def test_lyapunov_check_chain_fields_exit_2(tmp_path, chain, seed_args, message):
    config = {**_LYAPUNOV_CONFIG, "chain": chain}
    out = tmp_path / "out"
    result = run_cli("lyapunov_check", "--config", _write_config(tmp_path, config),
                     "--out", str(out), *seed_args)
    assert result.returncode == 2
    assert message in result.stderr
    assert "Traceback" not in result.stderr
    assert not (out / "drift.csv").exists()


# config.json and every JSON result file, each in a directory of a kind that has it
_JSON_FILE_KINDS = {"config.json": "sweep_h", "summary.json": "sweep_h",
                    "risk.json": "risk", "constants.json": "constants"}


def _finished_run(tmp_path, name):
    """A finished run's config.json and result file, of a kind that has ``name``."""
    kind = _JSON_FILE_KINDS[name]
    write_json(tmp_path / "config.json", {"kind": kind})
    write_json(tmp_path / _KINDS[kind][2], {"experiment": kind, "pass": True})


@pytest.mark.parametrize("name", _JSON_FILE_KINDS)
def test_report_on_corrupt_result_file_exit_5(tmp_path, name):
    _finished_run(tmp_path, name)
    (tmp_path / name).write_text('{"kind": "swe')
    with pytest.raises(MissingArtifactError, match=name):
        emit_report(str(tmp_path))
    result = run_cli("report", "--out", str(tmp_path))
    assert result.returncode == 5
    assert name in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("name", _JSON_FILE_KINDS)
@pytest.mark.parametrize("content", ["[1]", '"x"'])
def test_report_on_non_object_result_file_exit_5(tmp_path, name, content):
    _finished_run(tmp_path, name)
    (tmp_path / name).write_text(content)
    with pytest.raises(MissingArtifactError, match=name):
        emit_report(str(tmp_path))
    result = run_cli("report", "--out", str(tmp_path))
    assert result.returncode == 5
    assert name in result.stderr
    assert "Traceback" not in result.stderr


_FLAT_CONVEX_SAMPLE = {
    "kind": "sample",
    "model": {"variant": "flat_convex_regression", "xs": [[1.0, 0.0], [0.0, 1.0]],
              "ys": [0.2, 0.8]},
    "n_particles": 2, "chain": {"h": 0.1, "gamma": 1.0, "n_steps": 2, "seed": 1},
    "init": {"kind": "point", "at": [0.0, 0.0]},
}


@pytest.mark.parametrize("section, entries, field", [
    ("init", {"at": [1.0, 2.0, 3.0]}, "at"),
    ("init", {"kind": "gaussian", "mean": [1.0, 2.0, 3.0]}, "mean"),
    ("init", {"at": ["a"]}, "at"),
    ("model", {"xs": [[1.0, 0.0], [0.0]]}, "xs"),
    ("model", {"xs": [["a", 0.0], [0.0, 1.0]]}, "xs"),
    ("model", {"ys": ["a", 0.8]}, "ys"),
])
def test_malformed_point_or_dataset_exit_2(tmp_path, section, entries, field):
    config = {**_FLAT_CONVEX_SAMPLE,
              section: {**_FLAT_CONVEX_SAMPLE[section], **entries}}
    out = tmp_path / "out"
    result = run_cli("sample", "--config", _write_config(tmp_path, config), "--out", str(out))
    assert result.returncode == 2
    assert field in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("kind, entries, needle", [
    ("lyapunov_check",
     {"model": {"variant": "quadratic", "r": 1.0, "s": 0.0}, "c_euclidean": 50.0},
     "c_euclidean"),
    ("lyapunov_check", {"state_scales": [-1.0, 1.0]}, "$.state_scales[0]"),
    ("sample", {"init": {"kind": "gaussian", "mean": 0.0, "std": -1.0}}, "$.init.std"),
])
def test_unread_or_negative_config_field_exit_2(tmp_path, kind, entries, needle):
    base = _FLAT_CONVEX_SAMPLE if kind == "sample" else _LYAPUNOV_CONFIG
    out = tmp_path / "out"
    result = run_cli(kind, "--config", _write_config(tmp_path, {**base, **entries}),
                     "--out", str(out))
    assert result.returncode == 2
    assert needle in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists()


_KIND_CONFIGS = {
    **_REPLICA_CONFIGS,
    "sample": _FLAT_CONVEX_SAMPLE,
    "lyapunov_check": _LYAPUNOV_CONFIG,
    "oracle": {"kind": "oracle", "model": _QUAD,
               "grid": {"lo": -6.0, "hi": 6.0, "n_cells": 201}},
    "constants": {"kind": "constants", "gamma": 1.0, "rho": 1.0},
}


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_each_kind_leaves_its_result_file_and_reports(tmp_path, kind):
    run_experiment(_KIND_CONFIGS[kind], out_dir=str(tmp_path))
    assert (tmp_path / _KINDS[kind][2]).is_file()
    assert emit_report(str(tmp_path)).startswith(f"experiment: {kind}\n")


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_report_on_unfinished_run_exit_5_naming_result_file(tmp_path, kind):
    # what a run that died in its driver leaves: config.json and nothing else
    write_json(tmp_path / "config.json", _KIND_CONFIGS[kind])
    result = run_cli("report", "--out", str(tmp_path))
    assert result.returncode == 5
    assert _KINDS[kind][2] in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("config", [{"kind": "nope"}, {}])
def test_report_on_unknown_kind_exit_5(tmp_path, config):
    write_json(tmp_path / "config.json", config)
    write_json(tmp_path / "summary.json", {"pass": True})
    result = run_cli("report", "--out", str(tmp_path))
    assert result.returncode == 5
    assert "no known experiment kind" in result.stderr
    assert "Traceback" not in result.stderr


def test_missing_required_field_exit_2_before_any_output(tmp_path):
    config = {k: v for k, v in _REPLICA_CONFIGS["risk"].items() if k != "reps"}
    out = tmp_path / "out"
    result = run_cli("risk", "--config", _write_config(tmp_path, config), "--out", str(out))
    assert result.returncode == 2
    assert "requires field(s): reps" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("kind, entries, path", [
    ("risk", {"oracle_mean": math.nan}, "$.oracle_mean"),
    ("risk", {"oracle_mean": -math.inf}, "$.oracle_mean"),
    ("sweep_h", {"slope_gate": [math.nan, 2.5]}, "$.slope_gate[0]"),
    ("constants", {"lsi": {"rho_bar": 1, "mmm": 0.1, "alpha_n": math.nan}}, "$.lsi.alpha_n"),
    ("sweep_h", {"burn_in": math.nan}, "$.burn_in"),
    ("lyapunov_check", {"state_scales": [math.nan]}, "$.state_scales[0]"),
    ("risk", {"oracle_mean": 10**400}, "$.oracle_mean"),
    ("sample", {"n_particles": 10**400}, "$.n_particles"),
])
def test_non_finite_config_number_exit_2_naming_it(tmp_path, kind, entries, path):
    out = tmp_path / "out"
    config = {**_KIND_CONFIGS[kind], **entries}
    result = run_cli(kind, "--config", _write_config(tmp_path, config), "--out", str(out))
    assert result.returncode == 2
    assert f"config invalid at {path}: not a finite number" in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists()


_BAD_R = {"variant": "quadratic", "r": -1.0, "s": 0.25}
_R_MESSAGE = "quadratic model needs r > 0"
_TORUS = {"variant": "torus_trig", "a": 0.3, "b": 0.2, "d": 1}


@pytest.mark.parametrize("kind, entries, message", [
    ("lyapunov_check", {"chain": {"seed": 3}},
     "config invalid at $.chain: 'gamma' is a required property"),
    ("sweep_h", {"h_grid": [0.03, 0.03]}, "h_grid needs at least two distinct values"),
    ("sweep_h", {"stride": 50, "burn_in": 0.9}, "no observer record falls after burn-in"),
    # a bad model in every kind that builds one
    ("sample", {"model": {"variant": "nope"}}, "unknown model variant 'nope'"),
    ("sweep_h", {"model": _BAD_R}, _R_MESSAGE),
    ("sweep_N", {"model": _BAD_R}, _R_MESSAGE),
    ("converge", {"model": _BAD_R}, _R_MESSAGE),
    ("lyapunov_check", {"model": _BAD_R}, _R_MESSAGE),
    ("oracle", {"model": {"variant": "nope"}}, "unknown model variant 'nope'"),
    ("constants", {"model": _BAD_R}, _R_MESSAGE),
    ("risk", {"model": _BAD_R}, _R_MESSAGE),
    # an unbounded observable where the risk needs a bounded one
    ("risk", {"observable": "x2"}, "observable 'x2' is unbounded"),
    ("sweep_N", {"observable": "x2"}, "observable 'x2' is unbounded"),
    # initial laws
    ("converge", {"init": {"kind": "uniform"}}, "uniform initial positions are torus-only"),
    ("sample", {"model": _TORUS, "init": {"kind": "point", "at": 1.5}},
     "point mass must lie in [0,1)^d on the torus"),
    ("risk", {"init": {}}, "unknown initial law kind None"),
    ("sweep_h", {"init": {}}, "unknown initial law kind None"),
    # oracle grids and solver settings
    ("converge", {"grid": {"lo": 6.0, "hi": -6.0, "n_cells": 201}}, "grid needs hi > lo"),
    ("oracle", {"grid": {"lo": 6.0, "hi": -6.0, "n_cells": 201}}, "grid needs hi > lo"),
    ("oracle", {"damping": 5.0}, "$.damping"),
    # theory constants
    ("converge", {"rho": -1.0}, "rho must be positive"),
    ("constants", {"rho": -1.0}, "rho must be positive"),
    ("constants", {"lsi": {"rho_bar": -1.0, "mmm": 0.1}}, "rho_bar must be positive"),
    # replica, state, draw and record counts
    ("risk", {"reps": 2}, "at least 8 replicas"),
    ("sweep_N", {"reps": 2}, "at least 8 replicas"),
    ("lyapunov_check", {"m_draws": 10}, "$.m_draws"),
    ("lyapunov_check", {"model": {"variant": "quadratic", "r": 1.0, "s": 0.0}},
     "at least three states to fit a slope"),
    ("converge", {"n_bins": 5}, "$.n_bins"),
    ("converge", {"stride": 5}, "at least 10 points to fit a rate"),
    # a gate that no slope can pass
    ("sweep_h", {"slope_gate": [3.0, 1.0]}, "slope_gate"),
    # integer fields given as floats
    ("sample", {"n_particles": 4.0}, "$.n_particles: 4.0 is not of type 'integer'"),
    ("sample", {"chain": {**_FLAT_CONVEX_SAMPLE["chain"], "n_steps": 5.0}},
     "$.chain.n_steps: 5.0 is not of type 'integer'"),
    ("risk", {"reps": 8.0}, "$.reps: 8.0 is not of type 'integer'"),
    ("converge", {"stride": 2.0}, "$.stride: 2.0 is not of type 'integer'"),
    ("sweep_N", {"n_grid": [4, 8.0]}, "$.n_grid[1]: 8.0 is not of type 'integer'"),
    # lyapunov_check makes single transitions from random states: no n_steps
    ("lyapunov_check", {"chain": {"gamma": 1.0, "n_steps": 999}}, "'n_steps' was unexpected"),
    # oracle_mean replaces the oracle, so none of its settings is read
    *[(kind, {field: value}, f"{field} not read: oracle_mean replaces the oracle")
      for kind in ("sweep_h", "risk")
      for field, value in (("grid", {"lo": 6.0, "hi": -6.0, "n_cells": 201}),
                           ("damping", 1.0), ("tol", 5.0), ("max_iter", 1))],
    # constants' d belongs to the lsi block, n_particles to the lsi and model blocks
    ("constants", {"d": 7}, "constants reads d only with lsi"),
    ("constants", {"n_particles": 9}, "constants reads n_particles only with lsi or model"),
    # wrap is a torus field; the sample config's model lives on R^2
    ("sample", {"init": {"kind": "gaussian", "wrap": True}},
     "gaussian law on euclidean does not read field(s): wrap"),
    # a chain field the kind reads, left out, is named at $.chain
    ("sample", {"chain": {"gamma": 1.0, "n_steps": 2}},
     "config invalid at $.chain: 'h' is a required property"),
    ("risk", {"chain": {"h": 0.05, "n_steps": 40}},
     "config invalid at $.chain: 'gamma' is a required property"),
])
def test_driver_config_error_exit_2_before_any_output(tmp_path, kind, entries, message):
    out = tmp_path / "out"
    config = {**_KIND_CONFIGS[kind], **entries}
    result = run_cli(kind, "--config", _write_config(tmp_path, config), "--out", str(out))
    assert result.returncode == 2
    assert message in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists()


_QUAD_2D = {"variant": "quadratic", "r": 1.0, "s": 0.25, "d": 2}


@pytest.mark.parametrize("kind", ["oracle", "converge", "sweep_h", "risk"])
def test_oracle_capability_error_exit_1_before_any_output(tmp_path, kind):
    # a 2-d model has no 1-d linear derivative, so the fixed-point oracle
    # cannot run; sweep_h and risk need it only without oracle_mean
    config = {k: v for k, v in _KIND_CONFIGS[kind].items() if k != "oracle_mean"}
    config["model"] = _QUAD_2D
    out = tmp_path / "out"
    result = run_cli(kind, "--config", _write_config(tmp_path, config), "--out", str(out))
    assert result.returncode == 1
    assert "model does not expose a 1-d linear derivative" in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("kind, field, value", [
    ("converge", "oracle_mean", 123.0),
    ("sweep_N", "n_particles", 1000),
    ("sample", "reps", 4),
    ("risk", "stride", 2),
    ("lyapunov_check", "init", {"kind": "uniform"}),
    ("oracle", "chain", {"h": 0.05, "gamma": 1.0}),
    ("constants", "stride", 2),
    ("sweep_h", "n_bins", 50),
])
def test_field_the_kind_does_not_read_exit_2_before_any_output(tmp_path, kind, field, value):
    out = tmp_path / "out"
    config = {**_KIND_CONFIGS[kind], field: value}
    result = run_cli(kind, "--config", _write_config(tmp_path, config), "--out", str(out))
    assert result.returncode == 2
    assert f"'{field}' was unexpected" in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists()


def test_constants_n_particles_with_model_alone_runs(tmp_path):
    config = {"kind": "constants", "gamma": 1.0, "rho": 1.0, "n_particles": 9, "model": _QUAD}
    assert "lyapunov" in run_experiment(config, out_dir=str(tmp_path / "out"))


@pytest.mark.parametrize("kind", ["oracle", "constants"])
def test_seed_on_a_kind_without_a_chain_exit_2_before_any_output(tmp_path, kind):
    out = tmp_path / "out"
    with pytest.raises(ConfigurationError, match="'chain' was unexpected"):
        run_experiment(_KIND_CONFIGS[kind], out_dir=str(out), seed=3)
    result = run_cli(kind, "--config", _write_config(tmp_path, _KIND_CONFIGS[kind]),
                     "--out", str(out), "--seed", "3")
    assert result.returncode == 2
    assert "'chain' was unexpected" in result.stderr
    assert not out.exists()


def test_seed_with_a_chain_that_is_not_an_object_rejected(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ConfigurationError, match=r"\$\.chain: 5 is not of type 'object'"):
        run_experiment({**_FLAT_CONVEX_SAMPLE, "chain": 5}, out_dir=str(out), seed=3)
    assert not out.exists()


def test_every_field_schema_is_named_by_a_kind_and_back():
    named = {name for _, required, _, optional in _KINDS.values() for name in required + optional}
    assert named | {"out_dir"} == set(_FIELDS)


def test_readme_kind_table_lists_each_kinds_fields():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = {}
    for line in readme.splitlines():
        cells = line.split("|")[1:-1]
        if len(cells) == 3 and cells[0].strip().strip("`") in _KINDS:
            table[cells[0].strip().strip("`")] = tuple(
                sorted(re.findall(r"`(\w+)`", cell)) for cell in cells[1:]
            )
    assert table == {
        kind: (sorted(required), sorted(optional))
        for kind, (_, required, _, optional) in _KINDS.items()
    }
