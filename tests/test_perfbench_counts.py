"""The benchmark's closed-form call counts, checked in-process.

``perfbench/workloads.py`` states how many gradients, normals, chain runs,
observer visits and writes one call of each workload makes, and
``perfbench/spans.py`` counts them by wrapping the package's functions.
Each workload's tiny config runs once under the tracer here; the benchmark
modules are imported read-only from ``perfbench/``.
"""

import sys
from pathlib import Path

import pytest

import mfkl.harness as harness

_PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, _PERFBENCH)
try:
    import spans
    import workloads
finally:
    sys.path.remove(_PERFBENCH)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_counts_match_closed_forms(tmp_path, name):
    cfg = workloads.config(name, "tiny")
    with spans.Tracer() as tracer:
        harness.run_experiment(cfg, out_dir=str(tmp_path), seed=7, threads=1)
    metrics = spans.summarize(tracer.spans)
    expected = workloads.expected_counts(cfg)
    assert {key: metrics[key] for key in expected} == expected
