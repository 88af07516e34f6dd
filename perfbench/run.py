#!/usr/bin/env python3
"""mfkl benchmark: experiment throughput end to end, and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the benchmark imports ``mfkl`` from
its ``src/`` directory.  One process drives ``mfkl.harness.run_experiment``
with ``threads=1`` in a closed loop: the next experiment call starts when
the previous one returns.  Call ``k`` uses the experiment seed
``derive_seed(N, k)``.  Call 0 is an untimed warm-up; calls are then timed
until S seconds have passed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced calls on the same seed and prints the per-layer metrics
of the traced calls, per experiment call (see ``spans.py``).  Every call is
checked for correctness; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A detailed report
(environment, quartiles, output digest) and the spans of one traced call
are written to ``.perfbench_out/`` in the checkout.
"""

import os

# One BLAS/OpenMP thread: the benchmark measures the single-process chain.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MFKL_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5

THREADS_NOTE = (
    "threads=1: the --threads / MFKL_THREADS replica pool is deliberately not "
    "exercised; it is a GIL-bound ThreadPoolExecutor that adds contention, not "
    "throughput, on a 2-core machine, and ROADMAP item 2 redefines the flag"
)


class SetupError(Exception):
    """The checkout cannot run the benchmark (no sources, failed probe)."""


def measure_setup(name, size):
    """Seconds from a fresh interpreter to a workload ready to run.

    One untimed probe first, so compiling the bytecode caches is not counted.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, size]
    times = []
    for i in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            try:
                _, err = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise SetupError("set-up probe did not exit") from None
        if proc.returncode != 0 or line.strip() != "ready":
            raise SetupError(f"set-up probe failed (exit {proc.returncode}): {err.strip()}")
        if i:
            times.append(elapsed)
    return times


def import_mfkl():
    sys.path.insert(0, str(SRC))
    import mfkl

    if Path(mfkl.__file__).resolve().parent != SRC / "mfkl":
        raise SetupError(f"imported mfkl from {mfkl.__file__}, not from {SRC}")


def _finite_json(text):
    def reject(token):
        raise ValueError(f"non-finite JSON number {token}")

    json.loads(text, parse_constant=reject)


def _finite_csv(text):
    for line in text.splitlines()[1:]:
        for field in line.split(","):
            try:
                value = float(field)
            except ValueError:
                continue  # booleans and empty cells
            if not math.isfinite(value):
                raise ValueError(f"non-finite CSV value {field!r}")


def check_outputs(out_dir):
    """SHA-256 over every output file; raises on a non-finite number."""
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode())
        digest.update(data)
        try:
            if path.suffix == ".json":
                _finite_json(data.decode())
            elif path.suffix == ".csv":
                _finite_csv(data.decode())
        except ValueError as err:
            raise ValueError(f"{path.name}: {err}") from None
    return digest.hexdigest()


class Caller:
    """Runs and checks one experiment call at a time."""

    def __init__(self, name, cfg, seed, work_dir):
        from mfkl.harness import run_experiment
        from mfkl.rng import derive_seed

        self.name = name
        self.cfg = cfg
        self.work = workloads.particle_steps(cfg)
        self.out_dir = work_dir / "call"
        self._run = run_experiment
        self._seed = lambda k: derive_seed(seed, k)
        self.attempted = 0
        self.problems = []

    def call(self, k):
        """Run call ``k``; returns ``(wall_s, digest)``, digest None on failure."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.attempted += 1
        start = time.perf_counter()
        try:
            summary = self._run(self.cfg, out_dir=str(self.out_dir),
                                seed=self._seed(k), threads=1)
            wall = time.perf_counter() - start
            digest = check_outputs(self.out_dir)
            if workloads.gates_on_pass(self.name) and summary.get("pass") is not True:
                raise ValueError(f"experiment verdict pass={summary.get('pass')!r}")
        except Exception as err:  # noqa: BLE001 - any failure of a call is counted
            self.fail(k, f"{type(err).__name__}: {err}")
            return time.perf_counter() - start, None
        return wall, digest

    def fail(self, k, message):
        self.problems.append(f"call {k}: {message}")


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3 if values else [0.0] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, statistics.median(values), q3]


def run_untraced(caller, seconds):
    """Timed closed loop; returns per-call throughput samples."""
    _, first = caller.call(0)
    rates = []
    deadline = time.perf_counter() + seconds
    k = 1
    while k == 1 or time.perf_counter() < deadline:
        wall, digest = caller.call(k)
        if digest is not None:
            rates.append(caller.work / wall)
        k += 1
    _, again = caller.call(0)
    if first is not None and again is not None and again != first:
        caller.fail(0, "re-run with the same seed gave different output bytes")
    return rates, first


def run_traced(caller, seconds, spans_path):
    """Alternating untraced/traced calls on the same seed."""
    expected = workloads.expected_counts(caller.cfg)
    _, first = caller.call(0)
    per_call = []
    deadline = time.perf_counter() + seconds
    k = 1
    while k == 1 or time.perf_counter() < deadline:
        tracer = spans.Tracer()
        walls = {}
        for traced in ((False, True) if k % 2 else (True, False)):
            if traced:
                with tracer:
                    walls[traced] = caller.call(k)
            else:
                walls[traced] = caller.call(k)
        (plain_wall, plain), (traced_wall, traced_digest) = walls[False], walls[True]
        if plain is not None and traced_digest is not None:
            metrics = spans.summarize(tracer.spans)
            wrong = {key: (metrics[key], want) for key, want in expected.items()
                     if metrics[key] != want}
            if plain != traced_digest:
                caller.fail(k, "same seed gave different bytes traced and untraced")
            elif wrong:
                caller.fail(k, f"traced counts differ from closed forms (got, want): {wrong}")
            else:
                metrics["trace.overhead_ratio"] = traced_wall / plain_wall
                per_call.append(metrics)
            if k == 1:
                write_spans(spans_path, tracer.spans)
        k += 1
    return per_call, first


def write_spans(path, recorded):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                   "spans": [s[:4] for s in recorded]}, fh)


def environment():
    import numpy

    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            caches.append("L{} {} {}".format(*(
                (index / f).read_text().strip() for f in ("level", "type", "size"))))
        except OSError:
            pass
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "blas_threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                      "MKL_NUM_THREADS")},
        "threads": THREADS_NOTE,
    }


def load_metric_specs():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke check's problem size")
    args = parser.parse_args(argv)
    seed = args.seed & 0xFFFFFFFFFFFFFFFF
    cfg = workloads.config(args.workload, args.size)
    units = load_metric_specs()

    try:
        if not (SRC / "mfkl" / "__init__.py").is_file():
            raise SetupError(f"no mfkl sources under {SRC}")
        setup = None if args.trace else measure_setup(args.workload, args.size)
        import_mfkl()
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-trace{args.trace}"
    work_dir = OUT / f"{tag}-{os.getpid()}"
    caller = Caller(args.workload, cfg, seed, work_dir)
    report = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "config": cfg, "environment": environment()}
    try:
        if args.trace:
            per_call, digest = run_traced(caller, args.seconds, OUT / f"{tag}-spans.json")
            names = list(spans.summarize([])) + ["trace.overhead_ratio"]
            values = {n: statistics.median([c[n] for c in per_call]) if per_call else 0.0
                      for n in names}
            report["traced_calls"] = len(per_call)
        else:
            rates, digest = run_untraced(caller, args.seconds)
            values = {
                # lower quartile: steadier than the median on a shared host
                "particle_steps_per_s": quartiles(rates)[0],
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ok_ratio": 1.0 - len(caller.problems) / caller.attempted,
            }
            report["particle_steps_per_s"] = {
                "q1_median_q3": quartiles(rates), "samples": len(rates),
                "work_per_call": caller.work}
            report["setup_s"] = {"q1_median_q3": quartiles(setup), "samples": len(setup)}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    report.update({"output_sha256": digest, "attempted": caller.attempted,
                   "problems": caller.problems})
    with open(OUT / f"{tag}-report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    for problem in caller.problems:
        print(f"FAILED {problem}")
    for key in ("particle_steps_per_s", "setup_s"):
        if key in report:
            q1, q2, q3 = report[key]["q1_median_q3"]
            print(f"{key}: q1 {q1:.6g}, median {q2:.6g}, q3 {q3:.6g}, "
                  f"n={report[key]['samples']}")
    print(f"output sha256 (seed {args.seed}): {digest}")
    print(json.dumps({
        "correct": not caller.problems,
        "attempted": caller.attempted,
        "failed": len(caller.problems),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
