"""Set-up probe: a fresh interpreter gets a workload ready to run, then exits.

``run.py`` starts this script and times it up to the ``ready`` line: the
interpreter start, ``import mfkl``, strict config validation and model
construction.  Usage: ``python3 perfbench/setup_probe.py WORKLOAD SIZE``.
"""

import sys
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def main(name, size):
    sys.path.insert(0, str(SRC))
    from mfkl.harness import validate_config
    from mfkl.model import make_builtin_model

    cfg = validate_config(workloads.config(name, size))
    make_builtin_model(cfg["model"])
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
