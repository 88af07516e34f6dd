"""Command-line entry point.

Usage::

    mfkl <kind> --config path.json [--seed U64] [--out DIR]
    mfkl report --out DIR

Kinds are the experiment kinds of :mod:`mfkl.harness`; ``report``
summarizes a finished experiment directory.  ``--seed`` overrides
``chain.seed`` (``oracle`` and ``constants`` have no chain and reject it).
Replica experiments run their replicas one after another.
Exit codes: 1 the diagnostic is unavailable for this model, or an internal
invariant or observer failed; 2 bad config (including an unreadable or
non-JSON config file); 3 numerical domain error; 4 non-convergence;
5 missing or corrupt result files.
"""

import argparse
import sys

from .errors import ConfigurationError, MfklError
from .harness import EXPERIMENT_KINDS, emit_report, load_config, run_experiment


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mfkl",
        description="mean-field kinetic Langevin experiments",
    )
    parser.add_argument("kind", choices=EXPERIMENT_KINDS + ("report",))
    parser.add_argument("--config", help="path to a JSON experiment config")
    parser.add_argument("--seed", type=int, help="override chain.seed (kinds with a chain)")
    parser.add_argument("--out", help="output directory")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.kind == "report":
            if not args.out:
                raise ConfigurationError("report needs --out pointing at a results directory")
            sys.stdout.write(emit_report(args.out))
            return 0
        if not args.config:
            raise ConfigurationError(f"kind {args.kind!r} needs --config")
        config = load_config(args.config)
        if config["kind"] != args.kind:
            raise ConfigurationError(
                f"config kind {config['kind']!r} does not match CLI kind {args.kind!r}"
            )
        run_experiment(config, out_dir=args.out, seed=args.seed)
        return 0
    except MfklError as err:
        sys.stderr.write(f"mfkl: {err}\n")
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
