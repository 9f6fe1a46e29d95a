"""Command line interface.

Subcommands::

    glset run <config>      execute the jobs of a configuration file
    glset selftest          run the acceptance battery (exit 2 on failure)
    glset grammar           print the functional expression grammar

``GLSET_THREADS`` caps the number of chunk workers; results are identical
for any worker count.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .expressions import GRAMMAR


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="glset",
        description="Monte Carlo surface measures on level sets of "
                    "functionals of Gaussian models")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configuration file")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--output", type=Path, default=None,
                       help="override the config's output directory")

    p_self = sub.add_parser("selftest", help="run the acceptance battery")
    p_self.add_argument("--output", type=Path, default=None,
                        help="also write a JSON report here")

    sub.add_parser("grammar", help="print the expression grammar")

    args = parser.parse_args(argv)
    if args.command == "grammar":
        print(GRAMMAR, end="")
        return 0
    if args.command == "run":
        from .config import ConfigError, parse_config
        from .runner import run

        try:
            text = args.config.read_text()
        except OSError as e:
            print(f"cannot read {args.config}: {e}", file=sys.stderr)
            return 1
        try:
            config = parse_config(text)
        except ConfigError as e:
            for issue in e.issues:
                print(str(issue), file=sys.stderr)
            return 1
        return run(config, output_dir=args.output)
    if args.command == "selftest":
        from .runner import selftest_runtimes, write_json, write_selftest
        from .selftest import run_acceptance

        results = run_acceptance(verbose=True)
        if args.output is not None:
            args.output.mkdir(parents=True, exist_ok=True)
            write_selftest(args.output / "selftest", results)
            write_json(args.output / "manifest.json",
                       {"files": ["selftest.json"],
                        "runtime_s": {"selftest": selftest_runtimes(results)}})
        return 0 if all(r.passed for r in results) else 2
    return 1


if __name__ == "__main__":
    sys.exit(main())
