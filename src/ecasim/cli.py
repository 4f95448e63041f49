"""Command line entry points.

    ecasim run --config sweep.cfg [--override key=value ...]
    ecasim validate --config sweep.cfg
    ecasim figures --results out/results.csv --fig 1 [--fig 2 ...] --out plots/

Exit codes: 0 on success, 1 for configuration problems, 2 when a run died on
an internal consistency fault (partial results are preserved).
"""

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, ConsistencyError
from .figures import emit_figure_data, figure_filename
from .sweep import (RESULTS_NAME, ECHO_NAME, load_results, make_dir,
                    parse_config_with_overrides, run_sweep, write_text)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_FAULT = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecasim",
        description="CSMA/CA vs CSMA/ECA contention simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("run", "run a sweep described by a config file"),
                       ("validate", "check a config and echo it resolved")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="key = value sweep file")
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a config value; repeatable")

    p_fig = sub.add_parser("figures", help="emit plot data from a results CSV")
    p_fig.add_argument("--results", required=True, help="path to results.csv")
    p_fig.add_argument("--fig", required=True, type=int, action="append",
                       help="figure number 1-7; repeatable")
    p_fig.add_argument("--out", required=True, help="directory for the .dat file")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "figures":
            table = load_results(args.results)
            # every figure renders, or fails, before any file is written
            texts = [(fig, emit_figure_data(table, fig)) for fig in args.fig]
            out = make_dir(args.out)
            for fig, text in texts:
                target = out / figure_filename(fig)
                write_text(target, text)
                print(f"figure data: {target}")
            return EXIT_OK

        spec = parse_config_with_overrides(args.config, args.override)
        if args.command == "validate":
            sys.stdout.write(spec.resolved_text())
            return EXIT_OK

        out = Path(spec.output_dir)
        try:
            run_sweep(spec)
        except ConsistencyError as exc:
            print(f"internal consistency fault: {exc}", file=sys.stderr)
            print(f"partial results kept in {out / RESULTS_NAME}",
                  file=sys.stderr)
            return EXIT_FAULT
        print(f"results: {out / RESULTS_NAME}")
        print(f"resolved config: {out / ECHO_NAME}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
