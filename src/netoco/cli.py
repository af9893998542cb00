"""Command-line front end: run scenarios, list presets, validate configs."""

from __future__ import annotations

import argparse
import sys

from .bench import (
    ConfigError,
    ScenarioError,
    list_presets,
    load_config,
    preset_config,
    run_suite,
    validate_scenario,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netoco",
        description="Networked online convex optimization benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario from a config file or preset")
    run.add_argument("config", nargs="?", help="scenario file (INI)")
    run.add_argument("--preset", help="preset name (see `netoco presets`)")
    run.add_argument("--seed-count", type=int, help="replace the seed list with 1..k")
    run.add_argument("--horizon", type=int, help="override the horizon T")
    run.add_argument("--out", help="output directory for CSV files")
    run.add_argument(
        "--workers", type=int, help="accepted for old scripts; seeds always run as one batch"
    )

    sub.add_parser("presets", help="list preset names")

    validate = sub.add_parser("validate", help="check a scenario file without running it")
    validate.add_argument("config", help="scenario file (INI)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "presets":
            for name in list_presets():
                print(name)
            return 0
        if args.command == "validate":
            config = load_config(args.config)
            failures = validate_scenario(config)
            for failure in failures:
                print(f"fail: {failure}", file=sys.stderr)
            if failures:
                return 2
            print(f"ok: {config.name}")
            return 0
        # run
        if (args.config is None) == (args.preset is None):
            print("run needs a config file or --preset (not both)", file=sys.stderr)
            return 2
        overrides = {"seed_count": args.seed_count, "horizon": args.horizon, "workers": args.workers}
        if args.preset is not None:
            config = preset_config(args.preset, **overrides)
        else:
            config = load_config(args.config, **overrides)
        result = run_suite(config, out_dir=args.out)
        final = result.checkpoints[-1]
        print(f"{result.name}: T={final} seeds={len(result.seed_results)}")
        print(
            f"  mean sreg={result.mean.sreg[-1]:.6g} "
            f"cacv={result.mean.cacv[-1]:.6g} "
            f"comm={int(result.mean.comm_cost[-1])}"
        )
        print(f"  wrote {result.csv_path}")
        return 0
    except (ConfigError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
