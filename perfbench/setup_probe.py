"""One set-up of a workload, timed from the outside by run.py for setup_s.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Imports netoco, resolves the workload's configs, validates every scenario
(which parses its dataset, if any) and prints "ready".
"""

import sys

from workloads import import_netoco, scenario_configs


def main(workload: str, seed: str) -> None:
    api = import_netoco()
    for config in scenario_configs(api, workload, int(seed)):
        failures = api.validate_scenario(config)
        if failures:
            raise SystemExit(f"error: {config.name} is invalid: {'; '.join(failures)}")
    print("ready", flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:])
