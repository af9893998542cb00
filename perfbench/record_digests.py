"""Record the SHA-256 of every CSV each workload writes into digests.json.

Usage (from the repository root):

    python3 perfbench/record_digests.py

Runs one pass of every workload for each workload seed in RECORDED_SEEDS and
replaces digests.json with their digests and the numpy version. Run it only
on a commit whose CSV output is known to be right: run.py counts every later
difference as a failed scenario.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import RECORDED_SEEDS, WORKLOADS, import_netoco, scenario_configs


def main() -> int:
    api = import_netoco()
    import numpy as np

    table = {"numpy": np.__version__, "workloads": {}}
    with run.output_dir("record") as out_dir:
        for workload in WORKLOADS:
            by_seed = table["workloads"][workload] = {}
            for seed in RECORDED_SEEDS:
                result = run.run_pass(api, scenario_configs(api, workload, seed), out_dir)
                if result.errors:
                    raise SystemExit("".join(result.errors.values()))
                by_seed[str(seed)] = result.digests
                print(f"{workload} seed {seed}: {len(result.digests)} CSVs", flush=True)
    run.DIGESTS_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
