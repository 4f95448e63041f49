"""Write perfbench/goldens.json: the output digests every benchmark run checks.

    python3 perfbench/make_goldens.py

Runs every workload at the default and the held-out seed with one worker and
records the digests of its results.csv rows, config.resolved and figure
files.  The goldens pin the bytes of the code they were made from, so a
change that only claims speed must reproduce them.  The script will not
overwrite an existing file: regenerating goldens to make a check pass would
defeat them.
"""

import json
import os
import platform
import shutil
import sys

from golden import GOLDEN_PATH
from run import ROOT, WORK_DIR, import_ecasim, run_batch
from workloads import DEFAULT_SEED, HELD_OUT_SEED, SEEDS_PER_SWEEP, WORKLOADS


def make_goldens() -> dict:
    out = {}
    for workload in WORKLOADS.values():
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            batch = run_batch(workload.configs(seed), 1)
            if batch.errors or None in batch.records.values():
                raise SystemExit(f"{workload.name} seed {seed} failed: "
                                 f"{batch.errors}")
            out.setdefault(workload.name, {})[str(seed)] = batch.records
            print(f"{workload.name} seed {seed}: {batch.wall_s:.2f} s",
                  file=sys.stderr)
    return out


def main() -> int:
    if GOLDEN_PATH.exists():
        print(f"{GOLDEN_PATH} exists; goldens are never regenerated in place",
              file=sys.stderr)
        return 1
    import_ecasim(ROOT)
    run_dir = WORK_DIR / "goldens"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    home = os.getcwd()
    os.chdir(run_dir)
    try:
        workloads = make_goldens()
    finally:
        os.chdir(home)
        shutil.rmtree(run_dir, ignore_errors=True)
    GOLDEN_PATH.write_text(json.dumps({
        "python": platform.python_version(),
        "seeds_per_sweep": SEEDS_PER_SWEEP,
        "workloads": workloads,
    }, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
