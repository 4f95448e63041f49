"""Run every workload untraced and traced and print all metrics in one table.

    python3 perfbench/report.py [--seed 1] [--seconds 25]

Each run is a separate `perfbench/run.py` process, so peak RSS and import
state never carry from one workload to the next.  Exits non-zero if any run
fails its output checks.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args(argv)
    all_correct = True
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(RUN), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.splitlines()[-1])
            all_correct &= result["correct"]
            print(f"{name} trace={trace} correct={result['correct']} "
                  f"cells={result['attempted']} failed={result['failed']} "
                  f"cell_error_rate={result['failed'] / result['attempted']!r} ratio")
            for metric, m in result["metrics"].items():
                print(f"  {metric:36s} {m['value']:<24.6g} {m['unit']}")
            sys.stdout.flush()
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
