"""The command ``BENCHMARK.json`` names: one workload, one mode, one run.

``python3 benchmarks/layered/run.py --workload W --seed N --seconds S --trace 0|1``
from the root of a checkout.  Puts the checkout's ``src`` and root on the
path itself, so the command names nothing outside this directory.
"""

import os
import sys


def _main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(here))
    src = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"no program to measure: {src}/repro is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [src, root]
    from benchmarks.layered.harness import contract_main

    return contract_main()


if __name__ == "__main__":
    raise SystemExit(_main())
