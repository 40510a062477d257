"""Record the reference output digests the benchmark checks against.

    python3 perfbench/make_reference.py

Runs every workload once on the default and the held-out seed and writes
``perfbench/reference.json``.  Re-run it only when a change is meant to
alter simulated results, and say so in the change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import suite  # noqa: E402

DEFAULT_SEED = 11
HELD_OUT_SEED = 7


def main() -> int:
    digests = {}
    for name, cls in suite.WORKLOADS.items():
        workload = cls()
        try:
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                prepared = workload.prepare(seed)
                for step in workload.steps(prepared):
                    outcome = step()
                checked = workload.check(prepared, outcome)
                if checked.problems:
                    print(f"{name} seed {seed}: {checked.problems}", file=sys.stderr)
                    return 1
                digests.setdefault(name, {})[str(seed)] = checked.digest
        finally:
            workload.close()
    path = os.path.join(HERE, "reference.json")
    with open(path, "w") as fh:
        json.dump(
            {
                "default_seed": DEFAULT_SEED,
                "held_out_seed": HELD_OUT_SEED,
                "digests": digests,
            },
            fh,
            indent=2,
        )
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
