"""Record every operation's exit code and stdout digest into goldens.json.

    python3 perfbench/record_goldens.py

Run it only on a commit whose output is the reference: the benchmark
counts each later deviation from these values as a failed operation.  Every
workload runs once per seed in a fresh interpreter; the seeds must agree,
because no output depends on them.
"""

from __future__ import annotations

import json
import sys

import run
import workloads as W

SEEDS = (0, 1)


def main() -> int:
    goldens = {}
    for workload in W.WORKLOADS:
        for seed in SEEDS:
            for op in run.spawn(workload, seed)["ops"]:
                rec = {"rc": op["rc"], "sha256": op["sha256"]}
                if goldens.setdefault(op["id"], rec) != rec:
                    print(f"output of {op['id']} depends on the seed", file=sys.stderr)
                    return 1
    with open(run.GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(goldens)} operations into {run.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
