"""Fixed operation lists of the three benchmark workloads.

Every operation is a ``pathcrystals`` command line, given as an argv list.
The lists are plain data: nothing here calls into the program, so building
them never warms one of its caches before the timed region.  The seed only
reorders the sweep and seeds ``selftest``.
"""

from __future__ import annotations

import random

TYPES = (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("G", 2), ("F", 4),
)

# ROADMAP headliners, largest first.
VERIFY_LARGE = (
    ("F", 4, (0, 0, 0, 2)),
    ("B", 4, (0, 0, 0, 2)),
    ("G", 2, (0, 3)),
)

# Every nonzero dominant weight of the 13 types whose level-zero crystal has
# at most 100 nodes.  The crystal size is the product of the fundamental
# crystal sizes raised to the coefficients, which bounds the coefficient sum
# at 2 on rank 4 and at 3 to 6 on the small ranks.  The weights in
# SWEEP_FAILING also have at most 100 nodes but are left out.
VERIFY_SWEEP = (
    ("A", 1, ((1,), (2,), (3,), (4,), (5,), (6,))),
    ("A", 2, ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2),
              (0, 3), (4, 0), (3, 1), (2, 2), (1, 3), (0, 4))),
    ("A", 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0), (1, 0, 1),
              (0, 2, 0), (0, 1, 1), (0, 0, 2), (3, 0, 0), (2, 1, 0), (2, 0, 1),
              (1, 1, 1), (1, 0, 2), (0, 1, 2), (0, 0, 3))),
    ("A", 4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
              (2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1),
              (0, 2, 0, 0), (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 2, 0),
              (0, 0, 1, 1), (0, 0, 0, 2))),
    ("B", 2, ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (1, 2), (0, 3))),
    ("B", 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 0, 1), (0, 0, 2))),
    ("B", 4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
              (2, 0, 0, 0))),
    ("C", 2, ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1))),
    ("C", 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0), (1, 0, 1))),
    ("C", 4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
              (2, 0, 0, 0))),
    ("D", 4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
              (2, 0, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (0, 0, 2, 0),
              (0, 0, 1, 1), (0, 0, 0, 2))),
    ("G", 2, ((1, 0), (0, 1), (0, 2))),
    ("F", 4, ((1, 0, 0, 0), (0, 0, 0, 1))),
)

# Weights of at most 100 nodes whose `verify` exits 2 ("declared offset
# generator was never attained"); a workload must not contain an operation
# that fails.  test_perfbench checks that they still fail, so the change that
# fixes them has to move them into VERIFY_SWEEP and re-record the goldens.
SWEEP_FAILING = (
    ("B", 2, (2, 1)),
    ("C", 2, (1, 2)),
)

# (type, rank, weight) per export; A4 (1,1,1,1) alone prints about 2.4 MB.
CRYSTAL_EXPORTS = (
    ("A", 4, (1, 1, 1, 1)),
    ("C", 3, (1, 1, 1)),
    ("D", 4, (0, 2, 0, 0)),
)
DEMAZURE_RESTRICTS = (
    ("A", 4, (1, 1, 1, 1)),
    ("F", 4, (0, 0, 1, 0)),
    ("D", 4, (1, 0, 1, 1)),
)

WORKLOADS = ("verify-large", "verify-sweep", "crystal-kernel")


def _weight(coeffs) -> str:
    return ",".join(str(c) for c in coeffs)


def _verify(letter, rank, coeffs):
    argv = ["verify", "--type", letter, "--rank", str(rank), "--weight", _weight(coeffs)]
    return " ".join(argv), argv


def operations(workload: str, seed: int) -> list:
    """The workload's operations as (golden id, argv) pairs, in run order.

    The golden id is the argv without the seed, because no output depends
    on it."""
    if workload == "verify-large":
        return [_verify(*case) for case in VERIFY_LARGE]
    if workload == "verify-sweep":
        ops = [_verify(letter, rank, coeffs)
               for letter, rank, weights in VERIFY_SWEEP for coeffs in weights]
        random.Random(seed).shuffle(ops)
        return ops
    if workload == "crystal-kernel":
        ops = []
        for letter, rank, coeffs in CRYSTAL_EXPORTS:
            argv = ["crystal", "--type", letter, "--rank", str(rank),
                    "--weight", _weight(coeffs), "--format", "json"]
            ops.append((" ".join(argv), argv))
        for letter, rank, coeffs in DEMAZURE_RESTRICTS:
            argv = ["demazure", "--type", letter, "--rank", str(rank),
                    "--weight", _weight(coeffs), "--level", "1", "--restrict"]
            ops.append((" ".join(argv), argv))
        for letter, rank in TYPES:
            argv = ["selftest", "--type", letter, "--rank", str(rank)]
            ops.append((" ".join(argv), argv + ["--seed", str(seed)]))
        return ops
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def types_used(workload: str) -> list:
    """(letter, rank) of every root system the workload touches, sorted."""
    found = set()
    for _, argv in operations(workload, 0):
        found.add((argv[argv.index("--type") + 1], int(argv[argv.index("--rank") + 1])))
    return sorted(found)
