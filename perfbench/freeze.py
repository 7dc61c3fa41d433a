#!/usr/bin/env python3
"""Freeze the report digests that ``checks.py`` compares against.

Runs every job of every round, for the default seed and the held-out seed,
and records the field digests of each job that succeeds and passes its math
check.  Jobs that fail are recorded as null and get the math check only.

    python3 perfbench/freeze.py            # from the root of a checkout

Only rerun this when a change is meant to alter report contents; the
digests exist to show that a performance change did not.
"""

import json
import os
import sys

import checks
import run
import workloads

DEFAULT_SEED = 0
HELD_OUT_SEED = 9173


def freeze(workload, seed, cli):
    rounds = run.setup(workload, seed, cli)
    client = run.Client(cli, run.Judge(workload, seed, rounds))
    frozen = [[None] * len(jobs) for jobs in rounds]
    for r in range(len(rounds)):
        pending, verdicts = client.run_round(rounds, r)
        for (j, _, _, out, _, _), verdict in zip(pending, verdicts):
            if verdict.ok:
                frozen[r][j] = checks.field_digests(json.loads(out))
    return frozen


def main():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from qprefix import cli
    with open(checks.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({}, fh)
    digests = {}
    for workload in workloads.WORKLOADS:
        digests[workload] = {str(seed): freeze(workload, seed, cli)
                             for seed in (DEFAULT_SEED, HELD_OUT_SEED)}
        print("froze", workload, flush=True)
    with open(checks.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
