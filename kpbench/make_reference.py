"""Regenerate reference.json: output digests of the first instances of each
workload, for a range of workload seeds.

    python3 kpbench/make_reference.py

Run it only in a change that is meant to alter solver outputs, and say so
in that change; a speed-up must pass against the committed file.
"""

from __future__ import annotations

import itertools
import json

from pipeline import (REFERENCE_PATH, WORKLOADS, check, digest,
                      instance_seeds, run_instance)

SEEDS = range(32)
INSTANCES = 16


def main() -> None:
    digests = {}
    for w in WORKLOADS.values():
        digests[w.name] = {}
        for seed in SEEDS:
            row = []
            for inst_seed in itertools.islice(instance_seeds(seed), INSTANCES):
                out = run_instance(w, inst_seed)
                problems = check(out)
                if problems:
                    raise SystemExit(f"{w.name} seed {seed}: {problems}")
                row.append(digest(out))
            digests[w.name][str(seed)] = " ".join(row)
    with open(REFERENCE_PATH, "w") as f:
        json.dump({"seeds": [SEEDS.start, SEEDS.stop - 1],
                   "instances": INSTANCES, "digests": digests}, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
