"""Record the output sha256 of every workload for seeds 0-19 in reference.json.

    python3 bench/record_references.py

Run it only when the outputs are meant to change (a fix to what the program
writes, or new benchmark inputs), and say so with the change: from then on a
benchmark run fails every pass whose output differs from what this records.
Each output is checked for its invariants before its digest is kept.
"""
from __future__ import annotations

import json
import sys

from run import BENCH, ROOT, load_package

SEEDS = range(20)


def main() -> int:
    load_package()
    from workloads import WORKLOADS

    path = BENCH / "reference.json"
    with open(path) as f:
        record = json.load(f)
    digests = {}
    for name, workload in WORKLOADS.items():
        digests[name] = {}
        for seed in SEEDS:
            workdir = ROOT / ".bench_out" / "references" / f"{name}-seed{seed}"
            workdir.mkdir(parents=True, exist_ok=True)
            state = workload.setup(seed, str(workdir))
            workload.clear(state)
            output = workload.run(state)
            problems = workload.check(state, output)
            if problems:
                print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            digests[name][str(seed)] = workload.digest(state, output)
            print(name, seed, digests[name][str(seed)], flush=True)
    record["output_sha256"] = digests
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
