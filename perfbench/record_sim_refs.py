"""Record the simulated-outcome reference of each workload for given seeds.

Run from the repository root after a change that is meant to alter the
cost model (and only then):

    python3 perfbench/record_sim_refs.py --seeds 0-23,1009 [--workload NAME]

Each (workload, seed) pair is set up and runs one unit of work; what it
simulated is written to ``perfbench/sim_refs.json``, which the
benchmark's ``sim_seconds`` check compares against: simulated seconds
on embed-* and ingest-rmat, and on serve-rw the warm-up's simulated
seconds plus the first replay's served / shed / deadline-exceeded
counts, simulated finish time and stale rows.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--workload", choices=workloads.NAMES, action="append")
    args = parser.parse_args()
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    refs = workloads.load_sim_refs()
    for name in args.workload or workloads.NAMES:
        for seed in parse_seeds(args.seeds):
            workload = workloads.make(name, out)
            try:
                workload.setup(seed)
                workload.unit(0)
                value = workload.sim_value()
            finally:
                workload.teardown()
            refs.setdefault(name, {})[str(seed)] = value
            print(name, seed, value, flush=True)
            with open(workloads.SIM_REFS, "w", encoding="utf-8") as handle:
                json.dump(refs, handle, indent=1, sort_keys=True)
                handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
