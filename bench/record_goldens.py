"""Record golden outputs for the benchmark's inputs.

    python3 bench/record_goldens.py --workload solve --seeds 0-49,1000003

Run it only at a commit whose outputs are the reference.  Goldens are
keyed by a digest of each instance's inputs, so the fixed instances are
recorded once and each seed adds only its seeded ones.  Each recorded
seed also stores the digest of its whole input list, so that a run at
that seed notices inputs that changed.  Inputs that already have a
golden are skipped: a recorded golden is never changed.
Instances that fail their own checks are recorded all the same and
listed by name.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def record(workload: str, seeds: list[int]) -> None:
    goldens = run.load_goldens(workload)
    outputs = goldens["outputs"]
    failures, added = [], 0
    for seed in seeds:
        _, _, instances = run.setup(workload, seed)
        digest = workloads.inputs_digest(instances)
        recorded = goldens["seeds"].setdefault(str(seed), digest)
        if recorded != digest:
            raise SystemExit(f"{workload} seed {seed}: inputs {digest}, recorded {recorded}; "
                             "recorded goldens are never changed")
        for inst in instances:
            if inst.key in outputs:
                continue
            output, problems = run.run_instance(inst)
            if problems:
                failures.append(f"{inst.name} (seed {seed}): {'; '.join(problems)}")
            outputs[inst.key] = {"name": inst.name, "output": workloads.output_digest(output)}
            added += 1
        print(f"{workload} seed {seed}: {len(outputs)} goldens", flush=True)
    for line in failures:
        print(f"FAILED at recording: {line}")
    run.GOLDENS.mkdir(exist_ok=True)
    path = run.GOLDENS / f"{workload}.json"
    path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"{path}: {added} added")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=run.WORKLOADS, action="append", required=True)
    ap.add_argument("--seeds", required=True, help="comma-separated seeds and ranges, e.g. 0-9,42")
    args = ap.parse_args()
    if not run.use_checkout_src():
        print(f"no equifix package under {run.SRC}", file=sys.stderr)
        return 2
    for workload in args.workload:
        record(workload, parse_seeds(args.seeds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
