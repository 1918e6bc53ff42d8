"""Record the reference outputs that run.py compares against.

    python3 perfbench/make_reference.py --workload NAME --seeds 0-10

Runs each seed's commands once, untimed, in a fresh child, and refuses to
store a seed whose outputs already fail the checks that apply to seeds
without a reference (non-zero exit, a failing check, a bad witness).
Re-record only when a change is meant to alter the program's output.
"""

from __future__ import annotations

import argparse
import sys
import time

import outputs
import run
import workloads


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="e.g. 0-10 or 0,3,7")
    args = parser.parse_args(argv)
    entries = {}
    for seed in args.seeds:
        work = run.ROOT / ".bench_build" / "perfbench" / f"ref-{args.workload}"
        work.mkdir(parents=True, exist_ok=True)
        corpus = work / f"corpus-{seed}"
        if args.workload == "analyze-sparse":
            workloads.write_corpus(seed, corpus)
        commands = workloads.commands(args.workload, seed, corpus)
        rep = run.run_child("plain", args.workload, seed, work, corpus,
                            time.monotonic() + 3600)
        for command, result in zip(commands, rep["commands"]):
            _, failed = outputs.judge(args.workload, command, result, None)
            if failed:
                print(f"error: seed {seed} fails without a reference: "
                      f"{command.argv}", file=sys.stderr)
                return 1
        entries[seed] = [outputs.reference_entry(args.workload, result)
                         for result in rep["commands"]]
        print(f"seed {seed}: {len(entries[seed])} commands", file=sys.stderr)
    existing = outputs.read_reference(outputs.REFERENCE_DIR, args.workload)
    existing.update(entries)
    outputs.write_reference(outputs.REFERENCE_DIR, args.workload, existing)
    return 0


if __name__ == "__main__":
    sys.exit(main())
