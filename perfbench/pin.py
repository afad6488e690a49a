"""Regenerate ``pins.json``: the report_hash of every workload group per seed.

    python3 perfbench/pin.py               # full scale, seeds 0-63
    python3 perfbench/pin.py --scale tiny  # the tests' seed 7

Each seed runs once per pin group (E2, and one-shard forwarding — the
two-shard run must reproduce the one-shard hash) through the same
``worker.py`` calls the benchmark times.  Every group of the scale is
rewritten; a seed whose call fails its checks is reported and left
unpinned, and a changed pin is printed, so a PR that moves the physics
shows which hashes it moved.
"""

from __future__ import annotations

import argparse
import json
import sys

import worker
from run import PINS, prepare

GROUP_WORKLOAD = {"e2": "e2_capture", "fwd": "fwd_1shard"}
#: The pinned seeds per scale: the tests use only tiny seed 7.
SEEDS = {"full": range(64), "tiny": (7,)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", choices=sorted(SEEDS), default="full")
    args = parser.parse_args()
    table = json.loads(PINS.read_text(encoding="utf-8"))
    suffix = "" if args.scale == "full" else f"-{args.scale}"
    prepare(list(GROUP_WORKLOAD.values()))
    failed = 0
    for group, workload in GROUP_WORKLOAD.items():
        old_pins = table.get(group + suffix, {})
        pins = table[group + suffix] = {}
        for seed in SEEDS[args.scale]:
            spec = {"workload": workload, "seed": seed, "scale": args.scale}
            result = worker.call(spec, timeout=300.0)
            problems = [result.get("error")] if not result.get("ok") else result["check_errors"]
            if problems:
                failed += 1
                print(f"{group} seed {seed}: NOT PINNED: {problems}", file=sys.stderr)
                continue
            old = old_pins.get(str(seed))
            if old is not None and old != result["hash"]:
                print(f"{group} seed {seed}: pin moved {old[:16]} -> {result['hash'][:16]}")
            pins[str(seed)] = result["hash"]
            extra = f" tR={result['measured_tr_s']:.3f}" if "measured_tr_s" in result else ""
            print(f"{group}{suffix} seed {seed}: {result['hash'][:16]}{extra}", flush=True)
    PINS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
