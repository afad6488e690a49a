"""Benchmark entry point: ``python3 perfbench/run.py --workload <name> [options]``.

Runs one workload in a closed loop of one caller: each call is a fresh
process forked from this one (see ``worker.py``), started only after the
previous one finished.  Calls start while the next one is expected to
end within ``--seconds`` (the median call so far), with at least
``MIN_CALLS`` calls.
Every call's ``report_hash`` is checked against the pins in
``pins.json``; a call fails if it raised, if its hash differs from the
pin (or, for a seed without a pin, from the run's reference), or if a
workload-specific check failed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(medians over the calls); with ``--trace 1`` untraced and traced calls
alternate and it carries the per-layer metrics, the tracing overhead,
and a trace file is written to ``<out>/trace_<workload>.json``.
See ``README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = worker.SRC
PINS = HERE / "pins.json"

PIN_GROUP = {"e2_capture": "e2", "fwd_1shard": "fwd", "fwd_2shard": "fwd"}
MIN_CALLS = 3
MIN_TRACE_PAIRS = 1
#: Every run must end within 180 s: no call starts after this, and a
#: call's timeout never reaches past it.
RUN_DEADLINE_S = 165.0
CALL_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "pkts_per_s": "pkt/s",
    "peak_rss_mb": "MB",
}


def pin_environment() -> None:
    """No REPRO_* knob but the scheduler, before the program is imported."""
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_SCHEDULER"] = "calendar"


def prepare(workloads: List[str]) -> None:
    """Pin the environment and import the program; exits 2 without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        sys.exit(2)
    pin_environment()
    for workload in workloads:
        worker.load_program(workload)


def host_fingerprint() -> Dict[str, object]:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    import numpy  # after the calls, so no call inherits it

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "scheduler": "calendar",
    }


def load_pins(path: Path, group: str) -> Dict[int, str]:
    with open(path, encoding="utf-8") as handle:
        table = json.load(handle)
    return {int(seed): digest for seed, digest in table.get(group, {}).items()}


def verify(calls: List[dict], expected: Optional[str]) -> None:
    """Mark each call ``failed`` (with a reason) in place.

    ``expected`` is the pinned hash; without one the first completed
    call's hash is the run's reference, so every fresh process must
    agree with it.
    """
    reference = expected
    for call in calls:
        reasons = []
        if not call.get("ok"):
            reasons.append(call.get("error", "call failed"))
        else:
            reasons.extend(call.get("check_errors", []))
            if reference is None:
                reference = call["hash"]
            if call["hash"] != reference:
                reasons.append(f"report_hash {call['hash'][:16]} != {reference[:16]}")
        call["failed"] = bool(reasons)
        call["reasons"] = reasons


def _median(values: List[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def end_to_end(calls: List[dict]) -> Dict[str, Optional[float]]:
    """Medians over the calls that returned figures (failed ones included)."""
    done = [c for c in calls if c.get("ok")]
    rates = [
        c["packets"] / (c["wall_s"] - c["setup_s"])
        for c in done
        if c["wall_s"] > c["setup_s"]
    ]
    return {
        "wall_s": _median([c["wall_s"] for c in done]),
        "setup_s": _median([c["setup_s"] for c in done]),
        "pkts_per_s": _median(rates),
        "peak_rss_mb": _median([c["peak_rss_mb"] for c in done]),
    }


def host_figures(calls: List[dict]) -> Dict[str, Optional[float]]:
    """The unscaled host seconds and the probe's scales, medians over the
    calls: printed and recorded beside the metrics, not part of them."""
    done = [c for c in calls if c.get("ok")]
    return {
        name: _median([c[name] for c in done])
        for name in ("host_wall_s", "host_setup_s", "setup_scale", "sim_scale")
    }


def per_layer(traced: List[dict], untraced: List[dict]) -> Dict[str, Optional[float]]:
    """Medians of each per-layer metric, plus the tracing overhead."""
    done = [c for c in traced if c.get("ok")]
    names = list(done[0]["layers"]) if done else []
    metrics = {name: _median([c["layers"][name] for c in done]) for name in names}
    traced_wall = _median([c["wall_s"] for c in done])
    plain_wall = _median([c["wall_s"] for c in untraced if c.get("ok")])
    metrics["tracing.traced_wall_s"] = traced_wall
    metrics["tracing.untraced_wall_s"] = plain_wall
    metrics["tracing.overhead_s"] = (
        traced_wall - plain_wall if traced_wall is not None and plain_wall is not None
        else None
    )
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_per_pkt", "_imbalance")):
        return "ratio"
    return "count"


def default_seconds() -> float:
    """``run_seconds`` of ``BENCHMARK.json``, the run length the benchmark is made for."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return float(json.load(handle)["run_seconds"])


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=default_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny is for the benchmark's own tests only")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    return parser.parse_args(argv)


def run_calls(args: argparse.Namespace, spec: dict) -> tuple:
    """The closed loop: returns (untraced calls, traced calls, hash, note)."""
    started = time.monotonic()

    def timeout() -> float:
        return min(CALL_TIMEOUT_S, max(RUN_DEADLINE_S - (time.monotonic() - started), 1.0))

    group = PIN_GROUP[args.workload] + ("" if args.scale == "full" else f"-{args.scale}")
    expected = load_pins(PINS, group).get(args.seed)
    note = "pinned" if expected else "first call"
    untraced: List[dict] = []
    if expected is None and args.workload == "fwd_2shard":
        # No pin for this seed: the 2-shard physics must equal 1 shard's.
        reference = worker.call({**spec, "workload": "fwd_1shard"}, timeout())
        if reference.get("ok"):
            expected, note = reference["hash"], "fwd_1shard call"
        else:
            untraced.append(reference)  # an unverifiable run counts as failed

    traced: List[dict] = []
    rounds: List[float] = []  # host seconds per loop round, fork to exit
    while True:
        round_started = time.monotonic()
        untraced.append(worker.call(spec, timeout()))
        if args.trace:
            traced.append(worker.call({**spec, "trace": True}, timeout()))
        rounds.append(time.monotonic() - round_started)
        elapsed = time.monotonic() - started
        enough = len(rounds) >= (MIN_TRACE_PAIRS if args.trace else MIN_CALLS)
        if enough and elapsed + statistics.median(rounds) > args.seconds:
            break
        if elapsed >= RUN_DEADLINE_S:
            break
    return untraced, traced, expected, note


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    # fwd_2shard's reference call is fwd_1shard: the same modules.
    prepare([args.workload])
    spec = {"workload": args.workload, "seed": args.seed, "scale": args.scale}
    untraced, traced, expected, note = run_calls(args, spec)
    calls = untraced + traced
    verify(calls, expected)
    failed = sum(1 for c in calls if c["failed"])
    attempted = len(calls)
    fingerprint = host_fingerprint()
    if args.trace:
        metrics = per_layer(traced, untraced)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(untraced)
        units = END_TO_END_UNITS

    host = host_figures(untraced)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "host": fingerprint,
        "hash_reference": note,
        "metrics": metrics,
        "host_figures": host,
        "calls": [{k: v for k, v in c.items() if k != "ledger"} for c in calls],
    }
    if args.trace:
        record["ledgers"] = [c.get("ledger") for c in traced]
    args.out.mkdir(parents=True, exist_ok=True)
    name = f"{'trace' if args.trace else 'result'}_{args.workload}.json"
    with open(args.out / name, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")

    print(f"perfbench {args.workload} seed={args.seed} scale={args.scale} "
          f"trace={args.trace}: {attempted} calls, {failed} failed "
          f"(hash reference: {note})")
    for metric, value in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {metric:32s} {shown:>14s} {units[metric]}")
    print(f"  {'error_rate':32s} {failed / attempted:14.6g} ratio ({failed}/{attempted})")
    for name, value in host.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  ({name:30s} {shown:>14s}{' s' if name.endswith('_s') else ''})")
    for call in calls:
        for reason in call["reasons"]:
            print(f"  FAILED: {reason.strip().splitlines()[-1]}")
    print("host: " + json.dumps(fingerprint, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
