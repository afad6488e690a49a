"""Shared helpers for the benchmark/reproduction harness.

Every bench follows the same pattern: run the experiment once under
``benchmark.pedantic`` (so ``pytest benchmarks/ --benchmark-only``
times it), print the paper-style table/series to stdout, assert the
*shape* of the paper's result (who wins, by roughly what factor), and
stash the headline numbers into ``benchmark.extra_info`` so they land
in the benchmark JSON.

``run_once`` additionally activates a :class:`repro.obs.Tracer` around
the timed call and stashes its roll-up (event counts per kind, span
totals) under ``extra_info["trace"]`` — so the benchmark JSON records
not just how long a reproduction took but what it did.  Emission on
the instrumented paths is rare enough that this does not perturb the
timings (the fig2 bench guards this with its <5 % wall-time bound).

Perf-gate additions
-------------------
``--backend {python,numpy}`` selects the kernel backend benches run
against (default: ``$REPRO_BACKEND``, then python) via the
``kernel_backend`` fixture.  Benches that participate in the
regression gate call :func:`bench_record` with their headline timing;
``--bench-json NAME`` then writes every record to ``BENCH_<NAME>.json``
(or to the literal path when NAME ends in ``.json``) at session end,
in the schema ``tools/bench_compare.py`` consumes.

``--metrics`` additionally activates a fresh
:class:`repro.obs.metrics.MetricRegistry` *inside* the timed region of
every ``run_once``, so a metrics-on bench JSON can be diffed against a
metrics-off one with ``bench_compare --metrics-budget`` — the CI gate
holding instrumentation overhead under 3 %.  Each record exports
``extra_info["metrics_enabled"]`` so the comparison is self-describing.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.obs import MetricRegistry, Tracer, activate
from repro.obs import metrics as obs_metrics

#: Whether --metrics was passed: run_once meters its timed region.
_METRICS_ON = False

#: Bench records for this session, keyed ``"<name>:<backend>"``.
_RECORDS = {}


def pytest_addoption(parser):
    group = parser.getgroup("repro benchmarks")
    group.addoption(
        "--backend",
        action="store",
        default=None,
        choices=("python", "numpy"),
        help="kernel backend for backend-aware benches "
        "(default: $REPRO_BACKEND, then python)",
    )
    group.addoption(
        "--shards",
        action="store",
        type=int,
        default=None,
        metavar="N",
        help="shard-worker count for shard-aware benches "
        "(default: $REPRO_SHARDS, then 1)",
    )
    group.addoption(
        "--bench-json",
        action="store",
        default=None,
        metavar="NAME",
        help="write bench records to BENCH_<NAME>.json "
        "(a literal path when NAME ends in .json)",
    )
    group.addoption(
        "--metrics",
        action="store_true",
        default=False,
        help="activate a MetricRegistry inside every timed region "
        "(for the bench_compare --metrics-budget overhead gate)",
    )


def pytest_configure(config):
    global _METRICS_ON
    _METRICS_ON = bool(config.getoption("--metrics"))


@pytest.fixture
def kernel_backend(request) -> str:
    """The resolved kernel backend name for this bench session."""
    from repro.kernels import resolve_backend_name

    return resolve_backend_name(request.config.getoption("--backend"))


@pytest.fixture
def shard_count(request) -> int:
    """The resolved shard-worker count for this bench session."""
    from repro.netsim.sharded import resolve_shard_count

    return resolve_shard_count(request.config.getoption("--shards"))


def run_once(benchmark, fn, *args, **kwargs):
    """Execute ``fn`` exactly once under the benchmark timer, traced.

    The measured wall time also lands in
    ``benchmark.extra_info["wall_seconds"]`` so benches can feed it to
    :func:`bench_record` without re-timing.
    """
    tracer = Tracer()
    registry = MetricRegistry() if _METRICS_ON else None

    def traced(*call_args, **call_kwargs):
        started = time.perf_counter()
        if registry is not None:
            with activate(tracer), obs_metrics.activate(registry):
                result = fn(*call_args, **call_kwargs)
        else:
            with activate(tracer):
                result = fn(*call_args, **call_kwargs)
        benchmark.extra_info["wall_seconds"] = time.perf_counter() - started
        return result

    result = benchmark.pedantic(traced, args=args, kwargs=kwargs, rounds=1, iterations=1)
    benchmark.extra_info["trace"] = tracer.summary()
    benchmark.extra_info["metrics_enabled"] = _METRICS_ON
    if registry is not None:
        benchmark.extra_info["metric_names"] = len(registry)
    return result


def bench_record(benchmark, *, name, backend, trials, wall_seconds):
    """Register one gated measurement for the ``--bench-json`` export.

    ``trials`` is the unit of throughput (simulation runs, bloom ops,
    ...); ``wall_seconds`` is whatever the bench considers its honest
    timing (typically best-of-N reps, to keep single-core CI noise out
    of the gate).  ``benchmark.extra_info`` is captured by reference,
    so headline numbers added after this call still export.
    """
    if wall_seconds <= 0:
        raise ValueError(f"wall_seconds must be positive, got {wall_seconds}")
    _RECORDS[f"{name}:{backend}"] = {
        "name": name,
        "backend": backend,
        "trials": trials,
        "wall_seconds": wall_seconds,
        "trials_per_second": trials / wall_seconds,
        "extra_info": benchmark.extra_info,
    }


def pytest_sessionfinish(session, exitstatus):
    target = session.config.getoption("--bench-json")
    if not target or not _RECORDS:
        return
    path = target if target.endswith(".json") else f"BENCH_{target}.json"
    benches = {}
    for key, record in sorted(_RECORDS.items()):
        extra = {
            k: v
            for k, v in record["extra_info"].items()
            if isinstance(v, (int, float, str, bool)) and k != "wall_seconds"
        }
        benches[key] = {
            "name": record["name"],
            "backend": record["backend"],
            "trials": record["trials"],
            "wall_seconds": record["wall_seconds"],
            "trials_per_second": record["trials_per_second"],
            "extra_info": extra,
        }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"schema": 1, "benches": benches}, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nbench records written to {path}")


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
