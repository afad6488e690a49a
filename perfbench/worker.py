"""One benchmark call, in a fresh process forked for it.

``load_program`` imports the program from the checkout's ``src/`` once,
in the benchmark's own process; ``call`` then forks a child per call, so
each call starts from the same just-imported state and pays no import
time.  The child makes one call and sends back one JSON object with
the call's figures:

* ``host_wall_s`` — host seconds from the first input-building step to
  a hashed report;
* ``host_setup_s`` — host seconds from that first step to the first
  ``EventLoop.run_until`` call in any process of the call (the call
  itself, or a forked shard worker on its first window): input/spec
  generation, topology, routing tables, flow scheduling, shard-state
  build, the fork and the flow streaming to the shards.  Everything
  after it — including E2's report folding and forwarding's delivery
  hash — is the simulation phase;
* ``setup_s`` / ``wall_s`` — the same two intervals at the reference
  host speed: each phase's host seconds times the host's speed during
  that phase, as ``SpeedProbe`` measured it (see there);
* ``peak_rss_mb`` — the larger of the child's and any forked shard
  worker's peak resident set.

A call whose workload runs in one process is pinned to one CPU, so the
probe measures the core the call runs on.
"""

from __future__ import annotations

import json
import mmap
import os
import resource
import select
import signal
import statistics
import struct
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def load_program(workload: str) -> None:
    """Import the program under test from ``src/``: the modules the
    workload's entry point needs and nothing more, so a call's memory
    and garbage-collector load match a process that imported it alone."""
    import importlib

    import workloads

    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise ImportError(f"imported repro from {repro.__file__}, not {SRC}")
    for module in workloads.ENTRY_MODULES[workload]:
        importlib.import_module(module)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


class SimStart:
    """The host time of the first ``EventLoop.run_until`` call.

    One coarse hook, in traced and untraced calls alike.  The time is
    kept in an anonymous shared mapping, so forked shard workers record
    into the same cell; ``perf_counter`` is the system-wide monotonic
    clock, so their readings compare with the call's own.
    """

    def __init__(self) -> None:
        self._cell = mmap.mmap(-1, 8)  # MAP_SHARED: survives fork

    def install(self) -> None:
        from repro.netsim import events

        run_until = events.EventLoop.run_until
        cell = self._cell

        def hooked(loop, *args, **kwargs):
            now = time.perf_counter()
            (first,) = struct.unpack_from("d", cell)
            if first == 0.0 or now < first:
                struct.pack_into("d", cell, 0, now)
            return run_until(loop, *args, **kwargs)

        events.EventLoop.run_until = hooked

    def at(self) -> float:
        (first,) = struct.unpack_from("d", self._cell)
        if first == 0.0:
            raise RuntimeError("the call never reached EventLoop.run_until")
        return first


#: How often the probe samples the host's speed, and its fixed loop's
#: period on a quiet measuring host (a 2-core Xeon VM, Python 3.11):
#: the speed the ``setup_s``/``wall_s`` figures are scaled to.
PROBE_INTERVAL_S = 0.005
REFERENCE_PERIOD_S = 0.00025


def _reference_loop() -> int:
    """A fixed pure-Python loop of dict and integer work, ~0.25 ms."""
    table: dict = {}
    total = 0
    for i in range(1500):
        table[i & 255] = i
        total += table.get(i & 127, 0) % 7
    return total


class SpeedProbe:
    """Samples the host's speed while the call runs.

    The measuring hosts are shared: the speed of a core drifts by up to
    2x from one second to the next, with its level wandering over
    minutes, and process CPU time tracks wall time through it, so the
    slowdown is the core's, not time lost to other processes.  No
    length of run averages that out.  A thread of the call process
    therefore times ``_reference_loop`` every ``PROBE_INTERVAL_S``, on
    the core the call runs on, and ``scale`` turns host seconds of an
    interval into seconds at ``REFERENCE_PERIOD_S``.  The probe costs
    about 5% of the call, traced or not.
    """

    def __init__(self) -> None:
        self.samples: list = []  # (start, duration) per loop
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            started = time.perf_counter()
            _reference_loop()
            self.samples.append((started, time.perf_counter() - started))
            if self._stop.wait(PROBE_INTERVAL_S):
                return

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, begin: float, end: float) -> float:
        """Reference over host speed in ``[begin, end)``: the mean loop
        period of the samples taken then (of the whole call if none was,
        in an interval shorter than ``PROBE_INTERVAL_S``)."""
        periods = [d for t, d in self.samples if begin <= t < end]
        periods = periods or [d for _, d in self.samples]
        return REFERENCE_PERIOD_S / statistics.fmean(periods)


def _pin_to_one_cpu() -> None:
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # unpinned, the probe may sample the other core


def run_call(spec: dict) -> dict:
    """The call itself; runs in the forked child."""
    import workloads

    if spec["workload"] in workloads.ONE_PROCESS:
        _pin_to_one_cpu()
    call = workloads.WORKLOADS[spec["workload"]]
    sim_start = SimStart()
    sim_start.install()
    ledger = None
    if spec.get("trace"):
        import tracing

        ledger = tracing.Ledger()
        tracing.install(ledger)
        call = ledger.root(call)
    probe = SpeedProbe()
    probe.start()
    try:
        figures = call(spec["seed"], spec["scale"])
    finally:
        probe.stop()
    started = figures.pop("started")
    ended = started + figures["host_wall_s"]
    at = sim_start.at()
    figures["host_setup_s"] = at - started
    figures["setup_scale"] = probe.scale(started, at)
    figures["sim_scale"] = probe.scale(at, ended)
    figures["probe_samples"] = len(probe.samples)
    figures["setup_s"] = figures["host_setup_s"] * figures["setup_scale"]
    figures["wall_s"] = figures["setup_s"] + (ended - at) * figures["sim_scale"]
    figures["peak_rss_mb"] = _peak_rss_mb()
    if ledger is not None:
        figures["layers"] = tracing.layer_metrics(ledger, figures)
        figures["ledger"] = ledger.summary()
    return figures


def _child(spec: dict, write_fd: int) -> None:
    os.setpgid(0, 0)  # own group, so a timeout can stop its shard workers too
    try:
        result = {"ok": True, **run_call(spec)}
    except Exception:  # any failure of the call is reported, not raised
        result = {"ok": False, "error": traceback.format_exc()[-4000:]}
    payload = json.dumps(result).encode("utf-8")
    with os.fdopen(write_fd, "wb") as pipe:
        pipe.write(payload)


def call(spec: dict, timeout: float) -> dict:
    """Run one call in a forked child; never raises for a failed call."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            _child(spec, write_fd)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        os.setpgid(pid, pid)  # also here, in case the child has not run yet
    except OSError:
        pass
    chunks = []
    deadline = time.monotonic() + timeout
    timed_out = False
    with os.fdopen(read_fd, "rb") as pipe:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([pipe], [], [], left)[0]:
                timed_out = True
                break
            chunk = os.read(pipe.fileno(), 1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    try:
        # Stop whatever of the call's process group is left: on a
        # timeout the call itself and its shard workers.
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    _, status = os.waitpid(pid, 0)
    if timed_out:
        return {"ok": False, "error": f"call exceeded {timeout:.0f} s"}
    if not chunks:
        return {"ok": False, "error": f"call process ended with status {status}"}
    return json.loads(b"".join(chunks))
