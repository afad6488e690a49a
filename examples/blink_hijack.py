#!/usr/bin/env python3
"""Blink hijack, end to end (Section 3.1 / E2+E4).

Runs the event-driven packet-level experiment: a steady pool of
legitimate flows plus persistent attack flows faking retransmissions,
streamed through the reconstructed Blink pipeline, showing (i) the
malicious share of the monitored sample growing over time (the Fig. 2
dynamics including hash coverage and eviction effects the closed form
ignores), and (ii) the resulting bogus reroute.

The throughput line at the end reports the event loop's speed and the
streaming trace ring's peak memory.

Run:  python examples/blink_hijack.py        (~10 s)
"""

from repro.analysis import ascii_table, series_block
from repro.blink import packet_level_experiment
from repro.flows import DurationDistribution

PREFIX = "198.51.100.0/24"


def main() -> None:
    print("Simulating 500 concurrent legitimate flows + 40 persistent")
    print("attack flows at packet level (paper's experiment, scaled 4x"
          " down with the flow selector scaled to 16 cells to match)...")
    report = packet_level_experiment(
        destination_prefix=PREFIX,
        horizon=300.0,
        legitimate_flows=500,
        malicious_flows=40,
        duration_model=DurationDistribution(median=3.0),
        cells=16,
        seed=0,
        sample_interval=2.0,
    )
    print(
        f"  {report.packets} packets, "
        f"{report.trace_summary['malicious_packets'] / report.packets:.1%} malicious"
    )
    print()

    print(
        series_block(
            "attacker-held selector cells",
            list(report.sample_times),
            list(report.sample_values),
        )
    )
    print()

    rows = [
        {"metric": "selector cells", "value": 16},
        {"metric": "reroute threshold (cells)", "value": report.crossing_threshold},
        {
            "metric": "measured tR of legitimate flows (s)",
            "value": round(report.measured_tr, 2),
        },
        {
            "metric": "time until half the sample is malicious (s)",
            "value": round(report.crossing_time, 1) if report.crossing_time else "never",
        },
        {"metric": "reroute events", "value": report.reroutes},
    ]
    print(ascii_table(rows, title="hijack outcome"))

    if report.first_reroute is not None:
        print()
        print(f"First bogus reroute at t={report.first_reroute:.1f}s.")
        print("The prefix is now forwarded along a path the attacker chose —")
        print("without a single BGP message, from plain host-level traffic.")

    print()
    print(
        f"engine: {report.events:,} events in {report.wall_seconds:.2f}s wall "
        f"({report.events_per_second:,.0f} events/s); peak trace memory "
        f"{report.peak_ring_bytes / 1024:.1f} KiB (streaming ring)"
    )


if __name__ == "__main__":
    main()
