#!/usr/bin/env python3
"""The stateful-firewall case study (Section 7.4 / Figure 17) on a laptop.

Streams 640 new flows through the Lucid stateful firewall with the
``sfw-install-latency`` scenario, which measures flow-installation latency in
the data plane and replays the same arrivals through the Mantis-style
remote-control baseline.

Run with::

    python examples/stateful_firewall_demo.py
"""

from repro.apps import ALL_APPLICATIONS
from repro.scenarios import SCENARIOS, run_scenario


def main() -> None:
    compiled = ALL_APPLICATIONS["SFW"].compile()
    print(f"Stateful firewall: {compiled.lucid_loc()} lines of Lucid, "
          f"{compiled.naive_p4_loc()} lines of baseline P4, {compiled.stages()} pipeline stages")

    # 640 flows x 2 packets into a 2x1024-slot cuckoo table -> load factor ~0.3 as in the paper
    result = run_scenario(SCENARIOS["sfw-install-latency"], 1_280, 17, engine="pisa")
    if not result.ok:
        raise SystemExit(f"invariant violated: {result.invariants}")
    s = result.details

    print(f"\nflow installation time over {s['flows']} flows (data-plane integrated control):")
    print(f"  mean {s['dataplane_mean_install_ns']:8.1f} ns   p50 {s['dataplane_p50_install_ns']} ns   "
          f"p90 {s['dataplane_p90_install_ns']} ns   max {s['dataplane_max_install_ns']} ns")
    print("flow installation time (remote control baseline):")
    print(f"  mean {s['remote_mean_install_ns'] / 1000:8.1f} us   "
          f"min {s['remote_min_install_ns'] / 1000:.1f} us")
    speedup = s["remote_mean_install_ns"] / max(1.0, s["dataplane_mean_install_ns"])
    print(f"\nspeedup of integrated control: {speedup:.0f}x")
    print(f"flows installed during their first packet's pass: {s['first_pass_share'] * 100:.1f}%")


if __name__ == "__main__":
    main()
