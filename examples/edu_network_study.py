"""Educational-network study: the antagonistic lockdown shift (§7).

Analyzes the EDU metropolitan network's 72-day capture:

* daily volume across the base / transition / online-lecturing weeks,
* the collapse of the ingress/egress byte ratio,
* per-class daily connection growth (web, email, VPN, remote desktop,
  SSH incoming; push and Spotify outgoing),
* the share of flows whose connection direction cannot be determined.

Run:  python examples/edu_network_study.py
"""

import datetime as dt

import numpy as np

from repro import build_scenario, timebase
from repro.core import edu
from repro.netbase.asdb import EDU_NETWORK_ASN
from repro.report.figures import sparkline

LOCKDOWN = dt.date(2020, 3, 11)  # educational system closed


def main() -> None:
    scenario = build_scenario()
    print("Generating the 72-day EDU capture ...")
    flows = scenario.edu.generate_flows(
        timebase.EDU_CAPTURE_START, timebase.EDU_CAPTURE_END, fidelity=5.0
    )
    internal = [EDU_NETWORK_ASN]
    print(f"  {len(flows)} flow records\n")

    volumes = edu.weekly_volumes(flows, timebase.EDU_WEEKS, internal)
    print("Normalized daily volume (Thu..Wed) and in/out ratio:")
    for label, week in volumes.items():
        ratios = " ".join(f"{r:5.1f}" for r in week.in_out_ratio)
        print(f"  {label:17s} {sparkline(week.total, lo=0, hi=1)}  "
              f"ratio: {ratios}")
    drop = edu.workday_drop(volumes)
    print(f"  maximum workday decrease vs. base week: {drop:.0%} "
          "(paper: up to 55%)\n")

    directions = edu.connection_direction(flows, internal)
    summary = edu.directionality_summary(
        flows, directions,
        timebase.EDU_CAPTURE_START, timebase.EDU_CAPTURE_END, LOCKDOWN,
    )
    print("Connection directionality (median daily, post/pre lockdown):")
    print(f"  incoming: {summary.incoming_growth:.2f}x   "
          f"outgoing: {summary.outgoing_growth:.2f}x   "
          f"total: {summary.total_growth:.2f}x")
    print(f"  undeterminable direction: {summary.unknown_fraction:.0%} "
          "of flows (paper: 39%)\n")

    print("Per-class growth of daily connections (paper's targets in")
    print("parentheses):")
    targets = {
        ("web", "in"): "1.7x", ("email", "in"): "1.8x",
        ("vpn", "in"): "4.8x", ("remote-desktop", "in"): "5.9x",
        ("ssh", "in"): "9.1x", ("push", "out"): "down",
        ("spotify", "out"): "down 83%",
    }
    for (cname, direction), target in targets.items():
        series = edu.daily_connections(
            flows, directions, cname, direction,
            timebase.EDU_CAPTURE_START, timebase.EDU_CAPTURE_END,
        )
        growth = series.growth_after(LOCKDOWN)
        print(f"  {cname:15s} {direction:3s}  {growth:5.2f}x  ({target})")


if __name__ == "__main__":
    main()
