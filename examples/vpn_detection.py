"""VPN detection end-to-end: ports vs. domains (§6).

Walks through the paper's two-pronged VPN methodology:

1. classify flows on the well-known VPN ports,
2. mine the domain corpus for ``*vpn*`` names, resolve them, eliminate
   www-shared addresses, and classify TCP/443 traffic to the survivors,
3. compare the growth both methods see between February and March,
4. show what happens when the www-collision elimination is skipped.

Run:  python examples/vpn_detection.py
"""

import datetime as dt

from repro import build_scenario, timebase
from repro.core import vpn
from repro.flows.table import FlowTable

WEEKS = {
    "february": timebase.Week(dt.date(2020, 2, 20), "february"),
    "march": timebase.Week(dt.date(2020, 3, 19), "march"),
    "april": timebase.Week(dt.date(2020, 4, 23), "april"),
}


def main() -> None:
    scenario = build_scenario()

    print("Mining the domain corpus for *vpn* candidates ...")
    candidates = vpn.mine_vpn_candidates(scenario.dns_corpus)
    print(f"  {len(candidates.candidate_domains)} candidate domains")
    print(f"  {candidates.n_candidates} candidate addresses after the")
    print(f"  www-collision check ({len(candidates.eliminated_shared)} "
          "shared addresses eliminated)")
    sample = ", ".join(candidates.candidate_domains[:3])
    print(f"  e.g. {sample}\n")

    flows = FlowTable.concat(
        [
            scenario.ixp_ce.generate_week_flows(week, fidelity=1.0)
            for week in WEEKS.values()
        ]
    )
    port_flows = flows.filter(vpn.port_based_mask(flows))
    domain_flows = flows.filter(vpn.domain_based_mask(flows, candidates))
    print(f"Classified over three weeks at the IXP-CE:")
    print(f"  port-based:   {port_flows.total_bytes() / 1e9:8.2f} GB")
    print(f"  domain-based: {domain_flows.total_bytes() / 1e9:8.2f} GB\n")

    patterns = vpn.vpn_week_patterns(
        [flows], WEEKS, timebase.Region.CENTRAL_EUROPE, candidates
    )
    for stage in ("march", "april"):
        growth = vpn.vpn_growth(patterns, "february", stage)
        print(f"Working-hours growth, February -> {stage}:")
        print(f"  port-based:   {growth.port_based:+7.0%}")
        print(f"  domain-based: {growth.domain_based:+7.0%} "
              f"(weekends {growth.domain_based_weekend:+.0%})")

    loose = vpn.mine_vpn_candidates(
        scenario.dns_corpus, eliminate_www_shared=False
    )
    loose_bytes = flows.filter(
        vpn.domain_based_mask(flows, loose)
    ).total_bytes()
    print("\nWithout the www elimination the classifier would count")
    print(f"  {loose_bytes / 1e9:.2f} GB as VPN "
          f"(+{loose_bytes / domain_flows.total_bytes() - 1:.0%} overcount"
          " from shared web servers).")


if __name__ == "__main__":
    main()
