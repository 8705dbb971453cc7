"""Flow export formats: NetFlow v5, IPFIX, anonymization.

Shows the operational side of the substrate — the same byte formats
and data-reduction steps a real vantage point applies before analysis:

1. generate a day of ISP flows,
2. anonymize addresses with a keyed hash (the paper's ethics setup),
3. export as NetFlow v5 packets and as IPFIX messages, then collect
   them back and verify what survives each format.

Run:  python examples/netflow_export.py
"""

import datetime as dt

from repro import build_scenario
from repro.flows import anonymize, ipfix, netflow5


def main() -> None:
    scenario = build_scenario()
    day = dt.date(2020, 3, 25)
    flows = scenario.isp_ce.generate_flows(day, day, fidelity=0.5)
    print(f"Generated {len(flows)} flows for {day} "
          f"({flows.total_bytes() / 1e9:.2f} GB)\n")

    anonymized = anonymize.anonymize_table(flows, key=b"isp-ce-2020")
    print("Anonymization (keyed BLAKE2b on addresses):")
    print(f"  distinct client IPs before: {flows.unique_ips('dst')}, "
          f"after: {anonymized.unique_ips('dst')} (joins preserved)\n")

    packets = netflow5.encode_packets(anonymized)
    print(f"NetFlow v5 export: {len(packets)} packets, "
          f"{sum(len(p) for p in packets) / 1e6:.2f} MB on the wire")
    back_v5 = netflow5.decode_packets(packets)
    print(f"  collector got {len(back_v5)} flows; lossless: "
          f"{netflow5.round_trip_lossless(anonymized)} "
          "(32-bit ASNs exported as AS_TRANS)")

    messages = ipfix.encode_messages(anonymized)
    back_ipfix = ipfix.decode_messages(messages)
    print(f"IPFIX export: {len(messages)} messages; lossless round trip: "
          f"{back_ipfix == anonymized}")


if __name__ == "__main__":
    main()
