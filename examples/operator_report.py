"""IXP operator weekly report: what a NOC would have seen in April 2020.

Combines the library's operational analyses into the report an IXP
operations team could have produced during the lockdown:

* platform growth vs. the February baseline,
* peak-vs-valley decomposition (is the peak, the planning quantity,
  actually moving?),
* members whose ports are running hot and the upgrades already landed,
* anomalous days flagged on the platform aggregate.

Run:  python examples/operator_report.py
"""

import datetime as dt

from repro import build_scenario, timebase
from repro.core import aggregate, anomaly, peaks
from repro.synth import linkutil as linkutil_synth


def main() -> None:
    scenario = build_scenario()
    ixp = scenario.ixp_ce
    members = scenario.members["ixp-ce"]
    series = ixp.hourly_traffic(timebase.STUDY_START, timebase.STUDY_END)

    print("=" * 62)
    print("IXP-CE operations report — week of 2020-04-22")
    print("=" * 62)

    summary = aggregate.growth_summary("ixp-ce", series)
    print(f"\nPlatform growth vs. base week: "
          f"stage1 {summary.stage1_growth:+.1%}, "
          f"stage2 {summary.stage2_growth:+.1%}")

    pv = peaks.peak_valley_summary(
        series, timebase.MACRO_WEEKS["base"], timebase.MACRO_WEEKS["stage2"]
    )
    print(f"Peak hour growth:   {pv.peak_growth:+.1%}  "
          f"(valley: {pv.valley_growth:+.1%}) -> "
          f"{'valleys filling' if pv.valleys_filled else 'peak pressure'}")

    # Hot member ports on a stage-2 workday.
    stage_day = dt.date(2020, 4, 22)
    growth_factor = 1.0 + summary.stage2_growth
    utilization = linkutil_synth.member_day_utilization(
        members, stage_day, growth_factor, seed=scenario.seed + 51,
        shape_name="lockdown-workday",
    )
    hot = peaks.headroom_exceeded(utilization, threshold=0.8)
    hot_members = sorted(
        ((asn, frac) for asn, frac in hot.items() if frac > 0.05),
        key=lambda kv: -kv[1],
    )
    print(f"\nMembers above 80% utilization for >5% of the day: "
          f"{len(hot_members)}")
    for asn, frac in hot_members[:5]:
        name = scenario.registry.name(asn)
        capacity = members.member(asn).capacity_on(stage_day)
        print(f"  AS{asn:<7d} {name[:28]:28s} {frac:5.1%} of day "
              f"(port: {capacity} Gbps)")
    upgraded = members.capacity_added_between(
        dt.date(2020, 3, 1), stage_day
    )
    print(f"Capacity upgrades landed since March 1: {upgraded} Gbps")

    # Anomalous days on the platform aggregate.
    start_date, daily_totals = series.daily_totals()
    daily = {
        start_date + dt.timedelta(days=i): float(v)
        for i, v in enumerate(daily_totals)
    }
    flagged = anomaly.detect_anomalies(daily, threshold=4.0)
    print(f"\nAnomalous days on the platform aggregate: {len(flagged)}")
    for item in flagged[:5]:
        print(f"  {item.day} {item.kind:5s} "
              f"{item.relative_deviation:+.0%} vs. prior week")


if __name__ == "__main__":
    main()
