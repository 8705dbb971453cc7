"""Unit tests for the hypergiant vs. other-AS analysis."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import timebase
from repro.core import hypergiants
from repro.flows.table import FlowTable
from repro.netbase.asdb import HYPERGIANT_ASNS, HYPERGIANTS


@pytest.fixture(scope="module")
def survey_flows(scenario):
    return scenario.isp_ce.generate_flows(
        dt.date(2020, 1, 27), dt.date(2020, 4, 26), fidelity=0.1
    )


class TestShare:
    def test_share_in_expected_band(self, survey_flows):
        share = hypergiants.hypergiant_share(survey_flows)
        assert 0.55 <= share <= 0.85

    def test_empty_table_raises(self):
        with pytest.raises(ValueError):
            hypergiants.hypergiant_share(FlowTable.empty())

    def test_custom_hypergiant_set(self, survey_flows):
        # With an empty hypergiant set, the share is zero.
        assert hypergiants.hypergiant_share(
            survey_flows, frozenset({99999})
        ) == 0.0


class TestHypergiantSetSize:
    """§3.2: a handful of hypergiants carries most hypergiant bytes."""

    @pytest.fixture(scope="class")
    def shares(self, isp_base_week_flows):
        ranked = sorted(HYPERGIANTS, key=lambda info: -info.weight)
        return {
            top_n: hypergiants.hypergiant_share(
                isp_base_week_flows,
                frozenset(info.asn for info in ranked[:top_n]),
            )
            for top_n in (5, 10, 15)
        }

    def test_share_grows_with_set_size(self, shares):
        assert shares[5] < shares[10] <= shares[15]

    def test_share_saturates(self, shares):
        # The second five add at least as much as the last five.
        assert shares[10] - shares[5] >= shares[15] - shares[10]


class TestGroupGrowth:
    @pytest.fixture(scope="class")
    def growth(self, survey_flows):
        return hypergiants.group_growth(
            survey_flows, timebase.Region.CENTRAL_EUROPE,
            baseline_week=6, weeks=list(range(5, 18)),
        )

    def test_both_groups_present(self, growth):
        assert set(growth) == {"hypergiants", "other"}

    def test_baseline_normalized_to_one(self, growth):
        for group in growth.values():
            for curve in hypergiants.CURVES:
                assert group.curves[curve][6] == pytest.approx(1.0)

    def test_other_dominates_post_lockdown(self, growth):
        assert hypergiants.other_dominates_after(growth, lockdown_week=13)

    def test_curves_have_all_weeks(self, growth):
        curve = growth["other"].curve("workday", "evening")
        assert set(curve) == set(range(5, 18))

    def test_baseline_must_be_analyzed(self, survey_flows):
        with pytest.raises(ValueError):
            hypergiants.group_growth(
                survey_flows, timebase.Region.CENTRAL_EUROPE,
                baseline_week=3, weeks=[5, 6, 7],
            )

    def test_post_lockdown_growth_positive(self, growth):
        for group in growth.values():
            curve = group.curve("workday", "working-hours")
            assert curve[14] > 1.05


def _mask_loop_group_growth(flows, region, baseline_week, weeks,
                            hypergiants_set=HYPERGIANT_ASNS):
    """Reference: one sub-table per group and one hour-column mask per
    day and daypart, as ``group_growth`` computed Fig 4 before it summed
    day-parts on the hour index."""
    src = flows.column("src_asn")
    in_set = np.isin(src, np.asarray(sorted(hypergiants_set)))
    result = {}
    for group, mask in (("hypergiants", in_set), ("other", ~in_set)):
        sub = flows.filter(mask)
        hours = sub.column("hour")
        n_bytes = sub.column("n_bytes")
        volumes = {curve: {} for curve in hypergiants.CURVES}
        for week in weeks:
            for day in timebase.iso_week_dates(week):
                kind = (
                    "weekend"
                    if timebase.behaves_like_weekend(day, region)
                    else "workday"
                )
                day_start = timebase.hour_index(day, 0)
                for daypart, (h0, h1) in hypergiants.DAYPARTS.items():
                    in_part = (hours >= day_start + h0) & (
                        hours < day_start + h1
                    )
                    volumes[(kind, daypart)].setdefault(week, []).append(
                        float(n_bytes[in_part].sum())
                    )
        curves = {}
        for curve, per_week in volumes.items():
            means = {w: float(np.mean(v)) for w, v in per_week.items()}
            base = means.get(baseline_week)
            if not base:
                raise ValueError(
                    f"baseline week {baseline_week} empty for {group}/{curve}"
                )
            curves[curve] = {w: v / base for w, v in means.items()}
        result[group] = hypergiants.GroupGrowth(group=group, curves=curves)
    return result


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


#: ISO weeks 1 and 20 are the study's edge weeks (week 1 starts before
#: Jan 1); weeks 0 and 21 hold no study day.
EDGE_WEEKS = (0, 1, 2, 11, 12, 19, 20, 21)


class TestGroupGrowthMatchesMaskLoop:
    def test_survey_flows(self, survey_flows):
        region = timebase.Region.CENTRAL_EUROPE
        weeks = list(range(4, 19))
        assert hypergiants.group_growth(
            survey_flows, region, 5, weeks
        ) == _mask_loop_group_growth(survey_flows, region, 5, weeks)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 600),
        weeks=st.lists(st.sampled_from(EDGE_WEEKS), min_size=1, max_size=6),
        baseline_pick=st.integers(0, 5),
        large=st.booleans(),
        region=st.sampled_from(list(timebase.Region)),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_tables(self, seed, n, weeks, baseline_pick, large,
                           region):
        rng = np.random.default_rng(seed)
        asns = np.asarray(sorted(HYPERGIANT_ASNS)[:3] + [64500, 64501])
        if large:
            # Past 2**53 a float64 accumulation would round the sums.
            n_bytes = rng.integers(2**53 + 1, 2**55, n)
        else:
            n_bytes = rng.integers(1, 10**6, n)
        flows = FlowTable.from_arrays(
            hour=rng.integers(0, timebase.STUDY_HOURS, n),
            src_ip=np.ones(n, dtype=np.uint32),
            dst_ip=np.ones(n, dtype=np.uint32),
            src_asn=rng.choice(asns, n),
            dst_asn=np.full(n, 3320),
            proto=np.full(n, 6, dtype=np.int16),
            src_port=np.full(n, 443, dtype=np.int32),
            dst_port=np.full(n, 55000, dtype=np.int32),
            n_bytes=n_bytes,
            n_packets=np.ones(n, dtype=np.int64),
            connections=np.ones(n, dtype=np.int64),
        )
        baseline = weeks[baseline_pick % len(weeks)]
        assert _outcome(
            hypergiants.group_growth, flows, region, baseline, weeks
        ) == _outcome(
            _mask_loop_group_growth, flows, region, baseline, weeks
        )

    def test_baseline_outside_study_raises(self, survey_flows):
        region = timebase.Region.CENTRAL_EUROPE
        expected = _outcome(
            _mask_loop_group_growth, survey_flows, region, 21, [5, 21]
        )
        assert expected[0] == "ValueError"
        assert _outcome(
            hypergiants.group_growth, survey_flows, region, 21, [5, 21]
        ) == expected

    def test_week_outside_study_has_no_entry(self, survey_flows):
        growth = hypergiants.group_growth(
            survey_flows, timebase.Region.CENTRAL_EUROPE, 6, [6, 7, 21]
        )
        assert set(growth["other"].curve("workday", "evening")) == {6, 7}
