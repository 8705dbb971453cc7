"""Unit tests for vantage-point traffic models."""

import datetime as dt
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro import build_scenario, timebase
from repro.synth import diurnal
from repro.synth.flowgen import BYTES_PER_UNIT
from repro.synth.profiles import RAMP_DAYS
from repro.synth.vantage import VantagePoint
from tests.synth_seal_fixture import event_spec


class TestIntensityModel:
    def test_profile_names_sorted(self, scenario):
        names = scenario.isp_ce.profile_names()
        assert names == sorted(names)

    def test_unknown_profile_raises(self, scenario):
        with pytest.raises(KeyError):
            scenario.isp_ce.profile_volumes(
                "nonexistent", dt.date(2020, 2, 1), dt.date(2020, 2, 2)
            )

    def test_backwards_range_raises(self, scenario):
        with pytest.raises(ValueError):
            scenario.isp_ce.profile_volumes(
                "quic", dt.date(2020, 2, 2), dt.date(2020, 2, 1)
            )

    def test_volumes_positive(self, scenario):
        series = scenario.isp_ce.profile_volumes(
            "web-hypergiant", dt.date(2020, 2, 19), dt.date(2020, 2, 25)
        )
        assert np.all(series.values > 0)

    def test_hourly_traffic_is_sum_of_profiles(self, scenario):
        start, end = dt.date(2020, 2, 19), dt.date(2020, 2, 20)
        vantage = scenario.isp_ce
        total = vantage.hourly_traffic(start, end)
        manual = sum(
            vantage.profile_volumes(name, start, end).values
            for name in vantage.profile_names()
        )
        assert np.allclose(total.values, manual)

    def test_profile_subset_selection(self, scenario):
        start, end = dt.date(2020, 2, 19), dt.date(2020, 2, 19)
        sub = scenario.isp_ce.hourly_traffic(start, end, profiles=["quic"])
        quic = scenario.isp_ce.profile_volumes("quic", start, end)
        assert np.allclose(sub.values, quic.values)

    def test_empty_profile_selection_raises(self, scenario):
        with pytest.raises(ValueError):
            scenario.isp_ce.hourly_traffic(
                dt.date(2020, 2, 19), dt.date(2020, 2, 19), profiles=[]
            )

    def test_noise_consistent_across_query_ranges(self, scenario):
        # The same calendar hour must carry the same value regardless of
        # the requested range (noise is anchored to absolute time).
        wide = scenario.isp_ce.profile_volumes(
            "quic", dt.date(2020, 2, 18), dt.date(2020, 2, 22)
        )
        narrow = scenario.isp_ce.profile_volumes(
            "quic", dt.date(2020, 2, 20), dt.date(2020, 2, 20)
        )
        assert np.array_equal(
            wide.slice_day(dt.date(2020, 2, 20)).values, narrow.values
        )

    def test_weekend_shape_differs_from_workday(self, scenario):
        series = scenario.isp_ce.profile_volumes(
            "web-hypergiant", dt.date(2020, 2, 19), dt.date(2020, 2, 23)
        )
        workday = series.day_values(dt.date(2020, 2, 19))
        weekend = series.day_values(dt.date(2020, 2, 22))
        workday_shape = workday / workday.sum()
        weekend_shape = weekend / weekend.sum()
        assert not np.allclose(workday_shape, weekend_shape, atol=0.005)

    def test_lockdown_increases_isp_traffic(self, scenario):
        base = scenario.isp_ce.hourly_traffic(
            dt.date(2020, 2, 19), dt.date(2020, 2, 25)
        ).total()
        lockdown = scenario.isp_ce.hourly_traffic(
            dt.date(2020, 3, 18), dt.date(2020, 3, 24)
        ).total()
        assert 1.10 < lockdown / base < 1.45


class TestStudyPeriodBounds:
    # Each range crosses one edge of the study period.
    OUTSIDE = [
        (dt.date(2019, 12, 25), dt.date(2020, 1, 3)),
        (dt.date(2020, 5, 10), dt.date(2020, 5, 20)),
    ]

    @pytest.mark.parametrize("start,end", OUTSIDE)
    def test_range_outside_study_period_raises(self, scenario, start, end):
        vantage = scenario.isp_ce
        with pytest.raises(ValueError, match="study period"):
            vantage.profile_volumes("quic", start, end)
        with pytest.raises(ValueError, match="study period"):
            vantage.hourly_traffic(start, end)
        with pytest.raises(ValueError, match="study period"):
            vantage.generate_flows(start, end, fidelity=0.1)

    @pytest.mark.parametrize(
        "day", [timebase.STUDY_START, timebase.STUDY_END]
    )
    def test_edge_days_accepted(self, scenario, day):
        series = scenario.isp_ce.hourly_traffic(day, day)
        assert series.start_hour == timebase.hour_index(day, 0)
        assert len(series) == 24


def _naive_multiplier(profile, day, timeline, weekend):
    """The intensity model's per-day multiplier, one day at a time."""
    phase, phase_start, prev_phase = timeline.ramp_context(day)
    target = profile.response.multiplier(phase, weekend)
    if phase_start is not None:
        days_in = (day - phase_start).days
        if days_in < RAMP_DAYS:
            prev = profile.response.multiplier(prev_phase, weekend)
            frac = (days_in + 1) / (RAMP_DAYS + 1)
            target = prev + (target - prev) * frac
    for event in profile.events:
        if event.applies(day):
            target *= event.multiplier
    growth_days = (day - dt.date(2020, 1, 1)).days
    target *= 1.0 + profile.annual_growth * growth_days / 365.0
    return target


def _naive_profile_volumes(vantage, name, start_day, end_day):
    """Reference for ``profile_volumes``: a plain loop over days."""
    use = vantage.mix[name]
    world = vantage.world
    days = list(timebase.iter_days(start_day, end_day))
    values = np.empty(len(days) * 24)
    for i, day in enumerate(days):
        weekend = world.behaves_like_weekend(day, vantage.region)
        mult = _naive_multiplier(use.profile, day, vantage.timeline, weekend)
        modifier = world.volume_modifier(day, vantage.name, name)
        if modifier != 1.0:
            mult *= modifier
        attenuation = world.wfh_attenuation(day, vantage.name)
        if attenuation > 0.0:
            mult = 1.0 + (mult - 1.0) * (1.0 - attenuation)
        shape = diurnal.get_shape(use.profile.response.shape_name(
            vantage.timeline.phase(day), weekend
        ))
        daily = vantage.base_daily_volume * use.share * mult
        values[i * 24 : (i + 1) * 24] = daily / 24.0 * shape
    start_hour = timebase.hour_index(start_day, 0)
    noise = vantage._noise_for(name)[start_hour : start_hour + len(values)]
    return values * noise


class TestArrayPathMatchesDayLoop:
    """The array-at-once intensity model is bit-identical to the loop."""

    def _check(self, scenario):
        start, end = timebase.STUDY_START, timebase.STUDY_END
        for vantage in scenario.vantages.values():
            for name in vantage.profile_names():
                series = vantage.profile_volumes(name, start, end)
                expected = _naive_profile_volumes(vantage, name, start, end)
                assert np.array_equal(series.values, expected), (
                    vantage.name, name
                )

    def test_default_world(self, scenario):
        self._check(scenario)

    def test_event_world(self, event_scenario):
        self._check(event_scenario)

    def test_vantage_without_world_matches_default_world(self, scenario):
        vantage = scenario.isp_ce
        bare = VantagePoint(
            vantage.name, vantage.kind, vantage.region, vantage.mix,
            vantage.base_daily_volume, scenario.registry,
            scenario.prefix_map, [3320], vantage.seed,
        )
        start, end = timebase.STUDY_START, timebase.STUDY_END
        assert np.array_equal(
            bare.hourly_traffic(start, end).values,
            vantage.hourly_traffic(start, end).values,
        )

    def test_daily_multiplier_matches_loop(self, event_scenario):
        vantage = event_scenario.isp_ce
        for name in vantage.profile_names():
            profile = vantage.mix[name].profile
            for day in timebase.iter_days():
                for weekend in (False, True):
                    assert profile.daily_multiplier(
                        day, vantage.timeline, weekend
                    ) == _naive_multiplier(
                        profile, day, vantage.timeline, weekend
                    )


@pytest.fixture(scope="module")
def event_scenario():
    return build_scenario(spec=event_spec())


@st.composite
def model_queries(draw):
    """(vantage name, first day, last day, seed of the profile subset)."""
    vantage = draw(st.sampled_from(
        ["edu", "ipx", "isp-ce", "ixp-ce", "ixp-se", "ixp-us", "mobile-ce"]
    ))
    first = draw(st.integers(0, timebase.STUDY_DAYS - 1))
    last = draw(st.integers(first, min(first + 40, timebase.STUDY_DAYS - 1)))
    return (
        vantage,
        timebase.day_index_to_date(first),
        timebase.day_index_to_date(last),
        draw(st.integers(0, 2**32 - 1)),
    )


class TestIntensityModelMemo:
    """Each (vantage, profile) is evaluated once over the study period;
    every query is a copied slice of that evaluation."""

    def _check_ranges(self, scenario, query):
        name, start, end, pick = query
        vantage = scenario.vantages[name]
        names = vantage.profile_names()
        rng = np.random.default_rng(pick)
        subset = sorted(
            str(profile) for profile in rng.choice(
                names, rng.integers(1, len(names) + 1), replace=False
            )
        )
        expected = {
            profile: _naive_profile_volumes(vantage, profile, start, end)
            for profile in subset
        }
        for profile in subset:
            series = vantage.profile_volumes(profile, start, end)
            assert series.start_hour == timebase.hour_index(start, 0)
            assert np.array_equal(series.values, expected[profile])
        total = expected[subset[0]].copy()
        for profile in subset[1:]:
            total = total + expected[profile]
        # The caller's order does not matter: profiles sum by name.
        traffic = vantage.hourly_traffic(start, end, profiles=subset[::-1])
        assert np.array_equal(traffic.values, total)

    @given(query=model_queries())
    @settings(max_examples=40, deadline=None)
    def test_ranges_match_day_loop_default_world(self, scenario, query):
        self._check_ranges(scenario, query)

    @given(query=model_queries())
    @settings(max_examples=40, deadline=None)
    def test_ranges_match_day_loop_event_world(self, event_scenario, query):
        self._check_ranges(event_scenario, query)

    def test_each_profile_evaluated_once(self):
        vantage = build_scenario().ixp_se
        names = vantage.profile_names()
        obs.configure(telemetry=True)
        try:
            counter = obs.get_registry().counter(
                "vantage.profile-evaluations"
            )
            week = timebase.MACRO_WEEKS["base"]
            vantage.profile_volumes(names[0], week.start, week.end)
            assert counter.value == 1
            for _ in range(2):
                vantage.hourly_traffic(week.start, week.end)
                vantage.hourly_traffic(
                    timebase.STUDY_START, timebase.STUDY_END, names[:2]
                )
                for name in names:
                    vantage.profile_volumes(name, week.start, week.end)
                vantage.generate_week_flows(week, fidelity=0.05)
            assert counter.value == len(names)
        finally:
            obs.reset()

    def test_returned_series_are_copies(self, scenario):
        vantage = scenario.isp_ce
        start, end = dt.date(2020, 3, 2), dt.date(2020, 3, 3)
        series = vantage.profile_volumes("quic", start, end)
        expected = series.values.copy()
        series.values[:] = -1.0
        assert np.array_equal(
            vantage.profile_volumes("quic", start, end).values, expected
        )
        total = vantage.hourly_traffic(start, end)
        expected_total = total.values.copy()
        total.values[:] = 0.0
        assert np.array_equal(
            vantage.hourly_traffic(start, end).values, expected_total
        )
        single = vantage.hourly_traffic(start, end, profiles=["quic"])
        single.values[0] = 0.0
        assert np.array_equal(
            vantage.profile_volumes("quic", start, end).values, expected
        )
        # The memo itself refuses writes.
        with pytest.raises(ValueError):
            vantage._model("quic")[0] = 0.0

    def test_threads_share_one_model(self, scenario):
        # More threads than cores and a short switch interval, so first
        # evaluations of a fresh vantage interleave.
        n_threads = 8
        vantage = build_scenario().isp_ce
        start, end = timebase.STUDY_START, timebase.STUDY_END
        barrier = threading.Barrier(n_threads, timeout=30)
        results = [None] * n_threads

        def query(slot):
            barrier.wait()
            results[slot] = vantage.hourly_traffic(start, end).values

        threads = [
            threading.Thread(target=query, args=(i,))
            for i in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        expected = scenario.isp_ce.hourly_traffic(start, end).values
        for values in results:
            assert np.array_equal(values, expected)


class TestFlowGeneration:
    def test_flows_match_aggregate(self, scenario, isp_base_week_flows):
        base = scenario.isp_ce.hourly_traffic(
            dt.date(2020, 2, 19), dt.date(2020, 2, 25)
        )
        assert isp_base_week_flows.total_bytes() == pytest.approx(
            base.total() * BYTES_PER_UNIT, rel=0.001
        )

    def test_flows_sorted_by_hour(self, isp_base_week_flows):
        hours = isp_base_week_flows.column("hour")
        assert np.all(np.diff(hours) >= 0)

    def test_generation_deterministic(self, scenario):
        week = timebase.MACRO_WEEKS["base"]
        a = scenario.ixp_se.generate_week_flows(week, fidelity=0.3)
        b = scenario.ixp_se.generate_week_flows(week, fidelity=0.3)
        assert a == b

    def test_profile_filter_restricts_ports(self, scenario):
        week = timebase.MACRO_WEEKS["base"]
        flows = scenario.isp_ce.generate_week_flows(
            week, fidelity=0.3, profiles=["quic"]
        )
        keys = set(flows.transport_keys())
        assert keys == {"UDP/443"}

    def test_flow_hours_inside_requested_range(self, isp_base_week_flows):
        start, stop = timebase.MACRO_WEEKS["base"].hour_range()
        hours = isp_base_week_flows.column("hour")
        assert hours.min() >= start
        assert hours.max() < stop


class TestVantageValidation:
    def test_unknown_vantage_kind(self, scenario):
        from repro.synth.vantage import VantagePoint

        with pytest.raises(ValueError):
            VantagePoint(
                name="x", kind="satellite",
                region=timebase.Region.CENTRAL_EUROPE,
                mix=scenario.isp_ce.mix, base_daily_volume=1.0,
                registry=scenario.registry,
                prefix_map=scenario.prefix_map,
                local_eyeball_asns=[1], seed=0,
            )

    def test_empty_mix_rejected(self, scenario):
        from repro.synth.vantage import VantagePoint

        with pytest.raises(ValueError):
            VantagePoint(
                name="x", kind="isp",
                region=timebase.Region.CENTRAL_EUROPE,
                mix={}, base_daily_volume=1.0,
                registry=scenario.registry,
                prefix_map=scenario.prefix_map,
                local_eyeball_asns=[1], seed=0,
            )

    def test_nonpositive_volume_rejected(self, scenario):
        from repro.synth.vantage import VantagePoint

        with pytest.raises(ValueError):
            VantagePoint(
                name="x", kind="isp",
                region=timebase.Region.CENTRAL_EUROPE,
                mix=scenario.isp_ce.mix, base_daily_volume=0.0,
                registry=scenario.registry,
                prefix_map=scenario.prefix_map,
                local_eyeball_asns=[1], seed=0,
            )
