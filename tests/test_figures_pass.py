"""A figures pass on one dataset cache, and Fig. 7/8 query parity.

One cold ``run_all`` on a fresh world is shared by the module: it must
build each server-address pool at most once, pass every paper check,
and touch no query store.  A second pass on the same cache reads every
dataset from it.  Figs. 7, 9 and 12 copy no rows into per-port,
per-class or per-direction sub-tables, and answer exactly as if they
did.

The figures pass is pure batch analysis.  Whether the query engine
serves Fig. 7's port mix and Fig. 8's hourly gaming series correctly is
checked here instead: the cold pass's datasets are sealed into a store
and queried through a :class:`QueryService`, and the answers are held
against both :class:`FlowTable` and a plain-numpy reference.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from typing import Dict

import numpy as np
import pytest

from repro import build_scenario, timebase
import repro.obs as obs
from repro.core import appclass, ports, vpn
from repro.experiments import PipelineConfig, get_spec, run_all
from repro.experiments import fig08, fig09
from repro.experiments.fig07 import run_fig07
from repro.flows.record import PROTO_ESP, PROTO_GRE, PROTO_ICMP
from repro.flows.store import FlowStore
from repro.flows.table import FlowTable, transport_label
from repro.query import QueryService, QuerySpec
from repro.synth import datasets
from repro.synth.datasets import DatasetCache
from tests import appclass_reference as reference

#: Paper checks the default world records at fast fidelity.
DEFAULT_SEED_CHECKS = 111

#: Mean |relative error| allowed between the engine's HLL distinct-IP
#: series and the exact per-hour counts (the sketch's documented
#: relative standard error is ~1.6% at the default precision; 5% leaves
#: head room for low-count hours without masking real disagreement).
HLL_SERIES_TOLERANCE = 0.05


@pytest.fixture(scope="module")
def cold_pass():
    """(scenario, config, cache, results, pool builds, engine use).

    Pool builds are counted per ``(salt, size, prefixes)`` wherever the
    flow sampler's server pools can be built from.  Engine use counts
    ``FlowStore.write_range`` calls and ``QueryService`` constructions.
    """
    scenario = build_scenario()
    config = PipelineConfig.fast()
    cache = DatasetCache()
    builds: Counter = Counter()
    import repro.netbase.prefixes as prefixes_mod
    import repro.synth.flowgen as flowgen_mod

    original = prefixes_mod.deterministic_addresses_in

    def counting(prefixes, count, salt):
        builds[(salt, count, tuple(p.high16 for p in prefixes))] += 1
        return original(prefixes, count, salt)

    with pytest.MonkeyPatch.context() as patch:
        engine_use = _count_engine_use(patch)
        patch.setattr(prefixes_mod, "deterministic_addresses_in", counting)
        patch.setattr(flowgen_mod, "deterministic_addresses_in", counting,
                      raising=False)
        with datasets.use_cache(cache):
            results = run_all(scenario, config)
    return scenario, config, cache, results, builds, engine_use


def _count_engine_use(patch: pytest.MonkeyPatch) -> Counter:
    """Count store seals and service starts while ``patch`` is active."""
    calls: Counter = Counter()
    write_range = FlowStore.write_range
    service_init = QueryService.__init__

    def counting_write(self, *args, **kwargs):
        calls["write_range"] += 1
        return write_range(self, *args, **kwargs)

    def counting_init(self, *args, **kwargs):
        calls["QueryService"] += 1
        return service_init(self, *args, **kwargs)

    patch.setattr(FlowStore, "write_range", counting_write)
    patch.setattr(QueryService, "__init__", counting_init)
    return calls


def test_cold_pass_builds_each_server_pool_at_most_once(cold_pass):
    *_, builds, _ = cold_pass
    assert builds, "flow sampling should draw server addresses"
    repeated = {key: n for key, n in builds.items() if n > 1}
    assert not repeated


def test_default_world_passes_every_check(cold_pass):
    results = cold_pass[3]
    assert sum(len(r.checks) for r in results) == DEFAULT_SEED_CHECKS
    failed = [
        (r.experiment_id, name)
        for r in results for name, ok in r.checks.items() if not ok
    ]
    assert failed == []
    assert not any(
        name.startswith("query engine:")
        for r in results for name in r.checks
    )


def test_warm_pass_seals_nothing_and_still_queries(cold_pass, monkeypatch):
    """Neither pass seals a store or starts a query service; the warm
    pass still reads every dataset, all from the cache."""
    scenario, config, cache, cold_results, _, cold_engine_use = cold_pass
    warm_engine_use = _count_engine_use(monkeypatch)
    misses, hits = cache.stats.misses, cache.stats.hits
    with datasets.use_cache(cache):
        results = run_all(scenario, config)
    assert cold_engine_use == Counter()
    assert warm_engine_use == Counter()
    assert cache.stats.misses == misses
    assert cache.stats.hits > hits
    assert [r.checks for r in results] == [r.checks for r in cold_results]


#: Fig. 7 growth rows whose checks must fail, not vanish, when absent.
_DROPPED_ROWS = (
    "UDP/443", "UDP/4500", "TCP/8080", "GRE", "ESP", "UDP/8801", "TCP/993",
    "UDP/2408",
)

_DEPENDENT_CHECKS = (
    "QUIC grows 30-80% at the ISP",
    "QUIC grows ~50% at the IXP",
    "UDP/4500 grows on workdays",
    "UDP/4500 weekend change negligible",
    "TCP/8080 sees no major change",
    "GRE/ESP decrease at the IXP-CE",
    "GRE slightly increases at the ISP",
    "Zoom grows by an order of magnitude at the ISP",
    "IMAP-TLS grows ~60% during working hours",
    "Cloudflare LB port flat",
)


def test_fig07_missing_growth_rows_fail_their_checks(cold_pass, monkeypatch):
    scenario, config, cache, cold_results, *_ = cold_pass
    (cold,) = [r for r in cold_results if r.experiment_id == "fig07"]
    port_growth = ports.port_growth

    def without_rows(*args, **kwargs):
        growth = port_growth(*args, **kwargs)
        return {k: v for k, v in growth.items() if k not in _DROPPED_ROWS}

    monkeypatch.setattr(ports, "port_growth", without_rows)
    with datasets.use_cache(cache):
        result = run_fig07(scenario, config)
    assert set(result.checks) == set(cold.checks)
    for name in _DEPENDENT_CHECKS:
        assert cold.checks[name] is True
        assert result.checks[name] is False, name
    for metric in ("isp-ce/quic-growth", "ixp-ce/udp4500-weekend",
                   "isp-ce/zoom-growth", "ixp-ce/cloudflare-growth"):
        assert math.isnan(result.metrics[metric])


# -- per-port, per-class and per-direction sums without sub-tables ---------

#: Experiments whose breakdowns read masked or per-key hourly sums.
_BREAKDOWN_FIGURES = ["fig07", "fig09", "fig12"]


def _sub_table_sums(patch: pytest.MonkeyPatch) -> None:
    """Answer every masked or per-key hourly sum through ``filter``.

    The reference path: each port, class or direction copies its rows
    into a sub-table and bins that, as Figs. 7, 9 and 12 did before the
    sums moved onto the parent table.
    """
    hourly_bytes = FlowTable.hourly_bytes
    hourly_connections = FlowTable.hourly_connections

    def bytes_via_filter(self, start, stop, where=None):
        table = self if where is None else self.filter(where)
        return hourly_bytes(table, start, stop)

    def connections_via_filter(self, start, stop, where=None):
        table = self if where is None else self.filter(where)
        return hourly_connections(table, start, stop)

    def bytes_by_via_filter(self, key, start, stop):
        keys = self.key_array(key)
        values = np.unique(keys)
        rows = [hourly_bytes(self.filter(keys == value), start, stop)
                for value in values]
        return values, np.array(rows, dtype=np.int64).reshape(
            len(values), stop - start
        )

    patch.setattr(FlowTable, "hourly_bytes", bytes_via_filter)
    patch.setattr(FlowTable, "hourly_connections", connections_via_filter)
    patch.setattr(FlowTable, "hourly_bytes_by", bytes_by_via_filter)


def _count_filters(patch: pytest.MonkeyPatch) -> Counter:
    calls: Counter = Counter()
    table_filter = FlowTable.filter

    def counting_filter(self, mask):
        calls["filter"] += 1
        return table_filter(self, mask)

    patch.setattr(FlowTable, "filter", counting_filter)
    return calls


def _assert_same(got, want, path: str) -> None:
    """Equal values, field by field; arrays and float reprs exactly."""
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), path
        assert got.dtype == want.dtype, path
        assert np.array_equal(got, want), path
    elif dataclasses.is_dataclass(want):
        assert type(got) is type(want), path
        for field in dataclasses.fields(want):
            _assert_same(getattr(got, field.name), getattr(want, field.name),
                         f"{path}.{field.name}")
    elif isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            _assert_same(got[key], want[key], f"{path}[{key!r}]")
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert repr(got) == repr(want), path
    else:
        assert got == want, path


def test_breakdown_figures_build_no_sub_tables(cold_pass):
    """The warm pass of Figs. 7, 9 and 12 copies no rows, and gives
    what the sub-table path gives: metrics, checks, text and data."""
    scenario, config, cache, *_ = cold_pass
    with pytest.MonkeyPatch.context() as patch:
        filters = _count_filters(patch)
        with datasets.use_cache(cache):
            results = run_all(
                scenario, config, experiment_ids=_BREAKDOWN_FIGURES
            )
    assert filters == Counter()
    with pytest.MonkeyPatch.context() as patch:
        filters = _count_filters(patch)
        _sub_table_sums(patch)
        with datasets.use_cache(cache):
            reference = run_all(
                scenario, config, experiment_ids=_BREAKDOWN_FIGURES
            )
    assert filters["filter"] > 0
    for got, want in zip(results, reference):
        assert got.experiment_id == want.experiment_id
        assert got.passed
        path = got.experiment_id
        assert got.checks == want.checks, path
        _assert_same(got.metrics, want.metrics, f"{path}.metrics")
        assert got.rendered == want.rendered, path
        _assert_same(got.data, want.data, f"{path}.data")


#: Figures that compare analysis weeks straight from the cached tables.
_WEEK_TABLE_FIGURES = ["fig07", "fig09", "fig10"]


def test_warm_week_figures_concatenate_nothing_and_build_no_index(
    cold_pass, monkeypatch
):
    """Figs. 7, 9 and 10 aggregate each cached week table in place: a
    second pass on one cache adds no ``FlowTable.concat`` and no group
    index, and mines no VPN candidates."""
    scenario, config, cache, *_ = cold_pass
    mined = Counter()
    mine = vpn.mine_vpn_candidates

    def counting_mine(*args, **kwargs):
        mined["calls"] += 1
        return mine(*args, **kwargs)

    monkeypatch.setattr(vpn, "mine_vpn_candidates", counting_mine)
    obs.configure(telemetry=True)
    try:
        with datasets.use_cache(cache):
            first = run_all(
                scenario, config, experiment_ids=_WEEK_TABLE_FIGURES
            )
            before = obs.get_registry().snapshot()["counters"]
            second = run_all(
                scenario, config, experiment_ids=_WEEK_TABLE_FIGURES
            )
            after = obs.get_registry().snapshot()["counters"]
    finally:
        obs.reset()
    assert all(result.passed for result in first + second)
    for name in ("table.concats", "groupby.index-builds"):
        assert after.get(name, 0) == before.get(name, 0), (name, after)
    # Telemetry was on, and the second pass read the cached indexes.
    assert after["groupby.index-reuses"] > before["groupby.index-reuses"]
    assert mined == Counter()


def test_fig09_membership_matches_reference(cold_pass):
    """Every Table 1 filter and class, and ``class_volumes``, on the
    cached Fig. 9 week tables against per-filter ``np.isin``."""
    requests, tables = _cached_requests(cold_pass, "fig09")
    classes = appclass.standard_classes()
    filters = {filt for cls in classes.values() for filt in cls.filters}
    for vantage, weeks in fig09.WEEKS.items():
        week_tables = [
            table for request, table in zip(requests, tables)
            if request.vantage == vantage
        ]
        assert len(week_tables) == len(weeks)
        for table in week_tables:
            for filt in filters:
                assert np.array_equal(
                    filt.mask(table), reference.filter_mask(filt, table)
                ), (vantage, filt)
            for name, app_class in classes.items():
                assert np.array_equal(
                    app_class.mask(table),
                    reference.class_mask(app_class, table),
                ), (vantage, name)
        got = appclass.class_volumes(week_tables, weeks.values(), classes)
        want = reference.class_volumes(week_tables, weeks.values(), classes)
        assert sorted(got) == sorted(want)
        for name, volume in got.items():
            assert np.array_equal(volume.values, want[name]), (vantage, name)
            assert want[name].any(), (vantage, name)


# -- query-engine parity on the Fig. 7/8 datasets ---------------------------


def _cached_requests(cold_pass, experiment_id: str):
    """The experiment's requests and tables, served by the pass's cache."""
    scenario, config, cache, *_ = cold_pass
    requests = get_spec(experiment_id).dataset_requests(scenario, config)
    misses = cache.stats.misses
    tables = [cache.fetch(scenario, request) for request in requests]
    assert cache.stats.misses == misses, "datasets should be cache hits"
    return requests, tables


def _run_query(store: FlowStore, spec: QuerySpec):
    with QueryService({spec.vantage: store}, workers=2) as service:
        outcome = service.run(spec, timeout=300.0)
    assert outcome.n_failed == 0
    return outcome


def _naive_port_mix(flows: FlowTable) -> Dict[str, int]:
    """Bytes per ``PROTO/port`` label in plain numpy, no group index.

    The service port is the non-ephemeral side of the flow (the
    destination when both or neither side is below 49152), zero for
    port-less protocols.
    """
    proto = flows.column("proto").astype(np.int64)
    src = flows.column("src_port").astype(np.int64)
    dst = flows.column("dst_port").astype(np.int64)
    service = np.where((src < 49152) & (dst >= 49152), src, dst)
    service[np.isin(proto, (PROTO_GRE, PROTO_ESP, PROTO_ICMP))] = 0
    keys, inverse = np.unique(proto * 65536 + service, return_inverse=True)
    sums = np.zeros(len(keys), dtype=np.int64)
    np.add.at(sums, inverse, flows.column("n_bytes"))
    mix: Dict[str, int] = {}
    for key, total in zip(keys, sums):
        label = transport_label(int(key))
        mix[label] = mix.get(label, 0) + int(total)
    return mix


@pytest.mark.parametrize("vantage", ["isp-ce", "ixp-ce"])
def test_fig07_port_mix_query_matches_batch_and_reference(
    cold_pass, tmp_path, vantage
):
    requests, tables = _cached_requests(cold_pass, "fig07")
    weeks = [
        (request, table) for request, table in zip(requests, tables)
        if request.vantage == vantage
    ]
    assert len(weeks) == 3
    # One range per analysis week: the weeks are disjoint, so the
    # planner must skip the days between them.
    store = FlowStore(tmp_path / vantage)
    for request, table in weeks:
        store.write_range(table, request.start, request.end)
    outcome = _run_query(store, QuerySpec.build(
        vantage,
        min(request.start for request, _ in weeks),
        max(request.end for request, _ in weeks),
        group_by=["transport"], aggregates=["bytes"],
    ))
    engine_mix: Dict[str, int] = {}
    for row in outcome.rows:
        label = transport_label(int(row["transport"]))
        engine_mix[label] = engine_mix.get(label, 0) + int(row["bytes"])
    flows = FlowTable.concat([table for _, table in weeks])
    assert engine_mix == flows.bytes_by_transport_key()
    assert engine_mix == _naive_port_mix(flows)


def test_fig08_hourly_query_matches_batch_and_reference(cold_pass, tmp_path):
    (request,), (flows,) = _cached_requests(cold_pass, "fig08")
    selected = appclass.standard_classes()["gaming"].select(flows)
    store = FlowStore(tmp_path / "ixp-se")
    store.write_range(selected, fig08.START, fig08.END)
    outcome = _run_query(store, QuerySpec.build(
        request.vantage, fig08.START, fig08.END,
        aggregates=["bytes", "distinct_dst_ips"], bucket="hour",
    ))
    start = timebase.hour_index(fig08.START, 0)
    stop = timebase.hour_index(fig08.END, 23) + 1
    hours = selected.column("hour")
    in_range = (hours >= start) & (hours < stop)
    assert in_range.any()

    engine_volume = outcome.hourly("bytes", start, stop)
    naive_volume = np.zeros(stop - start, dtype=np.int64)
    np.add.at(naive_volume, hours[in_range] - start,
              selected.column("n_bytes")[in_range])
    assert np.array_equal(engine_volume, selected.hourly_bytes(start, stop))
    assert np.array_equal(engine_volume, naive_volume)

    pairs = np.unique(np.stack(
        [hours[in_range] - start,
         selected.column("dst_ip")[in_range].astype(np.int64)],
        axis=1,
    ), axis=0)
    exact_ips = np.bincount(pairs[:, 0], minlength=stop - start)
    active = exact_ips > 0
    engine_ips = outcome.hourly("distinct_dst_ips", start, stop)
    mean_error = float(
        np.abs(engine_ips[active] / exact_ips[active] - 1.0).mean()
    )
    assert mean_error <= HLL_SERIES_TOLERANCE
