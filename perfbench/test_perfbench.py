"""Tests of the benchmark's own code.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import datetime as _dt
import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.experiments import all_specs  # noqa: E402
from repro.flows.store import FlowStore  # noqa: E402
from repro.flows.table import FlowTable  # noqa: E402
from repro.query import QuerySpec, execute_query  # noqa: E402

from perfbench import specs as S  # noqa: E402
from perfbench.common import Layers  # noqa: E402
from perfbench.reference import Reference, mismatch  # noqa: E402
from perfbench.workloads import WORKLOADS, Dashboard, store_ratio  # noqa: E402


def _stream(seed: int, n: int = 300):
    return [(shape, spec.fingerprint()) for shape, spec in
            itertools.islice(S.dashboard_stream(seed), n)]


def test_same_seed_same_stream():
    assert _stream(7) == _stream(7)
    bulk = [s.fingerprint() for s in itertools.islice(S.bulk_stream(7), 50)]
    assert bulk == [s.fingerprint()
                    for s in itertools.islice(S.bulk_stream(7), 50)]


def test_different_seed_different_stream():
    assert _stream(7) != _stream(8)


def test_stream_mix_and_cache_pressure():
    stream = _stream(3, 4000)
    shares = {name: share for name, share in S.SHARES}
    for name in shares:
        seen = sum(1 for shape, _ in stream if shape == name) / len(stream)
        assert abs(seen - shares[name]) < 0.03, name
    fresh = {fp for shape, fp in stream if shape != "repeat"}
    assert len(fresh) > 3 * 128  # far more specs than the result cache


@pytest.fixture(scope="module")
def two_setups(tmp_path_factory):
    """The dashboard's set-up made twice from one seed."""
    made = []
    for index in range(2):
        workload = Dashboard(11, tmp_path_factory.mktemp(f"setup{index}"))
        workload.setup()
        workload.service.close()
        made.append(workload)
    yield made
    for workload in made:
        shutil.rmtree(workload.store.root, ignore_errors=True)


def test_same_seed_same_store(two_setups):
    a, b = two_setups
    assert a.store.state_token() == b.store.state_token()
    assert store_ratio(a.store, a.table.nbytes) == \
        store_ratio(b.store, b.table.nbytes)


def test_same_seed_same_reference(two_setups):
    a, b = two_setups
    ref_a, ref_b = Reference(a.table), Reference(b.table)
    for shape in S.SHAPES:
        spec = S.shape_pool(shape)[5]
        assert ref_a.answer(spec) == ref_b.answer(spec)


def test_reference_agrees_with_engine_on_store(two_setups):
    """Every dashboard shape, checked end to end on the real store."""
    workload = two_setups[0]
    reference = Reference(workload.table)
    for shape in S.SHAPES:
        for spec in S.shape_pool(shape)[::40]:
            result = execute_query(workload.store, spec)
            assert result.rows, spec.describe()
            assert mismatch(spec, reference.answer(spec), result.rows,
                            result.hll_error) == "", spec.describe()


DAY = _dt.date(2020, 3, 2)


def _small_table() -> FlowTable:
    """Three days of hand-made flows covering every key shape."""
    rng = np.random.default_rng(5)
    n = 3000
    hour0 = (DAY - _dt.date(2020, 1, 1)).days * 24
    proto = rng.choice(np.array([1, 6, 17, 47, 50], dtype=np.int16), n)
    return FlowTable.from_arrays(
        hour=np.sort(hour0 + rng.integers(0, 72, n)).astype(np.int64),
        src_ip=rng.integers(0, 2**32, n, dtype=np.uint32),
        dst_ip=rng.integers(0, 400, n).astype(np.uint32) + 10**9,
        src_asn=rng.integers(1, 20, n).astype(np.int64),
        dst_asn=rng.integers(1, 20, n).astype(np.int64),
        proto=proto,
        src_port=rng.choice([443, 80, 50000, 60000, 4500], n).astype(np.int32),
        dst_port=rng.choice([443, 53, 51000, 8080], n).astype(np.int32),
        n_bytes=rng.integers(40, 2**40, n).astype(np.int64),
        n_packets=rng.integers(1, 1000, n).astype(np.int64),
        connections=rng.integers(1, 5, n).astype(np.int64),
    )


@pytest.fixture(scope="module")
def small_store(tmp_path_factory):
    table = _small_table()
    store = FlowStore(tmp_path_factory.mktemp("small") / "v")
    store.write_range(table, DAY, DAY + _dt.timedelta(days=2))
    return table, store


SMALL_SPECS = [
    dict(aggregates=["bytes", "flows"], bucket="hour"),
    dict(aggregates=["bytes"], where={"hour": {"min": 1466, "max": 1480}}),
    dict(group_by=["proto"], aggregates=["bytes", "packets"]),
    dict(group_by=["service_port"], where={"proto": [6, 17]},
         aggregates=["bytes", "flows", "connections"], bucket="day"),
    dict(group_by=["transport", "dst_asn"], aggregates=["bytes"]),
    dict(group_by=["transport"], aggregates=["bytes", "distinct_dst_ips"]),
    dict(aggregates=["distinct_src_ips", "distinct_dst_ips"], bucket="day"),
    dict(where={"proto": 99}, aggregates=["bytes"]),
]


@pytest.mark.parametrize("kwargs", SMALL_SPECS)
def test_reference_agrees_with_engine(small_store, kwargs):
    table, store = small_store
    spec = QuerySpec.build("v", DAY, DAY + _dt.timedelta(days=2), **kwargs)
    result = execute_query(store, spec)
    expected = Reference(table).answer(spec)
    assert mismatch(spec, expected, result.rows, result.hll_error) == ""
    exact = [a for a in spec.aggregates if not a.startswith("distinct")]
    for want, have in zip(expected, result.rows):
        assert {a: want[a] for a in exact} == {a: have[a] for a in exact}


def test_mismatch_flags_wrong_answers(small_store):
    table, store = small_store
    spec = QuerySpec.build("v", DAY, DAY, group_by=["transport"],
                           aggregates=["bytes", "distinct_dst_ips"])
    expected = Reference(table).answer(spec)
    rows = [dict(row) for row in execute_query(store, spec).rows]
    assert mismatch(spec, expected, rows[1:], 0.016)
    rows[0]["bytes"] += 1
    assert "bytes" in mismatch(spec, expected, rows, 0.016)
    rows[0]["bytes"] -= 1
    rows[0]["distinct_dst_ips"] = 2 * expected[0]["distinct_dst_ips"] + 10
    assert "distinct_dst_ips" in mismatch(spec, expected, rows, 0.016)


def test_layers_sum_to_wall():
    layers = Layers()
    layers.wall = 10.0
    layers.add("synth", 2.5)
    layers.add("query", 4.0)
    parts = layers.metrics()
    total = sum(v for k, v in parts.items() if k != "layer.wall_s")
    assert total == pytest.approx(parts["layer.wall_s"])


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]


def test_benchmark_json_names_the_workloads_and_layers():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for spec in all_specs():
        assert f"experiments.{spec.id}_s" in PER_LAYER
    for shape in S.SHAPES:
        assert f"query.scan_ms.{shape}" in PER_LAYER


def test_fails_without_the_program(tmp_path):
    """In a copy holding only the benchmark, it exits non-zero quietly."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dashboard",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric(trace):
    """A short run: the last line names every metric; layers add up."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "dashboard", "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == (PER_LAYER if trace else END_TO_END)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        parts = sum(v for k, v in values.items()
                    if k.startswith("layer.") and k != "layer.wall_s")
        assert parts == pytest.approx(values["layer.wall_s"])
    else:
        assert all(v > 0 for v in values.values())


def _record(path: Path, cores: int, ops: float) -> str:
    env = {"cores": cores, "start_method": "fork", "python": "3.11.7",
           "numpy": "2.0", "sha": "x", "src_digest": "y"}
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
               for m in BENCHMARK["end_to_end"]}
    metrics["ops_per_s"]["value"] = ops
    path.write_text(json.dumps({"workload": "dashboard", "trace": 0,
                                "env": env, "metrics": metrics}))
    return str(path)


def test_compare_refuses_other_environments(tmp_path, capsys):
    from perfbench import compare

    base = _record(tmp_path / "a.json", 2, 10.0)
    same = _record(tmp_path / "b.json", 2, 9.0)
    slower = _record(tmp_path / "c.json", 2, 5.0)
    other = _record(tmp_path / "d.json", 4, 9.0)
    assert compare.main(["--base", base, "--new", same]) == 0
    assert compare.main(["--base", base, "--new", slower]) == 1
    assert compare.main(["--base", base, "--new", other]) == 2
    assert "not comparable" in capsys.readouterr().out
