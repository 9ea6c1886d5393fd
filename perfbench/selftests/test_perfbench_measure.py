"""End to end on a tiny workload, and the no-program exit."""

import json
import os
import pathlib
import shutil
import subprocess
import sys

from fleetbench import layers, measure
from fleetbench.workloads import WORKLOADS, Workload, derive_seeds

from test_perfbench_proxy import tiny_spec

TINY = Workload(name="tiny", why="unit test", spec=tiny_spec, backend="service", setup_rounds=3)


def test_run_checks_counters_and_reports_every_latency():
    result = measure.run(TINY, seed=5, seconds=0.0)
    assert result.correct, result.problems
    assert result.failed == 0 and result.attempted > 0
    for name in ("setup_s", "run_s", "wave_ms_mean", "open_ms_mean", "churn_ms_p50",
                 "peak_rss_mb", "packets"):
        value, _unit = result.metrics[name]
        assert value > 0, name
    # Too few samples for any tail: withheld, with the count printed.
    assert "wave_ms_p95" not in result.metrics
    assert any("wave_ms_p95: n/a" in line for line in result.report)


def test_traced_run_reports_every_layer_and_self_times_fit():
    result = measure.run_traced(TINY, seed=5)
    assert result.correct, result.problems
    assert set(result.metrics) == {name for name, _ in layers.PER_LAYER}
    m = {name: value for name, (value, _unit) in result.metrics.items()}
    assert m["trace.self_sum_s"] <= m["trace.run_s"]
    assert m["compile.opens"] == 12
    assert m["frontdoor.calls"] == 0 and m["transport.frames"] == 0  # bypassed
    assert m["regions.batch_groups"] + m["regions.scalar_calls"] > 0
    assert m["churn.swept"] >= m["churn.invalidated"]


def test_seed_derives_every_input_and_metro_workloads_share_a_spec():
    assert derive_seeds(1) == derive_seeds(1)
    assert derive_seeds(1) != derive_seeds(2)
    assert WORKLOADS["metro_local"].spec(4) == WORKLOADS["metro_sharded"].spec(4)
    city = WORKLOADS["city_commute"].spec(4)
    _, poi_seed, graph_seed = derive_seeds(4)
    assert (city.space.poi_seed, city.space.graph_seed) == (poi_seed, graph_seed)


def test_exits_nonzero_without_the_program(tmp_path):
    bench = pathlib.Path(__file__).resolve().parents[1]
    shutil.copytree(bench, tmp_path / bench.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "metro_local", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        assert not line.startswith("{"), line
    json.loads((tmp_path / "BENCHMARK.json").read_text())  # the manifest itself is valid
