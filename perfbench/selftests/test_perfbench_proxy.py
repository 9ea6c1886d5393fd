"""The timing proxy forwards everything and counts failed calls."""

import pytest

from fleetbench.proxy import OPERATIONS, TimedBackend
from repro.scenarios import (
    CohortSpec,
    EuclideanSpaceSpec,
    PoiChurnSpec,
    ScenarioRecorder,
    ScenarioSpec,
    run_scenario,
)
from repro.service.service import MPNService


def tiny_spec(seed: int = 3) -> ScenarioSpec:
    return ScenarioSpec(
        name="tiny",
        seed=seed,
        ticks=8,
        space=EuclideanSpaceSpec(world=(0.0, 0.0, 2000.0, 2000.0), n_pois=80, poi_seed=seed),
        cohorts=(
            CohortSpec(
                name="pairs",
                kind="wanderer",
                sessions=12,
                group_size=2,
                first_tick=0,
                last_tick=4,
                lifetime=3,
                speed=40.0,
            ),
        ),
        poi_churn=PoiChurnSpec(every=2, adds=3, removes=1),
    )


class FakeBackend:
    def __init__(self):
        self.metrics = object()
        self.loads = [object()]

    def session_metrics(self, session_id):
        return ("metrics-of", session_id)

    def shard_loads(self):
        return self.loads

    def report_many(self, events):
        raise RuntimeError("worker died mid-wave")


def test_proxy_forwards_what_runner_and_recorder_read():
    backend = FakeBackend()
    proxy = TimedBackend(backend)
    assert proxy.metrics is backend.metrics
    assert proxy.session_metrics(7) == ("metrics-of", 7)
    assert proxy.shard_loads() is backend.loads
    with pytest.raises(AttributeError):
        proxy.no_such_method


def test_raising_call_counts_as_failed_and_records_no_latency():
    proxy = TimedBackend(FakeBackend())
    with pytest.raises(RuntimeError):
        proxy.report_many([])
    assert (proxy.attempted, proxy.failed) == (1, 1)
    assert proxy.samples["report_many"] == []


def test_proxy_times_each_operation_separately_on_a_real_run():
    spec = tiny_spec()
    service = MPNService(spec.space())
    proxy = TimedBackend(service)
    recorder = ScenarioRecorder(backend=proxy)
    result = run_scenario(spec, proxy, recorder=recorder, spot_check_fraction=0.5)
    assert result.spot_check.clean
    assert len(proxy.samples["open_session"]) == spec.total_sessions()
    assert len(proxy.samples["close_session"]) == len(proxy.samples["open_session"]) - len(
        service.session_ids()
    )
    assert len(proxy.samples["update_pois"]) == 3  # ticks 2, 4, 6
    assert proxy.samples["report_many"]
    assert proxy.attempted == sum(len(proxy.samples[op]) for op in OPERATIONS)
    assert proxy.failed == 0
    # The recorder read the service's metrics through the proxy.
    assert recorder.summary()["final_shard_scores"] is not None
