"""Run one workload: set up, stream, check, and summarize.

The load is a closed loop: one client process streams one tick at a
time, because tick t+1's client-side escape detection needs the
regions tick t's notifications installed.  A run streams the whole
scenario repeatedly until ``seconds`` of streaming are spent (at least
``MIN_STREAMS`` times), times every set-up, and checks every stream:

* the seeded spot-check replay against a fresh ``MPNService`` is clean;
* the integer counters (messages, packets, result changes,
  notifications, ...) repeat exactly from stream to stream;
* on ``metro_sharded``, they equal those of one in-process
  ``MPNService`` streaming the identical spec (``metro_local``'s run).

The traced run streams once untraced and once traced: the difference
in ``run_s`` is the tracing overhead, and the two streams' counters
must agree (tracing changes no notification).
"""

from __future__ import annotations

import dataclasses
import resource
import statistics
import time
from dataclasses import dataclass, field

from fleetbench import layers
from fleetbench.proxy import TimedBackend
from fleetbench.stats import beyond, latency_ms
from fleetbench.tracing import Tracer
from fleetbench.workloads import SHARDS, Workload
from repro.scenarios import ScenarioSpec, TickStats, compile_spec, run_scenario
from repro.scenarios.runner import counters

#: Share of sessions the spot-check replays, and its cap per stream.
SPOT_FRACTION = 0.05
SPOT_CAP = 48

#: Full streams per run however long they take: the counter check
#: compares two.
MIN_STREAMS = 2

#: Percentiles reported per operation (the tail only where allowed).
REPORTED = {
    "wave": ("report_many", (50, 95)),
    "open": ("open_session", (50, 99)),
    "churn": ("update_pois", (50, 90)),
    "close": ("close_session", (50, 99)),
}


@dataclass
class Stream:
    """What one full stream of the scenario produced."""

    setup_s: float
    run_s: float
    samples: dict
    counters: dict
    attempted: int
    failed: int
    waves: int = 0
    wave_events: int = 0
    peak_live: int = 0
    layer: dict = field(default_factory=dict)


class TickClock:
    """The runner's recorder protocol, reduced to tick boundaries."""

    def __init__(self, on_end):
        self._on_end = on_end

    def begin_tick(self, tick: int) -> TickStats:
        return TickStats(tick=tick)

    def end_tick(self) -> None:
        self._on_end()

    def summary(self) -> None:
        return None


def _backend(workload: Workload, spec: ScenarioSpec):
    """A fresh backend for ``spec`` and the callable that stops it."""
    if workload.backend == "service":
        from repro.service.service import MPNService

        return MPNService(spec.space()), lambda: None
    from repro.transport.worker import ProcessCluster

    cluster = ProcessCluster(SHARDS, spec.space)
    return cluster, cluster.close


def set_up(workload: Workload, spec: ScenarioSpec):
    """``(backend, close, compiled, seconds)``: space, index, any
    workers and the compiled schedule, up to the first tick."""
    start = time.perf_counter()
    backend, close = _backend(workload, spec)
    try:
        compiled = compile_spec(spec)
    except BaseException:
        close()
        raise
    return backend, close, compiled, time.perf_counter() - start


def fleet_counters(backend, result) -> dict:
    """Every integer counter of a stream that must repeat exactly."""
    out = counters(backend.metrics)
    out.update(
        opened=result.total_opened,
        wave_events=result.total_wave_events,
        notifications=result.total_notifications,
        churn_notifications=result.total_churn_notifications,
    )
    return out


def stream(workload: Workload, spec: ScenarioSpec, tracer: Tracer | None = None) -> Stream:
    """Set up, stream every tick, read the counters, stop the backend."""
    backend, close, compiled, setup_s = set_up(workload, spec)
    proxy = TimedBackend(backend)
    try:
        if tracer is None:
            result = run_scenario(
                compiled,
                proxy,
                spot_check_fraction=SPOT_FRACTION,
                spot_check_cap=SPOT_CAP,
            )
        else:
            result = _traced_run(compiled, proxy, tracer)
        spot = result.spot_check
        out = Stream(
            setup_s=setup_s,
            run_s=result.elapsed_seconds,
            samples=proxy.samples,
            counters=fleet_counters(backend, result),
            attempted=proxy.attempted + (spot.sampled_sessions if spot else 0),
            failed=proxy.failed + (len(spot.mismatched_sessions) if spot else 0),
            waves=len(proxy.samples["report_many"]),
            wave_events=result.total_wave_events,
            peak_live=result.peak_live,
        )
        if tracer is not None:
            out.layer = layers.layer_metrics(
                tracer,
                backend=backend,
                waves=out.waves,
                wave_events=out.wave_events,
                traced_run_s=out.run_s,
            )
        return out
    finally:
        close()


def _traced_run(compiled, proxy: TimedBackend, tracer: Tracer):
    """Stream with every layer wrapper installed; remove them after."""
    counts = tracer.counts
    untraced_ticks = compiled.ticks
    roots: list[int] = []  # the open tick span, closed at end_tick

    def traced_ticks():
        ticks = untraced_ticks()
        while True:
            root = tracer.begin("tick")
            roots.append(root)
            try:
                events = tracer.call("compile", next, ticks)
            except StopIteration:
                tracer.end(roots.pop())
                return
            tracer.trace_id = events.tick
            tracer.spans[root].trace_id = events.tick
            tracer.spans[root + 1].trace_id = events.tick
            counts["compile.opens"] += len(events.opens)
            counts["compile.moves"] += len(events.moves)
            yield events

    def end_tick():
        tracer.end(roots.pop())

    def on_call(op, call):
        if op == "update_pois":
            counts["churn.swept"] += counts["live"]
        out = tracer.call(f"op.{op}", call)
        if op == "open_session":
            counts["live"] += 1
        elif op == "close_session":
            counts["live"] -= 1
        elif op == "update_pois":
            counts["churn.invalidated"] += len(out)
        return out

    compiled.ticks = traced_ticks
    proxy.on_call = on_call
    layers.instrument(tracer)
    try:
        return run_scenario(compiled, proxy, recorder=TickClock(end_tick))
    finally:
        tracer.restore()


def peak_rss_mb() -> float:
    """Highest peak RSS of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    report: list  # human-readable lines
    problems: list


def _latency_lines(streams: list[Stream], workload: Workload) -> tuple[dict, list]:
    """The per-operation latency metrics and their report lines."""
    metrics, lines = {}, []
    for label, (op, quantiles) in REPORTED.items():
        pooled = [s for st in streams for s in st.samples[op]]
        if label == "close" and workload.backend == "service":
            lines.append(f"  close_ms_*: not reported in-process (n={len(pooled)}, microseconds)")
            continue
        if pooled:
            mean = statistics.fmean(pooled) * 1000.0
            metrics[f"{label}_ms_mean"] = (mean, "ms")
            lines.append(f"  {label}_ms_mean: {mean:.4f} ms (n={len(pooled)})")
        for q in quantiles:
            name = f"{label}_ms_p{q}"
            value = latency_ms(pooled, q)
            if value is None:
                lines.append(
                    f"  {name}: n/a (n={len(pooled)}; p{q} needs 10 samples beyond it, "
                    f"has {beyond(len(pooled), q) if pooled else 0})"
                )
                continue
            metrics[name] = (value, "ms")
            extra = f", {beyond(len(pooled), q)} beyond" if q != 50 else ""
            lines.append(f"  {name}: {value:.4f} ms (n={len(pooled)}{extra})")
    return metrics, lines


def run(workload: Workload, seed: int, seconds: float) -> RunResult:
    """The untimed warm-up, the timed streams and set-ups, the checks."""
    spec = workload.spec(seed)
    _warm_up(workload, spec)
    streams: list[Stream] = []
    measured = 0.0
    while len(streams) < MIN_STREAMS or measured + streams[-1].run_s <= seconds:
        streams.append(stream(workload, spec))
        measured += streams[-1].run_s
    setups = [st.setup_s for st in streams]
    while len(setups) < workload.setup_rounds:
        _, close, _, seconds_taken = set_up(workload, spec)
        close()
        setups.append(seconds_taken)
    rss = peak_rss_mb()

    problems = []
    attempted = sum(st.attempted for st in streams)
    failed = sum(st.failed for st in streams)
    if any(st.failed for st in streams):
        problems.append("failed dispatch calls or diverged spot-check sessions")
    first = streams[0].counters
    for i, st in enumerate(streams[1:], start=2):
        attempted += 1
        if st.counters != first:
            failed += 1
            problems.append(f"stream {i} counters differ from stream 1: "
                            + _diff(first, st.counters))
    if workload.backend == "process":
        reference = stream(dataclasses.replace(workload, backend="service"), spec)
        attempted += reference.attempted + 1
        failed += reference.failed
        if reference.failed:
            problems.append("the in-process reference stream failed calls or spot-checks")
        if reference.counters != first:
            failed += 1
            problems.append(
                "counters differ from one in-process MPNService: "
                + _diff(reference.counters, first)
            )

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(st.run_s for st in streams), "s"),
    }
    latency, latency_report = _latency_lines(streams, workload)
    metrics.update(latency)
    metrics["peak_rss_mb"] = (rss, "MB")
    metrics["packets"] = (first["packets_up"] + first["packets_down"], "count")
    metrics["failed_ops"] = (failed / attempted, "share")

    spec_line = (
        f"{workload.name}: seed {seed}, {spec.total_sessions()} sessions over {spec.ticks} "
        f"ticks (peak live {streams[0].peak_live}), {len(streams)} streams, "
        f"{len(setups)} set-ups"
    )
    report = [spec_line]
    report += [f"  setup_s: {metrics['setup_s'][0]:.4f} s (median of {len(setups)})"]
    report += [
        f"  run_s: {metrics['run_s'][0]:.4f} s (median of {len(streams)}: "
        + ", ".join(f"{st.run_s:.2f}" for st in streams)
        + ")"
    ]
    report += latency_report
    report += [
        f"  peak_rss_mb: {rss:.1f} MB",
        f"  packets: {metrics['packets'][0]} count (per stream; "
        f"messages {first['messages_up'] + first['messages_down']}, "
        f"result_changes {first['result_changes']}, notifications {first['notifications']})",
        f"  failed_ops: {failed}/{attempted} share",
    ]
    return RunResult(
        correct=not problems,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        report=report,
        problems=problems,
    )


def run_traced(workload: Workload, seed: int) -> RunResult:
    """One untraced and one traced stream; the per-layer metrics."""
    spec = workload.spec(seed)
    _warm_up(workload, spec)
    plain = stream(workload, spec)
    traced = stream(workload, spec, tracer=Tracer())
    layer = traced.layer
    layer["trace.untraced_run_s"] = plain.run_s
    layer["trace.overhead_s"] = traced.run_s - plain.run_s
    problems = []
    attempted = plain.attempted + traced.attempted + 1
    failed = plain.failed + traced.failed
    if plain.failed or traced.failed:
        problems.append("failed dispatch calls or diverged spot-check sessions")
    if traced.counters != plain.counters:
        failed += 1
        problems.append("tracing changed the counters: " + _diff(plain.counters, traced.counters))
    attempted += 1
    if layer["trace.self_sum_s"] > layer["trace.run_s"]:
        failed += 1
        problems.append("per-layer self times sum to more than the traced run_s")
    units = dict(layers.PER_LAYER)
    metrics = {name: (layer[name], units[name]) for name, _ in layers.PER_LAYER}
    report = [
        f"{workload.name} (traced): seed {seed}, run_s untraced {plain.run_s:.3f} s, "
        f"traced {traced.run_s:.3f} s, overhead {layer['trace.overhead_s']:.3f} s, "
        f"{layer['trace.spans']} spans",
        "  self time by layer (s, share of traced run_s):",
    ]
    for name in layers.SPAN_NAMES:
        own = layer[f"self.{name}"]
        if own:
            report.append(f"    {name:<24} {own:10.4f}  {own / traced.run_s:6.1%}")
    report.append(
        f"    {'sum':<24} {layer['trace.self_sum_s']:10.4f}  "
        f"{layer['trace.self_sum_s'] / traced.run_s:6.1%}"
    )
    return RunResult(
        correct=not problems,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        report=report,
        problems=problems,
    )


def _warm_up(workload: Workload, spec: ScenarioSpec) -> None:
    """Untimed: import every module a set-up touches, fill lazy caches."""
    spec.space()
    compile_spec(spec)
    if workload.backend == "process":
        import repro.transport.worker  # noqa: F401


def _diff(want: dict, got: dict) -> str:
    return ", ".join(
        f"{key} {want.get(key)} != {got.get(key)}"
        for key in sorted(set(want) | set(got))
        if want.get(key) != got.get(key)
    )

