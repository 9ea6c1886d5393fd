"""Which calls the traced run wraps, and the per-layer metrics it reports.

Every wrapper sits on a public function or method of one layer (the
one exception is ``MPNService._serve_wave``, the only seam between a
wave's validation and its execution), installed for one traced stream
and removed before the program's own counters are read.  Code inside
:class:`~repro.transport.worker.ProcessCluster` workers runs in other
processes and is invisible here: on ``metro_sharded`` it shows up as
``transport.wait_s``.
"""

from __future__ import annotations

import inspect
from importlib import import_module

from fleetbench.tracing import Tracer, totals_by_name

#: RemoteBackend methods the front door calls, counted one by one.
FRONTDOOR_METHODS = (
    "open_session",
    "close_session",
    "attach_probes",
    "validate_events",
    "report_many",
    "update_pois",
    "session_metrics",
    "metrics",
)

#: Span names, one per layer boundary, in report order.
SPAN_NAMES = (
    "tick",
    "compile",
    "op.open_session",
    "op.report_many",
    "op.update_pois",
    "op.close_session",
    "frontdoor",
    "frontdoor.validate",
    "transport.send",
    "transport.recv",
    "transport.encode",
    "transport.decode",
    "api.codec",
    "service.validate",
    "service.wave",
    "service.renotify",
    "index.bulk_update",
    "regions.batch",
    "regions.scalar",
    "tile.verify",
    "charge",
    "index.kernel",
    "oracle.row",
    "network.node_distances",
)

#: Every per-layer metric, with its unit, in report order.
PER_LAYER = (
    [
        ("compile.s", "s"),
        ("compile.opens", "count"),
        ("compile.moves", "count"),
        ("runner.self_s", "s"),
        ("runner.escape_ratio", "ratio"),
        ("frontdoor.calls", "count"),
    ]
    + [(f"frontdoor.calls.{m}", "count") for m in FRONTDOOR_METHODS]
    + [
        ("frontdoor.validate_s", "s"),
        ("frontdoor.shards_per_wave", "count"),
        ("transport.encode_s", "s"),
        ("transport.decode_s", "s"),
        ("transport.frames", "count"),
        ("transport.bytes_out", "bytes"),
        ("transport.bytes_in", "bytes"),
        ("transport.wait_s", "s"),
        ("api.codec_s", "s"),
        ("service.validate_s", "s"),
        ("service.wave_s", "s"),
        ("service.renotify_s", "s"),
        ("index.bulk_update_s", "s"),
        ("regions.batch_calls", "count"),
        ("regions.batch_groups", "count"),
        ("regions.batch_s", "s"),
        ("regions.scalar_calls", "count"),
        ("regions.scalar_s", "s"),
        ("regions.batch_fill", "ratio"),
        ("tile.verify_calls", "count"),
        ("tile.verify_s", "s"),
        ("charge.calls", "count"),
        ("charge.s", "s"),
        ("churn.swept", "count"),
        ("churn.valid_checks", "count"),
        ("churn.invalidated", "count"),
        ("churn.hit_ratio", "ratio"),
        ("index.kernel_calls", "count"),
        ("index.kernel_s", "s"),
        ("index.node_accesses", "count"),
        ("index.queries", "count"),
        ("oracle.hits", "count"),
        ("oracle.misses", "count"),
        ("oracle.hit_ratio", "ratio"),
        ("oracle.evictions", "count"),
        ("oracle.resident_bytes", "bytes"),
        ("oracle.row_s", "s"),
        ("network.node_distances_calls", "count"),
        ("network.node_distances_s", "s"),
    ]
    + [(f"self.{name}", "s") for name in SPAN_NAMES]
    + [
        ("trace.run_s", "s"),
        ("trace.untraced_run_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.self_sum_s", "s"),
        ("trace.spans", "count"),
    ]
)


def instrument(tracer: Tracer) -> None:
    """Install every layer wrapper on ``tracer`` (undo: ``tracer.restore``)."""
    counts = tracer.counts

    # service: validation, the wave, the Lemma-1 sweep, index mutation.
    service_cls = import_module("repro.service.service").MPNService
    tracer.patch_attr(service_cls, "validate_events", "service.validate")
    tracer.patch_attr(service_cls, "_serve_wave", "service.wave")
    tracer.patch_attr(service_cls, "renotify_pois", "service.renotify")
    for mod, cls in (
        ("repro.space", "SharedSpace"),
        ("repro.space.euclidean", "EuclideanSpace"),
        ("repro.space.network", "NetworkPOISpace"),
    ):
        tracer.patch_attr(getattr(import_module(mod), cls), "bulk_update", "index.bulk_update")
    tracer.patch_attr(
        import_module("repro.service.session").ServiceSession,
        "region_valid_against",
        "churn.valid_check",
        count="churn.valid_checks",
        span=False,
    )

    # service.strategies: batched versus scalar region builds.
    def batch_groups(args, _out):
        counts["regions.batch_groups"] += len(args[1])

    strategies = import_module("repro.service.strategies")
    network_strategies = import_module("repro.network_ext.strategies")
    for cls in (
        strategies.CircleMSRStrategy,
        strategies.TileMSRStrategy,
        strategies.PeriodicStrategy,
        network_strategies.NetworkCircleStrategy,
        network_strategies.NetworkTileStrategy,
    ):
        if "build_regions_batch" in cls.__dict__:
            tracer.patch_attr(
                cls,
                "build_regions_batch",
                "regions.batch",
                count="regions.batch_calls",
                observe=batch_groups,
            )
        tracer.patch_attr(cls, "compute", "regions.scalar", count="regions.scalar_calls")

    # core: Tile verification.
    gt_verify = import_module("repro.core.gt_verify")
    for fn in ("it_verify", "exact_verify", "gt_verify"):
        tracer.patch_function(gt_verify, fn, "tile.verify", count="tile.verify_calls")
    tracer.patch_attr(gt_verify.MaxVerifier, "verify", "tile.verify", count="tile.verify_calls")
    tracer.patch_attr(
        import_module("repro.core.sum_verify").SumVerifier,
        "verify",
        "tile.verify",
        count="tile.verify_calls",
    )

    # simulation.metrics: per-message and per-update charging.
    metrics_cls = import_module("repro.simulation.metrics").SimulationMetrics
    for attr in ("record_message", "charge_update"):
        tracer.patch_attr(metrics_cls, attr, "charge", count="charge.calls")

    # index: the vectorized kernels (generators are skipped: a span
    # around one would time only its creation).
    kernels = import_module("repro.index.kernels")
    for name, fn in vars(kernels).items():
        if (
            inspect.isfunction(fn)
            and fn.__module__ == kernels.__name__
            and not name.startswith("_")
            and not inspect.isgeneratorfunction(fn)
        ):
            tracer.patch_function(kernels, name, "index.kernel", count="index.kernel_calls")

    # index.oracle / network_ext: road-network distances.
    oracle_cls = import_module("repro.index.oracle").DistanceOracle
    for attr in ("row", "rows", "bounded_row"):
        tracer.patch_attr(oracle_cls, attr, "oracle.row")
    net_space = import_module("repro.network_ext.space").NetworkSpace
    for attr in ("node_distances", "node_distances_within"):
        tracer.patch_attr(
            net_space, attr, "network.node_distances", count="network.node_distances_calls"
        )

    # front door: ProcessCluster's calls into its per-worker backends.
    remote = import_module("repro.transport.client").RemoteBackend
    for method in FRONTDOOR_METHODS:
        tracer.patch_attr(
            remote,
            method,
            "frontdoor.validate" if method == "validate_events" else "frontdoor",
            count=f"frontdoor.calls.{method}",
        )

    # transport: framing, codecs and the blocking socket.
    def sent(_args, frame):
        counts["transport.frames"] += 1
        counts["transport.bytes_out"] += len(frame)

    def received(args, _out):
        counts["transport.frames"] += 1
        counts["transport.bytes_in"] += len(args[0])

    framing = import_module("repro.transport.framing")
    tracer.patch_function(framing, "encode_frame", "transport.encode", observe=sent)
    tracer.patch_function(framing, "decode_body", "transport.decode", observe=received)
    tracer.patch_attr(framing.SyncFrameStream, "send", "transport.send")
    tracer.patch_attr(framing.SyncFrameStream, "recv", "transport.recv")

    # service.api: envelope <-> dict codecs.
    api = import_module("repro.service.api")
    for fn in ("request_from_dict", "response_from_dict"):
        tracer.patch_function(api, fn, "api.codec")
    for value in list(vars(api).values()):
        if inspect.isclass(value) and value.__module__ == api.__name__:
            for attr in ("to_dict", "from_dict", "live_regions"):
                if attr in value.__dict__:
                    tracer.patch_attr(value, attr, "api.codec")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    *,
    backend,
    waves: int,
    wave_events: int,
    traced_run_s: float,
) -> dict[str, float]:
    """Per-layer metrics of one traced stream (patches already removed).

    The ``trace.untraced_run_s`` and ``trace.overhead_s`` entries need
    the untraced stream; the caller fills them in.
    """
    c = tracer.counts
    inclusive, own = totals_by_name(tracer.spans)
    metrics = backend.metrics
    oracle = {"row_cache_hits": 0, "row_cache_misses": 0, "row_cache_evictions": 0,
              "resident_bytes": 0}
    oracle_stats = getattr(backend, "oracle_stats", None)
    if callable(oracle_stats):
        for stats in oracle_stats().values():
            for key in oracle:
                oracle[key] += stats[key]
    hits, misses = oracle["row_cache_hits"], oracle["row_cache_misses"]
    batch_groups = c["regions.batch_groups"]
    out = {
        "compile.s": inclusive.get("compile", 0.0),
        "compile.opens": c["compile.opens"],
        "compile.moves": c["compile.moves"],
        "runner.self_s": own.get("tick", 0.0),
        "runner.escape_ratio": _ratio(wave_events, c["compile.moves"]),
        "frontdoor.calls": sum(c[f"frontdoor.calls.{m}"] for m in FRONTDOOR_METHODS),
        "frontdoor.validate_s": inclusive.get("frontdoor.validate", 0.0),
        "frontdoor.shards_per_wave": _ratio(c["frontdoor.calls.report_many"], waves),
        "transport.encode_s": inclusive.get("transport.encode", 0.0),
        "transport.decode_s": inclusive.get("transport.decode", 0.0),
        "transport.frames": c["transport.frames"],
        "transport.bytes_out": c["transport.bytes_out"],
        "transport.bytes_in": c["transport.bytes_in"],
        "transport.wait_s": own.get("transport.recv", 0.0),
        "api.codec_s": inclusive.get("api.codec", 0.0),
        "service.validate_s": inclusive.get("service.validate", 0.0),
        "service.wave_s": inclusive.get("service.wave", 0.0),
        "service.renotify_s": inclusive.get("service.renotify", 0.0),
        "index.bulk_update_s": inclusive.get("index.bulk_update", 0.0),
        "regions.batch_calls": c["regions.batch_calls"],
        "regions.batch_groups": batch_groups,
        "regions.batch_s": inclusive.get("regions.batch", 0.0),
        "regions.scalar_calls": c["regions.scalar_calls"],
        "regions.scalar_s": inclusive.get("regions.scalar", 0.0),
        "regions.batch_fill": _ratio(batch_groups, batch_groups + c["regions.scalar_calls"]),
        "tile.verify_calls": c["tile.verify_calls"],
        "tile.verify_s": inclusive.get("tile.verify", 0.0),
        "charge.calls": c["charge.calls"],
        "charge.s": inclusive.get("charge", 0.0),
        "churn.swept": c["churn.swept"],
        "churn.valid_checks": c["churn.valid_checks"],
        "churn.invalidated": c["churn.invalidated"],
        "churn.hit_ratio": _ratio(c["churn.invalidated"], c["churn.swept"]),
        "index.kernel_calls": c["index.kernel_calls"],
        "index.kernel_s": inclusive.get("index.kernel", 0.0),
        "index.node_accesses": metrics.index_node_accesses,
        "index.queries": metrics.index_queries,
        "oracle.hits": hits,
        "oracle.misses": misses,
        "oracle.hit_ratio": _ratio(hits, hits + misses),
        "oracle.evictions": oracle["row_cache_evictions"],
        "oracle.resident_bytes": oracle["resident_bytes"],
        "oracle.row_s": inclusive.get("oracle.row", 0.0),
        "network.node_distances_calls": c["network.node_distances_calls"],
        "network.node_distances_s": inclusive.get("network.node_distances", 0.0),
        "trace.run_s": traced_run_s,
        "trace.self_sum_s": sum(own.values()),
        "trace.spans": len(tracer.spans),
    }
    for method in FRONTDOOR_METHODS:
        out[f"frontdoor.calls.{method}"] = c[f"frontdoor.calls.{method}"]
    for name in SPAN_NAMES:
        out[f"self.{name}"] = own.get(name, 0.0)
    return out
