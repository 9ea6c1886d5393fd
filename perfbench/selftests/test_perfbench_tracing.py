"""Spans: self time, same-name pass-through, patch and restore."""

import pytest

from fleetbench.tracing import Span, Tracer, covered, self_times, totals_by_name


def test_self_time_subtracts_overlapping_children_once():
    spans = [
        Span("tick", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),  # overlaps a on [3, 4]
        Span("c", 9.0, 12.0, parent=0),  # runs past its parent's end
        Span("d", 1.5, 2.0, parent=1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (5.0 + 1.0))
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)
    inclusive, by_name = totals_by_name(spans)
    assert inclusive["tick"] == pytest.approx(10.0)
    assert by_name["tick"] == pytest.approx(4.0)


def test_covered_merges_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4.0)
    assert covered([(-5, 1), (9, 20)], 0, 10) == pytest.approx(2.0)
    assert covered([], 0, 10) == 0.0


class Walker:
    def walk(self, n):
        return 0 if n == 0 else 1 + self.walk(n - 1)


def test_recursion_inside_one_layer_is_one_span_and_patches_restore():
    original = Walker.__dict__["walk"]
    tracer = Tracer()
    tracer.patch_attr(Walker, "walk", "walker", count="walker.calls")
    assert Walker().walk(3) == 3
    tracer.restore()
    assert Walker.__dict__["walk"] is original
    assert [s.name for s in tracer.spans] == ["walker"]
    assert tracer.counts["walker.calls"] == 1


def test_patch_function_reaches_imported_copies():
    from repro.transport import client, framing

    original = framing.encode_frame
    tracer = Tracer()
    seen = []
    tracer.patch_function(
        framing, "encode_frame", "transport.encode", observe=lambda a, out: seen.append(len(out))
    )
    try:
        assert framing.encode_frame is not original
        if hasattr(client, "encode_frame"):
            assert client.encode_frame is framing.encode_frame
        frame = framing.encode_frame({"x": 1})
    finally:
        tracer.restore()
    assert framing.encode_frame is original
    assert seen == [len(frame)]
    assert tracer.spans[0].name == "transport.encode"
