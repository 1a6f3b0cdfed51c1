"""Self-time arithmetic and the tracer's wrapping."""

import pytest

from spans import Span, Tracer, layer_metrics, self_times


def span(span_id, start, end, parent=None, name="x"):
    s = Span(span_id, name, start, parent)
    s.end = end
    return s


def test_leaf_self_time_is_its_duration():
    assert self_times([span(0, 1.0, 3.0)]) == {0: 2.0}


def test_nested_children_are_subtracted_once():
    # 0 [0, 10) has child 1 [1, 6), which has child 2 [2, 4).
    spans = [span(0, 0.0, 10.0), span(1, 1.0, 6.0, parent=0),
             span(2, 2.0, 4.0, parent=1)]
    own = self_times(spans)
    assert own[0] == pytest.approx(5.0)
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(2.0)


def test_adjacent_and_overlapping_children_are_merged():
    # Children [1, 3) and [3, 5) touch; [4, 6) overlaps the second.
    spans = [span(0, 0.0, 10.0), span(1, 1.0, 3.0, parent=0),
             span(2, 3.0, 5.0, parent=0), span(3, 4.0, 6.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_children_are_clipped_to_the_parent():
    spans = [span(0, 2.0, 4.0), span(1, 1.0, 3.0, parent=0),
             span(2, 3.5, 9.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(0.5)


class Layer:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n


def test_tracer_records_parents_and_restores_originals():
    original = Layer.__dict__["outer"]
    hooks = (("t.outer", f"{__name__}:Layer.outer", "span", None),
             ("t.inner", f"{__name__}:Layer.inner", "span", None))
    tracer = Tracer(hooks)
    with tracer:
        assert Layer().outer(2) == 3
    assert Layer.__dict__["outer"] is original
    inner, outer = tracer.spans
    assert (inner.name, outer.name) == ("t.inner", "t.outer")
    assert inner.parent == outer.id and outer.parent is None


def test_unused_layers_read_zero():
    metrics = layer_metrics(Tracer(()))
    assert metrics["signals.bin_reuse"] == 0.0
    assert metrics["curation.windows"] == 0


def test_bin_reuse_counts_overlapping_windows_once():
    tracer = Tracer(())
    # Two pulls of one entity's grid overlap by 2 of their 4 bins; a
    # third pull is another signal kind.
    for i, (kind, start) in enumerate([("bgp", 0), ("bgp", 600),
                                       ("ping", 0)]):
        s = span(i, 0.0, 1.0, name="signals.signal")
        s.attrs = {"entity": "XX", "scope": "Country", "kind": kind,
                   "start": start, "width": 300, "bins": 4}
        tracer.spans.append(s)
    metrics = layer_metrics(tracer)
    assert metrics["signals.bins"] == 12
    assert metrics["signals.bin_reuse"] == pytest.approx(12 / 10)
