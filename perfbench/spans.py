"""Spans around the public calls of each pipeline layer.

The benchmark measures its end-to-end metrics with nothing installed.
A traced run then calls :meth:`Tracer.install`, which replaces the
public functions and methods listed in :data:`HOOKS` with wrappers
that record a span per call: name, start, end, parent span and a few
attributes taken from the arguments and the result.  Nothing under
``src/`` changes; :meth:`Tracer.uninstall` puts the originals back.

Spans stay in memory (:attr:`Tracer.spans`) and are reduced to the
per-layer metrics by :func:`layer_metrics`.  A span's *self time* is its
duration minus the part of that interval its child spans cover
(:func:`self_times`).  Cross-cutting calls (``rng``, ``obs``) are
*tallies*: counted, and for ``rng`` timed, but never parents or
children, so they stay inside the self time of whichever layer called
them.

Wrappers only reach the benchmark's own process: ``process``-backend
pool workers import fresh, unwrapped copies of the package.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Mapping, \
    Optional, Sequence, Tuple

__all__ = ["HOOKS", "PER_LAYER", "Span", "Tracer", "layer_metrics",
           "percentile", "self_times"]


class Span:
    """One traced call."""

    __slots__ = ("id", "name", "start", "end", "parent", "attrs")

    def __init__(self, span_id: int, name: str, start: float,
                 parent: Optional[int]):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval and overlapping or
    adjacent children are merged first, so time two children share is
    subtracted once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {span.id: span for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in by_id:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[span.id] = span.duration - covered
    return out


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``values``, linearly interpolated."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


# -- what gets wrapped -----------------------------------------------------------

def _signal_attrs(args, kwargs, result) -> Dict[str, Any]:
    entity, kind = args[1], args[2]
    start, n = int(result.start), len(result)
    return {"entity": entity.identifier, "scope": entity.scope.value,
            "kind": kind.value, "start": start, "width": int(result.width),
            "bins": n}


def _feed_attrs(args, kwargs, result) -> Dict[str, Any]:
    return {"bins": int(len(args[1]))}


def _country_attrs(args, kwargs, result) -> Dict[str, Any]:
    return {"country": args[1]}


def _window_attrs(args, kwargs, result) -> Dict[str, Any]:
    return {"records": len(result.records)}


def _put_attrs(args, kwargs, result) -> Dict[str, Any]:
    return {"bytes": result.stat().st_size if result is not None else 0}


def _push_attrs(args, kwargs, result) -> Dict[str, Any]:
    bins = args[1]
    return {"offered": len(bins), "accepted": int(result)}


def _advance_attrs(args, kwargs, result) -> Dict[str, Any]:
    return {"events": len(result)}


#: ``(span name, "module:qualname", mode, attrs)``.  ``mode`` is
#: ``span`` (a node of the span tree), ``generator`` (one span per
#: resumption of the returned iterator), ``timed`` (a tally with total
#: time) or ``count`` (a bare call count).
HOOKS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("world.generate", "repro.world.scenario:ScenarioGenerator.generate",
     "span", None),
    ("signals.signal", "repro.ioda.platform:IODAPlatform.signal",
     "span", _signal_attrs),
    ("detect.dashboard",
     "repro.ioda.dashboard:Dashboard.episodes_by_signal", "span", None),
    ("detect.feed", "repro.stream.detect:StreamingAlertDetector.feed",
     "span", _feed_attrs),
    ("curation.country",
     "repro.ioda.curation:CurationPipeline.investigate_country",
     "span", _country_attrs),
    ("curation.window",
     "repro.ioda.curation:CurationPipeline.adjudicate_window",
     "span", _window_attrs),
    ("exec.cache_put", "repro.exec.cachestore:CacheStore.put",
     "span", _put_attrs),
    ("exec.cache_get", "repro.exec.cachestore:CacheStore.get",
     "span", None),
    ("stream.source", "repro.stream.source:ScenarioBinSource.batches",
     "generator", None),
    ("stream.push", "repro.stream.session:StreamSession.push",
     "span", _push_attrs),
    ("stream.advance",
     "repro.stream.session:StreamSession.advance_watermark",
     "span", _advance_attrs),
    ("kio.compile", "repro.core.pipeline:ReproPipeline.compile_kio",
     "span", None),
    ("core.merge", "repro.core.merge:build_merged_dataset", "span", None),
    ("datasets.load", "repro.datasets.sources:*Source.load", "span", None),
    ("serve.build", "repro.serve.artifacts:build_store", "span", None),
    ("serve.put", "repro.serve.artifacts:_StoreBuilder.put", "span", None),
    ("rng.substream", "repro.rng:substream", "timed", None),
    ("obs.counter", "repro.obs.metrics:MetricsRegistry.counter",
     "count", None),
    ("obs.escape", "repro.obs.export:escape_label_value", "count", None),
    ("obs.span", "repro.obs.runtime:Observability.span", "count", None),
)


def _targets(path: str) -> List[Tuple[Any, str, Any]]:
    """``(owner, attribute, original)`` for a hook path.  A ``*Source``
    style class name matches every class of the module whose name ends
    that way and that defines the attribute itself."""
    module_name, qualname = path.split(":")
    module = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    if parents and parents[0].startswith("*"):
        suffix = parents[0][1:]
        return [(owner, attr, owner.__dict__[attr])
                for name, owner in sorted(vars(module).items())
                if isinstance(owner, type) and name.endswith(suffix)
                and attr in owner.__dict__
                and not getattr(owner, "_is_protocol", False)]
    owner: Any = module
    for part in parents:
        owner = getattr(owner, part)
    return [(owner, attr, owner.__dict__[attr])]


class Tracer:
    """Installs the :data:`HOOKS` wrappers and keeps their spans."""

    def __init__(self, hooks: Sequence[Tuple[str, str, str,
                                             Optional[Callable]]] = HOOKS):
        self._hooks = hooks
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []
        self._next_id = 0
        self.spans: List[Span] = []
        self.tallies: Dict[str, List[float]] = {}

    # -- recording -----------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(self._next_id, name, time.perf_counter(),
                    stack[-1] if stack else None)
        self._next_id += 1
        stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _wrap(self, name: str, fn: Callable, mode: str,
              attrs: Optional[Callable]) -> Callable:
        tracer = self
        tally = self.tallies.setdefault(name, [0, 0.0])

        if mode == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tally[0] += 1
                return fn(*args, **kwargs)
            return counted

        if mode == "timed":
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                started = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tally[0] += 1
                    tally[1] += time.perf_counter() - started
            return timed

        if mode == "generator":
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    span = tracer._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(span)
                    yield item
            return generator

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result
        return spanned

    # -- patching ------------------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every hook; module-level functions are also replaced in
        every ``repro`` module that imported them by name."""
        for name, path, mode, attrs in self._hooks:
            for owner, attr, original in _targets(path):
                wrapped = self._wrap(name, original, mode, attrs)
                self._set(owner, attr, wrapped)
                if isinstance(owner, type):
                    continue
                for module in list(sys.modules.values()):
                    if module is owner or not getattr(
                            module, "__name__", "").startswith("repro"):
                        continue
                    if module.__dict__.get(attr) is original:
                        self._set(module, attr, wrapped)
        return self

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


# -- reduction to per-layer metrics --------------------------------------------------

#: Every per-layer metric, in report order: ``name -> unit``.
PER_LAYER: Dict[str, str] = {
    "world.generate_s": "s",
    "signals.calls.dashboard": "count",
    "signals.calls.control": "count",
    "signals.calls.descent": "count",
    "signals.self_s": "s",
    "signals.bins": "count",
    "signals.bin_reuse": "ratio",
    "detect.calls": "count",
    "detect.self_s": "s",
    "detect.bins": "count",
    "curation.windows": "count",
    "curation.self_s": "s",
    "curation.record_yield": "ratio",
    "curation.country_p50_s": "s",
    "curation.country_max_s": "s",
    "exec.shard_max_s": "s",
    "exec.shard_skew": "ratio",
    "exec.worker_idle_frac": "ratio",
    "exec.cache_put_s": "s",
    "exec.cache_get_s": "s",
    "exec.cache_bytes": "bytes",
    "stream.source_s": "s",
    "stream.push_s": "s",
    "stream.advance_s": "s",
    "stream.adjudicate_s": "s",
    "stream.bins": "count",
    "stream.accept_ratio": "ratio",
    "stream.events": "count",
    "kio.compile_s": "s",
    "core.merge_s": "s",
    "datasets.load_s": "s",
    "rng.substream_calls": "count",
    "rng.substream_s": "s",
    "obs.counter_calls": "count",
    "obs.escape_calls": "count",
    "obs.span_calls": "count",
    "trace.overhead_frac": "ratio",
    "serve.build_s": "s",
    "serve.build.signal_s": "s",
    "serve.build.put_s": "s",
    "serve.build.objects": "count",
    "serve.build.bytes": "bytes",
    "serve.cache_hit_ratio": "ratio",
    "serve.coalesced": "count",
    "serve.store_reads": "count",
    "serve.not_modified_ratio": "ratio",
    "serve.handler_p99_ms": "ms",
    "serve.open_p50_ms": "ms",
    "serve.open_p99_ms": "ms",
    "serve.conn_wait_p99_ms": "ms",
    "serve.max_rps": "1/s",
    "loadgen.late_p99_ms": "ms",
    "failed_frac": "ratio",
}


def _distinct_bins(spans: Iterable[Span]) -> int:
    """Distinct (entity, kind, bin start) across signal spans.

    Each call covers ``[start, start + bins * width)`` on its entity's
    grid; the union of those intervals per (entity, kind) is counted in
    bins, so no per-bin set is built.
    """
    intervals: Dict[Tuple[str, str, int], List[Tuple[int, int]]] = {}
    for span in spans:
        a = span.attrs
        if not a.get("bins"):
            continue
        intervals.setdefault((a["entity"], a["kind"], a["width"]), []) \
            .append((a["start"], a["start"] + a["bins"] * a["width"]))
    total = 0
    for (_entity, _kind, width), covered in intervals.items():
        cursor = None
        for start, end in sorted(covered):
            if cursor is not None:
                start = max(start, cursor)
            if end > start:
                total += (end - start) // width
                cursor = end
    return total


def _ancestors(span: Span, by_id: Mapping[int, Span]) -> Iterable[Span]:
    parent = by_id.get(span.parent) if span.parent is not None else None
    while parent is not None:
        yield parent
        parent = (by_id.get(parent.parent)
                  if parent.parent is not None else None)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The span-derived per-layer metrics (zero where a layer never ran).

    Metrics that do not come from spans (``exec.shard_*``, the serve
    scrape, ``trace.overhead_frac``...) are filled in by the workloads.
    """
    spans = tracer.spans
    by_id = {span.id: span for span in spans}
    own = self_times(spans)
    named: Dict[str, List[Span]] = {}
    for span in spans:
        named.setdefault(span.name, []).append(span)

    def total(name: str) -> float:
        return sum(span.duration for span in named.get(name, ()))

    def self_total(*names: str) -> float:
        return sum(own[span.id] for name in names
                   for span in named.get(name, ()))

    def tally(name: str, index: int) -> float:
        return tracer.tallies.get(name, [0, 0.0])[index]

    signals = named.get("signals.signal", [])
    calls = {"dashboard": 0, "control": 0, "descent": 0}
    build_signal_s = 0.0
    for span in signals:
        parent = by_id.get(span.parent) if span.parent is not None else None
        parent_name = parent.name if parent is not None else ""
        if span.attrs.get("scope") == "Region":
            calls["descent"] += 1
        elif parent_name in ("detect.dashboard", "stream.source"):
            calls["dashboard"] += 1
        elif parent_name == "curation.window":
            calls["control"] += 1
        if any(a.name == "serve.build" for a in _ancestors(span, by_id)):
            build_signal_s += span.duration
    bins = sum(span.attrs.get("bins", 0) for span in signals)
    distinct = _distinct_bins(signals)

    windows = named.get("curation.window", [])
    countries = [span.duration for span in named.get("curation.country", [])]
    pushes = named.get("stream.push", [])
    offered = sum(span.attrs["offered"] for span in pushes)
    accepted = sum(span.attrs["accepted"] for span in pushes)
    in_advance = sum(
        span.duration for span in windows
        if any(a.name == "stream.advance" for a in _ancestors(span, by_id)))

    return {
        "world.generate_s": total("world.generate"),
        "signals.calls.dashboard": calls["dashboard"],
        "signals.calls.control": calls["control"],
        "signals.calls.descent": calls["descent"],
        "signals.self_s": self_total("signals.signal"),
        "signals.bins": bins,
        "signals.bin_reuse": bins / distinct if distinct else 0.0,
        "detect.calls": len(named.get("detect.feed", [])),
        "detect.self_s": self_total("detect.dashboard", "detect.feed"),
        "detect.bins": sum(span.attrs["bins"]
                           for span in named.get("detect.feed", [])),
        "curation.windows": len(windows),
        "curation.self_s": self_total("curation.window"),
        "curation.record_yield": (
            sum(span.attrs["records"] for span in windows) / len(windows)
            if windows else 0.0),
        "curation.country_p50_s": (statistics.median(countries)
                                   if countries else 0.0),
        "curation.country_max_s": max(countries, default=0.0),
        "exec.cache_put_s": total("exec.cache_put"),
        "exec.cache_get_s": total("exec.cache_get"),
        "exec.cache_bytes": sum(span.attrs["bytes"]
                                for span in named.get("exec.cache_put", [])),
        "stream.source_s": self_total("stream.source"),
        "stream.push_s": self_total("stream.push"),
        "stream.advance_s": self_total("stream.advance"),
        "stream.adjudicate_s": in_advance,
        "stream.bins": offered,
        "stream.accept_ratio": accepted / offered if offered else 0.0,
        "stream.events": sum(span.attrs["events"]
                             for span in named.get("stream.advance", [])),
        "kio.compile_s": total("kio.compile"),
        "core.merge_s": total("core.merge"),
        "datasets.load_s": total("datasets.load"),
        "rng.substream_calls": tally("rng.substream", 0),
        "rng.substream_s": tally("rng.substream", 1),
        "obs.counter_calls": tally("obs.counter", 0),
        "obs.escape_calls": tally("obs.escape", 0),
        "obs.span_calls": tally("obs.span", 0),
        "serve.build_s": total("serve.build"),
        "serve.build.signal_s": build_signal_s,
        "serve.build.put_s": total("serve.put"),
    }
