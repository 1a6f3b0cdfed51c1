"""The detection core: IODA's alert rule (§3.1.1), applied incrementally.

:class:`StreamingAlertDetector` applies the median-of-trailing-window
rule to a series that arrives in contiguous chunks (one per watermark
advance).  State is bounded to O(window) per series
(:class:`repro.stats.rolling.TrailingMedianStream` plus a running max
and a bin counter), and the alerts that come out are
**bitwise-identical** under any chunking — every per-bin quantity
depends only on the bins before it.  The per-bin reference scan the
detector must match lives in the test suite as an oracle.

:class:`StreamingEpisodeGrouper` merges alerting bins into maximal
episodes: alerts stream in, episodes stream out as soon as a gap proves
them closed, and the open run is inspectable (the engine surfaces it as
a provisional episode for ``open``/``update`` lifecycle events).

:func:`stream_episodes` composes the two over a whole series in one
feed — which is how the **batch** dashboard
(:mod:`repro.ioda.dashboard`) runs: batch detection is the streaming
detector fed one maximal chunk, so there is exactly one detection
implementation to trust.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import SignalError
from repro.signals.alerts import Alert, AlertEpisode, DetectorConfig
from repro.signals.series import TimeSeries
from repro.stats.rolling import TrailingMedianStream
from repro.timeutils.timestamps import TimeRange

__all__ = ["StreamingAlertDetector", "StreamingEpisodeGrouper",
           "stream_episodes"]


class StreamingAlertDetector:
    """Median-of-trailing-window drop detector over a growing series.

    Construct one per (series, signal); feed contiguous chunks in time
    order.  The detector keeps only the trailing history window, the
    running maximum, and the number of bins absorbed — never the whole
    series — so memory stays O(window) no matter how long the stream
    runs.  Any chunking emits the same alerts as feeding the entire
    series at once, because every per-bin quantity (prefilter max,
    baseline median, threshold compare) depends only on the bins before
    it.  The current bin never contributes to its own baseline (the
    window is strictly trailing), so a sharp total outage alerts
    immediately rather than dragging its own baseline down.
    """

    def __init__(self, config: DetectorConfig, width: int):
        if width <= 0:
            raise SignalError(f"bin width must be positive: {width}")
        window = config.history_seconds // width
        if window <= 0:
            raise SignalError(
                f"history window {config.history_seconds}s shorter "
                f"than one bin ({width}s)")
        self._config = config
        self._width = width
        self._window = window
        self._min_history = max(
            1, int(window * config.min_history_fraction))
        self._median = TrailingMedianStream(window)
        self._running_max = -np.inf
        self._n = 0

    @property
    def config(self) -> DetectorConfig:
        return self._config

    @property
    def window(self) -> int:
        """History window, in bins."""
        return self._window

    @property
    def n_bins(self) -> int:
        """Total bins absorbed so far."""
        return self._n

    def feed(self, bin_starts: np.ndarray,
             values: np.ndarray) -> List[Alert]:
        """Absorb the next contiguous chunk; return its alerting bins."""
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise SignalError("feed expects a one-dimensional chunk")
        if values.shape[0] == 0:
            return []
        # Prefix maxima seeded with the running max: prev[j] is the
        # largest value strictly before global bin n + j.  The baseline
        # median never exceeds that, and x <= y implies fl(t*x) <=
        # fl(t*y) (rounding is monotone), so bins at or above
        # ``threshold * prev`` cannot alert — the quiet series that
        # dominate curation exit here without computing a median.
        m = np.maximum.accumulate(
            np.concatenate([[self._running_max], values]))
        prev = m[:-1]
        j = np.arange(values.shape[0])
        eligible = self._n + j >= self._min_history
        candidates = np.flatnonzero(
            eligible & (values < self._config.threshold * prev))
        alerts: List[Alert] = []
        if candidates.size:
            baselines = self._median.medians_at(values, candidates)
            keep = values[candidates] \
                < self._config.threshold * baselines
            alerts = [
                Alert(time=int(bin_starts[i]), value=float(values[i]),
                      baseline=float(baselines[k]))
                for k, i in zip(np.flatnonzero(keep), candidates[keep])]
        self._median.push(values)
        self._running_max = float(m[-1])
        self._n += values.shape[0]
        return alerts


class StreamingEpisodeGrouper:
    """Merges alerting bins into maximal :class:`AlertEpisode` spans.

    Alerts whose start times are within ``max_gap_bins * bin_width`` of
    the previous alerting bin extend the current episode; larger gaps
    start a new one (a tolerance of one bin absorbs single-bin flickers
    at the edge of the threshold).  Alerts stream in (in time order); an
    episode is emitted the moment a later alert proves its run closed.
    The still-open run is observable as a provisional episode
    (:meth:`open_episode`) — the engine's ``open``/``update`` lifecycle
    events are exactly that view — and :meth:`finalize` flushes it when
    the series ends.
    """

    def __init__(self, bin_width: int, max_gap_bins: int = 1):
        _check_grouping_args(bin_width, max_gap_bins)
        self._bin_width = bin_width
        self._max_gap = (max_gap_bins + 1) * bin_width
        self._run: List[Alert] = []
        self._closed = False

    @property
    def open_run_size(self) -> int:
        return len(self._run)

    def feed(self, alerts: Sequence[Alert]) -> List[AlertEpisode]:
        """Absorb alerts; return the episodes they prove closed."""
        if self._closed:
            raise SignalError("grouper already finalized")
        episodes: List[AlertEpisode] = []
        for alert in alerts:
            if self._run and alert.time <= self._run[-1].time \
                    + self._max_gap:
                self._run.append(alert)
            else:
                if self._run:
                    episodes.append(
                        _episode_from_run(self._run, self._bin_width))
                self._run = [alert]
        return episodes

    def open_episode(self) -> Optional[AlertEpisode]:
        """The provisional episode of the still-open run (or None)."""
        if not self._run:
            return None
        return _episode_from_run(self._run, self._bin_width)

    def finalize(self) -> List[AlertEpisode]:
        """Close the grouper, flushing the open run (idempotent)."""
        if self._closed:
            return []
        self._closed = True
        if not self._run:
            return []
        episode = _episode_from_run(self._run, self._bin_width)
        self._run = []
        return [episode]


def stream_episodes(series: TimeSeries, config: DetectorConfig,
                    max_gap_bins: int = 1) -> List[AlertEpisode]:
    """Detect and group one whole series through the streaming core.

    One maximal chunk through :class:`StreamingAlertDetector` and
    :class:`StreamingEpisodeGrouper` — the dashboard (and through it all
    of batch curation) routes here: batch is the ingest-everything
    special case of the stream engine.
    """
    detector = StreamingAlertDetector(config, series.width)
    grouper = StreamingEpisodeGrouper(series.width,
                                      max_gap_bins=max_gap_bins)
    bin_starts, values = series.arrays()
    episodes = grouper.feed(detector.feed(bin_starts, values))
    episodes.extend(grouper.finalize())
    return episodes


def _check_grouping_args(bin_width: int, max_gap_bins: int) -> None:
    if bin_width <= 0:
        raise SignalError(f"bin width must be positive: {bin_width}")
    if max_gap_bins < 0:
        raise SignalError(
            f"max gap must be >= 0 bins: {max_gap_bins}")


def _episode_from_run(run: Sequence[Alert], bin_width: int) -> AlertEpisode:
    return AlertEpisode(
        span=TimeRange(run[0].time, run[-1].time + bin_width),
        min_value=min(alert.value for alert in run),
        baseline=run[0].baseline,
        n_bins=len(run),
    )
