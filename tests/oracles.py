"""Per-bin reference implementations the production code must match.

The detection path that runs in production is columnar and incremental
(:class:`repro.stream.detect.StreamingAlertDetector` with its running-max
prefilter and exact rank-select baselines, the table-driven
:meth:`repro.probing.scheduler.ActiveProbingRun.up_count_series`).  The
functions here are the plain, one-bin-at-a-time statements of the same
rules — the executable specification the tests compare against bit for
bit.  They live with the tests because nothing in production calls them.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import SignalError
from repro.probing.scheduler import ActiveProbingRun
from repro.signals.alerts import Alert, AlertEpisode, DetectorConfig
from repro.signals.series import TimeSeries
from repro.stats.rolling import RollingMedian
from repro.timeutils.timestamps import TEN_MINUTES, TimeRange, bin_floor

__all__ = ["detect_scalar", "group_alerts_scalar", "up_count_series_scalar"]


def detect_scalar(config: DetectorConfig,
                  series: TimeSeries) -> List[Alert]:
    """IODA's alert rule (§3.1.1), scanned one bin at a time.

    A bin alerts when its value is strictly below ``threshold`` times
    the median of the strictly trailing history window, once at least
    ``min_history_fraction`` of that window has been observed.
    """
    window = config.history_seconds // series.width
    if window <= 0:
        raise SignalError(
            f"history window {config.history_seconds}s shorter "
            f"than one bin ({series.width}s)")
    min_history = max(1, int(window * config.min_history_fraction))
    tracker = RollingMedian(window)
    alerts: List[Alert] = []
    for ts, value in series:
        baseline = tracker.median
        if (baseline is not None and len(tracker) >= min_history
                and value < config.threshold * baseline):
            alerts.append(Alert(time=ts, value=value, baseline=baseline))
        tracker.push(value)
    return alerts


def group_alerts_scalar(alerts: Sequence[Alert], bin_width: int,
                        max_gap_bins: int = 1) -> List[AlertEpisode]:
    """Merge alerting bins into maximal episodes, one alert at a time.

    An alert within ``(max_gap_bins + 1) * bin_width`` of the previous
    one extends the current episode; a larger gap starts a new one.
    """
    if bin_width <= 0:
        raise SignalError(f"bin width must be positive: {bin_width}")
    if max_gap_bins < 0:
        raise SignalError(f"max gap must be >= 0 bins: {max_gap_bins}")
    if not alerts:
        return []
    episodes: List[AlertEpisode] = []
    run: List[Alert] = [alerts[0]]
    for alert in alerts[1:]:
        if alert.time <= run[-1].time + (max_gap_bins + 1) * bin_width:
            run.append(alert)
        else:
            episodes.append(_episode(run, bin_width))
            run = [alert]
    episodes.append(_episode(run, bin_width))
    return episodes


def _episode(run: Sequence[Alert], bin_width: int) -> AlertEpisode:
    return AlertEpisode(
        span=TimeRange(run[0].time, run[-1].time + bin_width),
        min_value=min(alert.value for alert in run),
        baseline=run[0].baseline,
        n_bins=len(run),
    )


def up_count_series_scalar(run: ActiveProbingRun, window: TimeRange,
                           up_fraction: np.ndarray,
                           rng: np.random.Generator,
                           round_width: int = TEN_MINUTES) -> TimeSeries:
    """The Active Probing signal, simulated one probing round at a time.

    Each round draws one answer per block, updates every block's
    Trinocular belief, and counts the blocks classified UP.
    """
    start = bin_floor(window.start, round_width)
    n_rounds = -(-(window.end - start) // round_width)
    up = np.asarray(up_fraction, dtype=np.float64)
    if up.shape != (n_rounds,):
        raise SignalError(
            f"up_fraction has shape {up.shape}, expected ({n_rounds},)")
    inference = run.inference
    rates = np.array([b.response_rate for b in run.blocks()],
                     dtype=np.float64)
    n = run.n_blocks
    block_quantile = (np.arange(n) + 1.0) / n
    beliefs = np.full(n, inference.initial_belief())
    values = np.empty(n_rounds, dtype=np.float64)
    for round_index in range(n_rounds):
        block_up = block_quantile <= up[round_index] + 1e-12
        p_answer = inference.answer_probability(rates, block_up)
        answered = rng.random(n) < p_answer
        beliefs = inference.batch_update(beliefs, answered, rates)
        values[round_index] = int(inference.batch_classify_up(beliefs).sum())
    return TimeSeries(start, round_width, values)
