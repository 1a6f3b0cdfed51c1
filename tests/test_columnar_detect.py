"""Bitwise equivalence of the detection core and its per-bin oracles.

The production paths (``trailing_median``, ``TrailingMedianStream``,
``StreamingAlertDetector.feed``, ``StreamingEpisodeGrouper``,
``ActiveProbingRun.up_count_series``) must produce *bitwise-identical*
output to the per-bin/per-round reference code in :mod:`tests.oracles`
— not merely approximately equal.  These tests drive both over
randomized series covering every detector configuration, missing
history prefixes, threshold-boundary ties, and arbitrary chunkings of
the streamed input (one chunk, fixed steps, random splits with 1-bin
chunks), and assert exact equality end to end.
"""

import numpy as np
import pytest

from repro.errors import SignalError
from repro.ioda.detectors import DETECTOR_CONFIGS
from repro.probing.blocks import ProbedBlock
from repro.probing.scheduler import ActiveProbingRun
from repro.signals.alerts import Alert, DetectorConfig
from repro.signals.kinds import SignalKind
from repro.signals.series import TimeSeries
from repro.stats.rolling import TrailingMedianStream, rolling_median, \
    trailing_median
from repro.stream.detect import StreamingAlertDetector, \
    StreamingEpisodeGrouper
from repro.timeutils.timestamps import FIVE_MINUTES, TimeRange, utc
from tests.oracles import detect_scalar, group_alerts_scalar, \
    up_count_series_scalar


def _random_series(rng, n, width=FIVE_MINUTES):
    """A plausibly signal-shaped series: positive level plus noise,
    with some dips and quantized stretches that produce median ties."""
    base = rng.uniform(50, 5000)
    values = base + rng.normal(0, base * 0.05, size=n)
    # Quantize a stretch so the window holds repeated values (ties).
    k = n // 3
    values[k:2 * k] = np.round(values[k:2 * k])
    # Carve a couple of drops below every threshold.
    for _ in range(rng.integers(1, 4)):
        at = int(rng.integers(0, max(1, n - 10)))
        depth = rng.uniform(0.0, 1.0)
        values[at:at + int(rng.integers(1, 10))] *= depth
    return np.maximum(values, 0.0)


class TestTrailingMedian:
    def test_matches_rolling_median_randomized(self):
        rng = np.random.default_rng(7)
        for trial in range(25):
            n = int(rng.integers(2, 400))
            window = int(rng.integers(1, 80))
            values = _random_series(rng, n)
            got = trailing_median(values, window)
            want = rolling_median(values, window)
            assert np.isnan(got[0])
            for i in range(1, n):
                assert got[i] == want[i], (trial, i, n, window)

    def test_first_skips_warmup_exactly(self):
        rng = np.random.default_rng(8)
        values = _random_series(rng, 300)
        full = trailing_median(values, 50)
        skipped = trailing_median(values, 50, first=40)
        assert np.all(np.isnan(skipped[:40]))
        assert np.array_equal(skipped[40:], full[40:])

    def test_detector_shaped_windows(self):
        """The three real detector windows, including one wider than
        the series (telescope over a short window)."""
        rng = np.random.default_rng(9)
        for window in (288, 1008, 2016):
            values = _random_series(rng, 600)
            got = trailing_median(values, window)
            want = rolling_median(values, window)
            assert all(
                got[i] == want[i] for i in range(1, len(values)))

    def test_constant_series(self):
        got = trailing_median(np.full(100, 42.0), 24)
        assert np.isnan(got[0])
        assert np.all(got[1:] == 42.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(SignalError):
            trailing_median(np.ones(10), 0)
        with pytest.raises(SignalError):
            trailing_median(np.ones((5, 2)), 3)


def _chunkings(rng, n):
    """Chunk boundaries to stream ``n`` bins through: one chunk, two
    fixed steps, and random splits that include 1-bin chunks."""
    def bounds(sizes):
        edges = np.concatenate([[0], np.cumsum(sizes)])
        return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]

    yield "one", [(0, n)]
    for step in (1, 37):
        yield f"step{step}", [(a, min(n, a + step))
                              for a in range(0, n, step)]
    for trial in range(3):
        sizes, left = [], n
        while left:
            size = 1 if rng.random() < 0.3 else int(
                rng.integers(1, max(2, n // 4)))
            size = min(size, left)
            sizes.append(size)
            left -= size
        yield f"random{trial}", bounds(sizes)


def _stream_detect(config, series, chunks):
    """Alerts of ``series`` fed through the production detector."""
    detector = StreamingAlertDetector(config, series.width)
    bin_starts, values = series.arrays()
    alerts = []
    for a, b in chunks:
        alerts.extend(detector.feed(bin_starts[a:b], values[a:b]))
    assert detector.n_bins == len(series)
    return alerts


def _plant_ties(rng, values, config, width):
    """Set a few bins to exactly ``threshold * baseline`` — on the
    boundary, where only a strict compare keeps them from alerting."""
    window = config.history_seconds // width
    min_history = max(1, int(window * config.min_history_fraction))
    if len(values) <= min_history:
        return values
    values = values.copy()
    picks = rng.choice(np.arange(min_history, len(values)),
                       size=min(5, len(values) - min_history),
                       replace=False)
    for i in np.sort(picks):
        trailing = sorted(values[max(0, i - window):i].tolist())
        mid = len(trailing) // 2
        baseline = (trailing[mid] if len(trailing) % 2
                    else (trailing[mid - 1] + trailing[mid]) / 2.0)
        values[i] = config.threshold * baseline
    return values


def group_alerts(alerts, bin_width, max_gap_bins=1):
    """The production grouper over a whole alert list."""
    grouper = StreamingEpisodeGrouper(bin_width, max_gap_bins=max_gap_bins)
    episodes = grouper.feed(alerts)
    episodes.extend(grouper.finalize())
    return episodes


class TestTrailingMedianStream:
    def test_medians_at_match_rolling_median_under_chunkings(self):
        rng = np.random.default_rng(21)
        for n, window in ((1, 5), (40, 7), (300, 24), (700, 288)):
            values = _random_series(rng, n)
            want = rolling_median(values, window)
            for name, chunks in _chunkings(rng, n):
                stream = TrailingMedianStream(window)
                for a, b in chunks:
                    chunk = values[a:b]
                    # Global bin 0 has no history (None in the oracle).
                    idx = np.arange(max(0, 1 - a), b - a)
                    got = stream.medians_at(chunk, idx)
                    assert got.tolist() == want[a + len(chunk) - len(idx):b], \
                        (n, window, name, a)
                    stream.push(chunk)

                assert stream.count == n
                assert stream.tail_size == min(n, window)


class TestDetectorEquivalence:
    @pytest.mark.parametrize("kind", list(SignalKind))
    def test_detect_matches_scalar_on_all_configs(self, kind):
        rng = np.random.default_rng(list(SignalKind).index(kind))
        config = DETECTOR_CONFIGS[kind]
        width = FIVE_MINUTES if kind is not SignalKind.ACTIVE_PROBING \
            else 2 * FIVE_MINUTES
        for n in (2, 5, 50, 700, 3000):
            values = _plant_ties(rng, _random_series(rng, n, width),
                                 config, width)
            series = TimeSeries(0, width, values)
            want = detect_scalar(config, series)
            for name, chunks in _chunkings(rng, n):
                assert _stream_detect(config, series, chunks) == want, \
                    (kind, n, name)

    def test_threshold_boundary_ties_are_not_alerts(self):
        """value == threshold * baseline must not alert on either path
        (the comparison is strict)."""
        rng = np.random.default_rng(5)
        config = DetectorConfig(threshold=0.5, history_seconds=FIVE_MINUTES,
                                min_history_fraction=1.0)
        # Baseline is always the one trailing bin, so 50 after 100 sits
        # on the boundary.
        series = TimeSeries(0, FIVE_MINUTES,
                            [100.0, 50.0, 100.0, 49.0, 100.0])
        want = detect_scalar(config, series)
        assert [a.value for a in want] == [49.0]
        # A wider window whose median (60) sits below the running max
        # (100): the boundary bin passes the prefilter and only the
        # strict baseline compare keeps it quiet.
        wide = DetectorConfig(threshold=0.5,
                              history_seconds=3 * FIVE_MINUTES,
                              min_history_fraction=1.0)
        below_max = TimeSeries(0, FIVE_MINUTES,
                               [100.0, 60.0, 60.0, 30.0, 60.0, 29.0])
        want_wide = detect_scalar(wide, below_max)
        assert [a.value for a in want_wide] == [29.0]
        for name, chunks in _chunkings(rng, len(series)):
            assert _stream_detect(config, series, chunks) == want, name
        for name, chunks in _chunkings(rng, len(below_max)):
            assert _stream_detect(wide, below_max, chunks) == want_wide, \
                name

    def test_short_series_produces_no_alerts(self):
        config = DETECTOR_CONFIGS[SignalKind.TELESCOPE]
        series = TimeSeries(0, FIVE_MINUTES, [10.0, 0.0])
        assert detect_scalar(config, series) == []
        for _, chunks in _chunkings(np.random.default_rng(6), 2):
            assert _stream_detect(config, series, chunks) == []

    def test_empty_chunk_is_a_no_op(self):
        detector = StreamingAlertDetector(
            DETECTOR_CONFIGS[SignalKind.BGP], FIVE_MINUTES)
        assert detector.feed(np.empty(0, np.int64), np.empty(0)) == []
        assert detector.n_bins == 0
        with pytest.raises(SignalError, match="one-dimensional"):
            detector.feed(np.zeros((2, 2), np.int64), np.ones((2, 2)))


class TestGroupAlertsEquivalence:
    def _alerts(self, rng, n, width):
        times = np.sort(rng.choice(
            np.arange(n) * width, size=int(rng.integers(1, n)),
            replace=False))
        return [Alert(time=int(t), value=float(rng.uniform(0, 50)),
                      baseline=100.0) for t in times]

    def test_matches_scalar_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            alerts = self._alerts(rng, 200, FIVE_MINUTES)
            gap = int(rng.integers(0, 4))
            assert group_alerts(alerts, FIVE_MINUTES, max_gap_bins=gap) \
                == group_alerts_scalar(alerts, FIVE_MINUTES,
                                       max_gap_bins=gap)

    def test_open_episode_tracks_every_prefix(self):
        """Fed in chunks, the grouper's closed episodes plus its open
        one equal the oracle's grouping of the alerts seen so far."""
        rng = np.random.default_rng(12)
        for _ in range(20):
            alerts = self._alerts(rng, 120, FIVE_MINUTES)
            gap = int(rng.integers(0, 3))
            for name, chunks in _chunkings(rng, len(alerts)):
                grouper = StreamingEpisodeGrouper(FIVE_MINUTES,
                                                  max_gap_bins=gap)
                closed = []
                for a, b in chunks:
                    closed.extend(grouper.feed(alerts[a:b]))
                    want = group_alerts_scalar(alerts[:b], FIVE_MINUTES,
                                               max_gap_bins=gap)
                    assert closed == want[:-1], (name, b)
                    assert grouper.open_episode() == want[-1], (name, b)
                closed.extend(grouper.finalize())
                assert grouper.open_episode() is None
                assert grouper.finalize() == []
                assert closed == group_alerts_scalar(
                    alerts, FIVE_MINUTES, max_gap_bins=gap), name

    def test_empty_and_single(self):
        assert group_alerts([], FIVE_MINUTES) == []
        assert StreamingEpisodeGrouper(FIVE_MINUTES).open_episode() is None
        one = [Alert(time=300, value=1.0, baseline=10.0)]
        assert group_alerts(one, FIVE_MINUTES) \
            == group_alerts_scalar(one, FIVE_MINUTES)

    def test_feed_after_finalize_rejected(self):
        grouper = StreamingEpisodeGrouper(FIVE_MINUTES)
        grouper.finalize()
        with pytest.raises(SignalError, match="finalized"):
            grouper.feed([Alert(time=0, value=1.0, baseline=10.0)])

    @pytest.mark.parametrize("grouper", [group_alerts, group_alerts_scalar])
    def test_negative_max_gap_rejected(self, grouper):
        alerts = [Alert(time=0, value=1.0, baseline=10.0)]
        with pytest.raises(SignalError, match="max gap"):
            grouper(alerts, FIVE_MINUTES, max_gap_bins=-1)

    @pytest.mark.parametrize("grouper", [group_alerts, group_alerts_scalar])
    def test_nonpositive_bin_width_rejected(self, grouper):
        with pytest.raises(SignalError, match="bin width"):
            grouper([], 0)


class TestProbingEquivalence:
    def _run(self, rng, n_blocks):
        blocks = [
            ProbedBlock(slash24=int(i),
                        response_rate=float(rng.uniform(0.15, 0.95)))
            for i in range(n_blocks)]
        return ActiveProbingRun(blocks)

    def test_up_count_series_matches_scalar(self):
        rng = np.random.default_rng(13)
        window = TimeRange(utc(2019, 1, 1), utc(2019, 1, 3))
        for trial in range(5):
            run = self._run(rng, int(rng.integers(3, 60)))
            n_rounds = (window.end - window.start) // 600
            up = rng.uniform(0.0, 1.0, size=n_rounds)
            seed = int(rng.integers(2**31))
            vec = run.up_count_series(
                window, up, np.random.default_rng(seed))
            scalar = up_count_series_scalar(
                run, window, up, np.random.default_rng(seed))
            assert vec.start == scalar.start
            assert vec.width == scalar.width
            assert vec.values.tobytes() == scalar.values.tobytes(), trial


class TestSeriesArrayAPI:
    def test_arrays_roundtrip_through_from_arrays(self):
        series = TimeSeries(600, FIVE_MINUTES, [1.0, 2.0, 3.0])
        rebuilt = TimeSeries.from_arrays(*series.arrays())
        assert rebuilt.start == series.start
        assert rebuilt.width == series.width
        assert np.array_equal(rebuilt.values, series.values)

    def test_arrays_values_are_live_view(self):
        series = TimeSeries(0, FIVE_MINUTES, [1.0, 2.0])
        _, values = series.arrays()
        values[0] = 99.0
        assert series.at(0) == 99.0

    def test_bin_starts_match_iteration(self):
        series = TimeSeries(300, FIVE_MINUTES, [5.0, 6.0, 7.0])
        assert list(series.bin_starts) == [ts for ts, _ in series]

    def test_from_arrays_rejects_bad_columns(self):
        with pytest.raises(SignalError, match="at least two"):
            TimeSeries.from_arrays(np.array([0]), np.array([1.0]))
        with pytest.raises(SignalError, match="evenly spaced"):
            TimeSeries.from_arrays(np.array([0, 300, 900]), np.ones(3))
        with pytest.raises(SignalError, match="evenly spaced"):
            TimeSeries.from_arrays(np.array([600, 300]), np.ones(2))
        with pytest.raises(SignalError, match="length"):
            TimeSeries.from_arrays(np.array([0, 300]), np.ones(3))


class TestPipelineByteIdentity:
    """The whole pipeline — signals, detection, curation, merge — must
    be byte-identical on every executor backend."""

    @pytest.fixture(scope="class")
    def small_run(self):
        import repro.api as api
        from repro.world.scenario import ScenarioConfig
        config = ScenarioConfig(seed=11, years=(2019,))
        period = TimeRange(utc(2019, 1, 1), utc(2019, 5, 1))
        kwargs = dict(scenario_config=config, study_period=period)
        return kwargs, api.run(**kwargs)

    @staticmethod
    def _record_bytes(result):
        import json
        from repro import io
        return json.dumps(
            [io.record_to_dict(r) for r in result.curated_records],
            sort_keys=True)

    def test_flag_off_matches_across_backends(self, small_run):
        import repro.api as api
        kwargs, serial = small_run
        parallel = api.run(workers=2, backend="thread", **kwargs)
        assert self._record_bytes(parallel) == self._record_bytes(serial)
