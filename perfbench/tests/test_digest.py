"""Records digests agree across backends on a tiny scenario."""

import pytest

import repro.api as api
from repro.timeutils.timestamps import TimeRange, utc
from repro.world.scenario import ScenarioConfig

from workloads import records_digest

CONFIG = ScenarioConfig(seed=7, years=(2018,))
PERIOD = TimeRange(utc(2018, 1, 1), utc(2018, 4, 1))


@pytest.fixture(scope="module")
def serial(tmp_path_factory):
    """A cold serial run and the shard cache it wrote."""
    cache_dir = tmp_path_factory.mktemp("serial")
    result = api.run(scenario_config=CONFIG, study_period=PERIOD,
                     backend="serial", cache_dir=cache_dir)
    assert result.curated_records
    return result, cache_dir


@pytest.fixture(scope="module")
def serial_digest(serial):
    return records_digest(serial[0].curated_records)


def test_process_backend_matches_serial(serial_digest, tmp_path):
    result = api.run(scenario_config=CONFIG, study_period=PERIOD,
                     backend="process", workers=2, cache_dir=tmp_path)
    assert records_digest(result.curated_records) == serial_digest


def test_stream_replay_matches_serial(serial_digest):
    session = api.stream(scenario_config=CONFIG, study_period=PERIOD)
    for _events in session.replay(step=86400):
        pass
    result = session.finalize()
    assert records_digest(result.curated_records) == serial_digest


def test_warm_rerun_matches_cold(serial, serial_digest):
    warm = api.run(scenario_config=CONFIG, study_period=PERIOD,
                   backend="serial", cache_dir=serial[1])
    assert warm.stats.cache_misses == 0
    assert records_digest(warm.curated_records) == serial_digest


def test_digest_changes_with_the_records(serial, serial_digest):
    assert records_digest(serial[0].curated_records[1:]) != serial_digest
