"""Time-series signal infrastructure shared by IODA's three signals.

- :mod:`repro.signals.series` — fixed-width binned time series.
- :mod:`repro.signals.entities` — the country/region/AS entity keys that
  IODA aggregates each signal over.
- :mod:`repro.signals.alerts` — the parameters of IODA's
  median-of-trailing-window alert rule and the alerts and episodes it
  produces (the detector itself is :mod:`repro.stream.detect`).
"""

from repro.signals.series import TimeSeries
from repro.signals.entities import Entity, EntityScope
from repro.signals.kinds import SignalKind
from repro.signals.alerts import (
    Alert,
    AlertEpisode,
    DetectorConfig,
)

__all__ = [
    "TimeSeries",
    "Entity",
    "EntityScope",
    "SignalKind",
    "Alert",
    "AlertEpisode",
    "DetectorConfig",
]
