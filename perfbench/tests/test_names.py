"""BENCHMARK.json, the emitted metrics and the interaction map agree."""

import json
import re
from pathlib import Path

import pytest

from run import END_TO_END
from spans import PER_LAYER
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
MAP = json.loads((BENCH / "interactions.json").read_text())

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def names(key):
    return [entry["name"] for entry in SPEC[key]]


def test_spec_has_exactly_the_contract_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert all(set(w) == {"name", "why"} for w in SPEC["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"}
               for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"}
               for m in SPEC["per_layer"])


@pytest.mark.parametrize("key", ["workloads", "end_to_end", "per_layer"])
def test_names_are_valid_and_unique(key):
    listed = names(key)
    assert all(NAME.match(name) for name in listed), listed
    assert len(set(listed)) == len(listed)


def test_units_whys_and_bounds_are_valid():
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    for workload in SPEC["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_spec_matches_what_the_benchmark_emits():
    assert set(names("workloads")) <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


def test_interaction_map_covers_every_metric_by_valid_names():
    e2e, workloads = set(END_TO_END), set(WORKLOADS)
    grouped = [name for group in MAP["groups"] for name in group["metrics"]]
    assert sorted(grouped) == sorted(PER_LAYER)
    assert set(MAP["end_to_end"]) == e2e
    for group in MAP["groups"]:
        for claim in group["moves"] + group["flat"]:
            assert claim["metric"] in e2e, (group["metrics"], claim)
            assert claim["workload"] in workloads, (group["metrics"], claim)
    for definitions in MAP["end_to_end"].values():
        assert set(definitions) == workloads
