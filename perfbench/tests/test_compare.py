"""Comparisons refuse results from different machines."""

from compare import compare, verdict

SPEC = {"end_to_end": [{"name": "run_wall_s", "unit": "s",
                        "better": "lower", "bound": 0.1}]}
HERE = {"nproc": 2, "cpu": "A", "python": "3.11.7", "numpy": "2",
        "repro": "1.0.0"}


def result(value, fingerprint=HERE):
    return {"workload": "batch-serial", "trace": 0,
            "fingerprint": fingerprint,
            "metrics": {"run_wall_s": {"value": value, "unit": "s"}}}


def test_different_fingerprints_are_refused():
    other = dict(HERE, cpu="B")
    assert compare([result(1.0)] * 3, [result(1.0, other)] * 3, SPEC) == 3


def test_a_slower_head_regresses():
    assert compare([result(1.0)] * 3, [result(1.2)] * 3, SPEC) == 1
    assert compare([result(1.0)] * 3, [result(1.05)] * 3, SPEC) == 0


def test_a_spread_wider_than_the_bound_is_unresolved():
    base = [1.0, 0.7, 1.3, 0.8, 1.2]
    assert verdict(base, [1.0] * 5, 0.1, True) == "unresolved"
    assert verdict(base, [0.5] * 5, 0.1, True) == "ok"
