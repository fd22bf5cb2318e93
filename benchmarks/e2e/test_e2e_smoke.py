"""Smoke test of the end-to-end benchmark on shortened windows.

Every workload runs once untraced and once traced, in this process, at
20 us warm-up and 40 us measurement (the shard workload in inline mode).
Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

import pytest

from layers import LAYER_NAMES
from measure import run_repeat
from run import aggregate, load_benchmark
from workloads import WORKLOADS

WINDOW = (20.0, 40.0)


@pytest.fixture(scope="module")
def bench():
    return load_benchmark()


@pytest.fixture(scope="module")
def reports(bench):
    out = {}
    for name, workload in WORKLOADS.items():
        seed = workload.default_seed
        records = [run_repeat(name, seed, traced=traced, measure=WINDOW,
                              mode="inline")
                   for traced in (False, True)]
        out[name] = aggregate(name, seed, records, [], bench, None)
    return out


def test_every_metric_is_emitted_with_its_unit(bench, reports):
    for section in ("end_to_end", "per_layer"):
        expected = {m["name"]: m["unit"] for m in bench[section]}
        for name, report in reports.items():
            emitted = {metric: stat["unit"]
                       for metric, stat in report[section].items()}
            assert emitted == expected, (name, section)


def test_audit_clean_and_traced_digest_equals_untraced(reports):
    # aggregate() fails a repeat on an audit violation or on a digest
    # other than the untraced repeat's.
    for name, report in reports.items():
        assert report["failed"] == 0, (name, report["errors"])
        assert report["attempted"] == 2


def test_sharded_incast_equals_single_kernel(reports):
    assert reports["incast64"]["digest"] == reports["incast64-s2"]["digest"]


def test_self_shares_sum_to_one_and_separate_the_layers(reports):
    for name, report in reports.items():
        share = {layer: report["per_layer"][f"{layer}.self_share"]["value"]
                 for layer in LAYER_NAMES}
        assert sum(share.values()) == pytest.approx(1.0, abs=0.01), name
        if name != "flash-crowd":
            assert share["demand"] == 0.0, name
        if name != "incast64-s2":
            assert share["shard"] == share["runner"] == 0.0, name
    ddio = reports["paper-ddio"]["per_layer"]
    assert all(ddio[f"{layer}.self_share"]["value"] == 0.0
               for layer in LAYER_NAMES if layer.startswith("core."))
    ceio = reports["paper-ceio"]["per_layer"]
    assert ceio["core.runtime.self_share"]["value"] > 0.0
