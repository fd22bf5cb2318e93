"""The acceptance pin for the paper testbed: the ``paper-baseline``
template compiled on its ``two_host`` fabric, and the same testbed
written with :func:`~repro.workloads.two_host_spec`, measure the same
bytes — same RNG draws, same event order, same 19-account conservation
audit.

The digest below is the sha256 of the measurement in sorted-JSON form at
(warmup=150us, duration=250us, seed=0). It was first captured from the
hand-built single-host builder this compiler replaced, and has not
moved since. If it moves, the paper testbed's behaviour changed (see
``tests/sim/test_golden.py``). Recapture:

    PYTHONPATH=src python tests/topo/test_two_host_compat.py
"""

import hashlib
import json
from dataclasses import asdict

from repro.scenario import template
from repro.workloads import compile_scenario, two_host_spec

# Recaptured when the overload-guardrail work added the ``arch.admission``
# conservation account: the measurement's embedded audit report grew from
# 18 to 19 checked accounts (simulation draws and event order unchanged —
# only the report schema moved).
GOLDEN_TWO_HOST = \
    "049aaa96b1eb4e9c624cd26c5165b8b5b1a2c6fa5e01a5f31b4189113b7a57c3"

WARMUP_US, DURATION_US = 150.0, 250.0


def _measure_json(spec) -> str:
    spec["measure"] = {"warmup_us": WARMUP_US, "duration_us": DURATION_US}
    measurement = compile_scenario(spec).run_measure()["host"]
    return json.dumps(asdict(measurement), sort_keys=True)


def _template_json() -> str:
    return _measure_json(template("paper-baseline"))


def test_two_host_fabric_reproduces_legacy_testbed_byte_for_byte():
    pinned = _template_json()
    assert hashlib.sha256(pinned.encode()).hexdigest() == GOLDEN_TWO_HOST, \
        "testbed behaviour moved — recapture (see module docstring)"
    spec = two_host_spec([{"name": "kv", "workload": "kvstore",
                           "flows": 8}])
    assert _measure_json(spec) == pinned


def test_two_host_fabric_uses_legacy_names():
    spec = template("paper-baseline")
    scenario = compile_scenario(spec)
    # Single-server two_host topologies keep unprefixed RNG streams and
    # audit account names; the audit is the legacy 19-account ledger
    # (18 + arch.admission) and there are no interior switch ports.
    endpoint = scenario.fabric.endpoints["host"]
    assert endpoint.port.name == "tor"
    assert scenario.fabric.legacy
    assert scenario.fabric.interior_ports() == []
    assert len(scenario.reconciler.ledger.accounts) == 19


if __name__ == "__main__":
    digest = hashlib.sha256(_template_json().encode()).hexdigest()
    print(f'GOLDEN_TWO_HOST = \\\n    "{digest}"')
