"""The acceptance pin for the two scenario builders: the hand-built
``Scenario`` (on its ``two_host()`` fabric) and the declarative
``compile_scenario`` run of the ``paper-baseline`` template are
byte-identical — same RNG draws, same event order, same measurements,
same 19-account conservation audit.

The digest below is the sha256 of ``Scenario``'s measurement in
sorted-JSON form at (warmup=150us, duration=250us, seed=0). If it moves,
the paper testbed's behaviour changed (see ``tests/sim/test_golden.py``);
if the equality assertion fails while the digest holds, the declarative
compilation drifted from ``Scenario``'s construction order. Recapture:

    PYTHONPATH=src python tests/topo/test_two_host_compat.py
"""

import hashlib
import json
from dataclasses import asdict

from repro.scenario import template
from repro.sim.units import US
from repro.workloads import Scenario, ScenarioConfig
from repro.workloads.topo_scenario import compile_scenario

# Recaptured when the overload-guardrail work added the ``arch.admission``
# conservation account: the measurement's embedded audit report grew from
# 18 to 19 checked accounts (simulation draws and event order unchanged —
# only the report schema moved).
GOLDEN_TWO_HOST = \
    "049aaa96b1eb4e9c624cd26c5165b8b5b1a2c6fa5e01a5f31b4189113b7a57c3"

WARMUP_US, DURATION_US = 150.0, 250.0


def _legacy_json() -> str:
    config = ScenarioConfig(warmup=WARMUP_US * US,
                            duration=DURATION_US * US)
    measurement = Scenario(config).build().run_measure()
    return json.dumps(asdict(measurement), sort_keys=True)


def _topo_json() -> str:
    spec = template("paper-baseline")
    spec["measure"] = {"warmup_us": WARMUP_US, "duration_us": DURATION_US}
    measurement = compile_scenario(spec).run_measure()["host"]
    return json.dumps(asdict(measurement), sort_keys=True)


def test_two_host_fabric_reproduces_legacy_testbed_byte_for_byte():
    legacy = _legacy_json()
    topo = _topo_json()
    assert hashlib.sha256(legacy.encode()).hexdigest() == GOLDEN_TWO_HOST, \
        "Scenario behaviour moved — recapture (see module docstring)"
    assert topo == legacy


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
    digest = hashlib.sha256(_legacy_json().encode()).hexdigest()
    print(f'GOLDEN_TWO_HOST = \\\n    "{digest}"')
