"""Golden digests, one per single-host experiment family.

Each family builds its testbed in one module function
(``scenario_spec``), which its ``run_point`` compiles. This file runs
one point of each family over a short window through that function and
pins the sha256 of its measurements in sorted-JSON form. The digests
were first captured from the hand-built single-host builder these specs
replaced, so they also pin that the translation changed nothing. fig09
is pinned separately (``tests/sim/test_golden.py``).

If a digest moves, that family's testbed behaviour changed. Recapture:

    PYTHONPATH=src python tests/experiments/test_family_goldens.py
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.experiments import (ablations, chaos, dynamic, lessons, limits,
                               soak, table2, table4)
from repro.sim.units import US
from repro.workloads import compile_scenario

#: The short window every family is measured over, µs.
SHORT = {"warmup_us": 100.0, "duration_us": 150.0}


def _short(spec):
    spec["measure"] = dict(SHORT)
    return compile_scenario(spec)


def _one_window(spec):
    return [_short(spec).run_measure()["host"]]


def _chaos():
    # The fault opens at 500 us: measure the spec's own pre-fault window,
    # then a short window inside the fault.
    params = {"variant": "ceio-norecovery", "magnitude": 1.0,
              "quick": True, "faults": chaos._plan(1.0).to_dicts()}
    scenario = compile_scenario(chaos.scenario_spec(params, 23))
    return [scenario.run_measure()["host"],
            scenario.run_measure(0.0, 100 * US)["host"]]


def _phase_step(kind, arch):
    params = {"kind": kind, "arch": arch, "quick": True}
    scenario = _short(dynamic.scenario_spec(params, 11))
    before = scenario.run_measure()["host"]
    dynamic._phase_action(scenario, kind)
    return [before, scenario.run_measure()["host"]]


def _soak():
    (point,) = [p for p in soak.points(quick=True)
                if p.point_id == "soak/p027.ceio.f2"]
    spec = soak.scenario_spec(point.params, point.seed)
    return [compile_scenario(spec).run_measure()["host"]]


FAMILIES = {
    "table2": lambda: _one_window(table2.scenario_spec(
        {"datapath": "erpc-dpdk", "arch": "hostcc", "quick": True}, 13)),
    "table4": lambda: _one_window(table4.scenario_spec(
        {"system": "ceio-noopt", "involved": 4, "bypass": 4,
         "quick": True}, 17)),
    "limits": lambda: _one_window(
        limits.scenario_spec("jumbo", "baseline", True, 23)),
    "lessons": lambda: _one_window(
        lessons.scenario_spec("rdma", "ceio", True, 37)),
    "ablations": lambda: _one_window(ablations.scenario_spec(
        {"kind": "mixed", "lazy_release": False, "phase_exclusivity": True,
         "quick": True}, 29)),
    "chaos": _chaos,
    "fig10-dynamic": lambda: _phase_step("dynamic", "ceio"),
    "fig10-burst": lambda: _phase_step("burst", "shring"),
    "soak": _soak,
}

GOLDEN = {
    "ablations": "c5a33de6856ebc550ca0009eccf793e3e2a17a568975a9be5a97deff7025cdaa",
    "chaos": "41120d0ba4246ac94222fa457cf13e06f327154c8a051096e985e2e29106afae",
    "fig10-burst": "8087e364b4f38f1db2daafd6c74e94a6c9b78024d22f24839952a57b9f6fa61a",
    "fig10-dynamic": "506e8ab78a74b3d8c1a7a756b29a7a3cdbf679b44e158323455c2dd7fa3ab8ff",
    "lessons": "af79ae365c6ea66a27cff45867fe5cee2631f38627a197206655cff2888f8ca0",
    "limits": "52024464a669f63a046a51992d67d7690af84d830df4d3374d60b8139d33e726",
    "soak": "038bda2750b964296c6efebd96b4a8e191c4303e16622014f355246b46df88d6",
    "table2": "e66c09294167bd7888fb7e9e850e54a82c605de1761a4ba470292c7d22ed744a",
    "table4": "6b66b995c23f575405e8f899ac0ce3bf570898d6f16cc5d7ebfeb19b011b8b9e",
}


def digest(family: str) -> str:
    payload = json.dumps([asdict(m) for m in FAMILIES[family]()],
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_measurement_matches_golden(family):
    assert digest(family) == GOLDEN[family]


if __name__ == "__main__":
    for name in sorted(FAMILIES):
        print(f'    "{name}": "{digest(name)}",')
