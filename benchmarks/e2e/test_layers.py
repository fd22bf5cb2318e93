"""The layer map covers the ``repro`` package exactly.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from pathlib import Path

from layers import LAYERS, attribute, module_name

SRC = Path(__file__).resolve().parents[2] / "src"


def test_every_module_maps_to_exactly_one_layer():
    on_disk = {module_name(path, SRC)
               for path in (SRC / "repro").rglob("*.py")}
    listed = [module for modules in LAYERS.values() for module in modules]
    assert sorted({m for m in listed if listed.count(m) > 1}) == []
    assert sorted(on_disk - set(listed)) == [], "modules with no layer"
    assert sorted(set(listed) - on_disk) == [], "layer entries with no module"


def test_outside_code_is_charged_to_its_callers():
    engine = (str(SRC / "repro" / "sim" / "engine.py"), 1, "run_until")
    link = (str(SRC / "repro" / "net" / "link.py"), 1, "send")
    helper = ("/usr/lib/python3/heapq.py", 1, "merge")
    builtin = ("~", 0, "<built-in method builtins.len>")
    stats = {
        engine: (1, 1, 3.0, 10.0, {}),
        link: (5, 5, 1.0, 7.0, {engine: (5, 5, 1.0, 7.0)}),
        # 4 s of outside code, called 3:1 (by self time) from engine/link.
        helper: (4, 4, 4.0, 6.0, {engine: (3, 3, 3.0, 4.0),
                                  link: (1, 1, 1.0, 2.0)}),
        # 2 s of builtin, called only from the outside helper.
        builtin: (8, 8, 2.0, 2.0, {helper: (8, 8, 2.0, 2.0)}),
    }
    layers = attribute(stats, SRC)
    assert layers["sim.engine"]["self_s"] == 3.0 + 3.0 + 1.5
    assert layers["net.link"]["self_s"] == 1.0 + 1.0 + 0.5
    assert sum(layer["self_s"] for layer in layers.values()) == 10.0
    assert layers["sim.engine"]["calls"] == 1
    assert layers["net.link"]["calls"] == 5
