"""Layer hooks: self-time arithmetic, install/uninstall, the hook table."""

import importlib
import json
import sys
import time
import types
from pathlib import Path

import pytest

import layers
from layers import Hook, LayerTracer, hook_metrics, layer_times, unobserved

ROOT = Path(__file__).resolve().parents[2]


def _record(span_id, name, start, end, parent=None):
    return {"span_id": span_id, "name": name, "start": start, "end": end,
            "parent_id": parent, "attrs": {}}


def test_self_time_subtracts_direct_children_only():
    records = [
        _record("a", "outer", 0.0, 10.0),
        _record("b", "mid", 1.0, 6.0, "a"),
        _record("c", "leaf", 2.0, 4.0, "b"),
        _record("d", "leaf", 7.0, 8.0, "a"),
    ]
    times = layer_times(records)
    assert times["outer"] == {"s": 10.0, "self_s": 4.0, "calls": 1}
    assert times["mid"] == {"s": 5.0, "self_s": 3.0, "calls": 1}
    assert times["leaf"] == {"s": 3.0, "self_s": 3.0, "calls": 2}


def test_reentrant_hook_counts_its_outermost_call_once():
    records = [
        _record("a", "walk", 0.0, 10.0),
        _record("b", "walk", 2.0, 6.0, "a"),
        _record("c", "walk", 3.0, 4.0, "b"),
    ]
    times = layer_times(records)
    assert times["walk"]["s"] == 10.0
    assert times["walk"]["self_s"] == pytest.approx(10.0)
    assert times["walk"]["calls"] == 3


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("e2e_fake_layer")

    def inner(seconds):
        time.sleep(seconds)
        return seconds

    def outer():
        # Calls go through the module, where the hooks rebind the names.
        time.sleep(0.02)
        return module.inner(0.01) + module.inner(0.01) + sum(module.pairs(3))

    def pairs(n):
        for i in range(n):
            time.sleep(0.005)
            yield i

    class Box:
        def open(self):
            return module.inner(0.0)

    module.inner, module.outer, module.pairs, module.Box = inner, outer, pairs, Box
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def _hooks():
    return (
        Hook("outer", "fake", "e2e_fake_layer:outer", ("w",), "-"),
        Hook("inner", "fake", "e2e_fake_layer:inner", ("w",), "-"),
        Hook("pairs", "fake", "e2e_fake_layer:pairs", ("w",), "-"),
        Hook("Box.open", "fake", "e2e_fake_layer:Box.open", ("w",), "-"),
    )


def test_nested_hooks_give_parent_self_time(fake_module):
    with LayerTracer(_hooks()) as tracer:
        fake_module.outer()
    times = layer_times(tracer.records())
    outer, inner, pairs = times["outer"], times["inner"], times["pairs"]
    assert inner["calls"] == 2 and pairs["calls"] == 1 and outer["calls"] == 1
    assert outer["self_s"] == pytest.approx(outer["s"] - inner["s"] - pairs["s"])
    assert inner["s"] >= 0.02
    # The generator is charged only for its own steps (3 x 5 ms), not
    # for the time its consumer held it open.
    assert 0.015 <= pairs["s"] < outer["s"] - inner["s"]


def test_methods_are_hooked_and_uninstall_restores_everything(fake_module):
    originals = (fake_module.outer, fake_module.inner, fake_module.Box.open)
    tracer = LayerTracer(_hooks()).install()
    try:
        assert fake_module.inner is not originals[1]
        fake_module.Box().open()
    finally:
        tracer.uninstall()
    assert (fake_module.outer, fake_module.inner, fake_module.Box.open) == originals
    names = [r["name"] for r in tracer.records()]
    assert names.count("Box.open") == 1 and names.count("inner") == 1


def test_unobserved_names_declared_hooks_with_no_calls():
    records = [_record("a", "Engine.run", 0.0, 1.0)]
    missing = unobserved(records, "fleet")
    assert "Engine.run" not in missing
    assert "FleetCampaign.run" in missing
    metrics = hook_metrics(records)
    assert metrics["Engine.run.calls"] == 1
    assert metrics["render_table1.calls"] == 0


def test_every_hook_target_resolves_to_a_callable():
    for hook in layers.HOOKS:
        owner, attr = layers._resolve(hook.target)
        assert callable(getattr(owner, attr)), hook.target
        for alias in hook.aliases:
            module = importlib.import_module(alias)
            assert getattr(module, attr) is getattr(owner, attr), (alias, attr)


def test_benchmark_json_declares_every_hook_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    assert set(layers.hook_metric_names()) <= declared
    assert {f"import.{k}_s" for k in layers.IMPORT_KEYS} <= declared
    assert len(declared) <= 128
