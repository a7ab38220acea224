"""Every function the benchmark's traced run wraps must exist.

perfbench/layers.py names each probe as (module, attribute, span, count),
and the tracer replaces that attribute through getattr, so a name a module
no longer holds stops a traced run at its start.  A count function is called
as count(counts, result, **arguments) with every argument of the probed
call bound by name, defaults included, so the two must name the same
parameters.  layers.py is loaded from its file and not changed.
"""

import importlib
import importlib.util
import inspect
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_every_probe_target_resolves():
    probes = load_layers().PROBES
    assert len(probes) > 30  # the probe table was found
    missing, misnamed = [], []
    for module_name, attr, span, _ in probes:
        target = getattr(importlib.import_module(module_name), attr, None)
        if not callable(target):
            missing.append((module_name, attr))
            continue
        layer, _, name = span.rpartition(".")
        # a span named after a function is the function its layer defines
        if name == attr and target.__module__ != f"stochnls.{layer}":
            misnamed.append((module_name, attr, target.__module__))
    assert missing == []
    assert misnamed == []


def test_every_count_binds_to_its_probed_function():
    probes = [p for p in load_layers().PROBES if p[3] is not None]
    assert len(probes) > 5  # the counted probes were found
    unbound = []
    for module_name, attr, _, count in probes:
        target = getattr(importlib.import_module(module_name), attr)
        arguments = dict.fromkeys(inspect.signature(target).parameters)
        try:
            inspect.signature(count).bind(None, None, **arguments)
        except TypeError as exc:
            unbound.append((module_name, attr, count.__name__, str(exc)))
    assert unbound == []
