"""The benchmark's traced run hooks into the library by name: ``perfbench/layers.py``
binds a traced wrapper at each module attribute it times.  A library name that is
renamed or deleted must fail here, not first in a traced benchmark run."""

import importlib
from pathlib import Path
from types import SimpleNamespace

MODULES = ("losses", "geometry", "metrics", "sgd", "bench", "boxio", "gridio", "reports", "cli")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_binding_installs_and_is_put_back(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")  # not run.py: importing it sets the BLAS thread variables
    bl = SimpleNamespace(**{m: importlib.import_module(f"bevlab.{m}") for m in MODULES})
    traced = layers.Layers(bl)  # reads every bound name, so a missing one raises AttributeError here
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in traced.bindings]
    traced.install()
    try:
        assert all(getattr(module, attr) is wrapper for module, attr, wrapper in traced.bindings)
    finally:
        traced.uninstall()
    assert all(getattr(module, attr) is original for module, attr, original in originals)
