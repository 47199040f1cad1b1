"""Importing bevlab afresh, as the benchmark harness does before each round,
leaves the modules of the earlier imports free to be collected."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import bevlab

# every bevlab module the benchmark harness imports, re-imported in two batches
REIMPORT = textwrap.dedent("""
    import gc, importlib, sys

    MODULES = ("losses", "geometry", "metrics", "sgd", "bench", "boxio", "gridio", "reports", "cli")

    def reimport():
        for name in [n for n in sys.modules if n == "bevlab" or n.startswith("bevlab.")]:
            del sys.modules[name]
        importlib.invalidate_caches()
        importlib.import_module("bevlab")
        for name in MODULES:
            importlib.import_module(f"bevlab.{name}")

    def live_geometry_dicts():
        gc.collect()
        return sum(type(o) is dict and o.get("__name__") == "bevlab.geometry" and "__spec__" in o
                   for o in gc.get_objects())

    counts = []
    for batch in (5, 25):
        for _ in range(batch):
            reimport()
        counts.append(live_geometry_dicts())
    print(*counts)
""")


def test_reimport_frees_earlier_modules():
    # a module-level object that a cache outside bevlab keeps, such as a typing alias over Box3D
    # in typing's subscription cache, holds each import's geometry globals and so its whole module
    src = Path(bevlab.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", REIMPORT], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    after_5, after_30 = map(int, done.stdout.split())
    assert after_30 <= after_5, f"live bevlab.geometry globals: {after_5} after 5 imports, {after_30} after 30"
