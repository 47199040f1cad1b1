"""Seeded benchmark of bevlab: one workload per run, in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; bevlab is imported from its ``src``.  The
run sets up its inputs, runs one warm-up round, then times rounds of the
workload's fixed work for ``--seconds``, starting no round that would end
after them.  Times and rates are totals over all timed rounds: the host's
speed switches between states that last several seconds, and a median of
rounds jumps between them where the total moves smoothly.  For the same
reason the set-up is timed again before each round, not all at the start,
and its median is reported.  Every op's output is checked outside
the timed region, and a deliberately corrupted output must fail its check.
The last line of standard output is one JSON object: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of traced
rounds, which alternate with untraced rounds so their difference gives the
tracing overhead; the spans of the last traced round are saved under
``.perfbench``.
Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import os

# Pin every BLAS / OpenMP pool before NumPy loads: one thread, whatever nproc is.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from types import SimpleNamespace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "oracle_eval.py"
WORK = ROOT / ".perfbench"
MODULES = ("losses", "geometry", "metrics", "sgd", "bench", "boxio", "gridio", "reports", "cli")
MIN_ROUNDS = 3


def bevlab_modules() -> dict:
    return {name: module for name, module in sys.modules.items() if name == "bevlab" or name.startswith("bevlab.")}


def import_bevlab() -> SimpleNamespace:
    """Import bevlab afresh, so that each set-up pays its import."""
    for name in bevlab_modules():
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("bevlab")
    return SimpleNamespace(**{m: importlib.import_module(f"bevlab.{m}") for m in MODULES})


def timed_setup(workload_class, seed: int, tmp: Path) -> float:
    """Seconds to import bevlab afresh and generate a workload's inputs into
    ``tmp``.  The bevlab modules the run uses are put back afterwards, so
    imports made inside a function still find the ones being traced."""
    live = bevlab_modules()
    t0 = time.perf_counter()
    workload_class(import_bevlab(), seed, tmp).setup()
    seconds = time.perf_counter() - t0
    for name in bevlab_modules():
        del sys.modules[name]
    sys.modules.update(live)
    return seconds


def load_oracle():
    spec = importlib.util.spec_from_file_location("oracle_eval", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def environment() -> dict:
    import numpy as np

    def read(path, prefix=None):
        try:
            with open(path) as fh:
                for line in fh:
                    if prefix is None:
                        return line.strip()
                    if line.startswith(prefix):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": read("/proc/cpuinfo", "model name"),
        "l3": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "blas_threads": BLAS_THREADS,
    }


class Stats:
    def __init__(self) -> None:
        self.attempted = self.failed = 0

    def run_round(self, workload, r: int, layers=None) -> tuple[float, int]:
        """Run one round and check it; returns (seconds timed, items completed)."""
        seconds, items = 0.0, 0
        gc.collect()  # start each round with no garbage from the last one
        for op, info in workload.ops(r):
            if layers is not None:
                layers.install()
            t0 = time.perf_counter()
            try:
                if layers is None:
                    out = op()
                else:
                    with layers.tracer.span(workload.op_name(info)):
                        out = op()
            except Exception:  # an op that raises is a failed op
                traceback.print_exc(file=sys.stderr)
                out = None
            seconds += time.perf_counter() - t0
            if layers is not None:
                layers.uninstall()
            if out is None:
                self.attempted += 1
                self.failed += 1
                continue
            try:
                attempted, failed = workload.check(out, info)
            except Exception:  # an output the check cannot read is a failed op
                traceback.print_exc(file=sys.stderr)
                attempted, failed = 1, 1
            self.attempted += attempted
            self.failed += failed
            if not failed:
                items += workload.items(out, info)
        return seconds, items


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "bevlab" / "__init__.py").is_file() or not ORACLE.is_file() or not spec_path.is_file():
        print(f"error: no bevlab checkout at {ROOT} (need src/bevlab, tests/oracle_eval.py, BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return run(args, spec, tmp, WORKLOADS[args.workload])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run(args, spec, tmp: Path, workload_class) -> int:
    bl = import_bevlab()  # the first import also loads NumPy, so it is not timed
    workload = workload_class(bl, args.seed, tmp)
    workload.setup()
    workload.start(load_oracle())
    setup_tmp = tmp / "setup"
    setup_tmp.mkdir()
    setups = []  # one timed set-up before each measured round

    stats = Stats()
    stats.run_round(workload, 0)  # warm-up: caches, lazy imports, first allocations
    layers = None
    if args.trace:
        from layers import Layers

        layers = Layers(bl)
    plain, traced = [], []  # (seconds, items) per measured round
    t_start = time.perf_counter()
    t_end = t_start + args.seconds

    def enough():
        return len(plain) >= 2 and len(traced) >= 2 if args.trace else len(plain) >= MIN_ROUNDS

    def room():
        """True when one more round, taken to last as long as the mean round
        so far (checks included), still ends within ``--seconds``."""
        now = time.perf_counter()
        return now + (now - t_start) / (r - 1) <= t_end

    r = 1
    while not enough() or room():
        setups.append(timed_setup(workload_class, args.seed, setup_tmp))
        if args.trace and r % 2 == 0:
            layers.tracer.clear()  # hold one round of spans: the last one is saved
            traced.append(stats.run_round(workload, r, layers))
            layers.fold()
        else:
            plain.append(stats.run_round(workload, r))
        r += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.stop()

    failures = workload.finish()
    caught = workload.self_check()
    correct = stats.failed == 0 and not failures and caught

    timed_s = sum(s for s, _ in plain)
    wall_s = timed_s / len(plain)
    values = {
        "wall_s": wall_s,
        "items_per_s": sum(n for _, n in plain) / timed_s,
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    env = environment()
    if args.trace:
        values = layers.metrics(len(traced))
        values["trace.overhead_s"] = sum(s for s, _ in traced) / len(traced) - wall_s
        layers.tracer.save(WORK / f"trace-{args.workload}.npz", {
            "workload": args.workload, "seed": args.seed, "environment": env, "metrics": values,
        })
    print(f"workload {args.workload} seed {args.seed}: {json.dumps(workload.shape())}")
    print(f"environment: {json.dumps(env)}")
    print(f"rounds: {len(plain)} untraced, {len(traced)} traced; set-ups {len(setups)}")
    for message in failures:
        print(f"check failed: {message}")
    print(f"self-check: corrupted output {'counted as failed' if caught else 'NOT caught'}")
    print(f"{'fail_ratio':<48} {stats.failed / max(stats.attempted, 1):.6g} ({stats.failed}/{stats.attempted} ops)")
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        if m["name"] not in values:
            print(f"error: metric {m['name']!r} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<48} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": stats.attempted, "failed": stats.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
