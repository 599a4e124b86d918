"""ein2lie benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 7 --seconds 40 --trace 0

The run imports the package from the checkout's `src/` into this
process and repeats the workload through `ein2lie.cli.main` until
`--seconds` have been measured.  Between repetitions it times
`import ein2lie` in fresh interpreters (set-up).  Every output is
checked against the stored reference.

With `--trace 0` the last line reports the end-to-end metrics.  With
`--trace 1` half the time runs untraced and half with the call-boundary
tracer installed, and the last line reports the per-layer metrics.  The
line before it records the Python version, nproc and the raw samples.

All load comes from this one process, on its main thread.  Set-up
interpreters run one at a time and are waited for.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-up interpreters read bytecode from a cache inside the checkout, as
# an installed package would, so set-up time is import work, not compiling.
PYCACHE = ROOT / ".bench_build" / "pycache"

SETUP_SAMPLES = 24
CHILD_TIMEOUT_S = 60

# Run in a fresh interpreter: time `import ein2lie` from the checkout.
_SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import ein2lie
elapsed = time.perf_counter() - start
if not ein2lie.__file__.startswith(sys.argv[1]):
    sys.exit("ein2lie imported from " + ein2lie.__file__)
print(repr(elapsed))
"""

# Run under -X importtime: the import log goes to stderr.
_IMPORTTIME_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import ein2lie"


def _child(args):
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(PYCACHE))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(
        [sys.executable, "-s", *args, str(SRC)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
    return proc


def import_seconds() -> float:
    """Seconds to `import ein2lie` in a fresh interpreter."""
    return float(_child(["-c", _SETUP_CODE]).stdout)


def import_branches_seconds() -> float:
    """Self import time of ein2lie.branches (the catalog build), from -X importtime."""
    stderr = _child(["-X", "importtime", "-c", _IMPORTTIME_CODE]).stderr
    for line in stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "ein2lie.branches":
            return int(fields[0].split(":")[1]) / 1e6
    raise RuntimeError("ein2lie.branches missing from the -X importtime log")


class SetupSampler:
    """Set-up samples from fresh interpreters, spread evenly over the run.

    The host's speed drifts over seconds to minutes, so set-up is sampled
    between workload repetitions, under the same conditions as the
    workload, rather than in one burst at the start.
    """

    def __init__(self, sample, seconds: float) -> None:
        _child(["-c", _SETUP_CODE])  # fills the bytecode cache; not timed
        self.sample = sample
        self.seconds = seconds
        self.start = time.perf_counter()
        self.values = []

    def top_up(self, share=None) -> None:
        """Take samples until SETUP_SAMPLES * share are held; share defaults to time elapsed."""
        if share is None:
            share = min(1.0, (time.perf_counter() - self.start) / self.seconds)
        while len(self.values) < round(SETUP_SAMPLES * share):
            self.values.append(self.sample())


def measure(cli, workload, calls, references, budget, tally, setup, tracer=None):
    """Repeat the workload until `budget` seconds have been measured.

    A new repetition starts only while the median repetition still fits
    in the budget; at least one runs.  Set-up samples are taken between
    repetitions, outside the timed region.  Returns the wall time of each
    repetition, of each call, and, when traced, the per-layer metrics of
    each repetition.
    """
    walls, call_walls, layer_samples = [], {}, []
    start = time.perf_counter()
    while True:
        gc.collect()
        if tracer is not None:
            tracer.reset()
        outputs = workloads.run_once(cli, calls)
        walls.append(sum(seconds for *_, seconds in outputs))
        for key, _, _, seconds in outputs:
            call_walls.setdefault(key, []).append(seconds)
        check = workloads.check_outputs(workload, outputs, references)
        tally.add(check)
        if tracer is not None:
            layers = tracer.metrics()
            layer_samples.append(layers)
            tally.attempted += 1
            tally.failed += not _tracer_counts_ok(workload, layers, check)
        setup.top_up()
        if time.perf_counter() - start + statistics.median(walls) > budget:
            return walls, call_walls, layer_samples


def _tracer_counts_ok(workload, layers, check) -> bool:
    """Exact structural counts the trace must show, as a self-check of the tracer."""
    if workload == "verify":
        return (layers["geometry.ricci.calls"] == check.decided
                and layers["ein2.min_residual.calls"] == 0)
    return layers["ein2.min_residual.calls"] == check.none_rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "ein2lie" / "__init__.py").is_file():
        print(f"error: no ein2lie sources under {SRC}", file=sys.stderr)
        return 2

    references = workloads.load_references(args.workload, args.seed)
    setup = SetupSampler(import_branches_seconds if args.trace else import_seconds, args.seconds)
    sys.path.insert(0, str(SRC))
    import ein2lie.cli as cli
    if not cli.__file__.startswith(str(SRC)):
        print(f"error: ein2lie imported from {cli.__file__}", file=sys.stderr)
        return 2

    calls = workloads.invocations(args.workload, args.seed)
    tally = workloads.RepCheck()
    budget = args.seconds / 2 if args.trace else args.seconds
    walls, call_walls, _ = measure(cli, args.workload, calls, references, budget, tally, setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    decided_per_rep = tally.decided / len(walls)
    wall_s = statistics.median(walls)

    traced_walls = []
    if args.trace:
        tracer = Tracer()
        tracer.install()
        traced_walls, _, layer_samples = measure(
            cli, args.workload, calls, references, budget, tally, setup, tracer
        )
    setup.top_up(1.0)

    if args.trace:
        values = {
            name: statistics.median(sample[name] for sample in layer_samples)
            for name in layer_samples[0]
        }
        values["setup.import_branches_s"] = statistics.median(setup.values)
        values["trace.overhead_s"] = statistics.median(traced_walls) - wall_s
        units = _load_units("per_layer")
    else:
        values = {
            "setup_s": statistics.median(setup.values),
            "wall_s": wall_s,
            "points_per_s": decided_per_rep / wall_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = _load_units("end_to_end")

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "points_per_rep": decided_per_rep,
        "setup_samples_s": setup.values,
        "wall_samples_s": walls,
        "call_samples_s": call_walls,
        "traced_wall_samples_s": traced_walls,
    }))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def _load_units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


if __name__ == "__main__":
    sys.exit(main())
