"""cspdclink benchmark: one closed-loop client, one process, seeded inputs.

usage: python3 bench/run.py --workload {cli_design,wide_cluster,spectrum_dense}
                            --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout that holds ``src/`` and ``configs/``.
The loop issues the next operation only after the previous one completes,
for ``--seconds`` seconds, and checks every output (see ``checks.py``); a
wrong or raised result counts as a failed operation.

--trace 0 prints the end-to-end metrics: ops_per_s, op_s.p50, op_s.tail,
peak_rss_mb and setup_s (median of the run's own set-up and two set-ups
repeated in child processes).  --trace 1 runs every operation twice, once
plain and once with spans around each layer's public functions, and prints
the per-layer metrics from the traced half (busy seconds and calls per
operation), the tracing overhead, import timings and the mode-domain probe.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  All scratch files live in ``.bench_work/`` and are removed.
"""

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from workloads import WORKLOADS, child_env, max_modes_per_side  # noqa: E402

SETUP_REPEATS = 2
SCIPY_MODULES = ("scipy.optimize", "scipy.integrate")
IMPORT_REPEATS = 3
MAX_FAILURE_REPORTS = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds and exit")
    return parser.parse_args(argv)


class Loop:
    """Closed loop over a workload's operations with per-operation timing."""

    def __init__(self, workload, work: Path):
        self.workload = workload
        self.work = work
        self.latencies = {"plain": [], "traced": []}
        self.attempted = 0
        self.failed = 0
        self.artifact_bytes = 0

    def run_one(self, index: int, op, tracer) -> None:
        out = self.work / f"op{index}{'t' if tracer else ''}"
        (out / "artifacts").mkdir(parents=True)
        self.attempted += 1
        try:
            start = time.perf_counter()
            result = self.workload.execute(op, out, tracer)
            elapsed = time.perf_counter() - start
            self.workload.verify(op, result, out, tracer)
        except Exception:  # a raised or wrong result is a failed operation
            self.failed += 1
            if self.failed <= MAX_FAILURE_REPORTS:
                print(f"operation {index} {op!r} failed:\n{traceback.format_exc()}",
                      file=sys.stderr)
        else:
            self.latencies["traced" if tracer else "plain"].append(elapsed)
            if tracer is not None:
                self.artifact_bytes += sum(
                    f.stat().st_size for f in (out / "artifacts").rglob("*") if f.is_file())
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def run(self, seconds: float, tracer=None) -> None:
        """Operations until ``seconds`` have passed.  With a tracer each
        operation runs twice, plain and traced, alternating which goes first.

        Consecutive operations run on alternate cores (children inherit the
        core).  On a shared host the cores are slowed by other tenants at
        different times; left to the scheduler, a run can stay on one core
        and take on that core's state for its whole length."""
        cores = sorted(os.sched_getaffinity(0))
        start = time.perf_counter()
        try:
            for index, op in enumerate(self.workload.operations()):
                os.sched_setaffinity(0, {cores[index % len(cores)]})
                if tracer is None:
                    self.run_one(index, op, None)
                else:
                    tracer.op = index
                    for t in ((None, tracer) if index % 2 == 0 else (tracer, None)):
                        self.run_one(index, op, t)
                if time.perf_counter() - start >= seconds:
                    break
        finally:
            os.sched_setaffinity(0, cores)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond).  Below eleven samples, the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def repeated_setup(args) -> list[float]:
    """Set-up seconds of ``SETUP_REPEATS`` fresh child processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def import_times() -> tuple[float, float]:
    """Median ``-X importtime`` cumulative seconds of ``import cspdclink`` and
    of the outermost ``scipy.optimize`` / ``scipy.integrate`` imports in it."""
    package, scipy = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cspdclink"],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        entries = []  # (depth, name, cumulative us), in the order printed
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].rstrip()
            entries.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
        package.append(sum(us for _, name, us in entries if name == "cspdclink") / 1e6)
        scipy.append(sum(us for i, (_, name, us) in enumerate(entries)
                         if name in SCIPY_MODULES and not _nested(entries, i)) / 1e6)
    return statistics.median(package), statistics.median(scipy)


def _nested(entries, i: int) -> bool:
    """Whether entry ``i`` was imported inside another SCIPY_MODULES import.

    A module's line follows the lines of the imports it triggered, so its
    ancestors are the later lines that each sit shallower than all before."""
    depth = entries[i][0]
    for d, name, _ in entries[i + 1:]:
        if d < depth:
            if name in SCIPY_MODULES:
                return True
            depth = d
    return False


def environment() -> str:
    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "absent"

    return (f"python={sys.version.split()[0]} numpy={version('numpy')} "
            f"scipy={version('scipy')} nproc={len(os.sched_getaffinity(0))} "
            "(shared machine: other tenants add timing noise)")


def metric(value: float, unit: str) -> dict:
    if not math.isfinite(value):
        raise ValueError(f"non-finite metric value {value}")
    return {"value": value, "unit": unit}


def end_to_end(args, loop: Loop, setup_s: float) -> dict:
    latencies = loop.latencies["plain"]
    setups = [setup_s] + repeated_setup(args)
    value, percentile, beyond = tail(latencies)
    print(f"op_s.tail is p{percentile:.1f} of {len(latencies)} operations "
          f"({beyond} beyond it)")
    print(f"setup_s is the median of {len(setups)} set-ups: "
          + " ".join(f"{s:.3f}" for s in setups))
    return {
        "ops_per_s": metric(len(latencies) / sum(latencies), "1/s"),
        "op_s.p50": metric(statistics.median(latencies), "s"),
        "op_s.tail": metric(value, "s"),
        "peak_rss_mb": metric(loop.workload.peak_rss_mb(), "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }


def per_layer(loop: Loop, tracer: tracing.Tracer) -> dict:
    summary = tracing.summarise(tracer.spans)
    layers = summary["layers"]
    for layer, entry in layers.items():
        if entry["calls"]:
            print(f"{layer}: {entry['calls']} calls, "
                  f"{1e6 * entry['s'] / entry['calls']:.1f} us/call, "
                  f"{entry['failures']} failed")
    n = max(len(loop.latencies["traced"]), 1)
    plain = sum(loop.latencies["plain"])
    traced = sum(loop.latencies["traced"])
    import_package_s, import_scipy_s = import_times()
    table = layers["spectral.mode_table"]
    metrics = {
        "import.cspdclink_s": metric(import_package_s, "s"),
        "import.scipy_s": metric(import_scipy_s, "s"),
    }
    for layer, calls_name in (
        ("config.load_config", "config.load_config_calls"),
        ("cavity.find_main_cluster", "cavity.find_main_cluster_calls"),
        ("spectral.mode_table", "spectral.mode_table_calls"),
        ("spectral.jsi_approx", None),
        ("spectral.signal_spectrum_samples", None),
        ("tmsv.mean_photon_number", "tmsv.mean_photon_number_calls"),
        ("link.evaluate_link", "link.evaluate_link_calls"),
        ("link.solve_mu0_for_fidelity", "link.solve_calls"),
        ("cli.main", None),
    ):
        metrics[f"{layer}_s"] = metric(layers[layer]["s"] / n, "s/op")
        if calls_name:
            metrics[calls_name] = metric(layers[layer]["calls"] / n, "calls/op")
    metrics.update({
        "spectral.modes": metric(summary["modes"] / n, "modes/op"),
        "spectral.mode_table_us_per_mode": metric(
            1e6 * table["s"] / summary["modes"] if summary["modes"] else 0.0, "us/mode"),
        "spectral.quadrature_errors": metric(summary["quadrature_errors"], "count"),
        "cli.self_s": metric(summary["cli_self_s"] / n, "s/op"),
        "cli.artifact_bytes": metric(loop.artifact_bytes / n, "B/op"),
        "trace.overhead_frac": metric(traced / plain - 1.0 if plain else 0.0, "frac"),
        "trace.ops": metric(len(loop.latencies["traced"]), "count"),
        "trace.span_failures": metric(
            sum(entry["failures"] for entry in layers.values()), "count"),
        "spectral.max_modes_per_side.f61_83": metric(max_modes_per_side((61.0, 83.0)), "modes"),
        "spectral.max_modes_per_side.f30_30": metric(max_modes_per_side((30.0, 30.0)), "modes"),
    })
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        workload.setup()
        setup_s = time.perf_counter() - T_PROCESS
        if args.setup_only:
            print(repr(setup_s))
            return 0
        loop = Loop(workload, work)
        tracer = tracing.Tracer() if args.trace else None
        loop.run(args.seconds, tracer)
        if not loop.latencies["plain"]:
            raise RuntimeError(f"all {loop.attempted} operations failed")
        print(f"# {environment()}")
        print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}")
        metrics = per_layer(loop, tracer) if tracer else end_to_end(args, loop, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    print(f"error_rate = {loop.failed / loop.attempted:.6g} "
          f"({loop.failed} failed / {loop.attempted} attempted)")
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
