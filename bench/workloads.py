"""The three benchmark workloads.

Each workload draws its inputs from the seed, warms up in ``setup``, and
yields operations in seeded cycles.  ``execute`` performs one operation (the
part that is timed); ``verify`` checks its output against the reference and
raises :class:`checks.CheckFailed` on any mismatch.

- ``cli_design``: one ``python -m cspdclink.cli`` process per operation, as
  users run the tool.  Interpreter start and import dominate.
- ``wide_cluster``: in-process source build and link evaluation over large
  mode tables; the per-mode quadrature in ``mode_table`` dominates.
- ``spectrum_dense``: in-process ``spectrum`` calls that never build a mode
  table; ``jsi_approx`` and per-cell formatting dominate.  Not declared in
  BENCHMARK.json (its run-to-run spread on a shared host is too wide for a
  bound); run it by hand for before/after figures of the artifact writers.
"""

from __future__ import annotations

import configparser
import json
import os
import random
import resource
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIGS = ROOT / "configs"
OP_TIMEOUT_S = 120.0
CLI_SPECTRUM_POINTS = 2001


def design(name: str) -> dict:
    """Source and link parameters of a shipped design config."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if not parser.read(CONFIGS / f"{name}.ini"):
        raise FileNotFoundError(CONFIGS / f"{name}.ini")
    src, lnk = parser["source"], parser["link"]
    return {
        "path": CONFIGS / f"{name}.ini",
        "pump_wavelength_nm": float(src["pump_wavelength_nm"]),
        "seed_wavelength_nm": float(src["signal_seed_wavelength_nm"]),
        "fsr_hz": (1e6 * float(src["fsr_signal_mhz"]), 1e6 * float(src["fsr_idler_mhz"])),
        "finesse": (float(src["finesse_signal"]), float(src["finesse_idler"])),
        "side_modes": int(src["modes_per_side"]),
        "lengths_km": [float(x) for x in lnk["lengths_km"].replace(",", " ").split()],
        "alpha_db_per_km": float(lnk["attenuation_db_per_km"]),
        "eta_det": float(lnk["detector_efficiency"]),
    }


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)


def seeded_cycles(rng: random.Random, cycle: list):
    """Endless stream of ``cycle``, reshuffled by ``rng`` each pass."""
    while True:
        order = list(cycle)
        rng.shuffle(order)
        yield from order


def seeded_targets(rng: random.Random, n: int) -> list[float]:
    return sorted(round(rng.uniform(0.90, 0.97), 4) for _ in range(n))


def source_spec(base: dict, finesse, side_modes: int, find_main_cluster):
    """Design-FSR source at a finesse pair, centred by ``find_main_cluster``."""
    from cspdclink.cavity import C_VACUUM, CavityParams
    from cspdclink.spectral import SourceSpec

    nu_p0 = C_VACUUM / (base["pump_wavelength_nm"] * 1e-9)
    nu_seed = C_VACUUM / (base["seed_wavelength_nm"] * 1e-9)
    sig = CavityParams(fsr=base["fsr_hz"][0], finesse=finesse[0])
    idl = CavityParams(fsr=base["fsr_hz"][1], finesse=finesse[1])
    k_s, k_i = find_main_cluster(nu_seed, nu_p0, sig, idl)
    return SourceSpec(nu_p0=nu_p0, sig=sig, idl=idl, k_s=k_s, k_i=k_i,
                      side_modes=side_modes)


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def max_modes_per_side(finesse) -> int:
    """Largest ``modes_per_side`` whose outermost modes (where quadrature
    fails first) pass ``normalization_constants``, capped at the cluster
    half-width FSR_I / (2 |FSR_S - FSR_I|)."""
    import dataclasses
    import math

    from cspdclink.cavity import find_main_cluster
    from cspdclink.spectral import QuadratureError, normalization_constants

    base = design("highfinesse")
    spec = source_spec(base, finesse, 0, find_main_cluster)
    fsr_s, fsr_i = base["fsr_hz"]
    cap = math.floor(fsr_i / (2.0 * abs(fsr_s - fsr_i)))

    def accepted(m: int) -> bool:
        wide = dataclasses.replace(spec, side_modes=m)
        try:
            normalization_constants(wide, -m)
            normalization_constants(wide, m)
        except QuadratureError:
            return False
        return True

    if accepted(cap):
        return cap
    lo, hi = 0, cap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if accepted(mid):
            lo = mid
        else:
            hi = mid
    return lo


class CliDesign:
    """modes/table/verify on both design configs, a 2001-point spectrum with
    the joint-intensity slice on the high-finesse config, and solve/table on
    a high-finesse copy with seeded fidelity targets, one process each."""

    name = "cli_design"

    def __init__(self, seed: int, work: Path):
        self.rng = random.Random(seed)
        self.targets = seeded_targets(self.rng, 3)
        self.work = work
        self.env = child_env()
        self.peak_rss_kb = 0

    def setup(self) -> None:
        self.reference = checks.load_reference()
        self.designs = {name: design(name) for name in ("highfinesse", "lowfinesse")}
        text = self.designs["highfinesse"]["path"].read_text(encoding="utf-8")
        targets = " ".join(repr(t) for t in self.targets)
        generated = self.work / "highfinesse_targets.ini"
        generated.write_text(
            text.replace("[link]\n", f"[link]\nfidelity_targets = {targets}\n", 1),
            encoding="utf-8")
        self.designs["targets"] = dict(self.designs["highfinesse"], path=generated)
        warm = subprocess.run([sys.executable, "-m", "cspdclink.cli", "--version"],
                              env=self.env, cwd=ROOT, capture_output=True,
                              timeout=OP_TIMEOUT_S)
        if warm.returncode != 0:
            raise RuntimeError(f"cspdclink.cli does not start: {warm.stderr.decode()[-500:]}")

    def operations(self):
        cycle = [(cmd, cfg) for cfg in ("highfinesse", "lowfinesse")
                 for cmd in ("modes", "table", "verify")]
        cycle += [("spectrum", "highfinesse"), ("solve", "targets"), ("table", "targets")]
        return seeded_cycles(self.rng, cycle)

    def execute(self, op, out: Path, tracer):
        command, cfg = op
        args = [command, "--config", str(self.designs[cfg]["path"]),
                "--out", str(out / "artifacts"), "--quiet"]
        if command == "spectrum":
            args += ["--points", str(CLI_SPECTRUM_POINTS), "--jsi-slice"]
        if tracer is None:
            argv = [sys.executable, "-m", "cspdclink.cli", *args]
        else:
            argv = [sys.executable, str(BENCH / "launch.py"), str(out / "spans.json"), *args]
        with open(out / "stdout.txt", "wb") as stdout, open(out / "stderr.txt", "wb") as stderr:
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, stdout=stdout, stderr=stderr)
            # os.wait4 gives this child's own peak RSS; the timer bounds a hang
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss

    def verify(self, op, result, out: Path, tracer) -> None:
        command, cfg = op
        returncode, maxrss_kb = result
        self.peak_rss_kb = max(self.peak_rss_kb, maxrss_kb)
        # the traced child hands its spans back in a file
        if tracer is not None and (out / "spans.json").exists():
            tracer.merge(json.loads((out / "spans.json").read_text()), tracer.op)
        stderr = (out / "stderr.txt").read_text(errors="replace")
        checks.require(returncode == 0, f"{command} {cfg}: exit {returncode}: {stderr[-500:]}")
        d = self.designs[cfg]
        art = out / "artifacts"
        if command == "modes":
            checks.check_modes_csv(art / "modes.csv", self.reference, d["finesse"],
                                   d["side_modes"])
        elif command == "table":
            base = "highfinesse" if cfg == "targets" else cfg
            ratio = checks.mode_reference(self.reference, d["finesse"], d["side_modes"])["ratio"]
            checks.check_table(art, self.reference["table_cells"][base], ratio,
                               d["eta_det"], d["alpha_db_per_km"])
        elif command == "spectrum":
            checks.check_spectrum_file(art / "spectrum.csv", "csv", CLI_SPECTRUM_POINTS)
        elif command == "verify":
            stdout = (out / "stdout.txt").read_text(errors="replace")
            checks.require("verification passed" in stdout and "[FAIL]" not in stdout,
                           f"verify {cfg}: {stdout[-500:]}")
        else:
            checks.check_solve_csv(art / "solve.csv", d["lengths_km"], self.targets,
                                   d["eta_det"], d["alpha_db_per_km"])

    def peak_rss_mb(self) -> float:
        return self.peak_rss_kb / 1024.0


class WideCluster:
    """Build one source per operation and evaluate it: find_main_cluster ->
    SourceSpec -> mode_table -> evaluate_link over a seeded (L, mu0) grid ->
    solve_mu0_for_fidelity for seeded targets."""

    name = "wide_cluster"
    # (finesse pair, modes_per_side); all three pass the quadrature today
    CASES = [((61.0, 83.0), 50), ((61.0, 83.0), 150), ((30.0, 30.0), 300)]

    def __init__(self, seed: int, work: Path):
        self.rng = random.Random(seed)
        lengths = sorted(round(self.rng.uniform(5.0, 150.0), 1)
                         for _ in range(self.rng.randint(3, 5)))
        mu0s = sorted(round(self.rng.uniform(0.005, 0.1), 4)
                      for _ in range(self.rng.randint(3, 6)))
        self.scenarios = [(length, mu0) for length in lengths for mu0 in mu0s]
        self.targets = [(self.rng.choice(lengths), t) for t in seeded_targets(self.rng, 3)]

    def setup(self) -> None:
        import tracing

        self.base = design("highfinesse")
        self.reference = checks.load_reference()
        self.expected = {}
        for finesse, side_modes in self.CASES:
            ratio = checks.mode_reference(self.reference, finesse, side_modes)["ratio"]
            self.expected[finesse, side_modes] = [
                checks.link_figures(ratio, mu0, length, self.base["eta_det"],
                                    self.base["alpha_db_per_km"])
                for length, mu0 in self.scenarios]
        self.functions = tracing.untraced_functions()
        self._evaluate(((61.0, 83.0), 2), self.functions)

    def operations(self):
        return seeded_cycles(self.rng, self.CASES)

    def _evaluate(self, case, fns):
        from cspdclink.link import LinkParams

        finesse, side_modes = case
        eta, alpha = self.base["eta_det"], self.base["alpha_db_per_km"]
        spec = source_spec(self.base, finesse, side_modes, fns["cavity.find_main_cluster"])
        table = fns["spectral.mode_table"](spec)
        reports = [
            fns["link.evaluate_link"](table, LinkParams(
                l_el_km=length, eta_det=eta, mu0=mu0, alpha_att_db_per_km=alpha))
            for length, mu0 in self.scenarios]
        solved = [fns["link.solve_mu0_for_fidelity"](target, length, eta, alpha)
                  for length, target in self.targets]
        return spec, table, reports, solved

    def execute(self, op, out: Path, tracer):
        return self._evaluate(op, self.functions if tracer is None else tracer.functions())

    def verify(self, op, result, out: Path, tracer) -> None:
        finesse, side_modes = op
        spec, table, reports, solved = result
        cluster = self.reference["cluster"]
        checks.require((spec.k_s, spec.k_i) == (cluster["k_s"], cluster["k_i"]),
                       f"main cluster ({spec.k_s}, {spec.k_i})")
        checks.require(bool(np.array_equal(table.k, np.arange(-side_modes, side_modes + 1))),
                       "mode table k column")
        ref = checks.mode_reference(self.reference, finesse, side_modes)
        for name in ("ratio", "c_s", "c_i"):
            checks.require_close(name, getattr(table, name), ref[name], checks.MODE_RTOL)
        for report, want in zip(reports, self.expected[op], strict=True):
            checks.check_report(report, want)
        for mu0, (length, target) in zip(solved, self.targets, strict=True):
            checks.check_solved(mu0, target, length, self.base["eta_det"],
                                self.base["alpha_db_per_km"])

    peak_rss_mb = staticmethod(own_peak_rss_mb)


class SpectrumDense:
    """In-process ``cli.main(["spectrum", ...])`` at 50001 points with the
    joint-intensity slice, in CSV and JSON.

    Each seeded cycle holds one CSV and two JSON calls.  With equal counts
    the median would fall between the two formats' latency clusters and
    swing with the parity of the operation count; with JSON in two of three
    calls the median and the tail both sit inside the JSON cluster, and a
    change to CSV writing still moves ops_per_s.
    """

    name = "spectrum_dense"
    POINTS = 50001

    def __init__(self, seed: int, work: Path):
        self.rng = random.Random(seed)
        self.work = work

    def setup(self) -> None:
        # One full-size call per format, in a fixed order, so that the heap
        # (and with it peak RSS) does not depend on the seeded order.
        for fmt in ("csv", "json"):
            out = self.work / "warmup"
            (out / "artifacts").mkdir(parents=True, exist_ok=True)
            result = self.execute(fmt, out, None)
            self.verify(fmt, result, out, None)

    def operations(self):
        return seeded_cycles(self.rng, ["csv", "json", "json"])

    def execute(self, op, out: Path, tracer):
        from cspdclink import cli

        argv = ["spectrum", "--config", str(CONFIGS / "highfinesse.ini"),
                "--out", str(out / "artifacts"), "--format", op, "--window", "50",
                "--points", str(self.POINTS), "--jsi-slice", "--quiet"]
        if tracer is None:
            return cli.main(argv)
        with tracer.patched():
            return cli.main(argv)

    def verify(self, op, result, out: Path, tracer) -> None:
        checks.require(result == 0, f"spectrum {op}: exit {result}")
        checks.check_spectrum_file(out / "artifacts" / f"spectrum.{op}", op, self.POINTS)

    peak_rss_mb = staticmethod(own_peak_rss_mb)


WORKLOADS = {w.name: w for w in (CliDesign, WideCluster, SpectrumDense)}
