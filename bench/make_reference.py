"""Record the reference values that ``checks.py`` compares outputs with.

usage: python bench/make_reference.py

Writes ``bench/reference.json`` from the package as it stands: the
main-cluster orders, the per-mode columns of the widest tables the
``wide_cluster`` workload builds, and the rounded ``table.csv`` cells of both
design configs.  Re-record only when a change to the physics or the spec
moves these values, and say so; never to make a failing check pass.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
from workloads import ROOT, WideCluster, design, source_spec  # noqa: E402

from cspdclink import cli  # noqa: E402
from cspdclink.cavity import find_main_cluster  # noqa: E402
from cspdclink.spectral import mode_table  # noqa: E402


def significant(values, digits: int = 12) -> list[float]:
    return [float(f"{float(v):.{digits}g}") for v in values]


def main() -> int:
    base = design("highfinesse")
    widest = {}
    for finesse, side_modes in WideCluster.CASES:
        widest[finesse] = max(widest.get(finesse, 0), side_modes)
    modes = {}
    for finesse, side_modes in widest.items():
        table = mode_table(source_spec(base, finesse, side_modes, find_main_cluster))
        modes[f"f{finesse[0]:g}_{finesse[1]:g}"] = {
            "k_max": side_modes,
            "ratio": significant(table.ratio),
            "c_s": significant(table.c_s),
            "c_i": significant(table.c_i),
        }
    spec = source_spec(base, base["finesse"], 0, find_main_cluster)

    table_cells = {}
    work = Path(tempfile.mkdtemp(dir=ROOT))
    try:
        for name in ("highfinesse", "lowfinesse"):
            argv = ["table", "--config", str(design(name)["path"]), "--out", str(work),
                    "--format", "csv", "--quiet"]
            if cli.main(argv) != 0:
                raise RuntimeError(f"table {name} failed")
            header, rows = checks.read_csv(work / "table.csv")
            table_cells[name] = [header] + rows
    finally:
        shutil.rmtree(work)

    reference = {"cluster": {"k_s": spec.k_s, "k_i": spec.k_i}, "modes": modes,
                 "table_cells": table_cells}
    checks.REFERENCE_PATH.write_text(json.dumps(reference) + "\n", encoding="utf-8")
    print(f"wrote {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
