"""Command-line front end.

Subcommands: ``modes`` (per-mode decomposition artifact), ``table``
(single-mode vs multiplexed link comparison), ``spectrum`` (plot-ready signal
sweep), ``verify`` (numerical self-checks) and ``solve`` (reference photon
number from fidelity targets).  All physics parameters come from one config
file; artifacts embed the resolved configuration and are byte-stable for a
given config.

Each ``build_<command>`` returns its :class:`Artifact` list and a summary
line whose ``{paths}`` names the files written; :func:`main` alone resolves
the output directory and format, writes the artifacts and prints.

Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .checks import Record, verify_records
from .config import ConfigError, RunConfig, load_config
from .link import (
    LinkParams,
    attenuation,
    evaluate_link,
    fidelity_single,
    heralding_probability_single,
    improvement_ratios,
    solve_mu0_for_fidelity,
)
from .spectral import jsi_approx, mode_table, signal_spectrum_samples
from .tmsv import mean_photon_number

EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_ERROR = 3
EXIT_VERIFY_FAILED = 4

FIDELITY_ROUND_TRIP_TOL = 1e-12


class Artifact(NamedTuple):
    """One output file: ordered ``(name, values)`` columns of Python scalars
    (``None`` is an empty cell), the ``(key, value)`` echo lines that follow
    the configuration, and the output formats the file is written in."""

    stem: str
    columns: list
    echo: tuple = ()
    formats: tuple[str, ...] = ("csv", "json")


def _write_artifact(out: Path, fmt: str, echo, artifact: Artifact) -> Path:
    """Write one artifact in ``fmt`` and return its path.

    CSV embeds ``echo`` as ``# key = value`` lines and renders each cell
    with ``str`` (for a float, its round-trip ``repr``); JSON embeds it as a
    ``config`` object beside one object per row.
    """
    echo, columns = echo + artifact.echo, artifact.columns
    names = [name for name, _ in columns]
    if fmt == "csv":
        cells = [["" if v is None else str(v) for v in values] for _, values in columns]
        lines = [f"# {key} = {value}" for key, value in echo]
        lines.append(",".join(names))
        lines.extend(map(",".join, zip(*cells)))
        text = "\n".join(lines) + "\n"
    else:
        rows = [dict(zip(names, row)) for row in zip(*(values for _, values in columns))]
        text = json.dumps({"config": dict(echo), "rows": rows}, indent=2) + "\n"
    path = out / f"{artifact.stem}.{fmt}"
    path.write_text(text, encoding="utf-8")
    return path


def _scenarios(cfg: RunConfig):
    """(length, mu0, fidelity target, achieved fidelity) for every link
    scenario in artifact order: per length the configured mu0 values (target
    and achieved ``None``), then one solved mu0 per fidelity target, each
    checked by a fidelity round trip."""
    for length, configured, targets in zip(
        cfg.lengths_km, cfg.mu0_by_length, cfg.fidelity_targets_by_length
    ):
        for mu0 in configured:
            yield length, mu0, None, None
        eta_att = attenuation(length, cfg.alpha_att_db_per_km)
        for target in targets:
            mu0 = solve_mu0_for_fidelity(
                target, length, cfg.eta_det, cfg.alpha_att_db_per_km
            )
            achieved = fidelity_single(mu0, eta_att, cfg.eta_det)
            if abs(achieved - target) > FIDELITY_ROUND_TRIP_TOL:
                raise RuntimeError(
                    f"solver round trip failed at L={length} km: target {target}, "
                    f"achieved {achieved}"
                )
            yield length, mu0, target, achieved


def build_modes(cfg: RunConfig, args) -> tuple[list[Artifact], str]:
    table = mode_table(cfg.source)
    columns = [
        ("k", table.k.tolist()),
        ("delta_hz", table.delta.tolist()),
        ("c_s", table.c_s.tolist()),
        ("c_i", table.c_i.tolist()),
        ("ratio", table.ratio.tolist()),
    ] + [
        (f"mu_k_at_mu0_{mu0!r}", np.asarray(mean_photon_number(mu0, table.ratio)).tolist())
        for mu0 in cfg.mu0_values
    ]
    peak = table.envelope_argmax()
    summary = f"wrote {{paths}} ({table.k.size} modes, envelope max at k={peak})"
    return [Artifact("modes", columns)], summary


_TABLE_NAMES = (
    "l_el_km", "mu0", "mu0_origin", "case",
    "mean_photon_number", "heralding_prob", "fidelity", "mu_ratio", "p_ratio",
)


def build_table(cfg: RunConfig, args) -> tuple[list[Artifact], str]:
    table = mode_table(cfg.source)
    rows = []
    for length, mu0, target, _ in _scenarios(cfg):
        origin = "configured" if target is None else f"fidelity_target={target!r}"
        params = LinkParams(
            l_el_km=length, eta_det=cfg.eta_det, mu0=mu0,
            alpha_att_db_per_km=cfg.alpha_att_db_per_km,
        )
        report = evaluate_link(table, params)
        ratios = improvement_ratios(report) if mu0 > 0.0 else (None, None)
        rows.append((
            length, mu0, origin, "SM", mu0,
            heralding_probability_single(mu0, params.eta_att, cfg.eta_det),
            fidelity_single(mu0, params.eta_att, cfg.eta_det), None, None,
        ))
        rows.append((
            length, mu0, origin, "MM",
            report.mu_multi, report.p_multi, report.f_min, *ratios,
        ))
    # table_full.csv holds the heralding probability as a fraction;
    # table.csv and table.json give it in percent
    full = list(zip(_TABLE_NAMES, zip(*rows)))
    pct = [
        ("heralding_prob_pct", [100.0 * p for p in values])
        if name == "heralding_prob" else (name, values)
        for name, values in full
    ]
    # table.csv: the figures to table_sigfigs, fidelity to one digit more;
    # JSON cells keep every digit, so JSON gets only table.json
    sig = cfg.table_sigfigs
    rounded = pct[:4] + [
        (name, [None if v is None else f"{v:.{sig + (name == 'fidelity')}g}"
                for v in values])
        for name, values in pct[4:]
    ]
    return [
        Artifact("table", rounded, formats=("csv",)),
        Artifact("table_full", full, formats=("csv",)),
        Artifact("table", pct, formats=("json",)),
    ], f"wrote {{paths}} ({len(rows)} rows)"


def _parse_window(raw: str) -> tuple[int, int]:
    try:
        if ":" in raw:
            lo, hi = raw.split(":")
            return int(lo), int(hi)
        half = int(raw)
        return -half, half
    except ValueError:
        raise ConfigError(
            f"--window: expected LO:HI mode indices or a half-width N, got {raw!r}"
        ) from None


def build_spectrum(cfg: RunConfig, args) -> tuple[list[Artifact], str]:
    spec = cfg.source
    window = _parse_window(args.window)
    n_points = args.points if args.points else cfg.spectrum_points
    nu, airy_product, xi_center = signal_spectrum_samples(spec, window, n_points)
    columns = [
        ("nu_hz", nu.tolist()),
        ("airy_product", airy_product.tolist()),
        ("xi_center", xi_center.tolist()),
    ]
    if args.jsi_slice:
        columns.append(("jsi_approx", np.asarray(jsi_approx(spec, nu, spec.nu_p0 - nu)).tolist()))
    echo = (("window_modes", f"{window[0]}:{window[1]}"), ("n_points", str(n_points)))
    summary = f"wrote {{paths}} ({nu.size} samples over modes {window[0]}..{window[1]})"
    return [Artifact("spectrum", columns, echo)], summary


def build_solve(cfg: RunConfig, args) -> tuple[list[Artifact], str]:
    if all(not group for group in cfg.fidelity_targets_by_length):
        raise ConfigError("link.fidelity_targets: required for the solve command")
    rows = [(length, target, mu0, achieved)
            for length, mu0, target, achieved in _scenarios(cfg) if target is not None]
    names = ("l_el_km", "fidelity_target", "mu0", "fidelity_achieved")
    lines = [f"L={length:g} km  F_target={target:g}  ->  mu0={mu0:.6f}"
             for length, target, mu0, _ in rows]
    return [Artifact("solve", list(zip(names, zip(*rows))))], "\n".join(lines + ["wrote {paths}"])


def _render(record: Record) -> str:
    if record.measured is None:
        return f"[WARN] {record.name}: {record.note}"
    if record.tol is None:
        return f"[INFO] {record.name}: measured={record.measured:.3e} ({record.note})"
    suffix = f" ({record.note})" if record.note else ""
    return (f"[{'PASS' if record.passed else 'FAIL'}] {record.name}: "
            f"measured={record.measured:.3e} tol={record.tol:.1e}{suffix}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cspdclink",
        description=(
            "Frequency-multiplexed entanglement generation over repeater "
            "elementary links fed by a doubly resonant pair source"
        ),
    )
    parser.add_argument("--version", action="version", version=f"cspdclink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="run-configuration file")
        p.add_argument("--out", help="output directory (overrides the config)")
        p.add_argument("--format", choices=("csv", "json"),
                       help="artifact format (overrides the config)")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    p_modes = sub.add_parser("modes", help="write the per-mode decomposition table")
    add_common(p_modes)

    p_table = sub.add_parser("table", help="write single-mode vs multiplexed link tables")
    add_common(p_table)

    p_spec = sub.add_parser("spectrum", help="write a signal-spectrum sweep")
    add_common(p_spec)
    p_spec.add_argument("--window", default="1",
                        help="mode window: half-width N for -N:N, or explicit LO:HI "
                             "(default 1, the three centre modes)")
    p_spec.add_argument("--points", type=int, help="number of samples (overrides config)")
    p_spec.add_argument("--jsi-slice", action="store_true",
                        help="add the joint-intensity slice along energy conservation")

    p_verify = sub.add_parser("verify", help="run the numerical self-checks")
    add_common(p_verify)

    p_solve = sub.add_parser("solve", help="solve reference photon numbers from fidelity targets")
    add_common(p_solve)

    return parser


_BUILDERS = {
    "modes": build_modes,
    "table": build_table,
    "spectrum": build_spectrum,
    "solve": build_solve,
}


def main(argv=None) -> int:
    """Build first, so that a failure writes and prints nothing but its cause."""
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "verify":
            records = verify_records(cfg.source)
        else:
            artifacts, summary = _BUILDERS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (ValueError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR
    if args.command == "verify":
        # the records are the command's result, so --quiet keeps them
        for record in records:
            print(_render(record))
        failed = not all(record.passed for record in records)
        print(f"verification {'FAILED' if failed else 'passed'}")
        return EXIT_VERIFY_FAILED if failed else EXIT_OK
    out = Path(args.out or cfg.out_dir)
    fmt = args.format or cfg.out_format
    out.mkdir(parents=True, exist_ok=True)
    echo = (("tool", f"cspdclink {__version__}"),) + cfg.echo
    paths = [_write_artifact(out, fmt, echo, artifact)
             for artifact in artifacts if fmt in artifact.formats]
    if not args.quiet:
        print(summary.format(paths=" and ".join(map(str, paths))))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
