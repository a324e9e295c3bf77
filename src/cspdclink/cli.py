"""Command-line front end.

Subcommands: ``modes`` (per-mode decomposition artifact), ``table``
(single-mode vs multiplexed link comparison), ``spectrum`` (plot-ready signal
sweep), ``verify`` (numerical self-checks) and ``solve`` (reference photon
number from fidelity targets).  All physics parameters come from one config
file; artifacts embed the resolved configuration and are byte-stable for a
given config.

Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

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

FIDELITY_ROUND_TRIP_TOL = 1e-4


def _write_artifact(cfg: RunConfig, args, stem: str, columns, extra_echo=()) -> Path:
    """Write one artifact and return its path.

    ``columns`` is an ordered list of ``(name, values)`` pairs of Python
    scalars; ``None`` is an empty cell.  Only the requested format is built:
    CSV embeds the resolved configuration as ``# key = value`` lines and
    renders each cell with ``str`` (for a float, its round-trip ``repr``);
    JSON embeds it as a ``config`` object beside one object per row.
    """
    out = Path(args.out) if args.out else Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fmt = _out_format(cfg, args)
    echo = (("tool", f"cspdclink {__version__}"),) + cfg.echo + tuple(extra_echo)
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
    path = out / f"{stem}.{fmt}"
    path.write_text(text, encoding="utf-8")
    return path


def _out_format(cfg: RunConfig, args) -> str:
    return args.format if args.format else cfg.out_format


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


def cmd_modes(cfg: RunConfig, args) -> int:
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
    path = _write_artifact(cfg, args, "modes", columns)
    if not args.quiet:
        print(f"wrote {path} ({table.k.size} modes, envelope max at k={table.envelope_argmax()})")
    return EXIT_OK


_TABLE_NAMES = (
    "l_el_km", "mu0", "mu0_origin", "case",
    "mean_photon_number", "heralding_prob", "fidelity", "mu_ratio", "p_ratio",
)


def cmd_table(cfg: RunConfig, args) -> int:
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
    if _out_format(cfg, args) == "csv":
        # table.csv: the figures to table_sigfigs, fidelity to one digit more
        sig = cfg.table_sigfigs
        rounded = pct[:4] + [
            (name, [None if v is None else f"{v:.{sig + (name == 'fidelity')}g}"
                    for v in values])
            for name, values in pct[4:]
        ]
        paths = [_write_artifact(cfg, args, "table", rounded),
                 _write_artifact(cfg, args, "table_full", full)]
    else:
        paths = [_write_artifact(cfg, args, "table", pct)]
    if not args.quiet:
        print(f"wrote {' and '.join(map(str, paths))} ({len(rows)} rows)")
    return EXIT_OK


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


def cmd_spectrum(cfg: RunConfig, args) -> int:
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
    path = _write_artifact(cfg, args, "spectrum", columns, (
        ("window_modes", f"{window[0]}:{window[1]}"),
        ("n_points", str(n_points)),
    ))
    if not args.quiet:
        print(f"wrote {path} ({nu.size} samples over modes {window[0]}..{window[1]})")
    return EXIT_OK


def cmd_solve(cfg: RunConfig, args) -> int:
    if all(not group for group in cfg.fidelity_targets_by_length):
        raise ConfigError("link.fidelity_targets: required for the solve command")
    rows = []
    for length, mu0, target, achieved in _scenarios(cfg):
        if target is None:
            continue
        rows.append((length, target, mu0, achieved))
        if not args.quiet:
            print(f"L={length:g} km  F_target={target:g}  ->  mu0={mu0:.6f}")
    names = ("l_el_km", "fidelity_target", "mu0", "fidelity_achieved")
    path = _write_artifact(cfg, args, "solve", list(zip(names, zip(*rows))))
    if not args.quiet:
        print(f"wrote {path}")
    return EXIT_OK


def _render(record: Record) -> str:
    if record.measured is None:
        return f"[WARN] {record.name}: {record.note}"
    if record.tol is None:
        return f"[INFO] {record.name}: measured={record.measured:.3e} ({record.note})"
    suffix = f" ({record.note})" if record.note else ""
    return (f"[{'PASS' if record.passed else 'FAIL'}] {record.name}: "
            f"measured={record.measured:.3e} tol={record.tol:.1e}{suffix}")


def cmd_verify(cfg: RunConfig, args) -> int:
    records = verify_records(cfg.source)
    for record in records:
        print(_render(record))
    failed = not all(record.passed for record in records)
    print(f"verification {'FAILED' if failed else 'passed'}")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


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


_COMMANDS = {
    "modes": cmd_modes,
    "table": cmd_table,
    "spectrum": cmd_spectrum,
    "verify": cmd_verify,
    "solve": cmd_solve,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (ValueError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
