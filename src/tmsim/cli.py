"""Command line front end: reproducible experiment runs emitting CSV/JSON reports.

Subcommands: ``dataset``, ``train``, ``eval``, ``sweep``, ``leakage``,
``cost``.  Every run writes its reports plus a ``*.manifest.json`` naming
the tool version, the configuration hash, the seed and a sha256 per output
file.  Nothing embeds a timestamp, so re-running a subcommand with the same
arguments reproduces every byte.  Existing outputs are never overwritten
unless ``--force`` is given.

Device and training parameters come from ``--config`` (flat ``key = value``
file) and environment variables prefixed ``TMSIM_`` (section and key joined
by a double underscore, e.g. ``TMSIM_TRAIN__EPOCHS``).

Exit codes: 0 success, 2 configuration or usage error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .braille import DOT_CELL_POSITIONS, BrailleGroup, build_dataset, label_to_group
from .config import ConfigError, SimConfig, config_hash, load_config, read_assignments
from .cost_model import CostTable, compare, default_table, estimate, reports_to_csv
from .crossbar import (
    Readout,
    ideal_dual_readout,
    leakage_fraction,
    solve_nodal,
)
from .pipeline import (
    InvalidNetworkError,
    TrainHyper,
    TrainingError,
    arch_for,
    build_sensor_crossbar,
    evaluate,
    eval_report_to_csv,
    map_network,
    network_from_json,
    network_to_json,
    run_sweep,
    split_holdout,
    train,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

DEFAULT_SIGMA2_GRID = (0.02, 0.05, 0.1, 0.5)


class UsageError(ValueError):
    """Bad flag values or refusal to overwrite; exits with code 2."""


def _parse_groups(text: str) -> list[str]:
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise UsageError("--groups must name at least one group")
    valid = {g.value for g in BrailleGroup} | {"fusion"}
    for token in tokens:
        if token not in valid:
            raise UsageError(f"unknown group {token!r}; choose from {sorted(valid)}")
    return tokens


def _parse_sigma2(text: str) -> list[float]:
    try:
        values = [float(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --sigma2 value: {exc}") from exc
    if not values or not all(0.0 <= v < np.inf for v in values):
        raise UsageError(f"--sigma2 needs one or more finite non-negative numbers, got {text!r}")
    return values


def _int_at_least(minimum: int, name: str):
    """argparse type: an integer of at least ``minimum``.

    argparse names the type in its error for a non-integer ("invalid copies
    value"), hence ``name``.
    """

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = name
    return parse


def _header_lines(cfg: SimConfig, seed: int | None) -> str:
    lines = [f"# tmsim {__version__}", f"# config_hash={config_hash(cfg)}"]
    if seed is not None:
        lines.append(f"# seed={seed}")
    return "\n".join(lines) + "\n"


class _OutputWriter:
    """Collects output files under one directory and emits the manifest."""

    def __init__(self, out_dir: str, force: bool) -> None:
        self.dir = Path(out_dir)
        self.force = force
        self.records: dict[str, dict] = {}

    def write(self, name: str, text: str) -> Path:
        self.dir.mkdir(parents=True, exist_ok=True)
        path = self.dir / name
        if path.exists() and not self.force:
            raise UsageError(f"refusing to overwrite {path}; pass --force to allow")
        data = text.encode()
        path.write_bytes(data)
        self.records[name] = {
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
        }
        return path

    def manifest(self, command: str, cfg: SimConfig, seed: int | None, params: dict) -> Path:
        payload = {
            "command": command,
            "tool_version": __version__,
            "config_hash": config_hash(cfg),
            "seed": seed,
            "params": params,
            "outputs": self.records,
        }
        name = f"{command}.manifest.json"
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        return self.write(name, text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_dataset(args, cfg: SimConfig) -> int:
    groups = _parse_groups(args.groups)
    items = build_dataset(groups, copies=args.copies, seed=args.seed, f_press=cfg.f_press)
    lines = [_header_lines(cfg, args.seed).rstrip("\n")]
    lines.append("item,label,group," + ",".join(f"d{i}" for i in range(1, 9)))
    counts: dict[str, int] = {}
    for i, (grid, label) in enumerate(items):
        group = label_to_group(label).value
        counts[group] = counts.get(group, 0) + 1
        dots = [int(grid[r, c] > 0) for (r, c) in DOT_CELL_POSITIONS]
        lines.append(f"{i},{label},{group}," + ",".join(str(d) for d in dots))
    writer = _OutputWriter(args.out, args.force)
    writer.write("dataset.csv", "\n".join(lines) + "\n")
    writer.manifest("dataset", cfg, args.seed, {
        "groups": groups,
        "copies": args.copies,
        "total": len(items),
        "per_group": dict(sorted(counts.items())),
    })
    print(f"wrote {len(items)} items to {writer.dir / 'dataset.csv'}")
    return EXIT_OK


def _cmd_train(args, cfg: SimConfig) -> int:
    groups = _parse_groups(args.groups)
    sigma2 = _parse_sigma2(args.sigma2)
    if len(sigma2) != 1:
        raise UsageError("train takes exactly one --sigma2 value")
    dataset = build_dataset(groups, copies=args.copies, seed=args.seed, f_press=cfg.f_press)
    train_items, _ = split_holdout(dataset, copies=args.copies)
    hyper = TrainHyper.from_config(cfg, seed=args.seed, sigma2=sigma2[0], mode=args.mode)
    tn = train(train_items, arch_for(groups), hyper, cfg)
    writer = _OutputWriter(args.out, args.force)
    writer.write("network.json", network_to_json(tn) + "\n")
    writer.manifest("train", cfg, args.seed, {
        "groups": groups,
        "mode": args.mode,
        "sigma2": sigma2[0],
        "copies": args.copies,
        "outputs_n": tn.arch.n_out,
    })
    print(f"trained {tn.mode} network with {tn.arch.n_out} outputs -> {writer.dir / 'network.json'}")
    return EXIT_OK


def _cmd_eval(args, cfg: SimConfig) -> int:
    network_path = Path(args.network)
    if not network_path.exists():
        raise UsageError(f"network file {network_path} does not exist; run the train subcommand first")
    try:
        tn = network_from_json(network_path.read_text())
    except InvalidNetworkError as exc:
        raise UsageError(f"network file {network_path}: {exc}") from exc
    groups = _parse_groups(args.groups)
    dataset = build_dataset(groups, copies=args.copies, seed=args.seed, f_press=cfg.f_press)
    _, test_items = split_holdout(dataset, copies=args.copies)
    grid = _parse_sigma2(args.sigma2)
    outputs = set(tn.arch.labels)
    missing = list(dict.fromkeys(label for _, label in dataset if label not in outputs))
    if missing:
        raise UsageError(f"network {network_path} has no output for {len(missing)} dataset "
                         f"label(s) of --groups {args.groups}: {', '.join(map(repr, missing))}")
    report = evaluate(map_network(tn, cfg), test_items, grid, seed=args.seed)
    writer = _OutputWriter(args.out, args.force)
    writer.write("eval.csv", _header_lines(cfg, args.seed) + eval_report_to_csv(report))
    writer.manifest("eval", cfg, args.seed, {
        "groups": groups,
        "mode": report.mode,
        "sigma2_grid": grid,
        "n_test": len(test_items),
        "overall": {str(s): report.accuracy("overall", s) for s in grid},
    })
    for s in grid:
        print(f"sigma2={s:g}: overall accuracy {report.accuracy('overall', s):.2f}%")
    return EXIT_OK


def _cmd_sweep(args, cfg: SimConfig) -> int:
    group_rows = _parse_groups(args.groups)
    grid = _parse_sigma2(args.sigma2)
    modes = ("analog", "binary") if args.mode == "both" else (args.mode,)
    rows = run_sweep([[token] for token in group_rows], grid, modes, [args.seed], cfg, copies=args.copies)
    results = {(row.group_set, row.mode, row.sigma2): row.accuracy for row in rows}
    header = ["group"] + [f"{mode}_sigma2={s:g}" for mode in modes for s in grid]
    lines = [_header_lines(cfg, args.seed).rstrip("\n"), ",".join(header)]
    for token in group_rows:
        cells = [f"{results[(token, mode, s)]:.2f}" for mode in modes for s in grid]
        lines.append(f"{token}," + ",".join(cells))
    writer = _OutputWriter(args.out, args.force)
    writer.write("sweep.csv", "\n".join(lines) + "\n")
    writer.manifest("sweep", cfg, args.seed, {
        "groups": group_rows,
        "modes": list(modes),
        "sigma2_grid": grid,
        "copies": args.copies,
        "accuracy": {f"{g}/{m}/{s:g}": acc for (g, m, s), acc in sorted(results.items())},
    })
    print(f"swept {len(results)} grid points -> {writer.dir / 'sweep.csv'}")
    return EXIT_OK


def _reference_pattern(cfg: SimConfig):
    forces = np.full((4, 2), cfg.f_press)
    states = np.ones((4, 2))
    return forces, states


def _leakage_at(cfg: SimConfig, switch_g_off: float, wire_resistance: float) -> float:
    forces, states = _reference_pattern(cfg)
    probe = replace(cfg, parasitics=replace(
        cfg.parasitics, switch_g_off=switch_g_off, wire_resistance=wire_resistance))
    spec = build_sensor_crossbar(forces, states, probe, parasitic=True)
    ideal = ideal_dual_readout(cfg.sensor.v_supply, spec)
    actual = solve_nodal(spec, cfg.sensor.v_supply)
    return leakage_fraction(ideal, actual)


def _equal_currents_flag(cfg: SimConfig) -> bool:
    """2x2 single-transistor array read on both line sets at once: the four
    line currents must come out identical."""
    from .devices import CellConfig, CellState, SwitchModel
    from .crossbar import CrossbarSpec

    switch = SwitchModel(g_on=cfg.switch_g_on, g_off=cfg.switch_g_off, selected=True)
    cells = tuple(
        tuple(
            CellState(
                config=CellConfig.ONE_T1M1S,
                memristor=cfg.memristor,
                vl_switch=switch,
                sensor=cfg.sensor,
                force_f=cfg.f_press,
            )
            for _ in range(2)
        )
        for _ in range(2)
    )
    spec = CrossbarSpec(m=2, n=2, cells=cells, readout=Readout.VL_AND_HL,
                        termination_conductance=cfg.parasitics.termination_conductance)
    rv = solve_nodal(spec, cfg.sensor.v_supply)
    currents = rv.concatenated()
    return bool(np.all(np.abs(currents - currents[0]) <= 1e-12))


def _cmd_leakage(args, cfg: SimConfig) -> int:
    base_g = cfg.parasitics.switch_g_off
    base_rw = cfg.parasitics.wire_resistance
    scales = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0]
    lines = [_header_lines(cfg, None).rstrip("\n"),
             "switch_g_off,wire_resistance,leakage_fraction"]
    default_leakage = None
    for scale in scales:
        g_off = base_g * scale
        rw = base_rw * scale
        value = _leakage_at(cfg, g_off, rw)
        if scale == 1.0:
            default_leakage = value
        lines.append(f"{g_off:.9g},{rw:.9g},{value:.9g}")
    writer = _OutputWriter(args.out, args.force)
    writer.write("leakage.csv", "\n".join(lines) + "\n")
    writer.manifest("leakage", cfg, None, {
        "scales": scales,
        "default_leakage": default_leakage,
        "equal_currents_2x2": _equal_currents_flag(cfg),
    })
    print(f"default parasitics leak {default_leakage:.4f} of the ideal current")
    return EXIT_OK


def _cmd_cost(args, cfg: SimConfig) -> int:
    overrides = read_assignments(args.table, CostTable.__dataclass_fields__) if args.table else {}
    arch = arch_for(["fusion"])
    reports = []
    for style in ("analog", "binary"):
        for processing in ("parallel", "serial"):
            table = default_table(style, processing)
            if overrides:
                table = replace(table, **overrides)
            reports.append(estimate(arch, table, style, processing))
    by_key = {(r.style, r.processing): r for r in reports}
    serial_vs_parallel = compare(by_key[("analog", "serial")], by_key[("analog", "parallel")])
    analog_vs_binary = compare(by_key[("analog", "parallel")], by_key[("binary", "parallel")])
    writer = _OutputWriter(args.out, args.force)
    writer.write("cost.csv", reports_to_csv(reports))
    writer.manifest("cost", cfg, None, {
        "arch": list(reports[0].arch_dims),
        "orderings": {
            desc: holds
            for summary in (serial_vs_parallel, analog_vs_binary)
            for desc, holds in summary.orderings
        },
        "totals": {
            f"{r.style}_{r.processing}": {"area_m2": r.total_area, "power_w": r.total_power}
            for r in reports
        },
    })
    print(f"wrote cost breakdown for {len(reports)} configurations -> {writer.dir / 'cost.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmsim",
        description="Analog tactile-recognition simulator: datasets, training, "
                    "noise sweeps, leakage studies and cost accounting.",
    )
    parser.add_argument("--version", action="version", version=f"tmsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, seed: bool = True) -> None:
        p.add_argument("--config", help="flat key = value parameter file")
        p.add_argument("--out", default="tmsim-out", help="output directory (default: %(default)s)")
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")
        if seed:
            p.add_argument("--seed", type=_int_at_least(0, "seed"), required=True, help="master seed (required)")

    p = sub.add_parser("dataset", help="generate a labeled force-pattern dataset")
    common(p)
    p.add_argument("--groups", default="fusion", help="comma list of group1..group4, or fusion")
    p.add_argument("--copies", type=_int_at_least(1, "copies"), default=5, help="copies per symbol (default: %(default)s)")
    p.set_defaults(func=_cmd_dataset)

    p = sub.add_parser("train", help="train a network on the generated dataset")
    common(p)
    p.add_argument("--groups", default="fusion")
    p.add_argument("--copies", type=_int_at_least(2, "copies"), default=5)
    p.add_argument("--sigma2", default="0.0", help="noise augmentation variance")
    p.add_argument("--mode", choices=("analog", "binary"), default="analog")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained network over a noise grid")
    common(p)
    p.add_argument("--network", required=True, help="network JSON from the train subcommand")
    p.add_argument("--groups", default="fusion")
    p.add_argument("--copies", type=_int_at_least(2, "copies"), default=5)
    p.add_argument("--sigma2", default=",".join(str(s) for s in DEFAULT_SIGMA2_GRID))
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="train and score across groups, noise and modes")
    common(p)
    p.add_argument("--groups", default="group1,group2,group3,group4,fusion")
    p.add_argument("--copies", type=_int_at_least(2, "copies"), default=5)
    p.add_argument("--sigma2", default=",".join(str(s) for s in DEFAULT_SIGMA2_GRID))
    p.add_argument("--mode", choices=("analog", "binary", "both"), default="both")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("leakage", help="sneak-path leakage versus parasitics")
    common(p, seed=False)
    p.set_defaults(func=_cmd_leakage)

    p = sub.add_parser("cost", help="area/power breakdown for all style/processing combinations")
    common(p, seed=False)
    p.add_argument("--table", help="flat key = value file overriding unit costs")
    p.set_defaults(func=_cmd_cost)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (ValueError, OSError) as exc:  # ConfigError, or a device model's own range check
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args, cfg)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TrainingError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
