"""Command line front end: reproducible experiment runs emitting CSV/JSON reports.

Subcommands: ``dataset``, ``train``, ``eval``, ``sweep``, ``leakage``,
``cost``.  Each returns its report texts, manifest params and stdout
message, and writes nothing.  ``main`` refuses a run before its work when
``--out`` is a file or, without ``--force``, holds one of the run's files;
then ``_write_run`` writes the reports plus a ``*.manifest.json`` naming the
tool version, the configuration hash, the seed and a sha256 per report.
Nothing embeds a timestamp, so re-running a subcommand with the same
arguments reproduces every byte.

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
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .braille import DOT_CELL_POSITIONS, BrailleGroup, build_dataset, label_to_group
from .config import ConfigError, SimConfig, config_hash, load_config, read_assignments
from .cost_model import CostTable, compare, default_table, estimate, reports_to_csv
from .crossbar import (
    CrossbarSpec,
    Readout,
    SingularNetworkError,
    ideal_dual_readout,
    leakage_fraction,
    solve_nodal,
)
from .devices import CellConfig, CellState, SwitchModel
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
    """Bad flag values or a refused ``--out``; exits with code 2."""


def _parse_groups(text: str) -> list[str]:
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise UsageError("--groups must name at least one group")
    valid = {g.value for g in BrailleGroup} | {"fusion"}
    for token in tokens:
        if token not in valid:
            raise UsageError(f"unknown group {token!r}; choose from {sorted(valid)}")
        if tokens.count(token) > 1:
            raise UsageError(f"--groups names {token!r} more than once")
    return tokens


def _parse_sigma2(text: str) -> list[float]:
    try:
        values = [float(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --sigma2 value: {exc}") from exc
    if not values or not all(0.0 <= v < np.inf for v in values):
        raise UsageError(f"--sigma2 needs one or more finite non-negative numbers, got {text!r}")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise UsageError(f"--sigma2 names {value:g} more than once")
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


def _check_out(args) -> None:
    """Refuse a run before its work: ``--out`` is a file, or, without ``--force``, holds one of its outputs."""
    out = Path(args.out)
    if out.exists() and not out.is_dir():
        raise UsageError(f"--out {out} is not a directory")
    if not args.force:
        for name in (*args.reports, f"{args.command}.manifest.json"):
            if (out / name).exists():
                raise UsageError(f"refusing to overwrite {out / name}; pass --force to allow")


def _write_run(args, cfg: SimConfig, files: dict[str, str], params: dict) -> None:
    """Write the reports ``files`` and the manifest that names each one's sha256 under ``--out``."""
    data = {name: text.encode() for name, text in files.items()}
    payload = {
        "command": args.command,
        "tool_version": __version__,
        "config_hash": config_hash(cfg),
        "seed": getattr(args, "seed", None),
        "params": params,
        "outputs": {name: {"sha256": hashlib.sha256(blob).hexdigest(), "bytes": len(blob)}
                    for name, blob in data.items()},
    }
    data[f"{args.command}.manifest.json"] = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, blob in data.items():
        (out / name).write_bytes(blob)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_dataset(args, cfg: SimConfig) -> tuple[dict[str, str], dict, str]:
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
    params = {
        "groups": groups,
        "copies": args.copies,
        "total": len(items),
        "per_group": dict(sorted(counts.items())),
    }
    return ({"dataset.csv": "\n".join(lines) + "\n"}, params,
            f"wrote {len(items)} items to {Path(args.out) / 'dataset.csv'}")


def _cmd_train(args, cfg: SimConfig) -> tuple[dict[str, str], dict, str]:
    groups = _parse_groups(args.groups)
    sigma2 = _parse_sigma2(args.sigma2)
    if len(sigma2) != 1:
        raise UsageError("train takes exactly one --sigma2 value")
    dataset = build_dataset(groups, copies=args.copies, seed=args.seed, f_press=cfg.f_press)
    train_items, _ = split_holdout(dataset, copies=args.copies)
    hyper = TrainHyper.from_config(cfg, seed=args.seed, sigma2=sigma2[0], mode=args.mode)
    tn = train(train_items, arch_for(groups), hyper, cfg)
    params = {
        "groups": groups,
        "mode": args.mode,
        "sigma2": sigma2[0],
        "copies": args.copies,
        "outputs_n": tn.arch.n_out,
    }
    return ({"network.json": network_to_json(tn) + "\n"}, params,
            f"trained {tn.mode} network with {tn.arch.n_out} outputs -> {Path(args.out) / 'network.json'}")


def _cmd_eval(args, cfg: SimConfig) -> tuple[dict[str, str], dict, str]:
    groups = _parse_groups(args.groups)
    grid = _parse_sigma2(args.sigma2)
    network_path = Path(args.network)
    if not network_path.exists():
        raise UsageError(f"network file {network_path} does not exist; run the train subcommand first")
    try:
        tn = network_from_json(network_path.read_text())
    except InvalidNetworkError as exc:
        raise UsageError(f"network file {network_path}: {exc}") from exc
    dataset = build_dataset(groups, copies=args.copies, seed=args.seed, f_press=cfg.f_press)
    _, test_items = split_holdout(dataset, copies=args.copies)
    outputs = set(tn.arch.labels)
    missing = list(dict.fromkeys(label for _, label in dataset if label not in outputs))
    if missing:
        raise UsageError(f"network {network_path} has no output for {len(missing)} dataset "
                         f"label(s) of --groups {args.groups}: {', '.join(map(repr, missing))}")
    report = evaluate(map_network(tn, cfg), test_items, grid, seed=args.seed)
    params = {
        "groups": groups,
        "mode": report.mode,
        "sigma2_grid": grid,
        "n_test": len(test_items),
        "overall": {str(s): report.accuracy("overall", s) for s in grid},
    }
    return ({"eval.csv": _header_lines(cfg, args.seed) + eval_report_to_csv(report)}, params,
            "\n".join(f"sigma2={s:g}: overall accuracy {report.accuracy('overall', s):.2f}%" for s in grid))


def _cmd_sweep(args, cfg: SimConfig) -> tuple[dict[str, str], dict, str]:
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
    params = {
        "groups": group_rows,
        "modes": list(modes),
        "sigma2_grid": grid,
        "copies": args.copies,
        "accuracy": {f"{g}/{m}/{s:g}": acc for (g, m, s), acc in sorted(results.items())},
    }
    return ({"sweep.csv": "\n".join(lines) + "\n"}, params,
            f"swept {len(results)} grid points -> {Path(args.out) / 'sweep.csv'}")


@contextmanager
def _solving(network: str):
    """A nodal solve in the block that fails its residual check is the config's fault (exit 2).

    The residual tolerance stays as it is: conductances that span too wide
    a ratio come from the keys that set them, so the message names those.
    """
    try:
        yield
    except SingularNetworkError as exc:
        if exc.conductance_ratio is None:
            raise
        raise ConfigError(
            f"{network} fails its nodal solve ({exc}): its stamped conductances span a ratio of "
            f"{exc.conductance_ratio:.3e} from largest to smallest, too wide to solve; check switch.g_on, "
            "parasitics.switch_g_off, parasitics.wire_resistance and parasitics.termination_conductance") from exc


def _equal_currents_flag(cfg: SimConfig) -> bool:
    """2x2 single-transistor array read on both line sets at once: the four
    line currents must come out identical."""
    cell = CellState(config=CellConfig.ONE_T1M1S, memristor=cfg.memristor, vl_switch=SwitchModel(g_on=cfg.switch_g_on),
                     sensor=cfg.sensor, force_f=cfg.f_press)
    spec = CrossbarSpec(m=2, n=2, cells=((cell, cell), (cell, cell)), readout=Readout.VL_AND_HL,
                        termination_conductance=cfg.parasitics.termination_conductance)
    with _solving("the 2x2 equal-currents array"):
        currents = solve_nodal(spec, cfg.sensor.v_supply).concatenated()
    return bool(np.all(np.abs(currents - currents[0]) <= 1e-12))


def _cmd_leakage(args, cfg: SimConfig) -> tuple[dict[str, str], dict, str]:
    # the reference pattern: every dot pressed, every sensor state fully on
    forces, states = np.full((4, 2), cfg.f_press), np.ones((4, 2))
    v_supply = cfg.sensor.v_supply
    scales = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0]
    lines = [_header_lines(cfg, None).rstrip("\n"),
             "switch_g_off,wire_resistance,leakage_fraction"]
    leakages = {}
    for scale in scales:
        g_off = cfg.parasitics.switch_g_off * scale
        rw = cfg.parasitics.wire_resistance * scale
        probe = replace(cfg, parasitics=replace(cfg.parasitics, switch_g_off=g_off, wire_resistance=rw))
        with _solving(f"the reference pattern at {scale:g} x the parasitics"):
            spec = build_sensor_crossbar(forces, states, probe, parasitic=True)
            leakages[scale] = leakage_fraction(ideal_dual_readout(v_supply, spec), solve_nodal(spec, v_supply))
        lines.append(f"{g_off:.9g},{rw:.9g},{leakages[scale]:.9g}")
    params = {
        "scales": scales,
        "default_leakage": leakages[1.0],
        "equal_currents_2x2": _equal_currents_flag(cfg),
    }
    return ({"leakage.csv": "\n".join(lines) + "\n"}, params,
            f"default parasitics leak {leakages[1.0]:.4f} of the ideal current")


def _cmd_cost(args, cfg: SimConfig) -> tuple[dict[str, str], dict, str]:
    overrides = read_assignments(args.table, CostTable.__dataclass_fields__) if args.table else {}
    try:  # the range check, naming the file
        tables = {(style, processing): replace(default_table(style, processing), **overrides)
                  for style in ("analog", "binary") for processing in ("parallel", "serial")}
    except ValueError as exc:
        raise ConfigError(f"{args.table}: {exc}") from exc
    arch = arch_for(["fusion"])
    reports = [estimate(arch, table, style, processing) for (style, processing), table in tables.items()]
    by_key = {(r.style, r.processing): r for r in reports}
    serial_vs_parallel = compare(by_key[("analog", "serial")], by_key[("analog", "parallel")])
    analog_vs_binary = compare(by_key[("analog", "parallel")], by_key[("binary", "parallel")])
    params = {
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
    }
    return ({"cost.csv": reports_to_csv(reports)}, params,
            f"wrote cost breakdown for {len(reports)} configurations -> {Path(args.out) / 'cost.csv'}")


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
    p.set_defaults(func=_cmd_dataset, reports=("dataset.csv",))

    p = sub.add_parser("train", help="train a network on the generated dataset")
    common(p)
    p.add_argument("--groups", default="fusion")
    p.add_argument("--copies", type=_int_at_least(2, "copies"), default=5)
    p.add_argument("--sigma2", default="0.0", help="noise augmentation variance")
    p.add_argument("--mode", choices=("analog", "binary"), default="analog")
    p.set_defaults(func=_cmd_train, reports=("network.json",))

    p = sub.add_parser("eval", help="evaluate a trained network over a noise grid")
    common(p)
    p.add_argument("--network", required=True, help="network JSON from the train subcommand")
    p.add_argument("--groups", default="fusion")
    p.add_argument("--copies", type=_int_at_least(2, "copies"), default=5)
    p.add_argument("--sigma2", default=",".join(str(s) for s in DEFAULT_SIGMA2_GRID))
    p.set_defaults(func=_cmd_eval, reports=("eval.csv",))

    p = sub.add_parser("sweep", help="train and score across groups, noise and modes")
    common(p)
    p.add_argument("--groups", default="group1,group2,group3,group4,fusion")
    p.add_argument("--copies", type=_int_at_least(2, "copies"), default=5)
    p.add_argument("--sigma2", default=",".join(str(s) for s in DEFAULT_SIGMA2_GRID))
    p.add_argument("--mode", choices=("analog", "binary", "both"), default="both")
    p.set_defaults(func=_cmd_sweep, reports=("sweep.csv",))

    p = sub.add_parser("leakage", help="sneak-path leakage versus parasitics")
    common(p, seed=False)
    p.set_defaults(func=_cmd_leakage, reports=("leakage.csv",))

    p = sub.add_parser("cost", help="area/power breakdown for all style/processing combinations")
    common(p, seed=False)
    p.add_argument("--table", help="flat key = value file overriding unit costs")
    p.set_defaults(func=_cmd_cost, reports=("cost.csv",))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (ValueError, OSError) as exc:  # ConfigError, or a device model's own range check
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        _check_out(args)
        files, params, message = args.func(args, cfg)
        _write_run(args, cfg, files, params)
        print(message)
        return EXIT_OK
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TrainingError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
