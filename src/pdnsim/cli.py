"""Command-line entry point.

Subcommands: default-config, validate, netlist, dc, tran, sweep, compare,
calibrate.  Exit codes: 0 success, 1 validation or netlist error, 2 solver
failure, 3 I/O error, 64 usage error; see ``_FAILURES``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from . import __version__
from .analysis import (DEFAULT_DT_S, DEFAULT_T_END_S, SWEEP_AXES, check_config_count,
                       check_transient_request, compare_configurations, evaluate,
                       ir_map_to_csv, run_sweep, sweep_values)
from .builder import assemble_netlist
from .calibrate import CAL_T_END_S, CAL_TILE_COUNT, grid_search
from .config import (BENCHMARK_NAMES, POWER_MAP_KINDS, ScenarioConfig, TileCount,
                     benchmark_config, builtin_power_map, config_to_dict,
                     config_to_json, load_config, validate_config)
from .errors import NetlistError, RequestError, SolverError, ValidationError
from .heatmap import heatmap_svg
from .mna import waveform_to_csv
from .netlist import netlist_to_text

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_IO = 3
EXIT_USAGE = 64


class _IoFail(Exception):
    """A config or output file that cannot be read or written."""


# main's report of each failure: its stderr prefix (one line per violation of a
# ValidationError) and exit code.  Any other exception is a program fault.
_FAILURES = {ValidationError: ("validation error", EXIT_VALIDATION),
             NetlistError: ("netlist error", EXIT_VALIDATION),
             SolverError: ("solver error", EXIT_SOLVER),
             _IoFail: ("io error", EXIT_IO),
             RequestError: ("error", EXIT_USAGE)}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser():
    p = _Parser(prog="pdnsim",
                description="PDN simulator: DC IR drop, transient supply "
                            "noise and design-space sweeps")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, config_help="scenario JSON file", **config):
        sp.add_argument("--config", required=True, help=config_help, **config)
        sp.add_argument("--power-map", choices=POWER_MAP_KINDS,
                        help="override the power map with a builtin kind")

    def tran_flags(sp):
        sp.add_argument("--dt", type=float, default=DEFAULT_DT_S, help="time step [s]")
        sp.add_argument("--t-end", type=float, default=DEFAULT_T_END_S,
                        help="simulation window [s]")

    def tile_count(text):
        n = int(text)
        bound, holds = TileCount.__metadata__
        if not holds(n):
            raise argparse.ArgumentTypeError(f"must be {bound} tiles per side (got {n})")
        return n

    sp = sub.add_parser("default-config", help="emit the default scenario with "
                                               "every assumed value visible")
    sp.add_argument("--benchmark", default="on_package_4", choices=BENCHMARK_NAMES)
    sp.add_argument("--power-map", choices=POWER_MAP_KINDS, default="hotspot")
    sp.add_argument("--out", help="write to file instead of stdout")

    sp = sub.add_parser("validate", help="validate a scenario file")
    common(sp)

    sp = sub.add_parser("netlist", help="export the assembled netlist as text")
    common(sp)

    sp = sub.add_parser("dc", help="DC IR-drop map (CSV + SVG heatmap)")
    common(sp)

    sp = sub.add_parser("tran", help="step-response waveform CSV")
    common(sp)
    tran_flags(sp)

    sp = sub.add_parser("sweep", help="parameter sweep -> CSV")
    common(sp)
    tran_flags(sp)
    sp.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sp.add_argument("--values", required=True,
                    help="comma-separated axis values, e.g. 1,5,10,15")
    sp.add_argument("--no-transient", action="store_true",
                    help="DC metrics only (faster)")

    sp = sub.add_parser("compare", help="metric table for several scenarios")
    common(sp, "scenario JSON file (repeat; first is the reference)", action="append")
    tran_flags(sp)
    sp.add_argument("--no-transient", action="store_true")

    sp = sub.add_parser("calibrate", help="grid-search the unpublished "
                                          "parasitic knobs against the "
                                          "transient anchors")
    sp.add_argument("--tile-count", type=tile_count, default=CAL_TILE_COUNT)
    sp.add_argument("--dt", type=float, default=DEFAULT_DT_S)
    sp.add_argument("--t-end", type=float, default=CAL_T_END_S)

    # every command that writes files writes them into --out-dir
    for name in ("netlist", "dc", "tran", "sweep", "compare", "calibrate"):
        sub.choices[name].add_argument("--out-dir", default=".", help="output directory")
    return p


def _load(path, power_map) -> ScenarioConfig:
    try:
        cfg = load_config(path)
    except OSError as exc:
        raise _IoFail(f"cannot read config: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError([f"config is not valid JSON: {exc}"]) from exc
    if power_map:
        cfg = dataclasses.replace(cfg, power_map=builtin_power_map(power_map, cfg.chip))
    return validate_config(cfg)


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise _IoFail(f"cannot write {path}: {exc}") from exc
    return str(path)


def _emit(args, t0, files, config=None, **extra):
    """Write each ``name -> text`` of ``files`` into ``--out-dir``, then
    ``manifest.json``: the command, tool version, every parsed flag, the
    files written, the wall time since ``t0``, each ``extra`` entry and,
    when given, the config snapshot.  A failed write raises before the
    manifest is written.  Returns the paths written, in ``files`` order."""
    outputs = [_write(os.path.join(args.out_dir, name), text)
               for name, text in files.items()]
    doc = {
        "command": args.command,
        "tool_version": __version__,
        "outputs": outputs,
        "wall_clock_s": time.perf_counter() - t0,
        "parameters": {k: v for k, v in vars(args).items() if k != "command"},
        **extra,
    }
    if config is not None:
        doc["config_snapshot"] = config_to_dict(config)
    _write(os.path.join(args.out_dir, "manifest.json"),
           json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n")
    return outputs


def _run(args) -> int:
    t0 = time.perf_counter()
    # flag values are checked before --out-dir is made, so a run they reject
    # leaves nothing behind
    if args.command == "sweep":
        values = sweep_values(v for v in args.values.split(",") if v)
    if args.command == "compare":
        check_config_count(args.config)
    if hasattr(args, "dt") and not getattr(args, "no_transient", False):
        check_transient_request(args.dt, args.t_end)
    if hasattr(args, "out_dir"):
        # made before the config loads, so a failed run leaves it empty
        try:
            os.makedirs(args.out_dir, exist_ok=True)
        except OSError as exc:
            raise _IoFail(f"cannot create output directory {args.out_dir}: {exc}") from exc

    if args.command == "default-config":
        text = config_to_json(benchmark_config(args.benchmark, power_map_kind=args.power_map))
        if args.out:
            _write(args.out, text)
        else:
            sys.stdout.write(text)
    elif args.command == "validate":
        _load(args.config, args.power_map)
        print("ok")
    elif args.command == "netlist":
        cfg = _load(args.config, args.power_map)
        net = assemble_netlist(cfg)
        out, = _emit(args, t0, {"netlist.txt": netlist_to_text(net)}, cfg)
        print(f"{net.node_count} nodes, {len(net.columns()[0])} elements -> {out}")
    elif args.command == "dc":
        res = evaluate(_load(args.config, args.power_map), transient=False)
        csv_path, _ = _emit(args, t0, {"ir_map.csv": ir_map_to_csv(res.ir_map),
                                       "ir_map.svg": heatmap_svg(res.ir_map.drop_mv)},
                            res.config, max_ir_drop_mv=res.ir_map.max_mv)
        print(f"max IR drop: {res.ir_map.max_mv:.3f} mV "
              f"(mean {res.ir_map.mean_mv:.3f} mV) -> {csv_path}")
    elif args.command == "tran":
        res = evaluate(_load(args.config, args.power_map), transient=True,
                       dt=args.dt, t_end=args.t_end)
        psn = res.psn
        csv_path, = _emit(args, t0, {"waveform.csv": waveform_to_csv(res.waveform)},
                          res.config, max_psn_mv=psn.max_psn_mv,
                          first_droop_mv=psn.first_droop_mv, settling_mv=psn.settling_mv)
        print(f"max PSN: {psn.max_psn_mv:.3f} mV "
              f"(first droop {psn.first_droop_mv:.3f} mV) -> {csv_path}")
    elif args.command == "sweep":
        cfg = _load(args.config, args.power_map)
        sweep = run_sweep(cfg, args.axis, values, transient=not args.no_transient,
                          dt=args.dt, t_end=args.t_end)
        _emit(args, t0, {"sweep.csv": sweep.to_csv()}, cfg,
              failures=[p.error for p in sweep.failures])
        for p in sweep.points:
            print(f"{sweep.axis}={p.value:g}: ir={p.max_ir_drop_mv} "
                  f"psn={p.max_psn_mv} [{p.error or 'ok'}]")
    elif args.command == "compare":
        cfgs = [_load(path, args.power_map) for path in args.config]
        report = compare_configurations(cfgs, transient=not args.no_transient,
                                        dt=args.dt, t_end=args.t_end)
        txt = report.to_text()
        _emit(args, t0, {"compare.csv": report.to_csv(), "compare.txt": txt},
              config_snapshots=[config_to_dict(c) for c in cfgs])
        sys.stdout.write(txt)
    elif args.command == "calibrate":
        best, history = grid_search(tile_count=args.tile_count, dt=args.dt,
                                    t_end=args.t_end, log=print)
        out, = _emit(args, t0, {"calibration.json": json.dumps(
            {"best": best, "history": history}, indent=2, sort_keys=True) + "\n"})
        print(f"best knobs: {best['knobs']} (score {best['score']:.4f}) -> {out}")
    else:
        raise AssertionError(f"unhandled command {args.command}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return _run(args)
    except tuple(_FAILURES) as exc:
        prefix, code = next(v for t, v in _FAILURES.items() if isinstance(exc, t))
        for line in getattr(exc, "violations", [exc]):
            print(f"{prefix}: {line}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
