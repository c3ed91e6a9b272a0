"""Command-line interface: exit codes, outputs, manifests, determinism."""

import dataclasses
import json
import math
from pathlib import Path

import pytest

import pdnsim
from pdnsim import (PdnError, RequestError, SolverError, compare_configurations,
                    config_from_json, config_to_json, run_sweep, validate_config)
from pdnsim.cli import main
from pdnsim.config import BENCHMARK_NAMES


@pytest.fixture()
def small_cfg_file(tmp_path, small_config):
    def write(name="on_package_4", fname="scenario.json"):
        path = tmp_path / fname
        path.write_text(config_to_json(small_config(name)))
        return str(path)
    return write


# ---------------------------------------------------------------------------
# usage and version


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 64
    assert "error" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    assert main(["fourier"]) == 64


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["dc"]) == 64
    assert main(["sweep", "--config", "x.json", "--values", "1,2"]) == 64


def test_bad_choice_is_usage_error(capsys):
    assert main(["default-config", "--power-map", "plaid"]) == 64
    assert "invalid choice: 'plaid'" in capsys.readouterr().err
    # a config file states its own power map; only default-config takes the flag
    assert main(["dc", "--config", "x.json", "--power-map", "uniform"]) == 64
    assert "unrecognized arguments: --power-map uniform" in capsys.readouterr().err


def test_method_flag_is_gone(capsys):
    # trapezoidal is the one integration rule, so there is nothing to choose
    for argv in (["tran", "--config", "x.json"],
                 ["sweep", "--config", "x.json", "--axis", "vrm_gap", "--values", "1"],
                 ["compare", "--config", "x.json", "--config", "y.json"]):
        assert main([*argv, "--method", "be"]) == 64
        assert "unrecognized arguments: --method be" in capsys.readouterr().err


def test_version(capsys):
    assert main(["--version"]) == 0
    assert pdnsim.__version__ in capsys.readouterr().out


# ---------------------------------------------------------------------------
# default-config


def test_default_config_stdout_round_trips(capsys):
    assert main(["default-config", "--benchmark", "on_package_4"]) == 0
    text = capsys.readouterr().out
    cfg = validate_config(config_from_json(text))
    assert config_to_json(cfg) == text


def test_default_config_to_file(tmp_path):
    out = tmp_path / "cfg.json"
    assert main(["default-config", "--benchmark", "chip_on_vrm_3d",
                 "--out", str(out)]) == 0
    cfg = validate_config(config_from_json(out.read_text()))
    assert cfg.placement.variant == "chip_on_vrm_3d"


def test_default_config_unknown_benchmark_is_handled(capsys):
    assert main(["default-config", "--benchmark", "slab"]) == 64
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1
    assert errors[0].startswith("error: argument --benchmark: invalid choice: 'slab'")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# validate


def test_validate_ok(small_cfg_file, capsys):
    assert main(["validate", "--config", small_cfg_file()]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_missing_file_is_io_error(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "absent.json")]) == 3
    assert "io error" in capsys.readouterr().err


def test_validate_malformed_json_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", "--config", str(bad)]) == 1
    assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "dc", "tran"])
def test_non_utf8_config_is_validation_error(tmp_path, capsys, command):
    """A config that is not UTF-8, one nested deeper than the JSON parser
    recurses, and one with an integer literal over the interpreter's digit
    limit each fail in one validation error line."""
    bad = tmp_path / "bin.json"
    bad.write_bytes(b"\xff\xfe{}")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    long = tmp_path / "long.json"  # written as text: json.dumps cannot write it either
    long.write_text('{"placement": {"gap_mm": 1' + "0" * 5000 + "}}")
    out = tmp_path / "out"
    out.mkdir()
    flags = [] if command == "validate" else ["--out-dir", str(out)]
    for path, message in ((bad, "config is not valid JSON: "),
                          (deep, "config nests too deeply to parse\n"),
                          (long, "config is not valid JSON: ")):
        assert main([command, "--config", str(path), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: {message}")
        assert err.count("\n") == 1
        assert "Traceback" not in err
    assert list(out.iterdir()) == []


def test_validate_bad_values_lists_all_violations(tmp_path, small_config, capsys):
    cfg = small_config()
    d = json.loads(config_to_json(cfg))
    d["chip"]["total_power_w"] = -5.0
    d["vrm"]["output_voltage_v"] = 0.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    assert main(["validate", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "total_power_w" in err and "output_voltage_v" in err


@pytest.mark.parametrize("power_map", [None, {"kind": "hotspot"}], ids=["no_map", "hotspot"])
def test_validate_huge_tile_grid_is_validation_error(tmp_path, capsys, power_map):
    # 10**7 tiles per side would ask the hotspot map for 728 TiB
    d = json.loads(config_to_json(pdnsim.benchmark_config("on_package_1")))
    d["chip"].update(tile_count_x=10**7, tile_count_y=10**7)
    del d["power_map"]
    if power_map:
        d["power_map"] = power_map
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(d))
    out = tmp_path / "out"
    assert main(["validate", "--config", str(bad)]) == 1
    assert main(["dc", "--config", str(bad), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"validation error: chip.tile_count_{ax} must be in [2, 200] "
                                f"(got 10000000)" for ax in "xy"] * 2
    assert not out.exists()


@pytest.mark.parametrize("name,section,key,value,message", [
    ("backside", "placement", "sites_per_side", 10**7,
     "placement.sites_per_side must be in [1, 200] (got 10000000)"),
    ("on_package_1", "package", "grid_pitch_mm", 3e-6,
     "package.package_width_mm and package_height_mm must each be at most 300 "
     "package.grid_pitch_mm (got 10000000.0 pitches)"),
    ("on_package_1", "package", "grid_pitch_mm", 5e-324,
     "package.package_width_mm and package_height_mm must each be at most 300 "
     "package.grid_pitch_mm (got inf pitches)"),
], ids=["backside_sites", "package_pitch", "package_pitch_subnormal"])
def test_validate_huge_package_grid_is_validation_error(tmp_path, capsys, name, section, key,
                                                        value, message):
    # each validated before, and then failed in assembly: an allocation
    # error or an OverflowError traceback
    d = json.loads(config_to_json(pdnsim.benchmark_config(name)))
    d[section][key] = value
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(d))
    assert main(["validate", "--config", str(bad)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"validation error: {message}"]


@pytest.mark.parametrize("where,key,value,message", [
    (("placement", "die_decap"), "capacitance_uf", 0,
     "placement.die_decap.capacitance_uf must be > 0"),
    ((), "chip", 5, "chip: expected an object"),
    (("chip",), "tile_count_x", "50", "chip.tile_count_x: expected int"),
    (("decaps",), "package_decaps", [{}], "decaps.package_decaps[0].capacitance_uf"),
    (("power_map",), "densities_w_per_mm2", "abc", "power_map.densities_w_per_mm2"),
    ((), "bogus", 1, "bogus: unknown field"),
    (("package",), "solder_bump_count", 0, "package.solder_bump_count must be >= 1 (got 0)"),
    ((), "placement", {"variant": "backside", "sites_per_side": 0},
     "placement.sites_per_side must be in [1, 200] (got 0)"),
    (("package",), "package_width_mm", math.inf, "package.package_width_mm must be > 0 (got inf)"),
    (("package",), "solder_bump_count", -3, "package.solder_bump_count must be >= 1 (got -3)"),
    (("decaps",), "onchip_density_nf_per_mm2", math.inf,
     "decaps.onchip_density_nf_per_mm2 must be >= 0 (got inf)"),
    (("power_map",), "densities_w_per_mm2", [[math.nan] * 50] * 50,
     "power_map densities must all be finite and >= 0"),
    ((), "placement", {"variant": "on_package", "count": 3},
     "placement.count must be one of 1, 2, 4 (got 3)"),
    (("chip",), "supply_voltage_v", 0.8, "chip.supply_voltage_v: unknown field for ChipSpec"),
    (("package",), "through_package_via", None,
     "package.through_package_via: unknown field for PackageSpec"),
    # checked before the density grid beside it is built into a PowerMap
    (("chip",), "total_power_w", "abc", "chip.total_power_w: expected float, got 'abc'"),
    ((), "placement", {"variant": "on_package", "count": 4.0},
     "placement.count: expected int, got 4.0"),
    pytest.param(("package",), "solder_bump_count", 10**400,
                 "package.solder_bump_count: integer beyond the float range", id="big_count"),
])
def test_validate_malformed_config_is_validation_error(tmp_path, capsys, where, key,
                                                       value, message):
    d = json.loads(config_to_json(pdnsim.benchmark_config("chip_on_vrm_3d")))
    target = d
    for part in where:
        target = target[part]
    target[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    out = tmp_path / "out"
    assert main(["validate", "--config", str(bad)]) == 1
    assert main(["dc", "--config", str(bad), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count(f"validation error: {message}") == 2
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("power_map", [{"kind": "uniform"}], ids=["kind_key"])
def test_builtin_power_map_with_zero_supply_is_validation_error(tmp_path, capsys, power_map):
    d = json.loads(config_to_json(pdnsim.benchmark_config("on_package_1")))
    d["chip"]["total_power_w"] = 0
    d["vrm"]["output_voltage_v"] = 0
    d["power_map"] = power_map
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    out = tmp_path / "out"
    assert main(["validate", "--config", str(bad)]) == 1
    assert main(["dc", "--config", str(bad), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("validation error: chip.total_power_w must be > 0 (got 0)") == 2
    assert "Traceback" not in err
    assert not out.exists()


def test_netlist_error_is_exit_1_without_traceback(tmp_path, small_config, capsys):
    """A config that validates but whose VRM pads the builder cannot lay out
    on the package is reported in one line, like a validation error."""
    d = json.loads(config_to_json(small_config("on_package_1")))
    d["package"]["package_height_mm"] = 29.0
    d["placement"]["pad_width_mm"] = 0.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    out = tmp_path / "out"
    assert main(["validate", "--config", str(bad)]) == 0
    assert main(["dc", "--config", str(bad), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("netlist error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("pitch_mm", [30.0, 100.0])
def test_3d_stack_without_c4_sites_is_netlist_error(tmp_path, small_config, capsys, pitch_mm):
    """No package node under the chip of a 3-D stack: one line, exit 1."""
    d = json.loads(config_to_json(small_config("chip_on_vrm_3d")))
    d["package"]["grid_pitch_mm"] = pitch_mm
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    out = tmp_path / "out"
    assert main(["dc", "--config", str(bad), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "netlist error: no package nodes available for the die C4 array\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# netlist / dc / tran


def test_netlist_export(small_cfg_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["netlist", "--config", small_cfg_file(),
                 "--out-dir", str(out)]) == 0
    text = (out / "netlist.txt").read_text()
    assert sum(line.startswith("V ") for line in text.splitlines()) == 4


def test_dc_outputs_and_manifest(small_cfg_file, tmp_path, capsys):
    out = tmp_path / "dc"
    assert main(["dc", "--config", small_cfg_file(),
                 "--out-dir", str(out)]) == 0
    assert (out / "ir_map.csv").read_text().startswith("tile_i,tile_j,drop_mv")
    svg = (out / "ir_map.svg").read_text()
    assert svg.startswith("<svg") and "IR drop" in svg
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "dc"
    assert manifest["max_ir_drop_mv"] > 0
    assert manifest["wall_clock_s"] > 0
    assert "config_snapshot" in manifest


def test_dc_unwritable_output_is_io_error(small_cfg_file, tmp_path, capsys):
    out = tmp_path / "dc"
    (out / "ir_map.svg").mkdir(parents=True)
    assert main(["dc", "--config", small_cfg_file(), "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert [line.startswith("io error: cannot write ") for line in err.splitlines()] == [True]
    assert "ir_map.svg" in err
    assert not (out / "manifest.json").exists()


def test_tran_outputs_and_manifest(small_cfg_file, tmp_path):
    out = tmp_path / "tran"
    assert main(["tran", "--config", small_cfg_file(),
                 "--out-dir", str(out), "--dt", "1e-10", "--t-end", "2e-8"]) == 0
    csv = (out / "waveform.csv").read_text()
    assert csv.splitlines()[0].startswith("time_s,")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["max_psn_mv"] > 0
    assert manifest["parameters"]["dt"] == 1e-10


def test_power_map_override_changes_result(small_cfg_file, tmp_path):
    base = small_cfg_file()
    d = json.loads(Path(base).read_text())
    d["power_map"] = {"kind": "uniform"}
    uniform = tmp_path / "uniform.json"
    uniform.write_text(json.dumps(d))
    out_h = tmp_path / "hot"
    out_u = tmp_path / "uni"
    assert main(["dc", "--config", base, "--out-dir", str(out_h)]) == 0
    assert main(["dc", "--config", str(uniform), "--out-dir", str(out_u)]) == 0
    mh = json.loads((out_h / "manifest.json").read_text())["max_ir_drop_mv"]
    mu = json.loads((out_u / "manifest.json").read_text())["max_ir_drop_mv"]
    assert mh != mu


def test_solver_failure_maps_to_exit_2(small_cfg_file, tmp_path, monkeypatch, capsys):
    import pdnsim.cli as cli

    def boom(*a, **kw):
        raise SolverError("synthetic failure")

    monkeypatch.setattr(cli, "evaluate", boom)
    assert main(["dc", "--config", small_cfg_file(),
                 "--out-dir", str(tmp_path / "x")]) == 2
    assert "solver error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep / compare / calibrate


def test_sweep_dc_only(small_cfg_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", small_cfg_file(), "--axis", "vrm_gap",
                 "--values", "0.5,1,2", "--no-transient",
                 "--out-dir", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "axis_value,max_ir_drop_mv,max_psn_mv,config_hash"
    assert len(lines) == 4
    assert "vrm_gap=0.5" in capsys.readouterr().out


def test_compare(small_cfg_file, tmp_path, capsys):
    # two placements, then the five of the README's placement table
    for names in (("on_package_1", "on_package_4"), BENCHMARK_NAMES):
        configs = [arg for name in names
                   for arg in ("--config", small_cfg_file(name, f"{name}.json"))]
        out = tmp_path / f"cmp{len(names)}"
        assert main(["compare", *configs, "--no-transient", "--out-dir", str(out)]) == 0
        header, *rows = [line.split(",") for line in
                         (out / "compare.csv").read_text().splitlines()]
        assert header[:3] == ["label", "max_ir_drop_mv", "max_psn_mv"]
        assert [row[0] for row in rows] == list(names)
        assert all(float(row[1]) > 0.0 and row[2] == "" for row in rows)
        assert "IR drop" in (out / "compare.txt").read_text()


@pytest.mark.parametrize("name,args", [
    ("on_package_4", ["sweep", "--axis", "vrm_gap", "--values", "1,x"]),
    ("chip_on_vrm_3d", ["sweep", "--axis", "vrm_gap", "--values", "1"]),
    ("on_package_4", ["tran", "--dt", "0"]),
    ("on_package_4", ["tran", "--dt", "nan"]),
    ("on_package_4", ["tran", "--dt", "1e-9", "--t-end", "2e-9"]),
    ("on_package_4", ["tran", "--t-end", "inf"]),
    ("on_package_4", ["tran", "--dt", "1e-9", "--t-end", "0.4e-9"]),
    ("on_package_4", ["compare"]),
    ("on_package_4", ["sweep", "--axis", "vrm_gap", "--values", ","]),
    ("chip_on_vrm_3d", ["sweep", "--axis", "onchip_decap", "--values", "1,15",
                        "--t-end", "4e-9"]),
    # five 1 ns steps end the run at 5 ns, before the loads are on
    ("chip_on_vrm_3d", ["sweep", "--axis", "onchip_decap", "--values", "1,15",
                        "--dt", "1e-9", "--t-end", "5.4e-9"]),
    # 200 ns over a subnormal step is an infinite step count
    ("chip_on_vrm_3d", ["tran", "--dt", "5e-324"]),
], ids=["values_not_numbers", "axis_not_in_placement", "dt_zero", "dt_nan",
        "window_too_short", "t_end_inf", "window_under_one_step", "compare_one_config",
        "values_empty", "window_before_load_on", "stepped_window_before_load_on",
        "dt_subnormal"])
def test_unusable_flag_values_are_usage_errors(small_cfg_file, tmp_path, capsys,
                                               name, args):
    command, *flags = args
    out = tmp_path / "out"
    assert main([command, "--config", small_cfg_file(name), *flags,
                 "--out-dir", str(out)]) == 64
    err = capsys.readouterr().err
    assert [line.startswith("error: ") for line in err.splitlines()] == [True]
    assert "Traceback" not in err
    assert not out.exists()


def test_compare_of_different_chips_is_usage_error(tmp_path, small_config, capsys):
    paths = []
    for tiles in (6, 8):
        path = tmp_path / f"tiles{tiles}.json"
        path.write_text(config_to_json(small_config("on_package_4", tiles)))
        paths += ["--config", str(path)]
    out = tmp_path / "out"
    assert main(["compare", *paths, "--no-transient", "--out-dir", str(out)]) == 64
    assert capsys.readouterr().err == \
        "error: all compared configurations must share the chip spec\n"
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["validate", "--config", "scenario.json"],
    ["calibrate", "--tile-count", "1"],
    ["calibrate", "--tile-count", "10000000"],
], ids=["validate_has_no_out_dir", "calibrate_one_tile", "calibrate_huge_grid"])
def test_flags_rejected_when_parsed_make_no_out_dir(tmp_path, capsys, args):
    out = tmp_path / "out"
    assert main([*args, "--out-dir", str(out)]) == 64
    err = capsys.readouterr().err
    assert sum(line.startswith("error: ") for line in err.splitlines()) == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_too_few_values_or_configs_report_the_library_message(small_cfg_file, tmp_path,
                                                              small_config, capsys):
    cfg = small_config()
    with pytest.raises(RequestError) as no_values:
        run_sweep(cfg, "vrm_gap", [])
    with pytest.raises(RequestError) as one_config:
        compare_configurations([cfg])
    for args, exc in ((["sweep", "--axis", "vrm_gap", "--values", ","], no_values),
                      (["compare"], one_config)):
        command, *flags = args
        assert main([command, "--config", small_cfg_file(), *flags,
                     "--out-dir", str(tmp_path / "out")]) == 64
        assert capsys.readouterr().err == f"error: {exc.value}\n"


def test_request_error_is_a_value_error_but_not_a_pdn_error():
    # a ValueError, as callers of the library have caught; not a PdnError,
    # which a sweep records as one point's failure
    assert issubclass(RequestError, ValueError)
    assert not issubclass(RequestError, PdnError)


@pytest.mark.parametrize("command,target,flags", [
    ("tran", "evaluate", []),
    ("sweep", "run_sweep", ["--axis", "vrm_gap", "--values", "1"]),
], ids=["tran", "sweep"])
def test_program_fault_is_not_a_usage_error(small_cfg_file, tmp_path, monkeypatch,
                                            command, target, flags):
    """A ValueError that is not a RequestError is a fault of the program,
    not of the request: main lets it propagate instead of exiting 64."""
    import pdnsim.cli as cli

    def fault(*a, **kw):
        raise ValueError("synthetic fault")

    monkeypatch.setattr(cli, target, fault)
    with pytest.raises(ValueError, match="^synthetic fault$"):
        main([command, "--config", small_cfg_file(), *flags,
              "--out-dir", str(tmp_path / "out")])


def test_calibrate_writes_report(tmp_path, monkeypatch, capsys):
    import pdnsim.cli as cli

    stub = {"knobs": {"k": 1.0}, "errors": {}, "metrics": {}, "score": 0.0}
    monkeypatch.setattr(cli, "grid_search", lambda **kw: (stub, [stub]))
    out = tmp_path / "cal"
    assert main(["calibrate", "--out-dir", str(out)]) == 0
    doc = json.loads((out / "calibration.json").read_text())
    assert doc["best"]["score"] == 0.0


# ---------------------------------------------------------------------------
# manifest and output directory


@pytest.mark.parametrize("argv,expected", [
    (["dc"], {}),
    (["tran", "--dt", "1e-10", "--t-end", "2e-8"], {"dt": 1e-10, "t_end": 2e-8}),
    (["sweep", "--axis", "vrm_gap", "--values", "0.5,1", "--no-transient"],
     {"axis": "vrm_gap", "values": "0.5,1", "no_transient": True}),
    (["compare", "--no-transient"], {"no_transient": True}),
    (["netlist"], {}),
    (["calibrate", "--tile-count", "7"], {"tile_count": 7}),
], ids=["dc", "tran", "sweep", "compare", "netlist", "calibrate"])
def test_manifest_lists_every_output_and_flag(small_cfg_file, tmp_path, monkeypatch,
                                              capsys, argv, expected):
    import pdnsim.cli as cli

    stub = {"knobs": {"k": 1.0}, "errors": {}, "metrics": {}, "score": 0.0}
    monkeypatch.setattr(cli, "grid_search", lambda **kw: (stub, [stub]))
    command, *flags = argv
    if command == "calibrate":
        configs = []
    elif command == "compare":
        configs = [small_cfg_file("on_package_1", "a.json"),
                   small_cfg_file("on_package_4", "b.json")]
    else:
        configs = [small_cfg_file()]
    out = tmp_path / "out"
    flags += [arg for path in configs for arg in ("--config", path)]
    assert main([command, *flags, "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert sorted(Path(p).name for p in manifest["outputs"]) == written
    params = manifest["parameters"]
    assert "command" not in params
    assert {f[2:].replace("-", "_") for f in flags if f.startswith("--")} <= params.keys()
    assert params["out_dir"] == str(out)
    assert {k: params[k] for k in expected} == expected
    if configs:
        assert params["config"] == (configs if command == "compare" else configs[0])
    if command == "compare":
        # one validated config per --config, in order
        assert manifest["config_snapshots"] == [json.loads(Path(c).read_text())
                                                for c in configs]


@pytest.mark.parametrize("where", ["file", "under_file"])
def test_unusable_out_dir_is_io_error(small_cfg_file, tmp_path, capsys, where):
    afile = tmp_path / "afile"
    afile.write_text("keep")
    out = afile if where == "file" else afile / "sub"
    assert main(["dc", "--config", small_cfg_file(), "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert [line.startswith("io error: cannot create output directory ")
            for line in err.splitlines()] == [True]
    assert "Traceback" not in err
    assert afile.read_text() == "keep"


# ---------------------------------------------------------------------------
# determinism (also exercised at full scale in the acceptance tests)


def test_dc_and_tran_are_byte_deterministic(small_cfg_file, tmp_path):
    cfg = small_cfg_file()
    runs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        assert main(["dc", "--config", cfg, "--out-dir", str(out)]) == 0
        assert main(["tran", "--config", cfg, "--out-dir", str(out),
                     "--dt", "1e-10", "--t-end", "2e-8"]) == 0
        runs.append(((out / "ir_map.csv").read_bytes(),
                     (out / "ir_map.svg").read_bytes(),
                     (out / "waveform.csv").read_bytes()))
    assert runs[0] == runs[1]
