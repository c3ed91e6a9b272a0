"""Configuration model: defaults, validation, power maps, serialization."""

import dataclasses
import functools
import json
import math
import types
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdnsim
from pdnsim import (BacksideVrm, ChipOnVrm3D, ChipSpec, OnPackageVrm, PowerMap,
                    ScenarioConfig, ValidationError, benchmark_config,
                    builtin_power_map, config_from_json, config_hash,
                    config_to_json, load_config, validate_config)
from pdnsim.builder import assemble_netlist
from pdnsim.config import (BENCHMARK_NAMES, DecapPolicy, DiscreteDecap, PackageDecap,
                           VrmPlacement, normalize_power_map)
from pdnsim.netlist import CAPACITOR


def test_default_config_validates():
    cfg = validate_config(ScenarioConfig())
    assert cfg.chip.tile_count_x == 50
    tile_area = (cfg.chip.width_mm / 50) * (cfg.chip.height_mm / 50)
    assert float(cfg.power_map.densities.sum()) * tile_area == \
        pytest.approx(cfg.chip.total_power_w, rel=1e-12)


def test_validate_is_idempotent():
    cfg = validate_config(ScenarioConfig())
    again = validate_config(cfg)
    assert again == cfg


def test_validation_collects_all_violations():
    chip = dataclasses.replace(ChipSpec(), width_mm=-1.0, total_power_w=0.0)
    vrm = dataclasses.replace(pdnsim.VrmSpec(), output_voltage_v=0.0)
    with pytest.raises(ValidationError) as exc:
        validate_config(ScenarioConfig(chip=chip, vrm=vrm))
    msgs = exc.value.violations
    assert len(msgs) >= 3
    assert any("chip.width_mm" in m for m in msgs)
    assert any("chip.total_power_w" in m for m in msgs)
    assert any("vrm.output_voltage_v" in m for m in msgs)


def test_chip_larger_than_package_rejected():
    chip = dataclasses.replace(ChipSpec(), width_mm=40.0)
    with pytest.raises(ValidationError, match="at least as large"):
        validate_config(ScenarioConfig(chip=chip))


def test_wire_as_wide_as_its_pitch_rejected():
    def with_width(width_um):
        wire = dataclasses.replace(ChipSpec().onchip_wire, width_um=width_um)
        return ScenarioConfig(chip=dataclasses.replace(ChipSpec(), onchip_wire=wire))

    pitch = ChipSpec().onchip_wire.pitch_um
    with pytest.raises(ValidationError) as exc:
        validate_config(with_width(pitch))
    assert exc.value.violations == ["chip.onchip_wire.width_um must be < pitch_um"]
    validate_config(with_width(float(np.nextafter(pitch, 0.0))))


def test_on_package_count_must_be_1_2_or_4():
    with pytest.raises(ValidationError, match="count"):
        validate_config(ScenarioConfig(placement=OnPackageVrm(count=3)))


@pytest.mark.parametrize("field,value,message", [
    ("capacitance_uf", 0.0, "placement.die_decap.capacitance_uf must be > 0"),
    ("esr_mohm", -1.0, "placement.die_decap.esr_mohm must be >= 0"),
    ("esl_nh", -1.0, "placement.die_decap.esl_nh must be >= 0"),
])
def test_die_decap_is_validated(field, value, message):
    plc = ChipOnVrm3D()
    plc = dataclasses.replace(plc, die_decap=dataclasses.replace(plc.die_decap, **{field: value}))
    with pytest.raises(ValidationError) as exc:
        validate_config(ScenarioConfig(placement=plc))
    (msg,) = exc.value.violations
    assert msg.startswith(message)


def test_decap_violations_name_their_list():
    good = DiscreteDecap(capacitance_uf=1.0, esr_mohm=1.0, esl_nh=1.0)
    bad = dataclasses.replace(good, capacitance_uf=0.0)
    off = PackageDecap(capacitance_uf=0.0, esr_mohm=1.0, esl_nh=1.0, x=2.0)
    dec = DecapPolicy(package_decaps=(off,), board_decaps=(good, bad))
    with pytest.raises(ValidationError) as exc:
        validate_config(ScenarioConfig(decaps=dec))
    assert exc.value.violations == [
        "decaps.package_decaps[0].capacitance_uf must be > 0 (got 0.0)",
        "decaps.package_decaps[0].x must be in [0, 1] (got 2.0)",
        "decaps.board_decaps[1].capacitance_uf must be > 0 (got 0.0)",
    ]


# (field path parts, a value of the wrong type, the one violation it gives,
# up to the value's repr where that is long)
PYTHON_BUILT = [
    pytest.param(("placement", "die_decap"), None,
                 "placement.die_decap: expected DiscreteDecap, got None", id="die_decap-None"),
    pytest.param(("vrm", "output_voltage_v"), 10**400,
                 "vrm.output_voltage_v: integer beyond the float range",
                 id="output_voltage_v-10**400"),
    pytest.param(("decaps", "board_decaps"),
                 [DiscreteDecap(capacitance_uf=-1.0, esr_mohm=1.0, esl_nh=1.0)],
                 "decaps.board_decaps: expected tuple, got [DiscreteDecap(capacitance_uf=-1.0",
                 id="board_decaps-list"),
    pytest.param(("chip", "tile_count_x"), 6.0, "chip.tile_count_x: expected int, got 6.0",
                 id="tile_count_x-6.0"),
    pytest.param(("chip", "width_mm"), "10", "chip.width_mm: expected float, got '10'",
                 id="width_mm-str"),
    pytest.param(("placement",), OnPackageVrm(count=4.0),
                 "placement.count: expected int, got 4.0", id="count-4.0"),
    pytest.param(("placement",), OnPackageVrm(gap_mm=True),
                 "placement.gap_mm: expected float, got True", id="gap_mm-True"),
    pytest.param(("power_map",), np.ones((6, 6)),
                 "power_map: expected PowerMap | NoneType, got array(", id="power_map-ndarray"),
    pytest.param(("placement",), "on_package",
                 "placement: expected OnPackageVrm | BacksideVrm | ChipOnVrm3D, got 'on_package'",
                 id="placement-str"),
    # ints over the interpreter's 4300-digit limit, which repr() cannot print
    pytest.param(("vrm", "output_voltage_v"), [10**5000],
                 "vrm.output_voltage_v: expected float, got list too long to print",
                 id="output_voltage_v-list-10**5000"),
    pytest.param(("placement",), 10**5000,
                 "placement: expected OnPackageVrm | BacksideVrm | ChipOnVrm3D, "
                 "got int too long to print", id="placement-10**5000"),
    pytest.param(("decaps", "board_decaps"), (10**5000,),
                 "decaps.board_decaps[0]: expected DiscreteDecap, got int too long to print",
                 id="board_decaps-item-10**5000"),
    pytest.param(("placement",), PowerMap(np.ones((6, 6)), 4.0),
                 "placement: expected OnPackageVrm | BacksideVrm | ChipOnVrm3D, "
                 "got PowerMap(shape=(6, 6), total_power_w=4.0)", id="placement-PowerMap"),
]


@pytest.mark.parametrize("parts,value,message", PYTHON_BUILT)
def test_python_built_config_of_the_wrong_type_is_rejected(small_config, parts, value,
                                                          message):
    """A config built in Python is type-checked like one loaded from a
    file: each wrong-typed value is one violation naming its path, not an
    exception from inside evaluate."""
    cfg = _replace_at(small_config("chip_on_vrm_3d"), parts, value)
    with pytest.raises(ValidationError) as exc:
        validate_config(cfg)
    (violation,) = exc.value.violations
    assert violation.startswith(message)
    if parts[0] == "chip":
        with pytest.raises(ValidationError) as exc:
            builtin_power_map("hotspot", cfg.chip)
        assert exc.value.violations == [violation]


def test_integers_are_rejected_exactly_where_float_cannot_hold_them():
    big = 2**1024 - 2**970      # float() rounds it up to 2**1024 and raises
    with pytest.raises(OverflowError):
        float(big)
    vrm = pdnsim.VrmSpec(output_voltage_v=big)
    with pytest.raises(ValidationError) as exc:
        validate_config(ScenarioConfig(vrm=vrm))
    assert exc.value.violations == ["vrm.output_voltage_v: integer beyond the float range"]
    vrm = pdnsim.VrmSpec(output_voltage_v=big - 1)
    assert validate_config(ScenarioConfig(vrm=vrm)).vrm.output_voltage_v == big - 1


def test_benchmark_names():
    for name in ("on_package_1", "on_package_2", "on_package_4",
                 "backside", "chip_on_vrm_3d"):
        cfg = benchmark_config(name)
        assert cfg.power_map is not None
    with pytest.raises(ValueError, match="unknown benchmark"):
        benchmark_config("nope")


def test_benchmark_placement_variants():
    assert isinstance(benchmark_config("on_package_2").placement, OnPackageVrm)
    assert benchmark_config("on_package_2").placement.count == 2
    assert isinstance(benchmark_config("backside").placement, BacksideVrm)
    assert isinstance(benchmark_config("chip_on_vrm_3d").placement, ChipOnVrm3D)


# ---------------------------------------------------------------------------
# power maps


def test_uniform_map_tile_powers_sum_to_total():
    chip = ChipSpec()
    pm = builtin_power_map("uniform", chip)
    tile_area = (chip.width_mm / chip.tile_count_x) * (chip.height_mm / chip.tile_count_y)
    total_current = float(pm.densities.sum()) * tile_area
    assert total_current == pytest.approx(100.0, rel=1e-12)
    assert np.ptp(pm.densities) == 0.0


def test_hotspot_map_ratio_and_normalization():
    chip = dataclasses.replace(ChipSpec(), tile_count_x=20, tile_count_y=20)
    pm = builtin_power_map("hotspot", chip)
    dens = pm.densities
    hi, lo = dens.max(), dens.min()
    # hotspot blocks are 3x the background density by default
    assert hi / lo == pytest.approx(3.0, rel=1e-12)
    # 20x20 grid, two 20%-edge blocks -> 2 * 4x4 = 32 hot tiles
    assert int((dens > lo).sum()) == 32
    tile_area = (chip.width_mm / 20) * (chip.height_mm / 20)
    assert float(dens.sum()) * tile_area == pytest.approx(100.0, rel=1e-12)


def test_hotspot_blocks_at_expected_positions():
    chip = dataclasses.replace(ChipSpec(), tile_count_x=10, tile_count_y=10)
    dens = builtin_power_map("hotspot", chip).densities
    lo = dens.min()
    assert dens[3, 3] > lo and dens[7, 7] > lo
    assert dens[3, 7] == lo and dens[7, 3] == lo


def test_unknown_power_map_kind():
    with pytest.raises(ValueError, match="unknown builtin power map"):
        builtin_power_map("striped", ChipSpec())


def test_power_map_shape_mismatch_rejected():
    pm = PowerMap(np.ones((3, 3)), 100.0)
    with pytest.raises(ValidationError, match="power_map shape"):
        validate_config(ScenarioConfig(power_map=pm))


def test_power_map_total_must_match_the_chip():
    """A map stating another chip power is rejected, not rescaled."""
    chip = dataclasses.replace(ChipSpec(), tile_count_x=4, tile_count_y=4)
    pm = builtin_power_map("uniform", dataclasses.replace(chip, total_power_w=50.0))
    with pytest.raises(ValidationError) as exc:
        validate_config(ScenarioConfig(chip=chip, power_map=pm))
    assert exc.value.violations == [
        "power_map.total_power_w (50.0) must equal chip.total_power_w (100.0)"]


def test_validate_rescales_only_a_map_off_the_chip_power():
    chip = dataclasses.replace(ChipSpec(), tile_count_x=4, tile_count_y=4)
    pm = PowerMap(np.ones((4, 4)), 100.0)      # 16 tiles of 6.25 mm^2 at 1 W/mm^2
    assert validate_config(ScenarioConfig(chip=chip, power_map=pm)).power_map is pm
    half = dataclasses.replace(chip, total_power_w=50.0)
    scaled = validate_config(ScenarioConfig(chip=half, power_map=PowerMap(np.ones((4, 4)), 50.0)))
    assert scaled.power_map.densities.tolist() == [[0.5] * 4] * 4


def test_all_zero_power_map_rejected():
    chip = dataclasses.replace(ChipSpec(), tile_count_x=4, tile_count_y=4)
    with pytest.raises(ValidationError, match="all-zero"):
        normalize_power_map(PowerMap(np.zeros((4, 4)), 100.0), chip)


def test_negative_power_map_rejected():
    chip = dataclasses.replace(ChipSpec(), tile_count_x=4, tile_count_y=4)
    dens = np.ones((4, 4))
    dens[0, 0] = -1.0
    with pytest.raises(ValidationError, match=">= 0"):
        validate_config(ScenarioConfig(chip=chip, power_map=PowerMap(dens, 100.0)))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_power_map_rejected(value):
    chip = dataclasses.replace(ChipSpec(), tile_count_x=4, tile_count_y=4)
    pm = PowerMap(np.full((4, 4), value), 100.0)
    with pytest.raises(ValidationError) as exc:
        validate_config(ScenarioConfig(chip=chip, power_map=pm))
    assert exc.value.violations == ["power_map densities must all be finite and >= 0"]


def test_builtin_power_map_needs_a_chip_within_bounds():
    chip = dataclasses.replace(ChipSpec(), total_power_w=0.0, tile_count_x=-1)
    with pytest.raises(ValidationError) as exc:
        builtin_power_map("uniform", chip)
    assert exc.value.violations == ["chip.total_power_w must be > 0 (got 0.0)",
                                    "chip.tile_count_x must be in [2, 200] (got -1)"]
    d = json.loads(config_to_json(benchmark_config("on_package_1")))
    d["chip"]["total_power_w"] = 0
    d["power_map"] = {"kind": "hotspot"}
    with pytest.raises(ValidationError, match=r"chip.total_power_w must be > 0 \(got 0\)"):
        config_from_json(json.dumps(d))


def test_tile_grid_is_bounded_from_above():
    """10**7 tiles per side is a typo, not a grid: validation names both
    fields before the default hotspot map tries to allocate it."""
    cfg = dataclasses.replace(benchmark_config("on_package_1"), power_map=None, chip=(
        dataclasses.replace(ChipSpec(), tile_count_x=10**7, tile_count_y=10**7)))
    with pytest.raises(ValidationError) as exc:
        validate_config(cfg)
    assert exc.value.violations == [f"chip.tile_count_{ax} must be in [2, 200] (got 10000000)"
                                    for ax in "xy"]


def test_backside_sites_are_bounded_from_above():
    """10**7 via sites per side would size the builder's site arrays; the
    bound is the tile grid's, and validation names the field."""
    cfg = dataclasses.replace(benchmark_config("backside"),
                              placement=BacksideVrm(sites_per_side=10**7))
    with pytest.raises(ValidationError) as exc:
        validate_config(cfg)
    assert exc.value.violations == ["placement.sites_per_side must be in [1, 200] (got 10000000)"]
    validate_config(dataclasses.replace(cfg, placement=BacksideVrm(sites_per_side=200)))


@pytest.mark.parametrize("pitch_mm,height_mm,pitches", [
    (3e-6, 30.0, "10000000.0"), (5e-324, 30.0, "inf"), (0.1, 30.05, "300.5")])
def test_package_grid_is_bounded_from_above(pitch_mm, height_mm, pitches):
    """More than 300 grid pitches on either package side fails validation
    with both fields named, also when a subnormal pitch overflows the
    ratio; 300, the 0.1 mm pitch on the 30 mm package, is admitted."""
    cfg = benchmark_config("on_package_1")

    def with_package(**kw):
        return dataclasses.replace(cfg, package=dataclasses.replace(cfg.package, **kw))

    with pytest.raises(ValidationError) as exc:
        validate_config(with_package(grid_pitch_mm=pitch_mm, package_height_mm=height_mm))
    assert exc.value.violations == [
        "package.package_width_mm and package_height_mm must each be at most 300 "
        f"package.grid_pitch_mm (got {pitches} pitches)"]
    validate_config(with_package(grid_pitch_mm=0.1))


def test_decap_policy_density_sets_chip_capacitors(small_config):
    base = small_config("on_package_1", tiles=4)
    dec = dataclasses.replace(base.decaps, onchip_density_nf_per_mm2=9.0)
    cfg = validate_config(dataclasses.replace(base, decaps=dec))
    tile_area = (cfg.chip.width_mm / 4) * (cfg.chip.height_mm / 4)
    net = assemble_netlist(cfg)
    kind, _, _, value = (c.tolist() for c in net.columns())
    caps = [v for k, v, lbl in zip(kind, value, net.labels())
            if k == CAPACITOR and lbl.startswith("chip_decap_c[")]
    assert caps == [9.0 * 1e-9 * tile_area] * 16


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("name", ["on_package_1", "backside", "chip_on_vrm_3d"])
def test_json_round_trip(name):
    cfg = benchmark_config(name)
    text = config_to_json(cfg)
    back = validate_config(config_from_json(text))
    assert back == cfg
    assert config_to_json(back) == text


def test_config_files_state_the_chip_power_once():
    for name in BENCHMARK_NAMES:
        text = config_to_json(benchmark_config(name))
        assert text.count('"total_power_w"') == 1
        d = json.loads(text)
        assert d["chip"]["total_power_w"] == 100.0
        assert list(d["power_map"]) == ["densities_w_per_mm2"]


def test_json_round_trip_is_byte_stable():
    cfg = benchmark_config("on_package_4")
    assert config_to_json(cfg) == config_to_json(cfg)


def test_unknown_field_rejected():
    d = json.loads(config_to_json(benchmark_config("on_package_4")))
    d["chip"]["warp_factor"] = 9
    with pytest.raises(ValidationError, match="unknown field"):
        config_from_json(json.dumps(d))


@pytest.mark.parametrize("section,key", [
    (("chip",), "onchip_decap_density_nf_per_mm2"),
    (("decaps", "package_decaps", 0), "tier"),
    (("decaps", "board_decaps", 0), "tier"),
    (("placement", "die_decap"), "tier"),
    (("chip",), "supply_voltage_v"),
    (("package",), "through_package_via"),
    (("package",), "tpv_sites_per_side"),
    (("power_map",), "densities_a_per_mm2"),
    (("power_map",), "total_power_w"),
    (("power_map",), "normalized"),
    (("package", "c4_bump"), "diameter_um"),
    (("placement", "microbump"), "diameter_um"),
    (("package",), "solder_bump"),
    (("package",), "vrm_pad_width_mm"),
    (("decaps", "board_decaps", 0), "y"),
    (("placement", "die_decap"), "x"),
    (("decaps", "board_decaps", 0), "x"),
    (("placement", "die_decap"), "y"),
])
def test_removed_keys_rejected_as_unknown(section, key):
    d = json.loads(config_to_json(benchmark_config("chip_on_vrm_3d")))
    target = d
    for part in section:
        target = target[part]
    target[key] = "package" if key == "tier" else 5.3
    with pytest.raises(ValidationError, match=f"{key}: unknown field"):
        config_from_json(json.dumps(d))


# (where in the JSON, key, value, the path and complaint the error must name)
MALFORMED = [
    ((), "chip", 5, "chip: expected an object, got 5"),
    (("chip",), "onchip_wire", 5, "chip.onchip_wire: expected an object"),
    (("chip",), "tile_count_x", "50", "chip.tile_count_x: expected int, got '50'"),
    (("chip",), "width_mm", True, "chip.width_mm: expected float, got True"),
    (("decaps",), "package_decaps", [5], "decaps.package_decaps[0]: expected an object"),
    (("decaps",), "package_decaps", [{}],
     "decaps.package_decaps[0].capacitance_uf: missing required field"),
    (("decaps",), "board_decaps", 5, "decaps.board_decaps: expected a list"),
    (("power_map",), "densities_w_per_mm2", "abc",
     "power_map.densities_w_per_mm2: expected a grid of numbers"),
    (("power_map",), "densities_w_per_mm2", [[1.0], [1.0, 2.0]],
     "power_map.densities_w_per_mm2: expected a grid of numbers"),
    ((), "power_map", {"kind": "uniform", "densities_w_per_mm2": [[1.0]]},
     "power_map.densities_w_per_mm2: unknown field"),
    ((), "power_map", {"kind": "striped"}, "power_map.kind: unknown kind 'striped'"),
    ((), "placement", 3, "placement: expected an object"),
    ((), "bogus", 1, "bogus: unknown field for ScenarioConfig"),
    ((), "power_map", 5, "power_map: expected an object, got 5"),
    (("power_map",), "bogus", 1, "power_map.bogus: unknown field"),
    (("package",), "c4_bump", {"resistance_per_bump_mohm": 300.0},
     "package.c4_bump.pitch_um: missing required field"),
    (("placement",), "vrm_tsv", {"height_um": 60.0},
     "placement.vrm_tsv.resistivity_ohm_m: missing required field"),
    ((), "placement", {"variant": "backside", "through_package_via": None},
     "placement.through_package_via: expected an object, got None"),
    ((), "placement", {"variant": "backside", "through_package_via": {"height_um": 900.0}},
     "placement.through_package_via.resistivity_ohm_m: missing required field"),
    (("placement",), "die_decap", None, "placement.die_decap: expected an object, got None"),
    # a JSON integer is kept as written, but the builder computes in floats
    pytest.param(("chip",), "total_power_w", 10**400,
                 "chip.total_power_w: integer beyond the float range",
                 id="total_power_w-10**400"),
    pytest.param(("package",), "solder_bump_count", 10**400,
                 "package.solder_bump_count: integer beyond the float range",
                 id="solder_bump_count-10**400"),
    # an explicit null is not a missing map, which would take the hotspot default
    pytest.param((), "power_map", None, "power_map: expected an object, got None",
                 id="power_map-null"),
]


def _malformed(where, key, value):
    d = json.loads(config_to_json(benchmark_config("chip_on_vrm_3d")))
    target = d
    for part in where:
        target = target[part]
    target[key] = value
    return json.dumps(d)


@pytest.mark.parametrize("where,key,value,message", MALFORMED)
def test_malformed_config_shapes_rejected(where, key, value, message):
    with pytest.raises(ValidationError) as exc:
        validate_config(config_from_json(_malformed(where, key, value)))
    assert exc.value.violations[0].startswith(message)


def test_non_object_config_rejected():
    with pytest.raises(ValidationError, match=r"^config: expected an object, got \[\]$"):
        config_from_json("[]")


@pytest.mark.parametrize("content,message", [
    (b"\xff\xfe{}", "config is not valid JSON: "),
    (b"{not json", "config is not valid JSON: "),
    (b'{"placement": {"gap_mm": 1' + b"0" * 5000 + b"}}", "config is not valid JSON: "),
    (b"[" * 100_000 + b"]" * 100_000, "config nests too deeply to parse"),
], ids=["not_utf8", "not_json", "over_digit_limit", "too_deep"])
def test_load_config_rejects_a_file_that_does_not_parse(tmp_path, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(ValidationError) as exc:
        load_config(path)
    (violation,) = exc.value.violations
    assert violation.startswith(message)


@pytest.mark.parametrize("text,message", [
    (b"\xff\xfe{}", "config is not valid JSON: "),
    ("{not json", "config is not valid JSON: "),
    ('{"placement": {"gap_mm": 1' + "0" * 5000 + "}}", "config is not valid JSON: "),
    ("[" * 100_000 + "]" * 100_000, "config nests too deeply to parse"),
    ('{"chip": {"total_power_w": 50.0, "total_power_w": 100.0}, '
     '"placement": {"variant": "backside", "variant": "on_package"}}',
     "config repeats the key 'total_power_w'"),
    ('{"placement": {"variant": "backside"}, "placement": {"variant": "on_package"}}',
     "config repeats the key 'placement'"),
], ids=["not_utf8", "not_json", "over_digit_limit", "too_deep", "repeated_nested_key",
        "repeated_key"])
def test_config_from_json_rejects_text_that_does_not_parse(text, message):
    with pytest.raises(ValidationError) as exc:
        config_from_json(text)
    (violation,) = exc.value.violations
    assert violation.startswith(message)


def test_load_config_lets_an_unreadable_file_raise_oserror(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "missing.json")


def _spec_defaults(spec, path):
    """(path, value) of each field of ``spec`` that holds a spec, walked."""
    for f in dataclasses.fields(spec):
        val = getattr(spec, f.name)
        if dataclasses.is_dataclass(val):
            yield path + f.name, val
            yield from _spec_defaults(val, f"{path}{f.name}.")


def test_each_spec_default_is_stated_once():
    """A spec default equals its class's no-argument instance, or the class
    has none; so no object in a config file can fill its missing keys from
    numbers that no field default uses."""
    defaults = {}
    for plc in typing.get_args(VrmPlacement):
        defaults.update(_spec_defaults(ScenarioConfig(placement=plc()), ""))
    second_defaults = []
    for path, default in defaults.items():
        try:
            bare = type(default)()
        except TypeError:
            continue
        if bare != default:
            second_defaults.append(path)
    assert second_defaults == []


def test_integers_in_float_fields_are_kept_as_given():
    d = json.loads(config_to_json(benchmark_config("on_package_4")))
    d["chip"]["width_mm"] = 10
    d["decaps"]["board_decaps"][0]["capacitance_uf"] = 100
    text = json.dumps(d, indent=2, sort_keys=True) + "\n"
    cfg = config_from_json(text)
    assert type(cfg.chip.width_mm) is int
    assert config_to_json(cfg) == text
    assert validate_config(cfg) == benchmark_config("on_package_4")


def test_unknown_placement_variant_rejected():
    d = json.loads(config_to_json(benchmark_config("on_package_4")))
    d["placement"] = {"variant": "orbital"}
    with pytest.raises(ValidationError, match="unknown variant"):
        config_from_json(json.dumps(d))


def test_config_hash_tracks_content():
    a = benchmark_config("on_package_4")
    b = benchmark_config("on_package_4")
    assert config_hash(a) == config_hash(b)
    c = dataclasses.replace(a, chip=dataclasses.replace(a.chip, total_power_w=50.0))
    assert config_hash(c) != config_hash(a)


def test_configs_are_hashable_consistently_with_eq():
    a = benchmark_config("on_package_1")
    b = benchmark_config("on_package_1")
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    c = dataclasses.replace(a, chip=dataclasses.replace(a.chip, total_power_w=50.0))
    assert c != a
    zero = PowerMap(np.zeros((2, 2)), 0.0)
    neg_zero = PowerMap(-np.zeros((2, 2)), 0.0)
    assert zero == neg_zero and hash(zero) == hash(neg_zero)
    assert zero != 1


# ---------------------------------------------------------------------------
# properties over drawn field values


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_decap_values = dict(capacitance_uf=_floats(1e-3, 100.0), esr_mohm=_floats(0.0, 10.0),
                     esl_nh=_floats(0.0, 1.0))
_decaps = st.builds(DiscreteDecap, **_decap_values)
_package_decaps = st.builds(PackageDecap, **_decap_values,
                            x=_floats(0.0, 1.0), y=_floats(0.0, 1.0))


@st.composite
def scenario_configs(draw):
    nx, ny = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    chip = ChipSpec(width_mm=draw(_floats(2.0, 20.0)), height_mm=draw(_floats(2.0, 20.0)),
                    total_power_w=draw(_floats(0.1, 300.0)),
                    tile_count_x=nx, tile_count_y=ny)
    vrm = pdnsim.VrmSpec(series_resistance_mohm=draw(_floats(0.0, 1.0)),
                         series_inductance_nh=draw(_floats(0.0, 1.0)),
                         output_voltage_v=draw(_floats(0.5, 1.5)))
    placement = draw(st.one_of(
        st.builds(OnPackageVrm, count=st.sampled_from([1, 2, 4]), gap_mm=_floats(0.1, 5.0),
                  pad_width_mm=_floats(1.0, 20.0)),
        st.builds(BacksideVrm, sites_per_side=st.integers(1, 10)),
        st.builds(ChipOnVrm3D, die_decap=_decaps)))
    decaps = DecapPolicy(onchip_density_nf_per_mm2=draw(_floats(0.0, 20.0)),
                         onchip_esr_ohm_mm2=draw(_floats(1e-3, 1.0)),
                         package_decaps=tuple(draw(st.lists(_package_decaps, max_size=3))),
                         board_decaps=tuple(draw(st.lists(_decaps, max_size=2))))
    dens = draw(st.none() | st.lists(_floats(0.01, 10.0), min_size=nx * ny, max_size=nx * ny))
    pm = None if dens is None else PowerMap(np.reshape(dens, (ny, nx)), chip.total_power_w)
    return ScenarioConfig(chip=chip, vrm=vrm, placement=placement, decaps=decaps,
                          power_map=pm)


@settings(max_examples=40, deadline=None)
@given(scenario_configs())
def test_json_round_trip_over_drawn_configs(cfg):
    assert config_from_json(config_to_json(cfg)) == cfg
    valid = validate_config(cfg)
    text = config_to_json(valid)
    assert config_from_json(text) == valid
    assert config_to_json(config_from_json(text)) == text


@settings(max_examples=40, deadline=None)
@given(scenario_configs())
def test_validate_is_idempotent_over_drawn_configs(cfg):
    valid = validate_config(cfg)
    assert validate_config(valid) == valid
    # nothing but the power map is rewritten
    assert dataclasses.replace(valid, power_map=None) == dataclasses.replace(cfg, power_map=None)


# ---------------------------------------------------------------------------
# field bounds


def _numeric_leaves(tp, path):
    """(path, annotation) for each float or int reachable from the type ``tp``."""
    origin = typing.get_origin(tp)
    if origin is typing.Annotated or tp in (float, int):
        yield path, tp
    elif origin in (typing.Union, types.UnionType):
        for arg in typing.get_args(tp):
            yield from _numeric_leaves(arg, path)
    elif origin is tuple:
        yield from _numeric_leaves(typing.get_args(tp)[0], f"{path}[k]")
    elif dataclasses.is_dataclass(tp):
        for name, sub in typing.get_type_hints(tp, include_extras=True).items():
            yield from _numeric_leaves(sub, f"{path}.{name}" if path else name)


def test_every_numeric_field_carries_a_bound():
    leaves = dict(_numeric_leaves(ScenarioConfig, ""))
    assert {"package.solder_bump_count", "placement.sites_per_side", "placement.count",
            "decaps.package_decaps[k].x", "placement.pad_width_mm",
            "placement.die_decap.esl_nh"} <= leaves.keys()
    assert [path for path, tp in leaves.items()
            if typing.get_origin(tp) is not typing.Annotated] == []


def _bounded_fields(spec, parts=()):
    """(field path parts, bound text, number type) for each bounded number
    in ``spec``."""
    for name, tp in typing.get_type_hints(type(spec), include_extras=True).items():
        val = getattr(spec, name)
        if typing.get_origin(tp) is typing.Annotated:
            yield parts + (name,), tp.__metadata__[0], tp.__origin__
        elif isinstance(val, tuple):
            for k, item in enumerate(val):
                yield from _bounded_fields(item, parts + (name, k))
        elif dataclasses.is_dataclass(val):
            yield from _bounded_fields(val, parts + (name,))


def _path(parts):
    """The violation path of field path ``parts``: ``decaps.board_decaps[0].esl_nh``."""
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in parts)[1:]


def _replace_at(obj, parts, value):
    head, rest = parts[0], parts[1:]
    if isinstance(head, int):
        new = _replace_at(obj[head], rest, value) if rest else value
        return obj[:head] + (new,) + obj[head + 1:]
    new = _replace_at(getattr(obj, head), rest, value) if rest else value
    return dataclasses.replace(obj, **{head: new})


@functools.cache
def _benchmark_fields(name):
    cfg = benchmark_config(name)
    return cfg, list(_bounded_fields(cfg))


_OUT_OF_BOUNDS = {
    "> 0": st.floats(max_value=0.0),
    ">= 0": st.floats(max_value=-math.ulp(0.0)),
    "in [0, 1]": st.floats(max_value=-math.ulp(0.0)) | st.floats(min_value=1.0 + math.ulp(1.0)),
    ">= 1": st.integers(max_value=0),
    "in [1, 200]": st.integers(max_value=0) | st.integers(min_value=201),
    "in [2, 200]": st.integers(max_value=1) | st.integers(min_value=201),
    "one of 1, 2, 4": st.integers().filter(lambda n: n not in (1, 2, 4)),
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_any_field_out_of_bounds_is_rejected(data):
    cfg, fields = _benchmark_fields(data.draw(st.sampled_from(BENCHMARK_NAMES)))
    parts, bound, number = data.draw(st.sampled_from(fields))
    value = data.draw(_OUT_OF_BOUNDS[bound] | st.sampled_from([math.nan, math.inf, -math.inf]))
    with pytest.raises(ValidationError) as exc:
        validate_config(_replace_at(cfg, parts, value))
    if number is int and isinstance(value, float):
        assert exc.value.violations[0] == f"{_path(parts)}: expected int, got {value!r}"
    else:
        assert exc.value.violations[0].startswith(f"{_path(parts)} must be {bound} (got ")


def _every_field(obj, parts=()):
    """Path parts of each field and tuple item under ``obj``, walked."""
    if isinstance(obj, tuple):
        children = enumerate(obj)
    elif dataclasses.is_dataclass(obj):
        children = ((f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj))
    else:
        return
    for key, val in children:
        yield parts + (key,)
        yield from _every_field(val, parts + (key,))


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_any_field_of_the_wrong_type_is_rejected(name):
    """None, a string or a bool in any field or tuple item of a benchmark
    fails validation with that path first, and with no other exception."""
    cfg = benchmark_config(name)
    fields = list(_every_field(cfg))
    assert len(fields) > 100
    for parts in fields:
        for value in (None, "1", True):
            if parts == ("power_map",) and value is None:
                continue                        # no map is a valid map
            with pytest.raises(ValidationError) as exc:
                validate_config(_replace_at(cfg, parts, value))
            assert exc.value.violations[0].startswith(f"{_path(parts)}: expected "), parts


# ---------------------------------------------------------------------------
# every config value reaches the netlist


def _perturbed(value, bound):
    """A valid value other than ``value`` for a field with ``bound``."""
    if bound == "one of 1, 2, 4":
        return {1: 2, 2: 4, 4: 1}[value]
    if bound == "in [0, 1]":
        return (value + 0.5) % 1.0           # across the package
    if isinstance(value, int):
        return value + 1
    return value * 1.5


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_every_config_value_reaches_the_netlist(name):
    """Changing any one number of a config file (the power map aside)
    changes the netlist: no key looks like physics but does nothing."""
    cfg = benchmark_config(name)
    chip = dataclasses.replace(cfg.chip, tile_count_x=6, tile_count_y=6)
    base = json.loads(config_to_json(dataclasses.replace(cfg, chip=chip)))
    base["power_map"] = {"kind": "hotspot"}   # follows the tile count and chip power

    def columns(d):
        return assemble_netlist(validate_config(config_from_json(json.dumps(d)))).columns()

    ref = columns(base)
    unread = []
    # every number in the file but the map's densities carries a bound
    # (test_every_numeric_field_carries_a_bound)
    for parts, bound, _ in _bounded_fields(config_from_json(json.dumps(base))):
        d = json.loads(json.dumps(base))
        target = d
        for part in parts[:-1]:
            target = target[part]
        target[parts[-1]] = _perturbed(target[parts[-1]], bound)
        if all(np.array_equal(x, y) for x, y in zip(columns(d), ref)):
            unread.append(parts)
    assert unread == []
