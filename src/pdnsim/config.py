"""Scenario configuration model.

Every physical quantity carries its unit in the field name (``_mm``,
``_nf_per_mm2``, ...).  Table-style parameter sets in this domain mix um, mm,
nF and uF scales, and silent unit mistakes are the dominant failure mode, so
the unit is kept visible end to end: config file keys, dataclass fields and
CSV headers all agree.

All objects are frozen dataclasses; a validated ScenarioConfig is immutable
and safe to share across sweep workers.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import typing
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# ---------------------------------------------------------------------------
# field bounds


# Each alias carries its bound as (text for messages, test).  Every test is a
# chained comparison, so NaN and +-inf fail each bound.
Positive = typing.Annotated[float, "> 0", lambda x: 0 < x < math.inf]
NonNegative = typing.Annotated[float, ">= 0", lambda x: 0 <= x < math.inf]
Fraction = typing.Annotated[float, "in [0, 1]", lambda x: 0 <= x <= 1]
Count = typing.Annotated[int, ">= 1", lambda n: 1 <= n < math.inf]
VrmCount = typing.Annotated[int, "one of 1, 2, 4", lambda n: n in (1, 2, 4)]
# Tiles per side: the smallest chip grid, and a largest that catches a typo
# before it sizes arrays (a DC evaluate at 200 takes ~7 s of CPU and 0.7 GB)
MIN_TILE_COUNT, MAX_TILE_COUNT = 2, 200
TileCount = typing.Annotated[int, f"in [{MIN_TILE_COUNT}, {MAX_TILE_COUNT}]",
                             lambda n: MIN_TILE_COUNT <= n <= MAX_TILE_COUNT]
# Backside via sites per side, bounded by the tile grid's largest for the
# same reason
SiteCount = typing.Annotated[int, f"in [1, {MAX_TILE_COUNT}]",
                             lambda n: 1 <= n <= MAX_TILE_COUNT]
# Package grid pitches per side, package size / grid_pitch_mm: the 0.1 mm
# pitch on the default 30 mm package, ten times the default grid, builds
# 271k nodes and takes a DC solve of ~2.6 s of CPU and 0.7 GB
MAX_PACKAGE_PITCHES = 300

# ---------------------------------------------------------------------------
# leaf specs


@dataclass(frozen=True)
class WireSpec:
    """On-chip power grid wire geometry and material."""

    resistivity_ohm_m: Positive = 17.1e-9
    thickness_um: Positive = 5.0
    width_um: Positive = 3.3
    pitch_um: Positive = 30.0


@dataclass(frozen=True)
class ViaSpec:
    """Vertical via array (TSV or through-package via) at one attach site."""

    resistivity_ohm_m: Positive
    height_um: Positive
    diameter_um: Positive
    inductance_per_via_ph: Positive
    count_per_site: Count


@dataclass(frozen=True)
class BumpSpec:
    """Bump array parameters: the pitch that sets how many bumps a tile
    footprint holds, and per-bump lumped values."""

    pitch_um: Positive
    resistance_per_bump_mohm: Positive
    inductance_per_bump_ph: Positive


@dataclass(frozen=True)
class ChipSpec:
    width_mm: Positive = 10.0
    height_mm: Positive = 10.0
    total_power_w: Positive = 100.0
    onchip_wire: WireSpec = WireSpec()
    tile_count_x: TileCount = 50
    tile_count_y: TileCount = 50


@dataclass(frozen=True)
class PackageSpec:
    metal_layer_count: Count = 10
    layer_thickness_mm: Positive = 0.010
    package_width_mm: Positive = 30.0
    package_height_mm: Positive = 30.0
    # Effective sheet resistivity of one merged P/G plane.  Somewhat above
    # bulk copper: real planes are perforated and shared with signal routing.
    sheet_resistivity_ohm_m: Positive = 22e-9
    # Effective loop inductance of the package-level current path, expressed
    # per square of lateral plane.  A tightly coupled plane pair; the small
    # value keeps the plane L/R redistribution time constant well inside the
    # settling window.  Calibration knob.
    segment_inductance_ph_per_square: Positive = 0.18
    grid_pitch_mm: Positive = 1.0
    # Package-to-board solder bumps: per-bump values and the bump count,
    # split over the four package corners.
    solder_bump_resistance_mohm: Positive = 0.5
    solder_bump_inductance_ph: Positive = 100.0
    solder_bump_count: Count = 100
    # C4 values are effective per-bump figures for the whole chip attach
    # path (bump + package redistribution + on-chip grid entry), calibrated
    # against the benchmark noise targets rather than bare bump parasitics.
    c4_bump: BumpSpec = BumpSpec(
        pitch_um=100.0,
        resistance_per_bump_mohm=400.0,
        inductance_per_bump_ph=1000.0,
    )


@dataclass(frozen=True)
class VrmSpec:
    """Regulator modeled as an ideal source with series parasitics; its
    output voltage is the rail the chip loads draw their current from."""

    series_resistance_mohm: NonNegative = 0.01
    series_inductance_nh: NonNegative = 0.00001
    output_voltage_v: Positive = 1.0


@dataclass(frozen=True)
class OnPackageVrm:
    """1/2/4 regulator dies beside the chip on the package top."""

    count: VrmCount = 4
    gap_mm: Positive = 1.0
    # Lateral attach pad width (the pad spans the facing chip edge by
    # default).
    pad_width_mm: Positive = 10.0

    variant = "on_package"


@dataclass(frozen=True)
class BacksideVrm:
    """One regulator die on the backside of the package, feeding through vias."""

    through_package_via: ViaSpec = ViaSpec(
        resistivity_ohm_m=17.1e-9,
        height_um=1000.0,
        diameter_um=200.0,
        inductance_per_via_ph=0.05,
        count_per_site=1,
    )
    # The vias land on a grid of attach sites spread over the chip
    # footprint projection (n x n sites).
    sites_per_side: SiteCount = 8

    variant = "backside"


@dataclass(frozen=True)
class DiscreteDecap:
    """A discrete decap as one series ESR-ESL-C branch to ground."""

    capacitance_uf: Positive
    esr_mohm: NonNegative
    esl_nh: NonNegative


@dataclass(frozen=True)
class PackageDecap(DiscreteDecap):
    """A discrete decap on the package plane at (x, y), in fractions of the
    package width and height from its lower-left corner."""

    x: Fraction = 0.5
    y: Fraction = 0.5


@dataclass(frozen=True)
class ChipOnVrm3D:
    """Processor die stacked on the regulator die (TSV + microbump path)."""

    microbump: BumpSpec = BumpSpec(
        pitch_um=100.0,
        resistance_per_bump_mohm=120.0,
        inductance_per_bump_ph=770.0,
    )
    vrm_tsv: ViaSpec = ViaSpec(
        resistivity_ohm_m=80e-9,
        height_um=50.0,
        diameter_um=5.0,
        inductance_per_via_ph=20.0,
        count_per_site=1,
    )
    # Output capacitance of the regulator die itself; its ESR damps the
    # power-on surge at the die distribution node.
    die_decap: DiscreteDecap = DiscreteDecap(capacitance_uf=2.0, esr_mohm=0.2, esl_nh=0.00001)

    variant = "chip_on_vrm_3d"


VrmPlacement = OnPackageVrm | BacksideVrm | ChipOnVrm3D


@dataclass(frozen=True)
class DecapPolicy:
    onchip_density_nf_per_mm2: NonNegative = 5.3
    # On-chip decap ESR scales inversely with decap area; specified as an
    # ohm*mm^2 product so tiling does not change the chip-total ESR.
    onchip_esr_ohm_mm2: Positive = 0.02
    # 4x4 grid under the chip footprint projection (chip is centered and
    # spans the middle third of a 30 mm package).
    package_decaps: tuple[PackageDecap, ...] = tuple(
        PackageDecap(
            capacitance_uf=0.005,
            esr_mohm=10.0,
            esl_nh=0.0001,
            x=0.38 + 0.24 * i / 3.0,
            y=0.38 + 0.24 * j / 3.0,
        )
        for i in range(4)
        for j in range(4)
    )
    board_decaps: tuple[DiscreteDecap, ...] = (
        DiscreteDecap(capacitance_uf=100.0, esr_mohm=1.0, esl_nh=1.0),
    ) * 10


@dataclass(frozen=True)
class BoardSpec:
    lumped_resistance_mohm: NonNegative = 0.2
    # Board + connector current loop; large enough that the board branch is
    # quiescent on the nanosecond timescale of the step experiment.
    lumped_inductance_nh: NonNegative = 500.0


class PowerMap:
    """Per-tile load power density grid in W/mm^2.

    Immutable; ``densities`` is a read-only (ny, nx) array indexed [j, i]
    with i along x.  ``total_power_w`` must equal ``chip.total_power_w``.
    """

    def __init__(self, densities, total_power_w):
        arr = np.array(densities, dtype=float)
        arr.setflags(write=False)
        self.densities = arr
        self.total_power_w = float(total_power_w)

    def __eq__(self, other):
        if not isinstance(other, PowerMap):
            return NotImplemented
        # array_equal is False for arrays of different shapes
        return (np.array_equal(self.densities, other.densities)
                and self.total_power_w == other.total_power_w)

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which __eq__ counts as equal
        return hash((self.densities.shape, (self.densities + 0.0).tobytes(),
                     self.total_power_w))

    def __repr__(self):
        return f"PowerMap(shape={self.densities.shape}, total_power_w={self.total_power_w})"


@dataclass(frozen=True)
class ScenarioConfig:
    chip: ChipSpec = ChipSpec()
    package: PackageSpec = PackageSpec()
    board: BoardSpec = BoardSpec()
    vrm: VrmSpec = VrmSpec()
    placement: VrmPlacement = OnPackageVrm()
    decaps: DecapPolicy = DecapPolicy()
    power_map: PowerMap | None = None


# ---------------------------------------------------------------------------
# built-in power maps

POWER_MAP_KINDS = ("uniform", "hotspot")
HOTSPOT_BLOCK_CENTERS = ((0.3, 0.3), (0.7, 0.7))
HOTSPOT_BLOCK_FRACTION = 0.2
HOTSPOT_DENSITY_RATIO = 3.0


def builtin_power_map(kind, chip, hotspot_ratio=HOTSPOT_DENSITY_RATIO,
                      block_fraction=HOTSPOT_BLOCK_FRACTION,
                      block_centers=HOTSPOT_BLOCK_CENTERS):
    """Generate a uniform or hotspot power-density map for ``chip``.

    ``hotspot``: background density plus rectangular blocks (each
    ``block_fraction`` of the chip edge in each direction, centered at the
    normalized ``block_centers``) at ``hotspot_ratio`` times the background.
    Both kinds are normalized so tile powers sum to ``chip.total_power_w``.
    Raises ValidationError if a ``chip`` field has the wrong type or bound.
    """
    _check_fields(chip, "chip.")
    if kind not in POWER_MAP_KINDS:
        raise ValueError(f"unknown builtin power map kind: {kind!r}")
    nx, ny = chip.tile_count_x, chip.tile_count_y
    dens = np.ones((ny, nx))
    if kind == "hotspot":
        half = block_fraction / 2.0
        xs = (np.arange(nx) + 0.5) / nx
        ys = (np.arange(ny) + 0.5) / ny
        for cx, cy in block_centers:
            in_x = np.abs(xs - cx) < half
            in_y = np.abs(ys - cy) < half
            dens[np.ix_(in_y, in_x)] = hotspot_ratio
    return normalize_power_map(PowerMap(dens, chip.total_power_w), chip)


def _tile_power_w(pm, chip):
    """Sum of the tile powers of ``pm`` on ``chip``'s tile grid."""
    tile_area = (chip.width_mm / chip.tile_count_x) * (chip.height_mm / chip.tile_count_y)
    return float(pm.densities.sum()) * tile_area


def normalize_power_map(pm, chip):
    """Rescale densities so the tile powers sum to the chip's total power."""
    total = _tile_power_w(pm, chip)
    if total <= 0.0:
        raise ValidationError(
            ["power_map: all-zero density map cannot be normalized to nonzero total power"]
        )
    return PowerMap(pm.densities * (chip.total_power_w / total), chip.total_power_w)


# ---------------------------------------------------------------------------
# validation


@functools.cache
def _fields(cls):
    """``{name: (type, bound or None, classes its value may have)}`` for each
    field of ``cls``, any ``Annotated`` bound split off the type."""
    full = typing.get_type_hints(cls, include_extras=True)
    return {name: (tp, getattr(full[name], "__metadata__", None),
                   {float: (int, float), tuple: (tuple,)}.get(typing.get_origin(tp) or tp)
                   or typing.get_args(tp) or (tp,))
            for name, tp in typing.get_type_hints(cls).items()}


def _wrong_type(path, expected, val):
    try:
        return f"{path}: expected {expected}, got {val!r}"
    except ValueError:  # val is or holds an int over the interpreter's digit limit
        return f"{path}: expected {expected}, got {type(val).__name__} too long to print"


def _out_of_bounds(spec, prefix):
    """A violation, named ``prefix`` + path, for each value under ``spec``
    that is not of its field's type, is an integer that float() cannot hold
    or is outside its field's bound; specs and tuple items are walked."""
    for name, (tp, bound, kinds) in _fields(type(spec)).items():
        val = getattr(spec, name)
        # bool is an int subclass in Python, but not a number here
        if isinstance(val, bool) or not isinstance(val, kinds):
            expected = "float" if tp is float else " | ".join(k.__name__ for k in kinds)
            yield _wrong_type(f"{prefix}{name}", expected, val)
        elif bound:
            # the builder computes in floats; float() rounds these past its largest
            if isinstance(val, int) and abs(val) >= 2**1024 - 2**970:
                yield f"{prefix}{name}: integer beyond the float range"
            elif not bound[1](val):
                yield f"{prefix}{name} must be {bound[0]} (got {val})"
        elif isinstance(val, tuple):
            (item, _) = typing.get_args(tp)
            for k, x in enumerate(val):
                yield from (_out_of_bounds(x, f"{prefix}{name}[{k}].") if isinstance(x, item)
                            else [_wrong_type(f"{prefix}{name}[{k}]", item.__name__, x)])
        elif dataclasses.is_dataclass(val):
            yield from _out_of_bounds(val, f"{prefix}{name}.")


def _check_fields(spec, prefix):
    if violations := list(_out_of_bounds(spec, prefix)):
        raise ValidationError(violations)


def validate_config(config: ScenarioConfig) -> ScenarioConfig:
    """Check every invariant and return a normalized, validated config.

    Raises all field type and bound violations, then all cross-field ones.
    Only the power map is rewritten: a missing map defaults to the hotspot
    map, and a map whose tile powers miss ``chip.total_power_w`` by more
    than 1e-12 relative is rescaled to it; one that carries it is kept.
    Idempotent: re-validating the result returns an equal config.
    """
    _check_fields(config, "")
    v = []
    chip, pkg = config.chip, config.package
    if chip.onchip_wire.width_um >= chip.onchip_wire.pitch_um:
        v.append("chip.onchip_wire.width_um must be < pitch_um")
    if pkg.package_width_mm < chip.width_mm or pkg.package_height_mm < chip.height_mm:
        v.append("package must be at least as large as the chip footprint")
    pitches = max(pkg.package_width_mm, pkg.package_height_mm) / pkg.grid_pitch_mm
    if not pitches <= MAX_PACKAGE_PITCHES:  # inf for a subnormal pitch
        v.append(f"package.package_width_mm and package_height_mm must each be at most "
                 f"{MAX_PACKAGE_PITCHES} package.grid_pitch_mm (got {pitches} pitches)")

    pm = config.power_map
    if pm is not None:
        if pm.total_power_w != chip.total_power_w:
            v.append(f"power_map.total_power_w ({pm.total_power_w}) must equal "
                     f"chip.total_power_w ({chip.total_power_w})")
        if pm.densities.shape != (chip.tile_count_y, chip.tile_count_x):
            v.append(f"power_map shape {pm.densities.shape} does not match tile grid "
                     f"({chip.tile_count_y}, {chip.tile_count_x})")
        elif not np.all((pm.densities >= 0) & (pm.densities < np.inf)):
            v.append("power_map densities must all be finite and >= 0")
    if v:
        raise ValidationError(v)

    if pm is None:
        pm = builtin_power_map("hotspot", chip)
    elif abs(_tile_power_w(pm, chip) - chip.total_power_w) > 1e-12 * chip.total_power_w:
        pm = normalize_power_map(pm, chip)
    return dataclasses.replace(config, power_map=pm)


# ---------------------------------------------------------------------------
# benchmark configurations

_BENCHMARKS = {
    "on_package_1": OnPackageVrm(count=1),
    "on_package_2": OnPackageVrm(count=2),
    "on_package_4": OnPackageVrm(count=4),
    "backside": BacksideVrm(),
    "chip_on_vrm_3d": ChipOnVrm3D(),
}
BENCHMARK_NAMES = tuple(_BENCHMARKS)


def benchmark_config(name, power_map_kind="hotspot") -> ScenarioConfig:
    """One of the five studied VRM placement benchmarks, validated:
    ``on_package_{1,2,4}``, ``backside``, ``chip_on_vrm_3d``."""
    if name not in _BENCHMARKS:
        raise ValueError(f"unknown benchmark {name!r}; expected one of {BENCHMARK_NAMES}")
    cfg = ScenarioConfig(placement=_BENCHMARKS[name])
    cfg = dataclasses.replace(cfg, power_map=builtin_power_map(power_map_kind, cfg.chip))
    return validate_config(cfg)


# ---------------------------------------------------------------------------
# serialization

def config_to_dict(config: ScenarioConfig) -> dict:
    d = {f.name: dataclasses.asdict(getattr(config, f.name))
         for f in dataclasses.fields(config) if f.name != "power_map"}
    d["placement"]["variant"] = config.placement.variant
    if config.power_map is not None:
        d["power_map"] = {"densities_w_per_mm2": config.power_map.densities.tolist()}
    return d


def _decode(tp, val, path):
    """``val`` decoded by the field type ``tp``: a tuple from a list, and a
    spec (for a ``VrmPlacement``, the one its ``variant`` tag names, default
    ``"on_package"``) from an object naming each required field and no
    unknown one.  A number or anything else is kept as written."""
    if typing.get_origin(tp) is tuple:           # tuple[Spec, ...]
        if not isinstance(val, (list, tuple)):
            raise ValidationError([f"{path}: expected a list, got {val!r}"])
        (item, _) = typing.get_args(tp)
        return tuple(_decode(item, x, f"{path}[{k}]") for k, x in enumerate(val))
    if tp is not VrmPlacement and not dataclasses.is_dataclass(tp):
        return val
    if not isinstance(val, dict):
        raise ValidationError([f"{path}: expected an object, got {val!r}"])
    if tp is VrmPlacement:
        val = dict(val)
        variant = val.pop("variant", "on_package")
        tagged = [t for t in typing.get_args(tp) if t.variant == variant]
        if not tagged:
            raise ValidationError([f"{path}.variant: unknown variant {variant!r}"])
        (tp,) = tagged
    prefix = f"{path}." if path else ""
    fields = _fields(tp)
    kwargs = {}
    for key, x in val.items():
        if key not in fields:
            raise ValidationError([f"{prefix}{key}: unknown field for {tp.__name__}"])
        kwargs[key] = _decode(fields[key][0], x, prefix + key)
    missing = [f.name for f in dataclasses.fields(tp)
               if f.name not in kwargs and f.default is dataclasses.MISSING]
    if missing:
        raise ValidationError([f"{prefix}{name}: missing required field" for name in missing])
    return tp(**kwargs)


def _power_map(pmd, chip) -> PowerMap:
    if not isinstance(pmd, dict):
        raise ValidationError([f"power_map: expected an object, got {pmd!r}"])
    known = "kind" if "kind" in pmd else "densities_w_per_mm2"
    for key in pmd:
        if key != known:
            raise ValidationError([f"power_map.{key}: unknown field"])
    if "kind" in pmd:
        if pmd["kind"] not in POWER_MAP_KINDS:
            raise ValidationError([f"power_map.kind: unknown kind {pmd['kind']!r}"])
        return builtin_power_map(pmd["kind"], chip)
    try:
        dens = np.array(pmd.get("densities_w_per_mm2"))
    except ValueError:                           # ragged rows
        dens = None
    if dens is None or dens.dtype.kind not in "iuf":
        raise ValidationError(["power_map.densities_w_per_mm2: expected a grid of numbers"])
    return PowerMap(dens, chip.total_power_w)


def config_from_dict(d: dict) -> ScenarioConfig:
    """Inverse of config_to_dict.  Checks the structure of ``d``, and its
    fields only if it holds a power map, which is built from the chip's
    fields; call validate_config."""
    if not isinstance(d, dict):
        raise ValidationError([f"config: expected an object, got {d!r}"])
    cfg = _decode(ScenarioConfig, {k: v for k, v in d.items() if k != "power_map"}, "")
    if "power_map" in d:
        _check_fields(cfg, "")  # the map is built from chip fields
        cfg = dataclasses.replace(cfg, power_map=_power_map(d["power_map"], cfg.chip))
    return cfg


def config_to_json(config: ScenarioConfig) -> str:
    return json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n"


def _unique_keys(pairs):
    """A JSON object as a dict, rejecting a repeated key rather than keeping its last value."""
    obj = {}
    for key, val in pairs:
        if key in obj:
            raise ValidationError([f"config repeats the key {key!r}"])
        obj[key] = val
    return obj


def config_from_json(text: str | bytes) -> ScenarioConfig:
    """config_from_dict of JSON ``text`` (bytes as UTF-8); raises ValidationError if it does not parse."""
    try:
        doc = json.loads(text if isinstance(text, str) else text.decode(),
                         object_pairs_hook=_unique_keys)
    except ValueError as exc:  # not UTF-8, not JSON, or an integer over the digit limit
        raise ValidationError([f"config is not valid JSON: {exc}"]) from exc
    except RecursionError as exc:
        raise ValidationError(["config nests too deeply to parse"]) from exc
    return config_from_dict(doc)


def load_config(path) -> ScenarioConfig:
    with open(path, "rb") as fh:
        return config_from_json(fh.read())


def config_hash(config: ScenarioConfig) -> str:
    """Stable content hash used for sweep provenance."""
    return hashlib.sha256(config_to_json(config).encode()).hexdigest()[:16]
