"""Metric extraction, parameter sweeps and configuration comparison.

Conventions: drops and noise are reported in mV.  "Max PSN" is the largest
absolute deficit of any chip tile below the final supply value, measured
only after the source finishes its ramp (during the ramp the deficit is
trivially the full supply swing).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .builder import assemble_netlist
from .config import (OnPackageVrm, ScenarioConfig, config_hash, normalize_power_map,
                     validate_config)
from .errors import PdnError, RequestError
# DEFAULT_RISE_S, the rise of the evaluated power-up, stays importable here
from .mna import DEFAULT_RISE_S, Stimulus, csv_text, dc_solve, transient_solve, transient_steps

# at 25 ps the trapezoidal error of max PSN is 0.15-0.46% (README, "Model
# notes")
DEFAULT_DT_S = 25e-12
DEFAULT_T_END_S = 200e-9
PSN_PROMINENCE_V = 1e-3   # smallest droop that counts as the first droop


@dataclass
class IrDropMap:
    """Per-tile DC drop below nominal supply."""

    drop_mv: np.ndarray          # (ny, nx)
    max_mv: float
    mean_mv: float
    argmax: tuple                # (i, j) tile of the max drop

    @classmethod
    def from_tiles(cls, tile_voltages, supply_v):
        drop = (supply_v - np.asarray(tile_voltages, dtype=float)) * 1e3
        j, i = np.unravel_index(int(np.argmax(drop)), drop.shape)
        return cls(drop_mv=drop, max_mv=float(drop.max()),
                   mean_mv=float(drop.mean()), argmax=(int(i), int(j)))


def ir_drop_map(dc, config: ScenarioConfig, netlist) -> IrDropMap:
    """IR-drop map of a DC solution of ``netlist``, built from ``config``."""
    tiles = netlist.meta["chip_tile_nodes"]
    tile_v = dc.voltages[np.asarray(tiles)]
    return IrDropMap.from_tiles(tile_v, config.vrm.output_voltage_v)


@dataclass
class PsnMetrics:
    max_psn_mv: float            # worst deficit over tiles and post-ramp time
    first_droop_mv: float        # depth of the first local minimum after the ramp
    first_droop_time_s: float
    settling_mv: float           # deficit at t_end (worst tile)


def first_prominent_min(s, prominence):
    """Index of the first local minimum of ``s`` with at least
    ``prominence`` of prominence, or None.  Written out here because
    importing ``scipy.signal`` adds about 44 MB of resident memory to a run.

    Same rules as ``scipy.signal.find_peaks(-s, prominence=prominence)``: a
    flat minimum counts once, at the midpoint of its run (rounded down);
    the ends of the series are never minima; the prominence is the height
    of the lower of the two maxima the series reaches, on either side,
    before it first rises above the minimum's level."""
    x = np.asarray(s, dtype=float)
    n = len(x)
    if n < 3:
        return None
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    ends = np.r_[starts[1:] - 1, n - 1]
    v = x[starts]
    runs = np.flatnonzero((v[1:-1] < v[:-2]) & (v[1:-1] < v[2:])) + 1
    for r in runs:
        p = int(starts[r] + ends[r]) // 2
        # ~(>=) also stops a side at NaN, as scipy's scan does
        left = np.flatnonzero(~(x[:p] >= x[p]))
        right = np.flatnonzero(~(x[p:] >= x[p]))
        lo = left[-1] + 1 if len(left) else 0
        hi = p + right[0] if len(right) else n
        height = min(x[lo:p + 1].max(), x[p:hi].max())
        if height - x[p] >= prominence:
            return p
    return None


def extract_psn(waveform, config: ScenarioConfig, probe) -> PsnMetrics:
    """PSN metrics from a step-response waveform.

    max_psn and settling come from the solver's per-tile post-ramp minima
    and final values, so they cover every chip tile.  The first droop is
    detected on ``probe`` as the first local minimum after the ramp with at
    least ``PSN_PROMINENCE_V`` of prominence.  A waveform without tiles, or
    without a sample at or after its ramp end, raises ``ValueError``.
    """
    v_final = config.vrm.output_voltage_v
    t = waveform.time_s
    ramp_end = waveform.ramp_end_s
    if waveform.tile_min.size == 0:
        raise ValueError("waveform has no chip tile minima: its netlist has no chip_tile_nodes")
    if not t[-1] >= ramp_end:
        raise ValueError(f"waveform has no sample at or after its ramp end at {ramp_end:g} s")
    max_psn = (v_final - float(np.min(waveform.tile_min))) * 1e3
    settle = (v_final - float(np.min(waveform.tile_final))) * 1e3

    mask = t >= ramp_end
    seg, seg_t = waveform.series[probe][mask], t[mask]
    k = first_prominent_min(seg, PSN_PROMINENCE_V)
    if k is None:
        # monotone settle: treat the worst post-ramp point as the droop
        k = int(np.argmin(seg))
    return PsnMetrics(max_psn_mv=max_psn, first_droop_mv=(v_final - float(seg[k])) * 1e3,
                      first_droop_time_s=float(seg_t[k]), settling_mv=settle)


# ---------------------------------------------------------------------------
# one full benchmark evaluation


@dataclass
class BenchmarkResult:
    config: ScenarioConfig
    netlist: object
    dc: object
    ir_map: IrDropMap
    waveform: object | None
    psn: PsnMetrics | None


def evaluate(config: ScenarioConfig, transient=True, dt=DEFAULT_DT_S,
             t_end=DEFAULT_T_END_S, init="cold") -> BenchmarkResult:
    """Build, DC-solve and (optionally) step-response-solve one scenario.

    The transient probes the worst DC tile, chip center and corner; PSN
    metrics use the per-tile running minima so the max is over all tiles.
    ``init`` selects the power-up ("cold") or load-step ("warm")
    transient experiment; see ``transient_solve``.  Before any build, a
    transient request that ``transient_steps`` rejects, or whose stepped
    window (dt times its step count) ends by load-on, raises ``RequestError``.
    """
    config = validate_config(config)
    if transient:
        stim = Stimulus(v_end=config.vrm.output_voltage_v)
        load_on = stim.load_delay_s + stim.load_rise_s
        if not (stepped := dt * transient_steps(dt, t_end, init)) > load_on:
            raise RequestError(f"t_end = {t_end:g} s steps to {stepped:g} s at dt = {dt:g} s, "
                               f"which does not pass the load ramp end at {load_on:g} s")
    net = assemble_netlist(config)
    dc = dc_solve(net)
    ir = ir_drop_map(dc, config, netlist=net)
    wf = psn = None
    if transient:
        wi, wj = ir.argmax
        net.probes["chip_worst_tile"] = int(net.meta["chip_tile_nodes"][wj, wi])
        wf = transient_solve(net, stim, dt, t_end, init=init,
                             probes=["chip_worst_tile", "chip_center", "chip_corner"])
        psn = extract_psn(wf, config, probe="chip_worst_tile")
    return BenchmarkResult(config=config, netlist=net, dc=dc, ir_map=ir,
                           waveform=wf, psn=psn)


# ---------------------------------------------------------------------------
# sweeps

SWEEP_AXES = ("vrm_count", "vrm_gap", "onchip_decap", "power_scale")


def _apply_axis(base: ScenarioConfig, axis, value) -> ScenarioConfig:
    if axis in ("vrm_count", "vrm_gap"):
        if not isinstance(base.placement, OnPackageVrm):
            raise RequestError(f"{axis} axis requires an on-package placement")
        # a fractional count stays a float, which validation rejects as not
        # an int (placement.count: expected int, got 2.5), not truncated
        change = ({"count": int(value) if float(value).is_integer() else value}
                  if axis == "vrm_count" else {"gap_mm": float(value)})
        plc = dataclasses.replace(base.placement, **change)
        return dataclasses.replace(base, placement=plc)
    if axis == "onchip_decap":
        dec = dataclasses.replace(base.decaps, onchip_density_nf_per_mm2=float(value))
        return dataclasses.replace(base, decaps=dec)
    if axis == "power_scale":
        chip = dataclasses.replace(base.chip, total_power_w=base.chip.total_power_w * float(value))
        pm = base.power_map
        if pm is not None:
            pm = normalize_power_map(pm, chip)
        return dataclasses.replace(base, chip=chip, power_map=pm)
    raise RequestError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")


@dataclass
class SweepPoint:
    value: float
    max_ir_drop_mv: float | None
    max_psn_mv: float | None
    config_hash: str
    error: str | None = None


@dataclass
class SweepResult:
    axis: str
    points: list

    def to_csv(self) -> str:
        return csv_text(["axis_value", "max_ir_drop_mv", "max_psn_mv", "config_hash"],
                        ((p.value, p.max_ir_drop_mv, p.max_psn_mv, p.config_hash)
                         for p in self.points))

    @property
    def failures(self):
        return [p for p in self.points if p.error is not None]


def run_sweep(base: ScenarioConfig, axis, values, transient=True,
              dt=DEFAULT_DT_S, t_end=DEFAULT_T_END_S, init="warm") -> SweepResult:
    """One netlist-build + solve per axis value; per-point failures are
    recorded and the sweep continues.

    Sweeps default to the warm-start load-step experiment: trend studies
    compare the noise of the load transient itself, which the power-up
    charging transient of the cold start would mask (its amplitude scales
    with the total decap charge, not with supply quality).  No ``values``,
    or one that ``float`` rejects, raises ``RequestError``."""
    try:
        values = [float(v) for v in values]
    except ValueError as exc:
        raise RequestError(f"sweep axis values must be numbers ({exc})") from exc
    if not values:
        raise RequestError("sweep needs at least one axis value")
    points = []
    for value in values:
        cfg = _apply_axis(base, axis, value)
        h = config_hash(cfg)
        try:
            res = evaluate(cfg, transient=transient, dt=dt, t_end=t_end, init=init)
            points.append(SweepPoint(
                value=float(value),
                max_ir_drop_mv=res.ir_map.max_mv,
                max_psn_mv=None if res.psn is None else res.psn.max_psn_mv,
                config_hash=h))
        except PdnError as exc:
            points.append(SweepPoint(value=float(value), max_ir_drop_mv=None,
                                     max_psn_mv=None, config_hash=h, error=str(exc)))
    return SweepResult(axis=axis, points=points)


# ---------------------------------------------------------------------------
# configuration comparison


@dataclass
class ComparisonRow:
    label: str
    max_ir_drop_mv: float
    max_psn_mv: float | None
    ir_improvement: float        # (ref - this) / ref, vs the first config
    psn_improvement: float | None


@dataclass
class ComparisonReport:
    rows: list

    def to_csv(self) -> str:
        return csv_text(["label", "max_ir_drop_mv", "max_psn_mv", "ir_improvement",
                         "psn_improvement"],
                        ((r.label, r.max_ir_drop_mv, r.max_psn_mv, r.ir_improvement,
                          r.psn_improvement) for r in self.rows))

    def to_text(self) -> str:
        hdr = f"{'config':<18} {'IR drop (mV)':>14} {'max PSN (mV)':>14} " \
              f"{'IR impr.':>10} {'PSN impr.':>10}"
        lines = [hdr, "-" * len(hdr)]
        for r in self.rows:
            psn = "-" if r.max_psn_mv is None else f"{r.max_psn_mv:.2f}"
            pimp = "-" if r.psn_improvement is None else f"{100 * r.psn_improvement:.1f}%"
            lines.append(f"{r.label:<18} {r.max_ir_drop_mv:>14.2f} {psn:>14} "
                         f"{100 * r.ir_improvement:>9.1f}% {pimp:>10}")
        return "\n".join(lines) + "\n"


def config_label(config: ScenarioConfig) -> str:
    plc = config.placement
    if isinstance(plc, OnPackageVrm):
        return f"on_package_{plc.count}"
    return plc.variant


def compare_configurations(configs, transient=True, dt=DEFAULT_DT_S,
                           t_end=DEFAULT_T_END_S) -> ComparisonReport:
    """Solve each config and tabulate metrics plus improvement relative to
    the first entry.  All configs must share the chip spec."""
    configs = [validate_config(c) for c in configs]
    if len(configs) < 2:
        raise RequestError("comparison needs at least two configurations")
    for c in configs[1:]:
        if c.chip != configs[0].chip:
            raise RequestError("all compared configurations must share the chip spec")

    rows = []
    ir_ref = psn_ref = None
    for cfg in configs:
        res = evaluate(cfg, transient=transient, dt=dt, t_end=t_end)
        ir = res.ir_map.max_mv
        psn = None if res.psn is None else res.psn.max_psn_mv
        if ir_ref is None:
            ir_ref, psn_ref = ir, psn
        rows.append(ComparisonRow(
            label=config_label(cfg), max_ir_drop_mv=ir, max_psn_mv=psn,
            ir_improvement=(ir_ref - ir) / ir_ref,
            psn_improvement=None if psn is None or psn_ref is None
            else (psn_ref - psn) / psn_ref))
    return ComparisonReport(rows=rows)


def ir_map_to_csv(ir: IrDropMap) -> str:
    """CSV of the tile drop map: tile_i,tile_j,drop_mv."""
    ny, nx = ir.drop_mv.shape
    return csv_text(["tile_i", "tile_j", "drop_mv"],
                    ((i, j, ir.drop_mv[j, i]) for j in range(ny) for i in range(nx)))
