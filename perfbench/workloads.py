"""Benchmark workloads: fixed settings, seeded scenario configs, and one
operation on a config, run plainly or traced.

An operation is one scenario evaluation: one ``pdnsim.evaluate`` call, plus
for ``tran_cold`` the output files the ``dc`` and ``tran`` commands write.
A sweep point is one ``evaluate`` call on the config ``run_sweep`` would
build for it; ``run_sweep`` itself keeps only two numbers per point, and the
output check needs the DC solution and the waveform.

The traced operation makes the calls ``evaluate`` makes, in its order, with
a span around each.  The solvers stamp and factor internally, so it also
stamps and factors each MNA system once more on its own, and times repeated
backsolves on that factorization; those extra spans are tracing overhead.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import pdnsim
from pdnsim.analysis import (DEFAULT_RISE_S, BenchmarkResult, extract_psn,
                             ir_drop_map, ir_map_to_csv)
from pdnsim.config import normalize_power_map
from pdnsim.heatmap import heatmap_svg
from pdnsim.mna import (Stimulus, dc_solve, stamp_mna, transient_solve,
                        waveform_to_csv)

DEFAULT_SEED = 0          # the builtin hotspot map: the README table
# Operations and stages are timed in CPU seconds of this process.  The
# benchmark is single-threaded, so that is the wall time of a dedicated
# core; on a shared virtual machine wall time also counts the cycles the
# host steals, which moved single operations by up to 30%.
CLOCK = time.process_time
BACKSOLVE_REPEATS = 100
PROBES = ["chip_worst_tile", "chip_center", "chip_corner"]


@dataclass(frozen=True)
class Workload:
    name: str
    tiles: int            # chip tile grid per side
    dt: float | None      # transient step [s]; None: DC only
    t_end: float | None   # transient window [s]
    init: str             # "cold" power-up or "warm" load step
    render: bool          # also render ir_map.csv, ir_map.svg, waveform.csv
    min_ops: int          # operations a plain run makes at least
    trace_ops: int        # operations the traced run makes


# min_ops covers every scenario kind; for warm_sweep it is four so that the
# median of a run never rests on two operations
WORKLOADS = {
    "tran_cold": Workload("tran_cold", 50, 25e-12, 200e-9, "cold", True, 2, 2),
    "dc_sweep": Workload("dc_sweep", 50, None, None, "cold", False, 3, 12),
    "warm_sweep": Workload("warm_sweep", 50, 25e-12, 60e-9, "warm", False, 4, 4),
}

# 6x6 tiles and a coarse step: the same code paths in well under a second
TOY = {
    "tran_cold": dict(tiles=6, dt=0.5e-9),
    "dc_sweep": dict(tiles=6),
    "warm_sweep": dict(tiles=6, dt=0.25e-9),
}


def workload(name, toy=False) -> Workload:
    w = WORKLOADS[name]
    return dataclasses.replace(w, **TOY[name]) if toy else w


TRAN_PLACEMENTS = ("on_package_1", "chip_on_vrm_3d")
DC_PLACEMENTS = ("on_package_1", "on_package_2", "on_package_4")


def _resized(name, tiles, power_map_kind):
    cfg = pdnsim.benchmark_config(name, power_map_kind=power_map_kind)
    if cfg.chip.tile_count_x == tiles and cfg.chip.tile_count_y == tiles:
        return cfg
    chip = dataclasses.replace(cfg.chip, tile_count_x=tiles, tile_count_y=tiles)
    return dataclasses.replace(
        cfg, chip=chip, power_map=pdnsim.builtin_power_map(power_map_kind, chip))


def _hotspot_map(seed, chip):
    """Two hotspot blocks of random size, ratio and place, at the chip's
    total power."""
    rng = np.random.default_rng(seed)
    return pdnsim.builtin_power_map(
        "hotspot", chip, hotspot_ratio=float(rng.uniform(2.0, 4.0)),
        block_fraction=float(rng.uniform(0.1, 0.3)),
        block_centers=tuple(tuple(float(c) for c in rng.uniform(0.2, 0.8, 2))
                            for _ in range(2)))


def swept(base, axis, value):
    """The config ``run_sweep(base, axis, [value])`` evaluates."""
    if axis == "vrm_gap":
        plc = dataclasses.replace(base.placement, gap_mm=value)
        return dataclasses.replace(base, placement=plc)
    if axis == "onchip_decap":
        dec = dataclasses.replace(base.decaps, onchip_density_nf_per_mm2=value)
        return dataclasses.replace(base, decaps=dec)
    if axis == "power_scale":
        chip = dataclasses.replace(base.chip,
                                   total_power_w=base.chip.total_power_w * value)
        pm = normalize_power_map(
            pdnsim.PowerMap(base.power_map.densities, chip.total_power_w), chip)
        return dataclasses.replace(base, chip=chip, power_map=pm)
    raise ValueError(f"unknown sweep axis {axis!r}")


def scenario(w: Workload, seed, k):
    """``(label, base, axis, value, config)`` of operation ``k``.

    The same (workload, seed, k) always gives the same config; the label
    names it uniquely.  ``axis`` is None for a plain evaluation.
    """
    rng = np.random.default_rng([seed, k])
    if w.name == "tran_cold":
        name = TRAN_PLACEMENTS[k % len(TRAN_PLACEMENTS)]
        cfg = _resized(name, w.tiles, "hotspot")
        if seed != DEFAULT_SEED:
            cfg = dataclasses.replace(cfg, power_map=_hotspot_map(seed, cfg.chip))
        return name, cfg, None, None, cfg
    if w.name == "dc_sweep":
        name = DC_PLACEMENTS[k % len(DC_PLACEMENTS)]
        base = _resized(name, w.tiles, "hotspot")
        axis, value = "vrm_gap", float(rng.uniform(0.1, 5.0))
    else:
        name = "chip_on_vrm_3d"
        base = _resized(name, w.tiles, "uniform")
        if k % 2 == 0:
            axis, value = "onchip_decap", float(rng.uniform(1.0, 15.0))
        else:
            axis, value = "power_scale", float(rng.uniform(0.5, 2.0))
    return (f"{name} {axis}={value!r}", base, axis, value,
            swept(base, axis, value))


def evaluate_kwargs(w: Workload):
    """``evaluate``/``run_sweep`` keyword arguments of the workload."""
    if w.dt is None:
        return {"transient": False}
    return {"dt": w.dt, "t_end": w.t_end, "init": w.init}


def render(res):
    """The output files of the ``dc`` and ``tran`` commands, as text."""
    return {
        "ir_map.csv": ir_map_to_csv(res.ir_map),
        "ir_map.svg": heatmap_svg(res.ir_map.drop_mv, title="IR drop", unit="mV"),
        "waveform.csv": waveform_to_csv(res.waveform),
    }


def run_op(w: Workload, cfg):
    """One plain operation: ``(result, files)``."""
    res = pdnsim.evaluate(cfg, **evaluate_kwargs(w))
    return res, (render(res) if w.render else {})


class Tracer:
    """Spans ``(name, start, end, operation id)`` kept in memory."""

    def __init__(self):
        self.spans = []

    @contextmanager
    def span(self, name, op_id):
        t0 = CLOCK()
        try:
            yield
        finally:
            self.spans.append((name, t0, CLOCK(), op_id))


def _probe_mna(span, net, mode, dt, counts):
    """Stamp and factor one MNA system on its own, time backsolves on it,
    and record its size; the last system probed is the one counted."""
    suffix = "dc" if mode == "dc" else "tran"
    with span(f"mna.stamp_{suffix}"):
        sys_ = stamp_mna(net, mode=mode, dt=dt)
    with span(f"mna.factor_{suffix}"):
        lu = sys_.factorize()
    rhs = np.ones(sys_.dim)
    solves = []
    with span("probe.backsolve"):
        for _ in range(BACKSOLVE_REPEATS):
            t0 = CLOCK()
            lu.solve(rhs)
            solves.append(CLOCK() - t0)
    counts.update({
        "mna.dim": sys_.dim,
        "mna.nnz": sys_.matrix.nnz,
        "mna.lu_nnz": lu.L.nnz + lu.U.nnz,
        "mna.backsolve_ms": statistics.median(solves) * 1e3,
    })


def traced_op(w: Workload, cfg, tracer: Tracer, op_id):
    """One traced operation: ``(result, files, counts)``.  Mirrors
    ``pdnsim.evaluate`` call for call; the result must equal the plain one."""
    def span(name):
        return tracer.span(name, op_id)

    counts = {"mna.factorizations": 1, "mna.steps": 0}
    files = {}
    with span("op"):
        with span("config.validate"):
            cfg = pdnsim.validate_config(cfg)
        with span("builder.assemble"):
            net = pdnsim.assemble_netlist(cfg)
        counts["builder.elements"] = len(net.elements)
        counts["builder.nodes"] = net.node_count
        _probe_mna(span, net, "dc", None, counts)
        with span("mna.dc_solve"):
            dc = dc_solve(net)
        with span("analysis.ir_map"):
            ir = ir_drop_map(dc, cfg, netlist=net)
        wf = psn = None
        if w.dt is not None:
            wi, wj = ir.argmax
            net.probes["chip_worst_tile"] = net.probes[f"tile[{wi},{wj}]"]
            stim = Stimulus(kind="step", v_start=0.0,
                            v_end=cfg.vrm.output_voltage_v,
                            rise_time_s=DEFAULT_RISE_S)
            _probe_mna(span, net, "transient", w.dt, counts)
            counts["mna.factorizations"] += 1
            with span("mna.transient_solve"):
                wf = transient_solve(net, stim, w.dt, w.t_end, method="trap",
                                     init=w.init, probes=PROBES)
            counts["mna.steps"] = len(wf.time_s) - 1
            with span("analysis.extract_psn"):
                psn = extract_psn(wf, cfg, probe="chip_worst_tile")
        res = BenchmarkResult(config=cfg, netlist=net, dc=dc, ir_map=ir,
                              waveform=wf, psn=psn)
        if w.render:
            with span("analysis.ir_csv"):
                files["ir_map.csv"] = ir_map_to_csv(ir)
            with span("heatmap.svg"):
                files["ir_map.svg"] = heatmap_svg(ir.drop_mv, title="IR drop",
                                                  unit="mV")
            with span("mna.waveform_csv"):
                files["waveform.csv"] = waveform_to_csv(wf)
    return res, files, counts


# spans that evaluate() itself is made of; the rest are probes
PIPELINE_SPANS = ("config.validate", "builder.assemble", "mna.dc_solve",
                  "analysis.ir_map", "mna.transient_solve",
                  "analysis.extract_psn", "analysis.ir_csv", "heatmap.svg",
                  "mna.waveform_csv")


def stage_times(spans, counts):
    """Per-layer metrics of one traced operation from its spans and counts."""
    d = defaultdict(float)
    for name, t0, t1, _ in spans:
        d[name] += t1 - t0
    steps = counts["mna.steps"]
    step_loop = d["mna.transient_solve"] - d["mna.stamp_tran"] - d["mna.factor_tran"]
    return {
        "config.validate_s": d["config.validate"],
        "builder.assemble_s": d["builder.assemble"],
        "mna.stamp_dc_s": d["mna.stamp_dc"],
        "mna.factor_dc_s": d["mna.factor_dc"],
        "mna.dc_refine_s": d["mna.dc_solve"] - d["mna.stamp_dc"] - d["mna.factor_dc"],
        "mna.stamp_tran_s": d["mna.stamp_tran"],
        "mna.factor_tran_s": d["mna.factor_tran"],
        "mna.step_loop_s": step_loop,
        "mna.bookkeeping_ms_per_step":
            step_loop / steps * 1e3 - counts["mna.backsolve_ms"] if steps else 0.0,
        "analysis.extract_psn_s": d["analysis.extract_psn"],
        "analysis.ir_csv_s": d["analysis.ir_csv"],
        "mna.waveform_csv_s": d["mna.waveform_csv"],
        "heatmap.svg_s": d["heatmap.svg"],
        "trace.stage_sum_s": sum(d[n] for n in PIPELINE_SPANS),
        "trace.traced_op_s": d["op"],
    }
