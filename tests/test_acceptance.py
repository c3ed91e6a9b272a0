"""End-to-end acceptance checks.

Two tiers of evidence:

* hard oracle checks — dense-solver parity, closed-form step responses,
  linearity, grid convergence, determinism — with tight tolerances;
* calibrated trend targets for the five VRM-placement benchmarks, with
  tolerances wide enough to absorb the parasitics (regulator, board,
  package loop inductance) that have no published values and were fixed
  by the calibration grid search.

The five full-resolution benchmark evaluations are computed once per
session (see conftest.bench_results) and shared across the benchmark
criteria.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

import pdnsim
from conftest import ACCEPT_DT_S, ACCEPT_T_END_S
from oracle import (dense_dc, held_stimulus, random_dc_netlist, rc_step_voltage,
                    rl_mid_voltage, rlc_cap_voltage, series_chain)
from pdnsim import (Netlist, builtin_power_map, config_from_json, config_to_json,
                    dc_solve, transient_solve, validate_config)
from pdnsim.analysis import run_sweep
from pdnsim.builder import build_chip_grid
from pdnsim.calibrate import (ANCHOR_3D_PSN_MV, ANCHOR_4V1_IMPROVEMENT,
                              ANCHOR_BACKSIDE_PSN_MV)
from pdnsim.cli import main
from pdnsim.config import BENCHMARK_NAMES
from pdnsim.netlist import (CAPACITOR, GROUND, INDUCTOR, RESISTOR,
                            VOLTAGE_SOURCE)


# ---------------------------------------------------------------------------
# 1. DC oracle equivalence


def test_dc_oracle_equivalence_on_random_netlists():
    rng = np.random.default_rng(20240817)
    t0 = time.perf_counter()
    for _ in range(24):
        net = random_dc_netlist(rng, max_nodes=10)
        ref = dense_dc(net)
        got = dc_solve(net).voltages
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert float(np.max(np.abs(got - ref))) / scale < 1e-9
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# 2. transient closed-form oracles (dt = tau/1000; the t=0 sample is the
#    pre-step state, so comparison starts at sample 1)


def test_transient_closed_form_oracles():
    t0 = time.perf_counter()

    r, c = 100.0, 1e-9
    tau = r * c
    net = series_chain((RESISTOR, r), (CAPACITOR, c))
    wf = transient_solve(net, held_stimulus(1.0, tau / 1000), tau / 1000, 5 * tau,
                         probes=["n0"])
    err = np.max(np.abs(wf.series["n0"][1:]
                        - rc_step_voltage(wf.time_s[1:], 1.0, r, c)))
    assert err < 5e-3
    # held from 0.5 V to 1 V: the run starts at rest at 0.5 V and sees a
    # 0.5 V step
    stim = dataclasses.replace(held_stimulus(1.0, tau / 1000), v_start=0.5)
    wf = transient_solve(net, stim, tau / 1000, 5 * tau, probes=["n0"])
    err = np.max(np.abs(wf.series["n0"][1:]
                        - (0.5 + rc_step_voltage(wf.time_s[1:], 0.5, r, c))))
    assert err < 5e-3

    r, l = 10.0, 1e-6
    tau = l / r
    net = series_chain((RESISTOR, r), (INDUCTOR, l))
    wf = transient_solve(net, held_stimulus(1.0, tau / 1000), tau / 1000, 5 * tau,
                         probes=["n0"])
    err = np.max(np.abs(wf.series["n0"][1:]
                        - rl_mid_voltage(wf.time_s[1:], 1.0, r, l)))
    assert err < 5e-3

    r, l, c = 1.0, 1e-6, 1e-6
    wd = np.sqrt(1.0 / (l * c) - (r / (2 * l)) ** 2)
    period = 2 * np.pi / wd
    net = series_chain((RESISTOR, r), (INDUCTOR, l), (CAPACITOR, c))
    wf = transient_solve(net, held_stimulus(1.0, period / 1000), period / 1000, 5 * period,
                         probes=["n1"])
    err = np.max(np.abs(wf.series["n1"][1:]
                        - rlc_cap_voltage(wf.time_s[1:], 1.0, r, l, c)))
    assert err < 1e-2

    assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# 3. settling consistency: the transient relaxes to the DC operating point


def test_transient_settles_to_dc_ir_drop(bench_results):
    results, _ = bench_results
    for name in BENCHMARK_NAMES:
        res = results[name]
        assert res.psn.settling_mv == pytest.approx(res.ir_map.max_mv,
                                                    abs=0.1), name


# ---------------------------------------------------------------------------
# 4. configuration ordering and runtime


def test_placement_ordering_and_runtime(bench_results):
    results, wall = bench_results
    ir = {n: results[n].ir_map.max_mv for n in BENCHMARK_NAMES}
    psn = {n: results[n].psn.max_psn_mv for n in BENCHMARK_NAMES}
    order = ("chip_on_vrm_3d", "backside", "on_package_4",
             "on_package_2", "on_package_1")
    for worse, better in zip(order[1:], order[:-1]):
        assert ir[better] < ir[worse], f"IR: {better} !< {worse}"
        assert psn[better] < psn[worse], f"PSN: {better} !< {worse}"
    # ten solves (DC + transient per benchmark) at the 50x50 default grid
    assert wall < 120.0


def test_default_power_map_is_hotspot():
    cfg = pdnsim.benchmark_config("on_package_4")
    dens = cfg.power_map.densities
    assert dens.max() / dens.min() == pytest.approx(3.0, rel=1e-12)


# ---------------------------------------------------------------------------
# 5. calibrated magnitude targets


def test_calibrated_magnitude_targets(bench_results):
    results, _ = bench_results
    ir = {n: results[n].ir_map.max_mv for n in BENCHMARK_NAMES}
    psn = {n: results[n].psn.max_psn_mv for n in BENCHMARK_NAMES}

    imp_3d_vs_4 = 1.0 - ir["chip_on_vrm_3d"] / ir["on_package_4"]
    assert abs(imp_3d_vs_4 - 0.24) < 0.10

    imp_3d_vs_b = 1.0 - ir["chip_on_vrm_3d"] / ir["backside"]
    assert abs(imp_3d_vs_b - 0.159) < 0.10

    imp_4_vs_1 = 1.0 - psn["on_package_4"] / psn["on_package_1"]
    assert abs(imp_4_vs_1 - ANCHOR_4V1_IMPROVEMENT) < 0.10

    imp_b_vs_4 = 1.0 - psn["backside"] / psn["on_package_4"]
    assert abs(imp_b_vs_4 - 0.1065) < 0.08

    assert psn["backside"] == pytest.approx(ANCHOR_BACKSIDE_PSN_MV, rel=0.25)
    assert psn["chip_on_vrm_3d"] == pytest.approx(ANCHOR_3D_PSN_MV, rel=0.25)


# ---------------------------------------------------------------------------
# 6. on-chip decap sweep (3-D stack, uniform map, load-step experiment)


def test_decap_density_sweep_trend():
    cfg = pdnsim.benchmark_config("chip_on_vrm_3d", power_map_kind="uniform")
    sweep = run_sweep(cfg, "onchip_decap", (1.0, 5.0, 10.0, 15.0),
                      dt=ACCEPT_DT_S, t_end=60e-9)
    assert not sweep.failures
    psn = [p.max_psn_mv for p in sweep.points]
    assert all(a > b for a, b in zip(psn, psn[1:])), psn
    ratio = psn[0] / psn[-1]
    assert ratio == pytest.approx(64.0 / 36.0, rel=0.25)


# ---------------------------------------------------------------------------
# 7. VRM gap sweep


@pytest.mark.parametrize("count", [1, 2, 4])
def test_vrm_gap_sweep_trend(count):
    base = pdnsim.benchmark_config(f"on_package_{count}")
    sweep = run_sweep(base, "vrm_gap", (0.1, 1.0, 3.0), transient=False)
    assert not sweep.failures
    ir = [p.max_ir_drop_mv for p in sweep.points]
    assert ir[0] < ir[1] < ir[2], (count, ir)


# ---------------------------------------------------------------------------
# 7b. the paper's claims on the warm load step, at 20x20 tiles.  These assert
# order, not values: the values move with the uncalibrated parasitics.

WARM_12NS = {"dt": ACCEPT_DT_S, "t_end": 12e-9, "init": "warm"}


def _hotspot_20x20(name, **map_kw):
    cfg = pdnsim.benchmark_config(name)
    chip = dataclasses.replace(cfg.chip, tile_count_x=20, tile_count_y=20)
    pm = builtin_power_map("hotspot", chip, **map_kw)
    return validate_config(dataclasses.replace(cfg, chip=chip, power_map=pm))


@pytest.mark.parametrize("ratio", [1, 3, 10, 30])
def test_warm_placement_ordering_at_every_hotspot_ratio(ratio):
    """Chip-on-VRM suppresses the noise most "even with high current density
    hotspots": the placements keep their order from a uniform map (ratio 1)
    to hotspots at 30 times the background density."""
    order = ("chip_on_vrm_3d", "backside", "on_package_4", "on_package_1")
    psn = [pdnsim.evaluate(_hotspot_20x20(name, hotspot_ratio=ratio),
                           **WARM_12NS).psn.max_psn_mv for name in order]
    assert all(a < b for a, b in zip(psn, psn[1:])), (ratio, psn)


@pytest.mark.parametrize("count", [1, 2, 4])
def test_warm_psn_rises_with_vrm_gap(count):
    sweep = run_sweep(_hotspot_20x20(f"on_package_{count}"), "vrm_gap",
                      (0.1, 1.0, 3.0, 5.0), **WARM_12NS)
    assert not sweep.failures
    psn = [p.max_psn_mv for p in sweep.points]
    assert all(a < b for a, b in zip(psn, psn[1:])), (count, psn)


# ---------------------------------------------------------------------------
# 8. linearity


@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_power_scaling_linearity(scale):
    base = pdnsim.benchmark_config("on_package_4")
    ref = pdnsim.evaluate(base, transient=False).ir_map.max_mv
    chip = dataclasses.replace(base.chip, total_power_w=base.chip.total_power_w * scale)
    scaled = validate_config(dataclasses.replace(base, chip=chip, power_map=None))
    got = pdnsim.evaluate(scaled, transient=False).ir_map.max_mv
    assert abs(got / (ref * scale) - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# 9. grid convergence and aggregation fidelity


def test_grid_convergence_3d(bench_results):
    results, _ = bench_results
    ir50 = results["chip_on_vrm_3d"].ir_map.max_mv
    cfg = pdnsim.benchmark_config("chip_on_vrm_3d")
    chip = dataclasses.replace(cfg.chip, tile_count_x=100, tile_count_y=100)
    cfg = validate_config(dataclasses.replace(cfg, chip=chip, power_map=None))
    ir100 = pdnsim.evaluate(cfg, transient=False).ir_map.max_mv
    assert abs(ir50 - ir100) / ir100 < 0.05


def _edge_fed_max_drop(tiles):
    """Max IR drop of a 2 mm chip fed through a fixed edge contact.

    Isolates the on-chip wire aggregation: the attach path (1 mOhm total,
    split evenly over the west-edge tiles) is identical in any tiling.
    """
    chip = dataclasses.replace(pdnsim.ChipSpec(), width_mm=2.0, height_mm=2.0,
                               total_power_w=4.0,
                               tile_count_x=tiles, tile_count_y=tiles)
    pm = builtin_power_map("uniform", chip)
    net = Netlist()
    nodes = build_chip_grid(net, chip, 1.0, power_map=pm)
    (src,) = net.add_nodes(1)
    net.add_elements(VOLTAGE_SOURCE, src, GROUND, 1.0, "vrm_src[0]")
    for j in range(tiles):
        net.add_elements(RESISTOR, src, int(nodes[j, 0]), 1e-3 * tiles, f"pad[0,{j}]")
    dc = dc_solve(net)
    return float((1.0 - dc.voltages[nodes].min()) * 1e3)


def test_aggregation_fidelity_against_full_physical_grid():
    # 2 mm sub-chip; at 66x66 every tile boundary carries exactly one
    # physical wire (30 um pitch), i.e. the un-aggregated grid
    coarse = _edge_fed_max_drop(10)
    full = _edge_fed_max_drop(66)
    assert abs(coarse - full) / full < 0.10


# ---------------------------------------------------------------------------
# 10. determinism


def test_cli_outputs_are_byte_deterministic(tmp_path):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(config_to_json(pdnsim.benchmark_config("on_package_4")))
    runs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        assert main(["dc", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        assert main(["tran", "--config", str(cfg_path), "--out-dir", str(out),
                     "--dt", "1e-10", "--t-end", "2e-8"]) == 0
        runs.append(((out / "ir_map.csv").read_bytes(),
                     (out / "waveform.csv").read_bytes()))
    assert runs[0] == runs[1]


def test_default_config_round_trips_exactly(capsys):
    assert main(["default-config", "--benchmark", "backside"]) == 0
    text = capsys.readouterr().out
    cfg = validate_config(config_from_json(text))
    assert config_to_json(cfg) == text
    doc = json.loads(text)
    assert doc["placement"]["variant"] == "backside"
