"""Metric extraction, sweeps and comparisons."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

import pdnsim
from pdnsim import ScenarioConfig, ValidationError, validate_config
from pdnsim.analysis import (IrDropMap, config_label, extract_psn,
                             first_prominent_min, ir_map_to_csv, run_sweep)
from pdnsim.mna import TransientWaveform


# ---------------------------------------------------------------------------
# IR map


def test_ir_drop_map_hand_values():
    tiles = np.array([[0.99, 0.98], [0.995, 0.97]])
    m = IrDropMap.from_tiles(tiles, 1.0)
    assert m.max_mv == pytest.approx(30.0)
    assert m.mean_mv == pytest.approx((10 + 20 + 5 + 30) / 4)
    assert m.argmax == (1, 1)          # (i, j) of the 0.97 tile
    assert m.drop_mv[0, 1] == pytest.approx(20.0)


def test_ir_map_csv_layout():
    m = IrDropMap.from_tiles(np.array([[0.99, 0.98]]), 1.0)
    lines = ir_map_to_csv(m).splitlines()
    assert lines[0] == "tile_i,tile_j,drop_mv"
    assert lines[1].startswith("0,0,") and lines[2].startswith("1,0,")


# ---------------------------------------------------------------------------
# PSN extraction on a synthetic damped-cosine waveform
#
# v(t) = 1 - A exp(-t/tau) cos(w t).  With the ramp ending at 1 ns the
# worst post-ramp deficit is at the 1 ns boundary, while the first local
# minimum is near the first post-ramp cosine crest at
# t* = (2*pi - arctan(1/(w*tau))) / w.


def _damped_cosine_waveform(amp=0.1, tau=10e-9, period=10e-9,
                            dt=10e-12, t_end=50e-9, ramp_end=1e-9):
    t = dt * np.arange(int(round(t_end / dt)) + 1)
    w = 2 * np.pi / period
    v = 1.0 - amp * np.exp(-t / tau) * np.cos(w * t)
    return TransientWaveform(time_s=t, series={"probe": v}, dt=dt,
                             ramp_end_s=ramp_end)


def test_extract_psn_on_synthetic_waveform():
    amp, tau, period = 0.1, 10e-9, 10e-9
    wf = _damped_cosine_waveform(amp, tau, period)
    cfg = validate_config(ScenarioConfig())
    psn = extract_psn(wf, cfg, probe="probe")

    w = 2 * np.pi / period
    t_star = (2 * np.pi - np.arctan(1.0 / (w * tau))) / w
    depth = amp * np.exp(-t_star / tau) * np.cos(w * t_star)
    boundary = amp * np.exp(-1e-9 / tau) * np.cos(w * 1e-9)

    # one sample of slack: the ramp boundary may fall between grid points
    assert psn.max_psn_mv == pytest.approx(boundary * 1e3, rel=1e-2)
    assert psn.first_droop_mv == pytest.approx(depth * 1e3, rel=1e-3)
    assert psn.first_droop_time_s == pytest.approx(t_star, abs=2 * wf.dt)
    assert psn.settling_mv == pytest.approx(
        (amp * np.exp(-50e-9 / tau)) * 1e3, rel=1e-2)


def test_extract_psn_monotone_settle_uses_worst_point():
    t = 1e-11 * np.arange(2001)
    v = 1.0 - 0.05 * (1.0 - np.exp(-t / 5e-9))     # monotone sag, no peaks
    wf = TransientWaveform(time_s=t, series={"p": v}, dt=1e-11, ramp_end_s=1e-9)
    psn = extract_psn(wf, validate_config(ScenarioConfig()), probe="p")
    assert psn.first_droop_time_s == pytest.approx(t[-1])
    assert psn.first_droop_mv == pytest.approx((1.0 - v[-1]) * 1e3)


def _series(kind, values, seed):
    """Test series of a given shape built from hypothesis-drawn values."""
    x = np.asarray(values, dtype=float)
    rng = np.random.default_rng(seed)
    if kind == "noisy":
        t = np.linspace(0.0, 6.0 * np.pi, len(x))
        return np.exp(-t / 8.0) * np.cos(t) + 1e-3 * rng.standard_normal(len(x))
    if kind == "plateaued":
        return np.round(x)            # small integers: long flat runs
    if kind == "monotone":
        return np.sort(x)[:: 1 if seed % 2 else -1]
    return x


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["random", "noisy", "plateaued", "monotone"]),
       values=st.lists(st.one_of(st.floats(-5.0, 5.0), st.just(np.nan)), max_size=60),
       seed=st.integers(0, 2**16),
       prominence=st.sampled_from([0.0, 1e-3, 0.1, 1.0, 3.0]))
def test_first_prominent_min_matches_scipy_find_peaks(kind, values, seed,
                                                      prominence):
    s = _series(kind, values, seed)
    idx, _ = find_peaks(-s, prominence=prominence)
    expected = int(idx[0]) if len(idx) else None
    assert first_prominent_min(s, prominence) == expected


def test_extract_psn_rejects_too_short_waveform():
    wf = _damped_cosine_waveform(t_end=3e-9)
    with pytest.raises(ValueError, match="too short"):
        extract_psn(wf, validate_config(ScenarioConfig()), probe="probe")


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_dc_only(small_config):
    res = pdnsim.evaluate(small_config("on_package_4"), transient=False)
    assert res.waveform is None and res.psn is None
    assert res.ir_map.drop_mv.shape == (6, 6)
    assert res.ir_map.max_mv > 0.0


def test_evaluate_full_metrics(small_config):
    res = pdnsim.evaluate(small_config("chip_on_vrm_3d", tiles=5),
                          dt=5e-11, t_end=2e-7)
    assert res.psn.max_psn_mv > res.ir_map.max_mv > 0.0
    assert "chip_worst_tile" in res.waveform.series
    # the transient settles back to the DC operating point
    assert res.psn.settling_mv == pytest.approx(res.ir_map.max_mv, abs=0.5)


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_axis_application():
    from pdnsim.analysis import _apply_axis
    base = pdnsim.benchmark_config("on_package_4")
    assert _apply_axis(base, "vrm_count", 2).placement.count == 2
    assert _apply_axis(base, "vrm_gap", 3.0).placement.gap_mm == 3.0
    c = _apply_axis(base, "onchip_decap", 12.0)
    assert c.decaps.onchip_density_nf_per_mm2 == 12.0
    p = _apply_axis(base, "power_scale", 2.0)
    assert p.chip.total_power_w == pytest.approx(200.0)
    with pytest.raises(ValueError, match="unknown sweep axis"):
        _apply_axis(base, "frequency", 1.0)


def test_sweep_axis_requires_matching_placement():
    from pdnsim.analysis import _apply_axis
    base = pdnsim.benchmark_config("backside")
    with pytest.raises(ValueError, match="on-package placement"):
        _apply_axis(base, "vrm_count", 2)


def test_run_sweep_dc_only(small_config):
    sweep = run_sweep(small_config("on_package_4"), "vrm_gap",
                      (0.5, 1.0, 2.0), transient=False)
    assert sweep.axis == "vrm_gap"
    assert [p.value for p in sweep.points] == [0.5, 1.0, 2.0]
    assert all(p.max_psn_mv is None for p in sweep.points)
    irs = [p.max_ir_drop_mv for p in sweep.points]
    assert irs[0] < irs[1] < irs[2]
    assert not sweep.failures


def test_run_sweep_records_per_point_failures(small_config):
    sweep = run_sweep(small_config("on_package_4"), "vrm_count",
                      (1, 3, 4), transient=False)
    good = [p for p in sweep.points if p.error is None]
    assert len(good) == 2 and len(sweep.failures) == 1
    assert sweep.failures[0].value == 3.0
    assert "count" in sweep.failures[0].error


def test_run_sweep_rejects_fractional_vrm_count(small_config):
    sweep = run_sweep(small_config("on_package_4"), "vrm_count",
                      (2, 2.0, 2.5), transient=False)
    ok, same, frac = sweep.points
    assert ok.error is None and same.error is None
    assert ok.config_hash == same.config_hash
    assert ok.max_ir_drop_mv == same.max_ir_drop_mv
    assert frac.value == 2.5 and frac.max_ir_drop_mv is None
    assert "placement.count" in frac.error
    assert frac.config_hash != ok.config_hash


def test_sweep_csv_format(small_config):
    sweep = run_sweep(small_config("on_package_4"), "power_scale",
                      (0.5, 1.0), transient=False)
    lines = sweep.to_csv().splitlines()
    assert lines[0] == "axis_value,max_ir_drop_mv,max_psn_mv,config_hash"
    first = lines[1].split(",")
    assert float(first[0]) == 0.5
    assert first[2] == ""                 # no transient -> empty PSN column
    assert len(first[3]) == 16            # config hash


def test_sweep_power_scale_is_linear_in_dc(small_config):
    sweep = run_sweep(small_config("on_package_4"), "power_scale",
                      (1.0, 2.0), transient=False)
    a, b = (p.max_ir_drop_mv for p in sweep.points)
    assert b == pytest.approx(2.0 * a, rel=1e-9)


# ---------------------------------------------------------------------------
# comparisons


def test_compare_requires_two_configs(small_config):
    with pytest.raises(ValueError, match="at least two"):
        pdnsim.compare_configurations([small_config("on_package_4")],
                                      transient=False)


def test_compare_requires_shared_chip(small_config):
    a = small_config("on_package_4")
    b = small_config("on_package_1", tiles=8)
    with pytest.raises(ValueError, match="share the chip"):
        pdnsim.compare_configurations([a, b], transient=False)


def test_compare_improvement_is_relative_to_first(small_config):
    report = pdnsim.compare_configurations(
        [small_config("on_package_1"), small_config("on_package_4")],
        transient=False)
    ref, other = report.rows
    assert ref.label == "on_package_1" and other.label == "on_package_4"
    assert ref.ir_improvement == 0.0
    expected = (ref.max_ir_drop_mv - other.max_ir_drop_mv) / ref.max_ir_drop_mv
    assert other.ir_improvement == pytest.approx(expected)
    lines = report.to_csv().splitlines()
    assert lines[0].startswith("label,max_ir_drop_mv")
    assert len(lines) == 3


def test_config_label():
    assert config_label(pdnsim.benchmark_config("on_package_2")) == "on_package_2"
    assert config_label(pdnsim.benchmark_config("backside")) == "backside"
    assert config_label(pdnsim.benchmark_config("chip_on_vrm_3d")) == "chip_on_vrm_3d"
