"""MNA solver: DC oracle parity, closed-form transients, solver properties."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (dense_dc, dense_transient, random_dc_netlist,
                    random_transient_netlist, rc_step_voltage, rl_mid_voltage,
                    rlc_cap_voltage)
from pdnsim import (Netlist, SolverError, Stimulus, dc_solve, evaluate, stamp_mna,
                    transient_solve)
from pdnsim.analysis import _apply_axis
from pdnsim.builder import assemble_netlist
from pdnsim.config import benchmark_config, builtin_power_map, validate_config
from pdnsim.mna import INTEGRATION_METHODS, _check_warm_start, waveform_to_csv
from pdnsim.netlist import (CAPACITOR, CURRENT_SOURCE, GROUND, INDUCTOR,
                            RESISTOR, VOLTAGE_SOURCE)


def _series_rlc(*elems, v=1.0):
    """source - elem1 - elem2 - ... - ground chain with probes n0, n1, ..."""
    net = Netlist()
    prev = net.add_node("vrm_die")
    net.add_elements(VOLTAGE_SOURCE, prev, GROUND, v, "vrm_src[0]")
    stems = {RESISTOR: "chip_h", INDUCTOR: "pkg_lh", CAPACITOR: "chip_decap_c"}
    for k, (kind, val) in enumerate(elems):
        last = k == len(elems) - 1
        nxt = GROUND if last else net.add_node("internal", (k, 0))
        net.add_elements(kind, prev, nxt, val, f"{stems[kind]}[{k},0]")
        if not last:
            net.probes[f"n{k}"] = nxt
        prev = nxt
    return net


# ---------------------------------------------------------------------------
# DC


def test_dc_voltage_divider():
    net = _series_rlc((RESISTOR, 3.0), (RESISTOR, 1.0))
    dc = dc_solve(net)
    assert dc.voltages[net.probes["n0"]] == pytest.approx(0.25, rel=1e-12)


def test_dc_inductor_is_short():
    net = _series_rlc((RESISTOR, 2.0), (INDUCTOR, 1e-9), (RESISTOR, 2.0))
    dc = dc_solve(net)
    assert dc.voltages[net.probes["n0"]] == pytest.approx(0.5, rel=1e-12)
    assert dc.voltages[net.probes["n1"]] == pytest.approx(0.5, rel=1e-12)


def test_dc_capacitor_is_open():
    net = _series_rlc((RESISTOR, 1.0), (CAPACITOR, 1e-9))
    dc = dc_solve(net)
    # no DC path through the cap: no current, no drop across R
    assert dc.voltages[net.probes["n0"]] == pytest.approx(1.0, rel=1e-12)


def test_dc_branch_currents_and_residual():
    net = _series_rlc((RESISTOR, 4.0,))
    dc = dc_solve(net)
    # source branch carries -0.25 A (current flows out of the + terminal)
    assert dc.source_currents[0] == pytest.approx(-0.25, rel=1e-12)
    assert dc.kcl_residual < 1e-12


def test_dc_source_currents_follow_netlist_sources():
    """Two 1 V sources feed a 0.4 A load through 3 and 1 ohm: the load
    node sits at 1 - 0.4 * (3 || 1) = 0.7 V, so the 3 ohm feed carries
    0.1 A and the 1 ohm feed 0.3 A."""
    net = Netlist()
    load = net.add_node("chip_grid", (0, 0))
    for k, r in enumerate((3.0, 1.0)):
        src = net.add_node("vrm_die", (k, 0))
        net.add_elements(VOLTAGE_SOURCE, src, GROUND, 1.0, f"vrm_src[{k}]")
        net.add_elements(RESISTOR, src, load, r, f"pkg_h[{k},0]")
    net.add_elements(CURRENT_SOURCE, load, GROUND, 0.4, "load[0,0]")
    dc = dc_solve(net)
    assert dc.voltages[load] == pytest.approx(0.7, rel=1e-12)
    assert dc.source_currents.shape == (len(net.sources),) == (2,)
    assert dc.source_currents == pytest.approx([-0.1, -0.3], rel=1e-12)


def _assert_matches_dense_oracle(net):
    ref = dense_dc(net)
    got = dc_solve(net).voltages
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(got - ref)) / scale < 1e-9


def test_dc_matches_dense_oracle_on_random_netlists():
    rng = np.random.default_rng(1234)
    for _ in range(25):
        _assert_matches_dense_oracle(random_dc_netlist(rng))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_nodes=st.integers(3, 40))
def test_dc_matches_dense_oracle_property(seed, max_nodes):
    _assert_matches_dense_oracle(random_dc_netlist(np.random.default_rng(seed),
                                                   max_nodes=max_nodes))


def test_dc_superposition():
    """Doubling every source doubles every node voltage (linear network)."""
    rng = np.random.default_rng(99)
    net = random_dc_netlist(rng)
    v1 = dc_solve(net).voltages
    doubled = Netlist()
    doubled.add_nodes("chip", np.arange(net.node_count - 1), 0)
    kind, a, b, value = net.columns()
    scale = np.where((kind == VOLTAGE_SOURCE) | (kind == CURRENT_SOURCE), 2.0, 1.0)
    doubled.add_elements(kind, a, b, value * scale, net.labels())
    v2 = dc_solve(doubled).voltages
    assert np.allclose(v2, 2.0 * v1, rtol=1e-9, atol=1e-12)


def test_dc_singular_matrix_raises_with_diagnostic():
    # a node reachable only through a capacitor has no DC equation
    net = Netlist()
    a = net.add_node("vrm_die")
    net.add_elements(VOLTAGE_SOURCE, a, GROUND, 1.0, "vrm_src[0]")
    b = net.add_node("internal", (0, 0))
    net.add_elements(CAPACITOR, a, b, 1e-9, "chip_decap_c[0,0]")
    net.add_elements(RESISTOR, a, GROUND, 1.0, "chip_h[0,0]")
    with pytest.raises(SolverError, match="singular|non-finite"):
        dc_solve(net)


def test_stamp_mna_argument_checks():
    net = _series_rlc((RESISTOR, 1.0))
    with pytest.raises(ValueError, match="unknown mode"):
        stamp_mna(net, mode="ac")
    with pytest.raises(ValueError, match="dt > 0"):
        stamp_mna(net, mode="transient", dt=0.0)
    with pytest.raises(ValueError, match="integration method"):
        stamp_mna(net, mode="transient", dt=1e-12, method="rk4")


# ---------------------------------------------------------------------------
# stimulus


def test_stimulus_ramp_shape():
    s = Stimulus(kind="step", v_start=0.0, v_end=1.0, rise_time_s=1e-9)
    assert s.voltage(-1e-12, 0.0) == 0.0
    assert s.voltage(0.5e-9, 0.0) == pytest.approx(0.5)
    assert s.voltage(2e-9, 0.0) == 1.0
    assert s.ramp_end_s == 1e-9


def test_stimulus_load_activation_window():
    s = Stimulus(kind="step", load_delay_s=5e-9, load_rise_s=0.5e-9)
    assert s.load_factor(4.9e-9) == 0.0
    assert s.load_factor(5.25e-9) == pytest.approx(0.5)
    assert s.load_factor(6e-9) == 1.0
    assert Stimulus(kind="dc").load_factor(0.0) == 1.0


def test_stimulus_accepts_time_arrays():
    s = Stimulus(kind="step", rise_time_s=1e-9, load_delay_s=2e-9, load_rise_s=0.5e-9)
    t = np.linspace(-1e-9, 4e-9, 41)
    assert np.array_equal(s.voltage(t, 0.0), [s.voltage(x, 0.0) for x in t])
    assert np.array_equal(s.load_factor(t), [s.load_factor(x) for x in t])
    assert s.voltage(t, 0.0)[0] == 0.0 and s.voltage(t, 0.0)[-1] == 1.0
    assert s.load_factor(t)[0] == 0.0 and s.load_factor(t)[-1] == 1.0


def test_stimulus_rejects_bad_arguments():
    with pytest.raises(ValueError, match="unknown stimulus kind"):
        Stimulus(kind="pulse")
    with pytest.raises(ValueError, match="rise_time_s > 0"):
        Stimulus(kind="step", rise_time_s=0.0)


# ---------------------------------------------------------------------------
# transient closed forms
#
# The t=0 sample is the pre-step initial condition by construction (the
# "dc" stimulus applies the full source value from the first step), so the
# closed-form comparisons start at sample 1.


def test_transient_rc_matches_closed_form():
    r, c = 100.0, 1e-9
    tau = r * c
    net = _series_rlc((RESISTOR, r), (CAPACITOR, c))
    wf = transient_solve(net, Stimulus(kind="dc"), tau / 1000, 5 * tau,
                         probes=["n0"])
    ref = rc_step_voltage(wf.time_s, 1.0, r, c)
    assert np.max(np.abs(wf.series["n0"][1:] - ref[1:])) < 5e-3


@pytest.mark.parametrize("method", ["trap", "be"])
def test_parallel_capacitors_act_as_their_sum(method):
    """Capacitors that share a node, on either terminal, give repeated rows
    in the companion-current update; none of them may be dropped."""
    r, c = 100.0, 1e-9
    whole = _series_rlc((RESISTOR, r), (CAPACITOR, c))
    split = _series_rlc((RESISTOR, r), (CAPACITOR, c / 4))
    n0 = split.probes["n0"]
    split.add_elements(CAPACITOR, n0, GROUND, c / 4, "chip_decap_c[1,0]")
    split.add_elements(CAPACITOR, GROUND, n0, c / 4, "chip_decap_c[2,0]")
    split.add_elements(CAPACITOR, GROUND, n0, c / 4, "chip_decap_c[3,0]")
    got, ref = (transient_solve(net, Stimulus(kind="dc"), r * c / 1000, 5 * r * c,
                                method=method, probes=["n0"]).series["n0"]
                for net in (split, whole))
    np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)


def test_transient_rl_matches_closed_form():
    r, l = 10.0, 1e-6
    tau = l / r
    net = _series_rlc((RESISTOR, r), (INDUCTOR, l))
    wf = transient_solve(net, Stimulus(kind="dc"), tau / 1000, 5 * tau,
                         probes=["n0"])
    ref = rl_mid_voltage(wf.time_s, 1.0, r, l)
    assert np.max(np.abs(wf.series["n0"][1:] - ref[1:])) < 5e-3


def test_transient_rlc_underdamped_matches_closed_form():
    r, l, c = 1.0, 1e-6, 1e-6
    wd = np.sqrt(1.0 / (l * c) - (r / (2 * l)) ** 2)
    period = 2 * np.pi / wd
    net = _series_rlc((RESISTOR, r), (INDUCTOR, l), (CAPACITOR, c))
    wf = transient_solve(net, Stimulus(kind="dc"), period / 1000, 5 * period,
                         probes=["n1"])
    ref = rlc_cap_voltage(wf.time_s, 1.0, r, l, c)
    assert np.max(np.abs(wf.series["n1"][1:] - ref[1:])) < 1e-2


def test_backward_euler_converges_to_same_answer():
    r, c = 100.0, 1e-9
    tau = r * c
    net = _series_rlc((RESISTOR, r), (CAPACITOR, c))
    wf = transient_solve(net, Stimulus(kind="dc"), tau / 5000, 5 * tau,
                         method="be", probes=["n0"])
    ref = rc_step_voltage(wf.time_s, 1.0, r, c)
    # first order: looser than trap at matched step, still converging
    assert np.max(np.abs(wf.series["n0"][1:] - ref[1:])) < 5e-3


def _assert_transient_matches_dense_oracle(net, stimulus, dt, t_end, method, init):
    """Every node voltage at every step agrees with ``dense_transient`` to
    1e-9 of the largest node voltage (or of 1 V, if that is larger)."""
    probes = [f"v{k}" for k in range(1, net.node_count)]
    net.probes.update(zip(probes, range(1, net.node_count)))
    wf = transient_solve(net, stimulus, dt, t_end, method=method, probes=probes, init=init)
    _, ref = dense_transient(net, stimulus, dt, t_end, method=method, init=init)
    got = np.column_stack([wf.series[p] for p in probes])
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(got - ref[:, 1:])) / scale < 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_nodes=st.integers(3, 16), reroot=st.booleans(),
       method=st.sampled_from(INTEGRATION_METHODS), kind=st.sampled_from(["dc", "step"]),
       dt=st.sampled_from([1e-12, 1e-11, 1e-10]))
def test_transient_matches_dense_oracle_property(seed, max_nodes, reroot, method, kind, dt):
    """Cold starts on every draw; warm starts on the rerooted draws, the
    ones that admit one (``transient_solve`` checks that it does)."""
    net = random_transient_netlist(np.random.default_rng(seed), max_nodes, reroot)
    stim = Stimulus(kind=kind, rise_time_s=0.2e-9, load_delay_s=0.3e-9, load_rise_s=0.1e-9)
    for init in ("cold", "warm") if reroot else ("cold",):
        _assert_transient_matches_dense_oracle(net, stim, dt, 100 * dt, method, init)


@pytest.mark.parametrize("method", INTEGRATION_METHODS)
@pytest.mark.parametrize("seed", [2, 29])
def test_transient_runs_networks_that_settle_far_above_their_sources(seed, method):
    """These draws settle at 136 V and 226 V from a source of about 1 V
    (their loads drive current into high resistances), so no bound on |v|
    taken from the sources or the DC point separates them from a diverged
    run; only a non-finite step does."""
    net = random_dc_netlist(np.random.default_rng(seed), max_nodes=12)
    assert np.max(np.abs(dense_dc(net))) > 100 * np.max(np.abs(net.columns()[3][net.sources]))
    _assert_transient_matches_dense_oracle(net, Stimulus(kind="dc"), 1e-11, 1e-9, method, "cold")


@pytest.mark.parametrize("dt, t", [(1e-3, r"1\.000e-03"), (1e-11, r"1\.000e-11")],
                         ids=["1ms", "10ps"])
def test_transient_raises_on_a_non_finite_step(dt, t):
    """At 10 ps, 2 * 1e300 / dt overflows: the stamp must give companion
    impedances to inductors only, so the source value reaches the step."""
    net = Netlist()
    node = net.add_node("chip", (0, 0))
    # 1e300 A into 1e10 ohm overflows to -inf at the first step
    net.add_elements([RESISTOR, CURRENT_SOURCE], node, GROUND, [1e10, 1e300],
                     ["chip_h", "load"], 0, 0)
    with pytest.raises(SolverError, match=rf"transient diverged at t={t}s \(\|v\|max=inf\)"):
        transient_solve(net, Stimulus(kind="dc"), dt, 10 * dt)


def test_transient_settles_to_dc():
    net = _series_rlc((RESISTOR, 2.0), (INDUCTOR, 1e-9), (RESISTOR, 2.0))
    dc = dc_solve(net)
    wf = transient_solve(net, Stimulus(kind="step", rise_time_s=1e-10,
                                       load_delay_s=0.0, load_rise_s=1e-12),
                         1e-11, 1e-7, probes=["n0"])
    assert wf.series["n0"][-1] == pytest.approx(dc.voltages[net.probes["n0"]],
                                                abs=1e-9)


def test_warm_start_holds_operating_point_without_load():
    """With no current sources, the warm start is already the steady state."""
    net = _series_rlc((RESISTOR, 2.0), (CAPACITOR, 1e-9))
    wf = transient_solve(net, Stimulus(kind="step"), 1e-11, 1e-8,
                         probes=["n0"], init="warm")
    assert np.max(np.abs(wf.series["n0"] - 1.0)) < 1e-9


def test_warm_start_responds_only_to_the_load_step():
    net = _series_rlc((RESISTOR, 2.0), (CAPACITOR, 1e-9))
    node = net.probes["n0"]
    net.add_elements(CURRENT_SOURCE, node, GROUND, 0.1, "load[0,0]")
    stim = Stimulus(kind="step", load_delay_s=2e-9, load_rise_s=0.1e-9)
    wf = transient_solve(net, stim, 1e-11, 5e-8, probes=["n0"], init="warm")
    t = wf.time_s
    before = wf.series["n0"][t < 1.9e-9]
    assert np.max(np.abs(before - 1.0)) < 1e-9       # quiet until the step
    assert wf.series["n0"][-1] == pytest.approx(1.0 - 0.1 * 2.0, rel=1e-6)


def test_warm_start_rejects_a_netlist_it_would_not_hold():
    # a divider with a decap on its midpoint and no load settles at 0.5 V,
    # so a warm start at 1 V would simulate a transient nothing drove
    net = _series_rlc((RESISTOR, 2.0), (RESISTOR, 2.0))
    net.add_elements(CAPACITOR, net.probes["n0"], GROUND, 1e-9, "chip_decap_c[0,0]")
    with pytest.raises(ValueError, match=r"chip_h\[1,0\] has a terminal on ground"):
        transient_solve(net, Stimulus(kind="step"), 1e-11, 1e-8,
                        probes=["n0"], init="warm")
    net = _series_rlc((RESISTOR, 2.0), (INDUCTOR, 1e-9))
    with pytest.raises(ValueError, match=r"pkg_lh\[1,0\] has a terminal on ground"):
        transient_solve(net, Stimulus(kind="step"), 1e-11, 1e-8, init="warm")
    # a source with its positive terminal on ground drives its node to -v_end
    net = Netlist()
    node = net.add_node("vrm_die")
    net.add_elements(VOLTAGE_SOURCE, GROUND, node, 1.0, "vrm_src[0]")
    net.add_elements(CAPACITOR, node, GROUND, 1e-9, "chip_decap_c[0,0]")
    with pytest.raises(ValueError, match=r"vrm_src\[0\] does not run from a node to ground"):
        transient_solve(net, Stimulus(kind="step"), 1e-11, 1e-8, init="warm")


@pytest.mark.parametrize("name", ["on_package_1", "on_package_2", "on_package_4",
                                  "backside", "chip_on_vrm_3d"])
def test_benchmark_netlists_admit_a_warm_start(name):
    _check_warm_start(assemble_netlist(benchmark_config(name)))


def test_transient_argument_checks():
    net = _series_rlc((RESISTOR, 1.0))
    stim = Stimulus(kind="dc")
    with pytest.raises(ValueError, match="dt must be"):
        transient_solve(net, stim, 0.0, 1e-9)
    with pytest.raises(ValueError, match="t_end must be"):
        transient_solve(net, stim, 1e-12, 0.0)
    for dt, t_end in ((np.inf, 1e-9), (np.nan, 1e-9), (1e-12, np.inf), (1e-12, np.nan)):
        with pytest.raises(ValueError, match="must be finite"):
            transient_solve(net, stim, dt, t_end)
    # a window under half a step rounds to zero steps; it is rejected
    # before stamping, which would reject the method
    for dt, t_end in ((1e-9, 0.4e-9), (1e-9, 0.5e-9)):
        with pytest.raises(ValueError, match="at least one step"):
            transient_solve(net, stim, dt, t_end, method="rk4")
    # a named chip probe is recorded only when asked for
    net.probes["chip_center"] = 1
    wf = transient_solve(net, stim, 1e-9, 0.6e-9)
    assert len(wf.time_s) == 2 and wf.series == {}
    with pytest.raises(ValueError, match="unknown init"):
        transient_solve(net, stim, 1e-12, 1e-9, init="tepid")
    with pytest.raises(KeyError, match="unknown probe"):
        transient_solve(net, stim, 1e-12, 1e-9, probes=["nope"])


def test_waveform_csv_format_and_determinism():
    net = _series_rlc((RESISTOR, 100.0), (CAPACITOR, 1e-9))
    wf = transient_solve(net, Stimulus(kind="dc"), 1e-8, 1e-7, probes=["n0"])
    csv1 = waveform_to_csv(wf)
    lines = csv1.splitlines()
    assert lines[0] == "time_s,n0"
    assert len(lines) == 12  # header + 11 samples
    wf2 = transient_solve(net, Stimulus(kind="dc"), 1e-8, 1e-7, probes=["n0"])
    assert waveform_to_csv(wf2) == csv1


# ---------------------------------------------------------------------------
# metamorphic checks at full size: they must hold for any solver change


@pytest.mark.parametrize("mode, dt", [("dc", None), ("transient", 25e-12)],
                         ids=["dc", "transient"])
def test_tile_transfer_impedances_are_reciprocal(mode, dt):
    """The MNA matrix is symmetric, so the voltage at tile i from a unit
    injection at tile j equals the voltage at j from one at i."""
    net = assemble_netlist(benchmark_config("on_package_1"))
    lu = stamp_mna(net, mode=mode, dt=dt).factorize()
    tile_rows = net.meta["chip_tile_nodes"].ravel() - 1
    rng = np.random.default_rng(12)
    for i, j in rng.choice(tile_rows, size=(10, 2), replace=False):
        e_i, e_j = np.zeros(lu.shape[0]), np.zeros(lu.shape[0])
        e_i[i] = e_j[j] = 1.0
        z_ij, z_ji = lu.solve(e_j)[i], lu.solve(e_i)[j]
        assert abs(z_ij - z_ji) <= 1e-9 * max(abs(z_ij), abs(z_ji))


def test_load_step_deficits_scale_with_power():
    """A warm start holds every node at v_end until the load steps in, so
    every deficit below v_end is linear in the load current: scaling the
    chip power by s scales the probe and tile deficits and the IR map by s.
    The worst-tile probe is left out; roundoff among near-equal tiles
    picks it."""
    cfg = benchmark_config("chip_on_vrm_3d", "uniform")
    chip = dataclasses.replace(cfg.chip, tile_count_x=20, tile_count_y=20)
    cfg = validate_config(dataclasses.replace(
        cfg, chip=chip, power_map=builtin_power_map("uniform", chip)))

    def deficits(c):
        res = evaluate(c, dt=25e-12, t_end=60e-9, init="warm")
        v_end = c.vrm.output_voltage_v
        return [v_end - res.waveform.series["chip_center"],
                v_end - res.waveform.series["chip_corner"],
                v_end - res.waveform.tile_min, res.ir_map.drop_mv]

    base = deficits(cfg)
    for s in (0.5, 2.0):
        for got, ref in zip(deficits(_apply_axis(cfg, "power_scale", s)), base):
            assert np.max(np.abs(got - s * ref)) <= 1e-9 * np.max(np.abs(s * ref))
