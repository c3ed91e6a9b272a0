"""Netlist data model, parasitic formulas, labels and text export."""

import dataclasses
import math
import re
from collections import Counter

import numpy as np
import pytest

import pdnsim
from pdnsim import Netlist, NetlistError
from pdnsim.builder import assemble_netlist, build_chip_grid, build_package_network
from pdnsim.config import ChipSpec, PackageSpec, ViaSpec, WireSpec
from pdnsim.netlist import (CAPACITOR, CURRENT_SOURCE, GROUND, INDUCTOR,
                            RESISTOR, VOLTAGE_SOURCE, make_label,
                            merged_sheet_resistance, netlist_to_text,
                            via_inductance, via_resistance, wire_resistance)


def test_element_rejects_bad_kind():
    net = Netlist()
    (a,) = net.add_nodes(1)
    with pytest.raises(NetlistError, match="unknown element kind"):
        net.add_elements("Q", a, GROUND, 1.0, "chip_h[0,0]")


def test_element_rejects_equal_terminals():
    net = Netlist()
    (a,) = net.add_nodes(1)
    with pytest.raises(NetlistError, match="terminals must differ"):
        net.add_elements(RESISTOR, a, a, 1.0, "chip_h[0,0]")


@pytest.mark.parametrize("kind", [RESISTOR, INDUCTOR, CAPACITOR])
def test_passive_values_must_be_positive(kind):
    net = Netlist()
    (a,) = net.add_nodes(1)
    with pytest.raises(NetlistError, match="must be > 0"):
        net.add_elements(kind, a, GROUND, 0.0, "chip_h[0,0]")


@pytest.mark.parametrize("kind,value", [
    (CURRENT_SOURCE, math.nan), (VOLTAGE_SOURCE, math.inf), (VOLTAGE_SOURCE, -math.inf),
    (RESISTOR, math.inf), (INDUCTOR, math.inf), (CAPACITOR, math.inf), (RESISTOR, math.nan),
])
def test_element_values_must_be_finite(kind, value):
    net = Netlist()
    (a,) = net.add_nodes(1)
    with pytest.raises(NetlistError, match=r"must be finite \(chip_x\[0,3\]: "):
        net.add_elements(kind, [a, a], GROUND, [1.0, value], "chip_x", 0, [2, 3])
    assert len(net.columns()[0]) == 0


def test_ground_is_node_zero():
    net = Netlist()
    assert net.node_count == 1
    assert net.node_name(GROUND) == "node 0"
    assert net.add_nodes(1).tolist() == [1]
    assert net.node_count == 2


def test_sources_follow_element_kinds_and_views_are_read_only():
    net = Netlist()
    (a,) = net.add_nodes(1)
    assert net.sources == []
    net.add_elements(RESISTOR, a, GROUND, 1.0, "vrm_r[0]")
    net.add_elements(VOLTAGE_SOURCE, a, GROUND, 1.0, "vrm_src[0]")
    net.add_elements([VOLTAGE_SOURCE, CAPACITOR], a, GROUND, 1.0, ["vrm_src", "chip_decap_c"], 1)
    assert net.sources == [1, 2]
    with pytest.raises(AttributeError):
        net.sources = []
    with pytest.raises(AttributeError):
        net.node_count = 5


def test_element_and_node_views_behave_as_sequences():
    net = Netlist()
    (a,) = net.add_nodes(1)
    tiles = net.add_nodes((1, 2))
    assert tiles.tolist() == [[2, 3]]
    assert net.add_nodes(2).tolist() == [4, 5]
    assert net.node_count == 6
    # a node with no element on it is named by its id alone
    assert [net.node_name(k) for k in range(net.node_count)] == [
        "node 0", "node 1", "node 2", "node 3", "node 4", "node 5"]
    assert net.node_name(-1) == "node 5"
    with pytest.raises(IndexError):
        net.node_name(net.node_count)
    # add_nodes is the one node allocator, and add_elements returns nothing
    assert not hasattr(Netlist, "add_node")
    assert net.add_elements(RESISTOR, a, GROUND, 2.0, "chip_h[0,0]") is None
    assert net.add_elements(RESISTOR, tiles, a, [1.0, 3.0], "chip_v", [1, 2], 0) is None
    # ...and otherwise also by the label of the first element on it
    assert [net.node_name(k) for k in range(net.node_count)] == [
        "node 0 (chip_h[0,0])", "node 1 (chip_h[0,0])", "node 2 (chip_v[1,0])",
        "node 3 (chip_v[2,0])", "node 4", "node 5"]
    assert net.labels() == ["chip_h[0,0]", "chip_v[1,0]", "chip_v[2,0]"]
    assert net.elements == [(RESISTOR, 1, GROUND, 2.0, "chip_h[0,0]"),
                            (RESISTOR, 2, 1, 1.0, "chip_v[1,0]"),
                            (RESISTOR, 3, 1, 3.0, "chip_v[2,0]")]
    # `elements` is a tuple view of the columns and labels, in the Python
    # scalars the text export prints; there is no record type
    assert net.elements == list(zip(*(c.tolist() for c in net.columns()), net.labels()))
    assert {tuple(map(type, e)) for e in net.elements} == {(str, int, int, float, str)}
    assert not hasattr(pdnsim, "Element") and not hasattr(pdnsim.netlist, "Element")
    # the stamping wrapper, builder stages and formula helpers are not
    # package exports; each still imports from its own module
    for module, name in (("mna", "stamp_mna"), ("builder", "build_chip_grid"),
                         ("builder", "build_package_network"),
                         ("netlist", "via_resistance"), ("netlist", "wire_resistance")):
        assert not hasattr(pdnsim, name) and name not in dir(pdnsim)
        assert callable(getattr(getattr(pdnsim, module), name))
    with pytest.raises(NetlistError, match="terminals must differ"):
        net.add_elements(RESISTOR, [a, a], [GROUND, a], 1.0, "chip_h", [0, 1], 0)
    assert len(net.labels()) == len(net.columns()[0]) == 3   # a rejected block adds nothing


def test_check_connected_reports_floating_nodes():
    net = Netlist()
    a, _ = net.add_nodes(2)  # node 2 is never wired up
    net.add_elements(RESISTOR, a, GROUND, 1.0, "chip_h[0,0]")
    with pytest.raises(NetlistError, match=r"1 node\(s\) not connected to ground \(first: node 2\)"):
        net.check_connected()


# ---------------------------------------------------------------------------
# parasitic formulas (hand-checked values)


def test_wire_resistance_hand_value():
    w = WireSpec(resistivity_ohm_m=17.1e-9, thickness_um=5.0, width_um=3.3,
                 pitch_um=30.0)
    # rho * L / (t * w) = 17.1e-9 * 200e-6 / (5e-6 * 3.3e-6)
    assert wire_resistance(w, 200.0) == pytest.approx(
        17.1e-9 * 200e-6 / (5e-6 * 3.3e-6), rel=1e-12)


def test_wire_resistance_scales_linearly_with_length():
    w = WireSpec()
    assert wire_resistance(w, 300.0) == pytest.approx(3 * wire_resistance(w, 100.0))
    with pytest.raises(ValueError):
        wire_resistance(w, -1.0)


def test_via_resistance_hand_value():
    v = ViaSpec(resistivity_ohm_m=80e-9, height_um=50.0, diameter_um=10.0,
                inductance_per_via_ph=20.0, count_per_site=4)
    single = 80e-9 * 50e-6 / (math.pi * (5e-6) ** 2)
    assert via_resistance(v) == pytest.approx(single / 4, rel=1e-12)
    assert via_inductance(v) == pytest.approx(20e-12 / 4, rel=1e-12)


def test_merged_sheet_resistance_hand_value():
    pkg = PackageSpec()
    # 10 layers x 10 um each = 100 um of merged copper
    assert merged_sheet_resistance(pkg) == pytest.approx(
        pkg.sheet_resistivity_ohm_m / 100e-6, rel=1e-12)


# ---------------------------------------------------------------------------
# labels


def test_label_round_trip():
    assert make_label("chip_h", 12, 7) == "chip_h[12,7]"
    net = Netlist()
    (a,) = net.add_nodes(1)
    net.add_elements(RESISTOR, a, GROUND, 1.0, "chip_h", 12, 7)
    assert net.labels() == ["chip_h[12,7]"]
    assert netlist_to_text(net).splitlines()[1].endswith(" chip_h[12,7]")


@pytest.mark.parametrize("name", ["on_package_1", "backside", "chip_on_vrm_3d"])
def test_builder_labels_are_unique(small_config, name):
    labels = assemble_netlist(small_config(name)).labels()
    assert len(set(labels)) == len(labels)
    assert not any(" " in lbl for lbl in labels)   # one text field each


# ---------------------------------------------------------------------------
# builders


def test_chip_grid_shape_and_probes():
    chip = ChipSpec(tile_count_x=4, tile_count_y=3)
    pm = pdnsim.builtin_power_map("uniform", chip)
    net = Netlist()
    tiles = build_chip_grid(net, chip, 1.0, power_map=pm)
    assert tiles.shape == (3, 4)
    counts = Counter(net.columns()[0].tolist())
    # boundary resistors + one decap ESR per tile
    assert counts[RESISTOR] == 3 * 3 + 2 * 4 + 12
    assert counts[CURRENT_SOURCE] == 12
    assert counts[CAPACITOR] == 12
    # decap density and ESR come from the default DecapPolicy
    policy, tile_area = pdnsim.DecapPolicy(), (10.0 / 4) * (10.0 / 3)
    decap = dict(zip((lbl.split("[")[0] for lbl in net.labels()), net.columns()[3].tolist()))
    assert decap["chip_decap_c"] == policy.onchip_density_nf_per_mm2 * 1e-9 * tile_area
    assert decap["chip_decap_esr"] == policy.onchip_esr_ohm_mm2 / tile_area
    assert net.probes["tile[0,0]"] == int(tiles[0, 0])
    assert net.probes["tile[3,2]"] == int(tiles[2, 3])


def test_chip_without_onchip_decap_builds_and_solves(small_config):
    base = small_config("on_package_4")
    decaps = dataclasses.replace(base.decaps, onchip_density_nf_per_mm2=0.0)
    bare = assemble_netlist(dataclasses.replace(base, decaps=decaps))
    assert not any(lbl.startswith("chip_decap_") for lbl in bare.labels())
    # the decap branch carries no DC current, so the tile voltages agree
    with_decap, without = (pdnsim.dc_solve(net).voltages[net.meta["chip_tile_nodes"]]
                           for net in (assemble_netlist(base), bare))
    np.testing.assert_allclose(without, with_decap, rtol=1e-12, atol=0)
    wf = pdnsim.transient_solve(bare, pdnsim.Stimulus(), dt=0.25e-9, t_end=30e-9)
    assert wf.time_s[-1] == pytest.approx(30e-9)
    assert np.all(np.isfinite(wf.tile_final))


def test_empty_decap_families_build_and_solve(small_config):
    """No package, board or die decap: the three families add no element
    and the 3-D stack still builds, connects and solves."""
    base = small_config("chip_on_vrm_3d", tiles=8)
    bare = pdnsim.validate_config(dataclasses.replace(
        base, decaps=dataclasses.replace(base.decaps, package_decaps=(), board_decaps=()),
        placement=dataclasses.replace(base.placement, die_decap=None)))
    net = assemble_netlist(bare)
    net.check_connected()
    n_decaps = len(base.decaps.package_decaps) + len(base.decaps.board_decaps) + 1
    assert len(assemble_netlist(base).columns()[0]) - len(net.columns()[0]) == 3 * n_decaps == 81
    res = pdnsim.evaluate(bare, t_end=10e-9)
    assert np.isfinite(res.ir_map.max_mv) and np.isfinite(res.psn.max_psn_mv)
    assert res.ir_map.max_mv == pytest.approx(8.92756, rel=1e-5)
    assert res.psn.max_psn_mv == pytest.approx(62.2688, rel=1e-5)


def test_chip_grid_load_currents_sum_to_total():
    chip = ChipSpec(tile_count_x=5, tile_count_y=5)
    pm = pdnsim.builtin_power_map("hotspot", chip)
    net = Netlist()
    build_chip_grid(net, chip, 1.0, power_map=pm)
    kind, _, _, value = net.columns()
    total = sum(value[kind == CURRENT_SOURCE].tolist())
    assert total == pytest.approx(100.0, rel=1e-9)


def test_load_currents_draw_the_chip_power_from_the_vrm_rail(small_config):
    """On a 0.8 V rail the tiles draw total_power_w / 0.8 amperes."""
    base = small_config("on_package_1", tiles=5)
    cfg = pdnsim.validate_config(dataclasses.replace(
        base, vrm=dataclasses.replace(base.vrm, output_voltage_v=0.8)))
    kind, _, _, value = assemble_netlist(cfg).columns()
    assert value[kind == VOLTAGE_SOURCE].tolist() == [0.8]
    assert value[kind == CURRENT_SOURCE].sum() == \
        pytest.approx(cfg.chip.total_power_w / 0.8, rel=1e-12)


def test_backside_vias_come_from_the_placement(small_config):
    base = small_config("backside")
    tpv = dataclasses.replace(base.placement.through_package_via, count_per_site=4)
    plc = dataclasses.replace(base.placement, through_package_via=tpv, sites_per_side=3)
    net = assemble_netlist(pdnsim.validate_config(dataclasses.replace(base, placement=plc)))
    stems = [label.partition("[")[0] for label in net.labels()]
    tpv_r = [v for stem, v in zip(stems, net.columns()[3]) if stem == "tpv_r"]
    assert tpv_r == [via_resistance(tpv)] * 9


def _bumps_in(net, stem, per_bump):
    """How many bumps of ``per_bump`` ohm (or henry) the ``stem`` branches
    of ``net`` stand for, in parallel."""
    stems = np.array([label.partition("[")[0] for label in net.labels()])
    return np.sum(per_bump / net.columns()[3][stems == stem])


@pytest.mark.parametrize("tiles", [8, 30, 40, 60])
@pytest.mark.parametrize("name", ["on_package_1", "chip_on_vrm_3d"])
def test_bump_count_is_conserved_across_tilings(small_config, name, tiles):
    """The 10 mm chip on a 100 um pitch sits on 10,000 C4 bumps (stacked
    on its VRM, on 10,000 microbumps with their TSVs).  The tile branches
    share the whole array, also where the pitch does not divide the tile."""
    cfg = small_config(name, tiles=tiles)
    plc, c4 = cfg.placement, cfg.package.c4_bump
    if name == "chip_on_vrm_3d":
        stems = ("tsv_r", "ubump_l")
        r_bump = via_resistance(plc.vrm_tsv) + plc.microbump.resistance_per_bump_mohm * 1e-3
        l_bump = via_inductance(plc.vrm_tsv) + plc.microbump.inductance_per_bump_ph * 1e-12
    else:
        stems = ("c4_r", "c4_l")
        r_bump = c4.resistance_per_bump_mohm * 1e-3
        l_bump = c4.inductance_per_bump_ph * 1e-12
    net = assemble_netlist(cfg)
    for stem, per_bump in zip(stems, (r_bump, l_bump)):
        assert _bumps_in(net, stem, per_bump) == pytest.approx(10_000, rel=1e-12)


@pytest.mark.parametrize("pitch_mm", [1.0, 0.1])
def test_die_c4_count_is_conserved_on_any_package_grid(small_config, pitch_mm):
    """The 3-D stack's die C4 array (10,000 bumps under the 10 mm chip) is
    shared among the package nodes under the chip, also when there are
    more nodes than bumps (101 x 101 at a 0.1 mm grid)."""
    cfg = small_config("chip_on_vrm_3d", tiles=8)
    cfg = dataclasses.replace(cfg, package=dataclasses.replace(cfg.package,
                                                               grid_pitch_mm=pitch_mm))
    net = assemble_netlist(cfg)
    c4 = cfg.package.c4_bump
    assert _bumps_in(net, "die_c4_r", c4.resistance_per_bump_mohm * 1e-3) == \
        pytest.approx(10_000, rel=1e-12)
    assert _bumps_in(net, "die_c4_l", c4.inductance_per_bump_ph * 1e-12) == \
        pytest.approx(10_000, rel=1e-12)


def test_chip_grid_rejects_degenerate_grid():
    chip = ChipSpec(tile_count_x=1, tile_count_y=5)
    with pytest.raises(NetlistError, match="at least 2x2"):
        build_chip_grid(Netlist(), chip, 1.0, pdnsim.PowerMap(np.ones((5, 1)), 100.0))


def test_netlist_needs_a_power_map(small_config):
    """An unvalidated config has no map; it must not build a chip with no load."""
    cfg = dataclasses.replace(small_config("on_package_1"), power_map=None)
    with pytest.raises(ValueError, match="validate_config"):
        assemble_netlist(cfg)


def test_package_network_dimensions():
    pkg = PackageSpec()
    net = Netlist()
    nodes, xs, ys = build_package_network(net, pkg)
    assert nodes.shape == (31, 31)
    assert xs[0] == -15.0 and xs[-1] == 15.0
    counts = Counter(net.columns()[0].tolist())
    # each lateral segment is one R plus one L
    assert counts[RESISTOR] == counts[INDUCTOR] == 2 * 31 * 30


@pytest.mark.parametrize("name,expected_sources", [
    ("on_package_1", 1), ("on_package_2", 2), ("on_package_4", 4),
    ("backside", 1), ("chip_on_vrm_3d", 1),
])
def test_assembled_netlist_source_count(small_config, name, expected_sources):
    net = assemble_netlist(small_config(name))
    assert len(net.sources) == expected_sources
    kind = net.columns()[0].tolist()
    assert all(kind[i] == VOLTAGE_SOURCE for i in net.sources)
    assert [lbl for k, lbl in zip(kind, net.labels()) if k == VOLTAGE_SOURCE] == [
        f"vrm_src[{k}]" for k in range(expected_sources)]


@pytest.mark.parametrize("name", ["on_package_4", "backside", "chip_on_vrm_3d"])
def test_assembled_netlist_is_connected_with_meta(small_config, name):
    net = assemble_netlist(small_config(name, tiles=5))
    net.check_connected()  # must not raise
    assert set(net.meta) == {"chip_tile_nodes"}
    assert net.meta["chip_tile_nodes"].shape == (5, 5)
    assert "chip_center" in net.probes and "chip_corner" in net.probes


@pytest.mark.parametrize("pitch_mm", [30.0, 100.0])
def test_3d_stack_without_package_node_under_the_chip_raises(small_config, pitch_mm):
    """A package grid too coarse to put a node under the 10 mm chip leaves
    the die C4 array nowhere to land; the builder says so."""
    cfg = small_config("chip_on_vrm_3d")
    cfg = dataclasses.replace(cfg, package=dataclasses.replace(cfg.package, grid_pitch_mm=pitch_mm))
    with pytest.raises(NetlistError, match="^no package nodes available for the die C4 array$"):
        pdnsim.evaluate(cfg, transient=False)


# ---------------------------------------------------------------------------
# node names


def test_node_names_tell_nodes_apart_and_appear_in_the_export(small_config):
    """Each series-branch midpoint is named by its id and its first element,
    and the text export prints that id and label on one line."""
    net = assemble_netlist(small_config("on_package_1", tiles=4))
    labels = net.labels()
    _, _, b, _ = net.columns()
    stems = ["chip_decap_esr[0,0]", "c4_r[0,0]", "pkg_h[0,0]", "pkg_v[0,0]",
             "pkg_decap_esr[0]", "board_decap_esr[0]"]
    names = {stem: net.node_name(int(b[labels.index(stem)])) for stem in stems}
    assert len(set(names.values())) == len(stems)
    assert names["c4_r[0,0]"] == "node 2854 (c4_r[0,0])"
    lines = netlist_to_text(net).splitlines()
    for name in names.values():
        node, label = re.fullmatch(r"node (\d+) \((\S+)\)", name).groups()
        assert any(label == line.split()[-1] and node in line.split()[1:3]
                   for line in lines)


# ---------------------------------------------------------------------------
# text export: one "kind a b value label" line per element, then the probes


def _text_fields(text):
    """(kind, a, b, value) of each element line, and the probe lines."""
    lines = text.splitlines()[1:]
    rows = [line.split() for line in lines if not line.startswith("*")]
    probes = {name: int(idx) for _, _, name, idx in
              (line.split() for line in lines if line.startswith("* probe "))}
    return [(k, int(a), int(b), float(v)) for k, a, b, v, _ in rows], probes


def test_netlist_text_round_trip(small_config):
    net = assemble_netlist(small_config("on_package_4"))
    text = netlist_to_text(net)
    assert text.splitlines()[0] == (
        f"* pdnsim netlist: {net.node_count} nodes, {len(net.columns()[0])} elements")
    rows, probes = _text_fields(text)
    assert rows == list(zip(*(c.tolist() for c in net.columns())))
    assert probes == net.probes


def test_netlist_text_round_trip_preserves_values_exactly():
    net = Netlist()
    (a,) = net.add_nodes(1)
    net.add_elements(RESISTOR, a, GROUND, 1.0 / 3.0, "chip_h[0,0]")
    net.add_elements(CAPACITOR, a, GROUND, 5.3e-9 * 0.04, "chip_decap_c[0,0]")
    rows, _ = _text_fields(netlist_to_text(net))
    assert [value for *_, value in rows] == [1.0 / 3.0, 5.3e-9 * 0.04]
    assert rows == list(zip(*(c.tolist() for c in net.columns())))
