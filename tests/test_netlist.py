"""Netlist data model, parasitic formulas, labels and text export."""

import dataclasses
import math
from collections import Counter

import pytest

import pdnsim
from pdnsim import Element, Netlist, NetlistError
from pdnsim.builder import assemble_netlist, build_chip_grid, build_package_network
from pdnsim.config import ChipSpec, PackageSpec, ViaSpec, WireSpec
from pdnsim.netlist import (CAPACITOR, CURRENT_SOURCE, GROUND, INDUCTOR,
                            RESISTOR, VOLTAGE_SOURCE, make_label,
                            merged_sheet_resistance, netlist_to_text,
                            via_inductance, via_resistance, wire_resistance)


def test_element_rejects_bad_kind():
    net = Netlist()
    a = net.add_node("chip", (0, 0))
    with pytest.raises(NetlistError, match="unknown element kind"):
        net.add_elements("Q", a, GROUND, 1.0, "chip_h[0,0]")


def test_element_rejects_equal_terminals():
    net = Netlist()
    a = net.add_node("chip", (0, 0))
    with pytest.raises(NetlistError, match="terminals must differ"):
        net.add_elements(RESISTOR, a, a, 1.0, "chip_h[0,0]")


@pytest.mark.parametrize("kind", [RESISTOR, INDUCTOR, CAPACITOR])
def test_passive_values_must_be_positive(kind):
    net = Netlist()
    a = net.add_node("chip", (0, 0))
    with pytest.raises(NetlistError, match="must be > 0"):
        net.add_elements(kind, a, GROUND, 0.0, "chip_h[0,0]")


@pytest.mark.parametrize("kind,value", [
    (CURRENT_SOURCE, math.nan), (VOLTAGE_SOURCE, math.inf), (VOLTAGE_SOURCE, -math.inf),
    (RESISTOR, math.inf), (INDUCTOR, math.inf), (CAPACITOR, math.inf), (RESISTOR, math.nan),
])
def test_element_values_must_be_finite(kind, value):
    net = Netlist()
    a = net.add_node("chip", (0, 0))
    with pytest.raises(NetlistError, match=r"must be finite \(chip_x\[0,3\]: "):
        net.add_elements(kind, [a, a], GROUND, [1.0, value], "chip_x", 0, [2, 3])
    assert len(net.elements) == 0


def test_ground_is_node_zero():
    net = Netlist()
    assert net.node_count == 1
    assert net.node_name(GROUND) == "groundlumped"
    assert net.add_node("chip", (0, 0)) == 1
    assert net.node_count == 2


def test_sources_follow_element_kinds_and_views_are_read_only():
    net = Netlist()
    a = net.add_node("vrm_die")
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
    a = net.add_node("chip", (0, 0))
    tiles = net.add_nodes("chip", [[1, 2]], [[0, 0]])
    assert tiles.tolist() == [[2, 3]]
    net.add_nodes("internal", [0, 1], prefix=("strap", 3))
    assert [net.node_name(k) for k in range(net.node_count)] == [
        "groundlumped", "chip(0, 0)", "chip(1, 0)", "chip(2, 0)",
        "internal('strap', 3, 0)", "internal('strap', 3, 1)"]
    assert net.node_name(-1) == "internal('strap', 3, 1)"
    with pytest.raises(IndexError):
        net.node_name(net.node_count)
    assert net.add_elements(RESISTOR, a, GROUND, 2.0, "chip_h[0,0]") == 0
    assert net.add_elements(RESISTOR, tiles, a, [1.0, 3.0], "chip_v", [1, 2], 0) == 1
    assert net.labels() == ["chip_h[0,0]", "chip_v[1,0]", "chip_v[2,0]"]
    assert net.elements == [Element(RESISTOR, 1, GROUND, 2.0, "chip_h[0,0]"),
                            Element(RESISTOR, 2, 1, 1.0, "chip_v[1,0]"),
                            Element(RESISTOR, 3, 1, 3.0, "chip_v[2,0]")]
    # records hold Python scalars, which the text export prints
    assert [type(v) for v in dataclasses.astuple(net.elements[0])] == [str, int, int, float, str]
    with pytest.raises(NetlistError, match="terminals must differ"):
        net.add_elements(RESISTOR, [a, a], [GROUND, a], 1.0, "chip_h", [0, 1], 0)
    assert len(net.labels()) == len(net.elements) == 3   # a rejected block adds nothing


def test_check_connected_reports_floating_nodes():
    net = Netlist()
    a = net.add_node("chip", (0, 0))
    net.add_node("chip", (1, 0))  # never wired up
    net.add_elements(RESISTOR, a, GROUND, 1.0, "chip_h[0,0]")
    with pytest.raises(NetlistError, match="not connected to ground"):
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
    assert make_label("board_r") == "board_r"
    net = Netlist()
    a = net.add_node("chip", (0, 0))
    net.add_elements(RESISTOR, a, GROUND, 1.0, "chip_h", 12, 7)
    assert net.elements[0].label == "chip_h[12,7]"
    assert netlist_to_text(net).splitlines()[1].endswith(" chip_h[12,7]")


@pytest.mark.parametrize("name", ["on_package_1", "backside", "chip_on_vrm_3d"])
def test_builder_labels_are_unique(small_config, name):
    labels = [e.label for e in assemble_netlist(small_config(name)).elements]
    assert len(set(labels)) == len(labels)
    assert not any(" " in lbl for lbl in labels)   # one text field each


# ---------------------------------------------------------------------------
# builders


def test_chip_grid_shape_and_probes():
    chip = ChipSpec(tile_count_x=4, tile_count_y=3)
    pm = pdnsim.builtin_power_map("uniform", chip)
    net = Netlist()
    tiles = build_chip_grid(net, chip, power_map=pm)
    assert tiles.shape == (3, 4)
    counts = Counter(e.kind for e in net.elements)
    # boundary resistors + one decap ESR per tile
    assert counts[RESISTOR] == 3 * 3 + 2 * 4 + 12
    assert counts[CURRENT_SOURCE] == 12
    assert counts[CAPACITOR] == 12
    # decap density and ESR come from the default DecapPolicy
    policy, tile_area = pdnsim.DecapPolicy(), (10.0 / 4) * (10.0 / 3)
    decap = {e.label.split("[")[0]: e.value for e in net.elements}
    assert decap["chip_decap_c"] == policy.onchip_density_nf_per_mm2 * 1e-9 * tile_area
    assert decap["chip_decap_esr"] == policy.onchip_esr_ohm_mm2 / tile_area
    assert net.probes["tile[0,0]"] == int(tiles[0, 0])
    assert net.probes["tile[3,2]"] == int(tiles[2, 3])


def test_chip_grid_load_currents_sum_to_total():
    chip = ChipSpec(tile_count_x=5, tile_count_y=5)
    pm = pdnsim.builtin_power_map("hotspot", chip)
    net = Netlist()
    build_chip_grid(net, chip, power_map=pm)
    total = sum(e.value for e in net.elements if e.kind == CURRENT_SOURCE)
    assert total == pytest.approx(100.0, rel=1e-9)


def test_chip_grid_rejects_degenerate_grid():
    chip = ChipSpec(tile_count_x=1, tile_count_y=5)
    with pytest.raises(NetlistError, match="at least 2x2"):
        build_chip_grid(Netlist(), chip)


def test_package_network_dimensions():
    pkg = PackageSpec()
    net = Netlist()
    nodes, xs, ys = build_package_network(net, pkg)
    assert nodes.shape == (31, 31)
    assert xs[0] == -15.0 and xs[-1] == 15.0
    counts = Counter(e.kind for e in net.elements)
    # each lateral segment is one R plus one L
    assert counts[RESISTOR] == counts[INDUCTOR] == 2 * 31 * 30


@pytest.mark.parametrize("name,expected_sources", [
    ("on_package_1", 1), ("on_package_2", 2), ("on_package_4", 4),
    ("backside", 1), ("chip_on_vrm_3d", 1),
])
def test_assembled_netlist_source_count(small_config, name, expected_sources):
    net = assemble_netlist(small_config(name))
    assert len(net.sources) == expected_sources
    assert all(net.elements[i].kind == VOLTAGE_SOURCE for i in net.sources)
    assert [e.label for e in net.elements if e.kind == VOLTAGE_SOURCE] == [
        f"vrm_src[{k}]" for k in range(expected_sources)]


@pytest.mark.parametrize("name", ["on_package_4", "backside", "chip_on_vrm_3d"])
def test_assembled_netlist_is_connected_with_meta(small_config, name):
    net = assemble_netlist(small_config(name, tiles=5))
    net.check_connected()  # must not raise
    assert set(net.meta) == {"chip_tile_nodes"}
    assert net.meta["chip_tile_nodes"].shape == (5, 5)
    assert "chip_center" in net.probes and "chip_corner" in net.probes


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
        f"* pdnsim netlist: {net.node_count} nodes, {len(net.elements)} elements")
    rows, probes = _text_fields(text)
    assert rows == list(zip(*(c.tolist() for c in net.columns())))
    assert probes == net.probes


def test_netlist_text_round_trip_preserves_values_exactly():
    net = Netlist()
    a = net.add_node("chip", (0, 0))
    net.add_elements(RESISTOR, a, GROUND, 1.0 / 3.0, "chip_h[0,0]")
    net.add_elements(CAPACITOR, a, GROUND, 5.3e-9 * 0.04, "chip_decap_c[0,0]")
    rows, _ = _text_fields(netlist_to_text(net))
    assert [value for *_, value in rows] == [1.0 / 3.0, 5.3e-9 * 0.04]
    assert rows == list(zip(*(c.tolist() for c in net.columns())))
