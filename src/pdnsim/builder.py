"""Builders that turn a validated ScenarioConfig into an RLC netlist.

Discretization scheme:

* chip: one node per tile; neighboring tiles joined by the parallel
  combination of all physical power wires crossing the tile boundary.
* package: the P/G metal layers are merged into one equivalent sheet and
  discretized on a coarser grid (``grid_pitch_mm``); each lateral segment is
  one square of sheet resistance in series with the effective loop
  inductance per square.
* bump/via arrays are aggregated into one R-L branch per tile (or per
  attach site); per-branch values are the parallel combination of the
  tile footprint's share of the array, a fractional bump count, so every
  tiling keeps the whole array.

The chip is centered on the package; coordinates are in mm with the origin
at the common center.
"""

from __future__ import annotations

import numpy as np

from .config import (MIN_TILE_COUNT, BacksideVrm, ChipOnVrm3D, DecapPolicy,
                     OnPackageVrm, ScenarioConfig)
from .errors import NetlistError
from .netlist import (CAPACITOR, CURRENT_SOURCE, GROUND, INDUCTOR, RESISTOR,
                      VOLTAGE_SOURCE, Netlist, merged_sheet_resistance,
                      via_inductance, via_resistance, wire_resistance)

# floors used when a config legitimately sets a parasitic to zero; elements
# must stay strictly positive for the stampers
_R_FLOOR = 1e-9
_L_FLOOR = 1e-16
_PAD_CONTACT_OHM = 1e-6  # total contact resistance of one VRM attach pad


def _r(x):
    return np.maximum(x, _R_FLOOR)


def _l(x):
    return np.maximum(x, _L_FLOOR)


def _stack(*columns):
    """Broadcast the columns together and stack them along a new last axis:
    one row of interleaved elements per grid position."""
    return np.stack(np.broadcast_arrays(*columns), axis=-1)


def build_chip_grid(net, chip, rail_v, power_map, decaps=DecapPolicy()):
    """Add the discretized on-chip PDN to ``net``: tile node grid,
    aggregated boundary resistors, per-tile load current sources (the
    ``power_map`` tile power drawn from the ``rail_v`` volt rail) and decap
    branches (density and ESR from the ``decaps`` policy).

    Returns ``tile_nodes`` with ``tile_nodes[j, i]`` the node index of tile
    (i, j).
    """
    nx, ny = chip.tile_count_x, chip.tile_count_y
    if min(nx, ny) < MIN_TILE_COUNT:
        raise NetlistError(
            f"chip tile grid must be at least {MIN_TILE_COUNT}x{MIN_TILE_COUNT}")

    tx_mm = chip.width_mm / nx
    ty_mm = chip.height_mm / ny
    tile_area_mm2 = tx_mm * ty_mm
    wire = chip.onchip_wire

    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny))
    tile_nodes = net.add_nodes(ii.shape)

    # boundary resistors: n parallel wires cross each tile boundary
    n_x = max(1, int(ty_mm * 1000.0 // wire.pitch_um))   # wires along x
    n_y = max(1, int(tx_mm * 1000.0 // wire.pitch_um))   # wires along y
    r_h = wire_resistance(wire, tx_mm * 1000.0) / n_x
    r_v = wire_resistance(wire, ty_mm * 1000.0) / n_y
    net.add_elements(RESISTOR, tile_nodes[:, :-1], tile_nodes[:, 1:], r_h, "chip_h",
                     ii[:, :-1], jj[:, :-1])
    net.add_elements(RESISTOR, tile_nodes[:-1], tile_nodes[1:], r_v, "chip_v",
                     ii[:-1], jj[:-1])

    # per-tile load and decap
    amps = power_map.densities * tile_area_mm2 / rail_v
    cap_f = decaps.onchip_density_nf_per_mm2 * 1e-9 * tile_area_mm2
    esr = decaps.onchip_esr_ohm_mm2 / tile_area_mm2
    if cap_f > 0.0:
        mid = net.add_nodes(ii.shape)
        net.add_elements([CURRENT_SOURCE, RESISTOR, CAPACITOR],
                         _stack(tile_nodes, tile_nodes, mid), _stack(GROUND, mid, GROUND),
                         _stack(amps, _r(esr), cap_f),
                         ["load", "chip_decap_esr", "chip_decap_c"],
                         ii[..., None], jj[..., None])
    else:
        net.add_elements(CURRENT_SOURCE, tile_nodes, GROUND, amps, "load", ii, jj)
    net.probes.update((f"tile[{i},{j}]", n) for i, j, n in
                      zip(ii.ravel().tolist(), jj.ravel().tolist(), tile_nodes.ravel().tolist()))
    return tile_nodes


def build_package_network(net, pkg):
    """Add the merged-sheet package plane on a coarse grid to ``net``.

    Returns ``(pkg_nodes, xs_mm, ys_mm)``; ``pkg_nodes[j, i]`` is the node
    at lateral position (xs_mm[i], ys_mm[j]), origin at package center.
    """
    p = pkg.grid_pitch_mm
    nx = int(round(pkg.package_width_mm / p)) + 1
    ny = int(round(pkg.package_height_mm / p)) + 1
    xs = -pkg.package_width_mm / 2.0 + p * np.arange(nx)
    ys = -pkg.package_height_mm / 2.0 + p * np.arange(ny)

    r_sq = merged_sheet_resistance(pkg)
    l_sq = pkg.segment_inductance_ph_per_square * 1e-12

    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny))
    nodes = net.add_nodes(ii.shape)
    _rl_branches(net, nodes[:, :-1], nodes[:, 1:], r_sq, l_sq, ("pkg_h", "pkg_lh"),
                 ii[:, :-1], jj[:, :-1])
    _rl_branches(net, nodes[:-1], nodes[1:], r_sq, l_sq, ("pkg_v", "pkg_lv"),
                 ii[:-1], jj[:-1])
    return nodes, xs, ys


def _nearest(coords, values):
    """Index of the coordinate nearest to each value (first on ties)."""
    return np.argmin(np.abs(coords - np.asarray(values)[..., None]), axis=-1)


def _bumps_per_tile(tx_mm, ty_mm, pitch_um):
    """Bumps on a ``tx_mm`` x ``ty_mm`` footprint at ``pitch_um``, as a
    fraction, so the tiles of a chip always share its whole array."""
    return (tx_mm * 1000.0 / pitch_um) * (ty_mm * 1000.0 / pitch_um)


def _rl_branches(net, src, dst, r, l, stems, *index):
    """A series R-L branch from each ``src`` to its ``dst`` node through a
    new internal node, one per ``index`` entry; elements go R, L per branch."""
    mid = net.add_nodes(index[0].shape)
    net.add_elements([RESISTOR, INDUCTOR], _stack(src, mid), _stack(mid, dst),
                     [_r(r), _l(l)], stems, *(ix[..., None] for ix in index))


def _decap_branches(net, nodes, caps, stem):
    """ESR, ESL, C in series to ground from each of ``nodes``, one branch per decap."""
    esr, esl, c = np.reshape([(d.esr_mohm, d.esl_nh, d.capacitance_uf) for d in caps], (-1, 3)).T
    mid = net.add_nodes((len(caps), 2))
    net.add_elements([RESISTOR, INDUCTOR, CAPACITOR], _stack(nodes, *mid.T),
                     _stack(*mid.T, GROUND), _stack(_r(esr * 1e-3), _l(esl * 1e-9), c * 1e-6),
                     [f"{stem}_esr", f"{stem}_esl", f"{stem}_c"], np.arange(len(caps))[:, None])


def _vrm_chain(net, k, vrm):
    """Ideal source + series R/L; returns the output node of the chain."""
    n_src, n1, n2 = net.add_nodes(3)
    net.add_elements([VOLTAGE_SOURCE, RESISTOR, INDUCTOR], [n_src, n_src, n1], [GROUND, n1, n2],
                     [vrm.output_voltage_v, _r(vrm.series_resistance_mohm * 1e-3),
                      _l(vrm.series_inductance_nh * 1e-9)], ["vrm_src", "vrm_r", "vrm_l"], k)
    return n2


def assemble_netlist(config: ScenarioConfig) -> Netlist:
    """Full benchmark netlist for one scenario (topology per VRM placement).

    The returned netlist carries ``meta["chip_tile_nodes"]``, the 2-D array
    of tile node ids used downstream.  Raises ValueError for a config with
    no power map; validate_config supplies one.
    """
    chip, pkg = config.chip, config.package
    if config.power_map is None:
        raise ValueError("config has no power map; pass it through validate_config first")
    net = Netlist()

    tiles = build_chip_grid(net, chip, config.vrm.output_voltage_v,
                            power_map=config.power_map, decaps=config.decaps)
    pnodes, pxs, pys = build_package_network(net, pkg)

    nx, ny = chip.tile_count_x, chip.tile_count_y
    tx_mm = chip.width_mm / nx
    ty_mm = chip.height_mm / ny
    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny))

    plc = config.placement
    c4 = pkg.c4_bump
    if isinstance(plc, ChipOnVrm3D):
        # 3-D: TSV+microbump per tile from the VRM die, which still sits on
        # the package under the chip through the C4 array so the
        # package/board decap paths stay connected
        die = _vrm_chain(net, 0, config.vrm)  # VRM die distribution node
        _decap_branches(net, die, [] if plc.die_decap is None else [plc.die_decap], "die_decap")
        n_ub = _bumps_per_tile(tx_mm, ty_mm, plc.microbump.pitch_um)
        r_site = (via_resistance(plc.vrm_tsv)
                  + plc.microbump.resistance_per_bump_mohm * 1e-3) / n_ub
        l_site = (via_inductance(plc.vrm_tsv)
                  + plc.microbump.inductance_per_bump_ph * 1e-12) / n_ub
        _rl_branches(net, die, tiles, r_site, l_site, ("tsv_r", "ubump_l"), ii, jj)
        c4_array = "the die C4 array"
        sites = pnodes[np.ix_(_within(pys, chip.height_mm / 2.0, c4_array),
                              _within(pxs, chip.width_mm / 2.0, c4_array))]
        share = _bumps_per_tile(chip.width_mm, chip.height_mm, c4.pitch_um) / sites.size
        _rl_branches(net, die, sites, c4.resistance_per_bump_mohm * 1e-3 / share,
                     c4.inductance_per_bump_ph * 1e-12 / share, ("die_c4_r", "die_c4_l"),
                     np.arange(sites.size).reshape(sites.shape))
    else:
        # 2.5-D: C4 per tile to the package node under its centre
        tile_cx = -chip.width_mm / 2.0 + tx_mm * (np.arange(nx) + 0.5)
        tile_cy = -chip.height_mm / 2.0 + ty_mm * (np.arange(ny) + 0.5)
        n_c4 = _bumps_per_tile(tx_mm, ty_mm, c4.pitch_um)
        r_tile = c4.resistance_per_bump_mohm * 1e-3 / n_c4
        l_tile = c4.inductance_per_bump_ph * 1e-12 / n_c4
        landing = pnodes[np.ix_(_nearest(pys, tile_cy), _nearest(pxs, tile_cx))]
        _rl_branches(net, tiles, landing, r_tile, l_tile, ("c4_r", "c4_l"), ii, jj)

    if isinstance(plc, OnPackageVrm):
        sides = {1: ["west"], 2: ["west", "east"],
                 4: ["west", "east", "south", "north"]}[plc.count]
        r_sq = merged_sheet_resistance(pkg)
        l_sq = pkg.segment_inductance_ph_per_square * 1e-12
        padw = plc.pad_width_mm
        squares = plc.gap_mm / padw
        for k, side in enumerate(sides):
            out = _vrm_chain(net, k, config.vrm)
            n3, n_pad = net.add_nodes(2)
            net.add_elements([RESISTOR, INDUCTOR], [out, n3], [n3, n_pad],
                             [_r(r_sq * squares), _l(l_sq * squares)],
                             ["strap_r", "strap_l"], k)
            pad_nodes = _pad_line(pnodes, pxs, pys, chip, side, padw)
            net.add_elements(RESISTOR, n_pad, pad_nodes, _PAD_CONTACT_OHM * len(pad_nodes),
                             "pad", k, np.arange(len(pad_nodes)))
    elif isinstance(plc, BacksideVrm):
        tpv = plc.through_package_via
        out = _vrm_chain(net, 0, config.vrm)
        n_side = plc.sites_per_side
        site_x = -chip.width_mm / 2.0 + (np.arange(n_side) + 0.5) * chip.width_mm / n_side
        site_y = -chip.height_mm / 2.0 + (np.arange(n_side) + 0.5) * chip.height_mm / n_side
        sites = pnodes[np.ix_(_nearest(pys, site_y), _nearest(pxs, site_x))]
        _rl_branches(net, out, sites, via_resistance(tpv), via_inductance(tpv),
                     ("tpv_r", "tpv_l"), np.arange(sites.size).reshape(sites.shape))

    # package discrete decaps, each on the package node nearest to it
    caps = config.decaps.package_decaps
    x, y = np.reshape([(d.x, d.y) for d in caps], (-1, 2)).T - 0.5
    _decap_branches(net, pnodes[_nearest(pys, y * pkg.package_height_mm),
                                _nearest(pxs, x * pkg.package_width_mm)], caps, "pkg_decap")

    # board: solder bump array at the four package corners -> lumped board
    r_sb = pkg.solder_bump_resistance_mohm * 1e-3 / pkg.solder_bump_count
    l_sb = pkg.solder_bump_inductance_ph * 1e-12 / pkg.solder_bump_count
    (board_a,) = net.add_nodes(1)
    corners = pnodes[[0, 0, -1, -1], [0, -1, 0, -1]]
    _rl_branches(net, corners, board_a, r_sb * len(corners), l_sb * len(corners),
                 ("solder_r", "solder_l"), np.arange(len(corners)))
    board_mid, board_b = net.add_nodes(2)
    net.add_elements([RESISTOR, INDUCTOR], [board_a, board_mid], [board_mid, board_b],
                     [_r(config.board.lumped_resistance_mohm * 1e-3),
                      _l(config.board.lumped_inductance_nh * 1e-9)], ["board_r", "board_l"])
    _decap_branches(net, board_b, config.decaps.board_decaps, "board_decap")

    # named probes
    net.probes["chip_center"] = int(tiles[ny // 2, nx // 2])
    net.probes["chip_corner"] = int(tiles[0, 0])

    net.meta = {"chip_tile_nodes": tiles}
    net.check_connected()
    return net


def _within(coords, half, what):
    """Indices of the package grid coordinates within ``half`` mm of the
    centre; raises ``NetlistError`` naming ``what`` when there are none."""
    out = np.flatnonzero(np.abs(coords) <= half + 1e-9)
    if not len(out):
        raise NetlistError(f"no package nodes available for {what}")
    return out


def _pad_line(pnodes, pxs, pys, chip, side, pad_width_mm):
    """Package nodes forming the VRM attach pad just outside one chip edge."""
    half_w, half_h = chip.width_mm / 2.0, chip.height_mm / 2.0
    pad = f"VRM pad on side {side}"
    if side in ("west", "east"):
        column = pnodes[:, _nearest(pxs, -half_w if side == "west" else half_w)]
        return column[_within(pys, pad_width_mm / 2.0, pad)]
    row = pnodes[_nearest(pys, -half_h if side == "south" else half_h)]
    return row[_within(pxs, pad_width_mm / 2.0, pad)]
