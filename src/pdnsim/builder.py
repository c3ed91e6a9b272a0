"""Builders that turn a validated ScenarioConfig into an RLC netlist.

Discretization scheme:

* chip: one node per tile; neighboring tiles joined by the parallel
  combination of all physical power wires crossing the tile boundary.
* package: the P/G metal layers are merged into one equivalent sheet and
  discretized on a coarser grid (``grid_pitch_mm``); each lateral segment is
  one square of sheet resistance in series with the effective loop
  inductance per square.
* bump/via arrays are aggregated into one R-L branch per tile (or per
  attach site); per-branch values are the parallel combination of the bumps
  or vias whose centers fall in the tile footprint.

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
    return max(float(x), _R_FLOOR)


def _l(x):
    return max(float(x), _L_FLOOR)


def _stack(*columns):
    """Broadcast the columns together and stack them along a new last axis:
    one row of interleaved elements per grid position."""
    return np.stack(np.broadcast_arrays(*columns), axis=-1)


def build_chip_grid(net, chip, power_map=None, decaps=DecapPolicy()):
    """Add the discretized on-chip PDN to ``net``: tile node grid,
    aggregated boundary resistors, per-tile load current sources and decap
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
    tile_nodes = net.add_nodes("chip", ii, jj)

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
    amps = 0.0 if power_map is None else power_map.densities * tile_area_mm2
    cap_f = decaps.onchip_density_nf_per_mm2 * 1e-9 * tile_area_mm2
    esr = decaps.onchip_esr_ohm_mm2 / tile_area_mm2
    if cap_f > 0.0:
        mid = net.add_nodes("internal", ii, jj)
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
    nodes = net.add_nodes("package_top", ii, jj)
    _rl_branches(net, nodes[:, :-1], nodes[:, 1:], r_sq, l_sq, ("pkg_h", "pkg_lh"),
                 ii[:, :-1], jj[:, :-1])
    _rl_branches(net, nodes[:-1], nodes[1:], r_sq, l_sq, ("pkg_v", "pkg_lv"),
                 ii[:-1], jj[:-1])
    return nodes, xs, ys


def _nearest(coords, values):
    """Index of the coordinate nearest to each value (first on ties)."""
    return np.argmin(np.abs(coords - np.asarray(values)[..., None]), axis=-1)


def _bumps_per_tile(tx_mm, ty_mm, pitch_um):
    return max(1, int(tx_mm * 1000.0 // pitch_um) * int(ty_mm * 1000.0 // pitch_um))


def _rl_branches(net, src, dst, r, l, stems, *index, prefix=()):
    """A series R-L branch from each ``src`` to its ``dst`` node through a
    new internal node at ``prefix + index``; elements go R, L per branch."""
    mid = net.add_nodes("internal", *index, prefix=prefix)
    net.add_elements([RESISTOR, INDUCTOR], _stack(src, mid), _stack(mid, dst),
                     [_r(r), _l(l)], stems, *(ix[..., None] for ix in index))


def _decap_branch(net, node, cap, stem_prefix, idx):
    mid1 = net.add_node("internal")
    mid2 = net.add_node("internal")
    net.add_elements([RESISTOR, INDUCTOR, CAPACITOR], [node, mid1, mid2], [mid1, mid2, GROUND],
                     [_r(cap.esr_mohm * 1e-3), _l(cap.esl_nh * 1e-9), cap.capacitance_uf * 1e-6],
                     [f"{stem_prefix}_esr", f"{stem_prefix}_esl", f"{stem_prefix}_c"], idx)


def _vrm_chain(net, k, vrm):
    """Ideal source + series R/L; returns the output node of the chain."""
    n_src, n1, n2 = (net.add_node("vrm_die", (p, k)) for p in ("src", "r", "l"))
    net.add_elements([VOLTAGE_SOURCE, RESISTOR, INDUCTOR], [n_src, n_src, n1], [GROUND, n1, n2],
                     [vrm.output_voltage_v, _r(vrm.series_resistance_mohm * 1e-3),
                      _l(vrm.series_inductance_nh * 1e-9)], ["vrm_src", "vrm_r", "vrm_l"], k)
    return n2


def assemble_netlist(config: ScenarioConfig) -> Netlist:
    """Full benchmark netlist for one scenario (topology per VRM placement).

    The returned netlist carries ``meta["chip_tile_nodes"]``, the 2-D array
    of tile node ids used downstream.
    """
    chip, pkg = config.chip, config.package
    net = Netlist()

    tiles = build_chip_grid(net, chip, power_map=config.power_map, decaps=config.decaps)
    pnodes, pxs, pys = build_package_network(net, pkg)

    nx, ny = chip.tile_count_x, chip.tile_count_y
    tx_mm = chip.width_mm / nx
    ty_mm = chip.height_mm / ny
    tile_cx = -chip.width_mm / 2.0 + tx_mm * (np.arange(nx) + 0.5)
    tile_cy = -chip.height_mm / 2.0 + ty_mm * (np.arange(ny) + 0.5)
    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny))

    plc = config.placement

    # chip-to-carrier attach: C4 per tile (2.5-D) or TSV+microbump per tile (3-D)
    if isinstance(plc, ChipOnVrm3D):
        die = _vrm_chain(net, 0, config.vrm)  # VRM die distribution node
        if plc.die_decap is not None:
            _decap_branch(net, die, plc.die_decap, "die_decap", 0)
        n_ub = _bumps_per_tile(tx_mm, ty_mm, plc.microbump.pitch_um)
        r_site = (via_resistance(plc.vrm_tsv)
                  + plc.microbump.resistance_per_bump_mohm * 1e-3) / n_ub
        l_site = (via_inductance(plc.vrm_tsv)
                  + plc.microbump.inductance_per_bump_ph * 1e-12) / n_ub
        _rl_branches(net, die, tiles, r_site, l_site, ("tsv_r", "ubump_l"), ii, jj)
    else:
        c4 = pkg.c4_bump
        n_c4 = _bumps_per_tile(tx_mm, ty_mm, c4.pitch_um)
        r_tile = c4.resistance_per_bump_mohm * 1e-3 / n_c4
        l_tile = c4.inductance_per_bump_ph * 1e-12 / n_c4
        landing = pnodes[np.ix_(_nearest(pys, tile_cy), _nearest(pxs, tile_cx))]
        _rl_branches(net, tiles, landing, r_tile, l_tile, ("c4_r", "c4_l"), ii, jj)

    # under-chip package node set (used by 3-D die attach and backside vias)
    under_i = np.flatnonzero(np.abs(pxs) <= chip.width_mm / 2.0 + 1e-9)
    under_j = np.flatnonzero(np.abs(pys) <= chip.height_mm / 2.0 + 1e-9)

    if isinstance(plc, OnPackageVrm):
        sides = {1: ["west"], 2: ["west", "east"],
                 4: ["west", "east", "south", "north"]}[plc.count]
        r_sq = merged_sheet_resistance(pkg)
        l_sq = pkg.segment_inductance_ph_per_square * 1e-12
        padw = pkg.vrm_pad_width_mm
        squares = plc.gap_mm / padw
        for k, side in enumerate(sides):
            out = _vrm_chain(net, k, config.vrm)
            n3 = net.add_node("vrm_die", ("strap_r", k))
            n_pad = net.add_node("vrm_die", ("pad", k))
            net.add_elements([RESISTOR, INDUCTOR], [out, n3], [n3, n_pad],
                             [_r(r_sq * squares), _l(l_sq * squares)],
                             ["strap_r", "strap_l"], k)
            pad_nodes = _pad_line(pnodes, pxs, pys, chip, side, padw)
            net.add_elements(RESISTOR, n_pad, pad_nodes, _PAD_CONTACT_OHM * len(pad_nodes),
                             "pad", k, np.arange(len(pad_nodes)))
    elif isinstance(plc, BacksideVrm):
        tpv = pkg.through_package_via
        out = _vrm_chain(net, 0, config.vrm)
        n_side = pkg.tpv_sites_per_side
        site_x = -chip.width_mm / 2.0 + (np.arange(n_side) + 0.5) * chip.width_mm / n_side
        site_y = -chip.height_mm / 2.0 + (np.arange(n_side) + 0.5) * chip.height_mm / n_side
        sites = pnodes[np.ix_(_nearest(pys, site_y), _nearest(pxs, site_x))]
        _rl_branches(net, out, sites, via_resistance(tpv), via_inductance(tpv),
                     ("tpv_r", "tpv_l"), np.arange(sites.size).reshape(sites.shape),
                     prefix=("tpv",))
    else:
        # 3-D: VRM die still sits on the package through the C4 array so the
        # package/board decap paths stay connected
        c4 = pkg.c4_bump
        total_c4 = _bumps_per_tile(chip.width_mm, chip.height_mm, c4.pitch_um)
        sites = pnodes[np.ix_(under_j, under_i)]
        share = max(1.0, total_c4 / sites.size)
        _rl_branches(net, die, sites, c4.resistance_per_bump_mohm * 1e-3 / share,
                     c4.inductance_per_bump_ph * 1e-12 / share, ("die_c4_r", "die_c4_l"),
                     np.arange(sites.size).reshape(sites.shape), prefix=("die_c4",))

    # package discrete decaps
    for m, cap in enumerate(config.decaps.package_decaps):
        pi = _nearest(pxs, (cap.x - 0.5) * pkg.package_width_mm)
        pj = _nearest(pys, (cap.y - 0.5) * pkg.package_height_mm)
        _decap_branch(net, pnodes[pj, pi], cap, "pkg_decap", m)

    # board: solder bump array at the four package corners -> lumped board
    sb = pkg.solder_bump
    r_sb = sb.resistance_per_bump_mohm * 1e-3 / pkg.solder_bump_count
    l_sb = sb.inductance_per_bump_ph * 1e-12 / pkg.solder_bump_count
    board_a = net.add_node("board", "solder")
    corners = pnodes[[0, 0, -1, -1], [0, -1, 0, -1]]
    _rl_branches(net, corners, board_a, r_sb * len(corners), l_sb * len(corners),
                 ("solder_r", "solder_l"), np.arange(len(corners)), prefix=("solder",))
    board_mid = net.add_node("board", "lump")
    board_b = net.add_node("board", "far")
    net.add_elements([RESISTOR, INDUCTOR], [board_a, board_mid], [board_mid, board_b],
                     [_r(config.board.lumped_resistance_mohm * 1e-3),
                      _l(config.board.lumped_inductance_nh * 1e-9)], ["board_r", "board_l"])
    for m, cap in enumerate(config.decaps.board_decaps):
        _decap_branch(net, board_b, cap, "board_decap", m)

    # named probes
    net.probes["chip_center"] = int(tiles[ny // 2, nx // 2])
    net.probes["chip_corner"] = int(tiles[0, 0])

    net.meta = {"chip_tile_nodes": tiles}
    net.check_connected()
    if not net.sources:
        raise NetlistError("netlist has no VRM voltage source")
    return net


def _pad_line(pnodes, pxs, pys, chip, side, pad_width_mm):
    """Package nodes forming the VRM attach pad just outside one chip edge."""
    half_w, half_h = chip.width_mm / 2.0, chip.height_mm / 2.0
    if side in ("west", "east"):
        column = pnodes[:, _nearest(pxs, -half_w if side == "west" else half_w)]
        out = column[np.abs(pys) <= pad_width_mm / 2.0 + 1e-9]
    else:
        row = pnodes[_nearest(pys, -half_h if side == "south" else half_h)]
        out = row[np.abs(pxs) <= pad_width_mm / 2.0 + 1e-9]
    if not len(out):
        raise NetlistError(f"no package nodes available for VRM pad on side {side}")
    return out
