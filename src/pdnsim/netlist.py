"""Flat RLC netlist representation.

Nodes are dense integer ids with ground reserved at 0.  Elements are
two-terminal; every element carries a provenance label that encodes its tier
and grid position (``chip_h[12,7]``) and parses back via
``parse_label``.  The line-oriented text export is bit-exact and diffable.

Both are stored as appended blocks of arrays: a builder adds a whole grid
in one call, and labels and ``Node``/``Element`` records are made only when
text or records are asked for.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import NetlistError

GROUND = 0

RESISTOR = "R"
INDUCTOR = "L"
CAPACITOR = "C"
CURRENT_SOURCE = "I"
VOLTAGE_SOURCE = "V"

_KINDS = (RESISTOR, INDUCTOR, CAPACITOR, CURRENT_SOURCE, VOLTAGE_SOURCE)
_PASSIVE = (RESISTOR, INDUCTOR, CAPACITOR)


@dataclass(frozen=True)
class Node:
    index: int
    tier: str            # board | package_bottom | package_top | chip | vrm_die | internal
    position: tuple | str = "lumped"


@dataclass(frozen=True)
class Element:
    kind: str
    a: int
    b: int
    value: float         # ohms / henries / farads / amperes / volts
    label: str


class _Blocks(Sequence):
    """Read-only sequence over rows kept as blocks ``(first row, rows,
    *data)``; ``records(block, rows)`` makes the records of a slice of one
    block."""

    def __init__(self, records):
        self.blocks = []
        self._records = records
        self._len = 0

    def append(self, rows, *data) -> int:
        first = self._len
        self.blocks.append((first, rows, *data))
        self._len += rows
        return first

    def __len__(self):
        return self._len

    def __getitem__(self, i):
        i = range(self._len)[i]  # bounds, negative and slice indices
        if isinstance(i, range):
            return [self[k] for k in i]
        block = self.blocks[bisect_right(self.blocks, i, key=lambda blk: blk[0]) - 1]
        return self._records(block, slice(i - block[0], i - block[0] + 1))[0]

    def __iter__(self):
        for block in self.blocks:
            yield from self._records(block)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(x == y for x, y in zip(self, other))


def _node_records(block, rows=slice(None)):
    first, _, tier, position, index = block
    if index is None:
        return [Node(first, tier, position)]
    return [Node(r, tier, position + tuple(ix)) for r, ix in
            enumerate(index[rows].tolist(), start=first + (rows.start or 0))]


def _element_records(block, rows=slice(None)):
    _, _, kind, a, b, value, stem, index = block
    stems = stem[rows].tolist()
    labels = stems if index is None else [
        make_label(s, *ix) for s, ix in zip(stems, index[rows].tolist())]
    return [Element(*row) for row in zip(kind[rows].tolist(), a[rows].tolist(),
                                         b[rows].tolist(), value[rows].tolist(), labels)]


class Netlist:
    """Nodes, two-terminal elements, named probes (name -> node index), the
    element indices of the VRM voltage sources, and builder ``meta``."""

    def __init__(self):
        self.probes: dict[str, int] = {}
        self.sources: list[int] = []
        self.meta: dict = {}
        self.nodes = [Node(GROUND, "ground")]
        self._elements = _Blocks(_element_records)

    @property
    def nodes(self) -> Sequence[Node]:
        return self._nodes

    @nodes.setter
    def nodes(self, nodes):
        self._nodes = _Blocks(_node_records)
        for n in nodes:
            self.add_node(n.tier, n.position)

    @property
    def elements(self) -> Sequence[Element]:
        return self._elements

    @property
    def node_count(self):
        return len(self._nodes)

    def add_node(self, tier, position="lumped") -> int:
        return self._nodes.append(1, tier, position, None)

    def add_nodes(self, tier, *index, prefix=()):
        """One node per entry of the broadcast ``index`` arrays, at position
        ``prefix + (index[0][k], index[1][k], ...)``; returns the node ids in
        the broadcast shape."""
        index = np.broadcast_arrays(*index)
        rows = np.stack([ix.ravel() for ix in index], axis=1).astype(np.int64)
        first = self._nodes.append(len(rows), tier, prefix, rows)
        return first + np.arange(len(rows)).reshape(index[0].shape)

    def add(self, kind, a, b, value, label) -> int:
        return self.add_elements(kind, a, b, value, label)

    def add_elements(self, kind, a, b, value, stem, *index) -> int:
        """Append the elements of broadcast column arrays in row-major order;
        each is labelled ``make_label(stem, *index)`` of its row.  Returns
        the index of the first one."""
        kind, a, b, value, stem, *index = (
            np.ravel(c) for c in np.broadcast_arrays(kind, a, b, value, stem, *index))
        a, b, value = a.astype(np.int64), b.astype(np.int64), value.astype(float)
        index = np.stack(index, axis=1).astype(np.int64) if index else None
        bad_kind = ~np.isin(kind, _KINDS)
        bad = bad_kind | (a == b) | (np.isin(kind, _PASSIVE) & ~(value > 0))
        if bad.any():
            k = int(np.argmax(bad))
            label = str(stem[k]) if index is None else make_label(stem[k], *index[k].tolist())
            if bad_kind[k]:
                raise NetlistError(f"unknown element kind {str(kind[k])!r} ({label})")
            if a[k] == b[k]:
                raise NetlistError(f"element terminals must differ ({label})")
            raise NetlistError(
                f"passive element value must be > 0 ({label}: {float(value[k])})")
        return self._elements.append(len(kind), kind, a, b, value, stem, index)

    def columns(self):
        """``(kind, a, b, value)`` arrays of every element, in element order."""
        blocks = self._elements.blocks
        return tuple(np.concatenate([blk[c] for blk in blocks]) if blocks
                     else np.empty(0, dtype) for c, dtype in
                     ((2, "<U1"), (3, np.int64), (4, np.int64), (5, float)))

    def counts(self):
        kind = self.columns()[0]
        return {k: int(np.count_nonzero(kind == k)) for k in _KINDS}

    def check_connected(self):
        """Every node must reach ground through element terminals."""
        _, a, b, _ = self.columns()
        n = self.node_count
        graph = sp.coo_matrix((np.ones(len(a)), (a, b)), shape=(n, n))
        _, component = connected_components(graph, directed=False)
        floating = np.flatnonzero(component != component[GROUND])
        if len(floating):
            labels = ", ".join(f"{self.nodes[k].tier}{self.nodes[k].position}"
                               for k in floating[:8])
            raise NetlistError(
                f"{len(floating)} node(s) not connected to ground (first: {labels})"
            )


# ---------------------------------------------------------------------------
# elementary parasitic formulas


def wire_resistance(wire, segment_length_um) -> float:
    """Resistance in ohms of one on-chip wire segment: rho * L / (t * w)."""
    if segment_length_um < 0:
        raise ValueError("segment length must be >= 0")
    area_m2 = (wire.thickness_um * 1e-6) * (wire.width_um * 1e-6)
    return wire.resistivity_ohm_m * (segment_length_um * 1e-6) / area_m2


def via_resistance(via) -> float:
    """Resistance in ohms of one via site (count_per_site vias in parallel)."""
    r_m = via.diameter_um * 1e-6 / 2.0
    single = via.resistivity_ohm_m * (via.height_um * 1e-6) / (math.pi * r_m * r_m)
    return single / via.count_per_site


def via_inductance(via) -> float:
    """Inductance in henries of one via site."""
    return via.inductance_per_via_ph * 1e-12 / via.count_per_site


def merged_sheet_resistance(pkg) -> float:
    """Ohms per square of the package P/G planes merged in parallel."""
    thickness_m = pkg.metal_layer_count * pkg.layer_thickness_mm * 1e-3
    return pkg.sheet_resistivity_ohm_m / thickness_m


# ---------------------------------------------------------------------------
# labels

_LABEL_RE = re.compile(r"^(?P<stem>[a-z0-9_]+?)(?:\[(?P<idx>[-0-9,]+)\])?$")

# stem -> tier, for round-tripping labels back to their place in the stack
LABEL_TIERS = {
    "chip_h": "chip", "chip_v": "chip", "load": "chip",
    "chip_decap_esr": "chip", "chip_decap_c": "chip",
    "c4_r": "chip", "c4_l": "chip",
    "pkg_h": "package_top", "pkg_v": "package_top", "pkg_lh": "package_top",
    "pkg_lv": "package_top", "pad": "package_top",
    "pkg_decap_esr": "package_top", "pkg_decap_esl": "package_top",
    "pkg_decap_c": "package_top",
    "tpv_r": "package_bottom", "tpv_l": "package_bottom",
    "solder_r": "package_bottom", "solder_l": "package_bottom",
    "board_r": "board", "board_l": "board",
    "board_decap_esr": "board", "board_decap_esl": "board", "board_decap_c": "board",
    "vrm_src": "vrm_die", "vrm_r": "vrm_die", "vrm_l": "vrm_die",
    "strap_r": "vrm_die", "strap_l": "vrm_die",
    "tsv_r": "vrm_die", "ubump_l": "vrm_die",
    "die_c4_r": "vrm_die", "die_c4_l": "vrm_die",
    "die_decap_esr": "vrm_die", "die_decap_esl": "vrm_die",
    "die_decap_c": "vrm_die",
}


def make_label(stem, *indices) -> str:
    if indices:
        return f"{stem}[{','.join(str(i) for i in indices)}]"
    return stem


def parse_label(label):
    """Split an element label into (stem, tier, index tuple or None)."""
    m = _LABEL_RE.match(label)
    if not m:
        raise NetlistError(f"unparseable element label: {label!r}")
    stem = m.group("stem")
    tier = LABEL_TIERS.get(stem)
    if tier is None:
        raise NetlistError(f"label stem {stem!r} has no registered tier: {label!r}")
    idx = m.group("idx")
    indices = tuple(int(t) for t in idx.split(",")) if idx else None
    return stem, tier, indices


# ---------------------------------------------------------------------------
# text export: one element per line "kind a b value label"


def netlist_to_text(net: Netlist) -> str:
    lines = [f"* pdnsim netlist: {net.node_count} nodes, {len(net.elements)} elements"]
    for e in net.elements:
        lines.append(f"{e.kind} {e.a} {e.b} {e.value!r} {e.label}")
    for name, idx in net.probes.items():
        lines.append(f"* probe {name} {idx}")
    return "\n".join(lines) + "\n"


def netlist_from_text(text: str) -> Netlist:
    """Parse the text export back into a netlist (node metadata is not
    preserved; nodes are recreated as bare indices)."""
    net = Netlist()
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("*"):
            parts = line.split()
            if len(parts) == 4 and parts[1] == "probe":
                net.probes[parts[2]] = int(parts[3])
            continue
        rows.append(line.split(None, 4))
    if rows:
        kind, a, b, value, label = zip(*rows)
        a, b = [int(x) for x in a], [int(x) for x in b]
        net.add_elements(kind, a, b, [float(v) for v in value], label)
        while net.node_count <= max(max(a), max(b)):
            net.add_node("unknown")
    net.sources = np.flatnonzero(net.columns()[0] == VOLTAGE_SOURCE).tolist()
    return net
