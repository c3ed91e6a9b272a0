"""Flat RLC netlist representation.

Nodes are dense integer ids with ground reserved at 0; each node carries
its tier and position.  Elements are two-terminal; every element carries a
provenance label of its stem and grid position (``chip_h[12,7]``) for
people reading the text export.  Labels are provenance only: nothing parses
them back, and the tier of an element is the tier of its nodes.  The
line-oriented text export is bit-exact, diffable and write-only.

Both are stored as appended blocks of arrays: a builder adds a whole grid
in one call, and labels and ``Node``/``Element`` records are made only when
text or records are asked for.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

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
    """Nodes, two-terminal elements, named probes (name -> node index) and
    builder ``meta``."""

    def __init__(self):
        self.probes: dict[str, int] = {}
        self.meta: dict = {}
        self._nodes = _Blocks(_node_records)
        self._elements = _Blocks(_element_records)
        self.add_node("ground")

    @property
    def nodes(self) -> Sequence[Node]:
        return self._nodes

    @property
    def elements(self) -> Sequence[Element]:
        return self._elements

    @property
    def sources(self) -> list[int]:
        """Element indices of the voltage sources, in element order."""
        return np.flatnonzero(self.columns()[0] == VOLTAGE_SOURCE).tolist()

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
        bad_kind, non_finite = ~np.isin(kind, _KINDS), ~np.isfinite(value)
        bad = bad_kind | (a == b) | non_finite | (np.isin(kind, _PASSIVE) & ~(value > 0))
        if bad.any():
            k = int(np.argmax(bad))
            label = str(stem[k]) if index is None else make_label(stem[k], *index[k].tolist())
            if bad_kind[k]:
                raise NetlistError(f"unknown element kind {str(kind[k])!r} ({label})")
            if a[k] == b[k]:
                raise NetlistError(f"element terminals must differ ({label})")
            if non_finite[k]:
                raise NetlistError(
                    f"element value must be finite ({label}: {float(value[k])})")
            raise NetlistError(
                f"passive element value must be > 0 ({label}: {float(value[k])})")
        return self._elements.append(len(kind), kind, a, b, value, stem, index)

    def columns(self):
        """``(kind, a, b, value)`` arrays of every element, in element order."""
        blocks = self._elements.blocks
        return tuple(np.concatenate([blk[c] for blk in blocks]) if blocks
                     else np.empty(0, dtype) for c, dtype in
                     ((2, "<U1"), (3, np.int64), (4, np.int64), (5, float)))

    def check_connected(self):
        """Every node must reach ground through element terminals."""
        # scipy is imported here, on first use, not with the module: it
        # costs about 0.3 s, and config work and `validate` need only numpy
        import scipy.sparse as sp
        from scipy.sparse.csgraph import connected_components

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
# labels and text export: one element per line "kind a b value label"


def make_label(stem, *indices) -> str:
    if indices:
        return f"{stem}[{','.join(str(i) for i in indices)}]"
    return stem


def netlist_to_text(net: Netlist) -> str:
    lines = [f"* pdnsim netlist: {net.node_count} nodes, {len(net.elements)} elements"]
    for e in net.elements:
        lines.append(f"{e.kind} {e.a} {e.b} {e.value!r} {e.label}")
    for name, idx in net.probes.items():
        lines.append(f"* probe {name} {idx}")
    return "\n".join(lines) + "\n"
