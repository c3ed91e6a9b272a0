"""Flat RLC netlist representation.

Nodes are bare integer ids, dense from ground at 0.  Elements are
two-terminal, and capacitors and sources run from a node to ground (``b``
is ground); every element carries a provenance label of its stem and grid
position (``chip_h[12,7]``) for people reading the text export.  Labels are
the netlist's only provenance: a message names node ``k`` by its id and the
label of the first element on it (``node 2854 (c4_r[0,0])``), and the text
export prints both on that element's line.  Nothing parses labels back.
The line-oriented text export is bit-exact, diffable and write-only.

Elements are stored as a plain list of array blocks: a builder adds a whole
grid in one call, and readers take whole columns (``columns()``) and labels
(``labels()``); labels are made only when they are asked for.
"""

from __future__ import annotations

import math

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
_SHUNT = (CAPACITOR, CURRENT_SOURCE, VOLTAGE_SOURCE)  # b must be ground


class Netlist:
    """Nodes, two-terminal elements, named probes (name -> node index) and
    builder ``meta``."""

    def __init__(self):
        self.probes: dict[str, int] = {}
        self.meta: dict = {}
        self._elements = []   # blocks (kind, a, b, value, stem, index rows)
        self._node_count = 1  # ground

    @property
    def elements(self) -> list[tuple]:
        """Every element as a ``(kind, a, b, value, label)`` tuple of Python
        scalars, in element order.  Only the benchmark's element count reads
        it; the next change to the benchmark counts ``columns()`` instead
        and deletes it."""
        return list(zip(*(c.tolist() for c in self.columns()), self.labels()))

    @property
    def sources(self) -> list[int]:
        """Element indices of the voltage sources, in element order."""
        return np.flatnonzero(self.columns()[0] == VOLTAGE_SOURCE).tolist()

    @property
    def node_count(self):
        return self._node_count

    def add_nodes(self, shape):
        """New node ids, row-major in an array of ``shape``."""
        ids = np.arange(self._node_count, self._node_count + np.prod(shape, dtype=int))
        self._node_count += ids.size
        return ids.reshape(shape)

    def node_name(self, k) -> str:
        """Node ``k`` as messages name it: its id, and the label of the
        first element on it when there is one."""
        k = range(self._node_count)[k]
        _, a, b, _ = self.columns()
        on = np.flatnonzero((a == k) | (b == k))
        return f"node {k} ({self.labels()[on[0]]})" if len(on) else f"node {k}"

    def add_elements(self, kind, a, b, value, stem, *index):
        """Append the elements of broadcast column arrays in row-major order;
        each is labelled ``make_label(stem, *index)`` of its row.  A
        capacitor or source whose ``b`` is not ground raises NetlistError."""
        kind, a, b, value, stem, *index = (
            np.ravel(c) for c in np.broadcast_arrays(kind, a, b, value, stem, *index))
        a, b, value = a.astype(np.int64), b.astype(np.int64), value.astype(float)
        index = np.stack(index, axis=1).astype(np.int64) if index else None
        bad_kind, non_finite = ~np.isin(kind, _KINDS), ~np.isfinite(value)
        floating = np.isin(kind, _SHUNT) & (b != GROUND)
        bad = bad_kind | (a == b) | floating | non_finite | (np.isin(kind, _PASSIVE) & ~(value > 0))
        if bad.any():
            k = int(np.argmax(bad))
            label = str(stem[k]) if index is None else make_label(stem[k], *index[k].tolist())
            if bad_kind[k]:
                raise NetlistError(f"unknown element kind {str(kind[k])!r} ({label})")
            if a[k] == b[k]:
                raise NetlistError(f"element terminals must differ ({label})")
            if floating[k]:
                raise NetlistError(f"{kind[k]} element must run from a node to ground ({label})")
            if non_finite[k]:
                raise NetlistError(
                    f"element value must be finite ({label}: {float(value[k])})")
            raise NetlistError(
                f"passive element value must be > 0 ({label}: {float(value[k])})")
        self._elements.append((kind, a, b, value, stem, index))

    def columns(self):
        """``(kind, a, b, value)`` arrays of every element, in element order."""
        blocks = self._elements
        return tuple(np.concatenate([blk[c] for blk in blocks]) if blocks
                     else np.empty(0, dtype) for c, dtype in
                     ((0, "<U1"), (1, np.int64), (2, np.int64), (3, float)))

    def labels(self) -> list[str]:
        """Every element label, in element order."""
        labels = []
        for *_, stem, index in self._elements:
            labels.extend(stem.tolist() if index is None else
                          [make_label(s, *ix) for s, ix in zip(stem.tolist(), index.tolist())])
        return labels

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
            labels = ", ".join(self.node_name(k) for k in floating[:8])
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
    return f"{stem}[{','.join(str(i) for i in indices)}]"


def netlist_to_text(net: Netlist) -> str:
    kind, a, b, value = (c.tolist() for c in net.columns())
    lines = [f"* pdnsim netlist: {net.node_count} nodes, {len(kind)} elements"]
    lines.extend(f"{k} {x} {y} {v!r} {label}"
                 for k, x, y, v, label in zip(kind, a, b, value, net.labels()))
    for name, idx in net.probes.items():
        lines.append(f"* probe {name} {idx}")
    return "\n".join(lines) + "\n"
