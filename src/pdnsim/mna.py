"""Modified nodal analysis: DC operating point and fixed-step transient.

Unknown vector layout: node voltages for nodes 1..N-1 (ground eliminated),
followed by one branch current per inductor and per voltage source.  The
matrix is structurally symmetric; branch rows carry the element equation
``v_a - v_b - z*j = e`` with ``z`` the companion impedance (0 in DC).

Trapezoidal companion models (fixed step dt, second order; Nagel, SPICE2,
UCB/ERL M520, 1975), from the previous step's branch voltage v and current j:

* capacitor: ``g = 2C/dt``, history current ``I_eq <- 2g·v - I_eq``.
* inductor: ``z = 2L/dt``, ``e = -v - z·j``.

The system matrix is constant over a transient run (linear network, fixed
step), so it is factorized once and each step is a single backsolve.  Solves
are sequential and deterministic: identical inputs give bit-identical
results on one platform.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import RequestError, SolverError
from .netlist import (CAPACITOR, CURRENT_SOURCE, GROUND, INDUCTOR, RESISTOR,
                      VOLTAGE_SOURCE, Netlist)

DEFAULT_RISE_S = 1e-9
MAX_STEPS = 10**6  # 125x the default window; ~70 MB of per-step arrays at 50x50


@dataclass(frozen=True)
class Stimulus:
    """Drive of a transient run: every VRM voltage source ramps linearly
    from v_start to v_end over rise_time, then holds; each source's netlist
    value must equal v_end (``transient_solve`` checks).  A run starts at
    rest at v_start, every branch current zero: ``v_start = v_end`` is the
    warm start.

    The tile load currents activate only after the rail is energized: each
    current source ramps linearly from zero to its netlist value over
    ``load_rise_s`` starting at ``load_delay_s``, as the active circuitry
    cannot draw its switching current while the rail is still coming up.
    The delay does not keep the power-on transient out of the noise
    metrics: on a cold start the on-chip decaps are still charging after
    the source ramp, and that deficit sets max PSN before any load current
    flows, so it reads the same at 0.25x and 1x chip power.
    """

    kind: str = "step"  # the one kind; kept for callers that name it
    v_start: float = 0.0
    v_end: float = 1.0
    rise_time_s: float = DEFAULT_RISE_S
    load_delay_s: float = 5e-9
    load_rise_s: float = 0.35e-9

    def __post_init__(self):
        if self.kind != "step":
            raise ValueError(f"unknown stimulus kind {self.kind!r}")
        for f in fields(self):
            if f.name != "kind" and not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"stimulus {f.name} must be finite "
                                 f"(got {getattr(self, f.name)})")
        for name in ("rise_time_s", "load_rise_s"):
            if not getattr(self, name) > 0:
                raise ValueError(f"stimulus requires {name} > 0")

    def load_factor(self, t):
        """Fraction of the nominal load current drawn at time(s) ``t``."""
        return np.clip((t - self.load_delay_s) / self.load_rise_s, 0.0, 1.0)

    def voltage(self, t):
        """Source voltage at time(s) ``t``."""
        return self.v_start + (self.v_end - self.v_start) * np.clip(t / self.rise_time_s, 0.0, 1.0)


class MnaSystem:
    """Stamped sparse MNA system plus the index arrays and full-load
    vector the solvers assemble each right-hand side from."""

    def __init__(self, netlist: Netlist, mode="dc", dt=None):
        if mode not in ("dc", "transient"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "transient" and (dt is None or not 0 < dt < np.inf):
            raise ValueError(f"transient mode requires a finite dt > 0 (got {dt})")
        # scipy is imported on first use, here and in factorize, not with
        # the module: it costs about 0.3 s, and importing pdnsim, building
        # configs and `validate` need only numpy
        import scipy.sparse as sp

        self.netlist = netlist

        self.n_nodes = n_nodes = netlist.node_count - 1  # ground eliminated

        kind, a, b, value = netlist.columns()
        a, b = a - 1, b - 1  # matrix rows; ground (0) -> -1, dropped below
        is_l, is_v = kind == INDUCTOR, kind == VOLTAGE_SOURCE
        is_c = kind == CAPACITOR if mode == "transient" else np.zeros(len(kind), bool)
        is_g = (kind == RESISTOR) | is_c
        # one branch row per inductor and voltage source, in element order
        branch_elems = np.flatnonzero(is_l | is_v)
        br = np.full(len(kind), -1)
        br[branch_elems] = n_nodes + np.arange(len(branch_elems))
        self.dim = n_nodes + len(branch_elems)

        g = np.divide(1.0, value, out=np.zeros(len(kind)), where=kind == RESISTOR)
        g[is_c] = 2.0 * value[is_c] / dt
        z = np.zeros(len(kind))
        z[is_l] = 2.0 * value[is_l] / dt if mode == "transient" else 0.0
        # per-element stamp blocks, -1 marking ground or an unused slot:
        # conductance (a,a) (b,b) (a,b) (b,a); branch (a,br) (b,br) (br,a)
        # (br,b) and, for inductors, (br,br).  Flattened in element order,
        # so duplicate entries are always summed in the same order.
        none, one, br_l = np.full(len(kind), -1), np.ones(len(kind)), np.where(is_l, br, -1)
        is_g = is_g[:, None]
        rows = np.where(is_g, np.stack([a, b, a, b, none], 1), np.stack([a, b, br, br, br_l], 1))
        cols = np.where(is_g, np.stack([a, b, b, a, none], 1), np.stack([br, br, a, b, br_l], 1))
        vals = np.where(is_g, np.stack([g, g, -g, -g, g], 1),
                        np.stack([one, -one, one, -one, -z], 1))
        keep = (rows >= 0) & (cols >= 0)
        self.matrix = sp.coo_matrix(
            (vals[keep], (rows[keep], cols[keep])), shape=(self.dim, self.dim)
        ).tocsc()

        self.ind_rows, self.ind_a, self.ind_b, self.ind_z = br[is_l], a[is_l], b[is_l], z[is_l]
        self.vsrc_rows, self.vsrc_vals = br[is_v], value[is_v]
        self.cap_a, self.cap_b, self.cap_g = a[is_c], b[is_c], g[is_c]
        # the rows each step's history terms land on, in the order they are
        # added: +I_eq on cap_a, -I_eq on cap_b, then the inductor terms
        self.hist_rows = np.concatenate((self.cap_a, self.cap_b, self.ind_rows))
        # current-source injections at full load, with one trailing entry
        # for ground: row -1 soaks up the ground-side injections
        is_i = kind == CURRENT_SOURCE
        self.load_rhs = np.zeros(self.dim + 1)
        np.add.at(self.load_rhs, a[is_i], -value[is_i])
        np.add.at(self.load_rhs, b[is_i], value[is_i])

    def factorize(self):
        import scipy.sparse.linalg as spla

        try:
            return spla.splu(self.matrix)
        except RuntimeError as exc:
            raise SolverError(self._singular_diagnostic(str(exc))) from exc

    def _singular_diagnostic(self, detail):
        diag = np.abs(self.matrix.diagonal())
        node_diag = diag[: self.n_nodes]
        worst = np.argsort(node_diag)[:8]
        names = [self.netlist.node_name(int(r) + 1) for r in worst]
        return (f"singular MNA matrix ({detail}); smallest-diagonal node "
                f"cluster: {', '.join(names)}")


def stamp_mna(netlist: Netlist, mode="dc", dt=None) -> MnaSystem:
    """``MnaSystem(netlist, mode, dt)``.  Only the benchmark's traced runs
    and the tests call it; it goes when the benchmark reads its stage
    counts from the result instead of stamping again."""
    return MnaSystem(netlist, mode=mode, dt=dt)


@dataclass
class DcSolution:
    """Operating point: node voltages indexed by netlist node id (ground
    included as entry 0) and voltage-source branch currents in
    ``netlist.sources`` order."""

    voltages: np.ndarray
    source_currents: np.ndarray
    kcl_residual: float


def dc_solve(netlist: Netlist) -> DcSolution:
    """Sparse-LU DC operating point with a KCL residual check."""
    sys_ = MnaSystem(netlist, mode="dc")
    lu = sys_.factorize()
    rhs = sys_.load_rhs[:-1].copy()
    rhs[sys_.vsrc_rows] = sys_.vsrc_vals
    x = lu.solve(rhs)
    if not np.all(np.isfinite(x)):
        raise SolverError(sys_._singular_diagnostic("non-finite solution"))
    # Iterative refinement with the residual accumulated in extended
    # precision: high-degree nodes (thousands of stiff branches) sum terms
    # orders of magnitude above the net current, so a float64 dot product
    # alone cannot resolve residuals near the accuracy target.  Each
    # iterate keeps its residual, which also gives the next correction.
    A_ext = sys_.matrix.astype(np.longdouble)
    rhs_ext = rhs.astype(np.longdouble)
    resid = A_ext @ x.astype(np.longdouble) - rhs_ext
    best_r = float(np.max(np.abs(resid)))
    for _ in range(4):
        x_new = x + lu.solve(-resid.astype(float))
        resid_new = A_ext @ x_new.astype(np.longdouble) - rhs_ext
        r = float(np.max(np.abs(resid_new)))
        if not r < best_r:
            break
        x, resid, best_r = x_new, resid_new, r

    kcl = float(np.max(np.abs(resid[: sys_.n_nodes]))) if sys_.n_nodes else 0.0
    voltages = np.concatenate(([0.0], x[: sys_.n_nodes]))
    return DcSolution(voltages=voltages, source_currents=x[sys_.vsrc_rows],
                      kcl_residual=kcl)


@dataclass
class TransientWaveform:
    """Probe voltage series under a stimulus, uniform time step."""

    time_s: np.ndarray
    series: dict                   # probe name -> voltage array
    ramp_end_s: float
    tile_min: np.ndarray           # per chip tile min voltage after ramp,
    tile_final: np.ndarray         # and at t_end; shape (0,) without tiles


def _check_warm_start(netlist: Netlist, v):
    """Raise ``ValueError`` unless every node at ``v`` with every branch
    current at zero is an operating point of ``netlist``."""
    kind, a, b, _ = netlist.columns()
    grounded = (a == GROUND) | (b == GROUND)  # never both: terminals differ
    bad_rl = ((kind == RESISTOR) | (kind == INDUCTOR)) & grounded
    bad = bad_rl | ((kind == VOLTAGE_SOURCE) & (b != GROUND))
    if bad.any():
        k = int(np.argmax(bad))
        why = ("has a terminal on ground" if bad_rl[k]
               else "does not run from a node to ground")
        raise ValueError(f"a start with every node at {v} V is not an operating "
                         f"point: {netlist.labels()[k]} {why}")


def transient_steps(dt, t_end, init="cold") -> int:
    """Step count of a transient request, ``round(t_end / dt)``: the run
    ends at ``dt`` times it.  Raises ``RequestError`` unless dt and t_end are
    finite and > 0, they span at least one step and at most ``MAX_STEPS``,
    and ``init`` is cold or warm."""
    for name, value in (("dt", dt), ("t_end", t_end)):
        if not 0 < value < np.inf:
            raise RequestError(f"{name} must be finite and > 0 (got {value})")
    if not (steps := t_end / dt) <= MAX_STEPS:  # inf for a subnormal dt: round(inf) raises
        raise RequestError(f"t_end must span at most {MAX_STEPS} steps (got t_end={t_end}, dt={dt})")
    n_steps = int(round(steps))
    if n_steps < 1:
        raise RequestError(f"t_end must span at least one step (got t_end={t_end}, dt={dt})")
    if init not in ("cold", "warm"):
        raise RequestError(f"unknown init {init!r}")
    return n_steps


def transient_solve(netlist: Netlist, stimulus: Stimulus, dt, t_end,
                    method="trap", probes=(), init="cold") -> TransientWaveform:
    """Fixed-step trapezoidal transient simulation of ``transient_steps``
    steps.  ``method`` accepts only ``"trap"``, the one integration rule.

    Every run drives the VRM sources with ``stimulus.voltage`` and starts
    at rest at ``v_start``: every non-ground node there, every branch
    current zero.  ``init="cold"`` takes the stimulus as given (from
    ``v_start = 0``, the power-up experiment); ``init="warm"`` sets
    ``v_start = v_end``, so the response is the pure load step, as in
    decap sweeps.  A nonzero start is an operating point only when no
    resistor or inductor touches ground and every voltage source runs from
    a node to ground; on any other netlist it raises ``ValueError`` naming
    the first element that breaks this.  Every source ends at
    ``stimulus.v_end``, so a source whose netlist value differs raises
    ``ValueError`` naming it.  The loads switch on per
    ``stimulus.load_factor``; the tile minima count from the source ramp's
    end, t=0 for a drive that starts at v_end.

    Records voltage series for ``probes`` (netlist probe names; none by
    default) and the post-ramp minimum and final voltage of each chip tile.
    """
    n_steps = transient_steps(dt, t_end, init)
    if method != "trap":
        raise ValueError(f"unknown integration method {method!r}")
    if init == "warm":
        stimulus = replace(stimulus, v_start=stimulus.v_end)
    v0 = stimulus.voltage(0.0)
    if v0 != 0.0:
        _check_warm_start(netlist, v0)
    sys_ = MnaSystem(netlist, mode="transient", dt=dt)
    off = np.flatnonzero(sys_.vsrc_vals != stimulus.v_end)
    if len(off):
        k = int(off[0])
        raise ValueError(
            f"{netlist.labels()[netlist.sources[k]]} is {sys_.vsrc_vals[k]} V in the "
            f"netlist, but the stimulus drives it at v_end = {stimulus.v_end} V")
    lu = sys_.factorize()

    times = dt * np.arange(n_steps + 1)

    for name in probes:
        if name not in netlist.probes:
            raise KeyError(f"unknown probe {name!r}")
    n_probes = len(probes)
    tiles = np.asarray(netlist.meta.get("chip_tile_nodes", ()), dtype=np.int64)
    # the probe rows, then the chip tile rows: one gather from x per step
    rows = np.array([*(netlist.probes[p] for p in probes), *tiles.ravel()],
                    dtype=np.int64) - 1

    # x and rhs carry one trailing entry that stands for ground: row -1
    # reads 0.0 from x and soaks up ground injections in rhs, so the step
    # loop needs no ground masks
    x = np.zeros(sys_.dim + 1)
    x[: sys_.n_nodes] = v0

    cap_a, cap_b, cap_g = sys_.cap_a, sys_.cap_b, sys_.cap_g
    cap_w = 2.0 * cap_g
    # capacitor companions carry the standing voltage of the start, so a
    # start at rest injects no spurious transient at t=0
    cap_ieq = cap_g * (x[cap_a] - x[cap_b])
    ind_rows, ind_a, ind_b, ind_z = sys_.ind_rows, sys_.ind_a, sys_.ind_b, sys_.ind_z
    ind_e = np.zeros(len(ind_rows))

    # the load factor and source voltage at every step, one scalar each
    load = stimulus.load_factor(times)
    drive = stimulus.voltage(times)

    recorded = np.empty((n_steps + 1, n_probes))
    recorded[0] = x[rows[:n_probes]]

    ramp_end = 0.0 if stimulus.v_start == stimulus.v_end else stimulus.rise_time_s
    tile_min = np.full(len(rows) - n_probes, np.inf)

    for step in range(1, n_steps + 1):
        t = times[step]
        rhs = sys_.load_rhs * load[step]
        np.add.at(rhs, sys_.hist_rows, np.concatenate((cap_ieq, -cap_ieq, ind_e)))
        rhs[sys_.vsrc_rows] = drive[step]

        x[:-1] = lu.solve(rhs[:-1])

        vmax = float(np.max(np.abs(x[: sys_.n_nodes])))
        if not np.isfinite(vmax):
            raise SolverError(
                f"transient diverged at t={t:.3e}s (|v|max={vmax:.3e}); "
                f"dt={dt:.3e} — reduce dt")

        cap_ieq = cap_w * (x[cap_a] - x[cap_b]) - cap_ieq
        ind_e = -(x[ind_a] - x[ind_b]) - ind_z * x[ind_rows]

        seen = x[rows]
        recorded[step] = seen[:n_probes]
        if t >= ramp_end:
            np.minimum(tile_min, seen[n_probes:], out=tile_min)

    series = {name: recorded[:, k].copy() for k, name in enumerate(probes)}
    return TransientWaveform(time_s=times, series=series, ramp_end_s=ramp_end,
                             tile_min=tile_min.reshape(tiles.shape),
                             tile_final=seen[n_probes:].reshape(tiles.shape))


def csv_text(header, rows) -> str:
    """CSV text: the ``header`` names, then one line per row of ``rows``.
    Numbers are written in full precision (17 significant digits), strings
    as given and ``None`` as an empty cell."""
    lines = [",".join(header)]
    lines.extend(",".join("" if v is None else v if isinstance(v, str) else f"{v:.17g}"
                          for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def waveform_to_csv(wf: TransientWaveform) -> str:
    """CSV export: ``time_s,probe,...`` one row per step, full precision."""
    return csv_text(["time_s", *wf.series], zip(wf.time_s, *wf.series.values()))
