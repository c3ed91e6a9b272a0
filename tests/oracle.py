"""Independent reference implementations used by the test suite.

Everything here is deliberately written against the production solver's
grain: the DC and transient references build the dense descriptor
matrices ``G`` and ``C`` with the ground row kept and overwritten by a
Dirichlet condition, and solve with LAPACK via ``numpy.linalg.solve``,
integrating ``G x + C x' = b(t)`` as a whole rather than stamping one
companion model per element; the other transient references are
closed-form textbook step responses, ``kcl_audit`` checks KCL on a
benchmark-scale run with every element current rebuilt from its own law,
and ``z_transform_check`` checks a whole benchmark-scale trajectory against
one nodal solve in the z-domain.  Agreement between these and the sparse
solver is evidence, not tautology.
"""

import numpy as np

from pdnsim.mna import Stimulus
from pdnsim.netlist import (CAPACITOR, CURRENT_SOURCE, GROUND, INDUCTOR,
                            RESISTOR, VOLTAGE_SOURCE, Netlist)


def _descriptor(netlist):
    """Dense ``G``, ``C`` and ``b`` of the descriptor form ``G x + C x' =
    b(t)``, with the ground row and column overwritten by a Dirichlet
    condition.

    Unknowns: every node voltage (ground kept), then one branch current per
    inductor and voltage source, in element order.  ``b`` holds the
    current-source injections at full load; the voltage-source rows
    ``v_rows`` take the source values ``v_vals``, which are left out of
    ``b``.
    """
    n = netlist.node_count
    kind, a, b, value = (c.tolist() for c in netlist.columns())
    branches = [k for k, kd in enumerate(kind) if kd in (INDUCTOR, VOLTAGE_SOURCE)]
    dim = n + len(branches)
    G, C = np.zeros((dim, dim)), np.zeros((dim, dim))
    rhs = np.zeros(dim)

    for kd, i, j, v in zip(kind, a, b, value):
        if kd in (RESISTOR, CAPACITOR):
            M, g = (G, 1.0 / v) if kd == RESISTOR else (C, v)
            M[i, i] += g
            M[j, j] += g
            M[i, j] -= g
            M[j, i] -= g
        elif kd == CURRENT_SOURCE:
            rhs[i] -= v
            rhs[j] += v

    for row, k in enumerate(branches, start=n):
        i, j = a[k], b[k]
        G[i, row] += 1.0
        G[j, row] -= 1.0
        G[row, i] += 1.0
        G[row, j] -= 1.0
        if kind[k] == INDUCTOR:
            C[row, row] -= value[k]     # v_a - v_b - L j' = 0

    # Dirichlet ground: overwrite the ground KCL row instead of deleting it
    G[GROUND, :] = G[:, GROUND] = C[GROUND, :] = C[:, GROUND] = 0.0
    G[GROUND, GROUND] = 1.0
    rhs[GROUND] = 0.0
    v_rows = [row for row, k in enumerate(branches, start=n) if kind[k] == VOLTAGE_SOURCE]
    return G, C, rhs, v_rows, [value[k] for k in netlist.sources]


def dense_dc(netlist):
    """Brute-force DC nodal analysis, dense, ground row kept.

    Returns the node-voltage vector indexed by netlist node id (ground
    entry 0).  Inductors are treated as 0 V sources; capacitors are open.
    """
    G, _, rhs, v_rows, v_vals = _descriptor(netlist)
    rhs[v_rows] = v_vals
    x = np.linalg.solve(G, rhs)
    return x[:netlist.node_count]


def held_stimulus(v, dt):
    """A stimulus that has the sources at ``v`` and the loads fully on from
    the first step of ``dt`` onward, as if both had been held there from
    t=0: the ramps end at the first step, and the t=0 sample is the initial
    state."""
    return Stimulus(v_end=v, rise_time_s=dt, load_delay_s=0.0, load_rise_s=dt)


def dense_transient(netlist, stimulus, dt, t_end, init="cold"):
    """Fixed-step trapezoidal transient of the dense descriptor form
    ``G x + C x' = b(t)``, one ``numpy.linalg.solve`` per step.

    The trapezoidal rule is applied to ``y = C x'`` alone, so the algebraic
    rows hold exactly at every step, cold start included:
    ``(G + 2C/dt) x1 = b(t1) + (2C/dt) x0 + y0`` and then
    ``y1 = (2C/dt)(x1 - x0) - y0``, starting from ``y = 0``.

    ``init="cold"`` starts from zero with the sources driven by
    ``stimulus``; ``init="warm"`` starts with every node at ``v_end`` and
    every branch current at zero, sources held at ``v_end``.  The loads
    follow ``stimulus.load_factor`` in both.  Returns ``(times, v)`` with
    ``v[step, node]`` the node voltages, ground included.
    """
    G, C, load, v_rows, _ = _descriptor(netlist)
    n = netlist.node_count
    times = dt * np.arange(int(round(t_end / dt)) + 1)
    c_dt = 2.0 * C / dt
    M = G + c_dt
    x, y = np.zeros(len(load)), np.zeros(len(load))
    if init == "warm":
        x[1:n] = stimulus.v_end
    v = np.empty((len(times), n))
    v[0] = x[:n]
    for step, t in enumerate(times[1:], start=1):
        rhs = load * stimulus.load_factor(t)
        rhs[v_rows] = stimulus.v_end if init == "warm" else stimulus.voltage(t)
        x_new = np.linalg.solve(M, rhs + c_dt @ x + y)
        y = c_dt @ (x_new - x) - y
        x = x_new
        v[step] = x[:n]
    return times, v


def series_chain(*elems):
    """1 V source - elem1 - elem2 - ... - ground, each ``(kind, value)``,
    with probes n0, n1, ... at the nodes between elements."""
    net = Netlist()
    nodes = [*net.add_nodes(len(elems)).tolist(), GROUND]
    net.add_elements(VOLTAGE_SOURCE, nodes[0], GROUND, 1.0, "vrm_src[0]")
    stems = {RESISTOR: "chip_h", INDUCTOR: "pkg_lh", CAPACITOR: "chip_decap_c"}
    for k, (kind, val) in enumerate(elems):
        net.add_elements(kind, nodes[k], nodes[k + 1], val, f"{stems[kind]}[{k},0]")
        if k < len(elems) - 1:
            net.probes[f"n{k}"] = nodes[k + 1]
    return net


def rc_step_voltage(t, v_step, r, c):
    """Capacitor voltage for an ideal step through a series resistor."""
    return v_step * (1.0 - np.exp(-np.asarray(t) / (r * c)))


def rl_mid_voltage(t, v_step, r, l):
    """Voltage at the R-L junction of a series R-L step (source - R - L - gnd)."""
    return v_step * np.exp(-np.asarray(t) * r / l)


def rlc_cap_voltage(t, v_step, r, l, c):
    """Capacitor voltage of an underdamped series RLC step response."""
    alpha = r / (2.0 * l)
    w0 = 1.0 / np.sqrt(l * c)
    if alpha >= w0:
        raise ValueError("not underdamped")
    wd = np.sqrt(w0 * w0 - alpha * alpha)
    t = np.asarray(t)
    return v_step * (1.0 - np.exp(-alpha * t)
                     * (np.cos(wd * t) + (alpha / wd) * np.sin(wd * t)))


def random_dc_netlist(rng, max_nodes=10):
    """Random connected netlist with a guaranteed unique DC solution.

    A resistor spanning tree keeps every node resistively connected to
    ground; extra resistors, current sources, one grounded voltage source
    and loop-free inductors are sprinkled on top.
    """
    from pdnsim.netlist import Netlist

    net = Netlist()
    n_extra = int(rng.integers(2, max_nodes))   # nodes beyond ground
    nodes = [GROUND, *net.add_nodes(n_extra).tolist()]

    def rnd_r():
        return float(10.0 ** rng.uniform(-3, 3))

    # spanning tree of resistors
    for k in range(1, len(nodes)):
        other = nodes[int(rng.integers(0, k))]
        net.add_elements(RESISTOR, nodes[k], other, rnd_r(), f"chip_h[{k},0]")

    # extra resistors
    for k in range(int(rng.integers(0, 2 * n_extra))):
        a, b = rng.choice(len(nodes), size=2, replace=False)
        net.add_elements(RESISTOR, nodes[int(a)], nodes[int(b)], rnd_r(), f"chip_v[{k},0]")

    # one grounded voltage source
    vn = nodes[int(rng.integers(1, len(nodes)))]
    net.add_elements(VOLTAGE_SOURCE, vn, GROUND, float(rng.uniform(0.5, 2.0)), "vrm_src[0]")

    # current sources
    for k in range(int(rng.integers(1, n_extra + 1))):
        a = nodes[int(rng.integers(1, len(nodes)))]
        net.add_elements(CURRENT_SOURCE, a, GROUND, float(rng.uniform(0.01, 2.0)),
                         f"load[{k},0]")

    # inductors, kept loop-free among the zero-DC-impedance edges (V and L)
    # via union-find so the DC matrix stays nonsingular
    parent = list(range(net.node_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    _, src_a, src_b, _ = net.columns()
    for i in net.sources:
        parent[find(int(src_a[i]))] = find(int(src_b[i]))
    for k in range(int(rng.integers(0, 3))):
        a, b = (int(x) for x in rng.choice(len(nodes), size=2, replace=False))
        ra, rb = find(nodes[a]), find(nodes[b])
        if ra == rb:
            continue
        parent[ra] = rb
        net.add_elements(INDUCTOR, nodes[a], nodes[b], float(10.0 ** rng.uniform(-10, -7)),
                         f"pkg_lh[{k},0]")

    # capacitors are DC-invisible but exercise the stamper's open-circuit path
    for k in range(int(rng.integers(0, 3))):
        a = nodes[int(rng.integers(1, len(nodes)))]
        net.add_elements(CAPACITOR, a, GROUND, float(10.0 ** rng.uniform(-12, -9)),
                         f"chip_decap_c[{k},0]")
    return net


def random_transient_netlist(rng, max_nodes=10, reroot=False):
    """``random_dc_netlist`` plus grounded capacitors, R-L-C decap chains
    to ground and R-L chains between two nodes, the shapes the builder
    makes.

    With ``reroot``, every resistor or inductor terminal on ground moves to
    the voltage source's node (an element left with equal terminals is
    dropped), so no resistor or inductor touches ground and the netlist
    admits a warm start.
    """
    from pdnsim.netlist import Netlist

    base = random_dc_netlist(rng, max_nodes)
    kind, a, b, value = base.columns()
    if reroot:
        vn = a[base.sources[0]]
        rl = (kind == RESISTOR) | (kind == INDUCTOR)
        a, b = (np.where(rl & (t == GROUND), vn, t) for t in (a, b))
    keep = a != b
    net = Netlist()
    nodes = net.add_nodes(base.node_count - 1)
    net.add_elements(kind[keep], a[keep], b[keep], value[keep],
                     np.array(base.labels())[keep])

    def log_uniform(lo, hi):
        return float(10.0 ** rng.uniform(lo, hi))

    for k in range(int(rng.integers(0, 3))):
        net.add_elements(CAPACITOR, int(rng.choice(nodes)), GROUND,
                         log_uniform(-12, -9), "chip_decap_c", k, 1)
    for k in range(int(rng.integers(0, 3))):
        node, (mid1, mid2) = int(rng.choice(nodes)), net.add_nodes(2)
        net.add_elements([RESISTOR, INDUCTOR, CAPACITOR], [node, mid1, mid2],
                         [mid1, mid2, GROUND],
                         [log_uniform(-3, 0), log_uniform(-12, -9), log_uniform(-12, -9)],
                         ["decap_esr", "decap_esl", "decap_c"], k)
    for k in range(int(rng.integers(0, 3))):
        i, j = (int(n) for n in rng.choice(nodes, size=2, replace=False))
        (mid,) = net.add_nodes(1)
        net.add_elements([RESISTOR, INDUCTOR], [i, mid], [mid, j],
                         [log_uniform(-3, 0), log_uniform(-12, -9)], ["bump_r", "bump_l"], k)
    return net


def kcl_audit(netlist, stimulus, dt, t_end, init="cold", tamper=None):
    """Largest KCL residual and largest branch current, in A, of a
    ``transient_solve`` run, rebuilt from the element laws alone.

    Every node is recorded through a probe added to ``netlist``.  Each
    element's current, from terminal a to b, is then rebuilt from
    ``Netlist.columns()``: a resistor's is ``v/R``; a capacitor's follows
    ``i1 = (2C/dt)(v1 - v0) - i0`` and an inductor's ``j1 = j0 +
    (dt/2L)(v1 + v0)``, from ``i = j = 0`` at the recorded t=0 state; a
    load's is ``value * load_factor(t)``.  KCL is checked at every step at
    every node that has no source terminal.  ``tamper`` names one element
    whose value the audit takes as 1.001 times the netlist's, so a test can
    show that a 0.1% error in one element law is seen.
    """
    from pdnsim.mna import transient_solve

    probes = [f"kcl_audit_v{n}" for n in range(1, netlist.node_count)]
    netlist.probes.update(zip(probes, range(1, netlist.node_count)))
    wf = transient_solve(netlist, stimulus, dt, t_end, probes=probes, init=init)
    v = np.column_stack([np.zeros(len(wf.time_s)), *(wf.series[p] for p in probes)])

    kind, a, b, value = netlist.columns()
    value = value.copy()
    if tamper is not None:
        value[tamper] *= 1.001
    is_r, is_c, is_l, is_i = (kind == k for k in (RESISTOR, CAPACITOR, INDUCTOR,
                                                  CURRENT_SOURCE))
    audited = np.ones(netlist.node_count, bool)
    audited[GROUND] = False
    audited[a[kind == VOLTAGE_SOURCE]] = audited[b[kind == VOLTAGE_SOURCE]] = False

    g_c, k_l = 2.0 * value[is_c] / dt, dt / (2.0 * value[is_l])
    current = np.zeros(len(kind))   # voltage sources stay 0: their nodes are skipped
    residual = largest = 0.0
    v0 = v[0, a] - v[0, b]
    for step, t in enumerate(wf.time_s[1:], start=1):
        v1 = v[step, a] - v[step, b]
        current[is_r] = v1[is_r] / value[is_r]
        current[is_c] = g_c * (v1[is_c] - v0[is_c]) - current[is_c]
        current[is_l] += k_l * (v1[is_l] + v0[is_l])
        current[is_i] = value[is_i] * stimulus.load_factor(t)
        net_out = (np.bincount(a, current, netlist.node_count)
                   - np.bincount(b, current, netlist.node_count))
        residual = max(residual, float(np.max(np.abs(net_out[audited]))))
        largest = max(largest, float(np.max(np.abs(current))))
        v0 = v1
    return residual, largest


def z_transform_check(netlist, stimulus, dt, n_steps, init="cold", zs=(), tamper=None):
    """Relative error, for each ``z`` of ``zs``, of the z-transform of every
    chip tile's series in a ``transient_solve`` run against one nodal
    solve in z.

    The trapezoidal rule maps s to (2/dt)(z-1)/(z+1), so the sum X(z) =
    sum_k x_k z^-k over the ``n_steps`` steps from a start at rest solves
    a nodal system built from ``Netlist.columns()`` alone: a resistor
    admits 1/R, a capacitor (2C/dt)(z-1)/(z+1) and an inductor
    (dt/2L)(z+1)/(z-1); a capacitor holding v0 at rest injects
    (2C/dt) z v0/(z+1); each source node is pinned to sum_k drive_k z^-k;
    a load of I injects -I sum_k load_k z^-k.  The sum starts at step 0 of
    a cold run, and of a warm run at the last step before the loads switch
    on, where the state is still at rest; the run ends ``n_steps`` later.
    Each tile node is recorded through a probe added to ``netlist``.

    The error is the largest tile deviation over max|x| sum_k |z|^-k.
    Take |z| = e^(40/n_steps), so the steps past the sum weigh below
    e^-40.  ``tamper`` names one element whose value the check takes as
    1.001 times the netlist's, as in ``kcl_audit``.
    """
    from dataclasses import replace

    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    from pdnsim.mna import transient_solve

    start = 0
    if init == "warm":
        before = dt * np.arange(int(stimulus.load_delay_s / dt) + 2)
        start = int(np.flatnonzero(stimulus.load_factor(before) == 0)[-1])
    tiles = np.asarray(netlist.meta["chip_tile_nodes"]).ravel()
    probes = [f"z_check_tile{k}" for k in range(len(tiles))]
    netlist.probes.update(zip(probes, tiles.tolist()))
    wf = transient_solve(netlist, stimulus, dt, (start + n_steps) * dt, probes=probes,
                         init=init)
    x = np.column_stack([wf.series[p][start:] for p in probes])
    if init == "warm":
        stimulus = replace(stimulus, v_start=stimulus.v_end)
    drive, load = stimulus.voltage(wf.time_s[start:]), stimulus.load_factor(wf.time_s[start:])

    n = netlist.node_count
    kind, a, b, value = netlist.columns()
    value = value.copy()
    if tamper is not None:
        value[tamper] *= 1.001
    is_r, is_c, is_l, is_i, is_v = (kind == k for k in (RESISTOR, CAPACITOR, INDUCTOR,
                                                        CURRENT_SOURCE, VOLTAGE_SOURCE))
    # capacitors and sources run from a node to ground (add_elements
    # checks), so each capacitor holds v_start at rest, and ground and the
    # source nodes are the pinned ones
    g_c = 2.0 * value[is_c] / dt
    free = np.ones(n, bool)
    free[GROUND] = free[a[is_v]] = False

    errors = []
    for z in zs:
        w = z ** -np.arange(n_steps + 1.0)
        y = np.zeros(len(kind), complex)
        y[is_r] = 1.0 / value[is_r]
        y[is_c] = g_c * (z - 1) / (z + 1)
        y[is_l] = dt / (2.0 * value[is_l]) * (z + 1) / (z - 1)
        Y = sp.coo_matrix((np.r_[y, y, -y, -y], (np.r_[a, b, a, b], np.r_[a, b, b, a])),
                          shape=(n, n)).tocsr()
        inj = np.zeros(n, complex)
        np.add.at(inj, a[is_i], -value[is_i] * (load @ w))
        np.add.at(inj, a[is_c], g_c * z * stimulus.v_start / (z + 1))
        v = np.zeros(n, complex)
        v[a[is_v]] = drive @ w
        # every admittance has a positive real part at |z| > 1, so the
        # factorization needs no pivoting and keeps the symmetric ordering
        lu = splu(Y[free][:, free].tocsc(), permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        v[free] = lu.solve(inj[free] - Y[free][:, ~free] @ v[~free])
        errors.append(float(np.max(np.abs(w @ x - v[tiles]))
                            / (np.max(np.abs(x)) * np.sum(np.abs(w)))))
    return errors
