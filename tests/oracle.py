"""Independent reference implementations used by the test suite.

Everything here is deliberately written against the production solver's
grain: the DC reference builds one dense matrix with the ground row kept
and overwritten by a Dirichlet condition, and solves it with LAPACK via
``numpy.linalg.solve``; the transient references are closed-form textbook
step responses.  Agreement between these and the sparse solver is evidence,
not tautology.
"""

import numpy as np

from pdnsim.netlist import (CAPACITOR, CURRENT_SOURCE, GROUND, INDUCTOR,
                            RESISTOR, VOLTAGE_SOURCE)


def dense_dc(netlist):
    """Brute-force DC nodal analysis, dense, ground row kept.

    Returns the node-voltage vector indexed by netlist node id (ground
    entry 0).  Inductors are treated as 0 V sources; capacitors are open.
    """
    n = netlist.node_count
    branches = [e for e in netlist.elements
                if e.kind in (INDUCTOR, VOLTAGE_SOURCE)]
    dim = n + len(branches)
    A = np.zeros((dim, dim))
    rhs = np.zeros(dim)

    for e in netlist.elements:
        if e.kind == RESISTOR:
            g = 1.0 / e.value
            A[e.a, e.a] += g
            A[e.b, e.b] += g
            A[e.a, e.b] -= g
            A[e.b, e.a] -= g
        elif e.kind == CURRENT_SOURCE:
            rhs[e.a] -= e.value
            rhs[e.b] += e.value

    for k, e in enumerate(branches):
        row = n + k
        A[e.a, row] += 1.0
        A[e.b, row] -= 1.0
        A[row, e.a] += 1.0
        A[row, e.b] -= 1.0
        rhs[row] = e.value if e.kind == VOLTAGE_SOURCE else 0.0

    # Dirichlet ground: overwrite the ground KCL row instead of deleting it
    A[GROUND, :] = 0.0
    A[:, GROUND] = 0.0
    A[GROUND, GROUND] = 1.0
    rhs[GROUND] = 0.0

    x = np.linalg.solve(A, rhs)
    return x[:n]


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
    nodes = [GROUND] + [net.add_node("chip", (k, 0)) for k in range(n_extra)]

    def rnd_r():
        return float(10.0 ** rng.uniform(-3, 3))

    # spanning tree of resistors
    for k in range(1, len(nodes)):
        other = nodes[int(rng.integers(0, k))]
        net.add(RESISTOR, nodes[k], other, rnd_r(), f"chip_h[{k},0]")

    # extra resistors
    for k in range(int(rng.integers(0, 2 * n_extra))):
        a, b = rng.choice(len(nodes), size=2, replace=False)
        net.add(RESISTOR, nodes[int(a)], nodes[int(b)], rnd_r(), f"chip_v[{k},0]")

    # one grounded voltage source
    vn = nodes[int(rng.integers(1, len(nodes)))]
    net.add(VOLTAGE_SOURCE, vn, GROUND, float(rng.uniform(0.5, 2.0)), "vrm_src[0]")

    # current sources
    for k in range(int(rng.integers(1, n_extra + 1))):
        a = nodes[int(rng.integers(1, len(nodes)))]
        net.add(CURRENT_SOURCE, a, GROUND, float(rng.uniform(0.01, 2.0)),
                f"load[{k},0]")

    # inductors, kept loop-free among the zero-DC-impedance edges (V and L)
    # via union-find so the DC matrix stays nonsingular
    parent = list(range(len(net.nodes)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in net.sources:
        e = net.elements[i]
        parent[find(e.a)] = find(e.b)
    for k in range(int(rng.integers(0, 3))):
        a, b = (int(x) for x in rng.choice(len(nodes), size=2, replace=False))
        ra, rb = find(nodes[a]), find(nodes[b])
        if ra == rb:
            continue
        parent[ra] = rb
        net.add(INDUCTOR, nodes[a], nodes[b], float(10.0 ** rng.uniform(-10, -7)),
                f"pkg_lh[{k},0]")

    # capacitors are DC-invisible but exercise the stamper's open-circuit path
    for k in range(int(rng.integers(0, 3))):
        a = nodes[int(rng.integers(1, len(nodes)))]
        net.add(CAPACITOR, a, GROUND, float(10.0 ** rng.uniform(-12, -9)),
                f"chip_decap_c[{k},0]")
    return net
