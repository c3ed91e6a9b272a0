"""Shared fixtures.

The five-benchmark evaluation at full resolution is the expensive part of
the suite (~1 minute); it is run once per session and shared by the
settling, ordering and magnitude-target tests.
"""

import dataclasses
import time

import pytest
from hypothesis import settings

import pdnsim
from pdnsim.analysis import DEFAULT_DT_S, DEFAULT_T_END_S
from pdnsim.config import BENCHMARK_NAMES

# CI runs pass --hypothesis-profile=ci: examples are drawn from a fixed seed
# and a failure prints the blob that replays it; local runs stay random
settings.register_profile("ci", derandomize=True, print_blob=True)

# Acceptance runs use the default 25 ps step and 200 ns window: benchmark
# time constants sit well above 1 ns, trapezoidal error at 25 ps is far
# below the metric tolerances (test_mna.py::test_trapezoidal_error_is_second_order
# bounds it under 1% of max PSN), and the full five-benchmark evaluation
# stays around a minute.
ACCEPT_DT_S = DEFAULT_DT_S
ACCEPT_T_END_S = DEFAULT_T_END_S


@pytest.fixture(scope="session")
def bench_results():
    """Full-resolution DC + transient evaluation of all five benchmarks.

    Returns (results dict, wall-clock seconds for the ten solves).
    """
    results = {}
    t0 = time.perf_counter()
    for name in BENCHMARK_NAMES:
        cfg = pdnsim.benchmark_config(name)
        results[name] = pdnsim.evaluate(cfg, dt=ACCEPT_DT_S, t_end=ACCEPT_T_END_S)
    wall = time.perf_counter() - t0
    return results, wall


@pytest.fixture()
def small_config():
    """Factory for desk-scale configs (coarse tile grid, same physics)."""

    def make(name="on_package_4", tiles=6):
        cfg = pdnsim.benchmark_config(name)
        chip = dataclasses.replace(cfg.chip, tile_count_x=tiles, tile_count_y=tiles)
        cfg = dataclasses.replace(cfg, chip=chip, power_map=None)
        return pdnsim.validate_config(cfg)

    return make
