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

# CI runs pass --hypothesis-profile=ci: examples are drawn from a fixed seed
# and a failure prints the blob that replays it; local runs stay random
settings.register_profile("ci", derandomize=True, print_blob=True)

BENCHMARKS = ("on_package_1", "on_package_2", "on_package_4",
              "backside", "chip_on_vrm_3d")

# Acceptance runs use a 25 ps step: benchmark time constants sit well above
# 1 ns, trapezoidal error at 25 ps is far below the metric tolerances, and
# the full five-benchmark evaluation stays around a minute.
ACCEPT_DT_S = 25e-12
ACCEPT_T_END_S = 200e-9


@pytest.fixture(scope="session")
def bench_results():
    """Full-resolution DC + transient evaluation of all five benchmarks.

    Returns (results dict, wall-clock seconds for the ten solves).
    """
    results = {}
    t0 = time.perf_counter()
    for name in BENCHMARKS:
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
