"""The scripts in demos/ run end to end at desk scale and print what they
document."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ("on_package_1", "on_package_2", "on_package_4",
              "backside", "chip_on_vrm_3d")


def _run_demo(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stdout.splitlines()


def test_benchmark_comparison_dc_table():
    lines = _run_demo("benchmark_comparison.py", "--tiles", "6", "--no-transient")
    assert lines[0].split()[:2] == ["placement", "max"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:7]}
    assert list(rows) == list(BENCHMARKS)
    for cells in rows.values():
        assert float(cells[0]) > 0.0 and cells[1:] == ["-", "-", "-"]
    assert lines[-1].startswith("total wall time:")


def test_decap_sweep_noise_falls_with_density():
    lines = _run_demo("decap_sweep.py", "--tiles", "6", "--dt", "2.5e-10",
                      "--t-end", "20e-9")
    rows = [line.split() for line in lines[2:6]]
    assert [float(r[0]) for r in rows] == [1.0, 5.0, 10.0, 15.0]
    psn = [float(r[1]) for r in rows]
    assert psn == sorted(psn, reverse=True) and psn[-1] > 0.0
    assert lines[-1].startswith("endpoint ratio PSN(min)/PSN(max density):")


def test_ir_heatmap_writes_csv_and_svg(tmp_path):
    lines = _run_demo("ir_heatmap.py", "--out-dir", str(tmp_path))
    csv = tmp_path / "ir_map_on_package_4.csv"
    svg = tmp_path / "ir_map_on_package_4.svg"
    assert lines[0].startswith("on_package_4: max IR drop ")
    assert lines[1] == f"wrote {csv} and {svg}"
    assert csv.read_text().startswith("tile_i,tile_j,drop_mv\n")
    assert svg.read_text().startswith("<svg")
