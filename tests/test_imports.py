"""Importing pdnsim and the commands that solve nothing load no scipy: it is
imported where it is first used, so only a solve pays for it.  Each case
runs in a fresh interpreter, because this test process has scipy loaded
already.  The checks are structural; nothing here is timed."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdnsim
from pdnsim import config_to_json

ROOT = Path(__file__).resolve().parents[1]

# each snippet runs its step, then prints the scipy modules it left loaded
_REPORT = ("import sys\n"
           "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")


def _fresh(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("step", [
    "import pdnsim",
    "import pdnsim.cli",
    "from pdnsim.cli import main; assert main(['--help']) == 0",
    "from pdnsim.cli import main; assert main(['default-config']) == 0",
    "from pdnsim.cli import main; assert main(['validate', '--config', sys.argv[1]]) == 0",
], ids=["import", "import_cli", "help", "default_config", "validate"])
def test_set_up_loads_no_scipy(small_config, tmp_path, step):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(config_to_json(small_config()))
    lines = _fresh("import sys\n" + step + "\n" + _REPORT, str(cfg))
    assert lines[-1] == "[]"


def test_first_solve_in_a_fresh_process_imports_scipy_and_matches(small_config,
                                                                 tmp_path):
    cfg = small_config("on_package_1")
    path = tmp_path / "scenario.json"
    path.write_text(config_to_json(cfg))
    run = ("import json, sys, pdnsim\n"
           "res = pdnsim.evaluate(pdnsim.load_config(sys.argv[1]), dt=2.5e-10, t_end=10e-9)\n"
           "print(json.dumps([res.ir_map.max_mv, res.psn.max_psn_mv]))\n")
    lines = _fresh(run + _REPORT, str(path))
    assert "scipy.sparse.linalg" in lines[-1]
    res = pdnsim.evaluate(cfg, dt=2.5e-10, t_end=10e-9)
    assert json.loads(lines[-2]) == [res.ir_map.max_mv, res.psn.max_psn_mv]


def test_evaluation_loads_no_scipy_signal(small_config, tmp_path):
    """The first droop is found without ``scipy.signal``: importing it would
    add about 44 MB of resident memory to every run."""
    path = tmp_path / "scenario.json"
    path.write_text(config_to_json(small_config("on_package_1")))
    run = ("import sys, pdnsim\n"
           "res = pdnsim.evaluate(pdnsim.load_config(sys.argv[1]), dt=2.5e-10, t_end=10e-9)\n"
           "assert res.psn.max_psn_mv > 0\n")
    loaded = _fresh(run + _REPORT, str(path))[-1]
    assert "'scipy.sparse.linalg'" in loaded
    assert "'scipy.signal" not in loaded
