"""pdnsim: power delivery network simulator for 2.5-D/3-D packaging.

Pipeline: ScenarioConfig -> netlist builder -> MNA solver (DC + transient)
-> metrics, sweeps and comparison reports.
"""

__version__ = "0.1.0"

from .analysis import (BenchmarkResult, ComparisonReport, IrDropMap,
                       PsnMetrics, SweepResult, compare_configurations,
                       evaluate, extract_psn, ir_drop_map, run_sweep)
from .builder import assemble_netlist
from .config import (BacksideVrm, BoardSpec, BumpSpec, ChipOnVrm3D, ChipSpec,
                     DecapPolicy, DiscreteDecap, OnPackageVrm, PackageDecap,
                     PackageSpec, PowerMap, ScenarioConfig, ViaSpec, VrmSpec, WireSpec,
                     benchmark_config, builtin_power_map, config_from_json,
                     config_hash, config_to_json, load_config, validate_config)
from .errors import NetlistError, PdnError, RequestError, SolverError, ValidationError
from .mna import (DcSolution, MnaSystem, Stimulus, TransientWaveform, dc_solve,
                  transient_solve, waveform_to_csv)
from .netlist import Netlist, netlist_to_text
