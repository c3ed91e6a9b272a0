"""Set-up cost of one CLI-style call, in a fresh process: import pdnsim, then
build and validate the configs of the workload's first ``min_ops``
operations.

    python3 perfbench/setup_probe.py <workload> <seed> <toy 0|1>

Prints ``{"import_s": ..., "configs_s": ...}``.  ``run.py`` starts it with
the checkout's ``src`` on PYTHONPATH and times it from start to exit.
"""

import json
import sys
import time


def main(name, seed, toy):
    t0 = time.process_time()
    import pdnsim
    import_s = time.process_time() - t0

    from workloads import scenario, workload

    w = workload(name, toy == "1")
    t0 = time.process_time()
    for k in range(w.min_ops):
        pdnsim.validate_config(scenario(w, int(seed), k)[-1])
    print(json.dumps({"import_s": import_s,
                      "configs_s": time.process_time() - t0}))


if __name__ == "__main__":
    main(*sys.argv[1:])
