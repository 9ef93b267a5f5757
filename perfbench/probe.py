"""Set-up probe: one fresh interpreter's path up to the first layer call.

``run.py`` starts this script and times it from process start until it
prints its line: importing ``repro``, parsing and compiling the
workload's spec (or building its task batch) and opening the result
store where the workload uses one.  Usage::

    python3 perfbench/probe.py WORKLOAD SEED SCALE STORE_DIR
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(workload: str, seed: int, scale_name: str, store_dir: str) -> None:
    start = time.perf_counter()
    import repro.cli  # noqa: F401  (the CLI entry point imports the whole library)

    import_s = time.perf_counter() - start

    import workloads
    from repro.report.pipeline import compile_tasks
    from repro.report.spec import spec_from_dict
    from repro.runner.store import SQLiteResultStore

    scale = workloads.SCALES[scale_name]
    if workload == "sweep":
        workloads.compute_tasks(scale, workload, seed, 0)
    else:
        if workload == "service":
            data = workloads.service_spec_data(scale, seed, 0)
        else:
            data = workloads.paper_spec_data(scale, seed, 0)
        compile_tasks(spec_from_dict(data))
        SQLiteResultStore(store_dir).close()
    print(json.dumps({"import_s": import_s}), flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4])
