"""Set-up timer, run in a fresh process: imports finpop, loads every job's
input files and builds what each job builds before it samples or enumerates
(the `Instance` and `estimator_spec`, or the `ClassifiedPopulation`; for
scalar_api the universes of the mix).  Prints {"import_s", "setup_s"}.

Usage: probe.py <manifest.json>, where the manifest lists the jobs'
population files and designs, or names the scalar_api inputs file.
"""

import time

_start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import finpop.cli  # noqa: E402,F401  the package the CLI imports
from finpop.verify import DesignConfig, Instance, estimator_spec  # noqa: E402

_imported = time.perf_counter()


def main(manifest_path: str) -> None:
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if "scalar_inputs" in manifest:
        import scalar

        with open(manifest["scalar_inputs"], encoding="utf-8") as fh:
            scalar.build(json.load(fh))
    for job in manifest.get("jobs", ()):
        with open(job["population"], encoding="utf-8") as fh:
            inst = Instance.from_mapping(json.load(fh))
        if job["kind"] != "counts":
            estimator_spec(inst, DesignConfig.from_mapping(job["design"]))
    end = time.perf_counter()
    print(json.dumps({"import_s": _imported - _start, "setup_s": end - _start}))


if __name__ == "__main__":
    main(sys.argv[1])
