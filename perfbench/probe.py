"""One fresh-interpreter pass of a workload: set-up, cold pass, peak memory.

Run by run.py as `python3 probe.py '<json spec>'`; prints one JSON line.
Set-up is timed from the first statement of this script, so it covers the
import of the package and the parsing of the workload's scenario documents.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import workloads

    workload = workloads.build(spec["workload"], Path(spec["out_dir"]),
                               Path(spec["document_file"]))
    setup_s = time.perf_counter() - START
    if spec.get("one_op") and workload.name == "ensemble":
        workload.documents = workload.documents[:1]
    result = workload.run_pass()
    print(json.dumps({
        "setup_s": setup_s,
        "pass_s": result.elapsed,
        "finished": result.finished,
        "ops": result.ops,
        "failed": result.failed,
        "digest": result.digest,
        "problems": result.problems[:5],
        "maxrss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
